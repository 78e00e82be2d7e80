"""The benchmark's three closed-loop workloads.

Each workload turns an op seed into inputs (``prepare``, untimed), runs
one op through public ``taskaxes`` calls (``run``, the only timed part),
and checks the op's outputs (``check``), returning a list of problems
and the op's behaviour digests. Every op of a run gets its own seed, so
no two ops share inputs: the seed sets the feature basis and, in the run
scenes of demo-run and long-sweep, shifts each object by a few millimetres,
so every op renders its own depth map and grounds on its own cloud.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time

import numpy as np

from taskaxes import cli, evaluation
from taskaxes.scenes import TASKS, build_task, scene_from_json
from taskaxes.simulator import SkillRunner
from taskaxes.skill import parse_skill


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of op `index` in a run of `workload` at workload seed `seed`."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def jitter_scene(scene: dict, seed: int, shift_m=0.003) -> dict:
    """Move each object of a run-scene JSON but the desk by up to `shift_m`
    in x and y, drawn from `seed`. Orientations stay as generated: a turn
    of two degrees already leaves the screw task's drive phase unfinished."""
    rng = np.random.default_rng(seed)
    for obj in scene["objects"]:
        if obj["name"] != "desk":
            dx, dy = rng.uniform(-shift_m, shift_m, 2)
            obj["pose"]["origin"][0] += float(dx)
            obj["pose"]["origin"][1] += float(dy)
    return scene


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _compare(expected, actual, what):
    """Problems for each recorded digest that the op did not reproduce."""
    if expected is None:
        return []
    return [f"{what} {key}: digest {actual.get(key)} != recorded {value}"
            for key, value in sorted(expected.items()) if actual.get(key) != value]


class DemoRun:
    """One op: `taskaxes run` through cli.main on the scrape, pour and screw
    bundles, each written by `taskaxes gen` at the op seed, with its run
    scene jittered from the op seed."""

    name = "demo-run"
    traced_ops = 2
    files = ("log.jsonl", "result.json", "trajectory.csv")

    def __init__(self, work_dir, fingerprints, sabotage=False):
        self.work_dir = work_dir
        self.fingerprints = fingerprints
        self.sabotage = sabotage

    def prepare(self, seed):
        root = os.path.join(self.work_dir, f"demo-{seed}")
        runs = []
        for task in TASKS:
            bundle = os.path.join(root, f"{task}-bundle")
            code = cli.main(["gen", "--task", task, "--seed", str(seed), "--out", bundle])
            if code != 0:
                raise RuntimeError(f"gen --task {task} exited {code}")
            scene = os.path.join(bundle, "scene.json")
            with open(scene, encoding="utf-8") as fh:
                data = jitter_scene(json.load(fh), seed)
            with open(scene, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)
            skill = os.path.join(bundle, f"{task}.skill")
            if self.sabotage:
                _shrink_budgets(skill)
            runs.append((task, ["run", "--skill", skill, "--scene", scene,
                                "--out", os.path.join(root, f"{task}-out")]))
        return root, runs

    def run(self, inputs):
        _, runs = inputs
        return [cli.main(argv) for _, argv in runs]

    def check(self, seed, inputs, codes):
        problems = []
        digests = {}
        for (task, argv), code in zip(inputs[1], codes):
            out = argv[-1]
            if code != 0:
                problems.append(f"{task}: exit code {code}")
                continue
            with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
                if not json.load(fh)["success"]:
                    problems.append(f"{task}: result.json reports failure")
            digests[task] = {name: _sha256_file(os.path.join(out, name))
                             for name in self.files}
            recorded = self.fingerprints.get(str(seed), {}).get(task)
            problems += _compare(recorded, digests[task], task)
        return problems, digests

    def cleanup(self, inputs):
        shutil.rmtree(inputs[0], ignore_errors=True)


def _shrink_budgets(skill_path):
    """Make every phase run out of budget (self-check of failure counting)."""
    with open(skill_path, encoding="utf-8") as fh:
        text = fh.read()
    with open(skill_path, "w", encoding="utf-8") as fh:
        fh.write(re.sub(r"budget=\d+", "budget=3", text))


class Validate:
    """One op: run_validation at three settings with a fixed trial count."""

    name = "validate"
    traced_ops = 3
    trials = 5
    settings = ((0.0, "hard"), (0.1, "soft"), (1.0, "soft"))

    def __init__(self, work_dir, fingerprints, sabotage=False):
        self.fingerprints = fingerprints
        # an unreachable match threshold fails every trial of every setting
        self.min_score = 1.5 if sabotage else None

    def prepare(self, seed):
        return seed

    def run(self, seed):
        extra = {} if self.min_score is None else {"min_score": self.min_score}
        return [evaluation.run_validation(self.trials, noise_sigma=sigma, mode=mode,
                                          temperature=0.01, seed=seed, **extra)
                for sigma, mode in self.settings]

    def check(self, seed, inputs, results):
        problems = []
        for stats in results:
            if stats["noise_sigma"] <= 0.1 and stats["failures"]:
                problems.append(f"sigma={stats['noise_sigma']} {stats['mode']}: "
                                f"{stats['failures']} failed trials")
        clean = results[0]
        if clean["keypoints"].get("count", 0) == 0:
            problems.append("clean hard setting grounded no keypoints")
        elif clean["keypoints"]["median"] > clean["quantization_bound_m"]:
            problems.append(f"clean hard keypoint median {clean['keypoints']['median']:.6f} m "
                            f"> quantization bound {clean['quantization_bound_m']:.6f} m")
        text = json.dumps(results, sort_keys=True).encode()
        digests = {"stats": hashlib.sha256(text).hexdigest()}
        problems += _compare(self.fingerprints.get(str(seed)), digests, "validate")
        return problems, digests

    def cleanup(self, inputs):
        pass


class ClockedRunner(SkillRunner):
    """SkillRunner that reads the clock once per control tick."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.clock = []

    def observe(self):
        self.clock.append(time.perf_counter())
        return super().observe()


class LongSweep:
    """One op: ground the scrape scene once, then run the demo scrape skill
    plus a long force-holding sweep phase, keeping the log in memory."""

    name = "long-sweep"
    traced_ops = 2
    legs = 2
    leg_budget = 2500
    force_n = 5.0
    settle_s = 2.0
    force_tol = 0.05

    def __init__(self, work_dir, fingerprints, sabotage=False):
        self.fingerprints = fingerprints
        self.budget = 3 if sabotage else self.leg_budget * self.legs

    def sweep_phase(self) -> str:
        # legs + 1 waypoints alternating 0 and 4 cm along the scrape axis
        waypoints = ", ".join(f"[0, 0, {0.04 if i % 2 else 0}]"
                              for i in range(self.legs + 1))
        return (f"  phase sweep budget={self.budget} {{\n"
                "    AxisAlign(spatula.tip_dir, pan.surface_dir, theta=[0, 0, 135], "
                "w_max=0.8, done_tol=0.5);\n"
                "    AxisAlign(gripper.y, pan.scrape_dir, w_max=0.8);\n"
                f"    ForceAlign(spatula.tip_dir, theta={self.force_n}, kf=0.01);\n"
                "    PosWaypoint(spatula.tip_pos, pan.scrape_pos, pan.scrape_dir, "
                f"theta=[{waypoints}], v_max=0.006)\n"
                "  }\n")

    def prepare(self, seed):
        bundle = build_task("scrape", seed=seed)
        text = bundle["skill_text"].rstrip()
        if not text.endswith("}"):
            raise RuntimeError("scrape skill text does not end with '}'")
        skill = parse_skill(text[:-1] + self.sweep_phase() + "}\n")
        scene, _ = scene_from_json(jitter_scene(bundle["scene"], seed))
        ref_scene, _ = scene_from_json(bundle["ref_scene"])
        return ClockedRunner(skill, scene, bundle["specs"], ref_scene=ref_scene)

    def run(self, runner):
        runner.ground_all()
        return runner.run()

    def check(self, seed, runner, result):
        problems = []
        if not result.success:
            problems.append(f"run failed: {json.dumps(result.summary(), sort_keys=True)}")
        sweep = [r for r in result.log.records if r["phase"] == "sweep"]
        t0 = sweep[0]["t"] if sweep else 0
        settled = [r for r in sweep if (r["t"] - t0) * result.state.dt > self.settle_s]
        if not settled:
            problems.append("sweep phase shorter than the settling window")
        for r in settled:
            axis = np.array(r["grounded"]["axes"]["spatula.tip_dir"])
            force = float(-np.array(r["contact_force"]) @ axis)
            if abs(force - self.force_n) > self.force_tol * self.force_n:
                problems.append(f"tick {r['t']}: tool-axis force {force:.4f} N outside "
                                f"{self.force_tol:.0%} of {self.force_n} N")
                break
        h = hashlib.sha256()
        for r in result.log.records:
            h.update((json.dumps(r, sort_keys=True) + "\n").encode())
        digests = {"log": h.hexdigest()}
        problems += _compare(self.fingerprints.get(str(seed)), digests, "long-sweep")
        return problems, digests

    def cleanup(self, runner):
        pass

    @staticmethod
    def tick_seconds(runner):
        """Wall time of each control tick of the op, clock read to clock read."""
        return np.diff(runner.clock).tolist()


WORKLOADS = {cls.name: cls for cls in (DemoRun, Validate, LongSweep)}
