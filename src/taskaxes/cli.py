"""Command-line interface.

Commands (all non-interactive; every command writes its outputs plus a
manifest.json into --out):

  match      transfer annotated keypoints between two feature grids
  ground     ground a full spec against feature/depth files
  run        execute a skill file against a scene file in the simulator
  validate   grounding-accuracy statistics over randomized scene pairs
  gen        emit a demo task bundle (scenes, specs, skill)
  replay     re-execute a recorded manifest into a fresh output directory

Exit codes: 0 success, 1 usage error, 2 data/matching error,
3 execution failure. Environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import ConfigError, FileFormatError, TaskAxesError, entry, finite, typed
from .evaluation import run_validation
from .features import (
    MatchConfig,
    cosine_map,
    read_depth_mask,
    read_feature_grid,
    select_match,
    window_average,
)
from .geometry import CameraIntrinsics
from .grounding import GroundingConfig, ground_spec, spec_from_json
from .scenes import (
    TASK_SEED,
    TASKS,
    config_from_json,
    load_scene,
    read_json,
    read_text,
    write_json,
    write_task_bundle,
)
from .simulator import RunConfig, SkillRunner
from .skill import ROBOT_ROLE_SOURCE, parse_skill
from .controllers import Gains


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# input file flags; a manifest records them and its inputs relative to itself
_PATH_FLAGS = ("skill", "scene", "config", "ref", "target", "depth", "keypoints",
               "spec", "intr")


def _write_manifest(out_dir, command, flags, inputs):
    outputs = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            outputs[name] = _sha256(path)
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "flags": {k: os.path.relpath(v, out_dir) if k in _PATH_FLAGS and v else v
                  for k, v in flags.items() if k not in ("command", "out")},
        "inputs": {os.path.relpath(p, out_dir): _sha256(p) for p in inputs},
        "outputs": outputs,
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _write_pgm(path, score, valid):
    """Similarity heat map as binary PGM: score -1..1 mapped to 1..255, invalid 0."""
    levels = np.zeros(score.shape, dtype=np.uint8)
    levels[valid] = np.clip((score[valid] + 1.0) * 127.0 + 1.0, 1, 255).astype(np.uint8)
    header = f"P5\n{score.shape[1]} {score.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + levels.tobytes())


def _match_config(flags) -> MatchConfig:
    return MatchConfig(mode=flags["mode"], temperature=flags["temp"],
                       window_radius=flags["window"])


# ----------------------------------------------------------------------
# commands: each returns (exit_code, input_paths)


def _keypoint_pixels(data):
    """(keypoint, (u, v) pixel) of each keypoint object of a JSON list."""
    pairs = []
    for i, kp in enumerate(typed(data, list, "keypoints")):
        entry(kp, "label", f"[{i}].label")
        u, v = finite(f"[{i}].pixel", entry(kp, "pixel", f"[{i}].pixel"), (2,))
        pairs.append((kp, (int(u), int(v))))
    return pairs


def cmd_match(flags, out_dir):
    ref = read_feature_grid(flags["ref"])
    target = read_feature_grid(flags["target"])
    depth = read_depth_mask(flags["depth"])
    keypoints = read_json(flags["keypoints"], _keypoint_pixels)
    cfg = _match_config(flags)
    results = []
    for kp, px in keypoints:
        # the map behind the match is also the one --dump-simmap writes
        sim = cosine_map(window_average(ref, px[0], px[1], cfg.window_radius),
                         target, depth)
        m = select_match(sim, cfg)
        results.append({"object": kp.get("object", ""), "label": kp["label"],
                        "ref_pixel": list(px), "u": m.u, "v": m.v,
                        "pixel": list(m.pixel), "score": m.peak_score,
                        "mode": m.mode})
        if flags.get("dump_simmap"):
            name = f"simmap_{kp.get('object', 'obj')}_{kp['label']}.pgm"
            _write_pgm(os.path.join(out_dir, name), sim.score, sim.valid)
    write_json(os.path.join(out_dir, "matches.json"), results)
    return 0, [flags["ref"], flags["target"], flags["depth"], flags["keypoints"]]


def cmd_ground(flags, out_dir):
    spec = read_json(flags["spec"], spec_from_json)
    ref = read_feature_grid(flags["ref"])
    target = read_feature_grid(flags["target"])
    depth = read_depth_mask(flags["depth"])
    intr = read_json(flags["intr"], CameraIntrinsics.from_json)
    cfg = GroundingConfig(match=_match_config(flags),
                          min_score=flags["min_score"])
    grounded = ground_spec(spec, ref, target, depth, intr, cfg)
    write_json(os.path.join(out_dir, "grounded.json"), grounded.to_json())
    return 0, [flags[k] for k in ("spec", "ref", "target", "depth", "intr")]


def _run_config(flags, inputs):
    """RunConfig and default controller gains: the class defaults, with
    the --config JSON overlaid when one is given."""
    def build(data):
        gains = config_from_json(Gains(), typed(data, dict, "config").get("gains", {}),
                                 "gains.")
        return config_from_json(RunConfig(), {k: v for k, v in data.items() if k != "gains"}), gains

    path = flags.get("config")
    if not path:
        return build({})
    inputs.append(path)
    return read_json(path, build)


def cmd_run(flags, out_dir):
    skill_path = flags["skill"]
    inputs = [skill_path, flags["scene"]]
    cfg, gains = _run_config(flags, inputs)
    text = read_text(skill_path)
    try:
        skill = parse_skill(text, default_gains=gains, default_limits=cfg.limits)
    except TaskAxesError as err:
        raise err.annotate(skill_path) from None
    scene, ref_scene, feature_files, scene_paths = load_scene(flags["scene"])
    inputs.extend(scene_paths)
    if flags.get("seed") is not None:
        scene.features = replace(scene.features, seed=flags["seed"])
        if ref_scene is not None:
            ref_scene.features = replace(ref_scene.features, seed=flags["seed"])
    specs = {}
    skill_dir = os.path.dirname(os.path.abspath(skill_path))
    for role, source in skill.uses:
        if source == ROBOT_ROLE_SOURCE:
            continue
        spec_path = os.path.join(skill_dir, source)
        specs[role] = read_json(spec_path, spec_from_json)
        inputs.append(spec_path)

    try:
        runner = SkillRunner(skill, scene, specs, ref_scene=ref_scene, config=cfg,
                             feature_files=feature_files)
    except TaskAxesError as err:
        raise err.annotate(skill_path) from None
    # grounding here, not inside run(), lets a grounding error exit 2 before
    # any output is written; run() would report it as a failed run (exit 3)
    runner.ground_all()
    result = runner.run()
    result.log.write(os.path.join(out_dir, "log.jsonl"),
                     os.path.join(out_dir, "trajectory.csv"))
    write_json(os.path.join(out_dir, "result.json"), result.summary())
    if not result.success:
        print(f"run failed: {json.dumps(result.summary(), sort_keys=True)}",
              file=sys.stderr)
        return 3, inputs
    return 0, inputs


def cmd_validate(flags, out_dir):
    def stats_at(sigma):
        return run_validation(flags["trials"], noise_sigma=sigma, mode=flags["mode"],
                              temperature=flags["temp"], seed=flags["seed"])

    if flags.get("noise_sweep"):
        try:
            sigmas = [float(s) for s in flags["noise_sweep"].split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"--noise-sweep must be comma-separated numbers, "
                              f"got {flags['noise_sweep']!r}") from None
        stats = {"sweep": [stats_at(s) for s in sigmas]}
    else:
        stats = stats_at(flags["noise"])
    write_json(os.path.join(out_dir, "stats.json"), stats)
    return 0, []


def cmd_gen(flags, out_dir):
    write_task_bundle(flags["task"], out_dir, seed=flags["seed"])
    return 0, []


_COMMANDS = {"match": cmd_match, "ground": cmd_ground, "run": cmd_run,
             "validate": cmd_validate, "gen": cmd_gen}


def _recorded_flags(command, flags, out_dir):
    """A manifest's `flags` of `command`, parsed as its command line would
    be: each recorded value goes back through the command's own argparse
    action, so a value of the wrong type or choice names its flag. A flag
    the command does not take (one since removed) must be unset."""
    parser = _build_parser()
    actions = parser.commands[command]._actions
    for name in sorted(set(flags) - {action.dest for action in actions}):
        if flags[name] is not None and flags[name] is not False:
            raise FileFormatError(f"manifest flags: {name!r} is set, but {command} "
                                  f"takes no such flag")
    argv = [command]
    for action in actions:
        if action.dest in ("help", "out"):
            continue
        if action.dest not in flags:
            raise FileFormatError(f"manifest flags lack {action.dest!r}")
        value = flags[action.dest]
        if action.nargs == 0:       # a switch
            argv += [action.option_strings[0]] if value else []
        elif value is not None:
            argv.append(f"{action.option_strings[0]}={value}")
    try:
        return vars(parser.parse_args(argv + ["--out", out_dir]))
    except _UsageError as err:
        raise FileFormatError(f"manifest flags: {err}") from None


def cmd_replay(flags, out_dir):
    manifest = read_json(flags["manifest"])
    if not isinstance(manifest, dict) or not isinstance(manifest.get("flags"), dict):
        raise FileFormatError(f"{flags['manifest']}: not a manifest (a JSON object "
                              f"with a \"flags\" object)")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise FileFormatError(f"manifest names unknown command {command!r}")
    recorded = _recorded_flags(command, manifest["flags"], out_dir)
    base = os.path.dirname(flags["manifest"])
    recorded = {k: os.path.join(base, v) if k in _PATH_FLAGS and v else v
                for k, v in recorded.items()}
    for name, digest in manifest.get("inputs", {}).items():
        path = os.path.join(base, name)
        if not os.path.isfile(path):
            raise FileFormatError(f"manifest input missing: {path}")
        if _sha256(path) != digest:
            raise FileFormatError(f"manifest input changed since recording: {path}")
    code, inputs = _COMMANDS[command](recorded, out_dir)
    _write_manifest(out_dir, command, recorded, inputs)
    return code, [flags["manifest"]]


# ----------------------------------------------------------------------
# argument parsing


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="taskaxes", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_match_flags(p):
        p.add_argument("--mode", choices=("hard", "soft"), default=MatchConfig.mode)
        p.add_argument("--temp", type=float, default=MatchConfig.temperature,
                       help="soft-argmax temperature (default %(default)s)")
        p.add_argument("--window", type=int, default=MatchConfig.window_radius,
                       help="reference window radius r in pixels, averaging "
                            "(2r+1)x(2r+1) (default %(default)s)")

    p = sub.add_parser("match", help="transfer keypoints between feature grids")
    p.add_argument("--ref", required=True, help="reference .fgrd")
    p.add_argument("--keypoints", required=True, help="reference keypoints JSON")
    p.add_argument("--target", required=True, help="target .fgrd")
    p.add_argument("--depth", required=True, help="target .dpth")
    add_match_flags(p)
    p.add_argument("--dump-simmap", action="store_true", dest="dump_simmap",
                   help="also write one PGM similarity map per keypoint")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ground", help="ground a spec against feature files")
    p.add_argument("--spec", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--depth", required=True)
    p.add_argument("--intr", required=True, help="camera intrinsics JSON")
    add_match_flags(p)
    p.add_argument("--min-score", type=float, default=GroundingConfig.min_score,
                   dest="min_score")
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="execute a skill in the simulator")
    p.add_argument("--skill", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the scene's feature seed")
    p.add_argument("--config", default=None, help="run configuration JSON")
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="grounding accuracy statistics")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--mode", choices=("hard", "soft"), default=MatchConfig.mode)
    p.add_argument("--temp", type=float, default=MatchConfig.temperature)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sweep", dest="noise_sweep", default=None,
                   help="comma-separated sigma list; overrides --noise")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen", help="write a demo task bundle")
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--seed", type=int, default=TASK_SEED)
    p.add_argument("--out", required=True)

    p = sub.add_parser("replay", help="re-execute a recorded manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SystemExit:
        # argparse exits for --help; treat that as success
        return 0
    flags = vars(args)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    handler = cmd_replay if args.command == "replay" else _COMMANDS[args.command]
    try:
        code, inputs = handler(flags, out_dir)
    except (TaskAxesError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.command != "replay":
        _write_manifest(out_dir, args.command, flags, inputs)
    return code


if __name__ == "__main__":
    sys.exit(main())
