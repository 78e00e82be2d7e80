"""The benchmark's traced layers must exist in the package.

bench/tracing.py wraps each LAYERS entry by module and attribute name;
a layer that no longer resolves is only warned about on stderr and
reported as zero, so a refactor could drop one unnoticed. A layer that
resolves but is no longer called on the tick's path reads zero too, so
the tick layers are also counted over short runs, and grounding is
counted to back-project, once per PCA scan through the traced
cloud_from_depth, only the depth window around each PCA anchor, never
the whole image. The tracing module is executed from its
source here, without writing bytecode next to it.
"""

import importlib
import math
import types
from pathlib import Path

import numpy as np
import pytest

from taskaxes import evaluation, grounding, skill
from taskaxes.controllers import ControllerConfig, Limits, ObservationBundle
from taskaxes.geometry import CameraIntrinsics, Frame
from taskaxes.grounding import GroundedParams
from taskaxes.scenes import build_task, sample_box, scene_from_json
from taskaxes.simulator import ContactSurface, Scene, SceneObject, SkillRunner

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


TRACING_MODULE = _tracing()


@pytest.mark.parametrize("layer, module_name, attr",
                         [entry[:3] for entry in TRACING_MODULE.LAYERS])
def test_traced_layer_resolves_to_a_callable(layer, module_name, attr):
    assert module_name.startswith("taskaxes")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{layer}: {module_name}.{attr} does not resolve"


class _FixedEnv:
    def observe(self):
        grounded = GroundedParams(keypoints={"r.pos": np.zeros(3),
                                             "o.goal": np.array([1.0, 0.0, 0.0])},
                                  axes={"r.x": np.array([1.0, 0.0, 0.0]),
                                        "o.y": np.array([0.0, 1.0, 0.0])})
        return ObservationBundle(grounded=grounded, measured_force=np.zeros(3))

    def apply(self, twist):
        pass


def test_control_tick_layer_calls_per_tick():
    phase = skill.SkillPhase(
        name="p", step_budget=5,
        translational=(ControllerConfig(kind="PosAlign", bindings=("r.pos", "o.goal")),
                       ControllerConfig(kind="ForceAlign", bindings=("r.x",))),
        rotational=(ControllerConfig(kind="AxisAlign", bindings=("r.x", "o.y")),))
    tracer = TRACING_MODULE.Tracer()
    tracer.install()
    try:
        skill.run_phase(phase, _FixedEnv(), Limits())
    finally:
        tracer.uninstall()
    calls = {name: stats.calls for name, stats in tracer.layers.items()}
    assert calls["skill.run_phase"] == 1
    assert calls["controllers.step_controller"] == 5 * 3
    assert calls["skill.project_axes"] == 5 * 2
    assert calls["skill.project_actions"] == 5 * 2
    assert calls["skill.compose_twist"] == 5


def test_runner_tick_layers_are_traced_once_per_tick():
    block = SceneObject(name="block", pose=Frame.from_rpy_deg((0, 0, 0.5), (0, 0, 0)),
                        cloud=sample_box(0.06, 0.06, 0.01, 0.002),
                        surfaces=[ContactSurface(np.zeros(3), np.array([0, 0, -1.0]),
                                                 5000.0)])
    scene = Scene(objects=[block], intrinsics=CameraIntrinsics(
        fx=300.0, fy=300.0, cx=80.0, cy=60.0, width=160, height=120))
    runner = SkillRunner(skill.parse_skill(
        "skill s {\n  uses r: robot\n  phase p budget=7 {\n"
        "    AxisAlign(r.x, r.y);\n    PosAlign(r.pos, r.pos, theta=[0.01, 0, 0]);\n"
        "    ForceAlign(r.z, theta=1.0)\n  }\n}\n"), scene, {})
    tracer = TRACING_MODULE.Tracer()
    tracer.install()
    try:
        result = runner.run()
    finally:
        tracer.uninstall()
    assert result.state.t == 7
    calls = {name: stats.calls for name, stats in tracer.layers.items()}
    assert calls["simulator.step_sim"] == 7
    assert calls["simulator.SkillRunner.observe"] == 7
    assert calls["controllers.step_controller"] == 7 * 3


def _window_area(at, radius, intr):
    """Pixel count of the box grounding back-projects around an anchor:
    the corners of the box at +-radius around it projected, plus 1 px."""
    x, y, z = at
    r = radius * (1 + 1e-9)
    if not z - r > 0:
        return intr.width * intr.height
    us = [intr.cx + intr.fx * a / d for a in (x - r, x + r) for d in (z - r, z + r)]
    vs = [intr.cy + intr.fy * b / d for b in (y - r, y + r) for d in (z - r, z + r)]
    cols = min(math.ceil(max(us)) + 2, intr.width) - max(math.floor(min(us)) - 1, 0)
    rows = min(math.ceil(max(vs)) + 2, intr.height) - max(math.floor(min(vs)) - 1, 0)
    return max(cols, 0) * max(rows, 0)


def _count_grounding(monkeypatch, intr, ground):
    """(cloud_from_depth layer stats, [(points scanned, window area)] per
    PCA) while ground() runs traced."""
    scans = []
    with monkeypatch.context() as patch:
        for name in ("surface_normal", "edge_direction"):
            def record(points, at, radius, min_neighbors, pca=getattr(grounding, name)):
                scans.append((len(points), _window_area(at, radius, intr)))
                return pca(points, at, radius, min_neighbors)
            patch.setattr(grounding, name, record)
        tracer = TRACING_MODULE.Tracer()
        tracer.install()
        try:
            ground()
        finally:
            tracer.uninstall()
    return tracer.layers["grounding.cloud_from_depth"], scans


def test_validation_and_runner_grounding_scan_the_depth_window_only(monkeypatch):
    cloud, scans = _count_grounding(monkeypatch, evaluation._INTR,
                                    lambda: evaluation.run_validation(1, noise_sigma=0.1))
    assert len(scans) == 2      # the validation spec's normal and edge axes
    bundle = build_task("scrape")
    scene, _ = scene_from_json(bundle["scene"])
    ref_scene, _ = scene_from_json(bundle["ref_scene"])
    runner = SkillRunner(skill.parse_skill(bundle["skill_text"]), scene, bundle["specs"],
                         ref_scene=ref_scene)
    runner_cloud, runner_scans = _count_grounding(monkeypatch, scene.intrinsics,
                                                  runner.ground_all)
    assert runner_scans
    # one back-projection per PCA scan, of exactly the points it scans
    for stats, pcas in ((cloud, scans), (runner_cloud, runner_scans)):
        assert stats.calls == len(pcas)
        assert stats.counters["points"] == sum(scanned for scanned, _ in pcas)
    for scanned, area in scans + runner_scans:
        assert 0 < scanned <= area < 640 * 480 // 20
