"""The benchmark's traced layers must exist in the package.

bench/tracing.py wraps each LAYERS entry by module and attribute name;
a layer that no longer resolves is only warned about on stderr and
reported as zero, so a refactor could drop one unnoticed. The tracing
module is executed from its source here, without writing bytecode next
to it.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from taskaxes import skill
from taskaxes.controllers import ControllerConfig, Limits, ObservationBundle
from taskaxes.grounding import GroundedParams

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
