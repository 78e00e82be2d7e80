"""The benchmark's workloads still run against the package.

bench/workloads.py drives the program through its public calls
(build_task, scene_from_json, parse_skill, SkillRunner with ref_scene,
ground_all, run, RunResult.summary, SimLog.records and run_validation
with min_score). The full benchmark self-check takes minutes, so here
one long-sweep op and one validate op run in their sabotaged form
(3-tick sweep budget, unreachable match threshold): each must report
problems and digests instead of raising. The module is executed from
its source, without writing bytecode next to it.
"""

import types
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    module = types.ModuleType("workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"),
         module.__dict__)
    return module


def _one_op(workload, seed):
    inputs = workload.prepare(seed)
    try:
        return workload.check(seed, inputs, workload.run(inputs))
    finally:
        workload.cleanup(inputs)


def test_sabotaged_ops_report_problems_through_the_public_calls(tmp_path):
    module = _workloads()
    sweep = module.LongSweep(str(tmp_path), {}, sabotage=True)
    problems, digests = _one_op(sweep, 1)
    assert any(p.startswith("run failed: ") for p in problems)
    assert set(digests) == {"log"}

    validate = module.Validate(str(tmp_path), {}, sabotage=True)
    validate.trials = 1
    problems, digests = _one_op(validate, 1)
    assert "sigma=0.0 hard: 1 failed trials" in problems
    assert set(digests) == {"stats"}
