"""The benchmark's workloads still run against the package.

bench/workloads.py drives the program through its public calls
(build_task, scene_from_json, parse_skill, SkillRunner with ref_scene,
ground_all, run, RunResult.summary, SimLog.records and run_validation
with min_score). The full benchmark self-check takes minutes, so here
one long-sweep op and one validate op run in their sabotaged form
(3-tick sweep budget, unreachable match threshold): each must report
problems and digests instead of raising. One sabotaged op of each
workload, traced by bench/tracing.py, must call every traced layer at
least once, so that no layer reads zero on every workload. The modules
are executed from their source, without writing bytecode next to them.
"""

import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = BENCH / "workloads.py"
TRACING = BENCH / "tracing.py"


def _load(path):
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _one_op(workload, seed):
    inputs = workload.prepare(seed)
    try:
        return workload.check(seed, inputs, workload.run(inputs))
    finally:
        workload.cleanup(inputs)


def test_sabotaged_ops_report_problems_through_the_public_calls(tmp_path):
    module = _load(WORKLOADS)
    sweep = module.LongSweep(str(tmp_path), {}, sabotage=True)
    problems, digests = _one_op(sweep, 1)
    assert any(p.startswith("run failed: ") for p in problems)
    assert set(digests) == {"log"}

    validate = module.Validate(str(tmp_path), {}, sabotage=True)
    validate.trials = 1
    problems, digests = _one_op(validate, 1)
    assert "sigma=0.0 hard: 1 failed trials" in problems
    assert set(digests) == {"stats"}


def test_every_traced_layer_is_called_by_one_sabotaged_op_of_each_workload(tmp_path):
    module = _load(WORKLOADS)
    tracer = _load(TRACING).Tracer()
    validate = module.Validate(str(tmp_path), {}, sabotage=True)
    validate.trials = 1
    for workload in (module.DemoRun(str(tmp_path), {}, sabotage=True), validate,
                     module.LongSweep(str(tmp_path), {}, sabotage=True)):
        inputs = workload.prepare(1)
        try:
            tracer.op(lambda: workload.run(inputs))
        finally:
            workload.cleanup(inputs)
    assert tracer.missing == []
    assert [layer for layer, stats in tracer.layers.items() if stats.calls == 0] == []
