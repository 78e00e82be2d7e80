"""Golden bytes: `gen --seed 123` + `run` of every demo task must keep
writing exactly these files. Any change to the control tick, the
projection, the simulator or the log format that moves one bit of an
output shows up here; an intended change re-records the digests and
says why in CHANGES.md."""

import hashlib

import pytest

from taskaxes.cli import main

GOLDEN = {
    "scrape": {
        "log.jsonl": "a411b19e2d68cc783e9acc29c2ec113846a0f9f77f20d15fcd0301d8c75d0288",
        "result.json": "6c83540205a6b8d174488ee74344568c3c09b4f17e9440330bd7f301594a81c1",
        "trajectory.csv": "8edcbb064525bdc4d7e762f5e28531790ead098afa373d83c83f541f515825b8",
    },
    "pour": {
        "log.jsonl": "cc893a239bf8defd39d3e64c1c1d312ceb1ed2521b7c119ba464694a5e3dcb9d",
        "result.json": "3af222a8e8644eb38f8d533bd941aa839af5a35aa2326629b17b9148c74c2224",
        "trajectory.csv": "7ccbb69bed2b3ed4bfd355060e532ae2fda7e3629f7a62a2ecf569225d2ae12c",
    },
    "screw": {
        "log.jsonl": "8dcc82a3eea6a7ac3c1c0933eb73b207eeafd9e1b34addd4d4c7589890fbd8cb",
        "result.json": "e884537135769adabecde1b8de861163bb9ab0be9439c7d35b8768de97a4538a",
        "trajectory.csv": "d39e082ccda9463bf4eaca3ff5fa2ada8beee6f89cc35a8e75741e58b0122762",
    },
}


@pytest.mark.parametrize("task", sorted(GOLDEN))
def test_demo_run_outputs_are_byte_identical(task, tmp_path):
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    assert main(["gen", "--task", task, "--seed", "123", "--out", str(bundle)]) == 0
    assert main(["run", "--skill", str(bundle / f"{task}.skill"),
                 "--scene", str(bundle / "scene.json"), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN[task]}
    assert digests == GOLDEN[task]
