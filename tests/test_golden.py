"""Golden bytes: `gen --seed 123` + `run` of every demo task must keep
writing exactly these files, and `run_validation` must keep returning
exactly these statistics. Any change to the control tick, the
projection, the simulator, the renderer, the matcher or the log format
that moves one bit of an output shows up here; an intended change
re-records the digests and says why in CHANGES.md."""

import hashlib
import json

import pytest

from taskaxes.cli import main
from taskaxes.evaluation import run_validation

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


# SHA-256 of json.dumps(run_validation(5, ...), sort_keys=True)
VALIDATE_GOLDEN = {
    (0, 0.0, "hard"): "a90629d274c45a82b32437fd2fb19cfc8211e5947b09b2e9323a12c40f173830",
    (0, 0.1, "soft"): "48c2683e0f01a95aa97883418e51832f424874ace2a8005342d67d9463eeda7e",
    (0, 1.0, "soft"): "e4e585ea2c5e77ed7a743106473207a3c703139f9570603c31b024140dd0fda0",
    (1, 0.0, "hard"): "9d43b1a5586776731deb63d50f36cb7e7c5c1d4ae4640f918d2ee4ac0659b564",
    (1, 0.1, "soft"): "8c84afe43a9e3bcbf8769f090bcc3a9057cea7e4afe91afe075f9bd53b417a2e",
    (1, 1.0, "soft"): "20c0a5d7e89d77be9112decedd8f42ed6e60770c924d647fab3220b9be7a8422",
}


@pytest.mark.parametrize("seed, sigma, mode", sorted(VALIDATE_GOLDEN))
def test_validation_stats_are_byte_identical(seed, sigma, mode):
    stats = run_validation(5, noise_sigma=sigma, mode=mode, seed=seed)
    text = json.dumps(stats, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == VALIDATE_GOLDEN[(seed, sigma, mode)]
