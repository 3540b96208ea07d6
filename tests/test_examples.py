"""Every example script runs to completion and prints its report.

An API an example calls is shipped code: this test is what runs it.
Each script runs as its own process, from an empty working directory,
with the result cache and the worker-count knob unset, and with the
replication counts cut to one where a script takes them.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
ONE_REPLICATION = ("protocol_comparison.py", "distributed_ceiling.py")


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    argv = [sys.executable, str(script)]
    if script.name == "trace_replay.py":
        argv += ["--trace", str(tmp_path / "t.json")]
    elif script.name in ONE_REPLICATION:
        argv += ["--replications", "1"]
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_CACHE_DIR", "REPRO_JOBS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()

