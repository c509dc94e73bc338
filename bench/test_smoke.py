"""Smoke check of the benchmark itself.

Each workload runs once with every query shrunk (``--smoke``), plainly and
traced. The result must name every metric of BENCHMARK.json with its unit,
and no query may fail. Run with ``python3 -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, json.loads(done.stdout.strip().splitlines()[-2])["failures"]
    assert result["correct"] is True
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_fails_without_sources(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark gives a
    nonzero exit and no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(str(tmp_path), "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
