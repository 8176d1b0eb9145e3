"""Smoke test of the benchmark at a tiny run length.

Run from the repository root with `python3 -m pytest bench/test_smoke.py`.
It checks that every metric named in BENCHMARK.json is reported on every
workload with its unit, that no operation fails (error_rate 0), that the
traced counts repeat exactly, and that the benchmark refuses to run
without the program's sources.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".tape_nodes", ".calls", ".calls_per_item", ".distinct_share")


def _invoke(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int, repeat: int = 0):
    proc = _invoke(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_without_failures(workload, trace):
    notes, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert any(line.startswith("# error_rate=0.0 ") for line in notes)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts(result):
        return {
            name: m["value"]
            for name, m in result["metrics"].items()
            if name.endswith(COUNT_SUFFIXES)
        }

    first, second = _run(workload, 1)[1], _run(workload, 1, repeat=1)[1]
    assert counts(first) and counts(first) == counts(second)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
