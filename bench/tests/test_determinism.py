"""The benchmark's inputs and traced counts depend on the seed alone.

Run with ``python -m pytest bench/tests``; the traced-run test starts the
runner twice per workload (about a minute in all).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_inputs(name):
    first, second = workloads.build(name, 7), workloads.build(name, 8)
    assert first.episodes != second.episodes
    assert first.files != second.files


def _traced_counts(name: str, seed: int) -> dict:
    # --seconds 0 runs exactly one pass
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat(name):
    first = _traced_counts(name, 3)
    assert first["kb.scan_rows"] > 0
    assert first == _traced_counts(name, 3)
