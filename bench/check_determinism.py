"""Determinism self-check: two traced runs with one seed agree exactly.

    python3 -m pytest bench/check_determinism.py

Every count and ratio of the traced pass, the prover nodes and the digest of
the outputs must repeat.  The file name keeps these slow tests (several
minutes) out of the repository's default test collection.
"""

import time

import pytest

from run import WORKLOADS, launch, run_all


def traced(workload, seed):
    return run_all([launch(workload, seed, "trace")], time.monotonic() + 600)[0]


def counters(result):
    layers = {k: v["value"] for k, v in result["layers"].items()
              if v["unit"] in ("count", "ratio")}
    return layers, result["calls"], [p["nodes"] for p in result["passes"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    assert first["failed"] == second["failed"] == 0
    assert counters(first) == counters(second)
    assert first["digest"] == second["digest"]
