"""The benchmark's reference pass, in-process: each workload at full size
and seed 1 writes files whose sha256 ``bench/reference_hashes.json`` pins,
so byte drift in any output shows here.  Reads ``bench/`` and writes only
under a temporary directory."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference_hashes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(REFERENCE["hashes"]))
def test_reference_pass_matches_pinned_hashes(name, tmp_path):
    pinned = REFERENCE["hashes"][name]
    prepared = workloads.prepare(name, tmp_path, REFERENCE["seed"], REFERENCE["size"])
    # every pinned file is one a command writes, so none goes unchecked
    assert {out for cmd in prepared.commands for out in cmd.outputs} == set(pinned)
    done = workloads.run_pass(prepared)
    assert workloads.check_pass(done, pinned) == [[] for _ in done]
