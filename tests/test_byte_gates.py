"""The byte gates of ``scripts/output_hashes.py`` as committed data: each
reduced gate runs in-process and must print the lines committed under
``tests/output_hashes/``.  So the index step's gallop through long runs
(``--horizon 30000``) and the Thompson screen's tables (the Thompson gate)
are pinned, beside the short-horizon batch.

The default-scale lines (``default.txt``) take the configs' full horizons
and replications, about two minutes, so no test runs them; check them with

    python scripts/output_hashes.py | diff - tests/output_hashes/default.txt

A difference in any of these lines is a change of output bytes, to be
reported as such, not data to update."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "output_hashes"

#: each reduced gate's committed file and its arguments
GATES = {
    "horizon-2100-replications-5": ["--horizon", "2100", "--replications", "5"],
    "horizon-30000-replications-1": ["--horizon", "30000", "--replications", "1"],
    "thompson": [
        *("--only", "fig2b-beta", "square-wave-bernoulli", "mvno-synthetic"),
        *("--horizon", "10000", "--replications", "10"),
    ],
}


def lines_of(name):
    return (DATA / f"{name}.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def output_hashes():
    spec = importlib.util.spec_from_file_location("output_hashes", ROOT / "scripts" / "output_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("gate", sorted(GATES))
def test_reduced_gate_prints_committed_lines(gate, output_hashes, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["output_hashes.py", *GATES[gate]])
    assert output_hashes.main() == 0
    assert capsys.readouterr().out == lines_of(gate)


def test_default_scale_lines_name_every_file():
    # the full-scale gate hashes the same files as the reduced one of every config
    def files(name):
        return [line.split(" ")[:2] for line in lines_of(name).splitlines()]

    assert files("default") == files("horizon-2100-replications-5")
