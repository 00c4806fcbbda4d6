"""The scripts under ``scripts/`` run from a bare checkout: as subprocesses,
without ``PYTHONPATH``, at tiny scale."""

import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, cwd, **env_vars):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | env_vars
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_reproduce_figures(tmp_path):
    proc = run_script("reproduce_figures.py", ["--quick", "--only", "dirac-square-wave"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "== dirac-square-wave =="
    assert lines[-1] == "OVERALL: PASS"
    run, bounds = tmp_path / "results" / "dirac-square-wave", tmp_path / "results" / "dirac-square-wave-bounds"
    assert {p.name for p in run.iterdir()} == {"results.csv", "metadata.json", "regret.svg"}
    assert {p.name for p in bounds.iterdir()} == {"bounds.csv", "metadata.json"}


def test_mvno_demo(tmp_path):
    args = ["--rows", "300", "--horizon", "400", "--replications", "1", "--trace", "trace.csv"]
    proc = run_script("mvno_demo.py", args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "trace written to trace.csv (300 rows)"
    assert [line.split(":")[0] for line in lines[1:5]] == ["adaucb", "eadaucb", "ucb", "ts"]
    assert lines[5].startswith("adaucb/ucb regret ratio: ")
    assert lines[6].startswith("eadaucb/ucb regret ratio: ")
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 301  # header and rows


def test_mvno_demo_removes_its_default_trace(tmp_path):
    temp = tmp_path / "temp"
    temp.mkdir()
    args = ["--rows", "50", "--horizon", "60", "--replications", "1"]
    proc = run_script("mvno_demo.py", args, tmp_path, TMPDIR=str(temp))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"trace written to {temp}")
    assert list(temp.iterdir()) == []


def test_output_hashes(tmp_path):
    args = ["--only", "dirac-square-wave", "fig1a", "--horizon", "300", "--replications", "1"]
    first, second = (run_script("output_hashes.py", args, tmp_path) for _ in range(2))
    assert first.returncode == 0, first.stderr
    lines = [line.split(" ") for line in first.stdout.splitlines()]
    assert all(len(line) == 3 and re.fullmatch("[0-9a-f]{64}", line[2]) for line in lines), first.stdout
    files = ["run/metadata.json", "run/results.csv", "bounds/bounds.csv", "bounds/metadata.json"]
    assert [line[:2] for line in lines] == [[name, f] for name in ("dirac-square-wave", "fig1a") for f in files]
    assert second.stdout == first.stdout
    assert list(tmp_path.iterdir()) == []


def test_output_hashes_rejects_unknown_config(tmp_path):
    proc = run_script("output_hashes.py", ["--only", "no-such-config", "--horizon", "300"], tmp_path)
    assert proc.returncode != 0
    assert "unknown config 'no-such-config'" in proc.stderr
    assert proc.stdout == ""


def test_line_counts(tmp_path):
    proc = run_script("line_counts.py", [], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(" ") for line in proc.stdout.splitlines()]
    modules = sorted(p.stem for p in (SCRIPTS.parent / "src" / "opbandit").glob("*.py"))
    assert [row[0] for row in rows] == [*modules, "total"]
    counts = [(int(physical), int(code)) for _, physical, code in rows]
    assert all(0 < code < physical for physical, code in counts[:-1])
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1])))
