"""The scripts under ``scripts/`` run from a bare checkout: as subprocesses,
without ``PYTHONPATH``, at tiny scale."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, cwd, **env_vars):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | env_vars
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_output_hashes_keeps_outputs(tmp_path):
    # --out keeps each config's results, figure and bounds, and changes no line
    args = ["--only", "dirac-square-wave", "--horizon", "5000", "--replications", "5"]
    kept, plain = (run_script("output_hashes.py", [*args, *out], tmp_path) for out in (["--out", "results"], []))
    assert kept.returncode == 0, kept.stderr
    assert len(kept.stdout.splitlines()) == 4
    assert kept.stdout == plain.stdout
    root = tmp_path / "results" / "dirac-square-wave"
    assert {p.name for p in (root / "run").iterdir()} == {"results.csv", "metadata.json", "regret.svg"}
    assert {p.name for p in (root / "bounds").iterdir()} == {"bounds.csv", "metadata.json"}


FAIL_LINE = "adaucb t=2 pulls_arm_2=1.000 in [0.000, 0.500]: FAIL"


@pytest.mark.parametrize("failing, code", [("bounds", 1), ("compare", 2)])
def test_output_hashes_returns_first_failure(tmp_path, monkeypatch, capsys, failing, code):
    # a failed `bounds`, or `compare`'s OVERALL: FAIL (2), is the script's exit
    # code, and the failing command's output is shown on stderr
    spec = importlib.util.spec_from_file_location("output_hashes", SCRIPTS / "output_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    real, commands = module.opbandit_main, []

    def opbandit_main(argv):
        commands.append(argv[0])
        if argv[0] != failing:
            return real(argv)
        print(FAIL_LINE)
        print("error: the failure", file=sys.stderr)
        return code

    monkeypatch.setattr(module, "opbandit_main", opbandit_main)
    args = ["--only", "dirac-square-wave", "--horizon", "300", "--replications", "1", "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", ["output_hashes.py", *args])
    assert module.main() == code
    assert commands == ["list-configs", "run", "bounds", "compare"][: commands.index(failing) + 1]
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == {"bounds": 2, "compare": 4}[failing]  # the lines of `run`, and of `bounds`
    assert err == f"{failing} dirac-square-wave exited {code}:\n{FAIL_LINE}\nerror: the failure\n"


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
