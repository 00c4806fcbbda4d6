"""Self-tests of the benchmark, at the tiny "smoke" size.

    python3 -m pytest bench/test_bench.py

Run from the repository root.  They check the output contract (every
metric named in BENCHMARK.json, with its unit), that corrupted outputs are
counted as failed operations, and that the benchmark refuses to run where
there are no opbandit sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import opbandit.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "3", "--seconds", "0", "--size", "smoke", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def final_result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = run_bench("--workload", workload)
    assert proc.returncode == 0, proc.stderr
    result = final_result(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    table = [line.split() for line in proc.stdout.splitlines()]
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert [name, unit] in ([row[0], row[-1]] for row in table if len(row) == 3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = run_bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = final_result(proc.stdout)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "no samples" not in proc.stderr  # every listed layer metric is measured
    assert "tracing overhead" in proc.stdout
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace1.json").read_text(encoding="utf-8"))
    names = {span["name"] for span in record["spans"]}
    assert {"cli.run", "config.build_plan", "simulator.run_experiment", "simulator.run_once"} <= names


def test_corrupted_results_csv_counts_as_a_failed_operation(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    write = opbandit.cli.write_results_csv

    def write_with_one_pull_too_many(path, results, n_arms):
        write(path, results, n_arms)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        cells = lines[-1].split(",")
        cells[-1] = repr(float(cells[-1]) + 1.0)
        Path(path).write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")

    monkeypatch.setattr(opbandit.cli, "write_results_csv", write_with_one_pull_too_many)
    assert run.main(["--workload", "many-reps", "--seed", "3", "--seconds", "0", "--size", "smoke"]) == 0
    captured = capsys.readouterr()
    result = final_result(captured.out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert "pulls sum to" in captured.err


@pytest.fixture(scope="module")
def dirac_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("dirac")
    assert opbandit.cli.main(["run", "dirac-square-wave", "-o", str(out), "--horizon", "100"]) == 0
    return out


@pytest.mark.parametrize(
    "label, column, corrupt, message",
    [
        ("adaucb", "mean_pulls_arm_1", lambda v: v + 1.0, "pulls sum to"),
        ("adaucb", "mean_regret", lambda v: -1.0, "regret decreased"),
        ("oracle", "mean_regret", lambda v: v + 1e-3, "is not 0"),
    ],
)
def test_run_check_catches_each_violated_invariant(dirac_run, tmp_path, label, column, corrupt, message):
    out = tmp_path / "run"
    shutil.copytree(dirac_run, out)
    assert workloads.check_run_dir(out) == []
    csv_path = out / "results.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    i = max(k for k, line in enumerate(lines) if line.startswith(label + ","))
    cells = lines[i].split(",")
    cells[header.index(column)] = repr(corrupt(float(cells[header.index(column)])))
    lines[i] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = workloads.check_run_dir(out)
    assert any(message in p for p in problems), problems


def test_refuses_to_run_without_opbandit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
