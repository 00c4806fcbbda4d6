"""The benchmark's three workloads and the checks on what they write.

A workload is a list of ``opbandit`` CLI commands, run in-process through
``opbandit.cli.main``; each command is one operation.  Its inputs (configs and
trace files) are generated from the seed before anything is timed.  After
each pass the benchmark checks the files the commands wrote; a nonzero exit,
an exception or a failed check makes that command one failed operation.

Why these three (see README.md for the full table):

* ``many-reps``: short horizon, many replications.  Per-cell set-up,
  per-step dispatch and Beta load sampling dominate, so a shared UCB step
  kernel or a batched (policy x replication) engine does its work here.
* ``long-trace``: one replication over a long horizon on a trace that wraps.
  Nothing to batch across replications; EAdaUCB's growing quantile sketch,
  trace parsing and the generic per-step trace-reward path dominate.
* ``config-sweep``: every bundled config through ``run`` at reduced scale,
  then ``bounds``, then ``compare`` for the deterministic scenario.  Set-up,
  threshold resolution, bounds, CSV and metadata I/O dominate; the
  simulator is a minor share.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import opbandit.cli

#: per-workload sizes; "smoke" is the tiny scale the benchmark's own tests use
SIZES = {
    "full": {
        "many-reps": {"horizon": 10_000, "replications": 10},
        "long-trace": {"horizon": 100_000, "trace_rows": 20_000},
        "config-sweep": {"horizon": 2_000, "replications": 2},
    },
    "smoke": {
        "many-reps": {"horizon": 200, "replications": 2},
        "long-trace": {"horizon": 2_000, "trace_rows": 500},
        "config-sweep": {"horizon": 200, "replications": 1},
    },
}

ALPHA = 0.51
QUANTILE_BAND = {"lower_prob": 0.05, "upper_prob": 0.05}


@dataclass
class Command:
    """One CLI call, the check of its stdout and files (a list of problems),
    and the files it writes whose hashes a reference pass compares."""

    argv: list[str]
    check: Callable[[str], list[str]]
    outputs: dict[str, Path] = field(default_factory=dict)


@dataclass
class Prepared:
    commands: list[Command]
    #: config files the cold set-up probe parses and plans
    setup_configs: list[str]


def prepare(name: str, work: Path, seed: int, size: str) -> Prepared:
    """Generate the inputs of workload ``name`` under ``work``."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    sizes = SIZES[size][name]
    if name == "many-reps":
        return _many_reps(work, inputs, seed, **sizes)
    if name == "long-trace":
        return _long_trace(work, inputs, seed, **sizes)
    if name == "config-sweep":
        return _config_sweep(work, seed, **sizes)
    raise ValueError(f"unknown workload {name!r}")


def run_pass(prepared: Prepared) -> list[tuple[Command, object, str]]:
    """Run every command once; returns (command, exit code, stdout) triples.
    A command that raised has the exception text as its exit code; its
    traceback goes to stderr."""
    done = []
    for cmd in prepared.commands:
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = opbandit.cli.main(cmd.argv)
        except Exception as exc:  # one crashing command is one failed operation
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        done.append((cmd, code, buf.getvalue()))
    return done


def check_pass(done, reference: dict[str, str] | None) -> list[list[str]]:
    """Problems per command; with ``reference`` (output name -> sha256) the
    written files must also match it byte for byte."""
    problems = []
    for cmd, code, stdout in done:
        found = [f"exit code {code!r}"] if code != 0 else cmd.check(stdout)
        for name, path in cmd.outputs.items() if reference is not None else ():
            got = sha256(path) if path.is_file() else None
            if got != reference.get(name):
                found.append(f"{name}: sha256 {got} differs from the reference {reference.get(name)}")
        problems.append(found)
    return problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def _bundled_yaml(name: str) -> dict:
    text = (resources.files("opbandit") / "configs" / f"{name}.yaml").read_text(encoding="utf-8")
    return yaml.safe_load(text)


def _write_yaml(path: Path, doc: dict) -> str:
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return str(path)


def _run_command(name: str, config: str, out: Path, extra=()) -> Command:
    return Command(
        ["run", config, "-o", str(out), *extra],
        lambda _stdout: check_run_dir(out),
        {f"{name}/results.csv": out / "results.csv"},
    )


def _many_reps(work: Path, inputs: Path, seed: int, horizon: int, replications: int) -> Prepared:
    doc = _bundled_yaml("fig2b-beta")
    doc.update(name="many-reps", horizon=horizon, replications=replications, base_seed=seed)
    config = _write_yaml(inputs / "many-reps.yaml", doc)
    return Prepared([_run_command("many-reps", config, work / "out" / "many-reps")], [config])


def write_trace(path: Path, rows: int, seed: int) -> None:
    """Semi-periodic load (daily sinusoid times Beta(8, 2) noise) plus three
    0/1 reward columns with success rates 0.5, 0.6 and 0.7."""
    rng = np.random.Generator(np.random.PCG64(seed))
    t = np.arange(1, rows + 1)
    load = (0.6 + 0.35 * np.sin(2.0 * np.pi * t / 288)) * rng.beta(8.0, 2.0, rows)
    rewards = (rng.random((rows, 3)) < np.array([0.5, 0.6, 0.7])).astype(int)
    lines = ["load,arm_a,arm_b,arm_c"]
    lines += [f"{x:.6f},{r[0]},{r[1]},{r[2]}" for x, r in zip(load.tolist(), rewards.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _long_trace(work: Path, inputs: Path, seed: int, horizon: int, trace_rows: int) -> Prepared:
    trace = inputs / "long-trace.csv"
    write_trace(trace, trace_rows, seed)
    doc = {
        "name": "long-trace",
        "horizon": horizon,
        "replications": 1,
        "base_seed": seed,
        "load": {"kind": "trace", "path": str(trace)},
        "reward": {"kind": "trace", "path": str(trace)},
        "policies": [
            {"name": "adaucb", "kind": "adaucb", "alpha": ALPHA, "thresholds": dict(QUANTILE_BAND)},
            {"name": "eadaucb", "kind": "eadaucb", "alpha": ALPHA, "lower_quantile": 0.05, "upper_quantile": 0.95},
            {"name": "ucb", "kind": "ucb", "alpha": ALPHA},
            {"name": "rr-greedy", "kind": "rr-greedy", "thresholds": dict(QUANTILE_BAND)},
        ],
    }
    config = _write_yaml(inputs / "long-trace.yaml", doc)
    return Prepared([_run_command("long-trace", config, work / "out" / "long-trace")], [config])


def _bound_alpha_inferable(doc: dict) -> bool:
    # mirrors `opbandit bounds`: a unique alpha among the adaptive policies
    alphas = {p.get("alpha") for p in doc["policies"] if p["kind"] in ("adaucb", "eadaucb")}
    return len(alphas) == 1


def _config_sweep(work: Path, seed: int, horizon: int, replications: int) -> Prepared:
    buf = io.StringIO()
    with redirect_stdout(buf):
        if opbandit.cli.main(["list-configs"]) != 0:
            raise RuntimeError("opbandit list-configs failed")
    names = buf.getvalue().split()
    if "dirac-square-wave" not in names:
        raise RuntimeError("the bundled dirac-square-wave config is missing")
    scale = ["--horizon", str(horizon)]
    run_args = ["--seed", str(seed), "--replications", str(replications), *scale]
    commands = [_run_command(name, name, work / "out" / name, run_args) for name in names]
    for name in names:
        if _bound_alpha_inferable(_bundled_yaml(name)):
            out = work / "out" / f"{name}-bounds"
            commands.append(
                Command(
                    ["bounds", name, "-o", str(out), *scale],
                    lambda _stdout, out=out: check_bounds_dir(out),
                    {f"{name}/bounds.csv": out / "bounds.csv"},
                )
            )
    run_dir, bounds_dir = work / "out" / "dirac-square-wave", work / "out" / "dirac-square-wave-bounds"
    commands.append(Command(["compare", str(run_dir), str(bounds_dir)], check_compare))
    setup = [str(resources.files("opbandit") / "configs" / f"{name}.yaml") for name in names]
    return Prepared(commands, setup)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _recorded_hash(meta: dict, key: str, path: Path) -> list[str]:
    if meta.get(key) != sha256(path):
        return [f"{path}: sha256 differs from {key} in metadata.json"]
    return []


def check_run_dir(out: Path) -> list[str]:
    """results.csv invariants: pulls at each checkpoint sum to t, mean
    pseudo-regret never decreases, and an oracle's regret is exactly 0."""
    path = out / "results.csv"
    try:
        rows = _read_csv(path)
        meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
        kinds = {label: info["kind"] for label, info in meta["resolved"]["policies"].items()}
    except (OSError, ValueError, KeyError) as exc:
        return [f"{out}: unreadable output: {exc}"]
    if not rows:
        return [f"{path}: no rows"]
    problems = _recorded_hash(meta, "results_sha256", path)
    pull_cols = [c for c in rows[0] if c.startswith("mean_pulls_arm_")]
    last: dict[str, float] = {}
    try:
        for row in rows:
            label, t = row["policy"], int(row["t"])
            pulls = sum(float(row[c]) for c in pull_cols)
            regret = float(row["mean_regret"])
            if abs(pulls - t) > 1e-9 * t:
                problems.append(f"{path}: {label} t={t}: pulls sum to {pulls!r}")
            if regret < last.get(label, 0.0):
                problems.append(f"{path}: {label} t={t}: regret decreased to {regret!r}")
            if kinds.get(label) == "oracle" and regret != 0.0:
                problems.append(f"{path}: oracle {label} t={t}: regret {regret!r} is not 0")
            last[label] = regret
    except (KeyError, ValueError, TypeError) as exc:
        problems.append(f"{path}: malformed row: {exc}")
    if set(last) != set(kinds):
        problems.append(f"{path}: policies {sorted(last)} differ from the config's {sorted(kinds)}")
    return problems


def check_bounds_dir(out: Path) -> list[str]:
    path = out / "bounds.csv"
    try:
        rows = _read_csv(path)
        meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
        ts = [int(row["t"]) for row in rows]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{out}: unreadable output: {exc}"]
    problems = _recorded_hash(meta, "bounds_sha256", path)
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        problems.append(f"{path}: checkpoints missing or not increasing")
    return problems


def check_compare(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "OVERALL: PASS":
        return [f"compare verdict is {lines[-1] if lines else 'missing'!r}, not 'OVERALL: PASS'"]
    return []
