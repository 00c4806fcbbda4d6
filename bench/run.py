#!/usr/bin/env python3
"""opbandit benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload many-reps|long-trace|config-sweep
                         [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]

Run it from the repository root, the directory holding ``src/opbandit`` and
``BENCHMARK.json``; it imports opbandit from ``src/`` there and fails
(exit code 2) when that is missing.

A run generates the workload's inputs from ``--seed`` (applied as every
config's ``base_seed``), times cold set-up in fresh interpreters, runs one
reference pass at the default seed whose outputs must match
``reference_hashes.json``, then repeats the workload for ``--seconds``.
Every pass's outputs are checked.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
BENCHMARK.json's ``end_to_end`` metrics with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  A record of the run (versions,
core count, commit, ``src/`` line count, all metrics, and with tracing the
spans) goes to ``.bench_out/<workload>-seed<N>-trace<0|1>.json``.
"""

import os

# One BLAS/OpenMP thread, so that on a small box the numbers measure the
# program and not the scheduler.  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("many-reps", "long-trace", "config-sweep")
DEFAULT_SEED = 1
#: cold set-up probes per untraced run; the median is reported
SETUP_PROBES = {"full": 5, "smoke": 1}


@dataclass
class Pass:
    wall_s: float  # as measured, less the speed sampler's own time
    speed: float  # SpeedSampler.speed during the pass (periodic unless traced)
    steps: int
    sim_s: float  # time in run_experiment, less the speed sampler's own time
    sim_speed: float  # SpeedSampler.speed while in run_experiment
    traced: bool
    problems: list  # per command: list of problem strings

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.speed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0, help="how long the repeated passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    p.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for self-tests")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be a 64-bit unsigned integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "opbandit" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} holds no src/opbandit or BENCHMARK.json; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    import opbandit

    if Path(opbandit.__file__).resolve().parent != (src / "opbandit").resolve():
        print(f"error: opbandit was imported from {opbandit.__file__}, not {src}", file=sys.stderr)
        return 2
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import tracing

    out_dir = root / ".bench_out"
    work = out_dir / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return measure(args, root, spec, work, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, spec: dict, work: Path, tracer) -> int:
    import tracing
    import workloads

    full_size = args.size == "full"
    references = json.loads((BENCH_DIR / "reference_hashes.json").read_text(encoding="utf-8"))
    reference = references["hashes"][args.workload] if full_size else None
    if full_size and references["seed"] != DEFAULT_SEED:
        raise SystemExit("reference_hashes.json was taken at another seed than the default")

    ref_inputs = workloads.prepare(args.workload, work / "reference", DEFAULT_SEED, args.size)
    inputs = workloads.prepare(args.workload, work / "measured", args.seed, args.size)

    setup = [] if args.trace else [probe_setup(root, inputs.setup_configs) for _ in range(SETUP_PROBES[args.size])]

    # The reference pass also warms caches and lazy imports before timing.
    ref_pass = one_pass(workloads, ref_inputs, tracer, False, reference)
    ref_hashes = {
        name: workloads.sha256(path) if path.is_file() else None
        for cmd in ref_inputs.commands
        for name, path in cmd.outputs.items()
    }
    # at the default seed the measured passes have the reference inputs too
    measured_reference = reference if args.seed == DEFAULT_SEED else None

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(one_pass(workloads, inputs, tracer, traced, measured_reference))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= 1 + args.trace and elapsed + typical > args.seconds:
            break

    outcomes = [probs for p in [ref_pass] + passes for probs in p.problems]
    attempted = len(outcomes)
    failed_ops = [probs for probs in outcomes if probs]
    for probs in failed_ops:
        print("FAILED: " + "; ".join(probs), file=sys.stderr)
    failed = len(failed_ops)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    record = run_record(root, args)
    record["reference_pass_sha256"] = ref_hashes
    record["passes"] = [
        {"wall_s": p.wall_s, "speed": p.speed, "sim_s": p.sim_s, "sim_speed": p.sim_speed, "traced": p.traced}
        for p in passes
    ]
    print(f"{args.workload}: seed {args.seed}, size {args.size}, {len(untraced)} untraced and "
          f"{len(traced)} traced passes after one reference pass; "
          f"{failed} of {attempted} operations failed (error_rate {failed / attempted:.4g})")

    if args.trace:
        samples, counts, table = tracing.summarize(tracer, len(traced))
        overhead = statistics.median(p.scaled_wall_s for p in traced) - statistics.median(
            p.scaled_wall_s for p in untraced
        )
        values = {name: statistics.median(v) for name, v in samples.items() if v}
        values.update(counts)
        values["bench.trace_overhead_s"] = overhead
        print_layer_table(samples, counts, table, overhead)
        wanted = spec["per_layer"]
        record["spans"] = tracing.spans_for_file(tracer)
        record["layer_table"] = table
    else:
        values = {
            "wall_s": statistics.median(p.scaled_wall_s for p in passes),
            "steps_per_s": statistics.median(p.steps / (p.sim_s * p.sim_speed) for p in passes),
            "setup_s": statistics.median(s * speed for s, speed in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        record["setup_probes"] = [{"seconds": s, "speed": speed} for s, speed in setup]
        wanted = spec["end_to_end"]
        for m in wanted:
            print(f"  {m['name']:<14} {values[m['name']]:>14.6g} {m['unit']}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"warning: no samples, reported as 0: {', '.join(missing)}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    record["metrics"] = values
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("record: " + json.dumps({k: v for k, v in record.items() if k not in ("spans", "layer_table", "metrics")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def one_pass(workloads, prepared, tracer, traced: bool, reference) -> Pass:
    from speed import SpeedSampler

    first_sim = len(tracer.sim_calls)
    with SpeedSampler(periodic=not traced) as sampler:
        tracer.clock = sampler.clock
        tracer.active = traced
        t0 = sampler.clock()
        try:
            done = workloads.run_pass(prepared)
        finally:
            wall = sampler.clock() - t0
            tracer.active = False
    sims = tracer.sim_calls[first_sim:]
    return Pass(
        wall_s=wall,
        speed=sampler.speed,
        steps=sum(steps for steps, _, _ in sims),
        sim_s=sum(end - start for _, start, end in sims),
        sim_speed=sampler.speed_during([(start, end) for _, start, end in sims]),
        traced=traced,
        problems=workloads.check_pass(done, reference),
    )


def probe_setup(root: Path, configs: list[str]) -> tuple[float, float]:
    """Seconds a fresh interpreter needs to import opbandit and plan
    ``configs``, and the machine-speed factor sampled meanwhile."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(root / "src"), *configs],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=root,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    seconds, speed = proc.stdout.split()[-2:]
    return float(seconds), float(speed)


def run_record(root: Path, args) -> dict:
    import numpy
    import scipy

    src_files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files),
        "threads": {var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit(root: Path):
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_layer_table(samples: dict, counts: dict, table: list, overhead: float) -> None:
    import tracing

    print(f"tracing overhead: {overhead:+.4f} s per pass (traced wall_s minus untraced wall_s)")
    print(f"  {'span':<34} {'calls':>8} {'self ms':>11} {'total ms':>11}")
    for name, calls, self_ms, total_ms in table:
        print(f"  {name:<34} {calls:>8} {self_ms:>11.2f} {total_ms:>11.2f}")
    print(f"  {'metric':<44} {'n':>7} {'median':>11} {'tail':>17}")
    for name in sorted(samples):
        values = samples[name]
        if not values:
            continue
        t = tracing.tail(values)
        tail_txt = f"{t[0]}={t[1]:.4g}" if t else "n<20"
        print(f"  {name:<44} {len(values):>7} {statistics.median(values):>11.4g} {tail_txt:>17}")
    for name in sorted(counts):
        print(f"  {name:<44} {'count':>7} {counts[name]:>11.6g} {'per traced pass':>17}")


if __name__ == "__main__":
    sys.exit(main())
