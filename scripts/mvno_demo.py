#!/usr/bin/env python3
"""Operator-selection demo on a synthetic semi-periodic trace.

Generates a trace file (load column plus three per-arm quality columns),
runs the adaptive policies against UCB/TS on it through the trace pipeline,
and reports the adaptive-vs-UCB regret ratio.  With real operator traces
this ratio lands around 1/3; the synthetic stand-in is reported here for
orientation only and is not a gated check.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opbandit.config import build_plan, parse_config  # noqa: E402
from opbandit.core import RngStream  # noqa: E402
from opbandit.environments import SemiPeriodicLoad  # noqa: E402
from opbandit.simulator import run_experiment  # noqa: E402


def generate_trace(path: Path, rows: int, seed: int) -> None:
    """Semi-periodic load plus three noisy per-arm quality columns."""
    load_model = SemiPeriodicLoad(period=288, base=0.6, amplitude=0.35, noise_a=8.0, noise_b=2.0)
    loads = load_model.sample_loads(rows, RngStream(seed, 0))
    qualities = (0.50, 0.60, 0.70)
    rng = RngStream(seed, 1)
    columns = [np.clip(q + 0.15 * (rng.random(rows) - 0.5), 0.0, 1.0) for q in qualities]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("load,carrier_a,carrier_b,carrier_c\n")
        for i in range(rows):
            cells = [f"{loads[i]:.6f}"] + [f"{c[i]:.6f}" for c in columns]
            fh.write(",".join(cells) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=8640, help="trace rows (30 days at 5 min)")
    parser.add_argument("--horizon", type=int, default=50_000)
    parser.add_argument("--replications", type=int, default=20)
    parser.add_argument("--seed", type=int, default=20180405)
    parser.add_argument("--trace", default=None, help="write the trace here (default: a temporary file, then removed)")
    args = parser.parse_args()

    # the trace is read whole by build_plan; a default one lives only that long
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(args.trace) if args.trace else Path(tmp) / "trace.csv"
        generate_trace(trace_path, args.rows, args.seed)
        print(f"trace written to {trace_path} ({args.rows} rows)")
        cfg = parse_config(
            {
                "name": "mvno-trace-demo",
                "horizon": args.horizon,
                "replications": args.replications,
                "base_seed": args.seed,
                "load": {"kind": "trace", "path": str(trace_path)},
                "reward": {"kind": "trace", "path": str(trace_path)},
                "policies": [
                    {
                        "name": "adaucb",
                        "kind": "adaucb",
                        "alpha": 0.51,
                        "thresholds": {"lower_prob": 0.05, "upper_prob": 0.05},
                    },
                    {"name": "eadaucb", "kind": "eadaucb", "alpha": 0.51},
                    {"name": "ucb", "kind": "ucb", "alpha": 0.51},
                    {"name": "ts", "kind": "ts"},
                ],
            }
        )
        plan = build_plan(cfg)
    results = run_experiment(
        plan.bandit,
        plan.load_model,
        plan.reward_model,
        plan.policies,
        cfg.horizon,
        cfg.replications,
        cfg.base_seed,
        checkpoints=plan.checkpoints,
    )
    for label, trace in results.items():
        print(f"{label}: regret(T={cfg.horizon}) = {trace.mean_regret[-1]:.3f}")
    ratio = results["adaucb"].mean_regret[-1] / results["ucb"].mean_regret[-1]
    eratio = results["eadaucb"].mean_regret[-1] / results["ucb"].mean_regret[-1]
    print(f"adaucb/ucb regret ratio: {ratio:.3f} (reference point on real traces: ~1/3)")
    print(f"eadaucb/ucb regret ratio: {eratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
