"""Command-line experiment runner.

    opbandit run <config> -o <dir> [--seed N] [--replications R] [--horizon T] [--plot]
    opbandit bounds <config> -o <dir> [--horizon T] [--alpha A]
    opbandit compare <run-dir> <bounds-dir> [-o report.txt]
    opbandit list-configs

``<config>`` is a YAML file path or the name of a bundled scenario.  Exit
codes: 0 success (``--help`` included), 1 a usage, configuration or input
error, 2 a hard pull-count envelope was violated by the compared run.

The simulator and the bounds are imported by the command that runs them, so
planning a config (and ``list-configs``) loads neither.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, build_plan, load_config, parse_config
from .core import check_alpha
from .report import (
    load_metadata,
    read_bounds_csv,
    read_results_csv,
    sha256_file,
    write_bounds_csv,
    write_metadata,
    write_regret_svg,
    write_results_csv,
)

__all__ = ["main"]


def _bundled_names() -> list[str]:
    root = resources.files("opbandit") / "configs"
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def _resolve_config(arg: str) -> ExperimentConfig:
    p = Path(arg)
    if p.exists():
        return load_config(p)
    root = resources.files("opbandit") / "configs"
    candidate = root / f"{arg}.yaml"
    if candidate.is_file():
        return load_config(candidate)
    raise ConfigError(
        "config",
        f"{arg!r} is neither a file nor a bundled config (available: {', '.join(_bundled_names())})",
    )


def _apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """The config with the command line's values (those not None), checked
    as a config file's."""
    doc = cfg.to_dict() | {key: value for key, value in overrides.items() if value is not None}
    horizon = overrides.get("horizon")
    if horizon is not None and cfg.checkpoints is not None:
        pts = [t for t in cfg.checkpoints if t <= horizon]
        doc["checkpoints"] = pts if pts and pts[-1] == horizon else [*pts, horizon]
    return parse_config(doc)


def _cmd_run(args) -> int:
    from .simulator import run_experiment

    cfg = _apply_overrides(
        _resolve_config(args.config), base_seed=args.seed, replications=args.replications, horizon=args.horizon
    )
    plan = build_plan(cfg)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    results = run_experiment(
        plan.bandit,
        plan.load_model,
        plan.reward_model,
        plan.policies,
        cfg.horizon,
        cfg.replications,
        cfg.base_seed,
        checkpoints=plan.checkpoints,
        realized=(cfg.regret == "realized"),
    )

    csv_path = out / "results.csv"
    write_results_csv(csv_path, results, plan.bandit.n_arms)
    extras = {"results_sha256": sha256_file(csv_path)}
    if args.plot:
        svg_path = out / "regret.svg"
        write_regret_svg(svg_path, results, title=cfg.name)
        extras["plot"] = svg_path.name
    write_metadata(out / "metadata.json", cfg.to_dict(), plan.resolved, extras)

    for label, trace in results.items():
        final = trace.mean_regret[-1]
        print(f"{cfg.name}: {label}: regret(T={trace.checkpoints[-1]}) = {final:.4f} "
              f"(std {trace.std_regret[-1]:.4f}, R={cfg.replications})")
    print(f"wrote {csv_path}")
    return 0


def _pick_alpha(plan, override) -> float:
    if override is not None:
        return override
    alphas = {
        info["alpha"]
        for info in plan.resolved["policies"].values()
        if info["kind"] in ("adaucb", "eadaucb") and "alpha" in info
    }
    if len(alphas) == 1:
        return alphas.pop()
    raise ConfigError(
        "policies",
        "cannot infer the bound alpha (no unique adaptive policy); pass --alpha",
    )


def _single_threshold(plan) -> tuple[str | None, float | None]:
    """The config field and level of the first AdaUCB single threshold."""
    for i, info in enumerate(plan.resolved["policies"].values()):
        if info["kind"] == "adaucb" and info.get("lower") == info.get("upper"):
            return f"policies[{i}].thresholds", info["lower"]
    return None, None


def _cmd_bounds(args) -> int:
    from .bounds import evaluate_bounds

    if args.alpha is not None:
        ConfigError.check("--alpha", check_alpha, args.alpha)
    cfg = _apply_overrides(_resolve_config(args.config), horizon=args.horizon)
    plan = build_plan(cfg)
    if not plan.bandit.suboptimal_gaps():
        raise ConfigError(
            "reward.path" if cfg.reward.kind == "trace" else "reward.means",
            "every arm ties for the best mean: no arm is suboptimal, so no envelope applies",
        )
    alpha = _pick_alpha(plan, args.alpha)
    field, threshold = _single_threshold(plan)
    try:
        report = evaluate_bounds(
            plan.bandit,
            plan.load_model,
            plan.reward_model,
            alpha,
            plan.checkpoints,
            single_threshold=threshold,
        )
    except TypeError as exc:  # no conditional load mean below the threshold
        if field is None:
            raise
        raise ConfigError(field, str(exc)) from None
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "bounds.csv"
    write_bounds_csv(csv_path, report)
    write_metadata(
        out / "metadata.json",
        cfg.to_dict(),
        {
            "alpha": alpha,
            "params": report.params,
            "columns": sorted(report.columns),
            "constant_note": report.constant_note,
        },
        {"bounds_sha256": sha256_file(csv_path)},
    )
    print(f"wrote {csv_path} with columns: {', '.join(sorted(report.columns))}")
    return 0


def _column(table: dict, name: str, path: Path) -> np.ndarray:
    """``table[name]``, read from ``path``; a missing column is an error
    that names both."""
    if name not in table:
        raise ValueError(f"{path}: no {name} column")
    return table[name]


def _cmd_compare(args) -> int:
    results_path = Path(args.run) / "results.csv"
    bounds_path = Path(args.bounds) / "bounds.csv"
    results = read_results_csv(results_path)
    run_meta, bounds_meta = Path(args.run) / "metadata.json", Path(args.bounds) / "metadata.json"
    run_doc, bounds_doc = load_metadata(run_meta), load_metadata(bounds_meta)
    for section in ("load", "reward"):
        # envelopes hold for the scenario they were evaluated on
        if run_doc.get("config", {}).get(section) != bounds_doc.get("config", {}).get(section):
            raise ConfigError(section, f"{run_meta} and {bounds_meta} describe different {section} models")
    policies = run_doc.get("resolved", {}).get("policies", {})
    adaptive = {label: info.get("alpha") for label, info in policies.items() if info.get("kind") == "adaucb"}
    alpha = bounds_doc.get("resolved", {}).get("alpha")
    bounds = read_bounds_csv(bounds_path)
    ts = _column(bounds, "t", bounds_path).astype(int)
    if "pull_upper" in bounds:
        # the hard envelopes bound the one suboptimal arm, the arm of the
        # file's only generic pull envelope, and hold for the bounds' alpha
        arms = [c.rsplit("_", 1)[1] for c in bounds if c.startswith("pull_log_bound_arm_")]
        if len(arms) != 1:
            raise ValueError(
                f"{bounds_path}: pull_upper needs exactly one pull_log_bound_arm_<k> column, found {len(arms)}"
            )
        (arm,) = arms
        if adaptive and alpha not in adaptive.values():
            run_alphas = ", ".join(sorted(map(str, set(adaptive.values()))))
            raise ConfigError(
                "alpha", f"{bounds_meta} holds envelopes for alpha {alpha}, not the run's adaucb alpha {run_alphas}"
            )

    lines = []
    hard_fail = False
    for label, rec in results.items():
        run_ts = _column(rec, "t", results_path).astype(int)
        if len(run_ts) != len(ts) or np.any(run_ts != ts):
            raise ConfigError(
                "checkpoints",
                f"run and bounds checkpoints differ for policy {label!r}",
            )
        if label in adaptive and adaptive[label] == alpha and "pull_upper" in bounds:
            pulls = _column(rec, f"mean_pulls_arm_{arm}", results_path)
            upper = bounds["pull_upper"]
            lower = bounds.get("pull_lower", np.full_like(upper, np.nan))
            for i, t in enumerate(ts):
                up_ok = pulls[i] <= upper[i] + 1e-9
                lo_ok = np.isnan(lower[i]) or pulls[i] >= lower[i] - 1e-9
                status = "PASS" if up_ok and lo_ok else "FAIL"
                if status == "FAIL":
                    hard_fail = True
                lo_txt = "-inf" if np.isnan(lower[i]) else f"{lower[i]:.3f}"
                lines.append(
                    f"{label} t={int(t)} pulls_arm_{arm}={pulls[i]:.3f} "
                    f"in [{lo_txt}, {upper[i]:.3f}]: {status}"
                )
        if "regret_log_term" in bounds:
            term = bounds["regret_log_term"]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(term > 0, _column(rec, "mean_regret", results_path) / term, np.nan)
            finite = ratio[np.isfinite(ratio)]
            if len(finite):
                lines.append(
                    f"{label} regret/log-term ratio: last={finite[-1]:.4f} "
                    f"max={finite.max():.4f}"
                )
    lines.append(f"OVERALL: {'FAIL' if hard_fail else 'PASS'}")
    text = "\n".join(lines)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    return 2 if hard_fail else 0


def _cmd_list(args) -> int:
    for name in _bundled_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opbandit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="config file path or bundled config name")
    p_run.add_argument("-o", "--output", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--replications", type=int, default=None, help="override replication count")
    p_run.add_argument("--horizon", type=int, default=None, help="override horizon")
    p_run.add_argument("--plot", action="store_true", help="also write regret.svg")
    p_run.set_defaults(func=_cmd_run)

    p_bounds = sub.add_parser("bounds", help="evaluate analytic envelopes for a config")
    p_bounds.add_argument("config")
    p_bounds.add_argument("-o", "--output", required=True)
    p_bounds.add_argument("--horizon", type=int, default=None)
    p_bounds.add_argument("--alpha", type=float, default=None, help="alpha used in the envelopes")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_cmp = sub.add_parser("compare", help="check a run against evaluated envelopes")
    p_cmp.add_argument("run", help="directory written by `run`")
    p_cmp.add_argument("bounds", help="directory written by `bounds`")
    p_cmp.add_argument("-o", "--output", default=None, help="also save the verdict here")
    p_cmp.set_defaults(func=_cmd_compare)

    p_list = sub.add_parser("list-configs", help="list bundled scenario configs")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error is an input error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
