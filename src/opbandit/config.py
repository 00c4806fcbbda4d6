"""Experiment configuration: one nested key-value document per experiment.

A config names the load model, the reward model, the policy roster (with
per-policy parameters), the horizon/replication schedule, and the base seed.
Truncation thresholds may be given as absolute levels, as probabilities
resolved against the load model's quantile function, or as the literal
string ``binary`` (lower threshold at the model's low level, upper at 1).

``build_plan`` turns a parsed config into ready-to-run model and policy
objects and records every resolved quantity (thresholds, trace scale) so the
output metadata is sufficient to reproduce a run bit-for-bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
import yaml

from .core import BanditInstance, Thresholds
from .environments import (
    BernoulliReward,
    BetaLoad,
    BinaryRandomLoad,
    DiracReward,
    LoadModel,
    PeriodicSquareWaveLoad,
    RewardModel,
    SemiPeriodicLoad,
    TraceData,
    TraceLoad,
    TraceReward,
    UniformLoad,
    load_trace,
)
from .policies import (
    AdaUcbPolicy,
    EAdaUcbPolicy,
    LinUcbDisjointPolicy,
    OraclePolicy,
    Policy,
    RoundRobinGreedyPolicy,
    ThompsonPolicy,
    UcbPolicy,
)
from .simulator import default_checkpoints

__all__ = [
    "ConfigError",
    "ThresholdSpec",
    "LoadSpec",
    "RewardSpec",
    "PolicySpec",
    "ExperimentConfig",
    "ExperimentPlan",
    "load_config",
    "parse_config",
    "dump_config",
    "build_plan",
]


class ConfigError(ValueError):
    """A config problem, tagged with the offending field's dotted path."""

    def __init__(self, fieldpath: str, message: str):
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath
        self.message = message


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ConfigError(f"{ctx}.{key}" if ctx else key, "missing required field")
    return mapping[key]


def _as_type(value, types, fieldpath: str, what: str):
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(fieldpath, f"expected {what}, got {value!r}")
    return value


def _as_number(value, fieldpath: str) -> float:
    return float(_as_type(value, (int, float), fieldpath, "a number"))


def _as_int(value, fieldpath: str) -> int:
    return int(_as_type(value, int, fieldpath, "an integer"))


def _unknown_keys(mapping: dict, allowed, ctx: str):
    extra = sorted(set(mapping) - set(allowed))
    if extra:
        raise ConfigError(f"{ctx}.{extra[0]}" if ctx else extra[0], "unknown field")


# ---------------------------------------------------------------------------
# Threshold specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdSpec:
    """How an adaptive policy's truncation band is obtained.

    mode "absolute":    lower/upper are raw load levels.
    mode "probability": lower = Q(lower_prob) and upper = Q(1 - upper_prob),
                        i.e. the probabilities are the mass below the lower
                        and above the upper threshold.
    mode "single":      one quantile probability; lower and upper both sit at
                        Q(single_prob) exactly (the step-function band).
    mode "binary":      (low level of a two-level load model, 1.0).
    """

    mode: str
    lower: float | None = None
    upper: float | None = None
    lower_prob: float | None = None
    upper_prob: float | None = None
    single_prob: float | None = None

    @classmethod
    def from_value(cls, value, ctx: str) -> "ThresholdSpec":
        if value == "binary":
            return cls(mode="binary")
        if not isinstance(value, dict):
            raise ConfigError(ctx, f'expected "binary" or a mapping, got {value!r}')
        _unknown_keys(value, {"lower", "upper", "lower_prob", "upper_prob", "single_prob"}, ctx)
        has_abs = "lower" in value or "upper" in value
        has_prob = "lower_prob" in value or "upper_prob" in value
        has_single = "single_prob" in value
        if has_abs + has_prob + has_single > 1:
            raise ConfigError(ctx, "mix of absolute, probability, and single threshold fields")
        if has_single:
            p = _as_number(value["single_prob"], f"{ctx}.single_prob")
            if not 0.0 < p < 1.0:
                raise ConfigError(f"{ctx}.single_prob", f"must be in (0, 1), got {p}")
            return cls(mode="single", single_prob=p)
        if has_abs:
            lo = _as_number(_require(value, "lower", ctx), f"{ctx}.lower")
            hi = _as_number(_require(value, "upper", ctx), f"{ctx}.upper")
            if lo > hi:
                raise ConfigError(f"{ctx}.lower", f"lower {lo} exceeds upper {hi}")
            return cls(mode="absolute", lower=lo, upper=hi)
        if has_prob:
            lp = _as_number(_require(value, "lower_prob", ctx), f"{ctx}.lower_prob")
            up = _as_number(_require(value, "upper_prob", ctx), f"{ctx}.upper_prob")
            for name, p in (("lower_prob", lp), ("upper_prob", up)):
                if not 0.0 < p < 1.0:
                    raise ConfigError(f"{ctx}.{name}", f"must be in (0, 1), got {p}")
            return cls(mode="probability", lower_prob=lp, upper_prob=up)
        raise ConfigError(ctx, "thresholds need lower/upper or lower_prob/upper_prob")

    def resolve(self, load_model: LoadModel, ctx: str) -> Thresholds:
        if self.mode == "absolute":
            return Thresholds(self.lower, self.upper)
        if self.mode == "single":
            try:
                level = load_model.quantile(self.single_prob)
            except NotImplementedError as exc:
                raise ConfigError(ctx, str(exc)) from None
            return Thresholds(level, level)
        if self.mode == "probability":
            try:
                lo = load_model.quantile(self.lower_prob)
                hi = load_model.quantile(1.0 - self.upper_prob)
            except NotImplementedError as exc:
                raise ConfigError(ctx, str(exc)) from None
            if lo > hi:
                raise ConfigError(
                    ctx,
                    f"resolved lower threshold {lo} exceeds upper threshold {hi}; "
                    "loosen the probabilities",
                )
            return Thresholds(lo, hi)
        if self.mode == "binary":
            eps0 = getattr(load_model, "eps0", None)
            if eps0 is None:
                raise ConfigError(ctx, "binary thresholds need a two-level load model")
            return Thresholds(eps0, 1.0)
        raise ConfigError(ctx, f"unknown threshold mode {self.mode!r}")

    def to_value(self):
        if self.mode == "binary":
            return "binary"
        if self.mode == "absolute":
            return {"lower": self.lower, "upper": self.upper}
        if self.mode == "single":
            return {"single_prob": self.single_prob}
        return {"lower_prob": self.lower_prob, "upper_prob": self.upper_prob}


# ---------------------------------------------------------------------------
# Load / reward / policy specifications
# ---------------------------------------------------------------------------

_LOAD_KINDS = {"square-wave", "binary", "beta", "uniform", "trace", "semiperiodic"}
_REWARD_KINDS = {"dirac", "bernoulli", "trace"}
_POLICY_KINDS = {"adaucb", "eadaucb", "ucb", "ts", "linucb", "oracle", "rr-greedy"}

_LOAD_FIELDS = {
    "square-wave": {"eps0", "eps1"},
    "binary": {"eps0", "eps1", "rho"},
    "beta": {"a", "b"},
    "uniform": set(),
    "trace": {"path"},
    "semiperiodic": {"period", "base", "amplitude", "noise_a", "noise_b"},
}


@dataclass(frozen=True)
class LoadSpec:
    kind: str
    eps0: float | None = None
    eps1: float | None = None
    rho: float | None = None
    a: float | None = None
    b: float | None = None
    path: str | None = None
    period: int | None = None
    base: float | None = None
    amplitude: float | None = None
    noise_a: float | None = None
    noise_b: float | None = None

    @classmethod
    def from_dict(cls, d, ctx: str) -> "LoadSpec":
        if not isinstance(d, dict):
            raise ConfigError(ctx, f"expected a mapping, got {d!r}")
        kind = _require(d, "kind", ctx)
        if kind not in _LOAD_KINDS:
            raise ConfigError(f"{ctx}.kind", f"unknown load kind {kind!r}; one of {sorted(_LOAD_KINDS)}")
        _unknown_keys(d, _LOAD_FIELDS[kind] | {"kind"}, ctx)
        kw = {}
        for name in _LOAD_FIELDS[kind]:
            if name not in d:
                continue
            if name == "path":
                kw[name] = str(d[name])
            elif name == "period":
                kw[name] = _as_int(d[name], f"{ctx}.{name}")
            else:
                kw[name] = _as_number(d[name], f"{ctx}.{name}")
        if kind == "trace" and "path" not in kw:
            raise ConfigError(f"{ctx}.path", "missing required field")
        return cls(kind=kind, **kw)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name != "kind" and v is not None:
                out[f.name] = v
        return out

    def build(self, ctx: str = "load") -> LoadModel:
        kw = {f: getattr(self, f) for f in _LOAD_FIELDS[self.kind] if getattr(self, f) is not None}
        try:
            if self.kind == "square-wave":
                return PeriodicSquareWaveLoad(**kw)
            if self.kind == "binary":
                return BinaryRandomLoad(**kw)
            if self.kind == "beta":
                return BetaLoad(**kw)
            if self.kind == "uniform":
                return UniformLoad()
            if self.kind == "semiperiodic":
                return SemiPeriodicLoad(**kw)
            return TraceLoad(load_trace(self.path))
        except (ValueError, OSError) as exc:
            raise ConfigError(ctx, str(exc)) from None


@dataclass(frozen=True)
class RewardSpec:
    kind: str
    means: tuple[float, ...] | None = None
    path: str | None = None

    @classmethod
    def from_dict(cls, d, ctx: str) -> "RewardSpec":
        if not isinstance(d, dict):
            raise ConfigError(ctx, f"expected a mapping, got {d!r}")
        kind = _require(d, "kind", ctx)
        if kind not in _REWARD_KINDS:
            raise ConfigError(f"{ctx}.kind", f"unknown reward kind {kind!r}; one of {sorted(_REWARD_KINDS)}")
        if kind == "trace":
            _unknown_keys(d, {"kind", "path"}, ctx)
            path = str(_require(d, "path", ctx))
            return cls(kind=kind, path=path)
        _unknown_keys(d, {"kind", "means"}, ctx)
        means = _require(d, "means", ctx)
        if not isinstance(means, (list, tuple)) or len(means) < 2:
            raise ConfigError(f"{ctx}.means", "expected a list of at least 2 means")
        return cls(kind=kind, means=tuple(_as_number(m, f"{ctx}.means[{i}]") for i, m in enumerate(means)))

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.means is not None:
            out["means"] = list(self.means)
        if self.path is not None:
            out["path"] = self.path
        return out

    def build(self, ctx: str = "reward", trace: TraceData | None = None) -> RewardModel:
        """``trace``: the already parsed file at ``path``, if there is one."""
        try:
            if self.kind == "dirac":
                return DiracReward(self.means)
            if self.kind == "bernoulli":
                return BernoulliReward(self.means)
            return TraceReward(trace if trace is not None else load_trace(self.path))
        except (ValueError, OSError) as exc:
            raise ConfigError(ctx, str(exc)) from None


@dataclass(frozen=True)
class PolicySpec:
    name: str
    kind: str
    alpha: float | None = None
    thresholds: ThresholdSpec | None = None
    lower_quantile: float = 0.05
    upper_quantile: float = 0.95
    window: int | None = None

    @classmethod
    def from_dict(cls, d, ctx: str) -> "PolicySpec":
        if not isinstance(d, dict):
            raise ConfigError(ctx, f"expected a mapping, got {d!r}")
        kind = _require(d, "kind", ctx)
        if kind not in _POLICY_KINDS:
            raise ConfigError(f"{ctx}.kind", f"unknown policy kind {kind!r}; one of {sorted(_POLICY_KINDS)}")
        name = str(d.get("name", kind))
        _unknown_keys(
            d,
            {"name", "kind", "alpha", "thresholds", "lower_quantile", "upper_quantile", "window"},
            ctx,
        )
        kw = {}
        if "alpha" in d:
            kw["alpha"] = _as_number(d["alpha"], f"{ctx}.alpha")
        if "thresholds" in d:
            kw["thresholds"] = ThresholdSpec.from_value(d["thresholds"], f"{ctx}.thresholds")
        if "lower_quantile" in d:
            kw["lower_quantile"] = _as_number(d["lower_quantile"], f"{ctx}.lower_quantile")
        if "upper_quantile" in d:
            kw["upper_quantile"] = _as_number(d["upper_quantile"], f"{ctx}.upper_quantile")
        if "window" in d and d["window"] is not None:
            kw["window"] = _as_int(d["window"], f"{ctx}.window")
        needs_alpha = kind in {"adaucb", "eadaucb", "ucb", "linucb"}
        if needs_alpha and "alpha" not in kw:
            raise ConfigError(f"{ctx}.alpha", f"policy kind {kind!r} requires alpha")
        if kind in {"adaucb", "rr-greedy"} and "thresholds" not in kw:
            raise ConfigError(f"{ctx}.thresholds", f"policy kind {kind!r} requires thresholds")
        return cls(name=name, kind=kind, **kw)

    def to_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.thresholds is not None:
            out["thresholds"] = self.thresholds.to_value()
        if self.kind == "eadaucb":
            out["lower_quantile"] = self.lower_quantile
            out["upper_quantile"] = self.upper_quantile
            if self.window is not None:
                out["window"] = self.window
        return out

    def build(self, bandit: BanditInstance, load_model: LoadModel, ctx: str) -> tuple[Policy, dict]:
        """Instantiate the policy; returns (policy, resolved-parameter dict)."""
        n = bandit.n_arms
        resolved = {"kind": self.kind}
        try:
            if self.kind == "adaucb":
                th = self.thresholds.resolve(load_model, f"{ctx}.thresholds")
                resolved.update(alpha=self.alpha, lower=th.lower, upper=th.upper)
                return AdaUcbPolicy(n, self.alpha, th), resolved
            if self.kind == "eadaucb":
                resolved.update(
                    alpha=self.alpha,
                    lower_quantile=self.lower_quantile,
                    upper_quantile=self.upper_quantile,
                    window=self.window,
                )
                return (
                    EAdaUcbPolicy(n, self.alpha, self.lower_quantile, self.upper_quantile, self.window),
                    resolved,
                )
            if self.kind == "ucb":
                resolved.update(alpha=self.alpha)
                return UcbPolicy(n, self.alpha), resolved
            if self.kind == "ts":
                return ThompsonPolicy(n), resolved
            if self.kind == "linucb":
                resolved.update(alpha=self.alpha)
                return LinUcbDisjointPolicy(n, self.alpha), resolved
            if self.kind == "oracle":
                resolved.update(best_arm=bandit.best_arm)
                return OraclePolicy(n, bandit.best_arm), resolved
            th = self.thresholds.resolve(load_model, f"{ctx}.thresholds")
            resolved.update(lower=th.lower, upper=th.upper)
            return RoundRobinGreedyPolicy(n, th), resolved
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(ctx, str(exc)) from None


# ---------------------------------------------------------------------------
# Experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    horizon: int
    replications: int
    base_seed: int
    load: LoadSpec
    reward: RewardSpec
    policies: tuple[PolicySpec, ...]
    checkpoints: tuple[int, ...] | None = None
    checkpoint_count: int = 50
    regret: str = "pseudo"

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "horizon": self.horizon,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "regret": self.regret,
            "load": self.load.to_dict(),
            "reward": self.reward.to_dict(),
            "policies": [p.to_dict() for p in self.policies],
        }
        if self.checkpoints is not None:
            out["checkpoints"] = list(self.checkpoints)
        elif self.checkpoint_count != 50:
            out["checkpoint_count"] = self.checkpoint_count
        return out


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a raw config mapping and turn it into dataclasses."""
    if not isinstance(doc, dict):
        raise ConfigError("", f"config must be a mapping, got {type(doc).__name__}")
    _unknown_keys(
        doc,
        {
            "name",
            "horizon",
            "replications",
            "base_seed",
            "regret",
            "checkpoints",
            "checkpoint_count",
            "load",
            "reward",
            "policies",
        },
        "",
    )
    name = str(_require(doc, "name", ""))
    horizon = _as_int(_require(doc, "horizon", ""), "horizon")
    if horizon < 2:
        raise ConfigError("horizon", f"must be >= 2, got {horizon}")
    replications = _as_int(doc.get("replications", 1), "replications")
    if replications < 1:
        raise ConfigError("replications", f"must be >= 1, got {replications}")
    base_seed = _as_int(doc.get("base_seed", 0), "base_seed")
    if not 0 <= base_seed < 2**64:
        raise ConfigError("base_seed", "must be a 64-bit unsigned integer")
    regret = doc.get("regret", "pseudo")
    if regret not in ("pseudo", "realized"):
        raise ConfigError("regret", f'must be "pseudo" or "realized", got {regret!r}')

    checkpoints = None
    checkpoint_count = 50
    raw_pts = doc.get("checkpoints")
    if raw_pts is not None:
        if not isinstance(raw_pts, (list, tuple)) or not raw_pts:
            raise ConfigError("checkpoints", "expected a non-empty list of steps")
        pts = tuple(_as_int(p, f"checkpoints[{i}]") for i, p in enumerate(raw_pts))
        if any(p2 <= p1 for p1, p2 in zip(pts, pts[1:])):
            raise ConfigError("checkpoints", "must be strictly increasing")
        if pts[0] < 1 or pts[-1] > horizon:
            raise ConfigError("checkpoints", f"must lie within [1, {horizon}]")
        checkpoints = pts
    if "checkpoint_count" in doc:
        checkpoint_count = _as_int(doc["checkpoint_count"], "checkpoint_count")
        if checkpoint_count < 1:
            raise ConfigError("checkpoint_count", "must be >= 1")

    load = LoadSpec.from_dict(_require(doc, "load", ""), "load")
    reward = RewardSpec.from_dict(_require(doc, "reward", ""), "reward")

    raw_policies = _require(doc, "policies", "")
    if not isinstance(raw_policies, list) or not raw_policies:
        raise ConfigError("policies", "expected a non-empty list")
    policies = tuple(
        PolicySpec.from_dict(p, f"policies[{i}]") for i, p in enumerate(raw_policies)
    )
    names = [p.name for p in policies]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ConfigError("policies", f"duplicate policy name {dup!r}")

    return ExperimentConfig(
        name=name,
        horizon=horizon,
        replications=replications,
        base_seed=base_seed,
        load=load,
        reward=reward,
        policies=policies,
        checkpoints=checkpoints,
        checkpoint_count=checkpoint_count,
        regret=regret,
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    return parse_config(doc)


def dump_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=False)


@dataclass
class ExperimentPlan:
    """A config with every model and policy instantiated and every derived
    quantity resolved."""

    config: ExperimentConfig
    bandit: BanditInstance
    load_model: LoadModel
    reward_model: RewardModel
    policies: dict[str, Policy]
    checkpoints: np.ndarray
    resolved: dict[str, dict]


def build_plan(cfg: ExperimentConfig) -> ExperimentPlan:
    load_model = cfg.load.build("load")
    # a trace that holds both the loads and the rewards is parsed once
    shared = isinstance(load_model, TraceLoad) and cfg.reward.path == cfg.load.path
    reward_model = cfg.reward.build("reward", load_model.data if shared else None)
    bandit = BanditInstance(reward_model.means)
    if cfg.horizon < bandit.n_arms:
        raise ConfigError("horizon", f"must cover the init round of {bandit.n_arms} arms")

    policies: dict[str, Policy] = {}
    resolved: dict[str, dict] = {}
    for i, spec in enumerate(cfg.policies):
        policy, info = spec.build(bandit, load_model, f"policies[{i}]")
        policies[spec.name] = policy
        resolved[spec.name] = info

    if cfg.checkpoints is not None:
        checkpoints = np.asarray(cfg.checkpoints, dtype=int)
    else:
        checkpoints = default_checkpoints(cfg.horizon, cfg.checkpoint_count)

    info: dict[str, dict] = {"policies": resolved}
    if isinstance(load_model, TraceLoad):
        info["trace_load"] = {"scale": load_model.data.scale, "rows": load_model.data.n_rows}
    if isinstance(reward_model, TraceReward):
        info["trace_reward"] = {"means": list(reward_model.means)}
    return ExperimentPlan(
        config=cfg,
        bandit=bandit,
        load_model=load_model,
        reward_model=reward_model,
        policies=policies,
        checkpoints=checkpoints,
        resolved=info,
    )
