"""Experiment configuration: one nested key-value document per experiment.

A config names the load model, the reward model, the policy roster (with
per-policy parameters), the horizon/replication schedule, and the base seed.
Truncation thresholds may be given as absolute levels in [0, 1], as
probabilities resolved against the load model's quantile function, or as the
literal string ``binary`` (lower threshold at the model's low level, upper
at 1).

No kind is listed here.  Each load, reward and policy kind is a class in a
registry (``environments.LOAD_KINDS``, ``environments.REWARD_KINDS``,
``policies.POLICY_KINDS``), and its entry's keys, their types and defaults,
and which keys are required are read off the class's constructor: adding a
kind means adding a class to its registry.

``build_plan`` turns a parsed config into ready-to-run model and policy
objects and records every resolved quantity (thresholds, trace scale) so the
output metadata is sufficient to reproduce a run bit-for-bit.
"""

from __future__ import annotations

import functools
import inspect
import logging
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, ClassVar, NamedTuple

import numpy as np
import yaml

from .core import BanditInstance, Thresholds, check_checkpoints, check_prob, default_checkpoints
from .environments import (
    LOAD_KINDS,
    REWARD_KINDS,
    LoadModel,
    RewardModel,
    TraceData,
    TraceLoad,
    TraceReward,
    load_trace,
)
from .policies import POLICY_KINDS, Policy

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
    "build_plan",
]

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A config problem, tagged with the offending field's dotted path."""

    def __init__(self, fieldpath: str, message: str):
        super().__init__(f"{fieldpath}: {message}" if fieldpath else message)
        self.fieldpath = fieldpath
        self.message = message

    @classmethod
    def check(cls, fieldpath: str, rule, *args):
        """``rule(*args)``, a rule that :mod:`core` states once (or a file
        read): its ValueError (or OSError) becomes a ConfigError on
        ``fieldpath`` with the rule's own message."""
        try:
            return rule(*args)
        except (ValueError, OSError) as exc:
            raise cls(fieldpath, str(exc)) from None


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ConfigError(f"{ctx}.{key}" if ctx else key, "missing required field")
    return mapping[key]


def _as_type(value, types, fieldpath: str, what: str):
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(fieldpath, f"expected {what}, got {value!r}")
    return value


def _as_number(value, fieldpath: str) -> float:
    number = _as_type(value, (int, float), fieldpath, "a number")
    if not abs(number) <= sys.float_info.max:  # YAML's .nan and .inf, and ints no float holds
        raise ConfigError(fieldpath, "expected a finite number")
    return float(number)


def _as_int(value, fieldpath: str) -> int:
    return int(_as_type(value, int, fieldpath, "an integer"))


def _as_document(doc, source: str) -> dict:
    """``doc`` as a config document, which must be a mapping; ``source``
    names where it was read from ("": the caller's own value)."""
    if not isinstance(doc, dict):
        raise ConfigError(source, f"config must be a mapping, got {type(doc).__name__}")
    return doc


def _unknown_keys(mapping: dict, allowed, ctx: str):
    extra = sorted(set(mapping) - set(allowed))
    if extra:
        raise ConfigError(f"{ctx}.{extra[0]}" if ctx else extra[0], "unknown field")


# ---------------------------------------------------------------------------
# Threshold specification
# ---------------------------------------------------------------------------


def _check_level(level: float) -> None:
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"must be in [0, 1], where every load lies, got {level}")


class _Form(NamedTuple):
    """A mapping form of a threshold band."""

    keys: tuple[str, ...]  # its config keys, in the order of its values
    rule: Callable  # the rule each value keeps
    levels: Callable  # (values, the load model's quantile) -> (lower, upper)


#: threshold mode -> its mapping form
_FORMS = {
    "absolute": _Form(("lower", "upper"), _check_level, lambda v, quantile: v),
    "probability": _Form(
        ("lower_prob", "upper_prob"), check_prob, lambda v, quantile: (quantile(v[0]), quantile(1.0 - v[1]))
    ),
    "single": _Form(("single_prob",), check_prob, lambda v, quantile: (quantile(v[0]),) * 2),
}


@dataclass(frozen=True)
class ThresholdSpec:
    """How an adaptive policy's truncation band is obtained: a ``mode`` and
    the ``values`` of its keys (:data:`_FORMS`), in their order.

    mode "absolute":    lower/upper are raw load levels.
    mode "probability": lower = Q(lower_prob) and upper = Q(1 - upper_prob),
                        i.e. the probabilities are the mass below the lower
                        and above the upper threshold.
    mode "single":      one quantile probability; lower and upper both sit at
                        Q(single_prob) exactly (the step-function band).
    mode "binary":      (low level of a two-level load model, 1.0); no values.
    """

    mode: str
    values: tuple[float, ...] = ()

    @classmethod
    def from_value(cls, value, ctx: str) -> "ThresholdSpec":
        if value == "binary":
            return cls("binary")
        if not isinstance(value, dict):
            raise ConfigError(ctx, f'expected "binary" or a mapping, got {value!r}')
        _unknown_keys(value, [key for form in _FORMS.values() for key in form.keys], ctx)
        modes = [mode for mode, form in _FORMS.items() if not value.keys().isdisjoint(form.keys)]
        if len(modes) > 1:
            raise ConfigError(ctx, "mix of absolute, probability, and single threshold fields")
        if not modes:
            raise ConfigError(ctx, "thresholds need lower/upper, lower_prob/upper_prob or single_prob")
        mode, form = modes[0], _FORMS[modes[0]]
        values = tuple(_as_number(_require(value, key, ctx), f"{ctx}.{key}") for key in form.keys)
        for key, v in zip(form.keys, values):
            ConfigError.check(f"{ctx}.{key}", form.rule, v)
        if mode == "absolute":  # its levels are known now: a crossed band is named where it is written
            ConfigError.check(f"{ctx}.lower", Thresholds, *values)
        return cls(mode, values)

    def resolve(self, load_model: LoadModel, ctx: str) -> Thresholds:
        if self.mode == "binary":
            eps0 = getattr(load_model, "eps0", None)
            if eps0 is None:
                raise ConfigError(ctx, "binary thresholds need a two-level load model")
            return Thresholds(eps0, 1.0)
        try:
            levels = _FORMS[self.mode].levels(self.values, load_model.quantile)
        except NotImplementedError as exc:
            raise ConfigError(ctx, str(exc)) from None
        return ConfigError.check(ctx, Thresholds, *levels)

    def to_value(self):
        return "binary" if self.mode == "binary" else dict(zip(_FORMS[self.mode].keys, self.values))


# ---------------------------------------------------------------------------
# Load / reward / policy specifications
# ---------------------------------------------------------------------------

#: constructor parameters that the plan supplies, not the config
_PLANNED = ("n_arms", "best_arm")


def _as_means(value, fieldpath: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise ConfigError(fieldpath, "expected a list of at least 2 means")
    return [_as_number(m, f"{fieldpath}[{i}]") for i, m in enumerate(value)]


#: how a config value is read, by the annotation of its constructor parameter;
#: a TraceData parameter is given as the ``path`` of its file
_READERS = {
    float: _as_number,
    int: _as_int,
    tuple[float, ...]: _as_means,
    Thresholds: ThresholdSpec.from_value,
    TraceData: lambda value, fieldpath: _as_type(value, str, fieldpath, "a string"),
}


@functools.cache
def _parameters(cls) -> tuple[inspect.Parameter, ...]:
    # a signature with its annotations evaluated costs about 27 us; the
    # classes are fixed, so each is read once
    return tuple(inspect.signature(cls, eval_str=True).parameters.values())


@dataclass(frozen=True)
class _Spec:
    """A load, reward or policy entry: its kind and a value for every config
    key of the kind's class (given, or the constructor default), in
    signature order."""

    kind: str
    params: dict

    #: what the entry configures, for messages
    family: ClassVar[str]
    #: kind -> class
    kinds: ClassVar[dict[str, type]]
    #: keys every entry of the family may hold besides the class's own
    common_keys: ClassVar[tuple[str, ...]] = ("kind",)

    @classmethod
    def _parse(cls, d, ctx: str) -> tuple[str, dict]:
        if not isinstance(d, dict):
            raise ConfigError(ctx, f"expected a mapping, got {d!r}")
        kind = _require(d, "kind", ctx)
        if not isinstance(kind, str) or kind not in cls.kinds:
            raise ConfigError(
                f"{ctx}.kind", f"unknown {cls.family} kind {kind!r}; one of {sorted(cls.kinds)}"
            )
        keys = {
            "path" if p.annotation is TraceData else p.name: p
            for p in _parameters(cls.kinds[kind])
            if p.name not in _PLANNED
        }
        _unknown_keys(d, [*cls.common_keys, *keys], ctx)
        params = {}
        for key, p in keys.items():
            if key in d:
                params[key] = _READERS[p.annotation](d[key], f"{ctx}.{key}")
            elif p.default is inspect.Parameter.empty:
                raise ConfigError(f"{ctx}.{key}", "missing required field")
            else:
                params[key] = p.default
        return kind, params

    @classmethod
    def from_dict(cls, d, ctx: str):
        return cls(*cls._parse(d, ctx))

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key, value in self.params.items():
            out[key] = value.to_value() if isinstance(value, ThresholdSpec) else value
        return out

    def build(self, ctx: str, read_trace=None, load_model: LoadModel | None = None, **planned):
        """Instantiate the entry's class; returns (instance, its constructor
        arguments).

        ``planned`` holds the plan's values (``n_arms``, ``best_arm``),
        ``read_trace`` parses a trace file (default :func:`load_trace`), and
        thresholds are resolved against ``load_model``.
        """
        cls = self.kinds[self.kind]
        args = {}
        try:
            for p in _parameters(cls):
                if p.name in _PLANNED:
                    args[p.name] = planned[p.name]
                elif p.annotation is TraceData:  # a file that cannot be read is named by its path
                    args[p.name] = ConfigError.check(f"{ctx}.path", read_trace or load_trace, self.params["path"])
                elif p.annotation is Thresholds:
                    args[p.name] = self.params[p.name].resolve(load_model, f"{ctx}.{p.name}")
                else:
                    args[p.name] = self.params[p.name]
            return cls(**args), args
        except ConfigError:
            raise
        except (ValueError, OSError) as exc:
            raise ConfigError(ctx, str(exc)) from None


class LoadSpec(_Spec):
    family = "load"
    kinds = LOAD_KINDS


class RewardSpec(_Spec):
    family = "reward"
    kinds = REWARD_KINDS


@dataclass(frozen=True)
class PolicySpec(_Spec):
    name: str
    family = "policy"
    kinds = POLICY_KINDS
    common_keys = ("name", "kind")

    @classmethod
    def from_dict(cls, d, ctx: str) -> "PolicySpec":
        kind, params = cls._parse(d, ctx)
        name = d.get("name", kind)
        # a name is a results.csv cell: it must read back as itself
        if not isinstance(name, str) or any(c in name for c in ",\n\r"):
            raise ConfigError(f"{ctx}.name", f"expected a string without ',' or line breaks, got {name!r}")
        return cls(kind, params, name)

    def to_dict(self) -> dict:
        return {"name": self.name, **super().to_dict()}


def _resolved(kind: str, args: dict) -> dict:
    """A policy's metadata record: its kind and constructor arguments but the
    arm count, with thresholds as their ``lower``/``upper`` levels."""
    out = {"kind": kind}
    for name, value in args.items():
        if isinstance(value, Thresholds):
            out.update(lower=value.lower, upper=value.upper)
        elif name != "n_arms":
            out[name] = value
    return out


# ---------------------------------------------------------------------------
# Experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config: its fields are the config's top-level keys."""

    name: str
    horizon: int
    replications: int
    base_seed: int
    load: LoadSpec
    reward: RewardSpec
    policies: tuple[PolicySpec, ...]
    checkpoints: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "horizon": self.horizon,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "load": self.load.to_dict(),
            "reward": self.reward.to_dict(),
            "policies": [p.to_dict() for p in self.policies],
        }
        if self.checkpoints is not None:
            out["checkpoints"] = list(self.checkpoints)
        return out


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a raw config mapping and turn it into dataclasses."""
    _as_document(doc, "")
    _unknown_keys(doc, [f.name for f in fields(ExperimentConfig)], "")
    name = _as_type(_require(doc, "name", ""), str, "name", "a string")
    horizon = _as_int(_require(doc, "horizon", ""), "horizon")
    if horizon < 2:
        raise ConfigError("horizon", f"must be >= 2, got {horizon}")
    if horizon > np.iinfo(np.int64).max:  # the steps are int64 arrays
        raise ConfigError("horizon", f"must be <= {np.iinfo(np.int64).max}, got {horizon}")
    replications = _as_int(doc.get("replications", 1), "replications")
    if replications < 1:
        raise ConfigError("replications", f"must be >= 1, got {replications}")
    base_seed = _as_int(doc.get("base_seed", 0), "base_seed")
    if not 0 <= base_seed < 2**64:
        raise ConfigError("base_seed", "must be a 64-bit unsigned integer")

    checkpoints = doc.get("checkpoints")
    if checkpoints is not None:
        if not isinstance(checkpoints, (list, tuple)):
            raise ConfigError("checkpoints", f"expected a list of steps, got {checkpoints!r}")
        checkpoints = tuple(_as_int(p, f"checkpoints[{i}]") for i, p in enumerate(checkpoints))
        ConfigError.check("checkpoints", check_checkpoints, checkpoints, horizon)

    load = LoadSpec.from_dict(_require(doc, "load", ""), "load")
    reward = RewardSpec.from_dict(_require(doc, "reward", ""), "reward")

    raw_policies = _require(doc, "policies", "")
    if not isinstance(raw_policies, list) or not raw_policies:
        raise ConfigError("policies", "expected a non-empty list")
    policies = tuple(PolicySpec.from_dict(p, f"policies[{i}]") for i, p in enumerate(raw_policies))
    names = [p.name for p in policies]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ConfigError("policies", f"duplicate policy name {dup!r}")

    return ExperimentConfig(name, horizon, replications, base_seed, load, reward, policies, checkpoints)


#: PyYAML's safe loader, on libyaml where PyYAML was built with it: the
#: same constructor, so the same documents, at about a sixth of the time
_SAFE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _read_yaml(text: str, source: str):
    """The document of a YAML ``text`` read from ``source``; malformed YAML is
    a :class:`ConfigError` that names the source and the line."""
    try:
        return yaml.load(text, Loader=_SAFE_LOADER)
    except yaml.YAMLError as exc:
        mark, start = getattr(exc, "problem_mark", None), getattr(exc, "context_mark", None)
        where = f"{source}: line {mark.line + 1}" if mark is not None else source
        problem = getattr(exc, "problem", None) or str(exc)
        if start is not None and mark is not None and start.line != mark.line:
            # an unclosed bracket or quote shows only further on: name its start
            problem += f" ({exc.context} from line {start.line + 1})"
        raise ConfigError(where, f"malformed YAML: {problem}") from None


def load_config(path) -> ExperimentConfig:
    """Parse the config file at ``path``, a file path or a package resource."""
    if isinstance(path, str):
        path = Path(path)
    source = str(path)
    return parse_config(_as_document(_read_yaml(path.read_text(encoding="utf-8"), source), source))


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
    # a trace file that holds both the loads and the rewards is parsed once
    read_trace = functools.cache(load_trace)
    load_model, _ = cfg.load.build("load", read_trace)
    reward_model, _ = cfg.reward.build("reward", read_trace)
    bandit = BanditInstance(reward_model.means)
    if cfg.horizon < bandit.n_arms:
        raise ConfigError("horizon", f"must cover the init round of {bandit.n_arms} arms")

    policies: dict[str, Policy] = {}
    resolved: dict[str, dict] = {}
    for i, spec in enumerate(cfg.policies):
        policy, args = spec.build(
            f"policies[{i}]", load_model=load_model, n_arms=bandit.n_arms, best_arm=bandit.best_arm
        )
        policies[spec.name] = policy
        resolved[spec.name] = _resolved(spec.kind, args)

    if cfg.checkpoints is not None:
        checkpoints = np.asarray(cfg.checkpoints, dtype=int)
    else:
        checkpoints = default_checkpoints(cfg.horizon)

    info: dict[str, dict] = {"policies": resolved}
    if isinstance(load_model, TraceLoad):
        info["trace_load"] = {"scale": load_model.data.scale, "rows": load_model.data.n_rows}
        wraps = load_model.wraps(cfg.horizon)
        if wraps:
            log.info("trace shorter than horizon: wrapping around %d time(s)", wraps)
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
