"""Config parsing, validation errors, threshold resolution, round-trips."""

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import betaincinv

from opbandit import config, environments
from opbandit.bounds import evaluate_bounds
from opbandit.config import (
    ConfigError,
    ExperimentConfig,
    ThresholdSpec,
    build_plan,
    parse_config,
)
from opbandit.core import Thresholds, check_checkpoints, check_prob
from opbandit.environments import BetaLoad, LoadModel, PeriodicSquareWaveLoad, load_trace
from opbandit.simulator import replication_streams, run_experiment, run_once

MINIMAL = {
    "name": "tiny",
    "horizon": 100,
    "replications": 2,
    "base_seed": 7,
    "load": {"kind": "binary", "eps0": 0.0, "eps1": 0.0, "rho": 0.5},
    "reward": {"kind": "bernoulli", "means": [0.6, 0.4]},
    "policies": [
        {"name": "adaucb", "kind": "adaucb", "alpha": 0.51, "thresholds": "binary"},
        {"name": "ucb", "kind": "ucb", "alpha": 0.51},
    ],
}


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.name == "tiny"
    assert cfg.horizon == 100
    assert "regret" not in cfg.to_dict()
    assert cfg.policies[0].params["thresholds"].mode == "binary"


def value_error(call, *args) -> str:
    """The message of the ValueError that ``call(*args)`` raises."""
    with pytest.raises(ValueError) as err:
        call(*args)
    return str(err.value)


def assert_round_trip(doc):
    cfg = parse_config(doc)
    def dump(c):
        return yaml.safe_dump(c.to_dict(), sort_keys=False)

    again = parse_config(yaml.safe_load(dump(cfg)))
    assert cfg == again
    assert dump(cfg) == dump(again)


def test_round_trip_is_identity():
    assert_round_trip(MINIMAL)


@pytest.mark.parametrize("path", sorted((resources.files("opbandit") / "configs").iterdir()), ids=lambda p: p.name)
def test_round_trip_is_identity_for_bundled(path):
    assert_round_trip(yaml.safe_load(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("path", sorted((resources.files("opbandit") / "configs").iterdir()), ids=lambda p: p.name)
def test_bundled_configs_parse_equal_under_both_loaders(path):
    # the config reader takes libyaml's loader where PyYAML has it; the
    # documents must be the ones the pure-Python loader reads (repr: the
    # same values of the same types, 1 and 1.0 apart)
    text = path.read_text(encoding="utf-8")
    doc = repr(yaml.load(text, Loader=yaml.SafeLoader))
    assert repr(config._read_yaml(text, path.name)) == doc
    assert config._SAFE_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    if yaml.__with_libyaml__:
        assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == doc


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("horizon"), "horizon"),
        (lambda d: d.update(horizon=1), "horizon"),
        (lambda d: d["load"].update(rho=1.5), "load"),
        (lambda d: d["load"].update(kind="gamma"), "load.kind"),
        (lambda d: d["load"].update(bogus=1), "load.bogus"),
        (lambda d: d["reward"].update(means=[0.5]), "reward.means"),
        (lambda d: d["policies"][1].update(kind="sarsa"), "policies[1].kind"),
        (lambda d: d["policies"][1].pop("alpha"), "policies[1].alpha"),
        (lambda d: d["policies"][0].pop("thresholds"), "policies[0].thresholds"),
        (lambda d: d.update(regret="negative"), "regret"),
        # regret is pseudo-regret, and EAdaUCB's quantiles take every load: no key sets either
        pytest.param(lambda d: d.update(regret="pseudo"), "regret", id="regret-pseudo"),
        pytest.param(lambda d: d.update(regret="realized"), "regret", id="regret-realized"),
        pytest.param(
            lambda d: d["policies"].append({"kind": "eadaucb", "alpha": 0.5, "window": 5}),
            "policies[2].window",
            id="eadaucb-window",
        ),
        (lambda d: d.update(checkpoints=[5, 5]), "checkpoints"),
        (lambda d: d.update(checkpoints=[5, 200]), "checkpoints"),
        # a key of another kind is unknown to this one
        (lambda d: d["policies"].append({"kind": "ts", "alpha": 0.5}), "policies[2].alpha"),
        (lambda d: d["policies"][1].update(thresholds="binary"), "policies[1].thresholds"),
        (lambda d: d["policies"][0].update(window=5), "policies[0].window"),
        # a name is a results.csv cell: only a string with no comma or line
        # break reads back as itself
        (lambda d: d["policies"][1].update(name=[1, 2]), "policies[1].name"),
        (lambda d: d["policies"][1].update(name="ucb,fast"), "policies[1].name"),
        (lambda d: d["policies"][1].update(name="ucb\nfast"), "policies[1].name"),
        (lambda d: d["policies"][1].update(name="ucb\rfast"), "policies[1].name"),
        # the experiment's name titles the plot and metadata.json: a string
        (lambda d: d.update(name=[1, 2]), "name"),
        (lambda d: d.update(name=5), "name"),
    ],
)
def test_errors_name_offending_field(mutate, field):
    import copy

    doc = copy.deepcopy(MINIMAL)
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        build_plan(parse_config(doc))
    assert err.value.fieldpath.startswith(field.split(".")[0])
    assert field in str(err.value)


@pytest.mark.parametrize(
    "entry, field",
    [
        (lambda d: d["load"], "load.kind"),
        (lambda d: d["reward"], "reward.kind"),
        (lambda d: d["policies"][1], "policies[1].kind"),
    ],
    ids=["load", "reward", "policy"],
)
@pytest.mark.parametrize("kind", [["beta"], {"beta": 1}], ids=["list", "mapping"])
def test_non_string_kind_names_field(entry, field, kind):
    import copy

    doc = copy.deepcopy(MINIMAL)
    entry(doc)["kind"] = kind
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.fieldpath == field


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", "-1" + "0" * 400], ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d, v: d["policies"][1].update(alpha=v), "policies[1].alpha"),
        (lambda d, v: d.update(load={"kind": "beta", "a": v, "b": 2.0}), "load.a"),
        (lambda d, v: d["policies"][0].update(thresholds={"lower": v, "upper": 0.8}), "policies[0].thresholds.lower"),
        (lambda d, v: d["reward"]["means"].__setitem__(0, v), "reward.means[0]"),
    ],
    ids=["alpha", "load", "threshold", "mean"],
)
def test_non_finite_numbers_rejected(mutate, field, value):
    # YAML reads .nan and .inf as floats, and an integer past any float as an
    # int; no model or policy check may see them
    import copy

    doc = copy.deepcopy(MINIMAL)
    mutate(doc, yaml.safe_load(value))
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == f"{field}: expected a finite number"


def plan_error(doc) -> ConfigError:
    with pytest.raises(ConfigError) as err:
        build_plan(parse_config(doc))
    return err.value


@pytest.mark.parametrize("p", [0.0, 1.0, math.nan], ids=["zero", "one", "nan"])
@pytest.mark.parametrize("key", ["lower_prob", "upper_prob", "single_prob"])
def test_threshold_probability_is_cores_rule(key, p):
    import copy

    doc = copy.deepcopy(MINIMAL)
    doc["load"] = {"kind": "beta", "a": 2.0, "b": 2.0}
    others = {} if key == "single_prob" else {"lower_prob": 0.1, "upper_prob": 0.1}
    doc["policies"][0]["thresholds"] = {**others, key: p}
    err = plan_error(doc)
    assert err.fieldpath == f"policies[0].thresholds.{key}"
    # NaN is no finite number: the reader of every config number names it
    # before any rule sees it
    assert err.message == ("expected a finite number" if math.isnan(p) else value_error(check_prob, p))


#: checkpoints that core's rule rejects at horizon 100
BAD_CHECKPOINTS = {
    "empty": [],
    "repeated": [5, 5],
    "decreasing": [10, 5],
    "below-one": [0, 5],
    "past-horizon": [5, 101],
    "past-int64": [5, 10**30],
}


@pytest.mark.parametrize("pts", BAD_CHECKPOINTS.values(), ids=BAD_CHECKPOINTS)
def test_checkpoints_are_cores_rule(pts):
    # the config names the field; the simulator's entry points raise the rule's
    # own ValueError
    message = value_error(check_checkpoints, pts, 100)
    err = plan_error({**MINIMAL, "checkpoints": pts})
    assert (err.fieldpath, err.message) == ("checkpoints", message)
    plan = build_plan(parse_config(MINIMAL))
    models = (plan.bandit, plan.load_model, plan.reward_model)
    streams = replication_streams(7, "ucb", 0).values()
    assert value_error(run_once, *models, plan.policies["ucb"], 100, pts, *streams) == message
    assert value_error(run_experiment, *models, plan.policies, 100, 1, 7, pts) == message


def test_non_integral_checkpoints_rejected():
    # a step is a whole number: 2.5 is not truncated to step 2, NaN is no
    # step, and neither the string "3" nor True is read as a step
    message = "checkpoints must be whole steps"
    plan = build_plan(parse_config(MINIMAL))
    models = (plan.bandit, plan.load_model, plan.reward_model)
    for pts in ([2.5, 99.9], [float("nan"), 50], ["3", 5], [True, 5], [np.True_, 5]):
        assert value_error(check_checkpoints, pts, 100) == message
        assert value_error(run_experiment, *models, plan.policies, 100, 1, 7, pts) == message
        assert value_error(evaluate_bounds, *models, 0.51, pts) == message
    assert value_error(check_checkpoints, np.array([2.0, 99.5]), 100) == message
    assert value_error(check_checkpoints, np.array([False, True]), 100) == message
    assert check_checkpoints([2.0, 99.0], 100).tolist() == [2, 99]
    # evaluate_bounds has no horizon, but the rest of the rule holds there too
    assert value_error(evaluate_bounds, *models, 0.51, [10, 5]) == "checkpoints must be strictly increasing"


def test_duplicate_policy_names_rejected():
    import copy

    doc = copy.deepcopy(MINIMAL)
    doc["policies"][1]["name"] = "adaucb"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(doc)


class TestThresholdResolution:
    def test_absolute(self):
        spec = ThresholdSpec.from_value({"lower": 0.2, "upper": 0.8}, "x")
        th = spec.resolve(BetaLoad(2, 2), "x")
        assert (th.lower, th.upper) == (0.2, 0.8)

    def test_probability_resolves_against_quantiles(self):
        spec = ThresholdSpec.from_value({"lower_prob": 0.05, "upper_prob": 0.05}, "x")
        th = spec.resolve(BetaLoad(2, 2), "x")
        assert th.lower == betaincinv(2, 2, 0.05)
        assert th.upper == betaincinv(2, 2, 0.95)

    def test_single_prob_form_gives_exactly_equal_thresholds(self):
        spec = ThresholdSpec.from_value({"single_prob": 0.05}, "x")
        th = spec.resolve(BetaLoad(2, 2), "x")
        assert th.lower == th.upper == betaincinv(2, 2, 0.05)

    def test_binary_uses_low_level_and_one(self):
        spec = ThresholdSpec.from_value("binary", "x")
        th = spec.resolve(PeriodicSquareWaveLoad(0.05, 0.1), "x")
        assert (th.lower, th.upper) == (0.05, 1.0)

    def test_binary_rejected_for_continuous_model(self):
        spec = ThresholdSpec.from_value("binary", "x")
        with pytest.raises(ConfigError):
            spec.resolve(BetaLoad(2, 2), "x")

    def test_mixed_forms_rejected(self):
        with pytest.raises(ConfigError, match="mix"):
            ThresholdSpec.from_value({"lower": 0.1, "upper_prob": 0.05}, "x")

    @given(
        lower=st.one_of(st.floats(0.0, 1.0), st.floats()),
        upper=st.one_of(st.floats(0.0, 1.0), st.floats()),
    )
    def test_absolute_outside_load_support_named(self, lower, upper):
        # every load model lives in [0, 1]; a level outside it is named when parsed
        import copy

        doc = copy.deepcopy(MINIMAL)
        doc["load"] = {"kind": "beta", "a": 2.0, "b": 2.0}
        doc["policies"][0]["thresholds"] = {"lower": lower, "upper": upper}
        levels = (("lower", lower), ("upper", upper))
        non_finite = [name for name, level in levels if not math.isfinite(level)]
        outside = [name for name, level in levels if not 0.0 <= level <= 1.0]
        if non_finite:  # read before any level is checked
            with pytest.raises(ConfigError, match="expected a finite number") as err:
                parse_config(doc)
            assert err.value.fieldpath == f"policies[0].thresholds.{non_finite[0]}"
        elif outside:
            with pytest.raises(ConfigError, match=r"must be in \[0, 1\]") as err:
                parse_config(doc)
            assert err.value.fieldpath == f"policies[0].thresholds.{outside[0]}"
        elif lower > upper:  # core's rule, named at the lower level
            with pytest.raises(ConfigError) as err:
                parse_config(doc)
            assert err.value.fieldpath == "policies[0].thresholds.lower"
            assert err.value.message == value_error(Thresholds, lower, upper)
        else:
            info = build_plan(parse_config(doc)).resolved["policies"]["adaucb"]
            assert (info["lower"], info["upper"]) == (lower, upper)

    def test_crossed_probabilities_rejected(self):
        spec = ThresholdSpec.from_value({"lower_prob": 0.9, "upper_prob": 0.9}, "x")
        load = BetaLoad(2, 2)
        with pytest.raises(ConfigError) as err:
            spec.resolve(load, "x")
        assert err.value.fieldpath == "x"
        assert err.value.message == value_error(Thresholds, load.quantile(0.9), load.quantile(1.0 - 0.9))


class TestBuildPlan:
    def test_resolved_thresholds_recorded(self):
        plan = build_plan(parse_config(MINIMAL))
        info = plan.resolved["policies"]["adaucb"]
        assert info["kind"] == "adaucb"
        assert (info["lower"], info["upper"]) == (0.0, 1.0)
        assert set(plan.policies) == {"adaucb", "ucb"}
        assert plan.bandit.n_arms == 2

    def test_semiperiodic_thresholds_pinned(self):
        # mvno-synthetic's 5% and 95% nearest-rank quantiles of its 199,872-load
        # reference sample, as sorting the whole sample gives them
        path = resources.files("opbandit") / "configs" / "mvno-synthetic.yaml"
        info = build_plan(parse_config(yaml.safe_load(path.read_text(encoding="utf-8")))).resolved["policies"]["adaucb"]
        assert (info["lower"], info["upper"]) == (0.19191539847564798, 0.8314647541629999)

    def test_trace_scale_recorded(self, tmp_path, monkeypatch):
        parsed = []
        monkeypatch.setattr(config, "load_trace", lambda path: parsed.append(path) or load_trace(path))
        p = tmp_path / "t.csv"
        p.write_text("0.5,0.6,0.4\n1.0,0.7,0.2\n2.0,0.6,0.5\n")
        doc = {
            "name": "trace",
            "horizon": 50,
            "load": {"kind": "trace", "path": str(p)},
            "reward": {"kind": "trace", "path": str(p)},
            "policies": [{"name": "eadaucb", "kind": "eadaucb", "alpha": 0.51}],
        }
        plan = build_plan(parse_config(doc))
        assert plan.resolved["trace_load"]["scale"] == 2.0
        assert plan.resolved["trace_reward"]["means"] == pytest.approx([0.6 + 1 / 30, 11 / 30])
        # one file for both columns: parsed once, shared
        assert parsed == [str(p)]
        assert plan.reward_model.data is plan.load_model.data

    def test_one_reward_column_names_reward(self, tmp_path):
        # a load,a trace as both the load and the reward trace: one arm
        p = tmp_path / "t.csv"
        p.write_text("0.5,0.6\n1.0,0.7\n0.2,0.1\n")
        doc = {
            "name": "trace",
            "horizon": 50,
            "load": {"kind": "trace", "path": str(p)},
            "reward": {"kind": "trace", "path": str(p)},
            "policies": [{"name": "ucb", "kind": "ucb", "alpha": 0.51}],
        }
        with pytest.raises(ConfigError, match="at least 2 arms") as err:
            build_plan(parse_config(doc))
        assert err.value.fieldpath == "reward"

    @pytest.mark.parametrize("horizon, wraps", [(3, 0), (4, 1), (6, 1), (7, 2), (50, 16)])
    def test_trace_wraps_logged_once(self, tmp_path, caplog, horizon, wraps):
        # steps 4, 7, ... start the 3-row trace again: one record names them
        # all, however the run draws its loads
        p = tmp_path / "t.csv"
        p.write_text("0.5,0.6,0.4\n1.0,0.7,0.2\n2.0,0.6,0.5\n")
        doc = {
            "name": "trace",
            "horizon": horizon,
            "load": {"kind": "trace", "path": str(p)},
            "reward": {"kind": "bernoulli", "means": [0.6, 0.4]},
            "policies": [{"name": "ucb", "kind": "ucb", "alpha": 0.51}],
        }
        with caplog.at_level("INFO"):
            plan = build_plan(parse_config(doc))
            run_experiment(plan.bandit, plan.load_model, plan.reward_model, plan.policies, horizon, 2, 5, [horizon])
        records = [r.getMessage() for r in caplog.records if "wrapping" in r.getMessage()]
        assert records == ([f"trace shorter than horizon: wrapping around {wraps} time(s)"] if wraps else [])

    def test_default_checkpoints_generated(self):
        plan = build_plan(parse_config(MINIMAL))
        assert plan.checkpoints[-1] == 100

    def test_horizon_must_cover_init_round(self):
        import copy

        doc = copy.deepcopy(MINIMAL)
        doc["horizon"] = 2
        doc["reward"]["means"] = [0.1, 0.2, 0.3]
        with pytest.raises(ConfigError, match="horizon"):
            build_plan(parse_config(doc))


@dataclass(frozen=True)
class StepLoad(LoadModel):
    """A kind defined outside the package: ``level`` on every
    ``every``-th step, 1.0 otherwise."""

    level: float
    every: int = 3
    kind = "step"
    uses_rng = False

    def _bulk(self, ts, us):
        return np.where(ts % self.every == 0, self.level, 1.0)


class TestRegistry:
    def test_registered_class_is_a_config_kind(self, monkeypatch):
        monkeypatch.setitem(environments.LOAD_KINDS, "step", StepLoad)
        doc = {**MINIMAL, "load": {"kind": "step", "level": 0.25}}
        doc["policies"] = [{"kind": "ucb", "alpha": 0.51}]
        cfg = parse_config(doc)
        assert cfg.load.to_dict() == {"kind": "step", "level": 0.25, "every": 3}
        plan = build_plan(cfg)
        assert plan.load_model == StepLoad(0.25, 3)
        np.testing.assert_array_equal(plan.load_model.sample_loads(4, None), [1.0, 1.0, 0.25, 1.0])

    @pytest.mark.parametrize(
        "load, field, message",
        [
            ({"kind": "step"}, "load.level", "missing required field"),
            ({"kind": "step", "level": 0.25, "every": 1.5}, "load.every", "expected an integer"),
            ({"kind": "step", "level": "low"}, "load.level", "expected a number"),
        ],
    )
    def test_keys_types_and_required_come_from_the_signature(self, monkeypatch, load, field, message):
        monkeypatch.setitem(environments.LOAD_KINDS, "step", StepLoad)
        with pytest.raises(ConfigError, match=message) as err:
            parse_config({**MINIMAL, "load": load})
        assert err.value.fieldpath == field
