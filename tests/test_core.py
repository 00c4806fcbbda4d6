"""Core types: load normalization, arm statistics, and the random-stream
replay contract."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opbandit import bounds, environments
from opbandit.core import (
    ArmState,
    BanditInstance,
    RngStream,
    Thresholds,
    binary_normalize,
    derive_stream_id,
    margin_down,
    margin_up,
    nearest_rank,
    nearest_rank_quantile,
    normalize_load,
)
from opbandit.policies import EAdaUcbPolicy, LoadQuantileSketch

BAND = Thresholds(0.2, 0.8)


class TestNormalizeLoad:
    def test_clamped_to_lower_edge(self):
        assert normalize_load(0.1, BAND) == 0.0

    def test_midpoint(self):
        assert normalize_load(0.5, BAND) == pytest.approx(0.5, rel=1e-15)

    def test_interior_value(self):
        # hand evaluation: (0.35 - 0.2) / 0.6 = 0.25
        assert normalize_load(0.35, BAND) == pytest.approx(0.25, rel=1e-12)

    def test_clamped_to_upper_edge(self):
        assert normalize_load(2.7, BAND) == 1.0

    def test_single_threshold_is_step_function(self):
        point = Thresholds(0.3, 0.3)
        assert normalize_load(0.3, point) == 0.0  # at the threshold: still low
        assert normalize_load(0.3001, point) == 1.0
        assert normalize_load(0.0, point) == 0.0

    def test_rejects_non_finite_raw(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                normalize_load(bad, BAND)

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            Thresholds(0.8, 0.2)

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_range(self, raw):
        assert 0.0 <= normalize_load(raw, BAND) <= 1.0

    @given(
        st.floats(min_value=-2, max_value=3, allow_nan=False),
        st.floats(min_value=-2, max_value=3, allow_nan=False),
    )
    def test_nondecreasing_in_raw(self, x, y):
        lo, hi = sorted((x, y))
        assert normalize_load(lo, BAND) <= normalize_load(hi, BAND)

    @given(
        st.floats(min_value=0, max_value=1, allow_nan=False),
        st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    )
    def test_step_jump_strictly_after_threshold(self, level, raw):
        point = Thresholds(level, level)
        expected = 0.0 if raw <= level else 1.0
        assert normalize_load(raw, point) == expected


class TestBinaryNormalize:
    def test_low_level_maps_to_zero(self):
        assert binary_normalize(0.0, 0.0, 0.3) == 0.0
        assert binary_normalize(0.05, 0.05, 0.1) == 0.0

    def test_high_level_maps_to_one_without_slack(self):
        assert binary_normalize(1.0, 0.0, 0.0) == 1.0

    def test_high_level_with_slack(self):
        # hand evaluation: 1 - 0.1/0.95
        got = binary_normalize(0.9, 0.05, 0.1)
        assert got == pytest.approx(0.8947368421052632, rel=1e-15)

    def test_rejects_inadmissible_raw(self):
        with pytest.raises(ValueError):
            binary_normalize(0.5, 0.05, 0.1)

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ValueError):
            binary_normalize(0.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            binary_normalize(0.5, 0.1, -0.01)

    def test_agrees_exactly_with_normalize_load_on_grid(self):
        # dense grid over both eps parameters, both admissible levels
        eps_grid = np.linspace(0.0, 0.5, 100, endpoint=False)
        for eps0 in eps_grid:
            band = Thresholds(eps0, 1.0)
            for eps1 in eps_grid:
                for raw in (eps0, 1.0 - eps1):
                    assert binary_normalize(raw, eps0, eps1) == normalize_load(raw, band)


class TestArmState:
    def test_optimistic_initialization(self):
        state = ArmState()
        assert state.pulls == 0
        assert state.mean_reward == 1.0

    def test_first_pull_replaces_optimistic_mean(self):
        state = ArmState()
        state.update(0.3)
        assert state.pulls == 1
        assert state.mean_reward == 0.3

    def test_update_arithmetic(self):
        state = ArmState()
        for x in (0.5, 1.0, 0.0, 0.25):
            state.update(x)
        assert state.pulls == 4
        assert state.sum_reward == pytest.approx(1.75)
        assert state.mean_reward == pytest.approx(1.75 / 4)

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30))
    def test_mean_stays_in_unit_interval_and_pulls_grow(self, rewards):
        state = ArmState()
        prev_pulls = 0
        for x in rewards:
            old_mean = state.mean_reward
            state.update(x)
            assert state.pulls == prev_pulls + 1
            prev_pulls = state.pulls
            assert 0.0 <= state.mean_reward <= 1.0
            assert min(old_mean, x) - 1e-12 <= state.mean_reward <= max(old_mean, x) + 1e-12

    def test_rejects_negative_seeding(self):
        with pytest.raises(ValueError):
            ArmState(pulls=-1)


class TestBanditInstance:
    def test_basic_derivations(self, five_arm_bandit):
        b = five_arm_bandit
        assert b.best_arm == 4
        assert b.best_mean == 0.25
        assert b.gaps == pytest.approx((0.2, 0.15, 0.1, 0.05, 0.0), abs=1e-15)
        assert b.min_gap == pytest.approx(0.05, rel=1e-15)
        assert b.suboptimal_gaps() == pytest.approx((0.2, 0.15, 0.1, 0.05), abs=1e-15)

    def test_gap_of_best_arm_is_zero(self, two_arm_bandit):
        assert two_arm_bandit.gaps[two_arm_bandit.best_arm] == 0.0

    def test_requires_two_arms(self):
        with pytest.raises(ValueError):
            BanditInstance((0.5,))

    def test_rejects_out_of_range_mean(self):
        with pytest.raises(ValueError):
            BanditInstance((0.5, 1.2))

    def test_tie_breaks_to_lowest_index(self):
        assert BanditInstance((0.7, 0.7, 0.1)).best_arm == 0

    def test_arm_tied_with_the_best_is_not_suboptimal(self):
        bandit = BanditInstance((0.7, 0.7, 0.1))
        assert bandit.suboptimal_gaps() == pytest.approx((0.6,), rel=1e-15)
        assert bandit.min_gap == bandit.suboptimal_gaps()[0]
        assert BanditInstance((0.4, 0.4)).suboptimal_gaps() == ()


class TestRngStream:
    def test_replay_is_bit_identical(self):
        a = RngStream(12345, 7).random(1000)
        b = RngStream(12345, 7).random(1000)
        np.testing.assert_array_equal(a, b)

    def test_scalar_and_bulk_draws_agree(self):
        bulk = RngStream(99, 3).random(50)
        scalar_stream = RngStream(99, 3)
        scalars = np.array([scalar_stream.random() for _ in range(50)])
        np.testing.assert_array_equal(bulk, scalars)

    def test_distinct_stream_ids_decorrelate(self):
        a = RngStream(12345, 0).random(100)
        b = RngStream(12345, 1).random(100)
        assert not np.array_equal(a, b)

    def test_same_key_rewinds(self):
        s = RngStream(5, 5)
        first = s.random(10)
        np.testing.assert_array_equal(first, RngStream(s.seed, s.stream_id).random(10))

    def test_beta_is_inverse_cdf_of_uniforms(self):
        from scipy.special import betaincinv

        us = RngStream(77, 0).random(200)
        draws = RngStream(77, 0).beta(2.0, 2.0, size=200)
        np.testing.assert_array_equal(draws, betaincinv(2.0, 2.0, us))

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)

    def test_derive_stream_id_is_stable_and_distinct(self):
        a = derive_stream_id("adaucb", 0, "load")
        assert a == derive_stream_id("adaucb", 0, "load")
        assert a != derive_stream_id("adaucb", 0, "reward")
        assert a != derive_stream_id("adaucb", 1, "load")
        assert a != derive_stream_id("ucb", 0, "load")
        assert 0 <= a < 2**64


#: each former site of the eps check, given one eps (as eps0, else eps1)
EPS_CALLS = {
    "square-wave eps0": lambda eps: environments.PeriodicSquareWaveLoad(eps, 0.0),
    "square-wave eps1": lambda eps: environments.PeriodicSquareWaveLoad(0.0, eps),
    "binary eps0": lambda eps: environments.BinaryRandomLoad(eps, 0.0),
    "binary eps1": lambda eps: environments.BinaryRandomLoad(0.0, eps),
    "binary_normalize eps0": lambda eps: binary_normalize(0.9, eps, 0.1),
    "binary_normalize eps1": lambda eps: binary_normalize(0.05, 0.05, eps),
    "deterministic_regret_log_term": lambda eps: bounds.deterministic_regret_log_term(10, 2.0, 0.1, eps),
    "binary_regret_coeff": lambda eps: bounds.binary_regret_coeff(20.0, eps, [0.1]),
}


@pytest.mark.parametrize("eps", [-0.01, 0.5, math.nan], ids=["negative", "half", "nan"])
@pytest.mark.parametrize("name", sorted(EPS_CALLS))
def test_eps_must_be_in_zero_half(name, eps):
    which = "eps1" if name.endswith("eps1") else "eps0"
    with pytest.raises(ValueError, match=rf"^{which} must be in \[0, 0\.5\), got {eps}$"):
        EPS_CALLS[name](eps)


#: each former site of the quantile-probability check, given p
PROB_CALLS = {
    "nearest_rank_quantile": lambda p: nearest_rank_quantile([0.1, 0.2, 0.3], p),
    "BinaryRandomLoad.quantile": lambda p: environments.BinaryRandomLoad(0.05, 0.05).quantile(p),
    "BetaLoad.quantile": lambda p: environments.BetaLoad(2.0, 2.0).quantile(p),
    "UniformLoad.quantile": lambda p: environments.UniformLoad().quantile(p),
    "SemiPeriodicLoad.quantile": lambda p: environments.SemiPeriodicLoad().quantile(p),
    "TraceLoad.quantile": lambda p: environments.TraceLoad(
        environments.TraceData(np.array([0.1, 0.5, 1.0]), None, 1.0)
    ).quantile(p),
    "LoadQuantileSketch.quantile": lambda p: _sketch_of([0.1, 0.5]).quantile(p),
    "EAdaUcbPolicy lower_quantile": lambda p: EAdaUcbPolicy(2, 1.0, lower_quantile=p),
    "EAdaUcbPolicy upper_quantile": lambda p: EAdaUcbPolicy(2, 1.0, 1e-9, upper_quantile=p),
}


def _sketch_of(values):
    sketch = LoadQuantileSketch()
    for v in values:
        sketch.insert(v)
    return sketch


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, math.nan], ids=["zero", "one", "negative", "nan"])
@pytest.mark.parametrize("name", sorted(PROB_CALLS))
def test_quantile_probability_must_be_in_zero_one(name, p):
    with pytest.raises(ValueError, match=rf"^quantile probability must be in \(0, 1\), got {p}$"):
        PROB_CALLS[name](p)


#: each former site of the arm-means check, given the means, and the
#: message's name for what holds them
MEANS_CALLS = {
    "BanditInstance": (BanditInstance, "a bandit instance"),
    "DiracReward": (environments.DiracReward, "reward model"),
    "BernoulliReward": (environments.BernoulliReward, "reward model"),
    "TraceReward": (
        lambda means: environments.TraceReward(
            environments.TraceData(np.ones(len(means)), np.array([means]), 1.0)
        ),
        "reward model",
    ),
}


@pytest.mark.parametrize("name", sorted(MEANS_CALLS))
def test_one_arm_is_not_enough(name):
    make, owner = MEANS_CALLS[name]
    with pytest.raises(ValueError, match=f"^{owner} needs at least 2 arms$"):
        make((0.5,))


@pytest.mark.parametrize("mean", [-0.1, 1.5, math.nan, math.inf], ids=["negative", "above-one", "nan", "inf"])
@pytest.mark.parametrize("name", sorted(MEANS_CALLS))
def test_arm_means_must_be_in_unit_interval(name, mean):
    make, _ = MEANS_CALLS[name]
    with pytest.raises(ValueError, match=rf"^mean of arm 1 must be in \[0, 1\], got {mean}$"):
        make((0.5, mean))


@pytest.mark.parametrize("p, n, k", [(0.001, 10, 1), (0.1, 10, 1), (0.5, 10, 5), (0.51, 10, 6), (0.999, 10, 10)])
def test_nearest_rank_is_ceil_with_floor_one(p, n, k):
    assert nearest_rank(p, n) == k
    assert nearest_rank_quantile(range(1, n + 1), p) == k


def test_rounding_margin_is_one_formula_in_place_or_not():
    x = RngStream(3, 0).random(64)
    np.testing.assert_array_equal(margin_up(x), x * (1.0 + 1e-6) + 1e-9)
    np.testing.assert_array_equal(margin_down(x), x * (1.0 - 1e-6) - 1e-9)
    assert margin_up(0.25) == 0.25 * (1.0 + 1e-6) + 1e-9
    column = np.zeros((3, 4))[:, 1]  # a strided view, as the Thompson screen's columns
    column[:] = x[:3]
    assert margin_down(column, out=column) is column
    np.testing.assert_array_equal(column, margin_down(x[:3]))


@pytest.mark.parametrize(
    "module", ["opbandit", "core", "environments", "policies", "simulator", "config", "bounds", "report", "cli"]
)
def test_every_exported_name_exists(module):
    import importlib

    mod = importlib.import_module(module if module == "opbandit" else f"opbandit.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
