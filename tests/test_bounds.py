"""Closed-form envelope calculators: golden values, quadrature convergence,
and scaling identities."""

import inspect
import math

import numpy as np
import pytest
from scipy.integrate import quad

from opbandit import bounds
from opbandit.bounds import (
    binary_regret_coeff,
    conditional_load_mean,
    continuous_regret_coeff,
    deterministic_pull_lower,
    deterministic_pull_lower_curve,
    deterministic_pull_upper,
    deterministic_regret_log_term,
    evaluate_bounds,
    pull_count_log_bound,
    pull_rate_floor,
)
from opbandit.core import BanditInstance, RngStream, derive_stream_id
from opbandit.environments import (
    BetaLoad,
    BinaryRandomLoad,
    DiracReward,
    PeriodicSquareWaveLoad,
    UniformLoad,
)
from opbandit.simulator import default_checkpoints


class TestDeterministicPullUpper:
    def test_at_t_one(self):
        assert deterministic_pull_upper(1, 2.0, 0.5) == 1.0

    def test_golden_value_at_e(self):
        # 2 * ln(e) / 0.25 + 1 = 9
        assert deterministic_pull_upper(math.e, 2.0, 0.5) == 9.0

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            deterministic_pull_upper(10, 2.0, 0.0)


class TestPullRateFloor:
    def test_positive_and_increasing_past_two(self):
        s = np.linspace(2, 1000, 500)
        h = pull_rate_floor(s, 2.0, 0.2)
        assert np.all(h > 0)
        assert np.all(np.diff(h) > 0)

    def test_below_plain_log_envelope(self):
        s = np.linspace(2, 1000, 100)
        h = pull_rate_floor(s, 2.0, 0.2)
        assert np.all(h <= 2.0 * np.log(s) / 0.04)


class TestDeterministicPullLower:
    def test_value_at_two_is_minus_floor(self):
        f2 = deterministic_pull_lower(2.0, 2.0, 0.2)
        assert f2 == -pull_rate_floor(2.0, 2.0, 0.2)
        assert f2 < 0

    def test_nondecreasing(self):
        grid, values = deterministic_pull_lower_curve(500.0, 2.0, 0.2)
        assert np.all(np.diff(values) >= -1e-12)

    def test_below_the_upper_envelope(self):
        for tau in (10, 100, 5000):
            f = deterministic_pull_lower(tau, 2.0, 0.2)
            assert f <= deterministic_pull_upper(2 * tau, 2.0, 0.2)

    def test_quadrature_halving_converges(self):
        coarse = deterministic_pull_lower(10_000, 2.0, 0.2, quadrature_step=0.25)
        fine = deterministic_pull_lower(10_000, 2.0, 0.2, quadrature_step=0.125)
        assert abs(fine - coarse) / abs(fine) < 1e-3

    def test_scalar_agrees_with_curve(self):
        grid, values = deterministic_pull_lower_curve(200.0, 2.0, 0.2)
        idx = int(round((150.0 - 2.0) / (grid[1] - grid[0])))
        scalar = deterministic_pull_lower(150.0, 2.0, 0.2)
        assert scalar == pytest.approx(values[idx], rel=1e-6)

    def test_rejects_tau_below_two(self):
        with pytest.raises(ValueError):
            deterministic_pull_lower(1.5, 2.0, 0.2)


class TestDeterministicRegretTerm:
    def test_wrapper_identity_is_exact(self):
        for t in (2, 100, 10**5):
            term = deterministic_regret_log_term(t, 2.0, 0.2, 0.05)
            assert term == 0.05 * 0.2 * (deterministic_pull_upper(t, 2.0, 0.2) - 1.0)

    def test_matches_hand_formula(self):
        term = deterministic_regret_log_term(10**5, 2.0, 0.2, 0.05)
        assert term == pytest.approx(0.05 * 2.0 * math.log(10**5) / 0.2, rel=1e-12)


class TestBinaryRegretCoeff:
    def test_zero_low_level_means_bounded_regret(self):
        with pytest.warns(RuntimeWarning):
            assert binary_regret_coeff(0.51, 0.0, (0.2, 0.15, 0.1, 0.05)) == 0.0

    def test_golden_value(self):
        # 4 * 0.05 * 17 * (1/0.2 + 1/0.15 + 1/0.1 + 1/0.05)
        got = binary_regret_coeff(17.0, 0.05, (0.2, 0.15, 0.1, 0.05))
        assert got == pytest.approx(141.66666666666669, rel=1e-12)

    def test_warns_outside_alpha_hypothesis(self):
        with pytest.warns(RuntimeWarning, match="alpha"):
            binary_regret_coeff(0.51, 0.05, (0.2,))

    def test_warns_outside_eps_hypothesis(self):
        with pytest.warns(RuntimeWarning, match="eps1"):
            binary_regret_coeff(17.0, 0.05, (0.2,), eps1=0.3)

    def test_quiet_inside_hypotheses(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            binary_regret_coeff(17.0, 0.05, (0.2,), eps1=0.01)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            binary_regret_coeff(17.0, 0.05, (0.2, 0.0))


class TestContinuousRegretCoeff:
    def test_uniform_conditional_mean_is_exactly_half_threshold(self):
        for l_minus in (0.1, 0.25, 0.5, 1.0):
            assert conditional_load_mean(UniformLoad(), l_minus) == l_minus / 2.0

    def test_uniform_coefficient(self):
        got = continuous_regret_coeff(2.0, conditional_load_mean(UniformLoad(), 0.5), (0.2, 0.1))
        assert got == pytest.approx(4.0 * 2.0 * 0.25 * (5.0 + 10.0), rel=1e-12)

    def test_beta_conditional_mean_against_quadrature(self):
        # independent oracle: E[L | L <= 0.5] for Beta(2,2) by quadrature of
        # x * 6x(1-x); equals 0.3125
        num = quad(lambda x: x * 6 * x * (1 - x), 0, 0.5)[0]
        den = quad(lambda x: 6 * x * (1 - x), 0, 0.5)[0]
        oracle = num / den
        assert oracle == pytest.approx(0.3125, abs=1e-12)
        mc = conditional_load_mean(BetaLoad(2, 2), 0.5)
        assert mc == pytest.approx(oracle, abs=0.002)

    @pytest.mark.parametrize("a, b", [(2, 2), (8, 2), (0.5, 0.7), (0.3, 5), (20, 0.4), (1, 1)])
    def test_pruned_monte_carlo_equals_full_evaluation(self, a, b):
        # the inverse CDF runs only below a cut; the result must be the mean
        # of every sampled load at or below the threshold, to the last bit
        n = 100_000
        model = BetaLoad(a, b)
        draws = model.sample_loads(n, RngStream(0x0B0D_AC53, derive_stream_id("conditional-load-mean")))
        # sampled loads as thresholds put loads exactly on the threshold
        thresholds = [1e-4, 0.05, 0.5, 0.95, 1.0, *np.sort(draws)[[0, 7, n // 20, n // 2, -2]]]
        for threshold in thresholds:
            below = draws[draws <= threshold]
            if below.size == 0:
                with pytest.raises(ValueError, match="no probability mass"):
                    conditional_load_mean(model, threshold, mc_samples=n)
            else:
                assert conditional_load_mean(model, threshold, mc_samples=n) == float(below.mean())

    def test_monte_carlo_is_deterministic(self):
        a = conditional_load_mean(BetaLoad(2, 2), 0.3)
        b = conditional_load_mean(BetaLoad(2, 2), 0.3)
        assert a == b

    def test_rejects_zero_mass_threshold(self):
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\] for uniform load"):
            conditional_load_mean(UniformLoad(), 0.0)
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\] for beta load"):
            conditional_load_mean(BetaLoad(2, 2), 0.0)

    def test_rejects_unsupported_model(self):
        with pytest.raises(TypeError):
            conditional_load_mean(PeriodicSquareWaveLoad(0.05, 0.05), 0.5)


class TestPullCountLogBound:
    def test_log_ratio(self):
        assert pull_count_log_bound(4, 1.0, 0.2) / pull_count_log_bound(
            2, 1.0, 0.2
        ) == pytest.approx(math.log(4) / math.log(2), rel=1e-12)

    def test_golden_value(self):
        got = pull_count_log_bound(10**5, 0.51, 0.2)
        assert got == pytest.approx(587.1591987134817, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pull_count_log_bound(1, 0.51, 0.2)
        with pytest.raises(ValueError):
            pull_count_log_bound(10, 0.51, -0.2)


class TestAlphaLinearity:
    def test_all_coefficients_scale_linearly_in_alpha(self):
        gaps = (0.2, 0.1)
        a = 17.0
        assert binary_regret_coeff(2 * a, 0.05, gaps) == pytest.approx(
            2 * binary_regret_coeff(a, 0.05, gaps), rel=1e-12
        )
        assert continuous_regret_coeff(2 * a, 0.25, gaps) == pytest.approx(
            2 * continuous_regret_coeff(a, 0.25, gaps), rel=1e-12
        )
        assert pull_count_log_bound(100, 2 * a, 0.2) == pytest.approx(
            2 * pull_count_log_bound(100, a, 0.2), rel=1e-12
        )
        up = deterministic_pull_upper(100, a, 0.2) - 1.0
        assert deterministic_pull_upper(100, 2 * a, 0.2) - 1.0 == pytest.approx(
            2 * up, rel=1e-12
        )


#: one call of each public function that takes alpha, given alpha
ALPHA_CALLS = {
    "pull_rate_floor": lambda alpha: pull_rate_floor(2.0, alpha, 0.1),
    "deterministic_pull_upper": lambda alpha: deterministic_pull_upper(10, alpha, 0.1),
    "deterministic_pull_lower_curve": lambda alpha: deterministic_pull_lower_curve(4.0, alpha, 0.1),
    "deterministic_pull_lower": lambda alpha: deterministic_pull_lower(4.0, alpha, 0.1),
    "deterministic_regret_log_term": lambda alpha: deterministic_regret_log_term(10, alpha, 0.1, 0.2),
    "binary_regret_coeff": lambda alpha: binary_regret_coeff(alpha, 0.05, [0.1]),
    "continuous_regret_coeff": lambda alpha: continuous_regret_coeff(alpha, 0.3, [0.1]),
    "pull_count_log_bound": lambda alpha: pull_count_log_bound(10, alpha, 0.1),
    "evaluate_bounds": lambda alpha: evaluate_bounds(
        BanditInstance([0.5, 0.4]), UniformLoad(), DiracReward([0.5, 0.4]), alpha, [1, 10]
    ),
}


def test_alpha_calls_cover_every_public_function_taking_alpha():
    functions = {name: getattr(bounds, name) for name in bounds.__all__}
    functions = {name: fn for name, fn in functions.items() if inspect.isfunction(fn)}
    taking = {name for name, fn in functions.items() if "alpha" in inspect.signature(fn).parameters}
    assert taking == set(ALPHA_CALLS)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"])
@pytest.mark.parametrize("name", sorted(ALPHA_CALLS))
def test_alpha_must_be_finite_and_positive(name, alpha):
    with pytest.raises(ValueError, match="alpha must be finite and > 0"):
        ALPHA_CALLS[name](alpha)


class TestEvaluateBounds:
    def test_deterministic_scenario_columns(self):
        report = evaluate_bounds(
            BanditInstance((0.6, 0.4)),
            PeriodicSquareWaveLoad(0.05, 0.05),
            DiracReward((0.6, 0.4)),
            2.0,
            [1, 2, 10, 100],
        )
        assert {"pull_upper", "pull_lower", "regret_log_term", "pull_log_bound_arm_2"} <= set(
            report.columns
        )
        # lower envelope undefined before step 4, defined afterwards
        assert np.isnan(report.columns["pull_lower"][0])
        assert np.isfinite(report.columns["pull_lower"][3])
        assert np.all(np.isfinite(report.columns["pull_upper"]))

    def test_pull_lower_read_at_each_tau(self):
        # the column at step t is f(t // 2), read off the curve's grid at
        # the default step 1/4, of which every integer tau is a point
        pts = default_checkpoints(2000)
        report = evaluate_bounds(
            BanditInstance((0.6, 0.4)),
            PeriodicSquareWaveLoad(0.05, 0.05),
            DiracReward((0.6, 0.4)),
            2.0,
            pts,
        )
        assert report.params["quadrature_step"] == 0.25
        lower = report.columns["pull_lower"]
        for t, got in zip(pts, lower):
            if t // 2 < 2:
                assert np.isnan(got)
            else:
                assert got == pytest.approx(deterministic_pull_lower(t // 2, 2.0, 0.2), abs=1e-12), t

    def test_zero_eps0_binary_scenario_has_all_zero_regret_term(self):
        with pytest.warns(RuntimeWarning):
            report = evaluate_bounds(
                BanditInstance((0.05, 0.1, 0.15, 0.2, 0.25)),
                BinaryRandomLoad(0.0, 0.0, 0.5),
                None,
                0.51,
                [1, 10, 1000],
            )
        np.testing.assert_array_equal(report.columns["regret_log_term"], 0.0)

    def test_continuous_single_threshold_scenario(self):
        report = evaluate_bounds(
            BanditInstance((0.6, 0.4)),
            BetaLoad(2, 2),
            None,
            2.0,
            [10, 100],
            single_threshold=0.5,
        )
        assert "regret_log_term" in report.columns
        assert report.params["conditional_load_mean"] == pytest.approx(0.3125, abs=0.002)
        assert report.params["l_minus"] == 0.5
