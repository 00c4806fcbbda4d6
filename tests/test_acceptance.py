"""Acceptance gate: every shipped guarantee, checked end to end at its
stated tolerance.  Each criterion prints one PASS/FAIL line (run with -s to
see them live).

The heavy scenario runs are module-scoped fixtures so each simulation
happens once regardless of test ordering.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import betaincinv

from opbandit.bounds import (
    deterministic_pull_lower,
    deterministic_pull_lower_curve,
    deterministic_pull_upper,
    pull_count_log_bound,
    pull_rate_floor,
)
from opbandit.core import ArmState, BanditInstance, RngStream, Thresholds, binary_normalize, normalize_load
from opbandit.environments import (
    BernoulliReward,
    BetaLoad,
    BinaryRandomLoad,
    DiracReward,
    PeriodicSquareWaveLoad,
)
from opbandit.policies import (
    AdaUcbPolicy,
    EAdaUcbPolicy,
    LinUcbDisjointPolicy,
    ThompsonPolicy,
    UcbPolicy,
)
from opbandit.simulator import replication_streams, run_experiment, run_once

SEED = 20180131
MEANS5 = (0.05, 0.1, 0.15, 0.2, 0.25)
BANDIT5 = BanditInstance(MEANS5)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Scenario fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dirac_run():
    """Deterministic scenario: Dirac (0.6, 0.4), square wave eps0=eps1=0.05,
    alpha=2, T=1e5, a checkpoint at every step."""
    bandit = BanditInstance((0.6, 0.4))
    policy = AdaUcbPolicy(2, alpha=2.0, thresholds=Thresholds(0.05, 1.0))
    streams = replication_streams(SEED, "adaucb", 0)
    start = time.perf_counter()
    trace = run_once(
        bandit,
        PeriodicSquareWaveLoad(0.05, 0.05),
        DiracReward((0.6, 0.4)),
        policy,
        100_000,
        np.arange(1, 100_001),
        streams["load"],
        streams["reward"],
        streams["policy"],
    )
    elapsed = time.perf_counter() - start
    return trace, elapsed


def _experiment(load_model, policies, horizon, checkpoints, replications=50):
    start = time.perf_counter()
    results = run_experiment(
        BANDIT5,
        load_model,
        BernoulliReward(MEANS5),
        policies,
        horizon,
        replications=replications,
        base_seed=SEED,
        checkpoints=checkpoints,
    )
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def binary_half_rho_run():
    """Free low-load slots (eps0=eps1=0, rho=0.5), alpha=0.51, T=2e5, R=50."""
    return _experiment(
        BinaryRandomLoad(0.0, 0.0, rho=0.5),
        {
            "adaucb": AdaUcbPolicy(5, 0.51, Thresholds(0.0, 1.0)),
            "ucb": UcbPolicy(5, 0.51),
        },
        200_000,
        [20_000, 200_000],
    )


BETA_LO = float(betaincinv(2, 2, 0.05))
BETA_HI = float(betaincinv(2, 2, 0.95))


@pytest.fixture(scope="module")
def beta_run():
    """Beta(2,2) load with 5%/95% quantile thresholds, alpha=0.51, T=1e5."""
    return _experiment(
        BetaLoad(2, 2),
        {
            "adaucb": AdaUcbPolicy(5, 0.51, Thresholds(BETA_LO, BETA_HI)),
            "eadaucb": EAdaUcbPolicy(5, 0.51, 0.05, 0.95),
            "ucb": UcbPolicy(5, 0.51),
        },
        100_000,
        [10_000, 100_000],
    )


@pytest.fixture(scope="module")
def small_rho_binary_run():
    return _experiment(
        BinaryRandomLoad(0.0, 0.0, rho=0.05),
        {
            "adaucb": AdaUcbPolicy(5, 0.51, Thresholds(0.0, 1.0)),
            "ucb": UcbPolicy(5, 0.51),
        },
        100_000,
        [100_000],
    )


@pytest.fixture(scope="module")
def small_rho_beta_run(beta_run):
    """adaucb with a 0.5% lower quantile; its ucb is :func:`beta_run`'s,
    which runs on the same load, seed, label, horizon and replications."""
    lo = float(betaincinv(2, 2, 0.005))
    hi = float(betaincinv(2, 2, 0.99))
    results, elapsed = _experiment(
        BetaLoad(2, 2),
        {"adaucb": AdaUcbPolicy(5, 0.51, Thresholds(lo, hi))},
        100_000,
        [100_000],
    )
    return results | {"ucb": beta_run[0]["ucb"]}, elapsed


@pytest.fixture(scope="module")
def alpha2_binary_run():
    return _experiment(
        BinaryRandomLoad(0.0, 0.0, rho=0.5),
        {"adaucb": AdaUcbPolicy(5, 2.0, Thresholds(0.0, 1.0))},
        100_000,
        [10_000, 100_000],
    )


@pytest.fixture(scope="module")
def alpha2_beta_run():
    return _experiment(
        BetaLoad(2, 2),
        {"adaucb": AdaUcbPolicy(5, 2.0, Thresholds(BETA_LO, BETA_HI))},
        100_000,
        [10_000, 100_000],
    )


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


class TestCriterion1DeterministicPullEnvelopes:
    def test_hard_envelopes_hold_at_every_step(self, dirac_run):
        trace, elapsed = dirac_run
        alpha, gap = 2.0, 0.2
        c2 = trace.pulls[:, 1].astype(float)
        t = np.arange(1, len(c2) + 1, dtype=float)

        upper = alpha * np.log(t) / gap**2 + 1.0
        upper_violations = int(np.sum(c2 > upper))

        tau_max = len(c2) // 2
        grid, curve = deterministic_pull_lower_curve(float(tau_max), alpha, gap, 0.25)
        taus = np.arange(2, tau_max + 1)
        f_at_tau = curve[np.round((taus - 2.0) / 0.25).astype(int)]
        c2_even = c2[2 * taus - 1]  # C_2 at step 2*tau
        lower_violations = int(np.sum(c2_even < f_at_tau))

        ok = upper_violations == 0 and lower_violations == 0 and elapsed < 10.0
        report(
            1,
            "deterministic pull envelopes",
            ok,
            f"upper violations={upper_violations}, lower violations={lower_violations}, "
            f"runtime={elapsed:.2f}s (< 10s)",
        )


class TestCriterion2DeterministicRegretGrowth:
    ALPHA, GAP, EPS0 = 2.0, 0.2, 0.05

    def test_log_envelope_with_fitted_constant(self, dirac_run):
        trace, elapsed = dirac_run
        regret = trace.regret
        t = np.arange(1, len(regret) + 1, dtype=float)
        term = self.EPS0 * self.ALPHA * np.log(t) / self.GAP
        # fit the additive constant on the early window, then check at T
        fitted_c = float(np.max(regret[1:10_000] - term[1:10_000]))
        ok = regret[-1] <= term[-1] + fitted_c + 1e-9 and elapsed < 10.0
        report(
            2,
            "deterministic regret envelope with fitted constant",
            ok,
            f"R(T)={regret[-1]:.3f} <= {term[-1] + fitted_c:.3f} (C={fitted_c:.3f}), "
            f"runtime={elapsed:.2f}s (< 10s)",
        )

    def test_window_slope(self, dirac_run):
        # Stated limit: regression slope of R(t) on ln(t) over [1e4, 1e5]
        # at most 1.2 * eps0 * alpha / gap = 0.6.  For these parameters the
        # exact deterministic dynamics cannot meet it in that window: every
        # suboptimal pull in the window is a cheap one (verified below), so
        # R(t) = eps0 * gap * C_2(t), and C_2 follows the index-comparison
        # fixed point alpha*ln(t)/(gap + sqrt(alpha*ln(t)/(t - C_2)))^2.
        # That curve is still converging toward its asymptote from below,
        # with local elasticity about 1.6 * alpha/gap^2 per ln-unit over
        # this window, which puts the regret slope near 0.8 regardless of
        # implementation.  The check is kept faithful to its stated
        # tolerance rather than loosened to match the dynamics.
        trace, _ = dirac_run
        regret = trace.regret
        t = np.arange(1, len(regret) + 1, dtype=float)

        pulls2_step = np.diff(np.concatenate([[0], trace.pulls[:, 1]]))
        odd_window = (t >= 10_000) & (t.astype(int) % 2 == 1)
        assert int(pulls2_step[odd_window].sum()) == 0  # only cheap pulls

        window = slice(10_000 - 1, 100_000)
        slope = float(np.polyfit(np.log(t[window]), regret[window], 1)[0])
        slope_limit = 1.2 * self.EPS0 * self.ALPHA / self.GAP
        fixed_point_slope = self._fixed_point_slope()
        report(
            2,
            "deterministic regret window slope",
            slope <= slope_limit,
            f"measured slope={slope:.4f} vs limit {slope_limit:.3f}; "
            f"exact fixed-point dynamics predict {fixed_point_slope:.4f} over this window, "
            f"so the limit is unreachable here (asymptotic coefficient "
            f"{self.EPS0 * self.ALPHA / self.GAP:.2f} is approached only for much larger t)",
        )

    def _fixed_point_slope(self) -> float:
        # slope implied by C_2(t) = alpha*ln(t)/(gap + sqrt(alpha*ln(t)/(t-C_2)))^2
        def c2(t: float) -> float:
            c = 0.0
            for _ in range(50):
                c = self.ALPHA * math.log(t) / (
                    self.GAP + math.sqrt(self.ALPHA * math.log(t) / (t - c))
                ) ** 2
            return c

        cheap_cost = self.EPS0 * self.GAP
        return cheap_cost * (c2(1e5) - c2(1e4)) / (math.log(1e5) - math.log(1e4))


class TestCriterion3BoundedRegretRegime:
    def test_flattening_and_advantage(self, binary_half_rho_run):
        results, elapsed = binary_half_rho_run
        ada = results["adaucb"].mean_regret
        ucb = results["ucb"].mean_regret
        increment = ada[1] - ada[0]
        flattening_ok = increment <= 0.15 * ada[0]
        advantage_ok = ada[1] <= 0.5 * ucb[1]
        ok = flattening_ok and advantage_ok and elapsed < 300.0
        report(
            3,
            "bounded-regret regime",
            ok,
            f"increment {increment:.3f} <= 15% of {ada[0]:.3f}; "
            f"adaucb {ada[1]:.2f} <= 0.5 * ucb {ucb[1]:.2f}; runtime={elapsed:.1f}s (< 300s)",
        )


class TestCriterion4ContinuousLoadAdvantage:
    def test_beta_load_comparison(self, beta_run):
        results, elapsed = beta_run
        ada = results["adaucb"].mean_regret[-1]
        eada = results["eadaucb"].mean_regret[-1]
        ucb = results["ucb"].mean_regret[-1]
        advantage_ok = ada <= 0.6 * ucb
        tracking_ok = abs(eada - ada) <= 0.25 * ada
        ok = advantage_ok and tracking_ok and elapsed < 300.0
        report(
            4,
            "continuous-load advantage",
            ok,
            f"adaucb {ada:.2f} <= 0.6 * ucb {ucb:.2f}; eadaucb {eada:.2f} within 25% of adaucb; "
            f"runtime={elapsed:.1f}s (< 300s)",
        )


class TestCriterion5SmallRhoRobustness:
    def test_binary_small_rho(self, small_rho_binary_run):
        results, _ = small_rho_binary_run
        ada = results["adaucb"].mean_regret[-1]
        ucb = results["ucb"].mean_regret[-1]
        report(
            5,
            "small-rho robustness (binary)",
            ada < ucb,
            f"adaucb {ada:.2f} < ucb {ucb:.2f} at rho=0.05",
        )

    def test_beta_small_rho(self, small_rho_beta_run):
        results, _ = small_rho_beta_run
        ada = results["adaucb"].mean_regret[-1]
        ucb = results["ucb"].mean_regret[-1]
        report(
            5,
            "small-rho robustness (beta)",
            ada < ucb,
            f"adaucb {ada:.2f} < ucb {ucb:.2f} with 0.5% lower quantile",
        )


class TestCriterion6PullCountEnvelope:
    @pytest.mark.parametrize("scenario", ["binary", "beta"])
    def test_mean_pulls_within_log_envelope(self, scenario, alpha2_binary_run, alpha2_beta_run, request):
        results, _ = alpha2_binary_run if scenario == "binary" else alpha2_beta_run
        trace = results["adaucb"]
        worst = -np.inf
        ok = True
        for i, t in enumerate(trace.checkpoints):
            for k, gap in enumerate(BANDIT5.gaps):
                if gap <= 0:
                    continue
                envelope = pull_count_log_bound(int(t), 2.0, gap) + 50.0
                excess = trace.mean_pulls[i, k] - envelope
                worst = max(worst, excess)
                ok = ok and excess <= 0.0
        report(
            6,
            f"pull-count envelope ({scenario})",
            ok,
            f"max excess over 4*alpha*ln(T)/gap^2 + 50: {worst:.1f} (<= 0 required)",
        )


class TestCriterion7PropertySuites:
    def test_argmax_equivalence_over_randomized_histories(self):
        rng = np.random.default_rng(915)
        mismatches = 0
        for _ in range(10_000):
            n = int(rng.integers(2, 6))
            t = int(rng.integers(n + 1, 100_000))
            ada = AdaUcbPolicy(n, alpha=0.51, thresholds=Thresholds(0.2, 0.8))
            ucb = UcbPolicy(n, alpha=0.51)
            for k in range(n):
                pulls = int(rng.integers(1, 500))
                total = float(rng.random() * pulls)
                ada.arm_states[k] = ArmState(pulls, total)
                ucb.arm_states[k] = ArmState(pulls, total)
            if ada.select(t, 0.0) != ucb.select(t, 0.7):
                mismatches += 1
        report(
            7,
            "argmax equivalence at zero load",
            mismatches == 0,
            f"{mismatches} mismatches over 10000 histories",
        )

    def test_normalization_identities_on_grid(self):
        eps_grid = np.linspace(0.0, 0.5, 100, endpoint=False)
        disagreements = 0
        for eps0 in eps_grid:
            band = Thresholds(float(eps0), 1.0)
            for eps1 in eps_grid:
                for raw in (float(eps0), float(1.0 - eps1)):
                    if binary_normalize(raw, float(eps0), float(eps1)) != normalize_load(raw, band):
                        disagreements += 1
        report(
            7,
            "normalization agreement on 100x100 grid",
            disagreements == 0,
            f"{disagreements} disagreements",
        )

    def test_posterior_bookkeeping(self):
        policy = ThompsonPolicy(4)
        rng = RngStream(SEED, 1)
        pulls = np.zeros(4, dtype=int)
        for t in range(1, 3001):
            arm = policy.select(t, 0.5, rng)
            pulls[arm] += 1
            policy.update(arm, float(rng.random()), rng)
        ok = bool(np.all(policy.a + policy.b - 2 == pulls))
        report(7, "posterior bookkeeping", ok, f"pulls={pulls.tolist()}")

    def test_ridge_matrices_stay_positive_definite(self):
        policy = LinUcbDisjointPolicy(3, alpha=0.51)
        rng = np.random.default_rng(916)
        for _ in range(10_000):
            policy._observe_load(float(rng.random()))
            policy.update(int(rng.integers(3)), float(rng.random()))
        eigs = [float(np.linalg.eigvalsh(a).min()) for a in policy.A]
        sym = all(np.allclose(a, a.T, atol=0) for a in policy.A)
        ok = sym and min(eigs) >= 1.0 - 1e-9
        report(7, "ridge positive definiteness", ok, f"min eigenvalue={min(eigs):.3f}")

    def test_bundled_configs_rerun_bit_identically(self, tmp_path):
        from importlib import resources

        from opbandit.cli import main
        from opbandit.report import sha256_file

        names = []
        for item in (resources.files("opbandit") / "configs").iterdir():
            if item.name.endswith(".yaml"):
                names.append(item.name[: -len(".yaml")])
        mismatched = []
        for name in sorted(names):
            hashes = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}-{attempt}"
                code = main(
                    ["run", name, "-o", str(out), "--horizon", "400", "--replications", "2"]
                )
                assert code == 0, f"bundled config {name} failed to run"
                hashes.append(sha256_file(out / "results.csv"))
            if hashes[0] != hashes[1]:
                mismatched.append(name)
        report(
            7,
            "bundled configs rerun bit-identically",
            not mismatched,
            f"{len(names)} configs checked" + (f"; mismatched: {mismatched}" if mismatched else ""),
        )


class TestCriterion8BoundCalculatorGoldenValues:
    def test_golden_values(self):
        upper_ok = deterministic_pull_upper(math.e, 2.0, 0.5) == 9.0

        from opbandit.bounds import conditional_load_mean
        from opbandit.environments import UniformLoad

        uniform_ok = all(
            conditional_load_mean(UniformLoad(), x) == x / 2.0 for x in (0.1, 0.37, 1.0)
        )

        f2 = deterministic_pull_lower(2.0, 2.0, 0.2)
        f2_ok = f2 == -pull_rate_floor(2.0, 2.0, 0.2)

        coarse = deterministic_pull_lower(10_000, 2.0, 0.2, quadrature_step=0.25)
        fine = deterministic_pull_lower(10_000, 2.0, 0.2, quadrature_step=0.125)
        halving_ok = abs(fine - coarse) / abs(fine) < 1e-3

        ok = upper_ok and uniform_ok and f2_ok and halving_ok
        report(
            8,
            "bound calculator golden values",
            ok,
            f"upper(e)==9: {upper_ok}; uniform cond mean exact: {uniform_ok}; "
            f"f(2)==-h(2): {f2_ok}; halving drift {abs(fine - coarse) / abs(fine):.2e} < 1e-3",
        )


class TestAbstractClaimAdaUcbBeatsThompson:
    """The abstract's empirical claim: under large load fluctuations AdaUCB
    beats Thompson sampling.

    The bundled ``square-wave-bernoulli`` config is the check because its
    load fluctuates the most regularly of all the bundled configs: it
    alternates every step between 0.05 and 0.95, so every other slot is a
    cheap one to explore in.  At T = 1e4 and R = 10 its final mean regret is
    12.2 +- 1.6 for adaucb against 25.8 +- 2.5 for ts (standard errors), and
    ``adaucb <= 0.7 * ts`` holds with about 2.5 standard errors to spare.
    The claim does not hold everywhere at this scale: on ``fig2b-beta``
    (Beta(2, 2) loads) adaucb's 25.7 +- 2.6 against ts's 30.2 +- 2.8 is
    within noise, and on ``binary-small-rho`` (5% free slots) ts wins, 50.0
    +- 5.1 against 67.6 +- 19.6.
    """

    def test_square_wave_bernoulli(self):
        from importlib import resources

        from opbandit.config import build_plan, load_config, parse_config

        bundled = load_config(resources.files("opbandit") / "configs" / "square-wave-bernoulli.yaml")
        cfg = parse_config(bundled.to_dict() | {"horizon": 10_000, "replications": 10})
        plan = build_plan(cfg)
        policies = {label: plan.policies[label] for label in ("adaucb", "ts")}
        results = run_experiment(
            plan.bandit, plan.load_model, plan.reward_model, policies, cfg.horizon, cfg.replications, cfg.base_seed
        )
        adaucb, ts = (results[label].mean_regret[-1] for label in ("adaucb", "ts"))
        assert adaucb <= 0.7 * ts, f"mean regret at T=1e4, R=10: adaucb {adaucb:.1f}, ts {ts:.1f}"
