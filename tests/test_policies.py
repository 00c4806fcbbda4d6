"""Policy behavior: indices, forced initialization, tie-breaking, posterior
bookkeeping, and determinism."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from opbandit.core import ArmState, RngStream, Thresholds, binary_normalize, normalize_load
from opbandit.environments import BetaLoad, SemiPeriodicLoad
from opbandit.policies import (
    AdaUcbPolicy,
    EAdaUcbPolicy,
    LinUcbDisjointPolicy,
    LoadQuantileSketch,
    OraclePolicy,
    POLICY_KINDS,
    Policy,
    RoundRobinGreedyPolicy,
    ThompsonPolicy,
    UcbPolicy,
    adaucb_index,
)

BINARY_BAND = Thresholds(0.05, 1.0)


def make_policies(n_arms=3):
    return {
        "adaucb": AdaUcbPolicy(n_arms, alpha=2.0, thresholds=Thresholds(0.0, 1.0)),
        "eadaucb": EAdaUcbPolicy(n_arms, alpha=2.0),
        "ucb": UcbPolicy(n_arms, alpha=2.0),
        "ts": ThompsonPolicy(n_arms),
        "linucb": LinUcbDisjointPolicy(n_arms, alpha=1.0),
        "rr-greedy": RoundRobinGreedyPolicy(n_arms, Thresholds(0.0, 1.0)),
    }


NAN = float("nan")
NAN_PARAMETERS = {
    "ucb": lambda: UcbPolicy(3, NAN),
    "adaucb": lambda: AdaUcbPolicy(3, NAN, Thresholds(0.0, 1.0)),
    "eadaucb": lambda: EAdaUcbPolicy(3, NAN),
    "linucb": lambda: LinUcbDisjointPolicy(3, NAN),
    "beta-a": lambda: BetaLoad(NAN, 2.0),
    "beta-b": lambda: BetaLoad(2.0, NAN),
    "semiperiodic-noise-a": lambda: SemiPeriodicLoad(noise_a=NAN),
    "semiperiodic-noise-b": lambda: SemiPeriodicLoad(noise_b=NAN),
}


#: one constructor per kind of POLICY_KINDS
BUILD = {
    "ucb": lambda: UcbPolicy(3, 2.0),
    "adaucb": lambda: AdaUcbPolicy(3, 2.0, Thresholds(0.2, 0.8)),
    "eadaucb": lambda: EAdaUcbPolicy(3, 2.0),
    "ts": lambda: ThompsonPolicy(3),
    "linucb": lambda: LinUcbDisjointPolicy(3, 1.0),
    "oracle": lambda: OraclePolicy(3, 1),
    "rr-greedy": lambda: RoundRobinGreedyPolicy(3, Thresholds(0.2, 0.8)),
}


class TestInitialState:
    def test_every_kind_is_built(self):
        assert set(BUILD) == set(POLICY_KINDS)

    @pytest.mark.parametrize("kind", sorted(BUILD))
    def test_construction_leaves_the_state_reset_writes(self, kind):
        policy = BUILD[kind]()
        built = pickle.dumps(policy)
        rng = RngStream(3, 0)
        for t in range(1, 20):
            policy.update(policy.select(t, rng.random(), rng), rng.random(), rng)
        assert kind == "oracle" or pickle.dumps(policy) != built  # the oracle holds no state
        policy.reset()
        assert pickle.dumps(policy) == built

    def test_subclass_without_reset_fails_at_construction(self):
        class NoReset(Policy):
            def _choose(self, t, load, rng=None):
                return 0

            def _update(self, arm, reward, rng=None):
                pass

        with pytest.raises(NotImplementedError):
            NoReset(2)


@pytest.mark.parametrize("case", NAN_PARAMETERS)
def test_nan_parameter_rejected_at_construction(case):
    # NaN is not <= 0, so a check written that way lets it through
    with pytest.raises(ValueError, match="must be"):
        NAN_PARAMETERS[case]()


class TestAdaUcbIndex:
    def test_exploration_vanishes_at_full_load(self):
        state = ArmState(pulls=4, sum_reward=2.4)
        assert adaucb_index(state, 100, 1.0, 1.0) == 0.6

    def test_zero_load_value(self):
        # hand evaluation: 0.6 + sqrt(ln(100) / 4)
        state = ArmState(pulls=4, sum_reward=2.4)
        got = adaucb_index(state, 100, 1.0, 0.0)
        assert got == pytest.approx(1.6729830131446737, rel=1e-15)

    def test_binary_high_level_matches_case_split(self):
        # with levels {eps0, 1-eps1} the high-load index width must equal
        # sqrt(alpha * (eps1/(1-eps0)) * ln(t) / pulls)
        eps0, eps1, alpha, t = 0.05, 0.1, 2.0, 50
        state = ArmState(pulls=7, sum_reward=3.5)
        ltil = binary_normalize(1.0 - eps1, eps0, eps1)
        got = adaucb_index(state, t, alpha, ltil)
        want = 0.5 + math.sqrt(alpha * (eps1 / (1 - eps0)) * math.log(t) / 7)
        assert got == pytest.approx(want, rel=1e-12)

    def test_equals_plain_ucb_index_at_zero_load(self):
        state = ArmState(pulls=3, sum_reward=1.2)
        alpha, t = 0.51, 17
        want = state.mean_reward + math.sqrt(alpha * math.log(t) / state.pulls)
        assert adaucb_index(state, t, alpha, 0.0) == want

    def test_rejects_early_t_and_zero_pulls(self):
        with pytest.raises(ValueError):
            adaucb_index(ArmState(pulls=1, sum_reward=0.5), 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            adaucb_index(ArmState(), 10, 1.0, 0.0)

    @given(
        pulls=st.integers(min_value=1, max_value=10_000),
        extra=st.integers(min_value=1, max_value=100),
        load=st.floats(min_value=0, max_value=0.999),
    )
    def test_strictly_decreasing_in_pulls(self, pulls, extra, load):
        mean = 0.4
        a = adaucb_index(ArmState(pulls, mean * pulls), 100, 2.0, load)
        b = adaucb_index(ArmState(pulls + extra, mean * (pulls + extra)), 100, 2.0, load)
        assert b < a

    @given(
        l1=st.floats(min_value=0, max_value=1),
        l2=st.floats(min_value=0, max_value=1),
    )
    def test_nonincreasing_in_load(self, l1, l2):
        lo, hi = sorted((l1, l2))
        state = ArmState(pulls=5, sum_reward=2.0)
        assert adaucb_index(state, 40, 2.0, hi) <= adaucb_index(state, 40, 2.0, lo)


class TestForcedInitialization:
    @pytest.mark.parametrize("kind", ["adaucb", "eadaucb", "ucb", "ts", "linucb", "rr-greedy"])
    def test_first_k_steps_sweep_arms_in_order(self, kind):
        policy = make_policies(4)[kind]
        rng = RngStream(3, 0)
        arms = []
        for t in range(1, 5):
            arm = policy.select(t, 0.5, rng)
            arms.append(arm)
            policy.update(arm, 0.5, rng)
        assert arms == [0, 1, 2, 3]

    def test_oracle_skips_initialization(self):
        policy = OraclePolicy(4, best_arm=2)
        assert [policy.select(t, 0.5) for t in range(1, 6)] == [2] * 5

    def test_rejects_time_before_start(self):
        with pytest.raises(ValueError):
            UcbPolicy(2, 1.0).select(0, 0.5)

    def test_update_rejects_unknown_arm(self):
        with pytest.raises(ValueError, match="out of range"):
            UcbPolicy(2, 1.0).update(2, 0.5)


class TestSelection:
    def test_tie_breaks_to_lowest_arm_at_full_load(self):
        policy = AdaUcbPolicy(3, alpha=2.0, thresholds=Thresholds(0.0, 1.0))
        rng = RngStream(0, 0)
        for t in range(1, 4):
            policy.update(policy.select(t, 0.0, rng), 0.5, rng)
        # all arms identical, normalized load 1 -> indices all equal the mean
        assert policy.select(4, 1.0, rng) == 0

    def test_first_free_step_after_init_square_wave(self):
        # Dirac rewards (0.6, 0.4), eps0=eps1=0.05, alpha=2: at t=3 both arms
        # have one pull, equal widths, so the better empirical mean wins.
        policy = AdaUcbPolicy(2, alpha=2.0, thresholds=BINARY_BAND)
        rewards = {0: 0.6, 1: 0.4}
        for t, load in ((1, 0.95), (2, 0.05)):
            arm = policy.select(t, load)
            policy.update(arm, rewards[arm])
        arm = policy.select(3, 0.95)
        assert arm == 0
        # frozen hand evaluation of both indices at t=3
        ltil = binary_normalize(0.95, 0.05, 0.05)
        i0 = adaucb_index(policy.arm_states[0], 3, 2.0, ltil)
        i1 = adaucb_index(policy.arm_states[1], 3, 2.0, ltil)
        assert i0 == pytest.approx(0.9400638157863455, rel=1e-12)
        assert i1 == pytest.approx(0.7400638157863455, rel=1e-12)

    def test_choice_matches_index_argmax(self):
        policy = AdaUcbPolicy(4, alpha=0.51, thresholds=Thresholds(0.1, 0.9))
        rng = RngStream(8, 1)
        urew = RngStream(8, 2)
        for t in range(1, 300):
            load = rng.random()
            arm = policy.select(t, load, rng)
            if t > 4:
                ltil = normalize_load(load, policy.thresholds)
                indices = [adaucb_index(s, t, 0.51, ltil) for s in policy.arm_states]
                assert arm == int(np.argmax(indices))
            policy.update(arm, 1.0 if urew.random() < 0.3 else 0.0, rng)

    def test_adaucb_matches_ucb_argmax_at_zero_load(self):
        # randomized histories: identical arm statistics must give identical
        # choices when the normalized load is 0
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            t = int(rng.integers(n + 1, 10_000))
            ada = AdaUcbPolicy(n, alpha=0.51, thresholds=Thresholds(0.2, 0.8))
            ucb = UcbPolicy(n, alpha=0.51)
            for k in range(n):
                pulls = int(rng.integers(1, 200))
                total = float(rng.random() * pulls)
                ada.arm_states[k] = ArmState(pulls, total)
                ucb.arm_states[k] = ArmState(pulls, total)
            assert ada.select(t, 0.1) == ucb.select(t, 0.99)  # both normalize/ignore


class TestPullAccounting:
    @pytest.mark.parametrize("kind", ["adaucb", "eadaucb", "ucb", "ts", "linucb", "rr-greedy"])
    def test_total_pulls_equal_horizon(self, kind):
        policy = make_policies(3)[kind]
        rng = RngStream(5, 0)
        loads = RngStream(6, 0)
        rewards = RngStream(7, 0)
        pulls = [0, 0, 0]
        horizon = 400
        for t in range(1, horizon + 1):
            arm = policy.select(t, loads.random(), rng)
            pulls[arm] += 1
            policy.update(arm, 1.0 if rewards.random() < 0.4 else 0.0, rng)
        assert sum(pulls) == horizon


class TestThompson:
    def test_posterior_counts_match_pulls(self):
        policy = ThompsonPolicy(3)
        rng = RngStream(1, 1)
        pulls = [0, 0, 0]
        for t in range(1, 501):
            arm = policy.select(t, 0.5, rng)
            pulls[arm] += 1
            policy.update(arm, 0.37, rng)
        np.testing.assert_array_equal(policy.a + policy.b - 2.0, pulls)

    def test_extreme_rewards_update_deterministically(self):
        policy = ThompsonPolicy(2)
        rng = RngStream(2, 2)
        policy.update(0, 1.0, rng)
        assert (policy.a[0], policy.b[0]) == (2.0, 1.0)
        policy.update(0, 0.0, rng)
        assert (policy.a[0], policy.b[0]) == (2.0, 2.0)

    def test_fractional_reward_splits_by_value(self):
        # success fraction over many updates approaches the reward value
        policy = ThompsonPolicy(2)
        rng = RngStream(3, 3)
        n = 100_000
        for _ in range(n):
            policy.update(1, 0.7, rng)
        assert (policy.a[1] - 1) / n == pytest.approx(0.7, abs=0.01)

    def test_rejects_reward_outside_unit_interval(self):
        with pytest.raises(ValueError):
            ThompsonPolicy(2).update(0, 1.3, RngStream(0, 0))


def linucb_b(policy):
    return [np.array(stats[3:]) for stats in policy.stats]


def linucb_scores(policy, load):
    """Per-arm LinUCB scores at a raw load: x.theta + alpha * sqrt(x A^-1 x)."""
    x = np.array([1.0, load])
    return np.array(
        [
            x @ (a_inv @ b) + policy.alpha * math.sqrt(x @ a_inv @ x)
            for a_inv, b in zip(map(np.linalg.inv, policy.A), linucb_b(policy))
        ]
    )


def _inv2(a: np.ndarray) -> np.ndarray:
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det


class NumpyLinUcb(Policy):
    """The reference LinUCB: each arm's A, its inverse and b as numpy
    arrays, scored as scalar products in IEEE doubles (numpy's ``@`` may
    fuse multiply-adds, so its rounding depends on the BLAS build)."""

    def __init__(self, n_arms: int, alpha: float):
        super().__init__(n_arms)
        self.alpha = alpha

    def reset(self) -> None:
        self.A = [np.eye(2) for _ in range(self.n_arms)]
        self.b = [np.zeros(2) for _ in range(self.n_arms)]
        self._A_inv = [np.eye(2) for _ in range(self.n_arms)]
        self._x = np.array([1.0, 0.0])
        self._last_load = 0.0

    def _observe_load(self, load: float) -> None:
        self._last_load = load
        self._x = np.array([1.0, load])

    def _choose(self, t: int, load: float, rng=None) -> int:
        x0, x1 = self._x.tolist()
        best = -math.inf
        arm = 0
        for k in range(self.n_arms):
            (i00, i01), (i10, i11) = self._A_inv[k].tolist()
            b0, b1 = self.b[k].tolist()
            theta0, theta1 = i00 * b0 + i01 * b1, i10 * b0 + i11 * b1
            ax0, ax1 = i00 * x0 + i01 * x1, i10 * x0 + i11 * x1
            score = (x0 * theta0 + x1 * theta1) + self.alpha * math.sqrt(x0 * ax0 + x1 * ax1)
            if score > best:
                best = score
                arm = k
        return arm

    def _update(self, arm: int, reward: float, rng=None) -> None:
        x = self._x
        self.A[arm] += np.outer(x, x)
        self.b[arm] += (self._last_load * reward) * x
        self._A_inv[arm] = _inv2(self.A[arm])


LINUCB_GRID = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 0.95, 1.0)


class TestLinUcb:
    @given(
        n_arms=st.integers(2, 6),
        alpha=st.floats(0.01, 5.0),
        init_round=st.booleans(),
        steps=st.lists(
            st.tuples(
                st.sampled_from(LINUCB_GRID) | st.floats(0.0, 1.0),
                st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
            ),
            max_size=60,
        ),
    )
    # a near-tie of arms 0 and 1 at its last step, which numpy's @ orders
    # the other way where it fuses multiply-adds
    @example(
        n_arms=2,
        alpha=2.0,
        init_round=False,
        steps=[(0.5, 1.0), (0.3, 1.0), (0.0, 1.0), (0.3, 1.0), (0.2, 1.0), (0.3, 1.0), (0.2, 0.0)],
    )
    def test_matches_numpy_reference(self, n_arms, alpha, init_round, steps):
        # without the init round the first score is taken at A = I, where the
        # closed-form inverse has a -0.0 off the diagonal
        policy, reference = LinUcbDisjointPolicy(n_arms, alpha), NumpyLinUcb(n_arms, alpha)
        start = 1 if init_round else n_arms + 1
        for t, (load, reward) in enumerate(steps, start=start):
            arm = policy.select(t, load)
            assert arm == reference.select(t, load)
            policy.update(arm, reward)
            reference.update(arm, reward)
            assert [a.tolist() for a in policy.A] == [a.tolist() for a in reference.A]
            assert [b.tolist() for b in linucb_b(policy)] == [b.tolist() for b in reference.b]

    def test_cold_start_scores_and_tie_break(self):
        policy = LinUcbDisjointPolicy(3, alpha=1.0)
        scores = linucb_scores(policy, 0.5)
        # A = I, b = 0: every score is alpha * sqrt(x.x) with x = (1, 0.5)
        np.testing.assert_allclose(scores, math.sqrt(1.25))
        policy._observe_load(0.5)
        assert policy._choose(4, 0.5, None) == 0

    def test_update_shrinks_width_and_learns_target(self):
        policy = LinUcbDisjointPolicy(2, alpha=1.0)
        before = linucb_scores(policy, 0.5)[0]
        arm = policy.select(3, 0.5)  # t > K so this scores; stashes the load
        policy.update(0, 0.0)
        after = linucb_scores(policy, 0.5)[0]
        # zero actual reward: predicted mean stays 0, uncertainty shrank
        assert after < before
        theta = np.linalg.inv(policy.A[0]) @ linucb_b(policy)[0]
        np.testing.assert_allclose(theta, 0.0)

    def test_target_is_load_weighted_reward(self):
        policy = LinUcbDisjointPolicy(2, alpha=1.0)
        policy._observe_load(0.5)
        policy.update(0, 1.0)
        # b accumulated 0.5 * 1.0 * x, not 1.0 * x
        np.testing.assert_allclose(linucb_b(policy)[0], [0.5, 0.25])

    def test_matrices_stay_spd_under_random_updates(self):
        policy = LinUcbDisjointPolicy(2, alpha=0.51)
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            policy._observe_load(float(rng.random()))
            policy.update(int(rng.integers(2)), float(rng.random()))
        for k in range(2):
            a = policy.A[k]
            np.testing.assert_allclose(a, a.T)
            assert np.linalg.eigvalsh(a).min() >= 1.0 - 1e-9


class TestQuantileSketch:
    def test_nearest_rank_on_decade(self):
        sketch = LoadQuantileSketch()
        for v in [0.1 * i for i in range(1, 11)]:
            sketch.insert(v)
        assert sketch.quantile(0.05) == pytest.approx(0.1)
        assert sketch.quantile(0.95) == pytest.approx(1.0)
        assert sketch.quantile(0.5) == pytest.approx(0.5)

    def test_single_observation(self):
        sketch = LoadQuantileSketch()
        sketch.insert(0.42)
        assert sketch.quantile(0.05) == 0.42
        assert sketch.quantile(0.95) == 0.42

    def test_empty_sketch_rejected(self):
        with pytest.raises(ValueError):
            LoadQuantileSketch().quantile(0.5)


class TestEAdaUcb:
    def test_thresholds_track_running_quantiles(self):
        policy = EAdaUcbPolicy(2, alpha=1.0)
        for v in [0.1 * i for i in range(1, 11)]:
            policy._observe_load(v)
        th = policy.thresholds
        assert th.lower == pytest.approx(0.1)
        assert th.upper == pytest.approx(1.0)

    def test_constant_load_degenerates_to_plain_ucb(self):
        # all observations equal: both thresholds collapse, the step rule
        # gives normalized load 0, so choices match UCB(alpha) exactly
        ea = EAdaUcbPolicy(3, alpha=0.51)
        ucb = UcbPolicy(3, alpha=0.51)
        rng_a, rng_b = RngStream(4, 0), RngStream(4, 0)
        rew = RngStream(5, 0)
        for t in range(1, 500):
            a1 = ea.select(t, 0.7, rng_a)
            a2 = ucb.select(t, 0.7, rng_b)
            assert a1 == a2
            x = 1.0 if rew.random() < 0.5 else 0.0
            ea.update(a1, x, rng_a)
            ucb.update(a2, x, rng_b)

    def test_select_inserts_current_load_before_deciding(self):
        policy = EAdaUcbPolicy(2, alpha=1.0)
        policy.select(1, 0.3)
        assert len(policy.load_sketch) == 1
        assert policy.thresholds.lower == 0.3

    def test_select_reads_each_quantile_once(self, monkeypatch):
        policy = EAdaUcbPolicy(2, alpha=1.0)
        for t in (1, 2):
            policy.update(policy.select(t, 0.1 * t), 0.5)
        asked = []
        quantile = policy.load_sketch.quantile
        monkeypatch.setattr(policy.load_sketch, "quantile", lambda q: asked.append(q) or quantile(q))
        policy.select(3, 0.5)
        assert asked == [policy.lower_quantile, policy.upper_quantile]

    def test_reset_clears_sketch(self):
        policy = EAdaUcbPolicy(2, alpha=1.0)
        policy._observe_load(0.2)
        policy.reset()
        assert len(policy.load_sketch) == 0


class TestRoundRobinGreedy:
    def test_round_robin_on_free_slots_greedy_otherwise(self):
        policy = RoundRobinGreedyPolicy(3, Thresholds(0.2, 0.8))
        rng = RngStream(9, 0)
        for t, (arm_reward) in zip(range(1, 4), (0.2, 0.9, 0.4)):
            arm = policy.select(t, 0.5, rng)
            policy.update(arm, arm_reward, rng)
        # free slots (load below lower threshold) cycle the arms
        assert [policy.select(t, 0.1, rng) for t in range(4, 8)] == [0, 1, 2, 0]
        # loaded slot: greedy on the empirical means (arm 1 has 0.9)
        assert policy.select(8, 0.9, rng) == 1


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["adaucb", "eadaucb", "ucb", "ts", "linucb"])
    def test_identical_streams_give_identical_actions(self, kind):
        def run():
            policy = make_policies(3)[kind]
            rng = RngStream(77, 1)
            loads = RngStream(78, 1)
            rewards = RngStream(79, 1)
            actions = []
            for t in range(1, 300):
                arm = policy.select(t, loads.random(), rng)
                actions.append(arm)
                policy.update(arm, 1.0 if rewards.random() < 0.4 else 0.0, rng)
            return actions

        assert run() == run()
