"""Run-loop semantics: regret accounting, checkpointing, replication
independence, and determinism."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opbandit.core import BanditInstance, RngStream, Thresholds, default_checkpoints
from opbandit.environments import (
    BernoulliReward,
    BetaLoad,
    BinaryRandomLoad,
    DiracReward,
    LoadModel,
    PeriodicSquareWaveLoad,
)
from opbandit.policies import AdaUcbPolicy, OraclePolicy, ThompsonPolicy, UcbPolicy
from opbandit.simulator import (
    _Ledger,
    replication_streams,
    run_experiment,
    run_once,
)

DIRAC_2ARM = BanditInstance((0.6, 0.4))
SQUARE = PeriodicSquareWaveLoad(0.05, 0.05)


def dirac_run(policy, horizon=2000, checkpoints=None, seed=1):
    streams = replication_streams(seed, "x", 0)
    return run_once(
        DIRAC_2ARM,
        SQUARE,
        DiracReward((0.6, 0.4)),
        policy,
        horizon,
        checkpoints if checkpoints is not None else default_checkpoints(horizon),
        streams["load"],
        streams["reward"],
        streams["policy"],
    )


class TestDefaultCheckpoints:
    def test_sorted_unique_and_anchored_at_horizon(self):
        pts = default_checkpoints(100_000)
        assert np.all(np.diff(pts) > 0)
        assert pts[0] >= 1 and pts[-1] == 100_000
        assert 40 <= len(pts) <= 51

    def test_small_horizon(self):
        pts = default_checkpoints(3)
        assert pts[-1] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            run_once(
                DIRAC_2ARM,
                SQUARE,
                DiracReward((0.6, 0.4)),
                UcbPolicy(2, 2.0),
                100,
                [5, 5],
                None,
                None,
                None,
            )


class TestRegretAccounting:
    def test_oracle_has_zero_regret_everywhere(self):
        trace = dirac_run(OraclePolicy(2, best_arm=0))
        np.testing.assert_array_equal(trace.regret, 0.0)

    def test_forced_pull_of_bad_arm_on_free_slot_costs_nothing(self):
        # eps0 = 0: the init pull of arm 2 lands on even step 2 with load 0
        free = PeriodicSquareWaveLoad(0.0, 0.0)
        policy = AdaUcbPolicy(2, 2.0, Thresholds(0.0, 1.0))
        streams = replication_streams(3, "x", 0)
        trace = run_once(
            DIRAC_2ARM,
            free,
            DiracReward((0.6, 0.4)),
            policy,
            2,
            [1, 2],
            streams["load"],
            streams["reward"],
            streams["policy"],
        )
        np.testing.assert_array_equal(trace.regret, [0.0, 0.0])

    def test_constant_full_load_regret_is_gap_times_pulls(self):
        # L = 1 always: cumulative regret must equal 0.2 * pulls of arm 2
        const = BinaryRandomLoad(0.0, 0.0, rho=0.0)
        policy = UcbPolicy(2, 2.0)
        streams = replication_streams(11, "x", 0)
        trace = run_once(
            BanditInstance((0.6, 0.4)),
            const,
            BernoulliReward((0.6, 0.4)),
            policy,
            5000,
            default_checkpoints(5000),
            streams["load"],
            streams["reward"],
            streams["policy"],
        )
        np.testing.assert_allclose(trace.regret, 0.2 * trace.pulls[:, 1], rtol=1e-9)

    def test_pseudo_regret_nonnegative_and_nondecreasing(self):
        trace = dirac_run(UcbPolicy(2, 2.0), checkpoints=np.arange(1, 2001))
        assert np.all(trace.regret >= 0)
        assert np.all(np.diff(trace.regret) >= -1e-15)

    def test_pull_counts_sum_to_t(self):
        trace = dirac_run(UcbPolicy(2, 2.0))
        np.testing.assert_array_equal(trace.pulls.sum(axis=1), trace.checkpoints)


@st.composite
def ledger_runs(draw):
    """Chosen arms and loads of 1-12 rows, split into chunks of
    random sizes (1-step chunks among them), with checkpoints at every
    step or at a random set that may hold step 1, the chunk edges and the
    horizon."""
    n_rows, n_arms = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    horizon = draw(st.integers(n_arms, 200))
    sizes = draw(st.lists(st.sampled_from((1, 1, 2, 7)) | st.integers(1, 80), min_size=1, max_size=60))
    ends = sorted({min(e, horizon) for e in np.cumsum(sizes).tolist()} | {horizon})
    if draw(st.booleans()):
        pts = set(range(1, horizon + 1))
    else:
        pts = set(draw(st.lists(st.integers(1, horizon), max_size=12)))
        pts |= set(ends) if draw(st.booleans()) else set()
        pts |= {1} if draw(st.booleans()) else set()
        pts |= {horizon} if draw(st.booleans()) or not pts else set()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return dict(
        bandit=BanditInstance(draw(st.lists(st.floats(0.0, 1.0), min_size=n_arms, max_size=n_arms))),
        arms=rng.integers(0, n_arms, (n_rows, horizon)),
        loads=rng.choice((0.0, 0.05, 0.5, 1.0, *rng.random(4)), (n_rows, horizon)),
        ends=ends,
        checkpoints=sorted(pts),
    )


class TestLedgerMatchesReference:
    @given(ledger_runs())
    def test_chunked_accounting_byte_for_byte(self, run):
        # the reference: whole-run cumulative sums of the cost and of the
        # one-hot pulls, read at the checkpoints
        bandit, arms, loads = run["bandit"], run["arms"], run["loads"]
        n_rows, horizon = arms.shape
        cost = loads * np.array(bandit.gaps)[arms]
        pts = np.array(run["checkpoints"])
        # + 0.0: a run's regret starts at +0.0
        regret = np.cumsum(cost, axis=1)[:, pts - 1] + 0.0
        pulls = np.cumsum(np.eye(bandit.n_arms, dtype=np.int64)[arms], axis=1)[:, pts - 1]

        ledger = _Ledger(bandit, pts, horizon, n_rows)
        i0 = 0
        for i1 in run["ends"]:
            ledger.add(i0, arms[:, i0:i1], loads[:, i0:i1])
            i0 = i1
        for row in range(n_rows):
            trace = ledger.trace(row)
            assert trace.checkpoints.tobytes() == pts.tobytes()
            assert trace.regret.dtype == regret.dtype and trace.regret.tobytes() == regret[row].tobytes()
            assert trace.pulls.dtype == pulls.dtype and trace.pulls.tobytes() == pulls[row].tobytes()


class TestDeterminism:
    def test_deterministic_scenario_has_zero_variance(self):
        results = run_experiment(
            DIRAC_2ARM,
            SQUARE,
            DiracReward((0.6, 0.4)),
            {"adaucb": AdaUcbPolicy(2, 2.0, Thresholds(0.05, 1.0))},
            2000,
            replications=3,
            base_seed=9,
        )
        trace = results["adaucb"]
        # every replication is the same trajectory, bit for bit
        np.testing.assert_array_equal(trace.regret, np.broadcast_to(trace.regret[0], trace.regret.shape))
        np.testing.assert_allclose(trace.std_regret, 0.0, atol=1e-12)
        # and across base seeds
        other = run_experiment(
            DIRAC_2ARM,
            SQUARE,
            DiracReward((0.6, 0.4)),
            {"adaucb": AdaUcbPolicy(2, 2.0, Thresholds(0.05, 1.0))},
            2000,
            replications=1,
            base_seed=1234,
        )["adaucb"]
        np.testing.assert_array_equal(trace.regret[0], other.regret[0])

    def test_identical_streams_force_zero_std(self):
        # two replications fed the same streams must coincide exactly
        policy = UcbPolicy(2, 2.0)
        runs = []
        for _ in range(2):
            policy.reset()
            streams = replication_streams(5, "ucb", 0)
            runs.append(
                run_once(
                    BanditInstance((0.6, 0.4)),
                    BinaryRandomLoad(0.0, 0.0, 0.5),
                    BernoulliReward((0.6, 0.4)),
                    policy,
                    1000,
                    [1000],
                    streams["load"],
                    streams["reward"],
                    streams["policy"],
                )
            )
        assert runs[0].regret[0] == runs[1].regret[0]
        reg = np.array([r.regret[0] for r in runs])
        assert reg.std(ddof=1) == 0.0

    def test_rerun_same_seed_is_identical(self):
        def go():
            return run_experiment(
                BanditInstance((0.6, 0.4)),
                BinaryRandomLoad(0.0, 0.0, 0.5),
                BernoulliReward((0.6, 0.4)),
                {"ucb": UcbPolicy(2, 0.51)},
                3000,
                replications=4,
                base_seed=77,
            )["ucb"]

        a, b = go(), go()
        np.testing.assert_array_equal(a.regret, b.regret)
        np.testing.assert_array_equal(a.pulls, b.pulls)

    def test_replication_prefix_stable_under_count_change(self):
        def go(reps):
            return run_experiment(
                BanditInstance((0.6, 0.4)),
                BinaryRandomLoad(0.0, 0.0, 0.5),
                BernoulliReward((0.6, 0.4)),
                {"ucb": UcbPolicy(2, 0.51)},
                2000,
                replications=reps,
                base_seed=31,
            )["ucb"]

        big = go(5)
        small = go(3)
        np.testing.assert_array_equal(big.regret[:3], small.regret)

    def test_policy_order_does_not_change_results(self):
        def go(order):
            policies = {
                label: (UcbPolicy(2, 0.51) if label == "ucb" else UcbPolicy(2, 2.0))
                for label in order
            }
            return run_experiment(
                BanditInstance((0.6, 0.4)),
                BinaryRandomLoad(0.0, 0.0, 0.5),
                BernoulliReward((0.6, 0.4)),
                policies,
                1000,
                replications=2,
                base_seed=13,
            )

        a = go(["ucb", "ucb1"])
        b = go(["ucb1", "ucb"])
        np.testing.assert_array_equal(a["ucb"].regret, b["ucb"].regret)
        np.testing.assert_array_equal(a["ucb1"].regret, b["ucb1"].regret)


class _SpyLoad(LoadModel):
    """Delegates to an inner model while recording every load its stream
    yields, in order, whatever the ``where`` mask (``run_once`` may draw a
    chunk at a time, and compute only the loads the regret reads)."""

    uses_rng = True

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def sample_loads(self, horizon, rng, t0=1, where=None):
        self.seen.append(self.inner.sample_loads(horizon, rng, t0))
        return self.seen[-1] if where is None else np.where(where, self.seen[-1], 0.0)


class TestStreamSeparation:
    def test_roles_get_distinct_streams(self):
        streams = replication_streams(1, "adaucb", 0)
        ids = {s.stream_id for s in streams.values()}
        assert len(ids) == 3

    def test_changing_reward_stream_leaves_loads_untouched(self):
        def loads_with_reward_stream(reward_id):
            spy = _SpyLoad(BinaryRandomLoad(0.0, 0.0, 0.5))
            run_once(
                BanditInstance((0.6, 0.4)),
                spy,
                BernoulliReward((0.6, 0.4)),
                UcbPolicy(2, 2.0),
                500,
                [500],
                RngStream(7, 100),
                RngStream(7, reward_id),
                RngStream(7, 300),
            )
            assert sum(map(len, spy.seen)) == 500
            return np.concatenate(spy.seen)

        np.testing.assert_array_equal(
            loads_with_reward_stream(200), loads_with_reward_stream(201)
        )

    @pytest.mark.parametrize("make", [lambda: UcbPolicy(2, 2.0), lambda: ThompsonPolicy(2)], ids=["ucb", "ts"])
    def test_lazy_loads_take_one_uniform_per_step(self, make):
        # a cell that computes only its charged steps' loads still takes
        # exactly horizon uniforms from its load stream
        load_rng = RngStream(7, 100)
        run_once(
            BanditInstance((0.6, 0.4)),
            BetaLoad(2.0, 2.0),
            BernoulliReward((0.6, 0.4)),
            make(),
            2500,
            [2500],
            load_rng,
            RngStream(7, 200),
            RngStream(7, 300),
        )
        assert load_rng.random() == RngStream(7, 100).random(2501)[-1]


class TestLinUcbAlphaSensitivity:
    def test_regret_varies_strongly_with_alpha(self):
        # the contextual baseline's regret depends heavily on its
        # exploration constant (spread well above noise level)
        from opbandit.policies import LinUcbDisjointPolicy

        results = run_experiment(
            BanditInstance((0.05, 0.1, 0.15, 0.2, 0.25)),
            BetaLoad(2, 2),
            BernoulliReward((0.05, 0.1, 0.15, 0.2, 0.25)),
            {f"linucb-{a}": LinUcbDisjointPolicy(5, a) for a in (0.51, 1.0, 1.2)},
            10_000,
            replications=5,
            base_seed=99,
            checkpoints=[10_000],
        )
        finals = np.array([trace.mean_regret[-1] for trace in results.values()])
        assert finals.max() / finals.min() > 1.5


class TestLogarithmicPullGrowth:
    def test_ucb_suboptimal_pulls_scale_with_log_t(self):
        # constant load 1: C_2(T)/ln(T) must be nearly the same at T=1e4 and
        # T=1e5 (mean over 50 replications within 25%)
        results = run_experiment(
            BanditInstance((0.7, 0.3)),
            BinaryRandomLoad(0.0, 0.0, rho=0.0),
            BernoulliReward((0.7, 0.3)),
            {"ucb": UcbPolicy(2, 2.0)},
            100_000,
            replications=50,
            base_seed=2204,
            checkpoints=[10_000, 100_000],
        )["ucb"]
        mean_c2 = results.mean_pulls[:, 1]
        ratios = mean_c2 / np.log(results.checkpoints)
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.25
