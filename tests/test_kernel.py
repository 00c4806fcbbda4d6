"""The index step and Thompson sampling's kernel against the per-step
reference (``select`` and ``update`` at every step), the index step's numpy
form (many rows) against its Python form (``run_once``, one row), the
Python step's gallop through long runs and the Thompson kernel's screen of
held leads against the per-step reference, ``run_once`` as a one-row run of
the one chunk loop, the route that gives each policy its step and its
batch rule, and the rank-pointer running quantiles against the sorted-list
sketch."""

import copy
import itertools
import math
import pickle
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given
from hypothesis import strategies as st

from opbandit import simulator
from opbandit.core import BanditInstance, RngStream, Thresholds, default_checkpoints, log_steps, nearest_rank
from opbandit.environments import (
    BernoulliReward,
    BetaLoad,
    BinaryRandomLoad,
    DiracReward,
    LoadModel,
    PeriodicSquareWaveLoad,
    RewardModel,
    TraceData,
    TraceLoad,
    TraceReward,
)
from opbandit.policies import (
    AdaUcbPolicy,
    EAdaUcbPolicy,
    LinUcbDisjointPolicy,
    LoadQuantileSketch,
    OraclePolicy,
    RoundRobinGreedyPolicy,
    RunningQuantiles,
    ThompsonPolicy,
    UcbPolicy,
    _walk,
)
from opbandit.simulator import replication_streams, run_experiment, run_once

KINDS = ("ucb", "adaucb", "eadaucb", "rr-greedy", "ts")
INDEX_KINDS = KINDS[:-1]


class PerStep:
    """Hides the policy's class, so ``run_once`` calls ``select`` and
    ``update`` at every step."""

    def __init__(self, policy):
        self.select = policy.select
        self.update = policy.update


class FixedLoad(LoadModel):
    """The given loads, step by step."""

    uses_rng = False

    def __init__(self, loads):
        self.loads = np.asarray(loads, dtype=float)

    def _bulk(self, ts, us=None):
        return self.loads[ts - 1]


def make_policy(kind, n_arms, lower, upper):
    if kind == "ucb":
        return UcbPolicy(n_arms, 0.51)
    if kind == "adaucb":
        return AdaUcbPolicy(n_arms, 0.51, Thresholds(lower, upper))
    if kind == "eadaucb":
        return EAdaUcbPolicy(n_arms, 0.51, lower, upper)
    if kind == "ts":
        return ThompsonPolicy(n_arms)
    return RoundRobinGreedyPolicy(n_arms, Thresholds(lower, upper))


class GridGenerator:
    """A generator's uniforms snapped onto ``grid``, one draw of the
    generator per value however they are batched, as its own are."""

    def __init__(self, gen, grid):
        self.gen = gen
        self.grid = np.array(grid)

    def random(self, size=None):
        snapped = self.grid[(np.asarray(self.gen.random(size)) * len(self.grid)).astype(int)]
        return snapped if size is not None else float(snapped)


def every_step(horizon):
    """The checkpoints of a per-step trace."""
    return np.arange(1, horizon + 1)


def run_both(make, load_model, reward_model, horizon, checkpoints, policy_grid=None):
    """(reference trace, kernel trace, reference policy, kernel policy); the
    two runs must leave the policy stream at the same place.  Compare index
    kinds at :func:`every_step`: their engine leaves the policy as given, so
    only the arm pulled at every step shows that both sides agree.  With
    ``policy_grid``, the policy stream's uniforms are snapped onto it."""
    out = []
    policies = [make(), make()]
    next_draws = []
    for policy, wrapped in zip(policies, (PerStep(policies[0]), policies[1])):
        streams = replication_streams(4, "kernel", 0)
        if policy_grid is not None:
            streams["policy"]._gen = GridGenerator(streams["policy"]._gen, policy_grid)
        out.append(
            run_once(
                BanditInstance(reward_model.means),
                load_model,
                reward_model,
                wrapped,
                horizon,
                checkpoints,
                streams["load"],
                streams["reward"],
                streams["policy"],
            )
        )
        next_draws.append(streams["policy"].random())
    assert next_draws[0] == next_draws[1]
    return out[0], out[1], policies[0], policies[1]


def assert_same_bytes(ref, fast):
    for field in ("checkpoints", "regret", "pulls"):
        a, b = getattr(ref, field), getattr(fast, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def assert_same_state(ref, fast):
    """Thompson sampling's posterior, which its kernel updates in place."""
    assert ref.a.tobytes() == fast.a.tobytes() and ref.b.tobytes() == fast.b.tobytes()


# loads drawn from a small grid (ties, and values on the thresholds) in
# constant runs
GRID = (0.0, 0.05, 0.2, 0.2, 0.5, 0.8, 0.95, 1.0)
runs = st.lists(st.tuples(st.sampled_from(GRID), st.integers(1, 12)), min_size=1, max_size=40)


@st.composite
def scenarios(draw):
    n_arms = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(KINDS))
    loads = [v for v, n in draw(runs) for _ in range(n)]
    horizon = max(len(loads), n_arms)
    loads += [0.5] * (horizon - len(loads))
    if kind.startswith("eadaucb"):
        lower = draw(st.sampled_from((0.01, 0.05, 0.5, 0.95)))
        upper = draw(st.sampled_from((lower, 0.95, 0.99)).filter(lambda u: u >= lower))
    else:
        lower = draw(st.sampled_from(GRID))
        upper = draw(st.sampled_from(GRID).filter(lambda u: u >= lower))
    reward_kind = draw(st.sampled_from(("bernoulli", "dirac", "trace")))
    means = draw(st.lists(st.floats(0.0, 1.0), min_size=n_arms, max_size=n_arms))
    if reward_kind == "bernoulli":
        reward = BernoulliReward(tuple(means))
    elif reward_kind == "dirac":
        reward = DiracReward(tuple(means))
    else:
        rows = draw(st.integers(1, 30))
        seed = draw(st.integers(0, 2**32 - 1))
        cells = np.random.default_rng(seed).random((rows, n_arms))
        if draw(st.booleans()):
            cells = (cells < 0.5).astype(float)
        reward = TraceReward(TraceData(loads=np.ones(rows), rewards=cells, scale=1.0))
    pts = draw(st.lists(st.integers(1, horizon), min_size=1, max_size=8, unique=True))
    return dict(
        kind=kind,
        n_arms=n_arms,
        loads=loads,
        lower=lower,
        upper=upper,
        reward=reward,
        horizon=horizon,
        checkpoints=sorted(pts),
        every_step=draw(st.booleans()),
        chunk=draw(st.integers(1, 8) | st.integers(1, 50)),  # some below K: init spans chunks
    )


class TestKernelMatchesPerStepLoop:
    @given(scenarios())
    def test_random_scenarios_byte_for_byte(self, sc):
        def make():
            return make_policy(sc["kind"], sc["n_arms"], sc["lower"], sc["upper"])

        ts = sc["kind"] == "ts"
        with mock.patch.object(simulator, "CHUNK", sc["chunk"]):
            ref, fast, p_ref, p_fast = run_both(
                make,
                FixedLoad(sc["loads"]),
                sc["reward"],
                sc["horizon"],
                every_step(sc["horizon"]) if sc["every_step"] or not ts else sc["checkpoints"],
            )
        assert_same_bytes(ref, fast)
        if ts:
            assert_same_state(p_ref, p_fast)

    @pytest.mark.parametrize("kind", KINDS)
    def test_long_beta_run_every_kind(self, kind):
        # several full chunks, Bernoulli rewards drawn chunk by chunk
        means = (0.05, 0.1, 0.15, 0.2, 0.25)
        ref, fast, p_ref, p_fast = run_both(
            lambda: make_policy(kind, 5, 0.05, 0.95),
            BetaLoad(2.0, 2.0),
            BernoulliReward(means),
            3 * simulator.CHUNK + 17,
            (default_checkpoints if kind == "ts" else every_step)(3 * simulator.CHUNK + 17),
        )
        assert_same_bytes(ref, fast)
        if kind == "ts":
            assert_same_state(p_ref, p_fast)

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_run_once_leaves_index_policy_as_given(self, kind):
        # the engine only reads an index policy: no arm statistics, load
        # sketch or round-robin cursor of the policy moves
        policy = make_policy(kind, 3, 0.2, 0.8)
        before = pickle.dumps(policy)
        streams = replication_streams(4, "kernel", 0)
        trace = run_once(
            BanditInstance((0.3, 0.5, 0.45)),
            BetaLoad(2.0, 2.0),
            BernoulliReward((0.3, 0.5, 0.45)),
            policy,
            2 * simulator.CHUNK + 31,
            [1, 3, simulator.CHUNK + 1, 2 * simulator.CHUNK + 31],
            streams["load"],
            streams["reward"],
            streams["policy"],
        )
        assert trace.pulls[-1].sum() == 2 * simulator.CHUNK + 31
        assert pickle.dumps(policy) == before

    def test_ln_t_is_math_log_where_numpy_differs(self):
        # np.log is not correctly rounded everywhere; the kernel must use
        # math.log, or an argmax at such a t can flip
        horizon = 9200
        ts = np.arange(1, horizon + 1)
        differ = ts[np.log(ts.astype(float)) != np.fromiter(map(math.log, ts.tolist()), float)]
        t = int(differ[0]) if len(differ) else 9170
        schedule = UcbPolicy(3, 0.51).exploration_schedule()
        assert schedule(t, np.zeros(1), log_steps(range(t, t + 1)))[0] == 0.51 * math.log(t)
        for kind in ("ucb", "adaucb"):
            ref, fast, _, _ = run_both(
                lambda: make_policy(kind, 3, 0.2, 0.8),
                BetaLoad(2.0, 2.0),
                BernoulliReward((0.5, 0.52, 0.55)),
                horizon,
                every_step(horizon),
            )
            assert_same_bytes(ref, fast)
        # the batch engine hands every row's schedule the same exact ln t
        seen = []
        schedule_of = UcbPolicy.exploration_schedule

        def recording(self, quantiles=None):
            schedule = schedule_of(self, quantiles)

            def record(i1, loads, ln_t):
                seen.append((i1, ln_t.tolist()))
                return schedule(i1, loads, ln_t)

            return record

        sc = dict(
            reward=BernoulliReward((0.5, 0.52, 0.55)),
            load=BetaLoad(2.0, 2.0),
            horizon=horizon,
            replications=simulator.BATCH_ROWS,
            checkpoints=[horizon],
        )
        with mock.patch.object(UcbPolicy, "exploration_schedule", recording):
            experiment({"ucb": UcbPolicy(3, 0.51)}, sc, simulator.BATCH_ROWS)
        assert any(i1 - len(ln_t) < t <= i1 for i1, ln_t in seen)
        for i1, ln_t in seen:
            assert ln_t == [math.log(u) for u in range(i1 - len(ln_t) + 1, i1 + 1)]

    @pytest.mark.parametrize("chunk", [1, 2, 4])
    def test_ts_init_round_spans_chunks(self, chunk):
        # chunks shorter than the init round of 5 arms: 1 uniform per init
        # step, then K + 1, drawn chunk by chunk
        with mock.patch.object(simulator, "CHUNK", chunk):
            ref, fast, p_ref, p_fast = run_both(
                lambda: ThompsonPolicy(5),
                BetaLoad(2.0, 2.0),
                BernoulliReward((0.3, 0.5, 0.5, 0.7, 0.2)),
                23,
                every_step(23),
            )
        assert_same_bytes(ref, fast)
        assert_same_state(p_ref, p_fast)

    def test_ts_needs_policy_stream(self):
        with pytest.raises(ValueError, match="policy stream"):
            run_once(
                BanditInstance((0.6, 0.4)),
                FixedLoad([0.5] * 20),
                DiracReward((0.6, 0.4)),
                ThompsonPolicy(2),
                20,
                [20],
                None,
                None,
                None,
            )

    @pytest.mark.parametrize("kind", ["adaucb", "eadaucb", "rr-greedy"])
    @pytest.mark.parametrize("per_step", [True, False])
    def test_non_finite_load_rejected(self, kind, per_step):
        policy = make_policy(kind, 2, 0.2, 0.8)
        loads = FixedLoad([0.5] * 10 + [math.nan] + [0.5] * 9)
        with pytest.raises(ValueError, match="finite"):
            run_once(
                BanditInstance((0.6, 0.4)),
                loads,
                DiracReward((0.6, 0.4)),
                PerStep(policy) if per_step else policy,
                20,
                [20],
                None,
                None,
                None,
            )


    @pytest.mark.parametrize("per_step", [True, False])
    def test_out_of_range_reward_rejected(self, per_step):
        class Overpaying(RewardModel):
            means = (0.6, 0.4)

            def reward_rows(self, t0, n, rng):
                return np.full((n, 2), 1.5)

        policy = UcbPolicy(2, 0.51)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run_once(
                BanditInstance((0.6, 0.4)),
                FixedLoad([0.5] * 20),
                Overpaying(),
                PerStep(policy) if per_step else policy,
                20,
                [20],
                None,
                RngStream(1, 0),
                None,
            )

    @pytest.mark.parametrize("means", [(0.6, 0.3, 0.6), (0.3, 0.5, 0.45)], ids=["tied-best", "distinct"])
    @pytest.mark.parametrize("kind", ["ucb", "ts"])
    def test_lazy_loads_byte_for_byte(self, kind, means):
        # ucb and ts compute a load only where the regret reads it: at a
        # pull of an arm with a positive gap (never one of two tied best
        # arms)
        assert not make_policy(kind, 3, 0.2, 0.8).reads_loads
        horizon = 3 * simulator.CHUNK + 17
        ref, fast, p_ref, p_fast = run_both(
            lambda: make_policy(kind, 3, 0.2, 0.8),
            BetaLoad(2.0, 2.0),
            BernoulliReward(means),
            horizon,
            every_step(horizon),
        )
        assert_same_bytes(ref, fast)
        assert ref.regret[-1] > 0.0
        if kind == "ts":
            assert_same_state(p_ref, p_fast)

    @pytest.mark.parametrize("kind", ["per-step", "ucb", "ts"])
    def test_nan_reward_rejected(self, kind):
        class NanAtStep11(RewardModel):
            means = (0.6, 0.4)
            uses_rng = False

            def reward_rows(self, t0, n, rng):
                rows = np.full((n, 2), 0.5)
                rows[np.arange(t0, t0 + n) == 11] = math.nan
                return rows

        policy = ThompsonPolicy(2) if kind == "ts" else UcbPolicy(2, 0.51)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run_once(
                BanditInstance((0.6, 0.4)),
                FixedLoad([0.5] * 20),
                NanAtStep11(),
                PerStep(policy) if kind == "per-step" else policy,
                20,
                [20],
                None,
                None,
                RngStream(1, 0),
            )


class TestOneChunkLoop:
    """``run_once`` is a one-row run of the one chunk loop, whatever the
    policy's class."""

    @pytest.mark.parametrize("kind", ["ucb", "adaucb", "eadaucb", "rr-greedy", "ts", "linucb", "oracle", "per-step"])
    def test_run_once_is_one_row_of_the_loop(self, kind):
        if kind == "linucb":
            policy = LinUcbDisjointPolicy(3, 1.0)
        elif kind == "oracle":
            policy = OraclePolicy(3, 1)
        elif kind == "per-step":
            policy = PerStep(UcbPolicy(3, 0.51))
        else:
            policy = make_policy(kind, 3, 0.2, 0.8)
        streams = replication_streams(4, "loop", 0)
        with mock.patch.object(simulator, "_run_rows", wraps=simulator._run_rows) as loop:
            trace = run_once(
                BanditInstance((0.3, 0.5, 0.45)),
                BetaLoad(2.0, 2.0),
                BernoulliReward((0.3, 0.5, 0.45)),
                policy,
                simulator.CHUNK + 31,
                [1, 3, simulator.CHUNK + 31],
                streams["load"],
                streams["reward"],
                streams["policy"],
            )
        assert [len(call.args[2]) for call in loop.call_args_list] == [1]
        assert trace.pulls[-1].sum() == simulator.CHUNK + 31

    def test_linucb_loads_a_chunk_at_a_time(self):
        # a row whose choice reads loads draws them before each step, one
        # chunk at a time, never the whole run up front
        horizon = 2 * simulator.CHUNK + 31
        asked, sample_loads = [], BetaLoad.sample_loads

        def spy(self, n, *args, **kwargs):
            asked.append(n)
            return sample_loads(self, n, *args, **kwargs)

        streams = replication_streams(4, "loop", 0)
        with mock.patch.object(BetaLoad, "sample_loads", spy):
            run_once(
                BanditInstance((0.3, 0.5, 0.45)),
                BetaLoad(2.0, 2.0),
                BernoulliReward((0.3, 0.5, 0.45)),
                LinUcbDisjointPolicy(3, 1.0),
                horizon,
                [horizon],
                streams["load"],
                streams["reward"],
                streams["policy"],
            )
        assert max(asked) <= simulator.CHUNK
        assert sum(asked) == horizon


class GridLoad(LoadModel):
    """I.i.d. loads from :data:`GRID` (ties, and values on the thresholds)."""

    kind = "grid"

    def _bulk(self, ts, us):
        return np.array(GRID)[(us * len(GRID)).astype(int)]


def reward_model(draw, n_arms):
    reward_kind = draw(st.sampled_from(("bernoulli", "dirac", "trace")))
    means = draw(st.lists(st.floats(0.0, 1.0), min_size=n_arms, max_size=n_arms))
    if reward_kind == "bernoulli":
        return BernoulliReward(tuple(means))
    if reward_kind == "dirac":
        return DiracReward(tuple(means))
    rows = draw(st.integers(1, 30))
    cells = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((rows, n_arms))
    if draw(st.booleans()):
        cells = (cells < 0.5).astype(float)
    return TraceReward(TraceData(loads=np.ones(rows), rewards=cells, scale=1.0))


@st.composite
def batches(draw):
    n_arms = draw(st.integers(2, 6))
    kinds = draw(st.lists(st.sampled_from(INDEX_KINDS), min_size=1, max_size=4))
    lower = draw(st.sampled_from(GRID))
    upper = draw(st.sampled_from(GRID).filter(lambda u: u >= lower))
    load = draw(
        st.sampled_from(
            (
                GridLoad(),
                BetaLoad(2.0, 2.0),
                BinaryRandomLoad(0.0, 0.0, 0.5),
                PeriodicSquareWaveLoad(0.0, 0.1),
                TraceLoad(TraceData(np.array(GRID[:7]), None, 1.0)),  # wraps
            )
        )
    )
    horizon = draw(st.integers(n_arms, 120))
    pts = draw(st.lists(st.integers(1, horizon), min_size=1, max_size=8, unique=True))
    return dict(
        n_arms=n_arms,
        kinds=kinds,
        lower=lower,
        upper=upper,
        load=load,
        reward=reward_model(draw, n_arms),
        horizon=horizon,
        checkpoints=sorted(pts),
        replications=draw(st.integers(1, 8)),
        chunk=draw(st.integers(1, 8) | st.integers(1, 50)),  # some below K: init spans chunks
    )


def make_index_policy(kind, n_arms, lower, upper):
    if kind.startswith("eadaucb"):  # quantile probabilities, not loads
        lower, upper = min(max(lower, 0.01), 0.99), min(max(upper, 0.01), 0.99)
    return make_policy(kind, n_arms, lower, upper)


def chunks_of(steps):
    """Patches the chunk length that :data:`simulator.BATCH_BYTES` gives an
    index-engine run to ``steps`` steps; which rows join the batch is left
    to the budget."""
    return mock.patch.object(simulator, "_chunk_steps", lambda n_rows, n_arms: steps)


def experiment(policies, sc, batch_rows):
    with mock.patch.object(simulator, "BATCH_ROWS", batch_rows):
        return run_experiment(
            BanditInstance(sc["reward"].means),
            sc["load"],
            sc["reward"],
            policies,
            sc["horizon"],
            sc["replications"],
            base_seed=11,
            checkpoints=sc["checkpoints"],
        )


class TestBatchMatchesRunOnce:
    @given(batches())
    def test_every_row_byte_for_byte(self, sc):
        def make(kind):
            return make_index_policy(kind, sc["n_arms"], sc["lower"], sc["upper"])

        labels = {f"{kind}-{i}": kind for i, kind in enumerate(sc["kinds"])}
        policies = {label: make(kind) for label, kind in labels.items()}
        with (
            chunks_of(sc["chunk"]),
            mock.patch.object(simulator, "_run_rows", wraps=simulator._run_rows) as engine,
        ):
            batch = experiment(policies, sc, batch_rows=1)
        # every cell, EAdaUCB's included, is a row of the one engine run
        assert [len(call.args[2]) for call in engine.call_args_list] == [len(policies) * sc["replications"]]
        with mock.patch.object(simulator, "CHUNK", sc["chunk"]):
            for label, kind in labels.items():
                for rep in range(sc["replications"]):
                    reference = make(kind)
                    streams = replication_streams(11, label, rep)
                    trace = run_once(
                        BanditInstance(sc["reward"].means),
                        sc["load"],
                        sc["reward"],
                        reference,
                        sc["horizon"],
                        sc["checkpoints"],
                        streams["load"],
                        streams["reward"],
                        streams["policy"],
                    )
                    assert batch[label].regret[rep].tobytes() == trace.regret.tobytes(), label
                    assert batch[label].pulls[rep].tobytes() == trace.pulls.tobytes(), label

    @pytest.mark.parametrize("batch_rows", [10**9, 1], ids=["per-cell", "batched"])
    def test_run_experiment_leaves_policies_as_given(self, batch_rows):
        sc = dict(
            reward=BernoulliReward((0.3, 0.5, 0.45)),
            load=BetaLoad(2.0, 2.0),
            horizon=2 * 128 + 31,
            replications=3,
            checkpoints=[1, 3, 128 + 1, 2 * 128 + 31],
        )

        def make_policies():
            shared = make_policy("rr-greedy", 3, 0.2, 0.8)  # one object under two labels
            out = {kind: make_policy(kind, 3, 0.2, 0.8) for kind in KINDS}
            out["linucb"], out["oracle"] = LinUcbDisjointPolicy(3, 1.0), OraclePolicy(3, 1)
            return out | {"rr-a": shared, "rr-b": shared}

        policies, rng = make_policies(), RngStream(5, 0)
        for policy in {id(p): p for p in policies.values()}.values():
            for t in range(1, 7):  # a history of its own, which no run may touch
                policy.update(policy.select(t, 0.15 * t, rng), 0.5, rng)
        before = {label: pickle.dumps(policy) for label, policy in policies.items()}
        with chunks_of(128):
            results = experiment(policies, sc, batch_rows)
        reference = experiment(make_policies(), sc, batch_rows=10**9)  # every cell through run_once
        for label, policy in policies.items():
            assert pickle.dumps(policy) == before[label], label
            assert results[label].regret.tobytes() == reference[label].regret.tobytes(), label
            assert results[label].pulls.tobytes() == reference[label].pulls.tobytes(), label
            assert results[label].pulls[:, -1].sum() == sc["replications"] * sc["horizon"]


    def test_batch_mixing_lazy_and_eager_rows(self):
        # ucb rows draw their loads after the step, adaucb rows before it;
        # at BATCH_ROWS cells they share one engine run
        sc = dict(
            reward=BernoulliReward((0.3, 0.5, 0.45)),
            load=BetaLoad(2.0, 2.0),
            horizon=2 * 128 + 31,
            replications=simulator.BATCH_ROWS // 2 + 1,
            checkpoints=[1, 3, 128 + 1, 2 * 128 + 31],
        )

        def policies():
            return {"ucb": make_policy("ucb", 3, 0.2, 0.8), "adaucb": make_policy("adaucb", 3, 0.2, 0.8)}

        with (
            chunks_of(128),
            mock.patch.object(simulator, "_run_rows", wraps=simulator._run_rows) as engine,
        ):
            batch = experiment(policies(), sc, simulator.BATCH_ROWS)
        assert [len(call.args[2]) for call in engine.call_args_list] == [2 * sc["replications"]]
        alone = experiment(policies(), sc, batch_rows=10**9)  # every cell through run_once
        for label in ("ucb", "adaucb"):
            assert batch[label].regret.tobytes() == alone[label].regret.tobytes(), label
            assert batch[label].pulls.tobytes() == alone[label].pulls.tobytes(), label

    @pytest.mark.parametrize("steps", [1, 7, None], ids=["1-step", "7-step", "capped"])
    def test_chunk_length_from_the_budget(self, steps):
        # every index kind, quantile rows included, as the rows of one engine
        # run whose chunks the budget sets; each row equals its cell alone
        means, reps, horizon = (0.3, 0.5, 0.45, 0.4), 2, simulator.CHUNK + 31
        labels = [(kind, rep) for kind in INDEX_KINDS for rep in range(reps)]
        # a row-step takes K + 5 words of the budget
        budget = steps * len(labels) * (4 + 5) * 8 if steps else simulator.BATCH_BYTES
        with mock.patch.object(simulator, "BATCH_BYTES", budget):
            assert simulator._chunk_steps(len(labels), 4) == (steps or simulator.CHUNK)
            cells = []
            for kind, rep in labels:
                streams = replication_streams(3, kind, rep)
                cells.append((make_policy(kind, 4, 0.2, 0.8), streams["load"], streams["reward"], streams["policy"]))
            ledger = simulator._Ledger(BanditInstance(means), every_step(horizon), horizon, len(cells))
            simulator._run_rows(BetaLoad(2.0, 2.0), BernoulliReward(means), cells, horizon, ledger)
        for r, (kind, rep) in enumerate(labels):
            streams = replication_streams(3, kind, rep)
            alone = run_once(
                BanditInstance(means),
                BetaLoad(2.0, 2.0),
                BernoulliReward(means),
                make_policy(kind, 4, 0.2, 0.8),
                horizon,
                every_step(horizon),
                streams["load"],
                streams["reward"],
                streams["policy"],
            )
            assert_same_bytes(alone, ledger.trace(r))

    def test_quantile_rows_join_while_their_loads_fit(self):
        sc = dict(
            reward=BernoulliReward((0.3, 0.5, 0.45)),
            load=BetaLoad(2.0, 2.0),
            horizon=2 * 128 + 31,
            replications=simulator.BATCH_ROWS // 2,  # enough for the other rows to batch alone
            checkpoints=[1, 3, 128 + 1, 2 * 128 + 31],
        )
        held = RunningQuantiles.held_bytes(sc["horizon"], 2)  # one eadaucb row's
        reps = sc["replications"]

        def run(budget):
            policies = {kind: make_policy(kind, 3, 0.2, 0.8) for kind in ("ucb", "adaucb", "eadaucb")}
            with (
                mock.patch.object(simulator, "BATCH_BYTES", budget),
                mock.patch.object(simulator, "_run_rows", wraps=simulator._run_rows) as engine,
            ):
                results = experiment(policies, sc, simulator.BATCH_ROWS)
            return results, [len(call.args[2]) for call in engine.call_args_list]

        stayed, rows = run(held * reps)
        assert rows == [3 * reps]
        for budget, expected in [(held * reps - 1, [3 * reps - 1, 1]), (held - 1, [2 * reps] + [1] * reps)]:
            results, rows = run(budget)
            assert rows == expected, budget
            for label in stayed:
                assert results[label].regret.tobytes() == stayed[label].regret.tobytes(), label
                assert results[label].pulls.tobytes() == stayed[label].pulls.tobytes(), label


class TestUcbIsTheIndexAtLoadZero:
    """Plain UCB is the index at normalized load 0: an AdaUCB whose band
    sits at the top of the load range, where every load normalizes to 0,
    pulls the arms UCB pulls, by every path."""

    MEANS = (0.3, 0.5, 0.45, 0.5, 0.48)
    HORIZON = 2 * simulator.CHUNK + 31

    @staticmethod
    def pair():
        return UcbPolicy(5, 0.51), AdaUcbPolicy(5, 0.51, Thresholds(1.0, 1.0))

    @pytest.mark.parametrize("per_step", [True, False], ids=["per-step", "run_once"])
    def test_one_cell(self, per_step):
        traces = []
        for policy in self.pair():
            streams = replication_streams(6, "zero-load", 0)
            traces.append(
                run_once(
                    BanditInstance(self.MEANS),
                    BetaLoad(2.0, 2.0),
                    BernoulliReward(self.MEANS),
                    PerStep(policy) if per_step else policy,
                    self.HORIZON,
                    every_step(self.HORIZON),
                    streams["load"],
                    streams["reward"],
                    streams["policy"],
                )
            )
        assert_same_bytes(*traces)

    def test_batched_under_one_label(self):
        sc = dict(
            reward=BernoulliReward(self.MEANS),
            load=BetaLoad(2.0, 2.0),
            horizon=self.HORIZON,
            replications=simulator.BATCH_ROWS,
            checkpoints=every_step(self.HORIZON),
        )
        results = []
        for policy in self.pair():
            with mock.patch.object(simulator, "_run_rows", wraps=simulator._run_rows) as engine:
                results.append(experiment({"x": policy}, sc, simulator.BATCH_ROWS)["x"])
            assert [len(call.args[2]) for call in engine.call_args_list] == [simulator.BATCH_ROWS]
        ucb, ada = results
        assert ucb.regret.tobytes() == ada.regret.tobytes()
        assert ucb.pulls.tobytes() == ada.pulls.tobytes()


class LocalUcb(UcbPolicy):
    """A subclass the package does not know."""


class Wrapped:
    """Offers ``select``, ``update`` and ``reset``, but is no Policy."""

    def __init__(self, policy):
        self.policy = policy

    def reset(self):
        self.policy = copy.deepcopy(self.policy)
        self.policy.reset()

    def select(self, t, load, rng=None):
        return self.policy.select(t, load, rng)

    def update(self, arm, reward, rng=None):
        self.policy.update(arm, reward, rng)


def routed(policies, replications=None):
    """(results, the step factory and row count of each run of the chunk
    loop, the number of ``run_once`` calls) of ``run_experiment`` on
    ``policies``, at :data:`simulator.BATCH_ROWS` replications by default."""
    means, runs = (0.3, 0.5, 0.45), []

    def spy(name):
        factory = getattr(simulator, name)

        def make(cells, held, horizon):
            runs.append((name, len(cells)))
            return factory(cells, held, horizon)

        return mock.patch.object(simulator, name, make)

    with (
        spy("_index_step"),
        spy("_thompson_kernel"),
        spy("_select_each_step"),
        mock.patch.object(simulator, "run_once", wraps=simulator.run_once) as alone,
    ):
        results = run_experiment(
            BanditInstance(means),
            BetaLoad(2.0, 2.0),
            BernoulliReward(means),
            policies,
            300,
            replications or simulator.BATCH_ROWS,
            base_seed=5,
        )
    return results, runs, alone.call_count


BUILT_IN = {kind: make_policy(kind, 3, 0.2, 0.8) for kind in KINDS} | {
    "linucb": LinUcbDisjointPolicy(3, 1.0),
    "oracle": OraclePolicy(3, 1),
}


class TestRoute:
    """Which step each policy's cells take, and which of them batch."""

    @pytest.mark.parametrize("kind", sorted(BUILT_IN))
    def test_each_built_in_kind(self, kind):
        _, runs, alone = routed({kind: BUILT_IN[kind]})
        rows = simulator.BATCH_ROWS
        if kind in INDEX_KINDS:
            assert (runs, alone) == ([("_index_step", rows)], 0)
        elif kind == "ts":  # the kernel runs its init round through the per-step way
            assert (runs, alone) == ([("_thompson_kernel", 1), ("_select_each_step", 1)] * rows, rows)
        else:
            assert (runs, alone) == ([("_select_each_step", 1)] * rows, rows)

    def test_index_kinds_share_one_run(self):
        _, runs, alone = routed(BUILT_IN)
        rows = simulator.BATCH_ROWS
        assert runs[0] == ("_index_step", len(INDEX_KINDS) * rows)
        # linucb's and oracle's cells, and each ts cell's init round
        assert sorted(runs[1:]) == sorted([("_thompson_kernel", 1)] * rows + [("_select_each_step", 1)] * 3 * rows)
        assert alone == 3 * rows

    @pytest.mark.parametrize("replications", [simulator.BATCH_ROWS - 1, simulator.BATCH_ROWS])
    def test_subclass_batches_like_its_parent(self, replications):
        parent, parent_runs, _ = routed({"ucb": UcbPolicy(3, 0.51)}, replications)
        child, child_runs, _ = routed({"ucb": LocalUcb(3, 0.51)}, replications)
        assert child_runs == parent_runs
        assert child["ucb"].regret.tobytes() == parent["ucb"].regret.tobytes()

    def test_object_that_is_no_policy_steps_each_step(self):
        results, runs, alone = routed({"ucb": Wrapped(UcbPolicy(3, 0.51))})
        rows = simulator.BATCH_ROWS
        assert (runs, alone) == ([("_select_each_step", 1)] * rows, rows)
        reference, _, _ = routed({"ucb": UcbPolicy(3, 0.51)})
        assert results["ucb"].regret.tobytes() == reference["ucb"].regret.tobytes()
        assert results["ucb"].pulls.tobytes() == reference["ucb"].pulls.tobytes()


# rewards whose running sums round (0.1, 0.3, 0.7) and whose means often
# tie exactly (0, 0.5, 1)
REWARDS = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)


@st.composite
def gallops(draw):
    """Runs long enough for leaders to win hundreds of steps in a row: loads
    in long constant stretches (high ones make adaucb and rr-greedy greedy,
    ``c == 0``; free ones force rr-greedy's pulls), rewards from
    :data:`REWARDS`, and small gallop blocks next to the default."""
    n_arms = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(INDEX_KINDS))
    lengths = st.integers(1, 4) | st.integers(1, 400)  # short ones put forced pulls inside would-be blocks
    stretches = draw(st.lists(st.tuples(st.sampled_from(GRID), lengths), min_size=1, max_size=8))
    loads = [v for v, n in stretches for _ in range(n)]
    horizon = max(len(loads), 300)
    loads += [1.0] * (horizon - len(loads))
    lower = draw(st.sampled_from(GRID))
    upper = draw(st.sampled_from(GRID).filter(lambda u: u >= lower))
    reward_kind = draw(st.sampled_from(("dirac", "trace", "bernoulli")))
    if reward_kind == "trace":
        rows = draw(st.integers(1, 40))
        cells = draw(st.lists(st.sampled_from(REWARDS), min_size=rows * n_arms, max_size=rows * n_arms))
        reward = TraceReward(TraceData(np.ones(rows), np.array(cells).reshape(rows, n_arms), 1.0))
    else:
        means = tuple(draw(st.lists(st.sampled_from(REWARDS), min_size=n_arms, max_size=n_arms)))
        reward = DiracReward(means) if reward_kind == "dirac" else BernoulliReward(means)
    return dict(
        kind=kind,
        n_arms=n_arms,
        loads=loads,
        lower=lower,
        upper=upper,
        reward=reward,
        horizon=horizon,
        chunk=draw(st.sampled_from((7, 100, simulator.CHUNK))),  # runs cross chunk edges
        block=draw(st.sampled_from((1, 3, simulator.GALLOP_BLOCK))),
    )


def spied_gallops():
    """A patch of the Python step's gallop that records the steps each
    gallop won."""
    won = []
    gallop = simulator._gallop

    def spy(*args):
        won.append(gallop(*args))
        return won[-1]

    return mock.patch.object(simulator, "_gallop", spy), won


class TestGallopMatchesPerStepLoop:
    @given(gallops())
    @example(  # two equal arms, greedy: see test_equal_arms_greedy
        dict(
            kind="adaucb",
            n_arms=2,
            loads=[1.0] * 300,
            lower=0.0,
            upper=0.5,
            reward=DiracReward((0.1, 0.1)),
            horizon=300,
            chunk=100,
            block=1,
        )
    )
    def test_random_runs_byte_for_byte(self, sc):
        def make():
            return make_index_policy(sc["kind"], sc["n_arms"], sc["lower"], sc["upper"])

        spy, won = spied_gallops()
        with (
            spy,
            mock.patch.object(simulator, "CHUNK", sc["chunk"]),
            mock.patch.object(simulator, "GALLOP_BLOCK", sc["block"]),
        ):
            ref, fast, _, _ = run_both(
                make, FixedLoad(sc["loads"]), sc["reward"], sc["horizon"], every_step(sc["horizon"])
            )
        assume(sum(won))  # a gallop won steps: the case under test
        assert_same_bytes(ref, fast)

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("block", [1, simulator.GALLOP_BLOCK], ids=["small", "default"])
    def test_equal_arms_greedy(self, x, block):
        # two arms that always pay x, and loads that make adaucb greedy: the
        # leader's running mean drifts by rounding until it ties the other
        # arm's exactly, and a tie goes to the lower arm; a sum taken in
        # another order, or a tie given to the leader, picks other arms
        spy, won = spied_gallops()
        with spy, mock.patch.object(simulator, "GALLOP_BLOCK", block):
            ref, fast, _, _ = run_both(
                lambda: make_policy("adaucb", 2, 0.0, 0.5),
                FixedLoad([1.0] * 3000),
                DiracReward((x, x)),
                3000,
                every_step(3000),
            )
        assert sum(won) > 0
        assert_same_bytes(ref, fast)

    def test_gallops_stop_before_forced_pulls(self):
        # rr-greedy on a clear best arm: greedy stretches of 100 steps, each
        # ended by a free slot whose forced pull goes to each arm in turn; a
        # gallop that took the forced step in would give it to arm 0
        loads = ([1.0] * 100 + [0.0]) * 30
        spy, won = spied_gallops()
        with spy:
            ref, fast, _, _ = run_both(
                lambda: make_policy("rr-greedy", 2, 0.2, 0.8),
                FixedLoad(loads),
                DiracReward((0.9, 0.1)),
                len(loads),
                every_step(len(loads)),
            )
        assert sum(won) > len(loads) // 2
        assert_same_bytes(ref, fast)

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_default_settings_gallop_through_long_runs(self, kind):
        # a clear best arm and fractional trace rewards: after the first few
        # hundred steps nearly every step is won in a gallop
        horizon = 3 * simulator.CHUNK + 300
        rewards = np.array([[0.1, 0.3, 0.7], [0.3, 0.1, 1.0], [0.1, 0.3, 0.7], [0.3, 0.1, 0.5]])
        spy, won = spied_gallops()
        with spy:
            ref, fast, _, _ = run_both(
                lambda: make_index_policy(kind, 3, 0.05, 0.95),
                BetaLoad(2.0, 2.0),
                TraceReward(TraceData(np.ones(len(rewards)), rewards, 1.0)),
                horizon,
                every_step(horizon),
            )
        assert_same_bytes(ref, fast)
        assert sum(won) > horizon // 2


#: posterior uniforms on a grid that holds the screen's levels: a leader's
#: uniform lands exactly on a level, and two arms with equal posteriors
#: draw exactly equal values
SCREEN_GRID = (0.0, *simulator.SCREEN_LEVELS, 0.7, 0.99)


@st.composite
def screens(draw):
    """Thompson runs whose leads hold: rewards that are mostly Dirac 0 or 1
    (their degenerate Beta(1, n) and Beta(n, 1) posteriors, and exact ties
    between arms), horizons across small chunks, and a small streak, slack
    and window, so that tables are taken, spent and dropped within a few
    hundred steps."""
    n_arms = draw(st.integers(2, 6))
    means = tuple(draw(st.lists(st.sampled_from((0.0, 1.0, 0.3, 0.7)), min_size=n_arms, max_size=n_arms)))
    return dict(
        n_arms=n_arms,
        reward=draw(st.sampled_from((DiracReward, DiracReward, BernoulliReward)))(means),
        horizon=draw(st.integers(n_arms, 400)),
        chunk=draw(st.sampled_from((1, 7, 64, simulator.CHUNK))),
        streak=draw(st.sampled_from((2, 2, 3, simulator.SCREEN_STREAK))),
        slack=draw(st.sampled_from((0, 0, 1, 5, simulator.SCREEN_SLACK))),
        window=draw(st.sampled_from((1, 3, simulator.SCREEN_WINDOW))),
        grid=draw(st.sampled_from((None, SCREEN_GRID, SCREEN_GRID))),
    )


@st.composite
def explorations(draw):
    """Thompson runs on Bernoulli arms with close means, so that other arms
    win single steps while one arm holds the table: 2 to 8 arms (the
    inverse over the open arms runs from 4), small chunks, and a small
    streak, slack and window."""
    n_arms = draw(st.integers(2, 8))
    base = draw(st.sampled_from((0.1, 0.5, 0.8)))
    offsets = draw(st.lists(st.sampled_from((0.0, 0.02, 0.05, 0.1)), min_size=n_arms, max_size=n_arms))
    return dict(
        n_arms=n_arms,
        reward=BernoulliReward(tuple(base + d for d in offsets)),
        horizon=draw(st.integers(50, 500)),
        chunk=draw(st.sampled_from((1, 7, 64, simulator.CHUNK))),
        streak=draw(st.sampled_from((2, 3, simulator.SCREEN_STREAK))),
        slack=draw(st.sampled_from((0, 1, 5, simulator.SCREEN_SLACK))),
        window=draw(st.sampled_from((1, 3, simulator.SCREEN_WINDOW))),
        grid=draw(st.sampled_from((None, None, SCREEN_GRID))),
    )


def arms_of(trace):
    """The arm pulled at each step of a per-step trace."""
    return np.diff(trace.pulls, axis=0, prepend=0).argmax(axis=1)


def exploration_steps(arms, n_arms, streak):
    """{step: the arm holding the table} for the steps after the init round
    at which an arm wins while another, the last to win ``streak`` steps in
    a row, holds the table, and does not take it over."""
    held, lead, run, steps = -1, -1, 0, {}
    for t, arm in enumerate(arms[n_arms:], n_arms):
        lead, run = arm, run + 1 if arm == lead else 1
        if run >= streak:
            held = arm
        elif held >= 0 and arm != held:
            steps[t] = held
    return steps


def spied_inverses():
    """A patch of the Thompson kernel's inverse that counts the steps it
    takes the inverse over the arms (``taken``), and the arms each of those
    inverses covers: all of them, or its ``where=`` mask's (``inverted``).
    The kernel binds ``scipy.special.betaincinv`` when it is built, so the
    patch is there."""
    taken, inverted = [], []
    inverse = scipy.special.betaincinv

    def spy(*args, **kwargs):
        taken.append("out" in kwargs)
        if "out" in kwargs:
            where = kwargs.get("where")
            inverted.append(kwargs["out"].size if where is None else int(np.count_nonzero(where)))
        return inverse(*args, **kwargs)

    return mock.patch.object(scipy.special, "betaincinv", spy), taken, inverted


def run_screened(sc):
    """:func:`run_both` on a Thompson run of :func:`screens` or
    :func:`explorations`, at its chunk length and screen settings."""
    with (
        mock.patch.object(simulator, "CHUNK", sc["chunk"]),
        mock.patch.object(simulator, "SCREEN_STREAK", sc["streak"]),
        mock.patch.object(simulator, "SCREEN_SLACK", sc["slack"]),
        mock.patch.object(simulator, "SCREEN_WINDOW", sc["window"]),
    ):
        return run_both(
            lambda: ThompsonPolicy(sc["n_arms"]),
            FixedLoad([0.5] * sc["horizon"]),
            sc["reward"],
            sc["horizon"],
            every_step(sc["horizon"]),
            policy_grid=sc["grid"],
        )


class TestThompsonInitRound:
    @pytest.mark.parametrize("reward", [BernoulliReward((0.3, 0.6, 0.9)), DiracReward((0.2, 0.5, 0.7))])
    def test_run_of_exactly_k_steps(self, reward):
        # the whole run is the init round: one coin a step, through select and update
        ref, fast, p_ref, p_fast = run_both(lambda: ThompsonPolicy(3), BetaLoad(2.0, 2.0), reward, 3, every_step(3))
        assert_same_bytes(ref, fast)
        assert_same_state(p_ref, p_fast)
        assert arms_of(fast).tolist() == [0, 1, 2]
        assert (p_fast.a + p_fast.b).tolist() == [3.0, 3.0, 3.0]


class TestThompsonScreenMatchesPerStepLoop:
    @given(screens())
    @example(  # two equal arms, uniforms on the levels: a leader's margin decides
        dict(
            n_arms=2,
            reward=DiracReward((0.0, 0.0)),
            horizon=25,
            chunk=1,
            streak=2,
            slack=0,
            window=1,
            grid=SCREEN_GRID,
        )
    )
    @example(  # Beta(1, n) posteriors: a table past the leader's slack decides wrongly
        dict(
            n_arms=3,
            reward=DiracReward((0.0, 0.0, 0.3)),
            horizon=23,
            chunk=1,
            streak=2,
            slack=0,
            window=1,
            grid=None,
        )
    )
    def test_random_runs_byte_for_byte(self, sc):
        spy, taken, _ = spied_inverses()
        with spy:
            ref, fast, p_ref, p_fast = run_screened(sc)
        assume(sc["horizon"] - sc["n_arms"] > sum(taken))  # the screen decided steps: the case under test
        assert_same_bytes(ref, fast)
        assert_same_state(p_ref, p_fast)

    def test_default_settings_decide_most_steps(self):
        # three well-separated arms: once the best arm leads, nearly every
        # step is decided without an inverse
        horizon = 3 * simulator.CHUNK + 17
        spy, taken, _ = spied_inverses()
        with spy:
            ref, fast, p_ref, p_fast = run_both(
                lambda: ThompsonPolicy(3),
                BetaLoad(2.0, 2.0),
                BernoulliReward((0.2, 0.5, 0.8)),
                horizon,
                every_step(horizon),
            )
        assert_same_bytes(ref, fast)
        assert_same_state(p_ref, p_fast)
        assert sum(taken) < horizon // 4

    @given(explorations())
    def test_explorations_byte_for_byte(self, sc):
        ref, fast, p_ref, p_fast = run_screened(sc)
        assert_same_bytes(ref, fast)
        assert_same_state(p_ref, p_fast)
        # the case under test: other arms won single steps under a table
        assume(exploration_steps(arms_of(ref), sc["n_arms"], sc["streak"]))

    def test_explorations_keep_the_table(self):
        # fig2b-beta's arms, one step a chunk, so that each step's inverse
        # is seen on its own: per step, the arms inverted (none if decided)
        means = (0.05, 0.1, 0.15, 0.2, 0.25)
        n_arms, horizon, streak = len(means), 4000, simulator.SCREEN_STREAK
        marks = []

        class Marked(BernoulliReward):
            def reward_rows(self, t0, n, rng):
                marks.append(len(inverted))
                return super().reward_rows(t0, n, rng)

        spy, _, inverted = spied_inverses()
        streams = replication_streams(4, "kernel", 0)
        with spy, mock.patch.object(simulator, "CHUNK", 1):
            trace = run_once(
                BanditInstance(means),
                BetaLoad(2.0, 2.0),
                Marked(means),
                ThompsonPolicy(n_arms),
                horizon,
                every_step(horizon),
                streams["load"],
                streams["reward"],
                streams["policy"],
            )
        per_step = [sum(inverted[i:j]) for i, j in zip(marks, [*marks[1:], len(inverted)])]
        arms = arms_of(trace)
        explored = exploration_steps(arms, n_arms, streak)
        assert len(explored) > 100
        # after an exploration the table's arm is screened again at once:
        # of its wins in the next streak - 1 steps (each of which took the
        # inverse when an exploration dropped the table), most are decided
        held = [
            per_step[t] == 0
            for e, arm in explored.items()
            for t in range(e + 1, min(e + streak, horizon))
            if arms[t] == arm and t not in explored
        ]
        assert sum(held) > 0.5 * len(held)
        # an undecided step under a table (held from the first exploration
        # on) inverts only the arms the table leaves open
        opened = [n for n in per_step[min(explored) :] if n > 0]
        assert min(opened) < n_arms and np.mean(opened) < 0.75 * n_arms


@st.composite
def load_sequences(draw):
    """Up to 2500 loads, long enough for chunks past the first to walk
    only part of their steps: fractional draws, a few levels with many
    ties, or a monotone run up or down."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2500))
    shape = draw(st.sampled_from(("draws", "ties", "rising", "falling")))
    values = rng.choice(GRID, n) if shape == "ties" else rng.uniform(-5.0, 5.0, n)
    if shape == "rising":
        values.sort()
    elif shape == "falling":
        values = -np.sort(values)
    return values


class TestRunningQuantiles:
    @given(
        values=load_sequences(),
        probs=st.lists(
            st.sampled_from((0.0, 1e-9, 0.01, 0.05, 0.5, 0.51, 0.95, 0.99, 1 - 1e-9, 1.0)) | st.floats(0.0, 1.0),
            min_size=1,
            max_size=3,
        ),
        chunks=st.lists(st.integers(1, 1100), min_size=1, max_size=4),
    )
    def test_matches_sorted_sketch(self, values, probs, chunks):
        # every row against its own sketch, read at core.nearest_rank as
        # LoadQuantileSketch.quantile does, without its check that 0 < q < 1
        sketch = LoadQuantileSketch()
        expected = []
        for v in values.tolist():
            sketch.insert(v)
            expected.append([sketch._sorted[nearest_rank(q, len(sketch)) - 1] for q in probs])
        running = RunningQuantiles(values, tuple(probs))
        got, stop = [], 0
        for chunk in itertools.cycle(chunks):
            if stop == len(values):
                break
            stop = min(stop + chunk, len(values))
            got.append(running.advance(stop))
        assert np.hstack(got).T.tolist() == expected

    def test_walks_few_steps(self):
        # on Beta(2, 2) loads in the simulator's chunks, each tail walks
        # the steps where its k rises (1 in 20) and those below its reach
        n = 10_000
        running = RunningQuantiles(np.random.default_rng(0).beta(2.0, 2.0, n), (0.05, 0.95))
        with mock.patch("opbandit.policies._walk", side_effect=_walk) as walk:
            for stop in range(simulator.CHUNK, n + simulator.CHUNK, simulator.CHUNK):
                running.advance(min(stop, n))
        for held in running._held:
            # a walk's arguments: the marks, the pointer, the ranks walked and their rises
            assert sum(len(c.args[2]) for c in walk.call_args_list if c.args[0] is held) < 0.2 * n

    @pytest.mark.parametrize("probs", [(0.05, 0.95), (0.5,)])
    def test_held_bytes_counts_what_it_holds(self, probs):
        running = RunningQuantiles(np.random.default_rng(0).random(1000), probs)
        held = running._sorted.nbytes + running._ranks.nbytes + sum(map(len, running._held))
        assert RunningQuantiles.held_bytes(1000, len(probs)) == held
