"""The experiment run loop: reveal load, let the policy pick an arm, draw the
nominal reward, update the policy, accumulate load-weighted regret.

Two loops implement it, and :func:`run_once` picks one by the policy's
class.  The index family (``ucb``, ``adaucb``, ``eadaucb`` and
``rr-greedy``, every :class:`~opbandit.policies.IndexPolicy`) takes the step
kernel: the policy supplies each step's exploration coefficient ``c_t`` and
the reward model every arm's reward, a chunk of steps at a time, and one
argmax loop shared by the family picks the arms.  Everything else (``ts``,
``linucb``, ``oracle``, and any object that only offers ``select`` and
``update``, such as a proxy that times each call) takes the per-step loop,
which calls ``select`` and ``update`` at every step.  The per-step loop is
also the reference: the kernel's traces equal its traces byte for byte.

Regret is expected pseudo-regret by default: each step adds
``load * (best_mean - mean[chosen])`` using the true arm means, which is the
unbiased low-variance estimator of the load-weighted regret.  A realized
variant (``load * (best_mean - drawn_reward)``) is available behind a flag.

Each (policy, replication) pair owns three private random streams (load,
reward, policy) derived from the base seed by label hashing, so replications
can run in any order, replication prefixes are stable under changes to the
replication count, and reseeding rewards never perturbs the load sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BanditInstance, RngStream, derive_stream_id
from .environments import BernoulliReward, DiracReward, LoadModel, RewardModel
from .policies import IndexPolicy, Policy

__all__ = [
    "ReplicationTrace",
    "RegretTrace",
    "default_checkpoints",
    "replication_streams",
    "run_once",
    "run_experiment",
]


@dataclass
class ReplicationTrace:
    """Checkpointed regret and pull counts of a single replication."""

    checkpoints: np.ndarray  # (C,) int
    regret: np.ndarray  # (C,) cumulative regret at each checkpoint
    pulls: np.ndarray  # (C, K) cumulative pull counts
    full_regret: np.ndarray | None = None  # (T,) when per-step recording is on
    full_pulls: np.ndarray | None = None  # (T, K)


@dataclass
class RegretTrace:
    """Per-replication regret curves for one policy, with aggregates."""

    policy: str
    checkpoints: np.ndarray  # (C,)
    regret: np.ndarray  # (R, C)
    pulls: np.ndarray  # (R, C, K)

    @property
    def n_replications(self) -> int:
        return self.regret.shape[0]

    @property
    def mean_regret(self) -> np.ndarray:
        return self.regret.mean(axis=0)

    @property
    def std_regret(self) -> np.ndarray:
        # sample (n-1) normalization; a single replication has zero spread
        if self.n_replications < 2:
            return np.zeros(self.regret.shape[1])
        return self.regret.std(axis=0, ddof=1)

    @property
    def mean_pulls(self) -> np.ndarray:
        return self.pulls.mean(axis=0)

    def regret_at(self, t: int) -> np.ndarray:
        """Mean regret at one checkpoint (errors if t was not recorded)."""
        idx = np.flatnonzero(self.checkpoints == t)
        if len(idx) == 0:
            raise KeyError(f"no checkpoint at t={t}")
        return self.mean_regret[idx[0]]


def default_checkpoints(horizon: int, count: int = 50) -> np.ndarray:
    """``count`` log-spaced recording points plus the horizon itself."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    pts = np.unique(np.round(np.geomspace(1, horizon, count)).astype(int))
    return np.unique(np.append(pts, horizon))


def _validate_checkpoints(checkpoints, horizon: int) -> np.ndarray:
    pts = np.asarray(checkpoints, dtype=int)
    if pts.ndim != 1 or len(pts) == 0:
        raise ValueError("checkpoints must be a non-empty 1-D sequence")
    if np.any(np.diff(pts) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    if pts[0] < 1 or pts[-1] > horizon:
        raise ValueError(f"checkpoints must lie within [1, {horizon}]")
    return pts


def replication_streams(base_seed: int, policy_label: str, replication: int) -> dict:
    """The three private streams of one (policy, replication) cell."""
    return {
        role: RngStream(base_seed, derive_stream_id(policy_label, replication, role))
        for role in ("load", "reward", "policy")
    }


def run_once(
    bandit: BanditInstance,
    load_model: LoadModel,
    reward_model: RewardModel,
    policy: Policy,
    horizon: int,
    checkpoints,
    load_rng: RngStream | None,
    reward_rng: RngStream | None,
    policy_rng: RngStream | None,
    realized: bool = False,
    record_steps: bool = False,
) -> ReplicationTrace:
    """Run a single replication and return its checkpointed trace.

    The policy must be freshly constructed or reset; the caller owns the
    streams.
    """
    n_arms = bandit.n_arms
    if horizon < n_arms:
        raise ValueError(f"horizon {horizon} is shorter than the init round of {n_arms} arms")
    pts = _validate_checkpoints(checkpoints, horizon)
    if load_model.uses_rng and load_rng is None:
        raise ValueError("stochastic load model needs a load stream")
    if reward_model.uses_rng and reward_rng is None:
        raise ValueError("stochastic reward model needs a reward stream")

    loads = load_model.sample_loads(horizon, load_rng)
    if isinstance(policy, IndexPolicy):
        return _run_index_policy(
            bandit, loads, reward_model, policy, pts, reward_rng, realized, record_steps
        )
    load_list = loads.tolist()
    best_mean = bandit.best_mean
    gaps = list(bandit.gaps)

    # reward lookup, specialized for the hot per-step loop
    if isinstance(reward_model, BernoulliReward):
        u_rew = reward_rng.random(horizon).tolist()
        mus = list(reward_model.means)

        def reward_of(i: int, arm: int) -> float:
            return 1.0 if u_rew[i] < mus[arm] else 0.0

    elif isinstance(reward_model, DiracReward):
        mus = list(reward_model.means)

        def reward_of(i: int, arm: int) -> float:
            return mus[arm]

    else:

        def reward_of(i: int, arm: int) -> float:
            u = reward_rng.random() if reward_model.uses_rng else None
            return reward_model.reward_at(arm, i + 1, u)

    pulls = [0] * n_arms
    regret = 0.0
    ck_regret = np.empty(len(pts))
    ck_pulls = np.empty((len(pts), n_arms), dtype=np.int64)
    full_regret = np.empty(horizon) if record_steps else None
    full_pulls = np.empty((horizon, n_arms), dtype=np.int64) if record_steps else None

    select = policy.select
    update = policy.update
    next_pt = 0
    pt_list = pts.tolist()
    next_pt_t = pt_list[0]

    for t in range(1, horizon + 1):
        i = t - 1
        lt = load_list[i]
        arm = select(t, lt, policy_rng)
        x = reward_of(i, arm)
        update(arm, x, policy_rng)
        pulls[arm] += 1
        if realized:
            regret += lt * (best_mean - x)
        else:
            regret += lt * gaps[arm]
        if record_steps:
            full_regret[i] = regret
            full_pulls[i] = pulls
        if t == next_pt_t:
            ck_regret[next_pt] = regret
            ck_pulls[next_pt] = pulls
            next_pt += 1
            next_pt_t = pt_list[next_pt] if next_pt < len(pt_list) else 0

    return ReplicationTrace(
        checkpoints=pts,
        regret=ck_regret,
        pulls=ck_pulls,
        full_regret=full_regret,
        full_pulls=full_pulls,
    )


#: steps per chunk of the index-policy kernel: enough to amortize the numpy
#: calls made per chunk, few enough that no horizon-long Python list is held
CHUNK = 1024


def _run_index_policy(
    bandit: BanditInstance,
    loads: np.ndarray,
    reward_model: RewardModel,
    policy: IndexPolicy,
    pts: np.ndarray,
    reward_rng: RngStream | None,
    realized: bool,
    record_steps: bool,
) -> ReplicationTrace:
    """The step kernel of the index family: the same replication as the
    per-step loop of :func:`run_once`, bit for bit.

    Chunk by chunk, the policy's exploration schedule gives each step's
    ``c_t`` (or a forced arm) and the reward model gives every arm's reward;
    the loop picks ``argmax mean + sqrt(c_t / pulls)`` (ties toward the
    lowest arm) with the same :class:`ArmState` arithmetic, and the regret
    is accumulated per chunk, in step order, from the arms it chose.
    """
    horizon, n_arms = len(loads), bandit.n_arms
    schedule = policy.exploration_schedule(loads)
    states = policy.arm_states
    means = [s.mean_reward for s in states]
    pulls = [s.pulls for s in states]
    sums = [s.sum_reward for s in states]
    gaps = np.array(bandit.gaps)
    sqrt = math.sqrt
    arm_range = range(n_arms)
    floor = -math.inf

    pulled = np.zeros(n_arms, dtype=np.int64)
    regret = 0.0
    pt_list = pts.tolist()
    ck_regret = np.empty(len(pt_list))
    ck_pulls = np.empty((len(pt_list), n_arms), dtype=np.int64)
    full_regret = np.empty(horizon) if record_steps else None
    full_pulls = np.empty((horizon, n_arms), dtype=np.int64) if record_steps else None
    next_pt = 0

    ends = sorted({n_arms, horizon, *range(CHUNK, horizon, CHUNK)})
    i0 = 0
    for i1 in ends:
        if i1 <= n_arms:  # the init round pulls arms 0..K-1 in order
            cs = list(range(-1 - i0, -1 - i1, -1))
        else:
            cs = schedule(i0, i1)
        rows = reward_model.reward_rows(i0 + 1, i1 - i0, reward_rng)
        chosen = []
        for c, row in zip(cs, rows.tolist()):
            if c < 0:  # forced pull of arm -1 - c
                arm = -1 - c
            elif c == 0.0:  # greedy: each index is its mean (max keeps the first)
                arm = means.index(max(means))
            else:
                best = floor
                for k in arm_range:
                    v = means[k] + sqrt(c / pulls[k])
                    if v > best:
                        best = v
                        arm = k
            x = row[arm]
            p = pulls[arm] + 1
            s = sums[arm] + x
            pulls[arm] = p
            sums[arm] = s
            means[arm] = s / p
            chosen.append(arm)

        arms = np.array(chosen)
        step_loads = loads[i0:i1]
        if realized:
            cost = step_loads * (bandit.best_mean - rows[np.arange(i1 - i0), arms])
        else:
            cost = step_loads * gaps[arms]
        running = np.cumsum(np.concatenate(([regret], cost)))[1:]
        regret = float(running[-1])
        if record_steps:
            full_regret[i0:i1] = running
            full_pulls[i0:i1] = pulled + np.cumsum(np.eye(n_arms, dtype=np.int64)[arms], axis=0)
        while next_pt < len(pt_list) and pt_list[next_pt] <= i1:
            j = pt_list[next_pt] - i0  # steps of this chunk up to the checkpoint
            ck_regret[next_pt] = running[j - 1]
            ck_pulls[next_pt] = pulled + np.bincount(arms[:j], minlength=n_arms)
            next_pt += 1
        pulled += np.bincount(arms, minlength=n_arms)
        i0 = i1

    for state, m, p, s in zip(states, means, pulls, sums):
        state.mean_reward, state.pulls, state.sum_reward = m, p, s
    del schedule  # its per-run arrays go before the policy keeps the loads
    policy.observe_loads(loads)
    return ReplicationTrace(
        checkpoints=pts,
        regret=ck_regret,
        pulls=ck_pulls,
        full_regret=full_regret,
        full_pulls=full_pulls,
    )


def run_experiment(
    bandit: BanditInstance,
    load_model: LoadModel,
    reward_model: RewardModel,
    policies: dict[str, Policy],
    horizon: int,
    replications: int,
    base_seed: int,
    checkpoints=None,
    realized: bool = False,
) -> dict[str, RegretTrace]:
    """Run every policy for ``replications`` independent replications and
    aggregate the checkpointed traces.

    Stream ids depend only on (base seed, policy label, replication index),
    so results are independent of execution order and of the total number of
    replications requested.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if checkpoints is None:
        checkpoints = default_checkpoints(horizon)
    pts = _validate_checkpoints(checkpoints, horizon)

    results: dict[str, RegretTrace] = {}
    for label, policy in policies.items():
        reg = np.empty((replications, len(pts)))
        pls = np.empty((replications, len(pts), bandit.n_arms), dtype=np.int64)
        for rep in range(replications):
            policy.reset()
            streams = replication_streams(base_seed, label, rep)
            trace = run_once(
                bandit,
                load_model,
                reward_model,
                policy,
                horizon,
                pts,
                streams["load"],
                streams["reward"],
                streams["policy"],
                realized=realized,
            )
            reg[rep] = trace.regret
            pls[rep] = trace.pulls
        results[label] = RegretTrace(policy=label, checkpoints=pts, regret=reg, pulls=pls)
    return results
