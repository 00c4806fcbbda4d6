"""The experiment run loop: reveal load, let the policy pick an arm, draw the
nominal reward, update the policy, accumulate load-weighted regret.

:func:`run_once` is one loop over chunks of :data:`CHUNK` steps.  Per chunk,
the reward model gives every arm's reward (``reward_rows``), the arms are
chosen, and the regret, pull counts and checkpoints are accounted from the
chosen arms.  The arms are chosen one of three ways, by the policy's class.
The index family (``ucb``, ``adaucb``, ``eadaucb`` and ``rr-greedy``, every
:class:`~opbandit.policies.IndexPolicy`) takes the step kernel: the policy
supplies each step's exploration coefficient ``c_t`` and one argmax loop
shared by the family picks the arms.  Thompson sampling (``ts``) takes its
own kernel, which draws a chunk's policy uniforms at once.  Everything else
(``linucb``, ``oracle``, and any object that only offers ``select`` and
``update``, such as a proxy that times each call) has ``select`` and
``update`` called at every step.  That per-step way is also the reference:
each kernel chooses the arms it would, bit for bit, and leaves the policy
and its stream as it would.

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
from typing import Callable

import numpy as np
from scipy.special import betaincinv

from .core import BanditInstance, RngStream, derive_stream_id
from .environments import LoadModel, RewardModel
from .policies import IndexPolicy, Policy, ThompsonPolicy

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


#: steps per chunk of the run loop: enough to amortize the numpy calls made
#: per chunk, few enough that no horizon-long Python list is held
CHUNK = 1024


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
        choose = _index_kernel(policy, loads)
    elif isinstance(policy, ThompsonPolicy):
        choose = _thompson_kernel(policy, policy_rng)
    else:
        choose = _select_each_step(policy, n_arms, loads, policy_rng)
    gaps = np.array(bandit.gaps)

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
        rows = reward_model.reward_rows(i0 + 1, i1 - i0, reward_rng)
        if not ((rows >= 0.0) & (rows <= 1.0)).all():
            raise ValueError("nominal rewards must be in [0, 1]")
        arms = np.array(choose(i0, i1, rows.ravel().tolist()))
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

    if isinstance(policy, IndexPolicy):
        del choose  # the kernel's per-run arrays go before the policy keeps the loads
        policy.observe_loads(loads)
    return ReplicationTrace(
        checkpoints=pts,
        regret=ck_regret,
        pulls=ck_pulls,
        full_regret=full_regret,
        full_pulls=full_pulls,
    )


#: the arms chosen at steps i0+1..i1, given every arm's reward at those steps
#: as one flat list, step by step (a nested list per step costs the garbage
#: collector more than the steps): ``choose(i0, i1, rewards)``
Chooser = Callable[[int, int, list], list]


def _select_each_step(
    policy: Policy, n_arms: int, loads: np.ndarray, policy_rng: RngStream | None
) -> Chooser:
    """The reference way to choose: ``select`` and ``update`` at every step."""
    select, update = policy.select, policy.update

    def choose(i0: int, i1: int, rewards: list) -> list:
        chosen = []
        steps = zip(range(i0 + 1, i1 + 1), loads[i0:i1].tolist(), range(0, len(rewards), n_arms))
        for t, load, row in steps:
            arm = select(t, load, policy_rng)
            update(arm, rewards[row + arm], policy_rng)
            chosen.append(arm)
        return chosen

    return choose


def _index_kernel(policy: IndexPolicy, loads: np.ndarray) -> Chooser:
    """The step kernel of the index family: the arms ``select`` and
    ``update`` would choose, bit for bit, without calling them.

    The policy's exploration schedule gives each step's ``c_t`` (or a forced
    arm); the loop picks ``argmax mean + sqrt(c_t / pulls)`` (ties toward
    the lowest arm) with the same :class:`ArmState` arithmetic, and leaves
    the policy's arm statistics as the per-step calls would after each
    chunk.
    """
    n_arms = policy.n_arms
    schedule = policy.exploration_schedule(loads)
    states = policy.arm_states
    means = [s.mean_reward for s in states]
    pulls = [s.pulls for s in states]
    sums = [s.sum_reward for s in states]
    sqrt = math.sqrt
    arm_range = range(n_arms)
    floor = -math.inf

    def choose(i0: int, i1: int, rewards: list) -> list:
        if i1 <= n_arms:  # the init round pulls arms 0..K-1 in order
            cs = list(range(-1 - i0, -1 - i1, -1))
        else:
            cs = schedule(i0, i1)
        chosen = []
        for c, row in zip(cs, range(0, len(rewards), n_arms)):
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
            x = rewards[row + arm]
            p = pulls[arm] + 1
            s = sums[arm] + x
            pulls[arm] = p
            sums[arm] = s
            means[arm] = s / p
            chosen.append(arm)
        for state, m, p, s in zip(states, means, pulls, sums):
            state.mean_reward, state.pulls, state.sum_reward = m, p, s
        return chosen

    return choose


def _thompson_kernel(policy: ThompsonPolicy, policy_rng: RngStream | None) -> Chooser:
    """Thompson sampling's kernel: the arms ``select`` and ``update`` would
    choose, bit for bit, with each chunk's policy uniforms drawn at once.

    The per-step calls take 1 uniform per init step (the coin of
    ``update``), then per step K posterior uniforms and 1 coin; the kernel
    draws that many in one call and spends them in the same order, so the
    posterior (updated in place) and the stream end where the per-step
    calls would leave them.
    """
    if policy_rng is None:
        raise ValueError("Thompson sampling needs a policy stream")
    n_arms = policy.n_arms
    a, b = policy.a, policy.b
    draws = np.empty(n_arms)

    def sample_argmax(u: np.ndarray) -> int:  # ties toward the lowest arm
        return int(betaincinv(a, b, u, out=draws).argmax())

    def choose(i0: int, i1: int, rewards: list) -> list:
        if i1 <= n_arms:  # the init round pulls arms 0..K-1 in order
            arms = range(i0, i1)
            coins = policy_rng.random(i1 - i0).tolist()
        else:
            us = policy_rng.random((i1 - i0) * (n_arms + 1)).reshape(-1, n_arms + 1)
            # lazy: each step samples the posterior its predecessor updated
            arms = map(sample_argmax, us[:, :n_arms])
            coins = us[:, n_arms].tolist()
        chosen = []
        for arm, coin, row in zip(arms, coins, range(0, len(rewards), n_arms)):
            if coin < rewards[row + arm]:
                a[arm] += 1.0
            else:
                b[arm] += 1.0
            chosen.append(arm)
        return chosen

    return choose


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
