"""Arm-selection strategies behind one stateful interface.

Every policy follows the same per-step protocol:

    arm = policy.select(t, raw_load, rng)   # t is 1-based
    ...environment draws the nominal reward x for ``arm``...
    policy.update(arm, x, rng)

For the first K steps every learning policy pulls arms 0..K-1 in order (the
forced initialization round); afterwards it ranks arms by its own index or
posterior sample, breaking ties toward the lowest arm index.  Policies that
use the load normalize it themselves, so the simulator always hands over the
raw value.

The index family (:class:`IndexPolicy`: ucb, adaucb, eadaucb, rr-greedy)
can also describe a whole run up front, because its exploration coefficient
depends on the loads and never on rewards: ``exploration_schedule`` gives
every step's coefficient, a chunk at a time, to the simulator's index
step, which then needs no per-step ``select``/``update`` calls and only
reads the policy.
:class:`ThompsonPolicy` takes a fixed number of policy uniforms per step (1
during the init round, then K + 1), so the simulator's Thompson kernel
draws a chunk's uniforms at once and updates the posterior ``a``/``b`` in
place.  ``linucb`` and ``oracle`` are run through ``select``/``update``;
``linucb`` scores its closed form in plain IEEE doubles, as every policy
here does, so no choice depends on the host's BLAS build.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Callable

import numpy as np

from .core import ArmState, RngStream, Thresholds, check_alpha, check_prob, nearest_rank_quantile, normalize_load, normalize_loads

__all__ = [
    "Policy",
    "IndexPolicy",
    "AdaUcbPolicy",
    "EAdaUcbPolicy",
    "UcbPolicy",
    "ThompsonPolicy",
    "LinUcbDisjointPolicy",
    "OraclePolicy",
    "RoundRobinGreedyPolicy",
    "LoadQuantileSketch",
    "RunningQuantiles",
    "adaucb_index",
    "POLICY_KINDS",
]


def adaucb_index(state: ArmState, t: int, alpha: float, normalized_load: float) -> float:
    """Load-adaptive upper-confidence index of one arm:

        mean + sqrt(alpha * (1 - normalized_load) * ln(t) / pulls)

    At normalized load 0 this is exactly the plain UCB(alpha) index; at
    normalized load 1 the exploration term vanishes and the index equals the
    empirical mean.
    """
    if t < 2:
        raise ValueError(f"index is defined for t >= 2, got t={t}")
    if state.pulls < 1:
        raise ValueError("index requires at least one pull (run the forced init round)")
    check_alpha(alpha)
    if not 0.0 <= normalized_load <= 1.0:
        raise ValueError(f"normalized load must be in [0, 1], got {normalized_load}")
    return state.mean_reward + math.sqrt(
        alpha * (1.0 - normalized_load) * math.log(t) / state.pulls
    )


class Policy:
    """Common select/update/reset contract."""

    kind: str = "abstract"
    #: whether the arms chosen depend on the loads: a fact about the class.
    #: Where not, the simulator computes a load only where the regret reads
    #: it: at the pulls of an arm with a positive gap
    reads_loads: bool = True

    def __init__(self, n_arms: int):
        if n_arms < 2:
            raise ValueError(f"need at least 2 arms, got {n_arms}")
        self.n_arms = n_arms
        self.reset()

    def reset(self) -> None:
        """Write the policy's initial state: its only writer, which
        ``__init__`` ends with."""
        raise NotImplementedError

    def select(self, t: int, load: float, rng: RngStream | None = None) -> int:
        if t < 1:
            raise ValueError(f"time step must be >= 1, got {t}")
        self._observe_load(load)
        if t <= self.n_arms:
            return t - 1  # forced round-robin initialization
        return self._choose(t, load, rng)

    def update(self, arm: int, reward: float, rng: RngStream | None = None) -> None:
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm {arm} out of range")
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"nominal reward must be in [0, 1], got {reward}")
        self._update(arm, reward, rng)

    # hooks ---------------------------------------------------------------
    def _observe_load(self, load: float) -> None:
        pass

    def _choose(self, t: int, load: float, rng: RngStream | None) -> int:
        raise NotImplementedError

    def _update(self, arm: int, reward: float, rng: RngStream | None) -> None:
        raise NotImplementedError


#: exploration coefficients of the steps in one chunk:
#: ``schedule(i1, loads, ln_t)`` covers the ``len(loads)`` steps up to step
#: i1, given those steps' raw loads and their ln t
Schedule = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


class IndexPolicy(Policy):
    """Mean-plus-bonus policies: after the init round each step pulls

        argmax_k  mean_k + sqrt(c_t / pulls_k)     (ties toward the lowest k)

    with an exploration coefficient ``c_t`` that depends on the step and its
    load but never on rewards.  :meth:`exploration_schedule` hands the whole
    ``c_t`` sequence to the simulator's index step chunk by chunk, which
    keeps the arm statistics itself; ``select`` is the same rule one step at
    a time, on the policy's own statistics.

    Here ``c_t = alpha * (1 - ltil_t) * ln t``, with the normalized load
    ``ltil_t`` of ``_normalized`` (a step) and ``_normalizer`` (a chunk):
    the load within the truncation band :attr:`thresholds`.  Without a band
    it is 0, where the index is exactly plain UCB(alpha)'s (``1.0 - 0.0``
    is 1.0): :class:`UcbPolicy`.
    """

    #: the truncation band [l-, l+] of the normalized load; None: load 0
    thresholds: Thresholds | None = None
    #: probabilities of the running load quantiles, over all loads so far,
    #: that the schedule normalizes by (EAdaUCB's); such a schedule reads
    #: the whole run's loads up front, through a :class:`RunningQuantiles`.
    #: Any other schedule reads each chunk's loads only.
    quantile_probs: tuple[float, ...] = ()

    def reset(self) -> None:
        self.arm_states = [ArmState() for _ in range(self.n_arms)]

    def _update(self, arm: int, reward: float, rng=None) -> None:
        self.arm_states[arm].update(reward)

    def _argmax_index(self, exploration: float) -> int:
        # exploration = alpha * (1 - normalized_load) * ln(t); ties break low.
        best = -math.inf
        arm = 0
        for k, state in enumerate(self.arm_states):
            v = state.mean_reward + math.sqrt(exploration / state.pulls)
            if v > best:
                best = v
                arm = k
        return arm

    def _choose(self, t: int, load: float, rng=None) -> int:
        return self._argmax_index(self.alpha * (1.0 - self._normalized(load)) * math.log(t))

    def _normalized(self, load: float) -> float:
        thresholds = self.thresholds  # one read: EAdaUCB's reads its sketch
        return 0.0 if thresholds is None else normalize_load(load, thresholds)

    def exploration_schedule(self, quantiles: RunningQuantiles | None = None) -> Schedule:
        """``c_t = alpha * (1 - ltil_t) * ln t`` of the steps after the init
        round, as a :data:`Schedule`.  Call it on consecutive chunks from
        ``n_arms`` on; a negative entry ``-1 - k`` would force a pull of arm
        k instead.  ``quantiles``, the run's loads at :attr:`quantile_probs`,
        is read only when that is not empty."""
        normalized = self._normalizer(quantiles)
        alpha = self.alpha

        def schedule(i1: int, loads: np.ndarray, ln_t) -> np.ndarray:
            return alpha * (1.0 - normalized(i1, loads)) * ln_t

        return schedule

    def _normalizer(self, quantiles) -> Callable[[int, np.ndarray], np.ndarray]:
        """``normalized(i1, loads)``: the normalized loads of the chunk
        ending at step ``i1``."""
        band = self.thresholds
        if band is None:
            return lambda i1, loads: np.zeros(len(loads))
        return lambda i1, loads: normalize_loads(loads, band.lower, band.upper)


class UcbPolicy(IndexPolicy):
    """Plain UCB(alpha), the index at normalized load 0; ignores the load
    entirely.  alpha=2 is classic UCB1."""

    kind = "ucb"
    reads_loads = False

    def __init__(self, n_arms: int, alpha: float):
        super().__init__(n_arms)
        check_alpha(alpha)
        self.alpha = alpha


class AdaUcbPolicy(IndexPolicy):
    """UCB with a load-adaptive exploration factor alpha * (1 - normalized
    load): explores like UCB(alpha) when the load sits at the lower
    threshold and turns greedy when it reaches the upper one."""

    kind = "adaucb"

    def __init__(self, n_arms: int, alpha: float, thresholds: Thresholds):
        super().__init__(n_arms)
        check_alpha(alpha)
        self.alpha = alpha
        self.thresholds = thresholds


class LoadQuantileSketch:
    """Exact streaming quantiles over every observed load (sorted multiset).

    Quantiles follow the nearest-rank rule: the q-quantile of n values is the
    ceil(q*n)-th smallest.
    """

    def __init__(self):
        self._sorted: list[float] = []

    def __len__(self) -> int:
        return len(self._sorted)

    def insert(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"load must be finite, got {value}")
        insort(self._sorted, value)

    def quantile(self, q: float) -> float:
        if not self._sorted:
            raise ValueError("quantile of an empty sketch")
        return nearest_rank_quantile(self._sorted, q)


def _nearest_rank(q: float, n: np.ndarray) -> np.ndarray:
    # core.nearest_rank over an array of n, and 0 for n = 0
    return np.where(n > 0, np.maximum(1.0, np.ceil(q * n)), 0.0)


class RunningQuantiles:
    """Exact running nearest-rank quantiles of a load sequence known in
    advance: after each load, the values a :class:`LoadQuantileSketch` fed
    the same loads one at a time would return, without its O(n) inserts.

    The loads are argsorted once, so each owns a rank in sorted order.  Per
    probability, a bytearray marks the ranks taken in so far and a pointer
    holds the rank of the quantile.  ``k = max(1, ceil(q*n))`` grows by at
    most one per insert, so the pointer moves at most one marked rank: one
    ``bytearray.find``/``rfind``.  The loads themselves are kept only as
    sorted values and 32-bit ranks (:meth:`loads`): the simulator's chunk
    loop reads an EAdaUCB row's loads from here, a chunk at a time, and
    keeps no copy of its own.
    """

    def __init__(self, values: np.ndarray, probs: tuple[float, ...]):
        if not np.isfinite(values).all():
            raise ValueError("loads must be finite")
        n = len(values)
        order = np.argsort(values, kind="stable")
        self._sorted = values[order]
        self._ranks = np.empty(n, dtype=np.int32 if n < 2**31 else np.intp)
        self._ranks[order] = np.arange(n)
        self.probs = probs
        self._held = [bytearray(n) for _ in probs]
        self._pointer = [-1] * len(probs)
        self._seen = 0

    @staticmethod
    def held_bytes(n: int, n_probs: int) -> int:
        """The bytes an instance over n < 2**31 loads holds until it is
        dropped: per load, its sorted value (8), its rank (4) and one mark
        per probability."""
        return (12 + n_probs) * n

    def advance(self, stop: int) -> np.ndarray:
        """Take in the loads up to index ``stop`` (exclusive); one row per
        probability holds the quantile in effect after each of them."""
        start = self._seen
        seen = np.arange(start, stop)  # the loads taken in before each insert
        ranks = self._ranks[start:stop].tolist()
        out = np.empty((len(self.probs), stop - start))
        for j, q in enumerate(self.probs):
            grows = (_nearest_rank(q, seen + 1) > _nearest_rank(q, seen)).tolist()
            held = self._held[j]
            find, rfind = held.find, held.rfind
            p = self._pointer[j]
            at = []
            for r, up in zip(ranks, grows):
                held[r] = 1
                if r < p:
                    if not up:
                        p = rfind(1, 0, p)
                elif up:
                    p = find(1, p + 1)
                at.append(p)
            self._pointer[j] = p
            out[j] = self._sorted[at]
        self._seen = stop
        return out

    def loads(self, start: int, stop: int) -> np.ndarray:
        """The loads at indices start..stop-1, in run order."""
        return self._sorted[self._ranks[start:stop]]


class EAdaUcbPolicy(IndexPolicy):
    """AdaUCB with truncation thresholds tracked online as empirical load
    quantiles (recomputed each step from all loads seen so far, including the
    current one)."""

    kind = "eadaucb"

    def __init__(
        self,
        n_arms: int,
        alpha: float,
        lower_quantile: float = 0.05,
        upper_quantile: float = 0.95,
    ):
        check_alpha(alpha)
        check_prob(lower_quantile)
        check_prob(upper_quantile)
        if lower_quantile > upper_quantile:
            raise ValueError("lower_quantile must not exceed upper_quantile")
        self.alpha = alpha
        self.lower_quantile = lower_quantile
        self.upper_quantile = upper_quantile
        self.quantile_probs = (lower_quantile, upper_quantile)
        super().__init__(n_arms)  # which ends with self.reset()

    def reset(self) -> None:
        super().reset()
        self.load_sketch = LoadQuantileSketch()

    @property
    def thresholds(self) -> Thresholds:
        sketch = self.load_sketch
        return Thresholds(
            sketch.quantile(self.lower_quantile), sketch.quantile(self.upper_quantile)
        )

    def _observe_load(self, load: float) -> None:
        self.load_sketch.insert(load)

    def _normalizer(self, quantiles):
        def normalized(i1: int, loads: np.ndarray) -> np.ndarray:
            lower, upper = quantiles.advance(i1)[:, -len(loads) :]
            return normalize_loads(loads, lower, upper)

        return normalized


class ThompsonPolicy(Policy):
    """Beta-Bernoulli Thompson sampling.

    Rewards in [0, 1] are reduced to Bernoulli outcomes by an auxiliary coin
    flip with success probability equal to the reward, so the Beta posterior
    bookkeeping stays exact.
    """

    kind = "ts"
    reads_loads = False

    def reset(self) -> None:
        self.a = np.ones(self.n_arms)
        self.b = np.ones(self.n_arms)

    def _choose(self, t: int, load: float, rng: RngStream) -> int:
        draws = rng.beta(self.a, self.b, size=self.n_arms)
        return int(np.argmax(draws))

    def _update(self, arm: int, reward: float, rng: RngStream) -> None:
        if rng.random() < reward:
            self.a[arm] += 1.0
        else:
            self.b[arm] += 1.0


class LinUcbDisjointPolicy(Policy):
    """Contextual baseline: disjoint linear model per arm over the feature
    x = (1, raw_load), ridge-initialized with the identity.

    The regression target is the actual (load-weighted) reward
    raw_load * nominal_reward, which is what a context-reward view of this
    problem predicts.

    Each arm keeps five floats, ``(a00, a01, a11, b0, b1)``: its symmetric
    ridge matrix ``A`` and ``b``.  Scores are the closed form with ``A^-1``
    written out (the ridge floor keeps det away from 0), in IEEE doubles
    with no fused multiply-add, so no BLAS build can change them; the first
    maximum wins, so ties go to the lowest arm.
    """

    kind = "linucb"

    def __init__(self, n_arms: int, alpha: float):
        super().__init__(n_arms)
        check_alpha(alpha)
        self.alpha = alpha

    def reset(self) -> None:
        self.stats = [(1.0, 0.0, 1.0, 0.0, 0.0)] * self.n_arms
        self._last_load = 0.0

    @property
    def A(self) -> list[np.ndarray]:
        """Each arm's ridge matrix, as a 2x2 array."""
        return [np.array([[a00, a01], [a01, a11]]) for a00, a01, a11, _, _ in self.stats]

    def _observe_load(self, load: float) -> None:
        self._last_load = load

    def _choose(self, t: int, load: float, rng=None) -> int:
        alpha, sqrt = self.alpha, math.sqrt
        scores = []
        for a00, a01, a11, b0, b1 in self.stats:
            det = a00 * a11 - a01 * a01
            i00, i01, i11 = a11 / det, -a01 / det, a00 / det
            # x.theta + alpha * sqrt(x A^-1 x), with x = (1, load)
            score = (i00 * b0 + i01 * b1) + load * (i01 * b0 + i11 * b1)
            scores.append(score + alpha * sqrt((i00 + load * i01) + (i01 + load * i11) * load))
        return scores.index(max(scores))  # the first maximum: ties toward the lowest arm

    def _update(self, arm: int, reward: float, rng=None) -> None:
        load, (a00, a01, a11, b0, b1) = self._last_load, self.stats[arm]
        target = load * reward
        self.stats[arm] = (a00 + 1.0, a01 + load, a11 + load * load, b0 + target, b1 + target * load)


class OraclePolicy(Policy):
    """Always pulls the known best arm; the zero-regret reference.

    Exempt from the forced initialization round by design: its whole point
    is never to pull a suboptimal arm.
    """

    kind = "oracle"

    def __init__(self, n_arms: int, best_arm: int):
        super().__init__(n_arms)
        if not 0 <= best_arm < n_arms:
            raise ValueError(f"best_arm {best_arm} out of range")
        self.best_arm = best_arm

    def reset(self) -> None:
        pass

    def select(self, t: int, load: float, rng=None) -> int:
        if t < 1:
            raise ValueError(f"time step must be >= 1, got {t}")
        return self.best_arm

    def _update(self, arm: int, reward: float, rng=None) -> None:
        pass


class RoundRobinGreedyPolicy(IndexPolicy):
    """Naive opportunistic heuristic: round-robin exploration whenever the
    normalized load is exactly 0, greedy on the empirical means otherwise."""

    kind = "rr-greedy"

    def __init__(self, n_arms: int, thresholds: Thresholds):
        self.thresholds = thresholds
        super().__init__(n_arms)  # which ends with self.reset()

    def reset(self) -> None:
        super().reset()
        self._next = 0

    def _choose(self, t: int, load: float, rng=None) -> int:
        if self._normalized(load) == 0.0:
            arm = self._next
            self._next = (arm + 1) % self.n_arms
            return arm
        return self._argmax_index(0.0)  # greedy: mean + sqrt(0) is the mean

    def exploration_schedule(self, quantiles=None) -> Schedule:
        """Greedy (``c_t = 0``) on loaded slots; on free slots a forced
        pull, ``-1 - arm``, of the next arm in the round robin, which starts
        at the policy's own next arm."""
        normalized = self._normalizer(quantiles)
        n_arms, cursor = self.n_arms, self._next

        def schedule(i1: int, loads: np.ndarray, ln_t) -> np.ndarray:
            nonlocal cursor
            out = np.zeros(len(loads))
            free = np.flatnonzero(normalized(i1, loads) == 0.0)
            out[free] = -1 - (cursor + np.arange(len(free))) % n_arms
            cursor = (cursor + len(free)) % n_arms
            return out

        return schedule


POLICY_KINDS = {
    cls.kind: cls
    for cls in (
        AdaUcbPolicy,
        EAdaUcbPolicy,
        UcbPolicy,
        ThompsonPolicy,
        LinUcbDisjointPolicy,
        OraclePolicy,
        RoundRobinGreedyPolicy,
    )
}
