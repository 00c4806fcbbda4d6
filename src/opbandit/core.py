"""Domain types shared by every other module: per-arm statistics, bandit
instances, load normalization, and the deterministic random-stream contract.

Reproducibility contract
------------------------
All randomness flows through :class:`RngStream`, a thin wrapper around the
counter-based Philox4x64-10 generator keyed by ``(seed, stream_id)``.  The
same key always yields the same bit stream, on any platform and in any
execution order, which is what makes replications independently replayable
and safe to parallelize.  Continuous distributions are derived from the
uniform stream by inverse-CDF transforms only, never by rejection sampling,
so the number of uniforms consumed per draw is fixed.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArmState",
    "BanditInstance",
    "Thresholds",
    "RngStream",
    "derive_stream_id",
    "normalize_load",
    "normalize_loads",
    "binary_normalize",
    "nearest_rank_quantile",
    "default_checkpoints",
    "log_steps",
]


class ArmState:
    """Running pull count and empirical mean reward of a single arm.

    Before the first pull the mean is optimistically pinned at 1.0; the
    first observed reward replaces it entirely.
    """

    __slots__ = ("pulls", "sum_reward", "mean_reward")

    def __init__(self, pulls: int = 0, sum_reward: float = 0.0):
        if pulls < 0:
            raise ValueError(f"pulls must be >= 0, got {pulls}")
        if sum_reward < 0.0:
            raise ValueError(f"sum_reward must be >= 0, got {sum_reward}")
        self.pulls = pulls
        self.sum_reward = sum_reward
        self.mean_reward = sum_reward / pulls if pulls > 0 else 1.0

    def update(self, reward: float) -> None:
        """Fold one observed reward into the running statistics."""
        pulls = self.pulls + 1
        s = self.sum_reward + reward
        self.pulls = pulls
        self.sum_reward = s
        self.mean_reward = s / pulls

    def __repr__(self) -> str:
        return f"ArmState(pulls={self.pulls}, mean={self.mean_reward:.6g})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArmState):
            return NotImplemented
        return self.pulls == other.pulls and self.sum_reward == other.sum_reward


@dataclass(frozen=True)
class BanditInstance:
    """True expected nominal rewards of a K-armed instance, plus the derived
    optimality gaps used for pseudo-regret accounting."""

    means: tuple[float, ...]
    best_arm: int = field(init=False)
    best_mean: float = field(init=False)
    gaps: tuple[float, ...] = field(init=False)
    min_gap: float = field(init=False)

    def __post_init__(self):
        means = tuple(float(u) for u in self.means)
        check_means(means, "a bandit instance")
        best_mean = max(means)
        best_arm = means.index(best_mean)  # lowest index wins ties
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "best_arm", best_arm)
        object.__setattr__(self, "best_mean", best_mean)
        object.__setattr__(self, "gaps", tuple(best_mean - u for u in means))
        object.__setattr__(self, "min_gap", min(self.suboptimal_gaps(), default=0.0))

    @property
    def n_arms(self) -> int:
        return len(self.means)

    def suboptimal_gaps(self) -> tuple[float, ...]:
        """The positive gaps, in arm order: an arm is suboptimal when its
        gap is positive, so an arm tied with the best one is not."""
        return tuple(g for g in self.gaps if g > 0.0)


@dataclass(frozen=True)
class Thresholds:
    """Lower/upper truncation levels for load normalization.

    ``lower == upper`` is the permitted single-threshold case: normalization
    then degenerates to a step function that is 0 up to and including the
    threshold and 1 strictly above it.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("thresholds must be finite")
        if self.lower > self.upper:
            raise ValueError(
                f"lower threshold {self.lower} exceeds upper threshold {self.upper}"
            )


def check_alpha(alpha: float) -> None:
    """Reject an exploration weight alpha that is not finite and positive."""
    # written so that NaN, which fails every comparison, fails the check
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")


def check_eps(name: str, eps: float) -> None:
    """Reject a two-level load's ``eps0`` or ``eps1`` outside [0, 0.5)."""
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"{name} must be in [0, 0.5), got {eps}")


def check_prob(p: float) -> None:
    """Reject a quantile probability outside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")


def check_means(means, owner: str) -> None:
    """Reject arm means that are fewer than 2 or not each in [0, 1];
    ``owner`` names what holds them in the message."""
    if len(means) < 2:
        raise ValueError(f"{owner} needs at least 2 arms")
    for k, u in enumerate(means):
        if not math.isfinite(u) or not 0.0 <= u <= 1.0:
            raise ValueError(f"mean of arm {k} must be in [0, 1], got {u}")


def normalize_load(raw: float, thresholds: Thresholds) -> float:
    """Map a raw load onto [0, 1] by truncating to the threshold band and
    rescaling.

    Loads outside the band are clamped, never rejected.  In the degenerate
    band ``lower == upper`` the result is 0 for ``raw <= lower`` and 1
    otherwise (the jump sits strictly above the threshold).
    """
    if not math.isfinite(raw):
        raise ValueError(f"raw load must be finite, got {raw}")
    lo = thresholds.lower
    hi = thresholds.upper
    if lo == hi:
        return 0.0 if raw <= lo else 1.0
    if raw <= lo:
        return 0.0
    if raw >= hi:
        return 1.0
    return (raw - lo) / (hi - lo)


def normalize_loads(raw: np.ndarray, lower, upper) -> np.ndarray:
    """:func:`normalize_load` over an array of raw loads, elementwise and
    bit-for-bit; ``lower`` and ``upper`` may be scalars or per-element
    arrays (with ``lower <= upper``)."""
    if not np.isfinite(raw).all():
        raise ValueError("raw loads must be finite")
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = (raw - lower) / (upper - lower)
    return np.where(raw <= lower, 0.0, np.where(raw >= upper, 1.0, inside))


def binary_normalize(raw: float, eps0: float, eps1: float) -> float:
    """Normalize one of the two admissible binary load levels.

    With levels ``{eps0, 1 - eps1}`` the convention is a lower threshold at
    ``eps0`` and an upper threshold at 1, so the low level maps to 0 and the
    high level to ``1 - eps1/(1 - eps0)``.  Delegates to
    :func:`normalize_load` so the two paths agree bit-for-bit.
    """
    check_eps("eps0", eps0)
    check_eps("eps1", eps1)
    if raw != eps0 and raw != 1.0 - eps1:
        raise ValueError(
            f"raw load {raw} is not one of the admissible levels "
            f"{{{eps0}, {1.0 - eps1}}}"
        )
    return normalize_load(raw, Thresholds(eps0, 1.0))


def nearest_rank(p: float, n: int) -> int:
    """The rank k = max(1, ceil(p*n)) of the nearest-rank p-quantile of n
    values: the p-quantile is the k-th smallest."""
    return max(1, math.ceil(p * n))


def nearest_rank_quantile(values, p: float) -> float:
    """The p-quantile of sorted ``values`` by the nearest-rank rule, for p
    in (0, 1)."""
    check_prob(p)
    return float(values[nearest_rank(p, len(values)) - 1])


def margin_up(x, out=None):
    """``x (1 + 1e-6) + 1e-9``: x raised by the rounding margin, written to
    ``out`` when given (no allocation).

    A bound computed with scipy's ``betainc`` or ``betaincinv`` is moved out
    by this margin so that it holds for the computed values as it does for
    the exact ones.  Both functions round by orders of magnitude less: for
    Beta shapes up to 2e5, ``betaincinv(a, b, u)`` returns an x whose exact
    CDF is within 6e-10 u of u, and ``betainc`` is within 3e-13 of its exact
    value, relative (about 1e-15 at the load models' shapes).
    """
    return np.add(np.multiply(x, 1.0 + 1e-6, out=out), 1e-9, out=out)


def margin_down(x, out=None):
    """``x (1 - 1e-6) - 1e-9``: x lowered by the margin of :func:`margin_up`."""
    return np.subtract(np.multiply(x, 1.0 - 1e-6, out=out), 1e-9, out=out)


def default_checkpoints(horizon: int) -> np.ndarray:
    """50 log-spaced recording points (fewer once rounded) plus the horizon
    itself."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    pts = np.round(np.geomspace(1, horizon, 50))
    # the horizon comes last anyway; a float at or past it may not fit an int
    return np.append(np.unique(pts[pts < horizon].astype(int)), horizon)


def log_steps(ts) -> np.ndarray:
    """ln t for each step t of ``ts`` by ``math.log``, as ``select`` and the
    envelope functions take it, for the simulator's index step and
    ``bounds.evaluate_bounds``: ``np.log`` is not correctly rounded
    everywhere (numpy 2.4 on x86-64 differs at 8 of the t below 2e5), and
    one flipped argmax changes a run's output."""
    return np.fromiter(map(math.log, ts), dtype=float, count=len(ts))


def check_checkpoints(checkpoints, horizon: int) -> np.ndarray:
    """``checkpoints`` as an int array; rejects an empty list, and steps
    that are not whole numbers (NaN, strings and booleans included), not
    strictly increasing or outside [1, ``horizon``]."""
    steps = np.asarray(checkpoints)
    if steps.ndim != 1 or len(steps) == 0:
        raise ValueError("checkpoints must be a non-empty 1-D sequence")
    # the int cast reads "3" as 3 and True as 1, and fails on NaN (unequal to
    # itself) in numpy's words; an object array keeps each step as given
    given = np.asarray(checkpoints, dtype=object).tolist()
    if not all(isinstance(t, numbers.Real) and not isinstance(t, bool) and t == t for t in given):
        raise ValueError("checkpoints must be whole steps")
    try:
        pts = np.asarray(checkpoints, dtype=int)
    except OverflowError:  # a step no int64 holds
        raise ValueError(f"checkpoints must lie within [1, {horizon}]") from None
    if np.any(pts != steps.astype(float)):  # the int cast truncates
        raise ValueError("checkpoints must be whole steps")
    if np.any(np.diff(pts) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    if pts[0] < 1 or pts[-1] > horizon:
        raise ValueError(f"checkpoints must lie within [1, {horizon}]")
    return pts


def derive_stream_id(*parts) -> int:
    """Hash a sequence of labels (policy name, replication index, role, ...)
    into a 64-bit stream id.

    Uses BLAKE2b so ids are stable across runs, platforms, and label
    orderings of sibling streams.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update("/".join(str(p) for p in parts).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """A named, replayable stream of random draws.

    Two streams with the same ``(seed, stream_id)`` produce bit-identical
    sequences; distinct ids give statistically independent sequences because
    they select distinct Philox keys.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= stream_id < 2**64:
            raise ValueError(f"stream_id must fit in 64 bits, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        key = np.array([seed, stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def random(self, size: int | None = None):
        """Uniform float64 draws in [0, 1)."""
        return self._gen.random(size)

    def beta(self, a, b, size: int | None = None):
        """Beta draws via the inverse regularized incomplete beta function.

        Implemented as a deterministic transform of the uniform stream
        (exactly one uniform per draw), so the stream contract extends to
        beta-distributed values.
        """
        from scipy.special import betaincinv

        return betaincinv(a, b, self._gen.random(size))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
