"""Load and nominal-reward generators, plus trace-file ingestion.

Models are drawn in bulk only: a load model gives the loads of a span of
steps (``sample_loads``, by default a whole run from step 1) and a reward
model every arm's rewards over a span of steps (``reward_rows``).  Every
stochastic model consumes exactly one uniform draw per time step, so a span
drawn in pieces equals the span drawn at once.  A load is an elementwise
function of its step and its uniform, so the loads of a subset of a span's
steps (``sample_loads(..., where=mask)``) equal those loads of the whole
span, bit for bit, and the stream advances as for the whole span.  Time
indices are 1-based throughout.

Each concrete class names its config ``kind`` and sits in
:data:`LOAD_KINDS` or :data:`REWARD_KINDS`; its constructor parameters are
its config keys.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import RngStream, check_eps, check_means, check_prob, margin_down, margin_up, nearest_rank, nearest_rank_quantile

__all__ = [
    "LoadModel",
    "PeriodicSquareWaveLoad",
    "BinaryRandomLoad",
    "BetaLoad",
    "UniformLoad",
    "TraceLoad",
    "SemiPeriodicLoad",
    "RewardModel",
    "DiracReward",
    "BernoulliReward",
    "TraceReward",
    "TraceData",
    "load_trace",
    "LOAD_KINDS",
    "REWARD_KINDS",
]


# ---------------------------------------------------------------------------
# Load models
# ---------------------------------------------------------------------------


class LoadModel:
    """Base class for load generators.

    Subclasses implement :meth:`_bulk`, the loads of the given steps as an
    elementwise function of each step and its one uniform (for stochastic
    models).
    """

    #: the config kind of a concrete model
    kind: str
    #: whether one uniform is consumed per step
    uses_rng: bool = True

    def sample_loads(
        self, horizon: int, rng: RngStream | None, t0: int = 1, where: np.ndarray | None = None
    ) -> np.ndarray:
        """Loads for the ``horizon`` steps t0..t0+horizon-1 as one array.

        With a boolean mask ``where`` (horizon,), only the loads at the mask
        are computed, equal to the loads without it, and the rest are 0; the
        stream takes the ``horizon`` uniforms all the same."""
        us = rng.random(horizon) if self.uses_rng else None
        if where is None:
            return self._bulk(np.arange(t0, t0 + horizon), us)
        at = np.flatnonzero(where)
        loads = np.zeros(horizon)
        loads[at] = self._bulk(at + t0, None if us is None else us[at])
        return loads

    def _bulk(self, ts: np.ndarray, us: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        """Inverse CDF of the marginal load distribution (used to resolve
        probability-style truncation thresholds)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define an analytic load quantile"
        )


@dataclass(frozen=True)
class PeriodicSquareWaveLoad(LoadModel):
    """Deterministic two-level load: ``eps0`` on even steps, ``1 - eps1`` on
    odd steps."""

    eps0: float = 0.0
    eps1: float = 0.0
    kind = "square-wave"
    uses_rng = False

    def __post_init__(self):
        check_eps("eps0", self.eps0)
        check_eps("eps1", self.eps1)

    def _bulk(self, ts: np.ndarray, us=None) -> np.ndarray:
        return np.where(ts % 2 == 0, self.eps0, 1.0 - self.eps1)


@dataclass(frozen=True)
class BinaryRandomLoad(LoadModel):
    """I.i.d. two-level load: ``eps0`` with probability ``rho``, else
    ``1 - eps1``.

    ``rho`` may sit at 0 or 1, which degenerates to a constant load (useful
    for baselines and tests).
    """

    eps0: float = 0.0
    eps1: float = 0.0
    rho: float = 0.5
    kind = "binary"

    def __post_init__(self):
        check_eps("eps0", self.eps0)
        check_eps("eps1", self.eps1)
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")

    def _bulk(self, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
        return np.where(us < self.rho, self.eps0, 1.0 - self.eps1)

    def quantile(self, p: float) -> float:
        check_prob(p)
        return self.eps0 if p <= self.rho else 1.0 - self.eps1


@dataclass(frozen=True)
class BetaLoad(LoadModel):
    """I.i.d. Beta(a, b) load on [0, 1], sampled by inverse CDF."""

    a: float = 2.0
    b: float = 2.0
    kind = "beta"

    def __post_init__(self):
        if not self.a > 0 or not self.b > 0:
            raise ValueError(f"beta shape parameters must be > 0, got ({self.a}, {self.b})")

    def _bulk(self, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
        from scipy.special import betaincinv

        return betaincinv(self.a, self.b, us)

    def quantile(self, p: float) -> float:
        from scipy.special import betaincinv

        check_prob(p)
        return float(betaincinv(self.a, self.b, p))


@dataclass(frozen=True)
class UniformLoad(LoadModel):
    """I.i.d. uniform load on [0, 1]."""

    kind = "uniform"

    def _bulk(self, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
        return us

    def quantile(self, p: float) -> float:
        check_prob(p)
        return p


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceData:
    """Parsed trace: max-scaled loads and optional per-arm nominal rewards."""

    loads: np.ndarray
    rewards: np.ndarray | None
    scale: float  # raw max the load column was divided by

    def __post_init__(self):
        object.__setattr__(self, "loads", np.asarray(self.loads, dtype=float))
        if self.rewards is not None:
            object.__setattr__(self, "rewards", np.asarray(self.rewards, dtype=float))

    @property
    def n_rows(self) -> int:
        return len(self.loads)


def load_trace(path) -> TraceData:
    """Read a trace CSV: column 1 is a nonnegative load, optional columns
    2..K+1 are per-arm nominal rewards in [0, 1].

    Loads are scaled into [0, 1] by dividing by the column maximum; reward
    columns are used verbatim.  A header row is detected and skipped.
    Malformed rows are reported with their 1-based line number.

    The numeric body is parsed by numpy's C reader and checked as a whole;
    a file it rejects or whose values fail a check is read again line by
    line (:func:`_load_trace_lines`), which names the offending line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if not _is_header(fh.readline()):
                fh.seek(0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows: read again
                body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return _load_trace_lines(path)
    loads, rewards = body[:, 0].copy(), np.ascontiguousarray(body[:, 1:])
    in_range = (loads >= 0.0).all() and ((rewards >= 0.0) & (rewards <= 1.0)).all()
    if not (len(loads) and np.isfinite(loads).all() and in_range):
        return _load_trace_lines(path)
    return _trace_data(loads, rewards if rewards.shape[1] else None)


def _is_header(line: str) -> bool:
    try:
        [float(c) for c in line.split(",")]
    except ValueError:
        return bool(line.strip())
    return False


def _load_trace_lines(path) -> TraceData:
    """:func:`load_trace` one line at a time: the reference parse, and the
    one that reports a malformed row with its line number."""
    raw_loads: list[float] = []
    raw_rewards: list[list[float]] = []
    n_cols = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"{path}: line {lineno}: non-numeric cell in {cells!r}")
            if n_cols is None:
                n_cols = len(values)
            elif len(values) != n_cols:
                raise ValueError(
                    f"{path}: line {lineno}: expected {n_cols} columns, got {len(values)}"
                )
            load = values[0]
            if not math.isfinite(load) or load < 0.0:
                raise ValueError(f"{path}: line {lineno}: load must be finite and >= 0, got {load}")
            for j, r in enumerate(values[1:], start=2):
                if not 0.0 <= r <= 1.0:
                    raise ValueError(
                        f"{path}: line {lineno}: reward column {j} value {r} outside [0, 1]"
                    )
            raw_loads.append(load)
            if n_cols > 1:
                raw_rewards.append(values[1:])
    if not raw_loads:
        raise ValueError(f"{path}: trace file contains no data rows")
    return _trace_data(np.asarray(raw_loads), np.asarray(raw_rewards) if raw_rewards else None)


def _trace_data(loads: np.ndarray, rewards: np.ndarray | None) -> TraceData:
    scale = float(loads.max())
    if scale > 0.0:
        loads = loads / scale
    return TraceData(loads=loads, rewards=rewards, scale=scale)


@dataclass(frozen=True)
class TraceLoad(LoadModel):
    """Replays the load column of a trace, wrapping around at the end."""

    data: TraceData
    kind = "trace"
    uses_rng = False

    def _bulk(self, ts: np.ndarray, us=None) -> np.ndarray:
        return self.data.loads.take(ts - 1, mode="wrap")

    def wraps(self, horizon: int) -> int:
        """How many times a run of ``horizon`` steps starts the trace again
        (at steps n+1, 2n+1, ... for n rows)."""
        return (horizon - 1) // self.data.n_rows

    @cached_property
    def _sorted_loads(self) -> np.ndarray:
        return np.sort(self.data.loads)

    def quantile(self, p: float) -> float:
        return nearest_rank_quantile(self._sorted_loads, p)


@dataclass(frozen=True)
class SemiPeriodicLoad(LoadModel):
    """Synthetic stand-in for operator traffic traces: a sinusoidal daily
    envelope modulated by multiplicative Beta noise.

    load(t) = (base + amplitude * sin(2*pi*t / period)) * Beta(noise_a, noise_b)
    """

    period: int = 288
    base: float = 0.6
    amplitude: float = 0.35
    noise_a: float = 8.0
    noise_b: float = 2.0
    kind = "semiperiodic"

    def __post_init__(self):
        if self.period < 2:
            raise ValueError("period must be >= 2")
        if not 0.0 <= self.base - self.amplitude or not self.base + self.amplitude <= 1.0:
            raise ValueError("envelope base +/- amplitude must stay within [0, 1]")
        if not self.noise_a > 0 or not self.noise_b > 0:
            raise ValueError("noise shape parameters must be > 0")

    def _envelope(self, t) -> np.ndarray:
        return self.base + self.amplitude * np.sin(2.0 * np.pi * np.asarray(t) / self.period)

    def _bulk(self, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
        from scipy.special import betaincinv

        return self._envelope(ts) * betaincinv(self.noise_a, self.noise_b, us)

    @cached_property
    def _noise_brackets(self) -> tuple[np.ndarray, np.ndarray]:
        from scipy.special import betaincinv

        # F^-1 at u = i/4096 for i = 0..4096, widened below and above (see quantile)
        grid = betaincinv(self.noise_a, self.noise_b, np.arange(4097) / 4096)
        return margin_down(grid), margin_up(grid)[1:]

    def quantile(self, p: float) -> float:
        """Empirical marginal quantile from a fixed-seed reference sample of n
        loads spanning whole periods (the marginal mixes the envelope phase):
        its nearest-rank p-quantile, the k-th smallest for k = max(1, ceil(p*n)).

        Only a few of the sample's loads are computed.  Load v = env * F^-1(u),
        F^-1 being the noise's inverse CDF, has its uniform u in
        [i/4096, (i+1)/4096) for i = floor(4096*u), exactly, since 4096 is a
        power of two.  F^-1 is non-decreasing, so a 4097-point table of it
        brackets the load: lo = env * F^-1(i/4096) <= v <= env * F^-1((i+1)/4096)
        = hi.  The table sits outside by the rounding margin of
        :func:`~opbandit.core.margin_up`; env >= 0 and products round
        monotonically, so the brackets hold for the computed loads too.  With
        L and H the k-th smallest lo and hi, the answer V lies in [L, H].  Every
        load with hi < L lies below V and every load with lo > H above it, so V
        is the (k - #{hi < L})-th smallest of the loads left in between, the
        only ones computed (15-80 of 199,872 for mvno-synthetic's model).
        """
        from scipy.special import betaincinv

        check_prob(p)
        n = max(1, 200_000 // self.period) * self.period
        k = nearest_rank(p, n)
        env = self._envelope(np.arange(1, n + 1))  # before us: its temporaries set the peak
        us = RngStream(0x5EED_10AD, 0).random(n)
        lower, upper = self._noise_brackets
        cell = (us * 4096.0).astype(np.uint16)  # floor(4096*u), u in [0, 1)

        def bracket(table: np.ndarray) -> np.ndarray:
            # one float array of n at a time keeps the peak below a full sample's
            loads = table[cell]
            loads *= env
            return loads

        lo = bracket(lower)
        lo.partition(k - 1)
        low = lo[k - 1]
        del lo
        hi = bracket(upper)
        candidate = hi >= low
        below = n - np.count_nonzero(candidate)
        hi.partition(k - 1)
        high = hi[k - 1]
        del hi
        candidate &= bracket(lower) <= high
        picked = np.flatnonzero(candidate)
        loads = env[picked] * betaincinv(self.noise_a, self.noise_b, us[picked])
        loads.partition(k - below - 1)
        return float(loads[k - below - 1])


# ---------------------------------------------------------------------------
# Reward models
# ---------------------------------------------------------------------------


class RewardModel:
    """Base class for nominal-reward generators; rewards always lie in [0, 1].

    Subclasses are frozen dataclasses that hold ``means``, the true
    expected reward of each arm, as floats checked once here.
    """

    #: the config kind of a concrete model
    kind: str
    uses_rng: bool = True
    means: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(float(u) for u in self.means))
        check_means(self.means, "reward model")

    def reward_rows(self, t0: int, n: int, rng: RngStream | None) -> np.ndarray:
        """Rewards of every arm at steps t0..t0+n-1 as an (n, K) array, from
        one uniform per step shared by the arms (for stochastic models)."""
        raise NotImplementedError


@dataclass(frozen=True)
class DiracReward(RewardModel):
    """Deterministic rewards: arm k always pays its mean."""

    means: tuple[float, ...]
    kind = "dirac"
    uses_rng = False

    def reward_rows(self, t0: int, n: int, rng=None) -> np.ndarray:
        return np.broadcast_to(self.means, (n, len(self.means)))


@dataclass(frozen=True)
class BernoulliReward(RewardModel):
    """Bernoulli rewards with per-arm success probabilities."""

    means: tuple[float, ...]
    kind = "bernoulli"

    def reward_rows(self, t0: int, n: int, rng: RngStream) -> np.ndarray:
        return np.where(rng.random(n)[:, None] < self.means, 1.0, 0.0)


@dataclass(frozen=True)
class TraceReward(RewardModel):
    """Replays per-arm reward columns of a trace, wrapping around at the end.

    The trace-wide column means serve as the true arm values for regret
    accounting.
    """

    data: TraceData
    means: tuple[float, ...] = field(init=False)
    kind = "trace"
    uses_rng = False

    def __post_init__(self):
        if self.data.rewards is None:
            raise ValueError("trace has no reward columns")
        object.__setattr__(self, "means", tuple(self.data.rewards.mean(axis=0)))
        super().__post_init__()

    def reward_rows(self, t0: int, n: int, rng=None) -> np.ndarray:
        return self.data.rewards.take(np.arange(t0 - 1, t0 - 1 + n), axis=0, mode="wrap")


LOAD_KINDS = {
    cls.kind: cls
    for cls in (PeriodicSquareWaveLoad, BinaryRandomLoad, BetaLoad, UniformLoad, TraceLoad, SemiPeriodicLoad)
}

REWARD_KINDS = {cls.kind: cls for cls in (DiracReward, BernoulliReward, TraceReward)}
