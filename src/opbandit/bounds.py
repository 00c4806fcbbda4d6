"""Closed-form performance envelopes for the load-adaptive UCB policy, for
side-by-side comparison with simulated traces.

Three scenario families are covered:

* deterministic square-wave load with fixed (Dirac) rewards: hard upper and
  lower envelopes on the number of suboptimal pulls, and the resulting
  ``eps0 * alpha * ln(t) / gap`` regret growth term;
* random binary load: the ``4 * eps0 * alpha * ln(t) * sum(1/gap_k)`` regret
  growth term (zero when the low load level is zero);
* continuous load with a single truncation threshold: the same shape with
  ``eps0`` replaced by the mean load conditioned on lying below the
  threshold.

Each envelope is stated once, by its public function, which
:func:`evaluate_bounds` calls.  Additive constants in these envelopes are
not computable from the scenario parameters and are always reported
symbolically as "+C", never as numbers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, check_alpha, check_checkpoints, check_eps, derive_stream_id, log_steps, margin_up
from .environments import (
    BetaLoad,
    BinaryRandomLoad,
    DiracReward,
    LoadModel,
    PeriodicSquareWaveLoad,
    UniformLoad,
)

__all__ = [
    "pull_rate_floor",
    "deterministic_pull_upper",
    "deterministic_pull_lower",
    "deterministic_pull_lower_curve",
    "deterministic_regret_log_term",
    "binary_regret_coeff",
    "conditional_load_mean",
    "continuous_regret_coeff",
    "pull_count_log_bound",
    "BoundReport",
    "evaluate_bounds",
]

#: default trapezoid step for the lower-envelope quadrature; it divides 1,
#: so :func:`evaluate_bounds` reads integer taus off the grid
DEFAULT_QUADRATURE_STEP = 0.25

#: stream id salt for the Monte-Carlo conditional-mean estimate
_MC_SEED = 0x0B0D_AC53


def _check_gap(gap: float) -> float:
    if not gap > 0.0:
        raise ValueError(f"gap must be > 0, got {gap}")
    return float(gap)


def pull_rate_floor(s, alpha: float, gap: float):
    """The smooth floor function h(s) whose running integral lower-bounds the
    suboptimal pull count in the deterministic square-wave scenario:

        h(s) = (alpha * ln(s) / gap^2) / (1 + sqrt(2*alpha*ln(s) / ((2s-1)*gap^2)))^2

    Vectorized over ``s`` (valid for s >= 1).
    """
    check_alpha(alpha)
    _check_gap(gap)
    s = np.asarray(s, dtype=float)
    if np.any(s < 1.0):
        raise ValueError("pull_rate_floor is defined for s >= 1")
    base = alpha * np.log(s) / gap**2
    inflation = 1.0 + np.sqrt(2.0 * alpha * np.log(s) / ((2.0 * s - 1.0) * gap**2))
    out = base / inflation**2
    return float(out) if out.ndim == 0 else out


def deterministic_pull_upper(t: int, alpha: float, gap: float) -> float:
    """Hard upper envelope on suboptimal pulls at step t (square-wave load,
    Dirac rewards): alpha * ln(t) / gap^2 + 1."""
    check_alpha(alpha)
    _check_gap(gap)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return alpha * math.log(t) / gap**2 + 1.0


def deterministic_pull_lower_curve(
    tau_max: float,
    alpha: float,
    gap: float,
    quadrature_step: float = DEFAULT_QUADRATURE_STEP,
):
    """Evaluate the lower pull envelope f on the whole grid [2, tau_max]:

        f(tau) = integral_2^tau min(h'(s), 1) ds  -  h(2)

    h' is taken by central finite differences on the quadrature grid and the
    integral by the trapezoidal rule.  Returns ``(grid, f_values)``.
    """
    check_alpha(alpha)
    _check_gap(gap)
    if tau_max < 2.0:
        raise ValueError(f"tau_max must be >= 2, got {tau_max}")
    if not 0.0 < quadrature_step <= 1.0:
        raise ValueError(
            f"quadrature step must be in (0, 1] so the difference grid stays "
            f"in the domain, got {quadrature_step}"
        )
    n = max(1, math.ceil((tau_max - 2.0) / quadrature_step - 1e-12))
    step = (tau_max - 2.0) / n
    if tau_max == 2.0:
        grid = np.array([2.0])
        h2 = pull_rate_floor(2.0, alpha, gap)
        return grid, np.array([-h2])
    grid = 2.0 + step * np.arange(n + 1)
    # extend one step past both ends so every grid point gets a central diff
    extended = 2.0 + step * np.arange(-1, n + 2)
    h = pull_rate_floor(extended, alpha, gap)
    h_prime = (h[2:] - h[:-2]) / (2.0 * step)
    integrand = np.minimum(h_prime, 1.0)
    running = np.concatenate([[0.0], np.cumsum((integrand[1:] + integrand[:-1]) * (step / 2.0))])
    h2 = pull_rate_floor(2.0, alpha, gap)
    return grid, running - h2


def deterministic_pull_lower(
    tau: float,
    alpha: float,
    gap: float,
    quadrature_step: float = DEFAULT_QUADRATURE_STEP,
) -> float:
    """Lower envelope f(tau) on suboptimal pulls by step 2*tau (square-wave
    load, Dirac rewards); f(2) = -h(2) exactly."""
    if tau < 2.0:
        raise ValueError(f"tau must be >= 2, got {tau}")
    _, values = deterministic_pull_lower_curve(tau, alpha, gap, quadrature_step)
    return float(values[-1])


def deterministic_regret_log_term(t: int, alpha: float, gap: float, eps0: float) -> float:
    """Growth term eps0 * alpha * ln(t) / gap of the deterministic-scenario
    regret envelope (the additive constant is not computable).

    Kept as a thin wrapper over :func:`deterministic_pull_upper` so the
    identity ``term = eps0 * gap * (pull_upper - 1)`` holds exactly.
    """
    check_eps("eps0", eps0)
    return eps0 * gap * (deterministic_pull_upper(t, alpha, gap) - 1.0)


def _check_gaps(gaps) -> list[float]:
    gaps = [float(g) for g in gaps]
    if not gaps:
        raise ValueError("need at least one suboptimal gap")
    for g in gaps:
        _check_gap(g)
    return gaps


def binary_regret_coeff(alpha: float, eps0: float, gaps, eps1: float | None = None) -> float:
    """Coefficient of ln(T) in the random-binary-load regret envelope:

        4 * eps0 * alpha * sum_k 1/gap_k

    ``gaps`` are the suboptimal gaps only.  The envelope guarantee needs
    alpha > 16 and sqrt(eps1/(1-eps0)) < 1/8; values outside those
    hypotheses only raise a warning because the coefficient itself is still
    well defined.  eps0 = 0 gives a zero coefficient: the bounded-regret
    regime.
    """
    check_alpha(alpha)
    check_eps("eps0", eps0)
    gaps = _check_gaps(gaps)
    if alpha <= 16.0:
        warnings.warn(
            f"alpha={alpha} is outside the range the envelope guarantee needs "
            "(alpha > 16); the coefficient is reported anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    if eps1 is not None and math.sqrt(eps1 / (1.0 - eps0)) >= 0.125:
        warnings.warn(
            f"sqrt(eps1/(1-eps0)) = {math.sqrt(eps1 / (1.0 - eps0)):.4f} >= 1/8 is outside "
            "the range the envelope guarantee needs; the coefficient is reported anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    return 4.0 * eps0 * alpha * sum(1.0 / g for g in gaps)


def conditional_load_mean(
    load_model: LoadModel,
    threshold: float,
    mc_samples: int = 1_000_000,
) -> float:
    """E[L | L <= threshold] under the load model.

    Analytic for the uniform model (threshold/2); estimated by a fixed-seed
    Monte-Carlo sample for the beta model.  Rejects thresholds with zero
    probability mass below them.
    """
    if isinstance(load_model, (UniformLoad, BetaLoad)) and not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1] for {load_model.kind} load, got {threshold}")
    if isinstance(load_model, UniformLoad):
        return threshold / 2.0
    if isinstance(load_model, BetaLoad):
        from scipy.special import betainc, betaincinv

        us = RngStream(_MC_SEED, derive_stream_id("conditional-load-mean")).random(mc_samples)
        # The costly inverse CDF runs only where its value can pass the
        # filter below.  A load betaincinv(a, b, u) is at or below the
        # threshold only if u is at or below I = betainc(a, b, threshold),
        # since the inverse CDF is non-decreasing in u.  The cut sits the
        # rounding margin above I, so every uniform whose computed load
        # passes is kept.  The mask keeps the sample's order, so ``below``
        # holds the same loads in the same order as evaluating every uniform,
        # and the same mean.
        cut = margin_up(betainc(load_model.a, load_model.b, threshold))
        draws = betaincinv(load_model.a, load_model.b, us if cut >= 1.0 else us[us <= cut])
        below = draws[draws <= threshold]
        if below.size == 0:
            raise ValueError(
                f"no probability mass at or below threshold {threshold} "
                f"(in {mc_samples} samples)"
            )
        return float(below.mean())
    raise TypeError(
        f"conditional load mean is implemented for uniform and beta loads, "
        f"not {type(load_model).__name__}"
    )


def continuous_regret_coeff(alpha: float, cond_mean: float, gaps) -> float:
    """Coefficient of ln(T) in the continuous-load, single-threshold regret
    envelope, given ``cond_mean = E[L | L <= l_minus]``
    (:func:`conditional_load_mean`), the level that takes ``eps0``'s place
    in :func:`binary_regret_coeff`:

        4 * alpha * E[L | L <= l_minus] * sum_k 1/gap_k
    """
    check_alpha(alpha)
    gaps = _check_gaps(gaps)
    return 4.0 * alpha * cond_mean * sum(1.0 / g for g in gaps)


def pull_count_log_bound(t: int, alpha: float, gap: float) -> float:
    """Logarithmic envelope on expected suboptimal pulls under random load:
    4 * alpha * ln(t) / gap^2 (additive constant not computable)."""
    check_alpha(alpha)
    _check_gap(gap)
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    return 4.0 * alpha * math.log(t) / gap**2


# ---------------------------------------------------------------------------
# Scenario-level report
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    """Evaluated envelope columns at a set of checkpoints.

    ``columns`` maps column name -> array aligned with ``checkpoints``; NaN
    marks checkpoints where an envelope is not defined (e.g. the lower pull
    envelope before step 4).  ``params`` records the scenario inputs that
    produced the numbers, including the quadrature step and, for continuous
    scenarios, the conditional load mean.  The additive constant of every
    envelope is symbolic; ``constant_note`` says so explicitly.
    """

    alpha: float
    gaps: tuple[float, ...]
    checkpoints: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    params: dict[str, float] = field(default_factory=dict)
    constant_note: str = "every envelope holds up to an additive constant +C"


def evaluate_bounds(
    bandit,
    load_model,
    reward_model,
    alpha: float,
    checkpoints,
    single_threshold: float | None = None,
) -> BoundReport:
    """Evaluate every envelope that applies to the given scenario at the
    given checkpoints.

    Column inventory (emitted only when applicable):

    * ``pull_upper`` / ``pull_lower``: hard pull envelopes for the
      2-arm deterministic square-wave scenario;
    * ``regret_log_term``: the ln(t) regret growth term of the scenario
      (deterministic, random-binary, or continuous single-threshold);
    * ``pull_log_bound_arm_<k>``: the generic 4*alpha*ln(t)/gap_k^2 pull
      envelope for each suboptimal arm (1-based labels).

    Each column is its public function at every checkpoint, with ``ln t``
    by ``math.log`` (``core.log_steps`` where a coefficient multiplies it);
    only ``pull_lower`` is read off its quadrature grid.
    """
    check_alpha(alpha)
    pts = check_checkpoints(checkpoints, np.iinfo(np.int64).max)  # no horizon: any step an int64 holds
    report = BoundReport(
        alpha=alpha,
        gaps=bandit.suboptimal_gaps(),
        checkpoints=pts,
        params={"quadrature_step": DEFAULT_QUADRATURE_STEP},
    )
    for k, gap in enumerate(bandit.gaps):
        if gap <= 0.0:  # a best arm, or one tied with it
            continue
        report.columns[f"pull_log_bound_arm_{k + 1}"] = np.array(  # defined from t = 2 on
            [pull_count_log_bound(t, alpha, gap) if t >= 2 else np.nan for t in pts.tolist()]
        )

    deterministic = isinstance(reward_model, DiracReward) and isinstance(
        load_model, PeriodicSquareWaveLoad
    )
    if deterministic and bandit.n_arms == 2:
        gap = bandit.min_gap
        report.params["eps0"] = load_model.eps0
        report.params["eps1"] = load_model.eps1
        report.columns["pull_upper"] = np.array(
            [deterministic_pull_upper(int(t), alpha, gap) for t in pts]
        )
        taus = pts // 2
        lower = np.full(len(pts), np.nan)
        ok = taus >= 2
        if np.any(ok):
            _, curve = deterministic_pull_lower_curve(float(taus.max()), alpha, gap)
            lower[ok] = curve[(taus[ok] - 2) * round(1 / DEFAULT_QUADRATURE_STEP)]
        report.columns["pull_lower"] = lower
        report.columns["regret_log_term"] = np.array(
            [deterministic_regret_log_term(int(t), alpha, gap, load_model.eps0) for t in pts]
        )
    elif isinstance(load_model, BinaryRandomLoad):
        report.params["eps0"] = load_model.eps0
        report.params["eps1"] = load_model.eps1
        report.params["rho"] = load_model.rho
        coeff = binary_regret_coeff(
            alpha, load_model.eps0, bandit.suboptimal_gaps(), eps1=load_model.eps1
        )
        report.params["regret_log_coeff"] = coeff
        report.columns["regret_log_term"] = coeff * log_steps(pts)
    elif single_threshold is not None:
        cond = conditional_load_mean(load_model, single_threshold)
        coeff = continuous_regret_coeff(alpha, cond, bandit.suboptimal_gaps())
        report.params["l_minus"] = single_threshold
        report.params["conditional_load_mean"] = cond
        report.params["regret_log_coeff"] = coeff
        report.columns["regret_log_term"] = coeff * log_steps(pts)

    return report
