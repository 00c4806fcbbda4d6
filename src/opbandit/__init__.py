"""Opportunistic multi-armed bandits: simulation, load-adaptive UCB policies,
and analytic performance envelopes.

In an opportunistic bandit the regret of pulling a suboptimal arm is scaled
by an exogenous, observed load, so a policy can afford to explore when the
load is low and should exploit when it is high.  This package provides the
load-adaptive UCB policy family, classic baselines, deterministic replayable
experiment machinery, and closed-form bound evaluation for cross-checking
simulated regret curves.

scipy is imported inside the functions that use it, never at module top:
``scipy.special``'s import takes about 0.23 s and 17 MiB, and a trace-driven
run with index policies calls none of it.
"""

__version__ = "0.1.0"

from .core import (
    ArmState,
    BanditInstance,
    RngStream,
    Thresholds,
    binary_normalize,
    derive_stream_id,
    normalize_load,
)

__all__ = [
    "__version__",
    "ArmState",
    "BanditInstance",
    "RngStream",
    "Thresholds",
    "binary_normalize",
    "derive_stream_id",
    "normalize_load",
]
