"""Opportunistic multi-armed bandits: simulation, load-adaptive UCB policies,
and analytic performance envelopes.

In an opportunistic bandit the regret of pulling a suboptimal arm is scaled
by an exogenous, observed load, so a policy can afford to explore when the
load is low and should exploit when it is high.  This package provides the
load-adaptive UCB policy family, classic baselines, deterministic replayable
experiment machinery, and closed-form bound evaluation for cross-checking
simulated regret curves.
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
