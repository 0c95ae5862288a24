"""Sequential hypothesis testing over a K-predecessor tandem of agents.

Exact chain evaluation, Monte Carlo simulation, block-schedule design,
and game-theoretic equilibrium checking for binary decisions driven by
bounded-likelihood-ratio signals.
"""

from .signals import (
    ArgumentError,
    DiscreteGeneralModel,
    ModelError,
    SignalModel,
    blr_bounds,
    likelihood_ratio,
    quantize,
)
from .schedule import AgentRole, RoleKind, segment_table
from .profiles import (
    DecisionRule,
    Profile,
    baseline_profile,
    designed_profile,
    myopic_profile,
    profile_from_dict,
    profile_from_json,
)
from .chain import (
    BlockStartChain,
    ChainDriftError,
    Trajectory,
    ZeroProbabilityError,
    block_start_masses,
    block_start_trajectory,
    brute_force_oracle,
    designed_trajectory,
    error_trajectory,
    k1_diagnostics,
    k1_error_floor,
    series_diagnostics,
    window_distributions,
)
from .montecarlo import PathStats, SimConfig, estimate_error, simulate_path
from .game import (
    EquilibriumReport,
    PayoffQuery,
    PayoffResult,
    check_equilibrium,
    payoff,
    posterior_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "AgentRole",
    "ArgumentError",
    "BlockStartChain",
    "ChainDriftError",
    "DecisionRule",
    "DiscreteGeneralModel",
    "EquilibriumReport",
    "ModelError",
    "PathStats",
    "PayoffQuery",
    "PayoffResult",
    "Profile",
    "RoleKind",
    "SignalModel",
    "SimConfig",
    "Trajectory",
    "ZeroProbabilityError",
    "baseline_profile",
    "blr_bounds",
    "block_start_masses",
    "block_start_trajectory",
    "brute_force_oracle",
    "check_equilibrium",
    "designed_profile",
    "designed_trajectory",
    "error_trajectory",
    "estimate_error",
    "k1_diagnostics",
    "k1_error_floor",
    "likelihood_ratio",
    "myopic_profile",
    "payoff",
    "posterior_sequence",
    "profile_from_dict",
    "profile_from_json",
    "quantize",
    "segment_table",
    "series_diagnostics",
    "simulate_path",
    "window_distributions",
]
