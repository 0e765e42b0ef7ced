"""Two-way fixed-effects estimation for balanced panels, with exact
difference decompositions, gap-restricted and covariate-adjusted
generalizations, causal-weight diagnostics, and cluster-robust inference."""

from .decomposition import (
    EquivalenceReport,
    FdComponent,
    FdDecomposition,
    PairComponent,
    PairwiseDecomposition,
    WeightedSummary,
    count_pairs,
    fd_decomposition,
    pairwise_decomposition,
    verify_equivalence,
    weighted_summary,
)
from .diagnostics import (
    SCENARIOS,
    CausalWeightReport,
    DgpConfig,
    SimulatedPanel,
    Theorem2Audit,
    causal_weights,
    scenario_preset,
    simulate,
    simulate_replication,
    theorem2_audit,
)
from .errors import NoIdentifyingVariation, PanelError
from .estimators import (
    Estimate,
    fd,
    twfe,
    twfe_iv,
    twfe_multivariate,
    two_way_residual,
)
from .generalized import (
    CovariateSpec,
    GapRange,
    GeneralizedResult,
    PretrendConfig,
    gap_restricted,
    generalized_twfe,
    pretrend_covariate,
)
from .inference import cluster_robust_se
from .numerics import pairwise_cross_moment
from .panel import BalancedPanel, PanelSchema, load_panel

__version__ = "0.1.0"

__all__ = [
    "BalancedPanel",
    "CausalWeightReport",
    "CovariateSpec",
    "DgpConfig",
    "EquivalenceReport",
    "Estimate",
    "FdComponent",
    "FdDecomposition",
    "GapRange",
    "GeneralizedResult",
    "NoIdentifyingVariation",
    "PairComponent",
    "PairwiseDecomposition",
    "PanelError",
    "PanelSchema",
    "PretrendConfig",
    "SimulatedPanel",
    "Theorem2Audit",
    "WeightedSummary",
    "causal_weights",
    "cluster_robust_se",
    "count_pairs",
    "fd",
    "fd_decomposition",
    "gap_restricted",
    "generalized_twfe",
    "load_panel",
    "pairwise_cross_moment",
    "pairwise_decomposition",
    "pretrend_covariate",
    "SCENARIOS",
    "scenario_preset",
    "simulate",
    "simulate_replication",
    "theorem2_audit",
    "twfe",
    "twfe_iv",
    "twfe_multivariate",
    "two_way_residual",
    "verify_equivalence",
    "weighted_summary",
]
