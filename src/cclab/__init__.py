"""Cluster-consensus lab: simulation and condition checking for clustered
multi-agent averaging dynamics under fixed and switching topologies.

The package covers the full pipeline: structural graph predicates, stochastic
matrix analytics, driven simulation, hypothesis checking with reconciliation,
seeded instance generation, and a simplified social-learning layer on top.
"""

from .dynamics import (
    BoundReport,
    DivergenceError,
    PeriodicLimit,
    System,
    Trajectory,
    boundedness_report,
    detect_periodic_limit,
    separation_metric,
    simulate,
    z_limits,
)
from .generate import (
    GeneratorSpec,
    InfeasibleError,
    gen_common_influence_matrix,
    gen_graph_with_cluster_trees,
    gen_switching_schedule,
)
from .graph import (
    Clustering,
    cluster_spanning_tree_roots,
    is_cluster_scrambling,
)
from .learning import (
    BeliefProfile,
    BeliefRangeError,
    CulturalFlags,
    LearningRun,
    learn_simulate,
)
from .signals import PeriodicInput, SequenceInput, eval_u, partial_sum_bound
from .stochastic import (
    MatrixSchedule,
    ergodicity_coefficient,
    hajnal_diameter,
    power_limit,
    validate,
)
from .verifier import (
    HypothesisReport,
    ReconcileResult,
    Thresholds,
    check_switching,
    reconcile,
    run_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "BeliefProfile",
    "BeliefRangeError",
    "BoundReport",
    "Clustering",
    "CulturalFlags",
    "DivergenceError",
    "GeneratorSpec",
    "HypothesisReport",
    "InfeasibleError",
    "LearningRun",
    "MatrixSchedule",
    "PeriodicInput",
    "PeriodicLimit",
    "ReconcileResult",
    "SequenceInput",
    "System",
    "Thresholds",
    "Trajectory",
    "boundedness_report",
    "check_switching",
    "cluster_spanning_tree_roots",
    "detect_periodic_limit",
    "ergodicity_coefficient",
    "eval_u",
    "gen_common_influence_matrix",
    "gen_graph_with_cluster_trees",
    "gen_switching_schedule",
    "hajnal_diameter",
    "is_cluster_scrambling",
    "learn_simulate",
    "partial_sum_bound",
    "power_limit",
    "reconcile",
    "run_ensemble",
    "separation_metric",
    "simulate",
    "validate",
    "z_limits",
]
