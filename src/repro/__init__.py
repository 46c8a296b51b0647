"""repro — reproduction of "Optimized Selection of Wireless Network
Topologies and Components via Efficient Pruning of Feasible Paths"
(Kirov, Nuzzo, Passerone, Sangiovanni-Vincentelli, DAC 2018).

The package synthesizes wireless network architectures — topology, routing
and component sizing — by compiling requirement patterns into a MILP, with
the paper's approximate path encoding (Yen's K-shortest-path pruning,
Algorithm 1) making realistic sizes tractable.

Quickstart::

    import repro

    inst = repro.small_grid_template()
    reqs = repro.RequirementSet()
    for sensor in inst.sensor_ids:
        reqs.require_route(sensor, inst.sink_id, replicas=2)
    reqs.link_quality = repro.LinkQualityRequirement(min_snr_db=20.0)
    result = repro.explore(
        inst.template, repro.default_catalog(), reqs, objective="cost"
    )
    print(result.summary())
"""

from repro.accel import WarmStart, compute_warm_start
from repro.analysis import (
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Severity,
    analyze_model,
    analyze_problem,
)
from repro.core.api import (
    JobRequest,
    JobResult,
    result_from_dict,
    result_to_dict,
)
from repro.core.explorer import (
    AnchorPlacementExplorer,
    DataCollectionExplorer,
    ExplorerBase,
)
from repro.core.facade import build_explorer, explore
from repro.core.kstar import KStarSearchResult, kstar_search
from repro.core.objectives import ObjectiveSpec
from repro.core.options import SolveOptions
from repro.core.pareto import ParetoFront, ParetoPoint, explore_pareto
from repro.core.results import SynthesisResult
from repro.encoding.approximate import ApproximatePathEncoder
from repro.encoding.base import EncodingError
from repro.encoding.full import FullPathEncoder
from repro.failures import (
    FailurePattern,
    FailuresSpec,
    ResiliencyReport,
    SurvivabilityReport,
    analyze_resiliency,
    generate_patterns,
    parse_failures_spec,
    robust_solve,
    verify_patterns,
)
from repro.library.catalog import Library, default_catalog, localization_catalog
from repro.library.components import Device, device
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.highs import HighsSolver
from repro.milp.solution import SolveStatus
from repro.network.builders import (
    data_collection_template,
    localization_template,
    small_grid_template,
    synthetic_template,
)
from repro.network.requirements import (
    LifetimeRequirement,
    LinkQualityRequirement,
    PowerConfig,
    ReachabilityRequirement,
    RequirementSet,
    RouteRequirement,
    TdmaConfig,
)
from repro.network.template import NetworkNode, Template
from repro.network.topology import Architecture, Route
from repro.resilience import (
    Checkpoint,
    CheckpointError,
    DeadlineBudget,
    FaultError,
    FaultPlan,
    ResilientSolver,
    SolveAttempt,
    injected_faults,
)
from repro.runtime import BatchRunner, EncodeCache, RunStats, Trial, TrialOutcome
from repro.io import load_architecture, save_architecture
from repro.scenarios import (
    Scenario,
    ScenarioEdit,
    ScenarioRegistry,
    apply_edits,
    cold_resolve,
    default_registry,
    incremental_resolve,
    parse_edit,
)
from repro.simulation.datacollection import DataCollectionSimulator
from repro.spec.problem import compile_spec
from repro.validation.checker import ValidationReport, validate

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "AnchorPlacementExplorer",
    "ApproximatePathEncoder",
    "Architecture",
    "BatchRunner",
    "BranchAndBoundSolver",
    "Checkpoint",
    "CheckpointError",
    "DataCollectionExplorer",
    "DataCollectionSimulator",
    "DeadlineBudget",
    "Device",
    "Diagnostic",
    "EncodeCache",
    "EncodingError",
    "ExplorerBase",
    "FailurePattern",
    "FailuresSpec",
    "FaultError",
    "FaultPlan",
    "FullPathEncoder",
    "HighsSolver",
    "JobRequest",
    "JobResult",
    "KStarSearchResult",
    "Library",
    "LifetimeRequirement",
    "LinkQualityRequirement",
    "NetworkNode",
    "ObjectiveSpec",
    "ParetoFront",
    "ParetoPoint",
    "PowerConfig",
    "ReachabilityRequirement",
    "RequirementSet",
    "ResiliencyReport",
    "ResilientSolver",
    "Route",
    "RouteRequirement",
    "RunStats",
    "Scenario",
    "ScenarioEdit",
    "ScenarioRegistry",
    "Severity",
    "SolveAttempt",
    "SolveOptions",
    "SolveStatus",
    "SurvivabilityReport",
    "SynthesisResult",
    "TdmaConfig",
    "Template",
    "Trial",
    "TrialOutcome",
    "ValidationReport",
    "WarmStart",
    "analyze_model",
    "analyze_problem",
    "analyze_resiliency",
    "apply_edits",
    "build_explorer",
    "cold_resolve",
    "compile_spec",
    "compute_warm_start",
    "data_collection_template",
    "default_catalog",
    "default_registry",
    "device",
    "explore",
    "explore_pareto",
    "generate_patterns",
    "incremental_resolve",
    "injected_faults",
    "kstar_search",
    "load_architecture",
    "localization_catalog",
    "localization_template",
    "parse_edit",
    "parse_failures_spec",
    "result_from_dict",
    "result_to_dict",
    "robust_solve",
    "save_architecture",
    "small_grid_template",
    "synthetic_template",
    "validate",
    "verify_patterns",
    "__version__",
]
