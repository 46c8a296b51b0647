"""Core explorers, objectives, results, options and the K* search."""

from repro.core.api import (
    JOB_SCHEMA_VERSION,
    JobRequest,
    JobResult,
    result_from_dict,
    result_to_dict,
)
from repro.core.explorer import (
    AnchorPlacementExplorer,
    BuiltProblem,
    DataCollectionExplorer,
    ExplorerBase,
    decode_architecture,
)
from repro.core.facade import build_explorer, explore
from repro.core.kstar import (
    DEFAULT_K_LADDER,
    KStarSearchResult,
    KStarTrial,
    kstar_search,
    scan_ladder,
)
from repro.core.objectives import ObjectiveSpec, parse_objective
from repro.core.options import DEFAULT_OPTIONS, SolveOptions
from repro.core.pareto import ParetoFront, ParetoPoint, explore_pareto
from repro.core.results import SynthesisResult

__all__ = [
    "DEFAULT_K_LADDER",
    "DEFAULT_OPTIONS",
    "JOB_SCHEMA_VERSION",
    "AnchorPlacementExplorer",
    "BuiltProblem",
    "DataCollectionExplorer",
    "ExplorerBase",
    "JobRequest",
    "JobResult",
    "KStarSearchResult",
    "KStarTrial",
    "ObjectiveSpec",
    "ParetoFront",
    "ParetoPoint",
    "SolveOptions",
    "SynthesisResult",
    "build_explorer",
    "decode_architecture",
    "explore",
    "explore_pareto",
    "kstar_search",
    "parse_objective",
    "result_from_dict",
    "result_to_dict",
    "scan_ladder",
]
