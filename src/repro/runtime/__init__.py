"""The exploration runtime: batching, encode caching, instrumentation.

``repro.runtime`` is the execution layer under every sweep in the
toolbox: :class:`BatchRunner` fans independent explorer trials out over
one thread pool (with retry-on-crash and deterministic result ordering),
:class:`EncodeCache` memoizes the encode-phase artifacts that sweeps
recompute otherwise (path-loss weighted graphs, Yen candidate pools,
anchor rankings), and :class:`RunStats` carries a trial's cache
counters into every :class:`~repro.core.results.SynthesisResult`.
"""

from repro.runtime.batch import BatchRunner, Trial, TrialOutcome
from repro.runtime.cache import (
    EncodeCache,
    build_weighted_graph,
    channel_key,
    digest,
)
from repro.runtime.instrumentation import CacheCounters, RunStats

__all__ = [
    "BatchRunner",
    "CacheCounters",
    "EncodeCache",
    "RunStats",
    "Trial",
    "TrialOutcome",
    "build_weighted_graph",
    "channel_key",
    "digest",
]
