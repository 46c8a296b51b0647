"""The top-level :func:`explore` facade.

One entry point for both problem families: hand it a template, a
component library and requirements; it picks the right explorer
(data-collection vs. anchor placement) and attaches a shared
:class:`~repro.runtime.cache.EncodeCache`.  One objective is solved
directly; a list of them fans out over the
:class:`~repro.runtime.batch.BatchRunner`'s threads.  Every result
carries runtime instrumentation.

    import repro

    result = repro.explore(template, library, requirements)
    cost, energy = repro.explore(
        template, library, requirements,
        objective=("cost", "energy"),
        options=repro.SolveOptions(parallel=2),
    )
"""

from __future__ import annotations

from repro.core.explorer import (
    AnchorPlacementExplorer,
    DataCollectionExplorer,
    ExplorerBase,
)
from repro.core.objectives import ObjectiveSpec
from repro.core.options import DEFAULT_OPTIONS, SolveOptions
from repro.core.results import SynthesisResult
from repro.milp.model import ModelStats
from repro.milp.solution import Solution, SolveStatus
from repro.encoding.approximate import ApproximatePathEncoder
from repro.library.catalog import Library
from repro.network.requirements import ReachabilityRequirement, RequirementSet
from repro.network.template import Template
from repro.resilience.policy import DeadlineBudget
from repro.resilience.watchdog import under_watchdog
from repro.runtime.batch import BatchRunner, Trial
from repro.runtime.cache import EncodeCache
from repro.telemetry.trace import span


def build_explorer(
    template: Template,
    library: Library,
    requirements: RequirementSet | ReachabilityRequirement,
    *,
    encoder=None,
    solver=None,
    channel=None,
    k_star: int | None = None,
    reach_k_star: int = 20,
    cache: EncodeCache | None = None,
    failures: str | None = None,
    plan=None,
) -> ExplorerBase:
    """The right explorer for ``requirements``.

    A bare :class:`~repro.network.requirements.ReachabilityRequirement`
    describes an anchor-placement (localization) problem and needs
    ``channel``; a :class:`~repro.network.requirements.RequirementSet`
    describes a data-collection problem (optionally dual-use, when it
    carries a reachability requirement of its own).

    ``failures`` arms failure-aware synthesis on the returned explorer
    (see :mod:`repro.failures`); ``plan`` supplies the floor plan its
    geometric pattern families (walls/regions) enumerate against.
    """
    if failures is not None and isinstance(
        requirements, ReachabilityRequirement
    ):
        raise ValueError(
            "failure-aware synthesis needs route requirements; "
            "anchor-placement problems have no routes to protect"
        )
    if isinstance(requirements, ReachabilityRequirement):
        if channel is None:
            raise ValueError(
                "an anchor-placement problem needs the channel model; "
                "pass channel= to repro.explore"
            )
        return AnchorPlacementExplorer(
            template, library, requirements, channel,
            k_star=20 if k_star is None else k_star,
            solver=solver, cache=cache,
        )
    if isinstance(requirements, RequirementSet):
        if encoder is None:
            encoder = ApproximatePathEncoder(
                k_star=10 if k_star is None else k_star
            )
        elif k_star is not None:
            raise ValueError("pass either encoder= or k_star=, not both")
        explorer = DataCollectionExplorer(
            template, library, requirements,
            encoder=encoder, solver=solver, channel=channel,
            reach_k_star=reach_k_star, cache=cache,
        )
        explorer.failures = failures
        explorer.floorplan = plan
        return explorer
    raise TypeError(
        f"requirements must be a RequirementSet or a "
        f"ReachabilityRequirement, got {type(requirements).__name__}"
    )


def explore(
    template: Template,
    library: Library,
    requirements: RequirementSet | ReachabilityRequirement,
    *,
    objective="cost",
    encoder=None,
    solver=None,
    channel=None,
    k_star: int | None = None,
    reach_k_star: int = 20,
    cache: EncodeCache | None = None,
    budget: DeadlineBudget | None = None,
    options: SolveOptions | None = None,
    plan=None,
    previous=None,
) -> SynthesisResult | list[SynthesisResult]:
    """Synthesize an architecture (or several) for a problem.

    ``objective`` is a single objective (string, weighted-term dict or
    :class:`~repro.core.objectives.ObjectiveSpec`) — returning one
    :class:`~repro.core.results.SynthesisResult` — or a sequence of them,
    returning one result per objective, solved on up to ``parallel``
    threads over a shared encode cache.

    ``k_star`` tunes the candidate pruning budget of whichever explorer
    is picked (the routing encoder's pool size, or the per-test-point
    anchor budget).  Pass a prebuilt ``cache`` to share encode work
    across calls.

    Runtime behaviour — deadline, retries, parallelism — comes in one
    :class:`~repro.core.options.SolveOptions` object::

        repro.explore(..., options=SolveOptions(deadline_s=30, parallel=2))

    ``options.deadline_s`` (or an explicit ``budget``) bounds the whole
    call's wall clock and ``options.max_retries`` caps solver retries;
    setting either puts the solver under the watchdog
    (:func:`~repro.resilience.watchdog.under_watchdog`: retry on
    ``ERROR``/crash, fallback chain, incumbent acceptance at the
    deadline — see docs/robustness.md), and each result then carries
    its per-attempt log under ``result.solve_attempts``.  A
    :class:`~repro.resilience.watchdog.ResilientSolver` passed as
    ``solver`` keeps its own settings and takes the call's budget when
    it has none of its own.  An objective
    whose solve would start after the budget is spent degrades to a
    status-only ``TIMEOUT`` result in its slot rather than raising; any
    other failure is raised.

    ``options.failures`` arms failure-aware synthesis: each solve runs
    the verify-then-robust-re-solve loop over the enumerated failure
    patterns (``plan`` supplies the floor plan for the geometric
    families) and its result carries a ``survivability_score``; with a
    failures spec, ``options.checkpoint``/``resume`` make the
    verification sweep resumable (see docs/failures.md).

    ``previous`` supplies a prior solve's
    :class:`~repro.core.results.Architecture`; every solve warm-starts
    from it (:mod:`repro.accel.warmstart`).  The incremental re-solve
    path (:mod:`repro.scenarios`) passes the unedited problem's solution
    here alongside a cache pre-seeded from its compilation.
    """
    opts = options if options is not None else DEFAULT_OPTIONS
    if (opts.checkpoint is not None or opts.resume) and opts.failures is None:
        raise ValueError(
            "explore() only checkpoints failure-verification sweeps "
            "(options.failures); use kstar_search() or explore_pareto() "
            "for resumable solve sweeps"
        )
    single = isinstance(objective, (str, dict, ObjectiveSpec))
    if opts.checkpoint is not None and not single:
        raise ValueError(
            "a failures checkpoint covers one objective's sweep; pass a "
            "single objective (or drop options.checkpoint)"
        )
    if cache is None:
        cache = EncodeCache()
    if budget is None:
        budget = opts.budget()
    solver = under_watchdog(solver, budget, opts.max_retries)
    explorer = build_explorer(
        template, library, requirements,
        encoder=encoder, solver=solver, channel=channel,
        k_star=k_star, reach_k_star=reach_k_star, cache=cache,
        failures=opts.failures, plan=plan,
    )
    explorer.warm_start_architecture = previous
    if opts.failures is not None:
        explorer.failures_checkpoint = opts.checkpoint
        explorer.failures_resume = opts.resume
    objectives = [objective] if single else list(objective)
    if not objectives:
        raise ValueError("need at least one objective")
    with span(
        "explore",
        objectives=[str(obj) for obj in objectives],
        parallel=opts.parallel,
    ):
        if single:
            if budget is not None and budget.expired:
                return _timeout_result(
                    explorer, f"trial explore:{objective} not started: "
                    f"deadline budget exhausted",
                )
            return explorer.solve(objective)
        runner = BatchRunner(workers=opts.parallel, budget=budget)
        outcomes = runner.run([
            Trial(explorer.solve, (obj,), label=f"explore:{obj}")
            for obj in objectives
        ])
    results = []
    for outcome in outcomes:
        if outcome.ok:
            results.append(outcome.value)
        elif outcome.timed_out:
            # The budget was spent before this objective's solve started:
            # degrade to a status-only TIMEOUT result.
            results.append(_timeout_result(explorer, str(outcome.error)))
        else:
            raise outcome.error
    return results


def _timeout_result(explorer: ExplorerBase, message: str) -> SynthesisResult:
    """A status-only ``TIMEOUT`` result for a solve the deadline budget
    left no time to start."""
    return SynthesisResult(
        status=SolveStatus.TIMEOUT,
        architecture=None,
        solution=Solution(status=SolveStatus.TIMEOUT, message=message),
        model_stats=ModelStats(0, 0, 0, 0),
        encode_seconds=0.0,
        solve_seconds=0.0,
        encoder_name=getattr(explorer, "encoder_name", "unknown"),
    )
