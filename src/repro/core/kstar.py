"""Systematic selection of the candidate budget K* (Section 4.3).

"K* can be systematically selected by a search algorithm that generates
multiple topologies for different values of K* and terminates once the
execution time becomes higher than a predefined threshold or there is no
further improvement in the objective."

The ladder can run sequentially (solve a rung, apply the stop rules,
maybe solve the next) or speculatively in parallel on the threads of the
:class:`~repro.runtime.batch.BatchRunner` — all rungs are solved
concurrently and the *same* stop rules are then applied in ladder order,
so the selected rung, the reported trials and the stop reason match the
sequential scan exactly (only wall-clock time differs).  A shared
:class:`~repro.runtime.cache.EncodeCache` lets rungs reuse the
path-loss-weighted graph and Yen candidate pools instead of re-deriving
them per rung; those Yen queries run on the array-backed CSR kernels of
:mod:`repro.graph.kernels`.

Resilience (see :mod:`repro.resilience` and docs/robustness.md):

* ``budget`` / ``options.deadline_s`` bound the whole ladder — every
  rung's solver attempt is clipped to the remaining time and the scan
  stops with ``"deadline exhausted"`` once the budget is spent; a rung
  the deadline stops before it finds a design is dropped and left off
  the checkpoint, so a resume solves it again;
* ``options.max_retries`` (like a deadline) puts each rung's solver
  under the watchdog
  (:func:`~repro.resilience.watchdog.under_watchdog`: retry on
  ``ERROR``/crash, fallback chain, incumbent acceptance);
* ``options.checkpoint`` persists every completed rung as a JSONL
  record; with ``options.resume`` a killed ladder replays the recorded
  rungs (skipping their solves entirely) and — because the stop rules
  run over the exact recorded objectives — selects the identical best
  rung.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.core.explorer import ExplorerBase
from repro.core.options import DEFAULT_OPTIONS, SolveOptions
from repro.core.results import SynthesisResult
from repro.failures.robust import round_without_design
from repro.milp.solution import SolveStatus
from repro.resilience.checkpoint import (
    Checkpoint,
    RestoredResult,
    restored_result,
    result_record,
)
from repro.runtime.instrumentation import STATS_SCHEMA_VERSION
from repro.resilience.faults import maybe_fire
from repro.resilience.policy import DeadlineBudget
from repro.resilience.watchdog import under_watchdog
from repro.runtime.batch import BatchRunner, Trial
from repro.runtime.cache import EncodeCache
from repro.telemetry import metrics as _metrics
from repro.telemetry.trace import span

#: The paper's default ladder (Table 4) and its K* guideline range (3-10).
DEFAULT_K_LADDER = (1, 3, 5, 10, 20)


@dataclass
class KStarTrial:
    """One rung of the K* ladder.

    ``result`` is a full :class:`SynthesisResult` for freshly solved
    rungs, or a :class:`~repro.resilience.checkpoint.RestoredResult`
    for rungs replayed from a checkpoint.
    """

    k_star: int
    result: SynthesisResult | RestoredResult

    @property
    def objective(self) -> float:
        """The achieved objective value (inf when infeasible)."""
        if not self.result.feasible:
            return float("inf")
        return self.result.objective_value

    @property
    def seconds(self) -> float:
        """Total encode+solve time."""
        return self.result.total_seconds

    @property
    def restored(self) -> bool:
        """Whether this rung was replayed from a checkpoint."""
        return getattr(self.result, "restored", False)


@dataclass
class KStarSearchResult:
    """All trials plus the selected rung."""

    trials: list[KStarTrial]
    best: KStarTrial | None
    stop_reason: str
    #: Rungs that were replayed from a checkpoint instead of solved.
    restored_ks: tuple[int, ...] = field(default=())

    def table_rows(self) -> list[tuple[int, float, float]]:
        """(K*, objective, seconds) rows, the shape of Table 4."""
        return [(t.k_star, t.objective, t.seconds) for t in self.trials]

    def to_dict(self) -> dict:
        """The versioned result envelope for a whole ladder scan.

        One codec for the CLI ``--stats-json`` payload, checkpoint-style
        replay and the server wire format; non-finite objectives
        (infeasible rungs) serialize as ``null`` so the payload is
        strict JSON.  Decode with :meth:`from_dict`.
        """
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "kind": "kstar",
            "ladder": [
                {
                    "k_star": trial.k_star,
                    "objective": (
                        trial.objective
                        if math.isfinite(trial.objective) else None
                    ),
                    **trial.result.stats_dict(),
                }
                for trial in self.trials
            ],
            "selected_k_star": (
                self.best.k_star if self.best is not None else None
            ),
            "stop_reason": self.stop_reason,
            "resumed_rungs": len(self.restored_ks),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> KStarSearchResult:
        """Decode a :meth:`to_dict` payload.

        Each rung comes back as a
        :class:`~repro.resilience.checkpoint.RestoredResult` (the
        architectures are not serialized); the selected rung and stop
        reason are taken from the payload verbatim.
        """
        trials = [
            KStarTrial(k_star=int(row["k_star"]), result=restored_result(row))
            for row in payload.get("ladder", ())
        ]
        selected = payload.get("selected_k_star")
        best = next(
            (t for t in trials if t.k_star == selected), None
        )
        return cls(
            trials=trials,
            best=best,
            stop_reason=str(payload.get("stop_reason", "")),
            restored_ks=tuple(
                row["k_star"] for row in payload.get("ladder", ())
                if row.get("restored")
            ),
        )


def kstar_search(
    make_explorer: Callable[[int], ExplorerBase],
    objective: str = "cost",
    ladder: Sequence[int] = DEFAULT_K_LADDER,
    time_threshold_s: float | None = None,
    min_relative_gain: float = 1e-3,
    *,
    cache: EncodeCache | None = None,
    budget: DeadlineBudget | None = None,
    options: SolveOptions | None = None,
) -> KStarSearchResult:
    """Climb the K* ladder until time or improvement runs out.

    ``make_explorer`` builds an explorer for a given K* (so the caller
    controls template, requirements and solver).  The search stops when a
    trial exceeds ``time_threshold_s`` or fails to improve the best
    objective by at least ``min_relative_gain`` relatively; a rung that
    turns an infeasible ladder feasible always counts as an improvement.

    ``options`` is the unified :class:`~repro.core.options.SolveOptions`
    surface: with ``options.parallel > 1`` the rungs are solved
    speculatively through the runtime and the stop rules applied
    afterwards — the outcome is identical to the sequential scan, rungs
    past the stop point are simply discarded.
    A sequential scan warm-starts each rung from the last feasible
    rung's design (:mod:`repro.accel.warmstart`); parallel rungs start
    cold.
    ``options.deadline_s`` (or an explicit ``budget``) caps the ladder's
    wall clock; either it or ``options.max_retries`` puts every rung's
    solver under the watchdog
    (:func:`~repro.resilience.watchdog.under_watchdog`; a shared
    :class:`~repro.resilience.watchdog.ResilientSolver` is copied, never
    mutated).
    ``options.checkpoint`` names a JSONL file receiving one record per
    completed rung, written as each rung's solve lands (also under
    ``parallel``); ``options.resume`` replays recorded rungs instead of
    re-solving them (the file must describe the same ladder, objective
    and problem fingerprint, else
    :class:`~repro.resilience.checkpoint.CheckpointError`).
    ``cache`` is injected into every explorer that does not already
    carry one, so rungs share encode work.

    Under an armed tracer the whole scan is one ``kstar.search`` span
    with a ``kstar.rung`` child per solved rung (also across
    ``parallel`` workers) and a ``checkpoint.restore`` child when
    resuming.
    """
    opts = options if options is not None else DEFAULT_OPTIONS
    parallel = opts.parallel
    resume = opts.resume
    checkpoint: str | Path | None = opts.checkpoint
    if budget is None:
        budget = opts.budget()
    failures = opts.failures
    ladder = tuple(ladder)
    with span(
        "kstar.search",
        objective=objective,
        ladder=list(ladder),
        parallel=parallel,
        resume=resume,
    ) as search_span:
        result = _kstar_search_impl(
            make_explorer,
            objective,
            ladder,
            time_threshold_s,
            min_relative_gain,
            parallel=parallel,
            cache=cache,
            budget=budget,
            max_retries=opts.max_retries,
            checkpoint=checkpoint,
            resume=resume,
            failures=failures,
        )
        search_span.set_attributes(
            stop_reason=result.stop_reason,
            best_k=result.best.k_star if result.best is not None else None,
            trials=len(result.trials),
        )
        return result


def _kstar_search_impl(
    make_explorer: Callable[[int], ExplorerBase],
    objective: str,
    ladder: tuple[int, ...],
    time_threshold_s: float | None,
    min_relative_gain: float,
    *,
    parallel: int,
    cache: EncodeCache | None,
    budget: DeadlineBudget | None,
    max_retries: int | None,
    checkpoint: str | Path | None,
    resume: bool,
    failures: str | None = None,
) -> KStarSearchResult:
    ckpt: Checkpoint | None = None
    restored: dict[int, KStarTrial] = {}
    if checkpoint is not None:
        ckpt = Checkpoint(
            checkpoint, "kstar",
            {
                "ladder": list(ladder),
                "objective": objective,
                # Pin the checkpoint to the problem itself, not just the
                # sweep shape, so a file from a different template or
                # requirement set is refused instead of silently replayed.
                "problem": _problem_of(make_explorer(ladder[0])),
            },
        )
        if resume:
            with span("checkpoint.restore", kind="kstar") as restore_span:
                for record in ckpt.load():
                    k = int(record["k_star"])
                    restored[k] = KStarTrial(
                        k_star=k, result=restored_result(record)
                    )
                restore_span.set_attributes(
                    restored=len(restored), path=str(checkpoint)
                )

    deadline_hit = False

    def checkpointed(trial: KStarTrial) -> KStarTrial:
        if ckpt is not None:
            ckpt.append({"k_star": trial.k_star, **result_record(trial.result)})
            # Fault site "kstar.abort": simulates a kill landing right
            # after a rung checkpointed — the record above survives.
            maybe_fire("kstar.abort")
        return trial

    if parallel > 1:
        runner = BatchRunner(workers=parallel, budget=budget)
        pending = [k for k in ladder if k not in restored]
        solved: dict[int, KStarTrial] = {}
        timed_out: set[int] = set()

        def collect(outcome) -> None:
            # Checkpoint each rung the moment its solve lands, so a kill
            # mid-batch keeps every completed rung, not just the ones a
            # later scan would have consumed.  A rung that never started
            # or whose solve the deadline stopped empty-handed is not a
            # result: it stays off the checkpoint, so a resume solves it.
            if outcome.timed_out or (
                outcome.ok and _cut_off(outcome.value, budget)
            ):
                timed_out.add(pending[outcome.index])
            elif outcome.ok:
                solved[outcome.value.k_star] = checkpointed(outcome.value)

        outcomes = runner.run([
            Trial(
                _solve_rung,
                (make_explorer, k, objective, cache, budget, max_retries,
                 failures),
                label=f"kstar:K={k}",
            )
            for k in pending
        ], on_outcome=collect)

        def ordered() -> Iterator[KStarTrial]:
            nonlocal deadline_hit
            for k, outcome in zip(pending, outcomes):
                # A rung that crashed for a non-deadline reason (even
                # after the runner's retries) still aborts the search.
                if not outcome.ok and not outcome.timed_out:
                    outcome.unwrap()
            for k in ladder:
                if k in restored:
                    yield restored[k]
                elif k in timed_out:
                    # The budget ran out before this rung finished; the
                    # ladder stops here, exactly as a sequential scan
                    # that hit the deadline would.
                    deadline_hit = True
                    return
                else:
                    yield solved[k]

        trials: Iterable[KStarTrial] = ordered()
    else:

        def sequential() -> Iterator[KStarTrial]:
            nonlocal deadline_hit
            # Sequential rungs chain incumbents: each rung's feasible
            # architecture seeds the next rung's warm start (the K*-pool
            # only grows along the ladder, so the previous design stays
            # expressible).  Parallel rungs race concurrently and never
            # chain.
            previous = None
            for k in ladder:
                if k in restored:
                    yield restored[k]
                    continue
                if budget is not None and budget.expired:
                    deadline_hit = True
                    return
                trial = _solve_rung(make_explorer, k, objective, cache,
                                    budget, max_retries, failures,
                                    previous_architecture=previous)
                if _cut_off(trial, budget):
                    # Not a result: keep it off the checkpoint so a
                    # resume solves this rung again.
                    deadline_hit = True
                    return
                if trial.result.feasible:
                    previous = getattr(trial.result, "architecture", None)
                yield checkpointed(trial)

        trials = sequential()
    result = scan_ladder(
        trials,
        time_threshold_s=time_threshold_s,
        min_relative_gain=min_relative_gain,
    )
    if deadline_hit and result.stop_reason == "ladder exhausted":
        result.stop_reason = "deadline exhausted"
    result.restored_ks = tuple(
        t.k_star for t in result.trials if t.restored
    )
    return result


def _problem_of(explorer: ExplorerBase) -> str | None:
    """The explorer's problem fingerprint (``None`` for explorers that
    cannot identify their problem, e.g. hand-rolled test doubles)."""
    fingerprint = getattr(explorer, "fingerprint", None)
    return fingerprint() if callable(fingerprint) else None


def _cut_off(trial: KStarTrial, budget: DeadlineBudget | None) -> bool:
    """Whether the deadline stopped ``trial``'s solve before it found a
    design (the watchdog's status-only ``TIMEOUT``)."""
    return (
        budget is not None and budget.expired
        and trial.result.status is SolveStatus.TIMEOUT
    )


def _solve_rung(
    make_explorer: Callable[[int], ExplorerBase],
    k: int,
    objective: str,
    cache: EncodeCache | None,
    budget: DeadlineBudget | None = None,
    max_retries: int | None = None,
    failures: str | None = None,
    previous_architecture=None,
) -> KStarTrial:
    with span("kstar.rung", k=k) as rung_span:
        explorer = make_explorer(k)
        if cache is not None and getattr(explorer, "cache", None) is None:
            explorer.cache = cache
        if failures is not None and getattr(explorer, "failures", None) is None:
            # Every rung solves failure-aware; the rung's own floorplan
            # (set by make_explorer) feeds the geometric families.
            explorer.failures = failures
        if previous_architecture is not None:
            explorer.warm_start_architecture = previous_architecture
        explorer.solver = under_watchdog(
            explorer.solver, budget, max_retries
        )
        result = explorer.solve(objective)
        if (
            getattr(explorer, "failures", None) is not None
            and round_without_design(result)
        ):
            # The patterns cannot all be covered at this K*: score the
            # rung as infeasible so the ladder climbs on.
            result = replace(
                result, status=SolveStatus.INFEASIBLE, architecture=None,
                objective_terms={},
            )
        trial = KStarTrial(k_star=k, result=result)
        rung_span.set_attributes(
            feasible=trial.result.feasible, objective=trial.objective
        )
        _metrics.counter("kstar.rungs_solved").inc()
        _metrics.gauge("kstar.rung_size").set(k)
        _metrics.histogram("kstar.rung_seconds").observe(trial.seconds)
        return trial


def scan_ladder(
    trials: Iterable[KStarTrial],
    *,
    time_threshold_s: float | None = None,
    min_relative_gain: float = 1e-3,
) -> KStarSearchResult:
    """Apply the Section 4.3 stop rules to a stream of ladder trials.

    Consumes ``trials`` lazily — the sequential search hands it a
    generator so rungs past the stop point are never solved; the parallel
    search hands it already-solved rungs and discards the tail.
    """
    kept: list[KStarTrial] = []
    best: KStarTrial | None = None
    stop_reason = "ladder exhausted"
    for trial in trials:
        kept.append(trial)
        if best is None or trial.objective < best.objective:
            improved = (
                best is None
                # Turning an infeasible ladder feasible is always progress,
                # even though inf - x > gain * inf cannot hold numerically.
                or math.isinf(best.objective)
                or best.objective - trial.objective
                > min_relative_gain * max(abs(best.objective), 1e-12)
            )
            previous_best = best
            best = trial
            if previous_best is not None and not improved:
                stop_reason = "no further improvement"
                break
        elif best.result.feasible:
            stop_reason = "no further improvement"
            break
        if time_threshold_s is not None and trial.seconds > time_threshold_s:
            stop_reason = "time threshold exceeded"
            break
    return KStarSearchResult(trials=kept, best=best, stop_reason=stop_reason)
