"""Cost/energy trade-off exploration (epsilon-constraint method).

"The tradeoff between dollar cost and energy consumption can be explored
when optimizing for a combination of objectives." — weighted sums only
reach the convex hull of the trade-off; the epsilon-constraint sweep here
recovers the full Pareto front: minimize the primary term subject to a
budget on the secondary term, sweeping the budget between the two
single-objective extremes.

The budget solves are independent of each other, so they can run on the
threads of the :class:`~repro.runtime.batch.BatchRunner`
(``options.parallel``); an explorer carrying an
:class:`~repro.runtime.cache.EncodeCache` then shares the path-loss/Yen
encode work across every sweep point.  Each budget solve is the
explorer's own build → solve → decode pipeline with the budget row
added before the first solve.

Resilience (see :mod:`repro.resilience` and docs/robustness.md): a
``budget`` (or ``options.deadline_s``) clips every solve to the sweep's
remaining wall clock; it or ``options.max_retries`` puts each solve
under the watchdog (:func:`~repro.resilience.watchdog.under_watchdog`);
``options.checkpoint`` persists the two extremes and every completed
sweep point as JSONL so a killed sweep resumes (``options.resume``)
without re-solving them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.explorer import BuiltProblem, ExplorerBase
from repro.core.options import DEFAULT_OPTIONS, SolveOptions
from repro.core.results import SynthesisResult
from repro.failures.robust import round_without_design
from repro.resilience.checkpoint import (
    Checkpoint,
    RestoredResult,
    restored_result,
)
from repro.resilience.policy import DeadlineBudget
from repro.resilience.watchdog import under_watchdog
from repro.runtime.batch import BatchRunner, Trial
from repro.runtime.instrumentation import STATS_SCHEMA_VERSION
from repro.telemetry.trace import span


@dataclass
class ParetoPoint:
    """One point of the trade-off front.

    ``result`` is a full :class:`SynthesisResult` for freshly solved
    points, or a :class:`~repro.resilience.checkpoint.RestoredResult`
    for points replayed from a checkpoint.
    """

    primary: float
    secondary: float
    secondary_budget: float
    result: SynthesisResult | RestoredResult


@dataclass
class ParetoFront:
    """The swept front, sorted by increasing primary objective."""

    primary_name: str
    secondary_name: str
    points: list[ParetoPoint]

    def knee(self) -> ParetoPoint | None:
        """The point of maximum curvature (max distance to the chord).

        A standard automatic operating-point pick: normalize both axes to
        [0, 1], draw the chord between the extremes, return the point
        farthest below it.
        """
        if len(self.points) < 3:
            return self.points[0] if self.points else None
        xs = np.array([p.primary for p in self.points], dtype=float)
        ys = np.array([p.secondary for p in self.points], dtype=float)
        x_span = max(xs.max() - xs.min(), 1e-12)
        y_span = max(ys.max() - ys.min(), 1e-12)
        xn = (xs - xs.min()) / x_span
        yn = (ys - ys.min()) / y_span
        x0, y0 = xn[0], yn[0]
        x1, y1 = xn[-1], yn[-1]
        chord = max(np.hypot(x1 - x0, y1 - y0), 1e-12)
        distance = np.abs(
            (y1 - y0) * xn - (x1 - x0) * yn + x1 * y0 - y1 * x0
        ) / chord
        return self.points[int(np.argmax(distance))]

    def to_dict(self) -> dict:
        """The versioned result envelope for a swept front.

        One codec for CLI JSON, checkpoint-style replay and the server
        wire format.  Decode with :meth:`from_dict`.
        """
        knee = self.knee()
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "kind": "pareto",
            "primary": self.primary_name,
            "secondary": self.secondary_name,
            "points": [
                {
                    "primary": p.primary,
                    "secondary": p.secondary,
                    "secondary_budget": p.secondary_budget,
                    **p.result.stats_dict(),
                }
                for p in self.points
            ],
            "knee": (
                None if knee is None
                else {"primary": knee.primary, "secondary": knee.secondary}
            ),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> ParetoFront:
        """Decode a :meth:`to_dict` payload.

        Each point comes back with a
        :class:`~repro.resilience.checkpoint.RestoredResult` (the
        architectures are not serialized).
        """
        return cls(
            primary_name=str(payload.get("primary", "cost")),
            secondary_name=str(payload.get("secondary", "energy")),
            points=[
                ParetoPoint(
                    primary=float(row["primary"]),
                    secondary=float(row["secondary"]),
                    secondary_budget=float(row["secondary_budget"]),
                    result=restored_result(row),
                )
                for row in payload.get("points", ())
            ],
        )


def explore_pareto(
    explorer: ExplorerBase,
    primary: str = "cost",
    secondary: str = "energy",
    points: int = 6,
    *,
    budget: DeadlineBudget | None = None,
    options: SolveOptions | None = None,
) -> ParetoFront:
    """Sweep the epsilon-constraint front between the two extremes.

    Solves the two single objectives first to find the secondary term's
    achievable range, then re-solves the primary objective under
    ``points`` evenly spaced budgets on the secondary term.  Infeasible
    budgets (possible at the tight end with MIP-gap slack) are skipped.

    Runtime behaviour comes in one
    :class:`~repro.core.options.SolveOptions` object.  With
    ``options.parallel > 1`` the budget solves run concurrently on
    threads, sharing the explorer's encode cache; the front is identical
    either way because each budget is an independent MILP.  A sequential sweep warm-starts each point from
    the previous point's design (:mod:`repro.accel.warmstart`); the
    extremes, the first point and parallel points start cold.

    ``options.deadline_s`` (or an explicit ``budget``) bounds the whole
    sweep; points the deadline cuts off are omitted from the front (and
    left out of the checkpoint, so a resume re-solves them) rather than
    failing the sweep.  The deadline or ``options.max_retries`` puts
    every solve under the solver watchdog for the sweep only (the
    explorer's own solver is restored afterwards, never mutated), and
    ``options.checkpoint``/``options.resume`` persist and replay the
    extremes and completed sweep points, each written the moment its
    solve lands (the checkpoint must describe the same
    primary/secondary/points triple and the same problem fingerprint).
    """
    opts = options if options is not None else DEFAULT_OPTIONS
    parallel = opts.parallel
    resume = opts.resume
    checkpoint: str | Path | None = opts.checkpoint
    if budget is None:
        budget = opts.budget()
    if points < 2:
        raise ValueError("need at least two sweep points")
    if primary == secondary:
        raise ValueError("primary and secondary objectives must differ")

    ckpt: Checkpoint | None = None
    restored_extremes: dict[str, dict] = {}
    restored_points: dict[int, dict] = {}
    if checkpoint is not None:
        fingerprint = getattr(explorer, "fingerprint", None)
        ckpt = Checkpoint(
            checkpoint, "pareto",
            {
                "primary": primary, "secondary": secondary, "points": points,
                # Pin the problem itself, not just the sweep shape, so a
                # checkpoint from a different template/requirement set is
                # refused instead of silently replayed.
                "problem": (
                    fingerprint() if callable(fingerprint) else None
                ),
            },
        )
        if resume:
            with span("checkpoint.restore", kind="pareto") as restore_span:
                for record in ckpt.load():
                    if record.get("stage") == "extreme":
                        restored_extremes[record["objective"]] = record
                    elif record.get("stage") == "point":
                        restored_points[int(record["index"])] = record
                restore_span.set_attributes(
                    extremes=len(restored_extremes),
                    points=len(restored_points),
                    path=str(checkpoint),
                )

    original_solver = explorer.solver
    original_failures = getattr(explorer, "failures", None)
    original_seed = getattr(explorer, "warm_start_architecture", None)
    explorer.solver = under_watchdog(
        original_solver, budget, opts.max_retries
    )
    # The extremes and the first point solve cold; a sequential sweep
    # then chains each point's design into the next point's warm start.
    explorer.warm_start_architecture = None
    if opts.failures is not None and original_failures is None:
        # Every front point solves failure-aware; the explorer's own
        # floorplan attribute feeds the geometric families.
        explorer.failures = opts.failures
    try:
        with span(
            "pareto.sweep",
            primary=primary,
            secondary=secondary,
            points=points,
            parallel=parallel,
        ) as sweep_span:
            front = _sweep(
                explorer, primary, secondary, points,
                parallel=parallel, budget=budget,
                ckpt=ckpt, restored_extremes=restored_extremes,
                restored_points=restored_points,
            )
            sweep_span.set_attribute("front_size", len(front.points))
            return front
    finally:
        explorer.solver = original_solver
        explorer.failures = original_failures
        explorer.warm_start_architecture = original_seed


def _sweep(
    explorer: ExplorerBase,
    primary: str,
    secondary: str,
    points: int,
    *,
    parallel: int,
    budget: DeadlineBudget | None,
    ckpt: Checkpoint | None,
    restored_extremes: dict[str, dict],
    restored_points: dict[int, dict],
) -> ParetoFront:
    # The extremes define the budget range.
    lo, hi = _extreme_range(
        explorer, primary, secondary, ckpt, restored_extremes
    )
    budgets = [float(b) for b in np.linspace(lo, hi, points)]
    pending = [
        (i, b) for i, b in enumerate(budgets) if i not in restored_points
    ]
    fresh: dict[int, ParetoPoint | None] = {}

    def finish(index: int, b: float, point: ParetoPoint | None) -> None:
        """Record a completed point the moment its solve lands, so a
        kill mid-sweep keeps every finished point on disk.  A point
        without a design that lands after the deadline ran into it
        rather than proving infeasibility: it is left out of the front
        and of the checkpoint, so a resume solves it again."""
        if point is None and budget is not None and budget.expired:
            return
        fresh[index] = point
        if ckpt is not None:
            ckpt.append(_point_record(index, b, point))

    if parallel > 1:
        # Threads keep the explorer (and its cache) shared; the MILP
        # solves release the GIL inside HiGHS.
        runner = BatchRunner(workers=parallel, budget=budget)

        def collect(outcome) -> None:
            if outcome.ok:
                index, b = pending[outcome.index]
                finish(index, b, outcome.value)

        outcomes = runner.run([
            Trial(
                _solve_budget, (explorer, primary, secondary, b),
                label=f"pareto:{secondary}<={b:.3g}",
            )
            for _, b in pending
        ], on_outcome=collect)
        for (index, _), outcome in zip(pending, outcomes):
            if outcome.ok or outcome.timed_out:
                # Deadline-expired points are simply omitted (and not
                # checkpointed, so a resume re-solves them); anything
                # else is a genuine failure the caller must see.
                continue
            raise outcome.error
    else:
        for index, b in pending:
            if budget is not None and budget.expired:
                break  # deadline spent: leave the tail for a resume
            point = _solve_budget(explorer, primary, secondary, b)
            if point is not None:
                # Adjacent budgets have similar optima: chain each
                # solved point's architecture into the next solve.
                arch = getattr(point.result, "architecture", None)
                if arch is not None:
                    explorer.warm_start_architecture = arch
            finish(index, b, point)

    solved: list[ParetoPoint | None] = []
    for index, b in enumerate(budgets):
        if index in restored_points:
            solved.append(_restore_point(restored_points[index], b))
        elif index in fresh:
            solved.append(fresh[index])

    front = ParetoFront(primary, secondary, [p for p in solved if p])
    front.points.sort(key=lambda p: (p.primary, p.secondary))
    return front


def _extreme_range(
    explorer: ExplorerBase,
    primary: str,
    secondary: str,
    ckpt: Checkpoint | None,
    restored: dict[str, dict],
) -> tuple[float, float]:
    """The secondary term's achievable [lo, hi] from the two extremes,
    replaying checkpointed extremes instead of re-solving them."""
    values: dict[str, float] = {}
    for objective in (secondary, primary):
        record = restored.get(objective)
        if record is not None:
            values[objective] = float(record["secondary_term"])
            continue
        with span("pareto.extreme", objective=objective):
            result = explorer.solve(objective)
        if objective == secondary and not result.feasible:
            raise ValueError(
                f"no feasible design exists ({secondary} extreme)"
            )
        values[objective] = result.objective_terms[secondary]
        if ckpt is not None:
            ckpt.append({
                "stage": "extreme",
                "objective": objective,
                "secondary_term": values[objective],
            })
    lo, hi = values[secondary], values[primary]
    return (hi, lo) if hi < lo else (lo, hi)


def _point_record(index: int, budget: float, point: ParetoPoint | None) -> dict:
    record: dict = {"stage": "point", "index": index, "budget": budget}
    if point is None:
        record["feasible"] = False
    else:
        record.update(
            feasible=True, primary=point.primary, secondary=point.secondary,
        )
    return record


def _restore_point(record: dict, budget: float) -> ParetoPoint | None:
    if not record.get("feasible"):
        return None
    from repro.milp.solution import SolveStatus

    return ParetoPoint(
        primary=float(record["primary"]),
        secondary=float(record["secondary"]),
        secondary_budget=budget,
        result=RestoredResult(
            status=SolveStatus.FEASIBLE,
            objective_value=float(record["primary"]),
            objective_terms={},
        ),
    )


def _solve_budget(
    explorer: ExplorerBase,
    primary: str,
    secondary: str,
    budget: float,
) -> ParetoPoint | None:
    """One epsilon-constraint solve: min primary s.t. secondary <= budget.

    The budget row joins the model before its first solve, so under
    failure-aware synthesis every robust round keeps it and every front
    point is pattern-survivable; a budget whose robust rounds end
    without a design is skipped like an infeasible one.
    """

    def budget_row(built: BuiltProblem) -> None:
        built.model.add(
            built.term(secondary) <= budget * (1 + 1e-9),
            name=f"pareto:{secondary}_budget",
        )

    with span("pareto.point", budget=budget) as point_span:
        result = explorer._solve(primary, mutate=budget_row)
        point_span.set_attribute("status", result.status.name)
        if not result.feasible or round_without_design(result):
            return None
        return ParetoPoint(
            primary=result.objective_terms[primary],
            secondary=result.objective_terms[secondary],
            secondary_budget=budget,
            result=result,
        )
