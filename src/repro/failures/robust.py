"""Robust re-solve: cut the worst failure patterns, solve again.

The separate-and-resolve scheme applied to survivability: solve the
plain synthesis MILP, sweep the decoded design against the enumerated
failure patterns (:mod:`repro.failures.sweep`), and — when patterns are
violated — add *per-pattern survivability rows* for only the worst
violated ones and re-solve, iterating to a fixpoint under a round cap.

One survivability row per (pattern, requirement) pair::

    sum(pick[k] : candidate k survives the pattern) >= 1

over the requirement's Yen candidate pool — the selected replica set
must include at least one path the pattern cannot kill.  Link quality on
that surviving path is already enforced by the base encoding's ``lq[``
rows, so the tightened model stays exact: every feasible point of the
tightened model is a feasible, pattern-surviving design of the original
problem, and the re-solve minimizes the original objective over exactly
that set.

A pattern some requirement's pool cannot survive at all (every candidate
crosses the failed wall, say) is *structurally uncoverable* at this
``k_star``: it is reported as a WARNING diagnostic instead of making the
model infeasible — raise ``k_star`` or add relay candidates to fix it.

Rounds do not chain warm starts: a round adds rows for patterns the
previous round's design fails, and those rows cut off its routes, so a
replay of them gives no start.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.core.results import SynthesisResult
from repro.failures.patterns import (
    FailurePattern,
    FailuresSpec,
    generate_patterns,
    parse_failures_spec,
)
from repro.failures.report import SurvivabilityReport
from repro.failures.sweep import verify_patterns
from repro.milp.expr import Constraint, lin_sum
from repro.milp.solution import Solution
from repro.telemetry.metrics import counter
from repro.telemetry.trace import span

if TYPE_CHECKING:
    from repro.core.explorer import BuiltProblem, ExplorerBase
    from repro.core.objectives import ObjectiveSpec
    from repro.network.topology import Architecture


def survivability_rows(
    built: BuiltProblem, pattern: FailurePattern,
) -> list[tuple[str, Constraint]] | None:
    """The rows forcing ``pattern`` to be survivable, or ``None``.

    ``None`` means some requirement's candidate pool has *no* surviving
    path — the pattern is structurally uncoverable at this ``k_star``
    and adding partial rows would tighten the model without achieving
    coverage.  Vacuous rows (every candidate survives) are omitted.
    """
    if built.encoding is None or not built.encoding.selection:
        return None
    rows: list[tuple[str, Constraint]] = []
    for block in built.encoding.selection:
        surviving = [
            block.pick[k]
            for k, path in enumerate(block.pool)
            if not pattern.kills_route(path.nodes)
        ]
        if not surviving:
            return None
        if len(surviving) == len(block.pool):
            continue
        name = (
            f"surv[{pattern.pattern_id}]:"
            f"{block.req.source}->{block.req.dest}"
        )
        rows.append((name, lin_sum(surviving) >= 1))
    return rows


def robust_solve(
    explorer: ExplorerBase,
    objective: str | dict | ObjectiveSpec = "cost",
    *,
    mutate: Callable[[BuiltProblem], None] | None = None,
) -> SynthesisResult:
    """Failure-aware synthesis: solve, verify, cut the worst, repeat.

    Driven by the explorer's ``failures`` spec (see
    :class:`~repro.failures.patterns.FailuresSpec`) and its optional
    ``floorplan`` (for geometric families), ``failures_checkpoint`` /
    ``failures_resume`` (resumable sweeps, stage-keyed per round) and
    ``failures_parallel``.  Returns a
    :class:`~repro.core.results.SynthesisResult` whose
    ``survivability_score`` is the worst pattern's coverage and whose
    diagnostics carry the full
    :class:`~repro.failures.report.SurvivabilityReport`.

    ``mutate`` lets a caller tighten the built model before the first
    solve (the Pareto sweep adds its epsilon-constraint budget row this
    way).
    """
    from repro.network.requirements import RequirementSet
    from repro.runtime.instrumentation import RunStats

    requirements = getattr(explorer, "requirements", None)
    if not isinstance(requirements, RequirementSet) or not requirements.routes:
        raise ValueError(
            "failure-aware synthesis needs route requirements; "
            "anchor-placement problems have no routes to protect"
        )
    spec = explorer.failures
    if not isinstance(spec, FailuresSpec):
        if not spec:
            raise ValueError("robust_solve() needs a failures spec")
        spec = parse_failures_spec(spec)
    patterns = generate_patterns(
        spec, explorer.template, getattr(explorer, "floorplan", None)
    )
    problem = explorer.fingerprint()

    with span(
        "failures.robust",
        patterns=len(patterns), rounds_cap=spec.rounds,
    ) as robust_span:
        stats = RunStats()
        t0 = time.perf_counter()
        built = explorer.build(objective, stats=stats)
        encode_seconds = time.perf_counter() - t0
        stats.timings.add(
            "encode",
            max(0.0, encode_seconds - stats.timings.get("analyze")),
        )
        if mutate is not None:
            mutate(built)

        report = SurvivabilityReport()
        uncoverable: set[str] = set()
        cut: set[str] = set()
        extra_diagnostics: list[Diagnostic] = []
        solution: Solution | None = None
        architecture: Architecture | None = None
        terms: dict[str, float] = {}
        solve_seconds = 0.0
        rounds = 0
        for round_no in range(1, spec.rounds + 1):
            rounds = round_no
            counter("failures.robust_rounds").inc()
            solution = explorer._solve_built(built)
            solve_seconds += solution.solve_time
            stats.timings.add("solve", solution.solve_time)
            if not solution.status.has_solution:
                architecture, terms = None, {}
                break
            architecture, terms = explorer._decode(solution, built)
            assert architecture is not None
            report = verify_patterns(
                architecture, requirements, patterns,
                parallel=getattr(explorer, "failures_parallel", 1),
                checkpoint=getattr(explorer, "failures_checkpoint", None),
                # Later rounds must re-open the sweep file in resume
                # mode: appends preserve earlier stages' records, and
                # stage namespacing keeps the replay scoped to this
                # round's verdicts.
                resume=(
                    getattr(explorer, "failures_resume", False)
                    or round_no > 1
                ),
                problem=problem,
                stage=round_no,
            )
            report.rounds = round_no
            report.uncoverable = sorted(uncoverable)
            stats.timings.add("verify", report.total_seconds)
            if report.survived_all:
                break
            added = 0
            for verdict in report.critical_patterns:
                if added >= spec.worst:
                    break
                pid = verdict.pattern_id
                if pid in cut or pid in uncoverable:
                    continue
                pattern = next(p for p in patterns if p.pattern_id == pid)
                rows = survivability_rows(built, pattern)
                if rows is None:
                    uncoverable.add(pid)
                    report.uncoverable = sorted(uncoverable)
                    extra_diagnostics.append(Diagnostic(
                        rule_id="failures.uncoverable",
                        severity=Severity.WARNING,
                        message=(
                            f"no candidate pool survives pattern "
                            f"{pid} ({pattern.label}); the robust "
                            f"re-solve cannot cover it"
                        ),
                        location=f"pattern {pid}",
                        hint=(
                            "raise k_star (a larger candidate pool "
                            "may contain a surviving path) or add "
                            "relay candidates around the failed "
                            "region"
                        ),
                        data={"pattern": pattern.to_dict()},
                    ))
                    continue
                for name, row in rows:
                    built.model.add(row, name=name)
                cut.add(pid)
                added += 1
            if added == 0:
                # Every violated pattern is uncoverable (or already cut,
                # which a fresh solve cannot change): fixpoint.
                break
            counter("failures.patterns_cut").inc(added)

        assert solution is not None
        diagnostics: list[Diagnostic] = []
        if built.analysis is not None:
            diagnostics = built.analysis.errors + built.analysis.warnings
        from repro.core.explorer import _telemetry_diagnostics

        diagnostics = (
            diagnostics + extra_diagnostics + _telemetry_diagnostics()
        )
        diagnostics.append(Diagnostic(
            rule_id="failures.survivability",
            severity=Severity.INFO,
            message=(
                f"survivability {report.score:.1%} over "
                f"{len(patterns)} pattern(s) after {rounds} round(s)"
            ),
            data={"report": report.to_dict()},
        ))
        robust_span.set_attributes(
            rounds=rounds,
            score=round(report.score, 6),
            status=solution.status.name,
        )
        return SynthesisResult(
            status=solution.status,
            architecture=architecture,
            solution=solution,
            model_stats=built.model.stats(),
            encode_seconds=encode_seconds,
            solve_seconds=solve_seconds,
            encoder_name=explorer.encoder_name,
            objective_terms=terms,
            run_stats=stats,
            diagnostics=diagnostics,
            solve_attempts=list(
                solution.extra.get("solve_attempts", ())
            ),
            survivability_score=report.score,
        )
