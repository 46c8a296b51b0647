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
Patterns that are coverable one at a time can still be uncoverable
together: a round whose new rows make the model infeasible ends the loop
on the previous round's design, with a WARNING naming the patterns it
cut.  That design does not survive them, so the Pareto and K* sweeps
(:func:`round_without_design`) score such a solve as infeasible.  A
round the solver gives up on (timeout, error) ends the loop with that
status and no design.

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
from repro.milp.solution import Solution, SolveStatus
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


#: Rule id of the warning a robust solve carries when it returned an
#: earlier round's design because a later round was infeasible.
ROUND_WITHOUT_DESIGN = "failures.round-without-design"


def round_without_design(result: SynthesisResult) -> bool:
    """Whether ``result`` ended on an earlier round's design because the
    rows of the patterns cut after it left no design: it does not
    survive those patterns."""
    return any(d.rule_id == ROUND_WITHOUT_DESIGN for d in result.diagnostics)


def _round_without_design_warning(
    round_no: int, patterns: list[str],
) -> Diagnostic:
    """The warning for an infeasible round after one with a design."""
    return Diagnostic(
        rule_id=ROUND_WITHOUT_DESIGN,
        severity=Severity.WARNING,
        message=(
            f"round {round_no} is infeasible once the rows of pattern(s) "
            f"{', '.join(patterns)} are added; the result is round "
            f"{round_no - 1}'s design"
        ),
        location=f"round {round_no}",
        hint=(
            "no design meets these patterns' survivability rows together "
            "at this k_star: raise k_star or add relay candidates around "
            "them"
        ),
        data={"round": round_no, "patterns": patterns},
    )


def robust_solve(
    explorer: ExplorerBase,
    objective: str | dict | ObjectiveSpec = "cost",
    *,
    mutate: Callable[[BuiltProblem], None] | None = None,
) -> SynthesisResult:
    """Failure-aware synthesis: solve, verify, cut the worst, repeat.

    Driven by the explorer's ``failures`` spec (see
    :class:`~repro.failures.patterns.FailuresSpec`) and its optional
    ``floorplan`` (for geometric families) and ``failures_checkpoint`` /
    ``failures_resume`` (resumable sweeps, stage-keyed per round).
    Returns a
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
        last_cut: list[str] = []
        for round_no in range(1, spec.rounds + 1):
            counter("failures.robust_rounds").inc()
            round_solution = explorer._solve_built(built)
            solve_seconds += round_solution.solve_time
            if (
                round_solution.status is SolveStatus.INFEASIBLE
                and solution is not None
            ):
                # Only this round's rows failed: the previous round's
                # design, terms, report and model stand.
                extra_diagnostics.append(
                    _round_without_design_warning(round_no, last_cut)
                )
                break
            rounds = round_no
            solution = round_solution
            model_stats = built.model.stats()
            if not solution.status.has_solution:
                # No round had a design, or the solver gave up on this
                # one (timeout, error): report its status, no design.
                architecture, terms = None, {}
                break
            architecture, terms = explorer._decode(solution, built)
            assert architecture is not None
            report = verify_patterns(
                architecture, requirements, patterns,
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
            if report.survived_all:
                break
            last_cut = []
            for verdict in report.critical_patterns:
                if len(last_cut) >= spec.worst:
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
                last_cut.append(pid)
            if not last_cut:
                # Every violated pattern is uncoverable (or already cut,
                # which a fresh solve cannot change): fixpoint.
                break
            counter("failures.patterns_cut").inc(len(last_cut))

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
            model_stats=model_stats,
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
