"""The verification sweep: every pattern against a decoded architecture.

For each :class:`~repro.failures.patterns.FailurePattern`, remove the
failed elements from the decoded
:class:`~repro.network.topology.Architecture` and check every route
requirement still holds: at least one replica with no failed node or
link, whose surviving links still clear the link-quality margins (same
tolerances as :mod:`repro.validation.checker`).  The sweep is a plain
loop: a verdict is pure-python graph and margin checking, so a worker
pool would only add overhead.  It stops at the resilience layer's
``DeadlineBudget`` and streams per-pattern verdicts through the JSONL
checkpoint format, so a killed sweep resumes, replaying completed
patterns without re-verifying them.

The ``failures.drop`` fault site fires after each verdict's checkpoint
record lands, so CI can deterministically kill a sweep mid-flight and
assert the resume path recovers every completed pattern.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.channel.metrics import bit_error_rate
from repro.failures.patterns import FailurePattern, patterns_fingerprint
from repro.failures.report import PatternResult, SurvivabilityReport
from repro.network.requirements import RequirementSet
from repro.network.topology import Architecture, Route
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.faults import maybe_fire
from repro.resilience.policy import DeadlineBudget
from repro.telemetry.metrics import counter
from repro.telemetry.trace import span
from repro.validation.checker import link_rss_dbm

#: Checkpoint kind of verification sweeps (header ``kind`` field).
CHECKPOINT_KIND = "failures"


def _replica_violation(
    arch: Architecture,
    requirements: RequirementSet,
    route: Route,
    pattern: FailurePattern,
) -> str | None:
    """Why ``route`` does not survive ``pattern`` (``None`` = intact).

    A surviving replica must lose no node/link to the pattern *and*
    still clear the link-quality margins on every remaining edge — the
    same first-principles check (and tolerances) as
    :mod:`repro.validation.checker`, evaluated on the surviving links.
    """
    for node in route.nodes:
        if node in pattern.nodes:
            return f"replica {route.nodes} loses node {node}"
    for edge in route.edges:
        if edge in pattern.links:
            return f"replica {route.nodes} loses link {edge}"
    lq = requirements.link_quality
    if lq is None:
        return None
    noise = arch.template.link_type.noise_dbm
    for u, v in route.edges:
        if u not in arch.sizing or v not in arch.sizing:
            return f"replica {route.nodes} uses unsized node"
        rss = link_rss_dbm(arch, u, v)
        if lq.min_rss_dbm is not None and rss < lq.min_rss_dbm - 1e-6:
            return (
                f"replica {route.nodes} link ({u},{v}): "
                f"RSS {rss:.1f} dBm < {lq.min_rss_dbm}"
            )
        snr = rss - noise
        if lq.min_snr_db is not None and snr < lq.min_snr_db - 1e-6:
            return (
                f"replica {route.nodes} link ({u},{v}): "
                f"SNR {snr:.1f} dB < {lq.min_snr_db}"
            )
        if lq.max_ber is not None:
            ber = bit_error_rate(snr, arch.template.link_type.modulation)
            if ber > lq.max_ber * (1 + 1e-9):
                return (
                    f"replica {route.nodes} link ({u},{v}): "
                    f"BER {ber:.2e} > {lq.max_ber:.2e}"
                )
    return None


def verify_pattern(
    arch: Architecture,
    requirements: RequirementSet,
    pattern: FailurePattern,
) -> PatternResult:
    """One pattern's verdict: which required pairs stay served.

    Coverage is the fraction of required (source, dest) pairs keeping at
    least one intact replica; a requirement the architecture never
    realized counts as disconnected (that is a validation failure the
    sweep must not mask as survivable).
    """
    start = time.perf_counter()
    with span(
        "failures.pattern",
        pattern=pattern.pattern_id, family=pattern.family,
    ) as pattern_span:
        disconnected: list[tuple[int, int]] = []
        violations: list[str] = []
        pairs = {(req.source, req.dest) for req in requirements.routes}
        for source, dest in sorted(pairs):
            replicas = arch.routes_for(source, dest)
            if not replicas:
                disconnected.append((source, dest))
                violations.append(
                    f"pair ({source},{dest}) has no realized route"
                )
                continue
            intact = 0
            for route in replicas:
                why = _replica_violation(arch, requirements, route, pattern)
                if why is None:
                    intact += 1
                else:
                    violations.append(why)
            if intact == 0:
                disconnected.append((source, dest))
        coverage = (
            1.0 if not pairs
            else (len(pairs) - len(disconnected)) / len(pairs)
        )
        survived = not disconnected
        pattern_span.set_attributes(
            survived=survived, coverage=round(coverage, 6),
        )
        return PatternResult(
            pattern_id=pattern.pattern_id,
            family=pattern.family,
            label=pattern.label,
            survived=survived,
            coverage=coverage,
            disconnected_pairs=sorted(disconnected),
            # Notes about dead replicas of still-served pairs are noise;
            # keep only the stories of the disconnected pairs.
            violations=violations if disconnected else [],
            seconds=time.perf_counter() - start,
        )


def sweep_checkpoint(
    path: str | Path,
    patterns: list[FailurePattern],
    problem: str = "",
) -> Checkpoint:
    """The checkpoint pinning a sweep's identity.

    The header meta carries the pattern-set fingerprint and the problem
    fingerprint, so a resume against a different template, requirement
    set or failures spec is refused instead of silently replaying
    another sweep's verdicts.
    """
    return Checkpoint(path, CHECKPOINT_KIND, {
        "patterns": patterns_fingerprint(patterns),
        "problem": problem,
    })


def verify_patterns(
    arch: Architecture,
    requirements: RequirementSet,
    patterns: list[FailurePattern],
    *,
    budget: DeadlineBudget | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    problem: str = "",
    stage: int = 0,
) -> SurvivabilityReport:
    """Verify every pattern against ``arch``, in order; resumable.

    ``stage`` namespaces records within one checkpoint file (the robust
    re-solve loop re-sweeps a *new* architecture each round; replaying a
    previous round's verdicts against it would be wrong).  Completed
    verdicts of the same stage are replayed as ``restored`` results and
    not re-verified.  A pattern reached after ``budget`` expired raises
    :class:`TimeoutError`; the verdicts before it are already on disk.
    """
    store: Checkpoint | None = None
    completed: dict[str, PatternResult] = {}
    if checkpoint is not None:
        store = sweep_checkpoint(checkpoint, patterns, problem)
        if resume:
            for record in store.load():
                if int(record.get("stage", 0)) != stage:
                    continue
                result = PatternResult.from_dict(record)
                result.restored = True
                completed[result.pattern_id] = result
    with span(
        "failures.sweep",
        patterns=len(patterns), restored=len(completed), stage=stage,
    ) as sweep_span:
        by_id = {p.pattern_id: p for p in patterns}
        pending = [
            p for pid, p in by_id.items() if pid not in completed
        ]
        results: dict[str, PatternResult] = dict(completed)
        for pattern in pending:
            if budget is not None and budget.expired:
                raise TimeoutError(
                    f"pattern {pattern.pattern_id} not verified: "
                    f"deadline budget exhausted"
                )
            result = verify_pattern(arch, requirements, pattern)
            results[result.pattern_id] = result
            counter(
                "failures.patterns_verified", family=result.family,
            ).inc()
            if not result.survived:
                counter(
                    "failures.patterns_violated", family=result.family,
                ).inc()
            if store is not None:
                store.append({"stage": stage, **result.to_dict()})
                # The injected kill lands *after* the record is durable,
                # mirroring kstar.abort: resume must recover this one.
                maybe_fire("failures.drop")
        ordered = [results[pid] for pid in by_id]
        report = SurvivabilityReport(results=ordered)
        sweep_span.set_attributes(
            violated=len(report.critical_patterns),
            worst_coverage=round(report.worst_coverage, 6),
        )
        return report
