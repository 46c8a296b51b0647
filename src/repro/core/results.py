"""Synthesis results: what an exploration run returns."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic
from repro.milp.model import ModelStats
from repro.milp.solution import Solution, SolveStatus
from repro.network.topology import Architecture
from repro.resilience.checkpoint import RestoredResult, restored_result
from repro.resilience.watchdog import SolveAttempt, attempt_counters
from repro.runtime.instrumentation import STATS_SCHEMA_VERSION, RunStats


@dataclass
class SynthesisResult:
    """Outcome of one exploration (one table row of the paper)."""

    status: SolveStatus
    architecture: Architecture | None
    solution: Solution
    model_stats: ModelStats
    encode_seconds: float
    solve_seconds: float
    encoder_name: str
    objective_terms: dict[str, float] = field(default_factory=dict)
    #: Post-hoc metrics filled by the validator (lifetime, reachability...).
    metrics: dict[str, float] = field(default_factory=dict)
    #: Runtime instrumentation: the trial's encode-cache counters.
    run_stats: RunStats | None = None
    #: Pre-solve analyzer findings (errors and warnings) that rode along;
    #: on infeasible runs these usually explain *why* (see CLI output).
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Per-attempt log of the resilient solve (empty when the solver was
    #: not wrapped in a :class:`~repro.resilience.watchdog.ResilientSolver`).
    solve_attempts: list[SolveAttempt] = field(default_factory=list)
    #: Worst-pattern coverage from failure-aware synthesis (``None``
    #: unless a failures spec drove the solve; ``1.0`` = every enumerated
    #: failure pattern leaves every route requirement served).  The full
    #: per-pattern report rides ``diagnostics`` under rule id
    #: ``failures.survivability``.
    survivability_score: float | None = None

    @property
    def degraded(self) -> bool:
        """Whether the result rests on an unproven incumbent accepted at
        a deadline (graceful degradation by the solver watchdog)."""
        return any(a.degraded for a in self.solve_attempts)

    @property
    def feasible(self) -> bool:
        """Whether a usable architecture was produced."""
        return self.architecture is not None

    @property
    def objective_value(self) -> float:
        """The solver's objective value."""
        return self.solution.objective

    @property
    def total_seconds(self) -> float:
        """Encoding plus solving time."""
        return self.encode_seconds + self.solve_seconds

    def summary(self) -> str:
        """One human-readable line (roughly a paper table row)."""
        if not self.feasible:
            line = f"{self.status.value} after {self.total_seconds:.1f}s"
            if self.diagnostics:
                line += (
                    f" ({len(self.diagnostics)} analyzer diagnostic(s); "
                    f"see result.diagnostics)"
                )
            return line
        arch = self.architecture
        parts = [
            f"{arch.node_count} nodes",
            f"${arch.dollar_cost:.0f}",
            f"{self.solve_seconds:.1f}s solve",
            f"[{self.model_stats}]",
        ]
        for key, value in self.metrics.items():
            parts.append(f"{key}={value:.3g}")
        return ", ".join(parts)

    def stats_dict(self) -> dict:
        """Structured (JSON-ready) statistics for this run.

        Combines the model-size statistics and the encode/solve seconds
        of the paper's tables with the runtime's cache counters; this is
        what the CLI emits under ``--stats-json``.
        """
        payload: dict = {
            "status": self.status.value,
            "encoder": self.encoder_name,
            "feasible": self.feasible,
            "encode_seconds": round(self.encode_seconds, 6),
            "solve_seconds": round(self.solve_seconds, 6),
            "model": {
                "num_vars": self.model_stats.num_vars,
                "num_binary": self.model_stats.num_binary,
                "num_constraints": self.model_stats.num_constraints,
                "num_nonzeros": self.model_stats.num_nonzeros,
            },
            "objective_terms": dict(self.objective_terms),
            "metrics": dict(self.metrics),
        }
        if self.feasible:
            payload["objective"] = self.objective_value
        if self.survivability_score is not None:
            payload["survivability_score"] = round(
                self.survivability_score, 6
            )
        if self.run_stats is not None:
            payload.update(self.run_stats.to_dict())
        if self.diagnostics:
            payload["diagnostics"] = [d.to_dict() for d in self.diagnostics]
        if self.solve_attempts:
            payload["resilience"] = {
                **attempt_counters(self.solve_attempts),
                "attempt_log": [a.to_dict() for a in self.solve_attempts],
            }
        return payload

    def to_dict(self) -> dict:
        """The versioned result envelope: the ``--stats-json`` payload
        under an explicit ``schema_version`` and result ``kind``.

        This is the *one* serialization of a synthesis outcome — the CLI
        emits it, checkpoints record a compact subset of it, and the
        server returns it on the wire.  Decode with :meth:`from_dict`.
        """
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "kind": "synthesis",
            **self.stats_dict(),
        }

    @staticmethod
    def from_dict(payload: dict) -> RestoredResult:
        """Decode a :meth:`to_dict` payload.

        The decoded architecture and model are not serialized, so the
        round-trip yields a
        :class:`~repro.resilience.checkpoint.RestoredResult` — status,
        objective value, objective terms and wall-clock seconds — the
        same stand-in checkpoint replay uses.  Raises
        :class:`~repro.resilience.checkpoint.CheckpointError` on a
        payload that does not round-trip.
        """
        return restored_result(payload)
