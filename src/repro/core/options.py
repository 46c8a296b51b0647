"""The unified solve-options surface of the exploration API.

:func:`repro.explore`, :func:`repro.kstar_search` and
:func:`repro.explore_pareto` historically grew divergent keyword
surfaces for the same cross-cutting concerns — deadlines, retries,
parallelism, checkpoint/resume, failure patterns.  A
:class:`SolveOptions` is the one typed, frozen, JSON-serializable
options object all three accept (``options=``), and the same object
rides the ``repro.server`` wire protocol inside a
:class:`~repro.core.api.JobRequest` — so the in-process facade and the
HTTP service speak one dialect.

Fields that a particular entry point cannot honour are ignored there
(``checkpoint``/``resume`` apply to the sweeps and, with ``failures``,
to ``explore``'s verification sweep).  Telemetry targets are not
options: the CLI arms tracing from its own ``--trace``/``--metrics``
flags.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.resilience.policy import DeadlineBudget

@dataclass(frozen=True)
class SolveOptions:
    """Cross-cutting options for one exploration call (or service job).

    Everything here is JSON-scalar so the object round-trips through
    :meth:`to_dict`/:meth:`from_dict` unchanged — the server's job
    protocol embeds exactly this payload.
    """

    #: Wall-clock budget for the whole call (``None`` = unlimited).
    deadline_s: float | None = None
    #: Solver retry cap per backend (puts the solver under the watchdog
    #: when set, as ``deadline_s`` does).
    max_retries: int | None = None
    #: Worker count for sweeps routed through the batch runner.
    parallel: int = 1
    #: JSONL checkpoint path for sweeps (kstar / Pareto).
    checkpoint: str | None = None
    #: Replay completed work recorded in ``checkpoint`` instead of
    #: re-solving it.
    resume: bool = False
    #: Failure-pattern spec for failure-aware synthesis, e.g.
    #: ``"k-link:1,walls"`` (grammar in
    #: :func:`repro.failures.parse_failures_spec`).  When set, every
    #: synthesis solve runs the verify-then-robust-re-solve loop and the
    #: result carries a ``survivability_score``; see docs/failures.md.
    failures: str | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.parallel < 1:
            raise ValueError("parallel must be positive")
        if self.resume and self.checkpoint is None:
            raise ValueError("resume=True needs a checkpoint path")
        if self.failures is not None:
            # Fail at construction, not mid-solve: the spec grammar is
            # cheap to check and typo'd specs are the common error.
            from repro.failures.patterns import parse_failures_spec

            parse_failures_spec(self.failures)
        # Path objects are accepted for convenience; normalize so the
        # frozen value is wire-ready.
        if isinstance(self.checkpoint, Path):
            object.__setattr__(self, "checkpoint", str(self.checkpoint))

    # -- derived runtime objects -------------------------------------------

    def budget(self) -> DeadlineBudget | None:
        """A fresh :class:`DeadlineBudget` for this call's deadline
        (``None`` when unlimited)."""
        if self.deadline_s is None:
            return None
        return DeadlineBudget(self.deadline_s)

    # -- serialization ------------------------------------------------------

    def replace(self, **changes: Any) -> SolveOptions:
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (field names are the wire schema)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> SolveOptions:
        """Rebuild from :meth:`to_dict` output.

        Unknown keys raise :class:`ValueError` — the wire protocol must
        fail loudly on a client speaking a newer dialect.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"options payload must be an object, got "
                f"{type(payload).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown option field(s): {', '.join(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ValueError(f"bad options payload: {exc}") from exc


#: The neutral defaults every entry point starts from.
DEFAULT_OPTIONS = SolveOptions()
