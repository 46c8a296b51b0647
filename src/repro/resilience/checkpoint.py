"""Schema-versioned JSONL checkpoints for long sweeps.

A killed K* ladder or Pareto sweep should not forfeit its completed
solves.  A :class:`Checkpoint` persists one JSON record per completed
unit of work (a ladder rung, a sweep budget) under a header that pins the
schema version, the checkpoint kind and the sweep's identity metadata;
on resume the completed records are replayed as
:class:`RestoredResult`\\ s so the selection logic runs over the exact
recorded objectives and the resumed run selects the same winner as an
uninterrupted one.

Every write rewrites the whole file to a sibling temp file and
``os.replace``\\ s it into place, so the file on disk is always a
complete, parseable snapshot — a kill between writes loses at most the
in-flight record, never the file.  Loading tolerates a truncated final
line (an interrupted non-atomic copy); any other damage — a mangled
interior record, a bad header, mismatched identity metadata — raises the
typed :class:`CheckpointError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.milp.solution import SolveStatus
from repro.resilience import faults

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is unusable (corrupt, wrong kind, wrong meta)."""


@dataclass
class RestoredResult:
    """Stand-in for a :class:`~repro.core.results.SynthesisResult` whose
    solve was recorded in a checkpoint.

    Carries exactly what the sweeps' selection rules consume — status,
    objective value, wall-clock seconds — plus ``restored=True`` so
    reports can tell replayed rungs from fresh ones.  The decoded
    architecture is not checkpointed; re-solve the selected rung (its
    encode work is cache-hot) when the design itself is needed.
    """

    status: SolveStatus
    objective_value: float = float("nan")
    total_seconds: float = 0.0
    objective_terms: dict[str, float] = field(default_factory=dict)
    restored: bool = True
    architecture: Any = None

    @property
    def feasible(self) -> bool:
        """Whether the recorded solve produced a usable design."""
        return self.status.has_solution

    def stats_dict(self) -> dict:
        """JSON-ready statistics (mirrors ``SynthesisResult.stats_dict``)."""
        payload: dict = {
            "status": self.status.value,
            "feasible": self.feasible,
            "restored": True,
            "total_seconds": round(self.total_seconds, 6),
        }
        if self.feasible:
            payload["objective"] = self.objective_value
        if self.objective_terms:
            payload["objective_terms"] = dict(self.objective_terms)
        return payload

    def to_dict(self) -> dict:
        """The versioned result envelope (mirrors
        :meth:`repro.core.results.SynthesisResult.to_dict`)."""
        from repro.runtime.instrumentation import STATS_SCHEMA_VERSION

        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "kind": "synthesis",
            **self.stats_dict(),
        }


class Checkpoint:
    """One JSONL checkpoint file: a header plus completed-work records.

    ``kind`` names the producing sweep (``"kstar"``, ``"pareto"``);
    ``meta`` pins the sweep's identity (ladder, objective, point count).
    :meth:`load` refuses a file whose header disagrees on either — a
    checkpoint must never silently resume a *different* problem.
    """

    def __init__(self, path: str | Path, kind: str, meta: dict) -> None:
        self.path = Path(path)
        self.kind = kind
        self.meta = dict(meta)
        self._records: list[dict] = []

    @property
    def records(self) -> list[dict]:
        """The records appended or loaded so far (shared list; do not
        mutate)."""
        return self._records

    def load(self) -> list[dict]:
        """Read the file's records (``[]`` when the file does not exist).

        Raises :class:`CheckpointError` on schema/kind/meta mismatch or
        interior corruption; a truncated *final* line is dropped (it is
        the normal signature of a killed writer on non-atomic storage).
        """
        if not self.path.exists():
            self._records = []
            return self._records
        lines = [
            line for line in
            self.path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        if not lines:
            self._records = []
            return self._records
        header = self._parse_line(lines[0], index=0, last=len(lines) == 1)
        if header is None:
            raise CheckpointError(
                f"{self.path}: unreadable checkpoint header"
            )
        self._check_header(header)
        records: list[dict] = []
        for index, line in enumerate(lines[1:], start=1):
            record = self._parse_line(
                line, index=index, last=index == len(lines) - 1
            )
            if record is None:
                break  # tolerated truncated tail
            records.append(record)
        self._records = records
        return records

    def append(self, record: dict) -> None:
        """Persist ``record`` (the whole file is atomically rewritten)."""
        self._records.append(dict(record))
        self._flush()

    # -- internals ----------------------------------------------------------

    def _header(self) -> dict:
        return {
            "schema": SCHEMA_VERSION, "kind": self.kind, "meta": self.meta,
        }

    def _check_header(self, header: dict) -> None:
        schema = header.get("schema")
        if schema != SCHEMA_VERSION:
            raise CheckpointError(
                f"{self.path}: schema {schema!r} is not the supported "
                f"version {SCHEMA_VERSION}"
            )
        if header.get("kind") != self.kind:
            raise CheckpointError(
                f"{self.path}: checkpoint kind {header.get('kind')!r} does "
                f"not match expected {self.kind!r}"
            )
        recorded = header.get("meta")
        if recorded != self.meta:
            if (
                isinstance(recorded, dict)
                and {
                    k: v for k, v in recorded.items() if k != "problem"
                } == {k: v for k, v in self.meta.items() if k != "problem"}
            ):
                raise CheckpointError(
                    f"{self.path}: checkpoint was written for a different "
                    f"problem (fingerprint {recorded.get('problem')!r}, "
                    f"this run is {self.meta.get('problem')!r}); refusing "
                    f"to silently resume it"
                )
            raise CheckpointError(
                f"{self.path}: checkpoint metadata {recorded!r} "
                f"does not match this run's {self.meta!r}; refusing to "
                f"resume a different sweep"
            )

    def _parse_line(self, line: str, *, index: int, last: bool) -> dict | None:
        try:
            value = json.loads(line)
            if not isinstance(value, dict):
                raise ValueError("record is not an object")
            return value
        except ValueError as exc:
            if last:
                return None
            raise CheckpointError(
                f"{self.path}: corrupted checkpoint record on line "
                f"{index + 1}: {exc}"
            ) from exc

    def _flush(self) -> None:
        lines = [json.dumps(self._header(), sort_keys=True)]
        lines += [json.dumps(r, sort_keys=True) for r in self._records]
        if faults.fires("checkpoint.corrupt") and lines:
            # Simulate external damage: chop the last record mid-JSON and
            # mangle an interior one so the next load must notice.
            lines[-1] = lines[-1][: max(len(lines[-1]) // 2, 1)] + "#"
        text = "\n".join(lines) + "\n"
        tmp = self.path.with_name(self.path.name + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self.path)


def restored_result(record: dict) -> RestoredResult:
    """Rebuild a :class:`RestoredResult` from a recorded result payload.

    This is the *one* decode codec for recorded solves: it accepts both
    the compact checkpoint layout (``status``/``objective``/``seconds``/
    ``terms``) and the ``--stats-json`` envelope that
    :meth:`repro.core.results.SynthesisResult.to_dict` emits
    (``encode_seconds``+``solve_seconds``, ``objective_terms``) — so
    checkpoint replay, CLI JSON and the server wire format all restore
    through the same function.  The record must carry ``status``; raises
    :class:`CheckpointError` on a record that does not round-trip.
    """
    try:
        status = SolveStatus(record["status"])
        objective = record.get("objective")
        if "seconds" in record:
            seconds = float(record["seconds"])
        elif "total_seconds" in record:
            seconds = float(record["total_seconds"])
        else:
            seconds = float(record.get("encode_seconds", 0.0)) + float(
                record.get("solve_seconds", 0.0)
            )
        terms = record.get("terms")
        if terms is None:
            terms = record.get("objective_terms")
        return RestoredResult(
            status=status,
            objective_value=(
                float("nan") if objective is None else float(objective)
            ),
            total_seconds=seconds,
            objective_terms={
                str(k): float(v) for k, v in (terms or {}).items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint record {record!r} is not restorable: {exc}"
        ) from exc


def read_checkpoint(path: str | Path) -> tuple[str, dict, list[dict]]:
    """Read a checkpoint file *without* knowing its identity up front.

    Returns ``(kind, meta, records)``.  The :class:`Checkpoint` class
    verifies a known identity on load; this helper is for consumers that
    discover checkpoints on disk — the ``repro.server`` job store scans
    its state directory on restart and only learns each job's identity
    *from* the header.  Raises :class:`CheckpointError` on a missing
    file, unreadable header or unsupported schema; interior corruption
    and truncated tails are handled exactly as :meth:`Checkpoint.load`.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"{path}: no such checkpoint")
    lines = [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not lines:
        raise CheckpointError(f"{path}: empty checkpoint file")
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except ValueError as exc:
        raise CheckpointError(
            f"{path}: unreadable checkpoint header"
        ) from exc
    if header.get("schema") != SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: schema {header.get('schema')!r} is not the "
            f"supported version {SCHEMA_VERSION}"
        )
    kind = str(header.get("kind", ""))
    meta = header.get("meta") or {}
    checkpoint = Checkpoint(path, kind, meta)
    return kind, dict(meta), checkpoint.load()


def problem_fingerprint(*parts: Any) -> str:
    """A short stable hash identifying a problem instance.

    Hashes a structural description of ``parts`` (typically template,
    library, requirements, channel) so checkpoint headers can pin the
    *problem*, not just the sweep shape — two sweeps sharing a ladder and
    objective but posed over different templates get different
    fingerprints.  The description covers dataclass fields, mappings,
    sequences and plain attribute dicts recursively; callables (e.g.
    link rules) contribute their qualified name.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(_describe(part, set()).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def _describe(obj: Any, seen: set[int], depth: int = 0) -> str:
    """A deterministic structural description of ``obj`` for hashing."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return repr(obj)
    if depth > 10:
        return f"<deep:{type(obj).__name__}>"
    if id(obj) in seen:
        return "<cycle>"
    seen.add(id(obj))
    try:
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            fields = ",".join(
                f"{f.name}="
                f"{_describe(getattr(obj, f.name), seen, depth + 1)}"
                for f in dataclasses.fields(obj)
            )
            return f"{type(obj).__name__}({fields})"
        if callable(obj):
            name = getattr(obj, "__qualname__", type(obj).__name__)
            return f"callable:{name}"
        if isinstance(obj, Mapping):
            items = sorted(
                f"{_describe(k, seen, depth + 1)}:"
                f"{_describe(v, seen, depth + 1)}"
                for k, v in obj.items()
            )
            return "{" + ",".join(items) + "}"
        if isinstance(obj, (list, tuple)):
            return "[" + ",".join(
                _describe(v, seen, depth + 1) for v in obj
            ) + "]"
        if isinstance(obj, (set, frozenset)):
            return "{" + ",".join(sorted(
                _describe(v, seen, depth + 1) for v in obj
            )) + "}"
        tolist = getattr(obj, "tolist", None)
        if callable(tolist):  # numpy arrays and scalars
            return f"{type(obj).__name__}:{_describe(tolist(), seen, depth + 1)}"
        try:
            attrs = vars(obj)
        except TypeError:
            return f"<{type(obj).__name__}>"
        items = sorted(
            f"{name}={_describe(value, seen, depth + 1)}"
            for name, value in attrs.items()
        )
        return f"{type(obj).__name__}(" + ",".join(items) + ")"
    finally:
        seen.discard(id(obj))


def result_record(result: Any) -> dict:
    """The checkpoint payload for a finished solve's result.

    Works for both :class:`~repro.core.results.SynthesisResult` and
    :class:`RestoredResult` (re-checkpointing restored rungs is allowed).
    """
    record: dict = {
        "status": result.status.value,
        "seconds": round(float(result.total_seconds), 6),
    }
    if result.feasible:
        record["objective"] = float(result.objective_value)
    terms = getattr(result, "objective_terms", None)
    if terms:
        record["terms"] = {k: float(v) for k, v in terms.items()}
    return record
