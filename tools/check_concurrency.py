#!/usr/bin/env python
"""Repo-local concurrency lint for the trees that run threads.

Two hazards have bitten (or nearly bitten) this codebase and are cheap
to catch statically, so CI runs this checker over ``src/repro/server``
and ``src/repro/telemetry``, ``src/repro/runtime`` (the batch runner's
thread pool) and ``src/repro/resilience`` (the solver watchdog's guard
thread):

``lock-no-with``
    A bare ``lock.acquire()`` call.  If the critical section raises, the
    lock is never released and every other worker thread deadlocks on
    the next request.  Use ``with lock:`` — or, when the acquire/release
    pair genuinely cannot be a single lexical block, release in a
    ``try/finally`` whose ``finally`` calls ``.release()`` on the same
    receiver (the checker recognises that shape and stays quiet).

``span-no-with``
    A ``span(...)`` call whose handle is not entered as a context
    manager.  :func:`repro.telemetry.trace.span` is a
    ``@contextmanager``; calling it without ``with`` creates a generator
    that is never advanced, so the span silently records nothing — the
    trace looks healthy while a whole phase is missing.  Wrap the call
    in ``with span(...)`` (or feed it to ``ExitStack.enter_context``).

A finding can be suppressed with a ``# concurrency: ok`` comment on the
offending line; the suppression is deliberate noise in review diffs.

Usage::

    python tools/check_concurrency.py [--json] [PATH ...]

Paths default to the four audited trees.  Exit status is 1 when any
finding survives suppression, 0 otherwise — mirroring ``repro lint``.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = (
    REPO_ROOT / "src" / "repro" / "server",
    REPO_ROOT / "src" / "repro" / "telemetry",
    REPO_ROOT / "src" / "repro" / "runtime",
    REPO_ROOT / "src" / "repro" / "resilience",
)
SUPPRESS_MARK = "# concurrency: ok"


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``path:line: [rule] message``."""

    path: Path
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": str(self.path),
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


def _attach_parents(tree: ast.AST) -> None:
    """Record each node's parent so checks can walk outward."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._parent = parent  # type: ignore[attr-defined]


def _parents(node: ast.AST):
    """The chain of ancestors, innermost first."""
    current = getattr(node, "_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_parent", None)


def _is_with_context(call: ast.Call) -> bool:
    """Whether ``call`` is entered as a context manager.

    True for ``with call(...):`` (including ``as h``) and for
    ``stack.enter_context(call(...))``.
    """
    parent = getattr(call, "_parent", None)
    if isinstance(parent, ast.withitem):
        return True
    if (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Attribute)
        and parent.func.attr == "enter_context"
    ):
        return True
    return False


def _receiver_source(node: ast.expr) -> str:
    """A stable textual key for a lock expression (``self._lock`` ...)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure is exotic
        return f"<expr@{node.lineno}>"


def _released_in_finally(call: ast.Call, receiver: str) -> bool:
    """Whether an enclosing ``try`` releases ``receiver`` in ``finally``.

    The legitimate non-``with`` shape::

        lock.acquire()
        try:
            ...
        finally:
            lock.release()

    The acquire sits *before* the try, so look at siblings in every
    enclosing statement body, not just ancestors of the call itself.
    """
    for ancestor in _parents(call):
        for body in (
            getattr(ancestor, "body", None),
            getattr(ancestor, "orelse", None),
            getattr(ancestor, "finalbody", None),
        ):
            if not isinstance(body, list):
                continue
            for stmt in body:
                if not isinstance(stmt, ast.Try) or not stmt.finalbody:
                    continue
                for node in ast.walk(ast.Module(body=stmt.finalbody,
                                                type_ignores=[])):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "release"
                        and _receiver_source(node.func.value) == receiver
                    ):
                        return True
    return False


def _check_tree(tree: ast.AST, path: Path) -> list[Finding]:
    _attach_parents(tree)
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            receiver = _receiver_source(func.value)
            if not _released_in_finally(node, receiver):
                findings.append(Finding(
                    path, node.lineno, "lock-no-with",
                    f"{receiver}.acquire() without `with {receiver}:` or a "
                    f"try/finally release — an exception in the critical "
                    f"section leaks the lock",
                ))
        is_span = (
            (isinstance(func, ast.Name) and func.id == "span")
            or (isinstance(func, ast.Attribute) and func.attr == "span")
        )
        if is_span and not _is_with_context(node):
            findings.append(Finding(
                path, node.lineno, "span-no-with",
                "span(...) not entered as a context manager — the span "
                "never starts and the trace silently drops this phase",
            ))
    return findings


def check_file(path: Path) -> list[Finding]:
    """Lint one Python file; suppressed lines are dropped here."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "parse-error", str(exc.msg))]
    lines = source.splitlines()
    return [
        f for f in _check_tree(tree, path)
        if SUPPRESS_MARK not in lines[f.line - 1]
    ]


def check_paths(paths: list[Path]) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: list[Finding] = []
    for root in paths:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for file in files:
            findings.extend(check_file(file))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint "
                             "(default: src/repro/server, "
                             "src/repro/telemetry, src/repro/runtime, "
                             "src/repro/resilience)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout")
    args = parser.parse_args(argv)
    paths = args.paths or [p for p in DEFAULT_PATHS if p.exists()]
    findings = check_paths(paths)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        print(f"{len(findings)} concurrency finding(s) in "
              f"{len(paths)} path(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
