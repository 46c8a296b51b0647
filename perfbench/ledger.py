"""Per-layer self-time ledger for the traced run.

The ledger wraps each layer's public entry points from outside the
program and books every wrapped call's *self time*: its wall time minus
the wall time of the wrapped calls (and garbage-collection pauses) it
contains.  Whatever no wrapper covers is the op's ``other`` time, so the
layer self times plus ``other`` add up to the op's wall time.

An entry point that a later refactor renames or deletes cannot be
wrapped; it is reported as an absent layer and its time falls into
``other`` instead of crashing the run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import Counter
from collections.abc import Callable
from typing import Any

#: (layer, module, attribute, scope).  Scope ``"all"`` rebinds the
#: function in every loaded ``repro`` module that imported it by name;
#: ``"here"`` rebinds only the named module's attribute (scipy's ``milp``
#: is also called by the warm start, which is its own layer).
ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("milp.highs", "repro.milp.highs", "milp", "here"),
    ("milp.standard_form", "repro.milp.model",
     "Model.to_standard_form", "here"),
    ("analysis", "repro.analysis.analyzer", "analyze_problem", "all"),
    ("analysis", "repro.analysis.analyzer", "analyze_model", "all"),
    ("paths", "repro.encoding.approximate", "generate_candidate_pool", "all"),
    ("encoding", "repro.encoding.approximate",
     "ApproximatePathEncoder.encode", "here"),
    ("constraints.mapping", "repro.constraints.mapping",
     "build_mapping", "all"),
    ("constraints.lq", "repro.constraints.link_quality",
     "build_link_quality", "all"),
    ("constraints.energy", "repro.constraints.energy", "build_energy", "all"),
    ("constraints.localization", "repro.constraints.localization",
     "build_localization", "all"),
    ("channel", "repro.runtime.cache", "build_weighted_graph", "all"),
    ("accel.warm_start", "repro.accel.warmstart", "compute_warm_start", "all"),
    ("scenarios.edit", "repro.scenarios.edits", "apply_edits", "all"),
    ("scenarios.transplant", "repro.scenarios.incremental",
     "prepare_cache", "all"),
    ("decode", "repro.core.explorer", "decode_architecture", "all"),
)

#: The pseudo-layer garbage-collection pauses are booked to.
GC_LAYER = "gc"


class Ledger:
    """Books wrapped calls' self times and counts, one op at a time."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[list[float]] = [[0.0]]
        self._in_op = False
        self._gc_start = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point that still exists; note the others."""
        for layer, module_name, attr, scope in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                owner, name = _resolve_owner(module, attr)
                original = owner.__dict__[name]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{layer} ({module_name}.{attr})")
                continue
            if not callable(original) or isinstance(
                original, (staticmethod, classmethod)
            ):
                self.absent.append(f"{layer} ({module_name}.{attr})")
                continue
            wrapper = self._wrap(layer, original, _ON_RESULT.get(layer))
            setattr(owner, name, wrapper)
            if scope == "all":
                _rebind_everywhere(original, wrapper)
        gc.callbacks.append(self._on_gc)

    def _wrap(
        self, layer: str, fn: Callable[..., Any],
        on_result: Callable[[Ledger, Any], None] | None,
    ) -> Callable[..., Any]:
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        calls = f"{layer}.calls"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                counts[calls] += 1
                stack[-1][0] += elapsed
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if not self._in_op:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.self_s[GC_LAYER] += pause
        self._stack[-1][0] += pause

    # -- per-op bookkeeping -------------------------------------------------

    def begin_op(self) -> None:
        """Reset the books for the next op."""
        self.self_s.clear()
        self.counts.clear()
        del self._stack[1:]
        self._stack[0][0] = 0.0
        self._in_op = True

    def end_op(self) -> float:
        """Stop booking; return the wrapped time the op's root contains."""
        self._in_op = False
        return self._stack[0][0]


def _resolve_owner(module: Any, attr: str) -> tuple[Any, str]:
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in owner.__dict__:
        raise AttributeError(attr)
    return owner, name


def _rebind_everywhere(original: Any, wrapper: Any) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = wrapper


def _count_candidates(ledger: Ledger, pool: Any) -> None:
    ledger.counts["paths.candidates"] += len(pool)


def _count_transplant(ledger: Ledger, info: Any) -> None:
    reused = int(info.get("yen_routes_reused", 0))
    aborted = int(info.get("yen_routes_aborted", 0))
    ledger.counts["scenarios.yen_reused"] += reused
    ledger.counts["scenarios.yen_attempted"] += reused + aborted


_ON_RESULT: dict[str, Callable[[Ledger, Any], None]] = {
    "paths": _count_candidates,
    "scenarios.transplant": _count_transplant,
}
