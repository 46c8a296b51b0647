"""Solve benchmark: ladder, corpus and what-if workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One process runs one op at a time.  Set-up is the imports plus a
*prepare* step: input generation, one untimed warm-up op and, for
``whatif``, the base solves.  Both are sampled ``SETUP_REPEATS`` times
(the extra import samples come from child interpreters that import the
same modules) and ``setup_s`` is the sum of their medians.  The timed
phase then runs whole passes over the workload's ops, each pass in an
order drawn from ``--seed``, until another pass would overrun
``--seconds``.  The instances themselves come from ``--input-seed``
(see METRICS.md for the defaults and the held-out seeds), so every
``--seed`` measures the same work.

Every op time is scaled to the reference host speed by the calibration
slice in ``calib.py``.  Every op is checked outside timing: it must be
``OPTIMAL``, match its reference objective within 1e-6 relative, and
pass ``repro.validation.validate``.  Per-op work counts (B&B nodes, model
size, Yen pool calls, cache lookups) must repeat exactly across the runs
of one checkout; the benchmark exits with code 3 if they do not.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs one
untraced pass, then traces the layers (``ledger.py``) and prints the
per-layer metrics.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402

SETUP_REPEATS = 3
#: Calibration load for the import samples, which are Python work.
IMPORT_MIX = {"loop": 1.0}
REL_TOL = 1e-6
#: Traced runs fail if layer self times plus ``other`` miss an op's wall
#: time by more than this share.
BALANCE_TOL = 0.05
COUNTS_DIR = ROOT / ".perfbench"


class DeterminismError(RuntimeError):
    """Per-op work counts differed between runs of the same inputs."""


@dataclass
class Record:
    """One executed op: timing, calibration, verdict and counts."""

    key: str
    raw_s: float
    #: Calibration seconds per unit of each load around the op.
    host: dict[str, float]
    #: Host slowdown around the op (1.0 = reference speed).
    slowdown: float = 1.0
    #: The op's :class:`workloads.Outcome` until it has been checked.
    outcome: Any = None
    objective: float | None = None
    error: str | None = None
    counts: dict[str, int] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    other_s: float = 0.0

    @property
    def factor(self) -> float:
        """Scale from this op's host speed to the reference speed."""
        return 1.0 / self.slowdown

    @property
    def norm_s(self) -> float:
        """Op time at the reference host speed."""
        return self.raw_s * self.factor


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ladder", "corpus", "whatif"))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the ops within each pass")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed-phase budget; passes are never cut")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input-seed", type=int, default=None,
                        help="instance seed (default: the workload's "
                             "pinned one, see METRICS.md)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    before = _setup_slice(IMPORT_MIX)
    start = time.perf_counter()
    import ledger as ledger_mod
    import workloads

    elapsed = time.perf_counter() - start
    after = _setup_slice(IMPORT_MIX)
    import_s = [_normalized(elapsed, calib.mean(before, after), IMPORT_MIX)]
    import_s += [_child_import_s(src) for _ in range(SETUP_REPEATS - 1)]
    if args.input_seed is None:
        args.input_seed = workloads.DEFAULT_INPUT[args.workload]
    mix = workloads.CALIBRATION[args.workload]
    prepare_s = []
    checker = Checker(args.workload, args.input_seed)
    for _ in range(SETUP_REPEATS):
        before = _setup_slice(mix)
        start = time.perf_counter()
        prepared = workloads.build(args.workload, args.input_seed)
        warmup = _run_op(prepared.warmup, before, None)
        elapsed = time.perf_counter() - start
        after = _setup_slice(mix)
        _check_outcome(warmup)
        checker.note(warmup)
        prepare_s.append(_normalized(elapsed, calib.mean(before, after), mix))
    setup_s = statistics.median(import_s) + statistics.median(prepare_s)

    ledger = None
    baseline: list[Record] = []
    if args.trace:
        baseline = _run_passes(prepared.ops, 0.0, args.seed, mix, None)
        ledger = ledger_mod.Ledger()
        ledger.install()
        records = _run_passes(
            prepared.ops, args.seconds, args.seed + 1, mix, ledger
        )
        checker.same_objectives(baseline, records)
        metrics = layer_metrics(baseline, records)
    else:
        records = _run_passes(
            prepared.ops, args.seconds, args.seed, mix, None
        )
        metrics = e2e_metrics(records, setup_s)

    for record in baseline + records:
        checker.note(record)
    failed = checker.gate(records, prepared.ops)
    try:
        checker.save_counts()
    except DeterminismError as exc:
        print(f"perfbench: work-determinism check failed: {exc}",
              file=sys.stderr)
        return 3

    passes = len(records) // len(prepared.ops)
    times = [r.norm_s for r in records]
    beyond = sum(t > _p90(times) for t in times)
    print(
        f"perfbench: workload={args.workload} input_seed={args.input_seed} "
        f"seed={args.seed} trace={args.trace} passes={passes} "
        f"ops={len(records)} op_p90 samples={len(times)} ({beyond} beyond) "
        f"setup import={statistics.median(import_s):.3f}s "
        f"prepare={statistics.median(prepare_s):.3f}s "
        f"(medians of {SETUP_REPEATS}) failed={len(failed)}"
    )
    for key, reason in failed[:10]:
        print(f"perfbench: FAILED {key}: {reason}")
    if ledger is not None and ledger.absent:
        print(f"perfbench: absent layers: {', '.join(ledger.absent)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }), flush=True)
    return 0


# -- timing -------------------------------------------------------------------


def _setup_slice(mix: dict[str, float]) -> dict[str, float]:
    return calib.measure(calib.units_for(1.0, mix), mix)


def _normalized(
    seconds: float, host: dict[str, float], mix: dict[str, float]
) -> float:
    return seconds / calib.slowdown(host, mix)


#: Imports the same modules as this process, in a fresh interpreter, and
#: prints how long they took.
_IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); "
    "sys.path[:0] = sys.argv[1:]; import workloads, ledger; "
    "print(time.perf_counter() - start)"
)


def _child_import_s(src: Path) -> float:
    """One more sample of the import time, from a child interpreter."""
    before = _setup_slice(IMPORT_MIX)
    child = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(HERE), str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    after = _setup_slice(IMPORT_MIX)
    return _normalized(
        float(child.stdout.split()[-1]), calib.mean(before, after), IMPORT_MIX
    )


def _run_passes(
    ops, seconds: float, seed: int, mix: dict[str, float], ledger
) -> list[Record]:
    """Whole passes over ``ops`` until another would overrun ``seconds``."""
    records: list[Record] = []
    host = calib.measure(2, mix)
    start = time.perf_counter()
    for pass_index in range(10_000):
        order = list(ops)
        random.Random(seed * 7919 + pass_index).shuffle(order)
        pass_start = time.perf_counter()
        for op in order:
            record = _run_op(op, host, ledger)
            host = calib.measure(calib.units_for(record.raw_s, mix), mix)
            record.host = calib.mean(record.host, host)
            record.slowdown = calib.slowdown(record.host, mix)
            _check_outcome(record)
            records.append(record)
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            break
    return records


def _run_op(op, host_before: dict[str, float], ledger) -> Record:
    """Run one op; the calibration after it is the caller's job."""
    if ledger is not None:
        ledger.begin_op()
    start = time.perf_counter()
    try:
        outcome, error = op.run(), None
    except Exception as exc:  # an op that raises is a failed op
        outcome, error = None, f"raised {exc!r}"
    raw = time.perf_counter() - start
    record = Record(op.key, raw, host_before, outcome=outcome, error=error)
    if ledger is not None:
        wrapped = ledger.end_op()
        record.other_s = raw - wrapped
        record.layers = dict(ledger.self_s)
        record.counts.update(ledger.counts)
        booked = sum(record.layers.values())
        if abs(booked - wrapped) > BALANCE_TOL * raw:
            raise RuntimeError(
                f"ledger out of balance on {op.key}: layers {booked:.6f}s "
                f"vs wrapped {wrapped:.6f}s of {raw:.6f}s"
            )
    return record


def _check_outcome(record: Record) -> None:
    """Status and independent validation, outside timing."""
    import repro.validation

    outcome, record.outcome = record.outcome, None
    if outcome is None:
        return
    result = outcome.result
    counts = record.counts
    counts["milp.nodes"] = result.solution.node_count
    counts["model.rows"] = result.model_stats.num_constraints
    counts["model.cols"] = result.model_stats.num_vars
    counts["model.nnz"] = result.model_stats.num_nonzeros
    cache = result.run_stats.cache
    counts["cache.yen_hits"] = cache.hit_count("yen")
    counts["cache.yen_misses"] = cache.miss_count("yen")
    counts["cache.hits"] = cache.hit_count()
    counts["cache.misses"] = cache.miss_count()
    # Seeded entries are counted on the cache, not on the op's stats.
    partial = outcome.cache.counters if outcome.cache is not None else cache
    counts["cache.partial_reuse"] = partial.partial_count()
    if result.status.name != "OPTIMAL":
        record.error = f"status {result.status.name}"
        return
    record.objective = result.objective_value
    start = time.perf_counter()
    report = repro.validation.validate(
        result.architecture, outcome.requirements, outcome.channel
    )
    record.layers["verify"] = time.perf_counter() - start
    if not report.ok:
        record.error = f"validation: {report.violations[0]}"


# -- correctness and work determinism -----------------------------------------


class Checker:
    """Reference objectives and the cross-run work-count ledger."""

    def __init__(self, workload: str, input_seed: int) -> None:
        pinned = json.loads((HERE / "references.json").read_text())
        self.references: dict[str, float] = (
            pinned.get(workload, {}).get(str(input_seed), {})
        )
        self.path = COUNTS_DIR / f"counts-{workload}-{input_seed}.json"
        self.digest = _source_digest()
        self.seen: dict[str, dict[str, int]] = {}
        self.mismatches: list[str] = []

    def note(self, record: Record) -> None:
        """Compare ``record``'s counts with earlier ops of the same key."""
        if record.error and not record.counts:
            return
        known = self.seen.setdefault(record.key, {})
        for name, value in record.counts.items():
            if name in known and known[name] != value:
                self.mismatches.append(
                    f"{record.key} {name}: {value} != {known[name]} "
                    "(same run)"
                )
            known.setdefault(name, value)

    def gate(self, records: list[Record], ops) -> list[tuple[str, str]]:
        """Failed ops as (key, reason); fills cold references first."""
        by_key = {op.key: op for op in ops}
        failed = []
        for record in records:
            if record.error is None:
                ref = self.references.get(record.key)
                if ref is None:
                    ref = by_key[record.key].cold()
                    self.references[record.key] = ref
                tol = REL_TOL * max(1.0, abs(ref))
                if not abs(record.objective - ref) <= tol:
                    record.error = (
                        f"objective {record.objective!r} != reference {ref!r}"
                    )
            if record.error is not None:
                failed.append((record.key, record.error))
        return failed

    def same_objectives(
        self, untraced: list[Record], traced: list[Record]
    ) -> None:
        """Traced ops must reproduce the untraced objectives."""
        expected = {r.key: r.objective for r in untraced}
        for record in traced:
            want = expected.get(record.key)
            if record.error is None and record.objective != want:
                record.error = (
                    f"traced objective {record.objective!r} != untraced "
                    f"{want!r}"
                )

    def save_counts(self) -> None:
        """Merge this run's counts into the checkout's ledger, or raise."""
        stored: dict[str, dict[str, int]] = {}
        if self.path.is_file():
            payload = json.loads(self.path.read_text())
            if payload.get("digest") == self.digest:
                stored = payload["ops"]
        for key, counts in self.seen.items():
            before = stored.setdefault(key, {})
            for name, value in counts.items():
                if name in before and before[name] != value:
                    self.mismatches.append(
                        f"{key} {name}: {value} != {before[name]} "
                        "(earlier run)"
                    )
                before.setdefault(name, value)
        if self.mismatches:
            raise DeterminismError("; ".join(self.mismatches[:5]))
        self.path.parent.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"digest": self.digest, "ops": stored}))
        os.replace(tmp, self.path)


def _source_digest() -> str:
    """Content hash of the program and benchmark sources."""
    h = hashlib.blake2b(digest_size=16)
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- metrics ------------------------------------------------------------------


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def e2e_metrics(records: list[Record], setup_s: float) -> dict[str, object]:
    times = [r.norm_s for r in records]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(len(times) / sum(times), "1/s"),
        "op_p50_s": _metric(statistics.median(times), "s"),
        "op_p90_s": _metric(_p90(times), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }


#: Per-op self-time metrics and the ledger layer each one reads.
LAYER_TIMES = {
    "milp.highs_s": "milp.highs",
    "milp.standard_form_s": "milp.standard_form",
    "analysis.busy_s": "analysis",
    "paths.busy_s": "paths",
    "encoding.busy_s": "encoding",
    "constraints.mapping_s": "constraints.mapping",
    "constraints.lq_s": "constraints.lq",
    "constraints.energy_s": "constraints.energy",
    "constraints.localization_s": "constraints.localization",
    "channel.busy_s": "channel",
    "accel.warm_start_s": "accel.warm_start",
    "scenarios.edit_s": "scenarios.edit",
    "scenarios.transplant_s": "scenarios.transplant",
    "decode.busy_s": "decode",
    "verify.busy_s": "verify",
    "gc.pause_s": "gc",
}
#: Per-op count metrics and the record count each one reads.
LAYER_COUNTS = {
    "milp.nodes": "milp.nodes",
    "milp.calls": "milp.highs.calls",
    "model.rows": "model.rows",
    "model.cols": "model.cols",
    "model.nnz": "model.nnz",
    "paths.calls": "paths.calls",
    "paths.candidates": "paths.candidates",
    "cache.partial_reuse": "cache.partial_reuse",
}


def _ratio(records: list[Record], part: str, whole: tuple[str, ...]) -> float:
    num = sum(r.counts.get(part, 0) for r in records)
    den = sum(r.counts.get(name, 0) for r in records for name in whole)
    return num / den if den else 0.0


def layer_metrics(
    baseline: list[Record], records: list[Record]
) -> dict[str, object]:
    n = len(records)
    metrics: dict[str, object] = {}
    for name, layer in LAYER_TIMES.items():
        total = sum(r.layers.get(layer, 0.0) * r.factor for r in records)
        metrics[name] = _metric(total / n, "s")
    metrics["other.busy_s"] = _metric(
        sum(r.other_s * r.factor for r in records) / n, "s"
    )
    for name, count in LAYER_COUNTS.items():
        metrics[name] = _metric(
            sum(r.counts.get(count, 0) for r in records) / n, "count"
        )
    metrics["cache.yen_hit_ratio"] = _metric(
        _ratio(records, "cache.yen_hits",
               ("cache.yen_hits", "cache.yen_misses")), "ratio"
    )
    metrics["scenarios.yen_reuse_ratio"] = _metric(
        _ratio(records, "scenarios.yen_reused",
               ("scenarios.yen_attempted",)), "ratio"
    )
    untraced_rate = len(baseline) / sum(r.norm_s for r in baseline)
    traced_rate = n / sum(r.norm_s for r in records)
    metrics["trace.overhead_frac"] = _metric(
        untraced_rate / traced_rate - 1.0, "ratio"
    )
    metrics["host.calib_ms"] = _metric(
        statistics.median(sum(r.host.values()) for r in records) * 1e3, "ms"
    )
    metrics["host.raw_ops_per_s"] = _metric(
        n / sum(r.raw_s for r in records), "1/s"
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
