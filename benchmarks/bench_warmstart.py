"""Warm-start benchmark: end-to-end speedup and time to first incumbent.

Builds the data-collection problem for the synthetic Table 3 families
(see ``bench_table3_scalability.py``) and runs two end-to-end
configurations of :class:`repro.DataCollectionExplorer` per instance:

* **cold** — the plain exact solve;
* **warm** — ``warm_start=True``: the greedy primal heuristic's
  incumbent reaches HiGHS as an objective-cutoff row.

Both must land on the same objective (the warm start is
exactness-preserving by construction).  The per-case record carries
both wall-clock times and the warm-start verdict (source, bound,
consumption mechanism).  Time to first incumbent (TTFI) is the greedy
heuristic's own ``WarmStart.seconds`` — pool selection plus the
restricted solve — as an absolute time and as a fraction of the cold
solve.

The gate (``--quick`` exits non-zero on failure; CI runs it as a
regression tripwire) requires every case to be objective-exact and at
least one case to show a >= ``GATE_SPEEDUP`` end-to-end speedup (warm
vs cold) together with a TTFI <= ``GATE_TTFI_FRAC`` of the cold time on
that same instance; docs/performance.md describes the envelope.

Usage::

    PYTHONPATH=src python benchmarks/bench_warmstart.py [--quick] [--out PATH]

This module is also imported (not executed) by pytest's benchmark
collection; it defines no test functions on purpose.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _emit import emit_report  # noqa: E402

from repro import (  # noqa: E402
    ApproximatePathEncoder,
    DataCollectionExplorer,
    HighsSolver,
    default_catalog,
    synthetic_template,
)
from repro.accel import compute_warm_start  # noqa: E402
from repro.network import (  # noqa: E402
    LifetimeRequirement,
    LinkQualityRequirement,
    RequirementSet,
)

#: The quick subset pairs the smallest family with (100, 50), whose cold
#: solve took tens of seconds before the lifetime-capacity rows.
SIZES_QUICK = [(50, 20), (100, 50)]
SIZES_FULL = [(50, 20), (100, 20), (100, 50), (150, 50)]
K_STAR = 10
TIME_LIMIT = 600.0
#: Relative tolerance of the objective-equality check.
OBJ_TOL = 1e-6
#: At least one case must be this much faster end-to-end (warm vs
#: cold) ...
GATE_SPEEDUP = 1.5
#: ... with the greedy first incumbent inside this fraction of the cold
#: time on the same instance.
GATE_TTFI_FRAC = 0.10


def make_problem(n_total: int, n_end: int):
    """The Table 3 data-collection problem for one synthetic family."""
    instance = synthetic_template(n_total, n_end, seed=11)
    reqs = RequirementSet()
    for s in instance.sensor_ids:
        reqs.require_route(s, instance.sink_id, replicas=2, disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    reqs.lifetime = LifetimeRequirement(years=5.0)
    return instance, reqs


def make_explorer(instance, reqs, **flags) -> DataCollectionExplorer:
    return DataCollectionExplorer(
        instance.template, default_catalog(), reqs,
        encoder=ApproximatePathEncoder(k_star=K_STAR),
        solver=HighsSolver(time_limit=TIME_LIMIT),
        analyze=False, **flags,
    )


def _timed_solve(instance, reqs, repeats: int, **flags):
    """Best-of-``repeats`` end-to-end wall clock for one configuration
    (build + accelerate + solve, a fresh explorer per run)."""
    best_s = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = make_explorer(instance, reqs, **flags).solve("cost")
        best_s = min(best_s, time.perf_counter() - start)
    return result, best_s


def _first_incumbent(instance, reqs):
    """The greedy warm start on a fresh build: its own ``seconds`` is the
    time to first incumbent."""
    return compute_warm_start(make_explorer(instance, reqs).build("cost"))


def run_case(n_total: int, n_end: int, repeats: int = 1) -> dict:
    """One instance through both configurations."""
    instance, reqs = make_problem(n_total, n_end)

    cold, cold_s = _timed_solve(instance, reqs, repeats)
    warm, warm_s = _timed_solve(instance, reqs, repeats, warm_start=True)
    first = _first_incumbent(instance, reqs)
    ttfi = first.seconds if first is not None else None

    warm_info = warm.solution.extra.get("warm_start", {})
    delta = abs(warm.objective_value - cold.objective_value)
    scale = max(1.0, abs(cold.objective_value))
    return {
        "name": f"warmstart_{n_total}x{n_end}",
        "grid": [n_total, n_end],
        "cold": {
            "status": cold.status.name,
            "objective": cold.objective_value,
            "e2e_s": cold_s,
        },
        "warm": {
            "status": warm.status.name,
            "objective": warm.objective_value,
            "e2e_s": warm_s,
            "warm_start": {
                "status": warm_info.get("status"),
                "source": warm_info.get("source"),
                "objective": warm_info.get("objective"),
                "mechanism": warm_info.get("mechanism"),
            },
        },
        "first_incumbent": {
            "source": first.source if first is not None else None,
            "objective": first.objective if first is not None else None,
            "ttfi_s": ttfi,
            "ttfi_frac": (ttfi / cold_s) if ttfi is not None else None,
        },
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "objective_exact": delta <= OBJ_TOL * scale,
        "objective_delta": delta,
    }


def evaluate_gate(cases: list[dict]) -> dict:
    """The CI verdict: exact objectives everywhere, and at least one
    instance with both the speedup and the TTFI bound."""
    failures: list[str] = []
    for case in cases:
        if not case["objective_exact"]:
            failures.append(
                f"{case['name']}: warm objective drifted by "
                f"{case['objective_delta']:.3g}"
            )
    qualifying = [
        case for case in cases
        if case["objective_exact"]
        and case["speedup"] >= GATE_SPEEDUP
        and case["first_incumbent"]["ttfi_frac"] is not None
        and case["first_incumbent"]["ttfi_frac"] <= GATE_TTFI_FRAC
    ]
    if not qualifying:
        failures.append(
            f"no case reached {GATE_SPEEDUP}x warm speedup with "
            f"TTFI <= {GATE_TTFI_FRAC:.0%} of the cold solve"
        )
    best = max(cases, key=lambda c: c["speedup"])
    return {
        "passed": not failures,
        "failures": failures,
        "qualifying_cases": [case["name"] for case in qualifying],
        "best_case": best["name"],
        "best_speedup": best["speedup"],
        "best_ttfi_frac": best["first_incumbent"]["ttfi_frac"],
        "gate_speedup": GATE_SPEEDUP,
        "gate_ttfi_frac": GATE_TTFI_FRAC,
    }


def run_benchmarks(quick: bool) -> dict:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    repeats = 1 if quick else 2
    cases = [run_case(n_total, n_end, repeats) for n_total, n_end in sizes]
    gate = evaluate_gate(cases)
    return {
        "cases": cases,
        "gate": gate,
        "meta": {
            "mode": "quick" if quick else "full",
            "k_star": K_STAR,
            "sizes": [list(s) for s in sizes],
            "gate_speedup": GATE_SPEEDUP,
            "gate_ttfi_frac": GATE_TTFI_FRAC,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="two-size subset + CI gate")
    parser.add_argument("--out", type=Path, default=None,
                        help="report path (default: "
                             "benchmarks/results/BENCH_warmstart.json)")
    args = parser.parse_args(argv)
    report = run_benchmarks(args.quick)

    print(f"{'case':<22} {'cold s':>8} {'warm s':>8} {'speedup':>8} "
          f"{'ttfi s':>8} {'ttfi %':>7} {'exact':>6}")
    for case in report["cases"]:
        ttfi = case["first_incumbent"]["ttfi_s"]
        frac = case["first_incumbent"]["ttfi_frac"]
        print(f"{case['name']:<22} {case['cold']['e2e_s']:>8.3f} "
              f"{case['warm']['e2e_s']:>8.3f} "
              f"{case['speedup']:>8.2f} "
              f"{ttfi if ttfi is None else round(ttfi, 4)!s:>8} "
              f"{frac if frac is None else round(100 * frac, 2)!s:>7} "
              f"{'yes' if case['objective_exact'] else 'NO':>6}")
    gate = report["gate"]
    emit_report(
        "warmstart", report["cases"], gate=gate, meta=report["meta"],
        results_dir=args.out.parent if args.out else None,
    )
    if gate["failures"]:
        for failure in gate["failures"]:
            print(f"GATE FAIL: {failure}")
    print(f"gate: {'passed' if gate['passed'] else 'FAILED'} "
          f"(best {gate['best_case']}: {gate['best_speedup']:.2f}x, "
          f"qualifying: {', '.join(gate['qualifying_cases']) or 'none'})")
    return 0 if gate["passed"] or not args.quick else 1


if __name__ == "__main__":
    sys.exit(main())
