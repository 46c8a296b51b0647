"""Failure-sweep and robust re-solve benchmark.

Two case families:

* **sweep** — verification throughput: all single-link and single-node
  patterns of a synthetic instance against its synthesized design.
* **robust** — the walled-grid acceptance scenario: plain ``N_rep=2``
  synthesis routes both disjoint replicas through the wall (the wall
  outage kills the pair), the robust loop must converge to 100%
  coverage within the round cap, and the survivability premium must be
  exactly priced — the robust design is independently re-verified and
  re-validated, and its objective can never undercut the plain one.

``--quick`` runs reduced sizes and *gates*: non-zero exit when the
sweep throughput drops below ``MIN_PATTERNS_PER_S``, the robust loop
misses full coverage, or the survivability premium is mispriced.  CI runs this as a
regression tripwire; docs/failures.md describes the scheme.

Usage::

    PYTHONPATH=src python benchmarks/bench_failures.py [--quick] [--out PATH]

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
    SolveOptions,
    default_catalog,
    explore,
    generate_patterns,
    small_grid_template,
    synthetic_template,
    validate,
    verify_patterns,
)
from repro.geometry.floorplan import FloorPlan, Wall  # noqa: E402
from repro.geometry.primitives import Point, Rectangle, Segment  # noqa: E402
from repro.network import (  # noqa: E402
    LinkQualityRequirement,
    RequirementSet,
    RouteRequirement,
)

#: Verification is pure-python graph/margin checking; even the quick
#: instance clears hundreds of patterns per second.  The gate floor is
#: deliberately loose — it catches an accidental O(n^2) or a solver
#: call sneaking into the sweep, not scheduler jitter.
MIN_PATTERNS_PER_S = 25.0
OBJ_TOL = 1e-6
SWEEP_SIZES_QUICK = [(30, 8)]
SWEEP_SIZES_FULL = [(30, 8), (60, 15), (100, 25)]


def _sweep_case(n_total: int, n_end: int) -> dict:
    """Throughput of the 1-link + 1-node sweep on one instance."""
    instance = synthetic_template(n_total, n_end, seed=11)
    reqs = RequirementSet()
    for s in instance.sensor_ids:
        reqs.require_route(s, instance.sink_id, replicas=2, disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    result = explore(instance.template, default_catalog(), reqs,
                     objective="cost")
    patterns = generate_patterns("k-link:1,k-node:1", instance.template)

    start = time.perf_counter()
    sequential = verify_patterns(result.architecture, reqs, patterns)
    seq_s = time.perf_counter() - start
    return {
        "name": f"sweep_{n_total}x{n_end}",
        "grid": [n_total, n_end],
        "patterns": len(patterns),
        "sequential_s": seq_s,
        "patterns_per_s": len(patterns) / seq_s if seq_s > 0
        else float("inf"),
        "score": sequential.score,
    }


def _robust_case() -> dict:
    """The walled-grid scenario: converge to full wall-outage coverage."""
    instance = small_grid_template(nx=4, ny=3, spacing=8.0)
    plan = FloorPlan(
        bounds=Rectangle(0.0, 0.0, 40.0, 32.0),
        walls=[Wall(Segment(Point(20.0, 4.0), Point(20.0, 20.0)),
                    "brick", 10.0)],
        name="walled-grid",
    )
    reqs = RequirementSet(
        routes=[RouteRequirement(source=0, dest=7, replicas=2,
                                 disjoint=True)],
        link_quality=LinkQualityRequirement(min_snr_db=15.0),
    )
    library = default_catalog()
    patterns = generate_patterns("walls", instance.template, plan)

    start = time.perf_counter()
    plain = explore(instance.template, library, reqs, objective="cost")
    plain_s = time.perf_counter() - start
    plain_report = verify_patterns(plain.architecture, reqs, patterns)

    start = time.perf_counter()
    robust = explore(
        instance.template, library, reqs, objective="cost",
        plan=plan, k_star=60,
        options=SolveOptions(failures="walls,rounds:6"),
    )
    robust_s = time.perf_counter() - start
    # Post-hoc ground truth: re-verify the decoded robust design with
    # the sweep alone (no survivability rows anywhere near it) and run
    # the independent requirement checker.
    recheck = verify_patterns(robust.architecture, reqs, patterns)
    diag = next(d for d in robust.diagnostics
                if d.rule_id == "failures.survivability")
    premium = (robust.objective_terms["cost"]
               - plain.objective_terms["cost"])
    return {
        "name": "robust_walled_grid",
        "patterns": len(patterns),
        "plain": {
            "objective": plain.objective_terms["cost"],
            "solve_s": plain_s,
            "survivability": plain_report.score,
        },
        "robust": {
            "objective": robust.objective_terms["cost"],
            "solve_s": robust_s,
            "survivability": robust.survivability_score,
            "rounds": diag.data["report"]["rounds"],
        },
        "recheck_score": recheck.score,
        "validates": validate(robust.architecture, reqs).ok,
        "premium": premium,
        "premium_priced": premium >= -OBJ_TOL,
        "scenario_meaningful": plain_report.score < 1.0,
    }


def evaluate_gate(sweeps: list[dict], robust: dict) -> dict:
    """The CI verdict (see module docstring)."""
    failures: list[str] = []
    for case in sweeps:
        if case["patterns_per_s"] < MIN_PATTERNS_PER_S:
            failures.append(
                f"{case['name']}: {case['patterns_per_s']:.1f} "
                f"patterns/s under the {MIN_PATTERNS_PER_S} floor"
            )
    if not robust["scenario_meaningful"]:
        failures.append(
            "robust_walled_grid: plain synthesis already survives the "
            "wall outage — the scenario tests nothing"
        )
    if robust["robust"]["survivability"] != 1.0:
        failures.append(
            f"robust_walled_grid: loop stopped at "
            f"{robust['robust']['survivability']:.3f} coverage"
        )
    if robust["recheck_score"] != 1.0:
        failures.append(
            "robust_walled_grid: independent re-verification disagrees "
            "with the loop's own score"
        )
    if not robust["validates"]:
        failures.append(
            "robust_walled_grid: robust design fails the requirement "
            "checker"
        )
    if not robust["premium_priced"]:
        failures.append(
            f"robust_walled_grid: robust objective undercuts the plain "
            f"one by {-robust['premium']:.3g} — survivability rows "
            f"must only shrink the feasible set"
        )
    return {
        "passed": not failures,
        "failures": failures,
        "min_patterns_per_s": MIN_PATTERNS_PER_S,
        "robust_rounds": robust["robust"]["rounds"],
        "premium": robust["premium"],
    }


def run_benchmarks(quick: bool) -> dict:
    sizes = SWEEP_SIZES_QUICK if quick else SWEEP_SIZES_FULL
    sweeps = [_sweep_case(n_total, n_end) for n_total, n_end in sizes]
    robust = _robust_case()
    gate = evaluate_gate(sweeps, robust)
    return {
        "cases": sweeps + [robust],
        "gate": gate,
        "meta": {
            "mode": "quick" if quick else "full",
            "sizes": [list(s) for s in sizes],
            "min_patterns_per_s": MIN_PATTERNS_PER_S,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes + CI gate")
    parser.add_argument("--out", type=Path, default=None,
                        help="report path (default: "
                             "benchmarks/results/BENCH_failures.json)")
    args = parser.parse_args(argv)
    report = run_benchmarks(args.quick)

    print(f"{'case':<22} {'patterns':>8} {'seq s':>8} {'pat/s':>8}")
    for case in report["cases"]:
        if "patterns_per_s" in case:
            print(f"{case['name']:<22} {case['patterns']:>8} "
                  f"{case['sequential_s']:>8.3f} "
                  f"{case['patterns_per_s']:>8.1f}")
    robust = report["cases"][-1]
    print(f"{robust['name']}: plain survivability "
          f"{robust['plain']['survivability']:.2f} -> robust "
          f"{robust['robust']['survivability']:.2f} in "
          f"{robust['robust']['rounds']} round(s), premium "
          f"{robust['premium']:.1f}")
    gate = report["gate"]
    emit_report(
        "failures", report["cases"], gate=gate, meta=report["meta"],
        results_dir=args.out.parent if args.out else None,
    )
    if gate["failures"]:
        for failure in gate["failures"]:
            print(f"GATE FAIL: {failure}")
    print(f"gate: {'passed' if gate['passed'] else 'FAILED'}")
    return 0 if gate["passed"] or not args.quick else 1


if __name__ == "__main__":
    sys.exit(main())
