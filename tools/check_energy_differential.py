#!/usr/bin/env python
"""Differential check: the exact energy rows against the big-M chain.

:mod:`repro.constraints.energy` prices every route use exactly on the
route-use binaries, where the library once chained big-M lower bounds
through per-edge, per-use and per-node charge variables.  The two models
must admit the same integer designs at the same least charge.  This
script holds the exact model to that: it solves a seeded set of problems
twice, once as the library builds them and once with the chain of
``tests/energy_chain_reference.py`` swapped in, and compares.

A case fails when

* the chain proves OPTIMAL and the exact model is not OPTIMAL, or their
  objectives differ by more than 1e-6 relative;
* the chain stops FEASIBLE at its time limit and the exact optimum lies
  above the chain's incumbent by more than 1e-6 relative (the exact rows
  admit every design the chain does, at no more charge);
* one model proves INFEASIBLE and the other finds a design;
* either model's design fails :func:`repro.validation.validate`.

The set: the six perfbench ladder rungs plus (100,20) at template seeds
11 and 12, and (100,50), under the cost objective; Table 1's default
instance under the cost objective; the 4x3 and 3x2 grids and the
synthetic (30,12,2) and (40,15,4) templates with no lifetime or 5/10/15
years, under cost, energy and 0.5/0.5 $+energy; 4x3 grids at 25 m and
35 m spacing with no SNR floor (ETX well above 1) at 10/15/20 years; and
the full encoding on the 3x2 grid.

Usage::

    PYTHONPATH=src python tools/check_energy_differential.py [--quick]

Each solve gets 60 s of HiGHS.  ``--quick`` runs a slice of about ten
seconds.  Exit status is 1 when any case fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.core import DataCollectionExplorer  # noqa: E402
from repro.encoding import ApproximatePathEncoder, FullPathEncoder  # noqa: E402
from repro.library import default_catalog  # noqa: E402
from repro.milp import HighsSolver  # noqa: E402
from repro.milp.solution import SolveStatus  # noqa: E402
from repro.network import (  # noqa: E402
    LifetimeRequirement,
    LinkQualityRequirement,
    RequirementSet,
    data_collection_template,
    small_grid_template,
    synthetic_template,
)
from repro.validation import validate  # noqa: E402
from tests.energy_chain_reference import chain_energy  # noqa: E402

REL_TOL = 1e-6
TIME_LIMIT_S = 60.0
OBJECTIVES = ("cost", "energy", {"cost": 0.5, "energy": 0.5})
LADDER = ((50, 20), (60, 20), (75, 20), (80, 30), (100, 25), (100, 30),
          (100, 20))


@dataclass(frozen=True)
class Case:
    """One problem under one objective."""

    name: str
    instance: object
    requirements: RequirementSet
    objective: str | dict
    k_star: int = 10
    full: bool = False

    @property
    def label(self) -> str:
        objective = self.objective
        if isinstance(objective, dict):
            objective = "+".join(f"{w:g}{t}" for t, w in objective.items())
        return f"{self.name} [{objective}]"


def requirements(instance, years, min_snr_db=20.0) -> RequirementSet:
    """Two disjoint routes per sensor, an SNR floor and a lifetime."""
    reqs = RequirementSet()
    for sensor in instance.sensor_ids:
        reqs.require_route(sensor, instance.sink_id, replicas=2, disjoint=True)
    if min_snr_db is not None:
        reqs.link_quality = LinkQualityRequirement(min_snr_db=min_snr_db)
    if years is not None:
        reqs.lifetime = LifetimeRequirement(years=years)
    return reqs


def small_cases(name, instance, k_star, full=False) -> Iterator[Case]:
    for years in (None, 5.0, 10.0, 15.0):
        reqs = requirements(instance, years)
        for objective in OBJECTIVES:
            yield Case(f"{name} {years or 'no'} y", instance, reqs, objective,
                       k_star, full)


def full_set() -> Iterator[Case]:
    """Every case of the differential."""
    for seed in (11, 12):
        for n_total, n_end in LADDER:
            instance = synthetic_template(n_total, n_end, seed=seed)
            yield Case(f"ladder ({n_total},{n_end}) s{seed}", instance,
                       requirements(instance, 5.0), "cost")
    instance = synthetic_template(100, 50, seed=11)
    yield Case("ladder (100,50) s11", instance,
               requirements(instance, 5.0), "cost")
    instance = data_collection_template(n_sensors=20, n_relay_candidates=60)
    yield Case("table1", instance, requirements(instance, 5.0), "cost")
    yield from small_cases("grid 4x3", small_grid_template(4, 3, 10.0), 6)
    yield from small_cases("grid 3x2", small_grid_template(3, 2, 10.0), 4)
    yield from small_cases("synthetic (30,12,2)",
                           synthetic_template(30, 12, seed=2), 10)
    yield from small_cases("synthetic (40,15,4)",
                           synthetic_template(40, 15, seed=4), 10)
    for spacing in (25.0, 35.0):
        instance = small_grid_template(4, 3, spacing)
        for years in (10.0, 15.0, 20.0):
            reqs = requirements(instance, years, min_snr_db=None)
            for objective in OBJECTIVES:
                yield Case(f"grid 4x3 {spacing:g} m {years:g} y", instance,
                           reqs, objective, 6)
    yield from small_cases("full 3x2", small_grid_template(3, 2, 10.0), 4,
                           full=True)


def quick_set() -> Iterator[Case]:
    """The tier-1 slice: ETX above 1, every objective, both encodings."""
    grid = small_grid_template(3, 2, 10.0)
    for objective in OBJECTIVES:
        yield Case("grid 3x2 10 y", grid, requirements(grid, 10.0),
                   objective, 4)
    far = small_grid_template(3, 2, 35.0)
    for objective in OBJECTIVES:
        yield Case("grid 3x2 35 m 10 y", far,
                   requirements(far, 10.0, min_snr_db=None), objective, 4)
    grid = small_grid_template(4, 3, 10.0)
    for objective in OBJECTIVES:
        yield Case("grid 4x3 10 y", grid, requirements(grid, 10.0),
                   objective, 6)
    grid = small_grid_template(3, 2, 10.0)
    for objective in ("cost", "energy"):
        yield Case("full 3x2 15 y", grid, requirements(grid, 15.0),
                   objective, 4, full=True)
    instance = synthetic_template(50, 20, seed=11)
    yield Case("ladder (50,20) s11", instance, requirements(instance, 5.0),
               "cost")


def solve(case: Case):
    """``case`` solved to a near-exact gap, with its wall time."""
    encoder = (
        FullPathEncoder() if case.full
        else ApproximatePathEncoder(k_star=case.k_star)
    )
    explorer = DataCollectionExplorer(
        case.instance.template, default_catalog(), case.requirements,
        encoder=encoder,
        solver=HighsSolver(time_limit=TIME_LIMIT_S, mip_rel_gap=1e-9),
    )
    start = time.perf_counter()
    result = explorer.solve(case.objective)
    return result, time.perf_counter() - start


def compare(case: Case) -> tuple[list[str], str, bool]:
    """The failures of one case, a one-line account of it, and whether
    the chain proved its optimum."""
    exact, exact_s = solve(case)
    with chain_energy():
        chain, chain_s = solve(case)
    failures = []
    for label, result in (("exact", exact), ("chain", chain)):
        if result.architecture is not None:
            report = validate(result.architecture, case.requirements)
            if not report.ok:
                failures.append(
                    f"{label} design fails validation: {report.violations[:2]}"
                )
    tolerance = REL_TOL * max(1.0, abs(chain.objective_value))
    if chain.status is SolveStatus.OPTIMAL:
        if exact.status is not SolveStatus.OPTIMAL:
            failures.append(f"exact model ends {exact.status.name}")
        elif abs(exact.objective_value - chain.objective_value) > tolerance:
            failures.append(
                f"objective {exact.objective_value!r} vs the chain's "
                f"{chain.objective_value!r}"
            )
    elif chain.status is SolveStatus.FEASIBLE:
        if exact.status is SolveStatus.INFEASIBLE:
            failures.append("the chain finds a design, the exact model "
                            "proves INFEASIBLE")
        elif (exact.status is SolveStatus.OPTIMAL
                and exact.objective_value > chain.objective_value + tolerance):
            failures.append(
                f"optimum {exact.objective_value!r} above the chain's "
                f"incumbent {chain.objective_value!r}"
            )
    elif chain.status is SolveStatus.INFEASIBLE and exact.feasible:
        failures.append("the chain proves INFEASIBLE, the exact model solves")
    line = (
        f"{case.label}: exact {exact.status.name} {exact.objective_value} "
        f"({exact_s:.2f} s), chain {chain.status.name} "
        f"{chain.objective_value} ({chain_s:.2f} s)"
    )
    return failures, line, chain.status is SolveStatus.OPTIMAL


def differential(cases, log=print) -> tuple[int, int, list[str]]:
    """Run every case; returns (cases, chain-optimal cases, failures)."""
    failures: list[str] = []
    count = proven = 0
    for case in cases:
        count += 1
        problems, line, chain_proven = compare(case)
        proven += chain_proven
        log(line)
        failures.extend(f"{case.label}: {problem}" for problem in problems)
    return count, proven, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the tier-1 slice only")
    args = parser.parse_args(argv)
    cases = quick_set() if args.quick else full_set()
    count, proven, failures = differential(cases)
    print(
        f"{count} cases, {proven} proven optimal by the chain: "
        f"{len(failures)} failures"
    )
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
