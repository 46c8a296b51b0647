#!/usr/bin/env python
"""Differential check: shared link binaries against per-link wiring.

The approximate encoding gives a link that only one candidate path uses
that path's binary as its link variable, and wires no rows tying the two
(:func:`repro.encoding.approximate.link_variables`).  Before, every link
had its own ``e[u,v]`` binary with ``e >= use`` and ``e <= sum(uses)``
rows, which force ``e = y`` on such a link; ``tests/edge_wiring_reference.py``
keeps that wiring.  The two models must reach the same optimum.  This
script solves each chosen problem twice, once as the library builds it
and once with the reference wiring swapped in, and compares.

A problem fails when the two solves end in different statuses (or raise
different errors), when their objectives differ by more than 1e-6
relative, or when either design fails :func:`repro.validation.validate`.

The set: the registry problems of the chosen seed blocks and the six
perfbench ladder rungs at template seeds 11 and 12.

Usage::

    PYTHONPATH=src python tools/check_wiring_differential.py [--seeds 0 5] [--stride N]

``--seeds`` picks registry seed blocks: block ``S`` is registry seeds
``S`` to ``S+4``, the problems of perfbench's ``corpus`` at
``--input-seed S``.  ``--stride N`` keeps every N-th problem name.  Exit
status is 1 when any problem fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import repro  # noqa: E402
from repro.network import (  # noqa: E402
    LifetimeRequirement,
    LinkQualityRequirement,
    ReachabilityRequirement,
    RequirementSet,
)
from repro.runtime.cache import EncodeCache  # noqa: E402
from repro.validation import validate  # noqa: E402
from tests.edge_wiring_reference import reference_wiring  # noqa: E402
from tools.check_pool_differential import registry_scenarios  # noqa: E402

REL_TOL = 1e-6
#: perfbench's ladder rungs as (nodes in total, end devices) and K*.
LADDER_RUNGS = ((50, 20), (60, 20), (75, 20), (80, 30), (100, 25), (100, 30))
LADDER_SEEDS = (11, 12)
LADDER_K_STAR = 10


@dataclass(frozen=True)
class Case:
    """One problem: a cold solve and what to validate its design against."""

    name: str
    solve: Callable[[], object]
    requirements: RequirementSet
    channel: object = None


def registry_cases(blocks: Iterable[int], stride: int = 1) -> Iterator[Case]:
    """The registry problems of the given seed blocks, every ``stride``-th."""
    for scenario in registry_scenarios(blocks, stride):
        reqs = scenario.requirements
        if isinstance(reqs, ReachabilityRequirement):
            reqs = RequirementSet(reachability=reqs)

        def solve(scenario=scenario):
            return scenario.explore(cache=EncodeCache())

        yield Case(scenario.name, solve, reqs, scenario.channel)


def ladder_cases() -> Iterator[Case]:
    """perfbench's ladder rungs at both template seeds."""
    for seed in LADDER_SEEDS:
        for n_total, n_end in LADDER_RUNGS:
            instance = repro.synthetic_template(n_total, n_end, seed=seed)
            reqs = RequirementSet()
            for sensor in instance.sensor_ids:
                reqs.require_route(
                    sensor, instance.sink_id, replicas=2, disjoint=True
                )
            reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
            reqs.lifetime = LifetimeRequirement(years=5.0)

            def solve(template=instance.template, reqs=reqs):
                return repro.explore(
                    template, repro.default_catalog(), reqs,
                    k_star=LADDER_K_STAR,
                )

            yield Case(f"ladder {n_total}x{n_end} s{seed}", solve, reqs)


def run(case: Case):
    """``case``'s result, or the text of the error its solve raised."""
    try:
        return case.solve()
    except Exception as exc:  # compared across the two wirings
        return f"{type(exc).__name__}: {exc}"


def compare(case: Case) -> tuple[list[str], int, int]:
    """The failures of one case and both models' row counts."""
    library = run(case)
    with reference_wiring():
        reference = run(case)
    if isinstance(library, str) or isinstance(reference, str):
        if library != reference:
            return [f"library {library!r}, reference {reference!r}"], 0, 0
        return [], 0, 0
    failures = []
    if library.status is not reference.status:
        failures.append(
            f"status {library.status.name} vs the reference's "
            f"{reference.status.name}"
        )
    elif library.feasible:
        tolerance = REL_TOL * max(1.0, abs(reference.objective_value))
        if abs(library.objective_value - reference.objective_value) > tolerance:
            failures.append(
                f"objective {library.objective_value!r} vs the reference's "
                f"{reference.objective_value!r}"
            )
    for label, result in (("library", library), ("reference", reference)):
        if result.architecture is not None:
            report = validate(result.architecture, case.requirements,
                              case.channel)
            if not report.ok:
                failures.append(
                    f"{label} design fails validation: {report.violations[:2]}"
                )
    return (
        failures,
        library.model_stats.num_constraints,
        reference.model_stats.num_constraints,
    )


def differential(cases: Iterable[Case]) -> tuple[list[str], int, int, int]:
    """Failures as ``name: failure``, the case count and both row totals."""
    failures: list[str] = []
    count = rows = reference_rows = 0
    for case in cases:
        count += 1
        problems, library_rows, wired_rows = compare(case)
        rows += library_rows
        reference_rows += wired_rows
        failures.extend(f"{case.name}: {problem}" for problem in problems)
    return failures, count, rows, reference_rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--stride", type=int, default=1)
    args = parser.parse_args(argv)
    failures, count, rows, reference_rows = differential(
        chain(registry_cases(args.seeds, args.stride), ladder_cases())
    )
    print(
        f"{count} problems, {reference_rows} rows with per-link wiring, "
        f"{rows} with shared link binaries: {len(failures)} failures"
    )
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
