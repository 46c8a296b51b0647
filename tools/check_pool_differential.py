#!/usr/bin/env python
"""Differential check: A* candidate pools equal plain-Dijkstra pools.

The CSR Yen kernel runs every search as A* on the target's potentials
(:meth:`repro.graph.kernels.CSRGraph.potentials`).  Its tie contract
says that on graphs without zero-weight edges, such as every path-loss
graph, the potentials only change how much of the graph a search
settles, never which path it returns.  This script holds it to that on
the scenario registry: for every route requirement of each chosen problem
it runs Algorithm 1's ``generate_candidate_pool`` on the facade's
working graph (the template's path-loss weights) twice, once as the
library runs it and once with the potentials replaced by zeros, which
makes every search plain Dijkstra.  The two pools must agree path for
path and cost for cost, or fail alike.

Usage::

    PYTHONPATH=src python tools/check_pool_differential.py [--seeds 0 5] [--stride N]

``--seeds`` picks registry seed blocks: block ``S`` is registry seeds
``S`` to ``S+4``, the problems of perfbench's ``corpus`` at
``--input-seed S``.  ``--stride N`` keeps every N-th problem name.  Exit
status is 1 when any pool differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from unittest import mock

import numpy as np

from repro.encoding.approximate import generate_candidate_pool
from repro.encoding.base import EncodingError
from repro.graph.kernels import CSRGraph, csr_k_shortest_paths
from repro.network import RequirementSet
from repro.runtime.cache import build_weighted_graph
from repro.scenarios import ScenarioRegistry

#: Registry seeds per block, as in perfbench's ``corpus`` workload.
SEEDS_PER_BLOCK = 5


def zero_potentials(csr: CSRGraph, target: int) -> np.ndarray:
    """Stand-in for :meth:`CSRGraph.potentials`: plain Dijkstra."""
    return np.zeros(csr.node_count)


def scenario_pools(scenario, counter: list[int]) -> list:
    """Every route requirement's pool (or its error) for ``scenario``.

    ``counter[0]`` is increased by the number of Yen queries run.
    """

    def yen(graph, source, target, k):
        counter[0] += 1
        return csr_k_shortest_paths(graph, source, target, k)

    graph = build_weighted_graph(scenario.template)
    pools: list = []
    for req in scenario.requirements.routes:
        try:
            pool = generate_candidate_pool(graph, req, scenario.k_star, yen=yen)
        except EncodingError as exc:
            pools.append(str(exc))
        else:
            pools.append([(p.nodes, p.loss_db) for p in pool])
    return pools


def differential(scenarios: Iterable) -> tuple[list[str], int, int]:
    """Names whose pools differ, plus problem and Yen query counts."""
    mismatched: list[str] = []
    problems = 0
    queries = [0]
    for scenario in scenarios:
        if not isinstance(scenario.requirements, RequirementSet):
            continue  # localization problems build no pools
        problems += 1
        astar = scenario_pools(scenario, queries)
        with mock.patch.object(CSRGraph, "potentials", zero_potentials):
            plain = scenario_pools(scenario, [0])
        if astar != plain:
            mismatched.append(scenario.name)
    return mismatched, problems, queries[0]


def registry_scenarios(blocks: Iterable[int], stride: int = 1):
    """The registry problems of the given seed blocks, every ``stride``-th."""
    for block in blocks:
        registry = ScenarioRegistry(seeds=range(block, block + SEEDS_PER_BLOCK))
        for name in registry.names()[::stride]:
            yield registry.generate(name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--stride", type=int, default=1)
    args = parser.parse_args(argv)
    mismatched, problems, queries = differential(
        registry_scenarios(args.seeds, args.stride)
    )
    print(
        f"{problems} problems, {queries} Yen queries: "
        f"{len(mismatched)} pool mismatches"
    )
    for name in mismatched:
        print(f"  {name}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
