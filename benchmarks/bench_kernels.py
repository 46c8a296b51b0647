"""Kernel benchmark: CSR graph kernels + vectorized weighting vs reference.

Times the two stages that dominate candidate-pool construction on the
Table 3 synthetic families (see ``bench_table3_scalability.py``):

* **weighting** — ``Template.add_candidate_links`` (one path-loss
  evaluation per candidate pair): the template's scalar loop, with its
  distance prefilter, vs the channel model's vectorized
  ``path_loss_matrix`` hook that ``add_candidate_links`` uses;
* **pool** — Algorithm 1's per-requirement candidate generation
  (``generate_candidate_pool``: Yen K* queries + disconnection rounds),
  with the reference dict-based Yen (:mod:`repro.graph.yen`) as its
  ``yen=`` routine vs the default CSR Lawler-Yen kernel.

Results go to a JSON report (``--out``, default
``benchmarks/results/BENCH_kernels.json``) with per-case timings and
speedups.  ``--quick`` runs a two-size subset and *gates*: the process
exits non-zero if the CSR backend is slower than the reference on the
combined (weighting + pool) time of the medium grid fixture — CI runs
this as a regression tripwire.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick] [--out PATH]

This module is also imported (not executed) by pytest's benchmark
collection; it defines no test functions on purpose.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from _emit import bench_meta, write_report
from repro.encoding.approximate import generate_candidate_pool
from repro.graph import dijkstra, kernels, yen
from repro.network.builders import (
    DEFAULT_MAX_LINK_PL_DB,
    data_collection_template,
    synthetic_template,
)
from repro.network.requirements import RouteRequirement
from repro.network.template import Template, data_collection_link_rule
from repro.runtime.cache import build_weighted_graph

#: Synthetic (n_total, n_end_devices) grids, matching the Table 3 ladder's
#: growth; the last entry is the "largest grid" of the acceptance gate.
SIZES_FULL = [(50, 20), (100, 50), (150, 50), (250, 100), (500, 200)]
SIZES_QUICK = [(50, 20), (100, 50)]
#: The grid the --quick regression gate is evaluated on.
MEDIUM = (100, 50)

K_STAR = 10
POOL_ROUTES = 8  # sensors per instance whose pools are generated


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_weighting(instance, reference: bool, repeats: int) -> float:
    """Time re-weighting the instance's template.

    ``reference`` runs the template's scalar loop, distance prefilter
    included (what a channel without a ``path_loss_matrix`` hook gets);
    otherwise ``add_candidate_links`` batches through the model's hook.
    """
    nodes = instance.template.nodes
    channel = instance.channel

    def run() -> None:
        fresh = Template(nodes, instance.template.link_type)
        if reference:
            fresh._add_candidate_links_scalar(
                channel, DEFAULT_MAX_LINK_PL_DB, data_collection_link_rule
            )
        else:
            fresh.add_candidate_links(channel, DEFAULT_MAX_LINK_PL_DB)

    return _time(run, repeats)


def bench_pool(instance, reference: bool, repeats: int) -> float:
    """Time Algorithm 1 pool generation for the first few sensor routes.

    ``reference`` passes the dict-based Yen as the ``yen=`` routine;
    otherwise the pools run on the default CSR kernel.
    """
    graph = build_weighted_graph(instance.template)
    sensors = instance.sensor_ids[:POOL_ROUTES]
    reqs = [
        RouteRequirement(s, instance.sink_id, replicas=2, disjoint=True)
        for s in sensors
    ]
    routine = yen.k_shortest_paths if reference else None

    def run() -> None:
        for req in reqs:
            generate_candidate_pool(graph, req, K_STAR, yen=routine)

    return _time(run, repeats)


def bench_micro(instance, repeats: int) -> list[dict]:
    """Single-query Dijkstra / Yen micro-comparisons on the weighted graph."""
    graph = build_weighted_graph(instance.template)
    source = instance.sensor_ids[0]
    sink = instance.sink_id
    cases = []
    for name, ref_fn, csr_fn in (
        ("dijkstra",
         lambda: dijkstra.shortest_path(graph, source, sink),
         lambda: kernels.csr_shortest_path(graph, source, sink)),
        ("yen_k10",
         lambda: yen.k_shortest_paths(graph, source, sink, K_STAR),
         lambda: kernels.csr_k_shortest_paths(graph, source, sink, K_STAR)),
    ):
        ref = _time(ref_fn, repeats)
        csr = _time(csr_fn, repeats)
        cases.append(
            {
                "name": f"micro_{name}",
                "grid": None,
                "reference_s": ref,
                "csr_s": csr,
                "speedup": ref / csr if csr > 0 else float("inf"),
            }
        )
    return cases


def run_benchmarks(quick: bool) -> dict:
    """Run every case and return the JSON-ready report."""
    sizes = SIZES_QUICK if quick else SIZES_FULL
    repeats = 1 if quick else 3
    cases: list[dict] = []
    combined: dict[tuple[int, int], dict[str, float]] = {}

    for n_total, n_end in sizes:
        instance = synthetic_template(n_total, n_end, seed=11)
        w_ref = bench_weighting(instance, True, repeats)
        w_vec = bench_weighting(instance, False, repeats)
        p_ref = bench_pool(instance, True, repeats)
        p_csr = bench_pool(instance, False, repeats)
        grid = [n_total, n_end]
        cases.append(
            {
                "name": "weighting_synthetic",
                "grid": grid,
                "reference_s": w_ref,
                "csr_s": w_vec,
                "speedup": w_ref / w_vec,
            }
        )
        cases.append(
            {
                "name": "candidate_pool",
                "grid": grid,
                "reference_s": p_ref,
                "csr_s": p_csr,
                "speedup": p_ref / p_csr,
            }
        )
        cases.append(
            {
                "name": "pool_construction_combined",
                "grid": grid,
                "reference_s": w_ref + p_ref,
                "csr_s": w_vec + p_csr,
                "speedup": (w_ref + p_ref) / (w_vec + p_csr),
            }
        )
        combined[(n_total, n_end)] = {
            "reference_s": w_ref + p_ref,
            "csr_s": w_vec + p_csr,
        }
        print(
            f"  ({n_total:>3}, {n_end:>3})  weighting {w_ref:.3f}s -> "
            f"{w_vec:.3f}s ({w_ref / w_vec:.1f}x)   pool {p_ref:.3f}s -> "
            f"{p_csr:.3f}s ({p_ref / p_csr:.1f}x)"
        )

    # One office / multi-wall weighting case: the wall-crossing kernel is
    # the interesting part there (the synthetic family has no walls).
    office = data_collection_template()
    o_ref = bench_weighting(office, True, repeats)
    o_vec = bench_weighting(office, False, repeats)
    cases.append(
        {
            "name": "weighting_office_multiwall",
            "grid": [office.template.node_count, 0],
            "reference_s": o_ref,
            "csr_s": o_vec,
            "speedup": o_ref / o_vec,
        }
    )
    print(
        f"  office multiwall weighting {o_ref:.3f}s -> {o_vec:.3f}s "
        f"({o_ref / o_vec:.1f}x)"
    )

    if not quick:
        cases.extend(bench_micro(synthetic_template(*MEDIUM, seed=11), repeats))

    gate_grid = MEDIUM if MEDIUM in combined else sizes[-1]
    gate_times = combined[gate_grid]
    gate = {
        "grid": list(gate_grid),
        "reference_s": gate_times["reference_s"],
        "csr_s": gate_times["csr_s"],
        "passed": gate_times["csr_s"] <= gate_times["reference_s"],
    }
    return {
        "meta": bench_meta(
            mode="quick" if quick else "full",
            k_star=K_STAR,
            pool_routes=POOL_ROUTES,
            repeats=repeats,
        ),
        "cases": cases,
        "gate": gate,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="two-size subset + regression gate (non-zero exit on failure)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_kernels.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    print(f"kernel benchmarks ({'quick' if args.quick else 'full'} mode)")
    report = run_benchmarks(args.quick)
    write_report(args.out, report)
    print(f"wrote {args.out}")

    gate = report["gate"]
    status = "PASS" if gate["passed"] else "FAIL"
    print(
        f"gate [{status}] combined pool construction on grid {gate['grid']}: "
        f"reference {gate['reference_s']:.3f}s vs csr {gate['csr_s']:.3f}s"
    )
    if args.quick and not gate["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
