"""Table 4 — solution cost and solver time as a function of K*.

Paper row format: for templates T1 (50 nodes / 20 end devices) and T2
(250 / 200), the $ cost and time for K* in {1, 3, 5, 10, 20}, plus the
full-enumeration optimum on T1.

Expected shape: cost is non-increasing in K* (the candidate pool only
grows); time increases steeply with K*; the exhaustive optimum is the
cheapest and by far the slowest; K* in 3-10 is the knee of the trade-off
(the paper's guideline).

The ladder runs through the :mod:`repro.runtime` subsystem: every rung
shares one :class:`~repro.runtime.EncodeCache` (so rungs after the first
reuse the path-loss-weighted graph instead of re-deriving it), and the
dedicated parallel test pushes the whole T1 ladder through a two-worker
:class:`~repro.runtime.BatchRunner` and checks the objectives match the
sequential solves bit for bit.
"""

import pytest

from conftest import paper_scale, write_table
from repro import (
    ApproximatePathEncoder,
    BatchRunner,
    DataCollectionExplorer,
    EncodeCache,
    FullPathEncoder,
    HighsSolver,
    Trial,
    default_catalog,
    synthetic_template,
)
from repro.network import LinkQualityRequirement, RequirementSet

K_LADDER = (1, 3, 5, 10, 20)
FULL_TIMEOUT = 300.0


def make_problem(n_total, n_end):
    instance = synthetic_template(n_total, n_end, seed=11)
    reqs = RequirementSet()
    for s in instance.sensor_ids:
        reqs.require_route(s, instance.sink_id, replicas=2, disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    return instance, reqs


@pytest.fixture(scope="module")
def t1():
    # At the default scale T1 is small enough for the full enumeration to
    # *prove* its optimum within the timeout — otherwise the "opt" column
    # would show a worse-than-approx incumbent and demonstrate nothing.
    if paper_scale():
        return make_problem(50, 20)
    return make_problem(35, 12)


@pytest.fixture(scope="module")
def t2():
    if paper_scale():
        return make_problem(250, 200)
    return make_problem(120, 60)


@pytest.fixture(scope="module")
def collected():
    return {"T1": {}, "T2": {}}


@pytest.fixture(scope="module")
def ladder_caches():
    """One shared encode cache per template, for the sequential rungs."""
    return {"T1": EncodeCache(), "T2": EncodeCache()}


def _solve(problem, k_star, cache=None):
    instance, reqs = problem
    explorer = DataCollectionExplorer(
        instance.template, default_catalog(), reqs,
        encoder=ApproximatePathEncoder(k_star=k_star),
        solver=HighsSolver(time_limit=600.0, mip_rel_gap=0.01),
        cache=cache,
    )
    result = explorer.solve("cost")
    assert result.feasible, f"K*={k_star} infeasible"
    return result


@pytest.mark.parametrize("k_star", K_LADDER)
def test_table4_t1_kstar(benchmark, t1, k_star, collected, ladder_caches):
    result = benchmark.pedantic(
        lambda: _solve(t1, k_star, ladder_caches["T1"]), rounds=1, iterations=1
    )
    collected["T1"][k_star] = result


@pytest.mark.parametrize("k_star", K_LADDER)
def test_table4_t2_kstar(benchmark, t2, k_star, collected, ladder_caches):
    result = benchmark.pedantic(
        lambda: _solve(t2, k_star, ladder_caches["T2"]), rounds=1, iterations=1
    )
    collected["T2"][k_star] = result


def test_table4_cache_reused_across_rungs(collected, ladder_caches):
    """Rungs after the first score nonzero hits on the shared cache."""
    for name in ("T1", "T2"):
        cache = ladder_caches[name]
        assert cache.counters.hit_count("pathloss") >= len(K_LADDER) - 1, (
            f"{name}: later rungs did not reuse the weighted graph"
        )
        # Per-rung attribution: every rung but the first saw cache hits.
        rungs = [collected[name][k] for k in K_LADDER]
        assert sum(
            1 for r in rungs if r.run_stats.cache.hit_count() > 0
        ) >= len(K_LADDER) - 1


def test_table4_t1_parallel_ladder(benchmark, t1, collected):
    """The T1 ladder on a two-worker runner matches the sequential costs."""
    cache = EncodeCache()
    runner = BatchRunner(workers=2)

    def run_ladder():
        outcomes = runner.run([
            Trial(_solve, (t1, k, cache), label=f"K*={k}") for k in K_LADDER
        ])
        return [o.unwrap() for o in outcomes]

    results = benchmark.pedantic(run_ladder, rounds=1, iterations=1)
    assert cache.counters.hit_count("pathloss") >= len(K_LADDER) - 1
    for k, parallel_result in zip(K_LADDER, results):
        sequential_result = collected["T1"][k]
        assert parallel_result.objective_value == pytest.approx(
            sequential_result.objective_value
        ), f"parallel K*={k} diverged from the sequential solve"


def test_table4_t1_full_optimum(benchmark, t1, collected):
    instance, reqs = t1
    explorer = DataCollectionExplorer(
        instance.template, default_catalog(), reqs,
        encoder=FullPathEncoder(),
        solver=HighsSolver(time_limit=FULL_TIMEOUT, mip_rel_gap=0.01),
    )
    result = benchmark.pedantic(
        lambda: explorer.solve("cost"), rounds=1, iterations=1
    )
    collected["T1"]["opt"] = result

    # --- assemble the table and check the shape ---------------------------
    header_cells = "".join(f"{f'K*={k}':>10}" for k in K_LADDER)
    rows = []
    for name in ("T1", "T2"):
        data = collected[name]
        costs = "".join(
            f"{data[k].architecture.dollar_cost:>10.0f}" for k in K_LADDER
        )
        times = "".join(
            f"{data[k].total_seconds:>10.2f}" for k in K_LADDER
        )
        if "opt" in data:
            opt = data["opt"]
            if opt.feasible and opt.status.name == "OPTIMAL":
                costs += f"  opt={opt.architecture.dollar_cost:.0f}"
                times += f"  opt={opt.total_seconds:.1f}s"
            else:
                costs += "  opt=TO"
                times += f"  opt=TO(>{FULL_TIMEOUT:.0f}s)"
        rows.append(f"{name} cost($) {costs}")
        rows.append(f"{name} time(s) {times}")
    write_table("table4_kstar", f"{'Result':<10}{header_cells}", rows)

    for name in ("T1", "T2"):
        data = collected[name]
        # Cost is non-increasing in K* (up to the 1% MIP gap).
        for a, b in zip(K_LADDER, K_LADDER[1:]):
            assert (data[b].architecture.dollar_cost
                    <= data[a].architecture.dollar_cost * 1.012), (
                f"{name}: cost increased from K*={a} to K*={b}"
            )
        # K*=20 is substantially cheaper than the fixed-routing K*=1.
        assert (data[20].architecture.dollar_cost
                < data[1].architecture.dollar_cost)
    # The exhaustive optimum is the cheapest of all (within the gap).
    opt_result = collected["T1"]["opt"]
    if opt_result.feasible and opt_result.status.name == "OPTIMAL":
        for k in K_LADDER:
            assert (opt_result.architecture.dollar_cost
                    <= collected["T1"][k].architecture.dollar_cost * 1.012)
