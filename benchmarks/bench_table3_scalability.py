"""Table 3 — problem size and solver time, full vs approximate encoding.

Paper row format:
  #Nodes (total) | #End devices | #Constraints x10^3 (full / approx) |
  Time (s) (full / approx)
for synthetic data-collection families from (50, 20) to (500, 200), K*=10.

The full-encoding constraint counts come from the closed-form estimator
(:func:`repro.encoding.estimate_full_encoding_stats`, pinned by unit test
to equal the built model) — at these sizes assembling the full model is
exactly the intractability the table demonstrates, and the paper likewise
reports "~" estimates for its larger rows.  The full *solve* is attempted
only on the smallest instance with a short timeout; larger rows are TO by
construction (the paper saw 8233 s there on CPLEX and TO everywhere else).

Expected shape: approx counts 1-2 orders of magnitude below full at every
size; approx keeps solving as full times out.
"""

import pytest

from conftest import paper_scale, write_table
from repro import (
    ApproximatePathEncoder,
    DataCollectionExplorer,
    FullPathEncoder,
    HighsSolver,
    default_catalog,
    synthetic_template,
    validate,
)
from repro.encoding import estimate_full_encoding_stats
from repro.network import (
    LifetimeRequirement,
    LinkQualityRequirement,
    RequirementSet,
)

SMALL_LADDER = [(50, 20), (100, 20), (100, 50), (150, 50)]
PAPER_LADDER = [
    (50, 20), (100, 20), (100, 50), (100, 75),
    (250, 50), (250, 100), (250, 200),
    (500, 50), (500, 100), (500, 200),
]
FULL_SOLVE_TIMEOUT = 120.0


def ladder():
    return PAPER_LADDER if paper_scale() else SMALL_LADDER


def make_problem(n_total, n_end):
    instance = synthetic_template(n_total, n_end, seed=11)
    reqs = RequirementSet()
    for s in instance.sensor_ids:
        reqs.require_route(s, instance.sink_id, replicas=2, disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    reqs.lifetime = LifetimeRequirement(years=5.0)
    return instance, reqs


def solve_approx(instance, reqs):
    explorer = DataCollectionExplorer(
        instance.template, default_catalog(), reqs,
        encoder=ApproximatePathEncoder(k_star=10),
        solver=HighsSolver(time_limit=600.0, mip_rel_gap=0.02),
    )
    return explorer.solve("cost")


@pytest.fixture(scope="module")
def table_rows():
    return []


@pytest.mark.parametrize("n_total,n_end", SMALL_LADDER)
def test_table3_row(benchmark, n_total, n_end, table_rows):
    if paper_scale() and (n_total, n_end) not in PAPER_LADDER:
        pytest.skip("covered by the paper ladder")
    instance, reqs = make_problem(n_total, n_end)
    full_estimate = estimate_full_encoding_stats(
        instance.template, reqs, default_catalog()
    )

    result = benchmark.pedantic(
        lambda: solve_approx(instance, reqs), rounds=1, iterations=1
    )
    assert result.feasible, f"approx failed at ({n_total}, {n_end})"
    report = validate(result.architecture, reqs)
    assert report.ok, report.violations[:3]

    approx_k = result.model_stats.num_constraints / 1e3
    full_k = full_estimate.num_constraints / 1e3
    # Only the smallest instance gets a full-encoding solve attempt.
    full_time = "TO"
    if (n_total, n_end) == SMALL_LADDER[0]:
        full_result = DataCollectionExplorer(
            instance.template, default_catalog(), reqs,
            encoder=FullPathEncoder(),
            solver=HighsSolver(time_limit=FULL_SOLVE_TIMEOUT),
        ).solve("cost")
        built_stats = full_result.model_stats
        # Estimator must agree with the actually-built model here too.
        assert built_stats.num_constraints == full_estimate.num_constraints
        if full_result.status.name == "OPTIMAL":
            full_time = f"{full_result.total_seconds:.0f}"
        else:
            full_time = f"TO(>{FULL_SOLVE_TIMEOUT:.0f})"

    table_rows.append(
        f"{n_total:>7} {n_end:>12} {full_k:>10.0f} / {approx_k:<8.1f} "
        f"{full_time:>10} / {result.total_seconds:<8.1f}"
    )

    # --- the paper's qualitative shape -----------------------------------
    assert full_estimate.num_constraints > (
        10 * result.model_stats.num_constraints
    ), "full encoding should be >= an order of magnitude larger"

    if (n_total, n_end) == SMALL_LADDER[-1]:
        write_table(
            "table3_scalability",
            f"{'#Nodes':>7} {'#End devices':>12} "
            f"{'#Constraints k (full/approx)':>21} "
            f"{'Time s (full/approx)':>23}",
            table_rows,
        )
