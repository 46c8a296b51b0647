"""Tests for the K* search procedure (Section 4.3)."""

from types import SimpleNamespace

import pytest

from repro.core import DataCollectionExplorer, SolveOptions, kstar_search
from repro.core.kstar import KStarTrial, scan_ladder
from repro.encoding import ApproximatePathEncoder
from repro.library import default_catalog
from repro.network import (
    LinkQualityRequirement,
    RequirementSet,
    small_grid_template,
)
from repro.runtime import EncodeCache


@pytest.fixture(scope="module")
def problem():
    instance = small_grid_template(nx=5, ny=3)
    reqs = RequirementSet()
    for s in instance.sensor_ids:
        reqs.require_route(s, instance.sink_id, replicas=2, disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    return instance, reqs


def make_factory(problem):
    instance, reqs = problem

    def factory(k):
        return DataCollectionExplorer(
            instance.template, default_catalog(), reqs,
            encoder=ApproximatePathEncoder(k_star=k),
        )

    return factory


def stub_trial(k, objective, seconds=0.1):
    """A ladder rung with a stand-in result (inf objective = infeasible)."""
    feasible = objective != float("inf")
    result = SimpleNamespace(
        feasible=feasible,
        objective_value=objective if feasible else None,
        total_seconds=seconds,
    )
    return KStarTrial(k_star=k, result=result)


class TestKStarSearch:
    def test_objective_non_increasing_along_ladder(self, problem):
        result = kstar_search(make_factory(problem), ladder=(1, 3, 5, 10))
        objectives = [t.objective for t in result.trials]
        # Larger candidate pools can only help (weakly).
        for earlier, later in zip(objectives, objectives[1:]):
            assert later <= earlier + 1e-6

    def test_best_is_minimum(self, problem):
        result = kstar_search(make_factory(problem), ladder=(1, 3, 5))
        assert result.best.objective == min(
            t.objective for t in result.trials
        )

    def test_stops_on_no_improvement(self, problem):
        # The tiny grid saturates early: the search must not run the
        # whole ladder once the objective stops moving.
        result = kstar_search(
            make_factory(problem), ladder=(3, 5, 8, 10, 12, 15)
        )
        assert result.stop_reason == "no further improvement"
        assert len(result.trials) < 6

    def test_time_threshold_respected(self, problem):
        result = kstar_search(
            make_factory(problem), ladder=(1, 3, 5), time_threshold_s=0.0
        )
        assert result.stop_reason == "time threshold exceeded"
        assert len(result.trials) == 1

    def test_table_rows_shape(self, problem):
        result = kstar_search(make_factory(problem), ladder=(1, 3))
        rows = result.table_rows()
        assert len(rows) == len(result.trials)
        for k, objective, seconds in rows:
            assert k in (1, 3)
            assert objective > 0
            assert seconds >= 0

    def test_parallel_matches_sequential(self, problem):
        ladder = (1, 3, 5, 8)
        sequential = kstar_search(make_factory(problem), ladder=ladder)
        parallel = kstar_search(
            make_factory(problem), ladder=ladder,
            options=SolveOptions(parallel=2), cache=EncodeCache(),
        )
        assert parallel.stop_reason == sequential.stop_reason
        assert parallel.best.k_star == sequential.best.k_star
        assert [t.objective for t in parallel.trials] == [
            t.objective for t in sequential.trials
        ]

    def test_shared_cache_hits_after_first_rung(self, problem):
        cache = EncodeCache()
        kstar_search(make_factory(problem), ladder=(1, 3, 5), cache=cache)
        # Later rungs reuse the path-loss-weighted graph of the first.
        assert cache.counters.hit_count("pathloss") >= 2


class TestScanLadderStopRules:
    """Unit coverage of the Section 4.3 stop conditions on stub rungs."""

    def test_ladder_exhausted(self):
        trials = [stub_trial(1, 100.0), stub_trial(3, 50.0)]
        result = scan_ladder(iter(trials))
        assert result.stop_reason == "ladder exhausted"
        assert result.best.k_star == 3
        assert len(result.trials) == 2

    def test_time_threshold(self):
        trials = [stub_trial(1, 100.0, seconds=2.0), stub_trial(3, 50.0)]
        result = scan_ladder(iter(trials), time_threshold_s=1.0)
        assert result.stop_reason == "time threshold exceeded"
        assert len(result.trials) == 1

    def test_no_improvement_on_equal_objective(self):
        trials = [stub_trial(1, 100.0), stub_trial(3, 100.0),
                  stub_trial(5, 10.0)]
        result = scan_ladder(iter(trials))
        assert result.stop_reason == "no further improvement"
        assert len(result.trials) == 2
        assert result.best.k_star == 1

    def test_tiny_gain_counts_as_no_improvement(self):
        trials = [stub_trial(1, 100.0), stub_trial(3, 100.0 - 1e-6)]
        result = scan_ladder(iter(trials), min_relative_gain=1e-3)
        assert result.stop_reason == "no further improvement"

    def test_infeasible_first_rung_does_not_stop_search(self):
        # Regression: inf - x > gain * inf is numerically False, which
        # used to read as "no improvement" on the first feasible rung.
        trials = [
            stub_trial(1, float("inf")),
            stub_trial(3, 80.0),
            stub_trial(5, 40.0),
        ]
        result = scan_ladder(iter(trials))
        assert result.stop_reason == "ladder exhausted"
        assert result.best.k_star == 5
        assert len(result.trials) == 3

    def test_all_infeasible_keeps_climbing(self):
        trials = [stub_trial(k, float("inf")) for k in (1, 3, 5)]
        result = scan_ladder(iter(trials))
        assert result.stop_reason == "ladder exhausted"
        assert len(result.trials) == 3
        assert result.best.objective == float("inf")

    def test_lazy_consumption_stops_solving(self):
        solved = []

        def rungs():
            for k, obj in ((1, 100.0), (3, 100.0), (5, 1.0)):
                solved.append(k)
                yield stub_trial(k, obj)

        scan_ladder(rungs())
        assert solved == [1, 3]


class TestIncumbentChaining:
    """Sequential rungs hand their architecture to the next rung."""

    def test_sequential_rungs_chain_the_previous_architecture(self, problem):
        seen = []
        factory = make_factory(problem)

        def recording_factory(k):
            explorer = factory(k)
            seen.append(explorer)
            return explorer

        result = kstar_search(recording_factory, ladder=(1, 3, 5))
        assert result.best is not None
        # The first rung starts cold; every later rung was seeded with
        # the previous rung's feasible architecture.
        assert seen[0].warm_start_architecture is None
        for explorer, previous in zip(seen[1:], result.trials):
            if previous.result.feasible:
                assert explorer.warm_start_architecture is (
                    previous.result.architecture
                )

    def test_chained_objectives_match_the_cold_ladder(self, problem):
        factory = make_factory(problem)
        warm = kstar_search(factory, ladder=(1, 3, 5))
        cold = [factory(t.k_star).solve("cost") for t in warm.trials]
        assert [t.objective for t in warm.trials] == pytest.approx(
            [r.objective_value for r in cold]
        )

    def test_sequential_rungs_warm_start_by_default(self, problem):
        result = kstar_search(make_factory(problem), ladder=(1, 3, 5))
        assert len(result.trials) > 1
        first, *later = result.trials
        assert "warm_start" not in first.result.solution.extra
        for trial in later:
            info = trial.result.solution.extra["warm_start"]
            assert info["status"] == "accepted"

    def test_parallel_rungs_never_chain(self, problem):
        result = kstar_search(
            make_factory(problem), ladder=(1, 3, 5),
            options=SolveOptions(parallel=2), cache=EncodeCache(),
        )
        assert len(result.trials) > 1
        assert all(
            "warm_start" not in t.result.solution.extra
            for t in result.trials
        )
