"""Tests for the ``repro.explore`` facade and the explorer API redesign."""

import pytest

import repro
from repro.core.explorer import (
    AnchorPlacementExplorer,
    DataCollectionExplorer,
)
from repro.core.facade import build_explorer
from repro.library import default_catalog, localization_catalog
from repro.network import (
    LinkQualityRequirement,
    ReachabilityRequirement,
    RequirementSet,
    localization_template,
    small_grid_template,
)
from repro.runtime import EncodeCache


@pytest.fixture(scope="module")
def data_problem():
    instance = small_grid_template(nx=4, ny=3)
    reqs = RequirementSet()
    for s in instance.sensor_ids:
        reqs.require_route(s, instance.sink_id, replicas=2, disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    return instance, reqs


@pytest.fixture(scope="module")
def loc_problem():
    instance = localization_template(n_anchor_candidates=30, n_test_points=12)
    requirement = ReachabilityRequirement(
        test_points=instance.test_points, min_anchors=3, min_rss_dbm=-80.0
    )
    return instance, requirement


class TestBuildExplorer:
    def test_picks_data_collection(self, data_problem):
        instance, reqs = data_problem
        explorer = build_explorer(instance.template, default_catalog(), reqs)
        assert isinstance(explorer, DataCollectionExplorer)

    def test_picks_anchor_placement(self, loc_problem):
        instance, requirement = loc_problem
        explorer = build_explorer(
            instance.template, localization_catalog(), requirement,
            channel=instance.channel,
        )
        assert isinstance(explorer, AnchorPlacementExplorer)

    def test_localization_needs_channel(self, loc_problem):
        instance, requirement = loc_problem
        with pytest.raises(ValueError, match="channel"):
            build_explorer(
                instance.template, localization_catalog(), requirement
            )

    def test_encoder_and_k_star_are_exclusive(self, data_problem):
        instance, reqs = data_problem
        with pytest.raises(ValueError, match="not both"):
            build_explorer(
                instance.template, default_catalog(), reqs,
                encoder=repro.ApproximatePathEncoder(k_star=5), k_star=5,
            )

    def test_rejects_other_requirement_types(self, data_problem):
        instance, _ = data_problem
        with pytest.raises(TypeError):
            build_explorer(instance.template, default_catalog(), ["route"])


class TestExplore:
    def test_data_collection_end_to_end(self, data_problem):
        instance, reqs = data_problem
        result = repro.explore(
            instance.template, default_catalog(), reqs, objective="cost"
        )
        assert result.feasible
        assert result.run_stats is not None
        assert result.stats_dict()["encode_seconds"] > 0

    def test_localization_end_to_end(self, loc_problem):
        instance, requirement = loc_problem
        result = repro.explore(
            instance.template, localization_catalog(), requirement,
            objective="cost", channel=instance.channel,
        )
        assert result.feasible
        assert result.encoder_name.startswith("reach-pruned")

    def test_matches_direct_explorer(self, data_problem):
        instance, reqs = data_problem
        via_facade = repro.explore(
            instance.template, default_catalog(), reqs, objective="cost"
        )
        direct = DataCollectionExplorer(
            instance.template, default_catalog(), reqs
        ).solve("cost")
        assert via_facade.objective_value == pytest.approx(
            direct.objective_value
        )

    def test_objective_list_parallel_equals_sequential(self, data_problem):
        instance, reqs = data_problem
        objectives = ("cost", {"cost": 1.0, "energy": 0.2})
        sequential = repro.explore(
            instance.template, default_catalog(), reqs,
            objective=objectives,
        )
        parallel = repro.explore(
            instance.template, default_catalog(), reqs,
            objective=objectives, options=repro.SolveOptions(parallel=2),
        )
        assert isinstance(sequential, list) and len(sequential) == 2
        for seq, par in zip(sequential, parallel):
            assert par.objective_value == pytest.approx(seq.objective_value)

    def test_empty_objective_list_rejected(self, data_problem):
        instance, reqs = data_problem
        with pytest.raises(ValueError, match="objective"):
            repro.explore(
                instance.template, default_catalog(), reqs, objective=[]
            )

    def test_shared_cache_reports_hits(self, data_problem):
        instance, reqs = data_problem
        cache = EncodeCache()
        repro.explore(
            instance.template, default_catalog(), reqs, cache=cache
        )
        assert cache.counters.miss_count() > 0
        repro.explore(
            instance.template, default_catalog(), reqs, cache=cache
        )
        assert cache.counters.hit_count() > 0


class TestKeywordOnlyConstructors:
    def test_data_collection_rejects_positional_options(self, data_problem):
        instance, reqs = data_problem
        with pytest.raises(TypeError):
            DataCollectionExplorer(
                instance.template, default_catalog(), reqs,
                repro.ApproximatePathEncoder(k_star=5),
            )

    def test_anchor_placement_rejects_positional_options(self, loc_problem):
        instance, requirement = loc_problem
        with pytest.raises(TypeError):
            AnchorPlacementExplorer(
                instance.template, localization_catalog(), requirement,
                instance.channel, 10,
            )


class TestDeadlineGraceful:
    def test_spent_deadline_returns_timeout_results(self, data_problem):
        """explore() with several objectives and a spent deadline must
        degrade to TIMEOUT results, not raise TimeoutError mid-run."""
        from repro.milp.solution import SolveStatus
        from repro.resilience import DeadlineBudget

        instance, reqs = data_problem
        clock = [0.0]
        budget = DeadlineBudget(1.0, clock=lambda: clock[0])
        clock[0] = 5.0  # budget spent before any trial starts
        results = repro.explore(
            instance.template, default_catalog(), reqs,
            objective=["cost", "energy"],
            options=repro.SolveOptions(parallel=2), budget=budget,
        )
        assert [r.status for r in results] == [SolveStatus.TIMEOUT] * 2
        assert not any(r.feasible for r in results)
        # The degraded results still render and serialize.
        for result in results:
            assert "timeout" in result.summary()
            assert result.stats_dict()["status"] == "timeout"

    def test_spent_deadline_single_objective_is_a_timeout_result(
        self, data_problem, monkeypatch
    ):
        """One objective is solved directly, but a budget spent before
        the solve starts still yields the status-only TIMEOUT result
        without building anything."""
        from repro.core.explorer import ExplorerBase
        from repro.milp.solution import SolveStatus
        from repro.resilience import DeadlineBudget

        monkeypatch.setattr(
            ExplorerBase, "build",
            lambda *a, **k: pytest.fail("nothing should be built"),
        )
        instance, reqs = data_problem
        clock = [0.0]
        budget = DeadlineBudget(1.0, clock=lambda: clock[0])
        clock[0] = 5.0
        result = repro.explore(
            instance.template, default_catalog(), reqs, budget=budget,
        )
        assert result.status is SolveStatus.TIMEOUT
        assert not result.feasible
        assert result.stats_dict()["status"] == "timeout"

    def test_fingerprint_pins_problem_identity(self, data_problem, loc_problem):
        """Same problem -> same fingerprint; different problem -> different."""
        instance, reqs = data_problem
        a = build_explorer(instance.template, default_catalog(), reqs)
        b = build_explorer(instance.template, default_catalog(), reqs)
        assert a.fingerprint() == b.fingerprint()

        other = small_grid_template(nx=5, ny=3)
        other_reqs = RequirementSet()
        for s in other.sensor_ids:
            other_reqs.require_route(s, other.sink_id, replicas=2,
                                     disjoint=True)
        other_reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
        c = build_explorer(other.template, default_catalog(), other_reqs)
        assert a.fingerprint() != c.fingerprint()

        loc_instance, loc_req = loc_problem
        d = build_explorer(
            loc_instance.template, localization_catalog(), loc_req,
            channel=loc_instance.channel,
        )
        assert d.fingerprint() != a.fingerprint()
        assert d.fingerprint() == build_explorer(
            loc_instance.template, localization_catalog(), loc_req,
            channel=loc_instance.channel,
        ).fingerprint()


class TestSingleObjectiveSolvesOnce:
    def test_bad_input_builds_once_and_raises_once(self, monkeypatch):
        """A blocking analyzer finding is not retried: one build, one
        :class:`AnalysisError`."""
        from repro.analysis import AnalysisError
        from repro.core.explorer import ExplorerBase
        from repro.network import synthetic_template

        instance = synthetic_template(50, 20, seed=11)
        reqs = RequirementSet()
        reqs.require_route(
            instance.sensor_ids[0], instance.sink_id,
            replicas=40, disjoint=True,
        )
        builds, errors = [], []
        original = ExplorerBase.build

        def counting_build(self, *args, **kwargs):
            builds.append(1)
            try:
                return original(self, *args, **kwargs)
            except AnalysisError as exc:
                errors.append(exc)
                raise

        monkeypatch.setattr(ExplorerBase, "build", counting_build)
        with pytest.raises(AnalysisError) as info:
            repro.explore(instance.template, default_catalog(), reqs)
        assert len(builds) == 1
        assert errors == [info.value]
        assert "spec.route-min-cut" in {
            d.rule_id for d in info.value.report.errors
        }
