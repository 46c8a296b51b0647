"""Tests for the unified job request/result API (:mod:`repro.core.api`)."""

import pytest

import repro
from repro.core.api import JOB_SCHEMA_VERSION, JobRequest, JobResult
from repro.core.kstar import KStarSearchResult
from repro.core.options import SolveOptions
from repro.core.pareto import ParetoFront
from repro.resilience.checkpoint import RestoredResult

SMALL_KSTAR = {"nodes": 12, "devices": 5, "ladder": [1, 2]}


class TestJobRequestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobRequest(kind="optimize")

    def test_unknown_problem_parameter(self):
        with pytest.raises(ValueError, match="unknown problem parameter"):
            JobRequest(kind="kstar", problem={"node": 12})

    def test_problem_keys_are_per_kind(self):
        # "nodes" belongs to kstar, not synthesize.
        with pytest.raises(ValueError, match="synthesize"):
            JobRequest(kind="synthesize", problem={"nodes": 12})

    def test_options_type_checked(self):
        with pytest.raises(TypeError, match="SolveOptions"):
            JobRequest(kind="kstar", options={"parallel": 2})

    def test_empty_tenant_rejected(self):
        with pytest.raises(ValueError, match="tenant"):
            JobRequest(kind="kstar", tenant="")

    def test_resumable_property(self):
        assert JobRequest(kind="kstar").resumable
        assert JobRequest(kind="pareto").resumable
        assert not JobRequest(kind="synthesize").resumable
        assert not JobRequest(kind="localize").resumable


class TestJobRequestWire:
    def test_round_trip(self):
        request = JobRequest(
            kind="kstar", problem=dict(SMALL_KSTAR), objective="cost",
            options=SolveOptions(parallel=2, deadline_s=30.0),
            tenant="team-a",
        )
        payload = request.to_dict()
        assert payload["schema_version"] == JOB_SCHEMA_VERSION
        assert JobRequest.from_dict(payload) == request

    def test_minimal_payload_fills_defaults(self):
        request = JobRequest.from_dict({"kind": "synthesize"})
        assert request.objective == "cost"
        assert request.tenant == "default"
        assert request.options == SolveOptions()

    def test_unsupported_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            JobRequest.from_dict({"kind": "kstar", "schema_version": 99})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown job request field"):
            JobRequest.from_dict({"kind": "kstar", "priority": 3})
        with pytest.raises(ValueError, match="unknown option field"):
            JobRequest.from_dict(
                {"kind": "kstar", "options": {"portfolio": True}}
            )
        with pytest.raises(ValueError, match="unknown option field"):
            JobRequest.from_dict(
                {"kind": "kstar", "options": {"presolve": "reduce"}}
            )
        for deleted in (
            "warm_start", "incremental", "cache", "trace", "metrics",
        ):
            with pytest.raises(ValueError, match="unknown option field"):
                JobRequest.from_dict(
                    {"kind": "kstar", "options": {deleted: True}}
                )


class TestJobRequestRun:
    def test_kstar_run_and_envelope_round_trip(self, tmp_path):
        request = JobRequest(kind="kstar", problem=dict(SMALL_KSTAR))
        search = request.run()
        assert isinstance(search, KStarSearchResult)
        assert search.best is not None

        payload = repro.result_to_dict(search)
        assert payload["kind"] == "kstar"
        decoded = repro.result_from_dict(payload)
        assert isinstance(decoded, KStarSearchResult)
        assert decoded.best.k_star == search.best.k_star
        assert decoded.stop_reason == search.stop_reason
        assert len(decoded.trials) == len(search.trials)

    def test_non_resumable_kind_strips_checkpoint(self, tmp_path):
        # A synthesize request must ignore server-passed checkpointing:
        # its recovery story is simply re-running the job.
        request = JobRequest(
            kind="synthesize",
            problem={"sensors": 4, "relays": 8, "k_star": 4},
        )
        result = request.run(
            checkpoint=str(tmp_path / "sweep.jsonl"), resume=True
        )
        assert result.feasible
        assert not (tmp_path / "sweep.jsonl").exists()

    def test_resumable_kind_resumes_from_checkpoint(self, tmp_path):
        sweep = tmp_path / "sweep.jsonl"
        request = JobRequest(kind="kstar", problem=dict(SMALL_KSTAR))
        first = request.run(checkpoint=str(sweep))
        assert sweep.exists()
        second = request.run(checkpoint=str(sweep), resume=True)
        assert len(second.restored_ks) == len(first.trials)
        assert second.best.k_star == first.best.k_star

    def test_synthesis_envelope_round_trip(
        self, grid_instance, library, grid_requirements
    ):
        result = repro.explore(
            grid_instance.template, library, grid_requirements
        )
        payload = repro.result_to_dict(result)
        assert payload["kind"] == "synthesis"
        decoded = repro.result_from_dict(payload)
        assert isinstance(decoded, RestoredResult)
        assert decoded.feasible
        assert decoded.objective_value == pytest.approx(result.objective_value)

    def test_unknown_result_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown result kind"):
            repro.result_from_dict({"kind": "mystery"})


class TestJobResult:
    def test_success_envelope(self):
        request = JobRequest(kind="kstar", problem=dict(SMALL_KSTAR))
        search = request.run()
        outcome = JobResult.success("kstar", search, seconds=1.25)
        payload = outcome.to_dict()
        assert payload["ok"] is True
        assert payload["result"]["kind"] == "kstar"
        assert payload["seconds"] == 1.25
        back = JobResult.from_dict(payload)
        assert back.ok and back.kind == "kstar"
        assert isinstance(
            repro.result_from_dict(back.result), KStarSearchResult
        )

    def test_failure_envelope(self):
        outcome = JobResult.failure("pareto", "boom", seconds=0.1)
        payload = outcome.to_dict()
        assert payload["ok"] is False
        assert payload["error"] == "boom"
        assert "result" not in payload
        back = JobResult.from_dict(payload)
        assert not back.ok and back.error == "boom"


class TestParetoEnvelope:
    def test_pareto_round_trip(self):
        request = JobRequest(
            kind="pareto",
            problem={"sensors": 4, "relays": 8, "k_star": 3, "points": 3},
        )
        front = request.run()
        assert isinstance(front, ParetoFront)
        assert front.points
        payload = repro.result_to_dict(front)
        assert payload["kind"] == "pareto"
        decoded = repro.result_from_dict(payload)
        assert isinstance(decoded, ParetoFront)
        assert len(decoded.points) == len(front.points)
        assert decoded.points[0].primary == pytest.approx(
            front.points[0].primary
        )


class TestScenarioJobs:
    def test_problem_keys(self):
        with pytest.raises(ValueError, match="scenario"):
            JobRequest(kind="scenario", problem={"sensors": 4})
        request = JobRequest(
            kind="scenario",
            problem={"scenario": "campus::0",
                     "edits": ["set-min-snr:21"], "base": "job-1"},
        )
        assert not request.resumable
        assert JobRequest.from_dict(request.to_dict()) == request

    def test_run_without_edits(self):
        request = JobRequest(
            kind="scenario", problem={"scenario": "campus::0"},
        )
        result = request.run()
        assert result.feasible
        assert repro.result_to_dict(result)["kind"] == "synthesis"

    def test_run_with_edit_matches_cold_solve(self):
        from repro.runtime import EncodeCache
        from repro.scenarios import apply_edits, default_registry, parse_edit

        cache = EncodeCache()
        base = JobRequest(
            kind="scenario", problem={"scenario": "campus::0"},
        ).run(cache=cache)
        edited_request = JobRequest(
            kind="scenario",
            problem={"scenario": "campus::0",
                     "edits": ["add-wall:30,5,30,25,brick"]},
        )
        incremental = edited_request.run(
            cache=cache, previous=base.architecture
        )
        scenario = default_registry().generate("campus::0")
        cold_problem, _ = apply_edits(
            scenario, (parse_edit("add-wall:30,5,30,25,brick"),)
        )
        cold = cold_problem.rebuilt().explore()
        assert incremental.objective_value == cold.objective_value
        assert cache.counters.partial_count() > 0

    def test_missing_scenario_name(self):
        with pytest.raises(ValueError, match="need a 'scenario' name"):
            JobRequest(kind="scenario").run()

    def test_unknown_scenario_name(self):
        with pytest.raises(KeyError, match="unknown scenario family"):
            JobRequest(
                kind="scenario", problem={"scenario": "skyscraper::0"}
            ).run()

    def test_k_star_override(self):
        request = JobRequest(
            kind="scenario",
            problem={"scenario": "campus::0", "k_star": 3},
        )
        assert request.run().feasible
