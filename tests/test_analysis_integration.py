"""Integration tests: the analyzer gate inside the explorer pipeline.

The contract under test: a doomed spec is refused by ``build()`` before
any solver call; warnings ride along on the result; ``analyze=False``
bypasses the gate; analyzer time shows up in the trace as ``analysis``
spans.
"""

import pytest

from repro.analysis import AnalysisError, Severity
from repro.core.explorer import DataCollectionExplorer
from repro.encoding.base import EncodingError
from repro.milp.highs import HighsSolver
from repro.network.requirements import (
    LinkQualityRequirement,
    RequirementSet,
)
from repro.telemetry.sinks import CollectorSink
from repro.telemetry.trace import configure


class SpySolver:
    """Counts solve() calls on the way through to HiGHS."""

    def __init__(self) -> None:
        self.calls = 0
        self._inner = HighsSolver()

    def solve(self, model):
        self.calls += 1
        return self._inner.solve(model)


def reversed_route_requirements(grid_instance) -> RequirementSet:
    """A spec whose route leaves the sink: deterministically disconnected."""
    reqs = RequirementSet()
    reqs.require_route(grid_instance.sink_id, grid_instance.sensor_ids[0])
    return reqs


class TestFailFastGate:
    def test_disconnected_spec_never_reaches_the_solver(self, grid_instance,
                                                        library):
        spy = SpySolver()
        explorer = DataCollectionExplorer(
            grid_instance.template, library,
            reversed_route_requirements(grid_instance), solver=spy,
        )
        with pytest.raises(AnalysisError) as excinfo:
            explorer.solve("cost")
        assert spy.calls == 0
        assert "spec.route-connectivity" in set(excinfo.value.report.rule_ids)

    def test_analysis_error_is_an_encoding_error(self, grid_instance,
                                                 library):
        explorer = DataCollectionExplorer(
            grid_instance.template, library,
            reversed_route_requirements(grid_instance),
        )
        with pytest.raises(EncodingError):
            explorer.build("cost")

    def test_error_report_carries_context_and_diagnostics(self, grid_instance,
                                                          library):
        explorer = DataCollectionExplorer(
            grid_instance.template, library,
            reversed_route_requirements(grid_instance),
        )
        with pytest.raises(AnalysisError) as excinfo:
            explorer.build("cost")
        err = excinfo.value
        assert "spec analysis" in err.context
        assert err.report.errors
        assert all(d.severity is Severity.ERROR for d in err.report.errors)
        assert str(err)  # message renders without raising

    def test_analyze_false_bypasses_the_gate(self, grid_instance, library):
        explorer = DataCollectionExplorer(
            grid_instance.template, library,
            reversed_route_requirements(grid_instance), analyze=False,
        )
        # The gate is off, so the failure (if any) must come from the
        # encoder itself, not the analyzer.
        with pytest.raises(EncodingError) as excinfo:
            explorer.build("cost")
        assert not isinstance(excinfo.value, AnalysisError)


class TestDiagnosticsOnResults:
    def test_warnings_ride_along_on_infeasible_results(self, grid_instance,
                                                       library):
        reqs = RequirementSet()
        for sensor in grid_instance.sensor_ids:
            reqs.require_route(sensor, grid_instance.sink_id)
        reqs.link_quality = LinkQualityRequirement(min_snr_db=90.0)
        explorer = DataCollectionExplorer(
            grid_instance.template, library, reqs
        )
        result = explorer.solve("cost")
        assert not result.feasible
        rule_ids = {d.rule_id for d in result.diagnostics}
        assert "spec.quality-pruned-connectivity" in rule_ids
        assert "analyzer diagnostic" in result.summary()
        assert result.stats_dict()["diagnostics"]

    def test_clean_solve_has_no_diagnostics(self, grid_instance,
                                            grid_requirements, library):
        explorer = DataCollectionExplorer(
            grid_instance.template, library, grid_requirements
        )
        result = explorer.solve("cost")
        assert result.feasible
        assert result.diagnostics == []

    def test_built_problem_exposes_the_report(self, grid_instance,
                                              grid_requirements, library):
        explorer = DataCollectionExplorer(
            grid_instance.template, library, grid_requirements
        )
        built = explorer.build("cost")
        assert built.analysis is not None
        assert built.analysis.ok


class TestAnalysisSpan:
    @staticmethod
    def traced_solve(explorer):
        """The result of a traced ``solve`` and the spans it emitted."""
        sink = CollectorSink()
        configure([sink])
        result = explorer.solve("cost")
        return result, [r for r in sink.records if r["type"] == "span"]

    def test_each_analyzer_call_is_a_child_of_build(self, grid_instance,
                                                    grid_requirements,
                                                    library):
        _, spans = self.traced_solve(DataCollectionExplorer(
            grid_instance.template, library, grid_requirements
        ))
        (build,) = [s for s in spans if s["name"] == "explorer.build"]
        analysis = [s for s in spans if s["name"] == "analysis"]
        assert [s["attrs"]["level"] for s in analysis] == ["spec", "model"]
        for s in analysis:
            assert s["parent"] == build["span"]
            assert s["status"] == "ok"
        assert sum(s["duration_s"] for s in analysis) <= build["duration_s"]

    def test_analyze_false_emits_no_analysis_span(self, grid_instance,
                                                  grid_requirements,
                                                  library):
        result, spans = self.traced_solve(DataCollectionExplorer(
            grid_instance.template, library, grid_requirements,
            analyze=False,
        ))
        names = {s["name"] for s in spans}
        assert "explorer.build" in names
        assert "analysis" not in names
        assert result.diagnostics == []
