"""End-to-end telemetry: one tree per sweep, CLI flags, failure isolation.

These tests exercise the acceptance criterion of the telemetry subsystem:
a *parallel* Pareto sweep traced to JSONL must reconstruct into a single
span tree covering every solve attempt and cache phase, with incumbent
trajectory events from the branch-and-bound solver riding along.
"""

import json

from repro.analysis.diagnostics import Severity
from repro.core import DataCollectionExplorer, SolveOptions, explore_pareto
from repro.encoding import ApproximatePathEncoder
from repro.milp import BranchAndBoundSolver, SolveStatus
from repro.network import LifetimeRequirement, RequirementSet
from repro.resilience.watchdog import ResilientSolver
from repro.runtime import EncodeCache
from repro.telemetry.schema import validate_file
from repro.telemetry.sinks import JsonlSink
from repro.telemetry.trace import configure, shutdown


def _bnb_explorer(grid_instance, library):
    """A small single-route problem the pure-python B&B solves fast."""
    reqs = RequirementSet()
    reqs.require_route(grid_instance.sensor_ids[0], grid_instance.sink_id)
    # The lifetime requirement pulls the energy model in, so both sweep
    # objectives are reported on every point.
    reqs.lifetime = LifetimeRequirement(years=5.0)
    return DataCollectionExplorer(
        grid_instance.template, library, reqs,
        encoder=ApproximatePathEncoder(k_star=3),
        solver=ResilientSolver(
            BranchAndBoundSolver(node_limit=50_000), fallbacks=()
        ),
        cache=EncodeCache(),
    )


class TestParallelSweepTrace:
    """The PR's acceptance test: parallel sweep -> one coherent tree."""

    def test_parallel_pareto_trace_is_one_valid_tree(
        self, tmp_path, grid_instance, library
    ):
        path = tmp_path / "trace.jsonl"
        configure([JsonlSink(path)])
        try:
            front = explore_pareto(
                _bnb_explorer(grid_instance, library),
                "cost", "energy", points=4,
                options=SolveOptions(parallel=4),
            )
        finally:
            shutdown()
        assert len(front.points) >= 2

        records, errors = validate_file(path)
        assert errors == []

        # Everything — extremes, thread-pool points, nested solves,
        # cache computes — shares one trace rooted at pareto.sweep.
        assert len({r["trace"] for r in records}) == 1
        spans = [r for r in records if r["type"] == "span"]
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["pareto.sweep"]

        names = {s["name"] for s in spans}
        assert {
            "pareto.sweep", "pareto.extreme", "pareto.point",
            "explorer.solve", "explorer.build", "solve.attempt",
            "solver.solve", "cache.compute",
        } <= names

        # Each of the four budget points got its own span under the sweep.
        points = [s for s in spans if s["name"] == "pareto.point"]
        assert len(points) == 4
        root_id = roots[0]["span"]
        assert all(p["parent"] == root_id for p in points)

        # At least one B&B solve produced an incumbent trajectory, and
        # every terminal summary attaches to a real solver span.
        events = [r for r in records if r["type"] == "event"]
        event_names = {e["name"] for e in events}
        assert "solve.incumbent" in event_names
        assert "solve.done" in event_names
        solver_span_ids = {
            s["span"] for s in spans if s["name"] == "solver.solve"
        }
        assert all(e["span"] in solver_span_ids for e in events)


class TestSinkFailureDiagnostics:
    def test_raising_sink_degrades_to_a_result_warning(
        self, grid_instance, library
    ):
        class Exploding:
            def emit(self, record):
                raise OSError("disk full")

        configure([Exploding()])
        reqs = RequirementSet()
        reqs.require_route(
            grid_instance.sensor_ids[0], grid_instance.sink_id
        )
        explorer = DataCollectionExplorer(
            grid_instance.template, library, reqs,
            encoder=ApproximatePathEncoder(k_star=3),
        )
        result = explorer.solve("cost")
        # The solve itself is untouched...
        assert result.status == SolveStatus.OPTIMAL
        # ...and the dropped events surface as a warning diagnostic.
        drops = [
            d for d in result.diagnostics
            if d.rule_id == "telemetry.dropped-events"
        ]
        assert drops, [d.rule_id for d in result.diagnostics]
        assert all(d.severity is Severity.WARNING for d in drops)
        assert "Exploding" in drops[0].message


class TestCliTelemetryFlags:
    def test_kstar_trace_metrics_and_stats(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        stats = tmp_path / "stats.json"
        rc = main([
            "kstar", "--nodes", "10", "--devices", "5",
            "--ladder", "1", "2",
            "--trace", str(trace), "--metrics", str(metrics),
            "--stats-json", str(stats),
        ])
        assert rc == 0

        records, errors = validate_file(trace)
        assert errors == []
        spans = [r for r in records if r["type"] == "span"]
        names = {s["name"] for s in spans}
        assert {
            "kstar.search", "kstar.rung", "explorer.build", "analysis",
        } <= names
        builds = {s["span"] for s in spans if s["name"] == "explorer.build"}
        assert all(
            s["parent"] in builds for s in spans if s["name"] == "analysis"
        )

        text = stats.read_text()
        payload = json.loads(text)
        assert payload["schema_version"] == 3
        assert "phase" not in text  # v3 carries no per-phase timings

        text = metrics.read_text()
        assert "# TYPE" in text
        assert "cache_lookups" in text

        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        assert f"wrote {metrics}" in out
