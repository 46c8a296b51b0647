"""The verification sweep: verdicts, checkpoints, kill/resume.

Verdict correctness is pinned on a hand-built design (so the expected
survivors are known by construction), and the checkpoint path is driven
through the ``failures.drop`` fault site — the same mechanism CI uses to
kill a sweep mid-flight and assert the resume replays completed
patterns without re-verifying them.
"""

import pytest

from repro.failures import (
    FailurePattern,
    PatternResult,
    SurvivabilityReport,
    k_link_patterns,
    sweep_checkpoint,
    verify_pattern,
    verify_patterns,
)
from repro.library import default_catalog
from repro.network import (
    Architecture,
    LinkQualityRequirement,
    RequirementSet,
    Route,
)
from repro.resilience import CheckpointError, FaultError, injected_faults


@pytest.fixture()
def design(grid_instance):
    """Two link-disjoint replicas of one pair, both via relay 5."""
    arch = Architecture(template=grid_instance.template,
                        library=default_catalog())
    s = grid_instance.sensor_ids[0]
    d = grid_instance.sink_id
    arch.routes = [
        Route(s, d, 0, (s, 5, d)),
        Route(s, d, 1, (s, 1, 5, 6, d)),
    ]
    arch.active_edges = {e for r in arch.routes for e in r.edges}
    arch.sizing = {
        node: "relay-std"
        if grid_instance.template.node(node).role == "relay"
        else ("sensor-std"
              if grid_instance.template.node(node).role == "sensor"
              else "sink-std")
        for route in arch.routes for node in route.nodes
    }
    reqs = RequirementSet()
    reqs.require_route(s, d, replicas=2, disjoint=True)
    return arch, reqs, s, d


class TestVerifyPattern:
    def test_shared_relay_failure_disconnects(self, design):
        arch, reqs, s, d = design
        result = verify_pattern(arch, reqs, FailurePattern(
            "node1", "5", nodes=frozenset({5}),
        ))
        assert not result.survived
        assert result.coverage == 0.0
        assert result.disconnected_pairs == [(s, d)]
        assert any("loses node 5" in v for v in result.violations)

    def test_single_link_failure_survives(self, design):
        arch, reqs, s, _ = design
        result = verify_pattern(arch, reqs, FailurePattern(
            "link1", "s-5", links=frozenset({(s, 5), (5, s)}),
        ))
        assert result.survived
        assert result.coverage == 1.0
        # Notes about the dead replica of a still-served pair are noise.
        assert result.violations == []

    def test_link_quality_margins_re_checked(self, design):
        arch, reqs, _, _ = design
        reqs.link_quality = LinkQualityRequirement(min_snr_db=1000.0)
        # The pattern touches nothing in the design; the surviving
        # replicas still have to clear the (impossible) margin.
        result = verify_pattern(arch, reqs, FailurePattern(
            "node1", "11", nodes=frozenset({11}),
        ))
        assert not result.survived
        assert any("SNR" in v for v in result.violations)

    def test_unsized_node_is_a_violation(self, design):
        arch, reqs, _, _ = design
        reqs.link_quality = LinkQualityRequirement(min_snr_db=1.0)
        del arch.sizing[5]  # shared relay: both replicas hit the check
        result = verify_pattern(arch, reqs, FailurePattern(
            "node1", "11", nodes=frozenset({11}),
        ))
        assert not result.survived
        assert any("unsized" in v for v in result.violations)

    def test_unrealized_pair_counts_disconnected(self, design):
        arch, reqs, _, _ = design
        reqs.require_route(8, 7, replicas=1)
        result = verify_pattern(arch, reqs, FailurePattern(
            "node1", "11", nodes=frozenset({11}),
        ))
        assert not result.survived
        assert (8, 7) in result.disconnected_pairs
        assert result.coverage == 0.5

    def test_result_round_trips(self, design):
        arch, reqs, _, _ = design
        result = verify_pattern(arch, reqs, FailurePattern(
            "node1", "5", nodes=frozenset({5}),
        ))
        clone = PatternResult.from_dict(result.to_dict())
        assert clone.pattern_id == result.pattern_id
        assert clone.survived == result.survived
        assert clone.disconnected_pairs == result.disconnected_pairs


class TestSweep:
    def test_sweep_orders_results_like_input(self, design):
        arch, reqs, _, _ = design
        patterns = k_link_patterns(arch.template, 1)
        report = verify_patterns(arch, reqs, patterns)
        assert [r.pattern_id for r in report.results] == \
            [p.pattern_id for p in patterns]
        assert report.survived_all  # disjoint replicas beat any 1 link
        assert report.score == 1.0

    def test_aggregates(self, design):
        arch, reqs, s, d = design
        patterns = [
            FailurePattern("node1", "5", nodes=frozenset({5})),
            FailurePattern("node1", "11", nodes=frozenset({11})),
        ]
        report = verify_patterns(arch, reqs, patterns)
        assert not report.survived_all
        assert report.worst_coverage == 0.0
        assert report.mean_coverage == 0.5
        assert [r.family for r in report.critical_patterns] == ["node1"]
        payload = report.to_dict()
        assert payload["patterns"] == 2
        assert payload["violated"] == 1
        restored = SurvivabilityReport.from_dict(payload)
        assert restored.critical_patterns[0].pattern_id == \
            report.critical_patterns[0].pattern_id

    def test_resume_replays_completed_patterns(self, design, tmp_path):
        arch, reqs, _, _ = design
        patterns = k_link_patterns(arch.template, 1)
        ckpt = tmp_path / "sweep.ckpt"
        first = verify_patterns(arch, reqs, patterns,
                                checkpoint=ckpt, problem="fp")
        assert first.restored_count == 0
        again = verify_patterns(arch, reqs, patterns, checkpoint=ckpt,
                                resume=True, problem="fp")
        assert again.restored_count == len(patterns)
        assert again.total_seconds == 0.0
        assert [r.survived for r in again.results] == \
            [r.survived for r in first.results]

    def test_stage_namespaces_records(self, design, tmp_path):
        arch, reqs, _, _ = design
        patterns = k_link_patterns(arch.template, 1)
        ckpt = tmp_path / "sweep.ckpt"
        verify_patterns(arch, reqs, patterns, checkpoint=ckpt, stage=1)
        other = verify_patterns(arch, reqs, patterns, checkpoint=ckpt,
                                resume=True, stage=2)
        assert other.restored_count == 0
        same = verify_patterns(arch, reqs, patterns, checkpoint=ckpt,
                               resume=True, stage=1)
        assert same.restored_count == len(patterns)

    def test_checkpoint_refuses_other_pattern_set(self, design, tmp_path):
        arch, reqs, _, _ = design
        patterns = k_link_patterns(arch.template, 1)
        ckpt = tmp_path / "sweep.ckpt"
        verify_patterns(arch, reqs, patterns, checkpoint=ckpt)
        with pytest.raises(CheckpointError):
            verify_patterns(arch, reqs, patterns[:3], checkpoint=ckpt,
                            resume=True)

    def test_injected_drop_kills_after_durable_record(
        self, design, tmp_path
    ):
        arch, reqs, _, _ = design
        patterns = k_link_patterns(arch.template, 1)
        ckpt = tmp_path / "sweep.ckpt"
        with injected_faults({"failures.drop": 1}):
            with pytest.raises(FaultError):
                verify_patterns(arch, reqs, patterns, checkpoint=ckpt)
        # The kill landed after the record was durable.
        store = sweep_checkpoint(ckpt, patterns)
        assert len(store.load()) == 1
        report = verify_patterns(arch, reqs, patterns, checkpoint=ckpt,
                                 resume=True)
        assert report.restored_count == 1
        assert len(report.results) == len(patterns)
        assert report.survived_all


class TestShim:
    def test_single_fault_impacts_are_sorted(self, design):
        arch, _, s, d = design
        arch.routes = [Route(s, d, 0, (s, 5, d)),
                       Route(d, s, 0, (d, 5, s))]
        arch.active_edges = {e for r in arch.routes for e in r.edges}
        from repro.failures import analyze_resiliency
        report = analyze_resiliency(arch)
        pairs = report.node_faults[5].disconnected_pairs
        assert pairs == sorted(pairs)
        assert len(pairs) == 2
