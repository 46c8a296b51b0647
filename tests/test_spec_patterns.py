"""Tests for compiling pattern statements against a template."""

import re
from pathlib import Path

import pytest

import repro
from repro.spec import SpecError, compile_spec
from repro.spec.patterns import resolve_group, resolve_node

PATTERN_DOC = Path(__file__).resolve().parents[1] / "docs" / "pattern_language.md"


class TestResolution:
    def test_role_with_index(self, grid_instance):
        template = grid_instance.template
        assert resolve_node("sensor[0]", template) == grid_instance.sensor_ids[0]
        assert resolve_node("sensor[2]", template) == grid_instance.sensor_ids[2]

    def test_raw_node_index(self, grid_instance):
        assert resolve_node("node[5]", grid_instance.template) == 5

    def test_unique_role_without_index(self, grid_instance):
        assert resolve_node("sink", grid_instance.template) == (
            grid_instance.sink_id
        )

    def test_ambiguous_role_rejected(self, grid_instance):
        with pytest.raises(SpecError, match="ambiguous"):
            resolve_node("sensor", grid_instance.template)

    def test_out_of_range_rejected(self, grid_instance):
        with pytest.raises(SpecError, match="out of range"):
            resolve_node("sensor[99]", grid_instance.template)
        with pytest.raises(SpecError):
            resolve_node("node[999]", grid_instance.template)

    def test_unknown_role_rejected(self, grid_instance):
        with pytest.raises(SpecError):
            resolve_node("gateway[0]", grid_instance.template)

    def test_group_plural(self, grid_instance):
        assert resolve_group("sensors", grid_instance.template) == (
            grid_instance.sensor_ids
        )

    def test_group_unknown(self, grid_instance):
        with pytest.raises(SpecError):
            resolve_group("gateways", grid_instance.template)


class TestCompile:
    def test_disjoint_group_merges_into_one_requirement(self, grid_instance):
        spec = """
        a = has_path(sensor[0], sink)
        b = has_path(sensor[0], sink)
        disjoint_links(a, b)
        """
        compiled = compile_spec(spec, grid_instance.template)
        (req,) = compiled.requirements.routes
        assert req.replicas == 2 and req.disjoint

    def test_loner_paths_become_single_routes(self, grid_instance):
        spec = """
        a = has_path(sensor[0], sink)
        b = has_path(sensor[1], sink)
        """
        compiled = compile_spec(spec, grid_instance.template)
        assert len(compiled.requirements.routes) == 2
        assert all(not r.disjoint for r in compiled.requirements.routes)

    def test_hop_bound_attached(self, grid_instance):
        spec = """
        a = has_path(sensor[0], sink)
        max_hops(a, 4)
        """
        compiled = compile_spec(spec, grid_instance.template)
        assert compiled.requirements.routes[0].max_hops == 4

    def test_mixed_pairs_in_group_rejected(self, grid_instance):
        spec = """
        a = has_path(sensor[0], sink)
        b = has_path(sensor[1], sink)
        disjoint_links(a, b)
        """
        with pytest.raises(SpecError, match="mixes"):
            compile_spec(spec, grid_instance.template)

    def test_has_paths_fans_out(self, grid_instance):
        compiled = compile_spec(
            "has_paths(sensors, sink, replicas=2)", grid_instance.template
        )
        assert len(compiled.requirements.routes) == len(
            grid_instance.sensor_ids
        )
        assert all(r.replicas == 2 for r in compiled.requirements.routes)

    def test_quality_and_lifetime(self, grid_instance):
        spec = """
        min_signal_to_noise(20)
        min_rss(-80)
        min_network_lifetime(5)
        """
        compiled = compile_spec(spec, grid_instance.template)
        reqs = compiled.requirements
        assert reqs.link_quality.min_snr_db == 20.0
        assert reqs.link_quality.min_rss_dbm == -80.0
        assert reqs.lifetime.years == 5.0

    def test_protocol_and_battery(self, grid_instance):
        spec = "tdma(slots=8, slot_ms=2, report_s=10)\nbattery(mah=1000)"
        compiled = compile_spec(spec, grid_instance.template)
        assert compiled.requirements.tdma.slots == 8
        assert compiled.requirements.power.battery_mah == 1000.0

    def test_objective_default_is_cost(self, grid_instance):
        compiled = compile_spec("min_rss(-80)", grid_instance.template)
        assert compiled.objective.weights == {"cost": 1.0}

    def test_duplicate_objective_rejected(self, grid_instance):
        spec = "objective(cost)\nobjective(energy)"
        with pytest.raises(SpecError, match="multiple objective"):
            compile_spec(spec, grid_instance.template)

    def test_duplicate_path_name_rejected(self, grid_instance):
        spec = """
        a = has_path(sensor[0], sink)
        a = has_path(sensor[1], sink)
        """
        with pytest.raises(SpecError, match="duplicate path name"):
            compile_spec(spec, grid_instance.template)

    def test_reachability_needs_test_points(self, grid_instance):
        with pytest.raises(SpecError, match="test points"):
            compile_spec(
                "min_reachable_devices(3, -80)", grid_instance.template
            )

    def test_reachability_with_test_points(self, loc_instance):
        compiled = compile_spec(
            "min_reachable_devices(3, -80)",
            loc_instance.template,
            test_points=loc_instance.test_points,
        )
        reach = compiled.requirements.reachability
        assert reach.min_anchors == 3
        assert reach.min_rss_dbm == -80.0
        assert len(reach.test_points) == len(loc_instance.test_points)

    def test_path_names_map_to_requirements(self, grid_instance):
        spec = """
        a = has_path(sensor[0], sink)
        b = has_path(sensor[0], sink)
        disjoint_links(a, b)
        c = has_path(sensor[1], sink)
        """
        compiled = compile_spec(spec, grid_instance.template)
        assert compiled.path_names["a"] == compiled.path_names["b"]
        assert compiled.path_names["c"] != compiled.path_names["a"]


class TestDocumentedExample:
    def test_compile_and_solve_snippet_runs(self, grid_instance):
        # docs/pattern_language.md's Section 4.1 spec and its "Compile
        # and solve" snippet, run as written on the small grid.
        section = PATTERN_DOC.read_text().split(
            "## Example (the paper's Section 4.1 problem)"
        )[1]
        spec_text = re.search(r"```text\n(.*?)```", section, re.S).group(1)
        snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        scope = {"spec_text": spec_text, "template": grid_instance.template}
        exec(snippet, scope)
        result = scope["result"]
        assert result.status is repro.SolveStatus.OPTIMAL
        assert repro.validate(
            result.architecture, scope["compiled"].requirements
        ).ok
