"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main


class TestCatalog:
    def test_lists_devices(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "relay-std" in out
        assert "anchor-pa" in out
        assert "sleep uA" in out


class TestSynthesize:
    def test_default_spec_small_instance(self, capsys, tmp_path):
        svg = tmp_path / "topology.svg"
        code = main([
            "synthesize", "--sensors", "6", "--relays", "18",
            "--k-star", "6", "--time-limit", "60",
            "--svg-out", str(svg),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "all requirements hold" in out
        assert "lifetime: min" in out
        assert svg.exists() and "<svg" in svg.read_text()

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "has_paths(sensors, sink, replicas=1, disjoint=false)\n"
            "min_rss(-80)\nobjective(cost)\n"
        )
        code = main([
            "synthesize", "--spec", str(spec),
            "--sensors", "5", "--relays", "12", "--k-star", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "status:  optimal" in out

    def test_floorplan_roundtrip(self, capsys, tmp_path):
        from repro.geometry import floorplan_to_svg, office_floorplan

        plan_file = tmp_path / "floor.svg"
        plan_file.write_text(floorplan_to_svg(office_floorplan()))
        code = main([
            "synthesize", "--floorplan", str(plan_file),
            "--sensors", "5", "--relays", "12", "--k-star", "4",
        ])
        assert code == 0, capsys.readouterr().out


class TestLocalize:
    def test_cost_objective(self, capsys, tmp_path):
        svg = tmp_path / "anchors.svg"
        code = main([
            "localize", "--anchors", "30", "--points", "16",
            "--k-star", "10", "--svg-out", str(svg),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "avg reachable" in out
        assert svg.exists()


class TestSimulate:
    def test_synthesize_then_simulate(self, capsys, tmp_path):
        design = tmp_path / "design.json"
        assert main([
            "synthesize", "--sensors", "5", "--relays", "12",
            "--k-star", "4", "--json-out", str(design),
        ]) == 0
        capsys.readouterr()
        code = main(["simulate", str(design), "--reports", "20"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ratio 1.000" in out
        assert "lifetime: worst battery node" in out


class TestLint:
    EXAMPLES = Path(__file__).parent.parent / "examples" / "specs"

    def test_disconnected_spec_fails_with_many_rules(self, capsys):
        code = main(["lint", str(self.EXAMPLES / "disconnected.spec")])
        out = capsys.readouterr().out
        assert code == 1
        assert "error[spec.route-connectivity]" in out
        assert "error[spec.route-min-cut]" in out
        assert "error[spec.hop-bounds]" in out
        assert "warning[spec.unit-consistency]" in out
        assert "warning[spec.quality-pruned-connectivity]" in out

    def test_disconnected_spec_json_report(self, capsys):
        code = main([
            "lint", str(self.EXAMPLES / "disconnected.spec"), "--json",
        ])
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        assert payload["errors"] > 0
        assert len(payload["rules"]) >= 3
        assert payload["spec"].endswith("disconnected.spec")
        assert all("rule" in d for d in payload["diagnostics"])

    def test_office_spec_is_clean(self, capsys):
        code = main(["lint", str(self.EXAMPLES / "office.spec")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 error(s), 0 warning(s)" in out

    def test_spec_only_mode_skips_the_model(self, capsys):
        code = main([
            "lint", str(self.EXAMPLES / "office.spec"), "--no-model",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 info(s)" in out  # model rules (the info source) never ran

    def test_parse_error_becomes_a_diagnostic(self, capsys, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("objective(\n")
        code = main(["lint", str(bad), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["rules"] == ["spec.parse"]

    def test_json_and_text_exit_codes_agree(self, capsys):
        """--json must fail exactly when text mode fails (regression:
        a JSON report with ERROR diagnostics exiting 0 would let broken
        specs through CI pipelines that parse the JSON)."""
        for spec, expected in (
            ("disconnected.spec", 1),
            ("office.spec", 0),
        ):
            text_code = main(["lint", str(self.EXAMPLES / spec)])
            capsys.readouterr()
            json_code = main(["lint", str(self.EXAMPLES / spec), "--json"])
            payload = json.loads(capsys.readouterr().out)
            assert text_code == json_code == expected
            assert (payload["errors"] > 0) == (expected == 1)

    def test_synthesize_refuses_doomed_spec(self, capsys, tmp_path):
        spec = tmp_path / "doomed.spec"
        spec.write_text(
            "p = has_path(sink, sensor[0])\nobjective(cost)\n"
        )
        code = main([
            "synthesize", "--spec", str(spec),
            "--sensors", "5", "--relays", "12", "--k-star", "4",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "spec.route-connectivity" in out
        assert "repro lint" in out


class TestKstar:
    def test_sweep(self, capsys):
        code = main([
            "kstar", "--nodes", "25", "--devices", "6", "--ladder", "1", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "selected K*" in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "catalog"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr[-500:]
        assert "relay-std" in result.stdout


class TestParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", [
        ["synthesize", "--presolve", "reduce"],
        ["localize", "--presolve", "reduce"],
        ["kstar", "--presolve", "reduce"],
        ["lint", "examples/specs/office.spec", "--presolve", "reduce"],
        ["synthesize", "--warm-start"],
        ["localize", "--warm-start"],
        ["kstar", "--warm-start"],
    ])
    def test_presolve_flag_is_a_usage_error(self, command, capsys):
        # Flags of deleted features are usage errors, not ignored.
        with pytest.raises(SystemExit) as exc:
            main(command)
        assert exc.value.code == 2
        flag = next(arg for arg in command if arg.startswith("--"))
        assert flag in capsys.readouterr().err


class TestScenarios:
    def test_list_family(self, capsys):
        assert main(["scenarios", "list", "--family", "campus"]) == 0
        out = capsys.readouterr().out
        assert "campus:buildings_x=2,buildings_y=2:0" in out
        assert "total: 20 scenarios" in out

    def test_list_unknown_family(self, capsys):
        assert main(["scenarios", "list", "--family", "nope"]) == 1
        assert "unknown scenario family" in capsys.readouterr().out

    def test_list_json_and_limit(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert sum(row["scenarios"] for row in summary) >= 100
        assert main(["scenarios", "list", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "more)" in out

    def test_generate_summary_and_svg(self, capsys, tmp_path):
        svg = tmp_path / "plan.svg"
        assert main([
            "scenarios", "generate", "materials::0", "--svg-out", str(svg),
        ]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[:out.rindex("}") + 1])
        assert summary["name"] == "materials::0"
        assert summary["fingerprint"]
        assert svg.exists() and "<svg" in svg.read_text()

    def test_generate_unknown_name(self, capsys):
        assert main(["scenarios", "generate", "skyscraper::0"]) == 1
        assert "unknown scenario family" in capsys.readouterr().out

    def test_resolve_plain(self, capsys):
        assert main(["scenarios", "resolve", "campus::0"]) == 0
        out = capsys.readouterr().out
        assert "status optimal" in out

    def test_resolve_incremental_edit(self, capsys, tmp_path):
        stats = tmp_path / "stats.json"
        code = main([
            "scenarios", "resolve", "campus::0",
            "--edit", "add-wall:30,5,30,25,brick",
            "--incremental", "--stats-json", str(stats),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "cold" in out and "incremental" in out
        payload = json.loads(stats.read_text())
        assert (
            payload["incremental"]["objective"] == payload["cold"]["objective"]
        )
        assert payload["cache"]["partial_reuse"]

    def test_resolve_bad_edit(self, capsys):
        assert main([
            "scenarios", "resolve", "campus::0", "--edit", "teleport:1",
        ]) == 1
        assert "unknown edit kind" in capsys.readouterr().out

    def test_resolve_incremental_requires_edit(self, capsys):
        assert main([
            "scenarios", "resolve", "campus::0", "--incremental",
        ]) == 1
        assert "needs at least one --edit" in capsys.readouterr().out
