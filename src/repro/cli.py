"""Command-line interface: ``python -m repro <command>``.

The paper's tool "accepts as inputs a problem description, a library of
components and a floor plan"; this CLI is that front door:

* ``synthesize`` — data-collection synthesis from a pattern-language spec
  file over a built-in (or SVG) floor plan;
* ``localize``   — anchor-placement synthesis;
* ``lint``      — pre-solve static analysis of a spec file (no solving);
* ``catalog``    — print the component library;
* ``kstar``      — run the K* trade-off sweep of Section 4.3;
* ``verify-failures`` — sweep a saved design against failure patterns
  (k-link/k-node combinations, wall and region outages — see
  docs/failures.md);
* ``serve``      — run the HTTP job service (see docs/service.md).

Every synthesis command accepts ``--stats-json`` to emit the runtime
instrumentation (encode/solve seconds, model size, cache hit/miss
counters) as structured JSON, and ``kstar`` accepts ``--parallel`` to
solve ladder rungs on the threads of the :mod:`repro.runtime` batch
runner.

``synthesize``/``localize``/``kstar`` additionally accept ``--trace
PATH`` (hierarchical span/event log as JSONL — see
:mod:`repro.telemetry` and docs/observability.md) and ``--metrics PATH``
(the process-wide metrics registry in Prometheus text exposition).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.analysis import (
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Severity,
    analyze_model,
    analyze_problem,
)
from repro.constraints.mapping import MappingError
from repro.core.api import DEFAULT_SPEC
from repro.core.explorer import DataCollectionExplorer
from repro.encoding.base import EncodingError
from repro.core.facade import explore
from repro.core.kstar import kstar_search
from repro.core.options import SolveOptions
from repro.encoding.approximate import ApproximatePathEncoder
from repro.geometry.svg import SvgMarker, floorplan_from_svg, floorplan_to_svg
from repro.library.catalog import default_catalog, localization_catalog
from repro.milp.highs import HighsSolver
from repro.network.builders import (
    data_collection_template,
    localization_template,
    synthetic_template,
)
from repro.network.requirements import (
    LinkQualityRequirement,
    ReachabilityRequirement,
    RequirementSet,
)
from repro.resilience.checkpoint import CheckpointError
from repro.resilience.faults import FaultError
from repro.runtime.cache import EncodeCache
from repro.runtime.instrumentation import STATS_SCHEMA_VERSION
from repro.telemetry import (
    JsonlSink,
    configure as configure_tracing,
    get_registry,
    prometheus_text,
    shutdown as shutdown_tracing,
)
from repro.spec.patterns import SpecError
from repro.spec.problem import compile_spec
from repro.validation.checker import validate


def _add_failures_arg(command: argparse.ArgumentParser) -> None:
    """The shared ``--failures`` spec flag (see docs/failures.md)."""
    command.add_argument(
        "--failures", metavar="SPEC",
        help="failure-pattern spec arming failure-aware synthesis, e.g. "
             "'k-link:1,walls' (families: k-link:K, k-node:K, walls, "
             "regions; options: seed:N, max:N, rounds:N, worst:N); the "
             "solve then verifies every pattern and re-solves with "
             "survivability rows for the worst violated ones "
             "(see docs/failures.md)",
    )


def _add_telemetry_args(command: argparse.ArgumentParser) -> None:
    """The shared ``--trace``/``--metrics`` flags (see repro.telemetry)."""
    command.add_argument(
        "--trace", type=Path, metavar="FILE",
        help="write a hierarchical span/event trace as JSONL "
             "(schema: docs/observability.md; validate with "
             "python -m repro.telemetry.schema FILE)",
    )
    command.add_argument(
        "--metrics", type=Path, metavar="FILE",
        help="write the process-wide metrics registry in Prometheus "
             "text exposition format; '-' for stdout",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wireless network topology & component synthesis "
                    "(DAC'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synthesize", help="data-collection synthesis")
    syn.add_argument("--spec", type=Path,
                     help="pattern-language spec file (default: built-in)")
    syn.add_argument("--sensors", type=int, default=20)
    syn.add_argument("--relays", type=int, default=60)
    syn.add_argument("--floorplan", type=Path,
                     help="SVG floor plan (default: built-in office floor)")
    syn.add_argument("--k-star", type=int, default=10)
    syn.add_argument("--time-limit", type=float, default=300.0)
    syn.add_argument("--mip-gap", type=float, default=0.02)
    syn.add_argument("--svg-out", type=Path,
                     help="write the synthesized topology as SVG")
    syn.add_argument("--json-out", type=Path,
                     help="persist the synthesized design as JSON")
    syn.add_argument("--stats-json", type=Path,
                     help="write runtime instrumentation (encode/solve "
                          "seconds, cache counters) as JSON; '-' for "
                          "stdout")
    syn.add_argument("--deadline", type=float, metavar="SECONDS",
                     help="overall wall-clock budget; solver attempts are "
                          "clipped to the remaining time")
    syn.add_argument("--max-retries", type=int, metavar="N",
                     help="retry crashed/errored solves up to N times "
                          "before falling back (enables the solver "
                          "watchdog; see docs/robustness.md)")
    _add_failures_arg(syn)
    syn.add_argument("--checkpoint", type=Path, metavar="FILE",
                     help="with --failures: persist each verified failure "
                          "pattern to a JSONL checkpoint so a killed "
                          "verification sweep can resume")
    syn.add_argument("--resume", action="store_true",
                     help="with --failures: replay pattern verdicts "
                          "recorded in --checkpoint instead of "
                          "re-verifying them")
    _add_telemetry_args(syn)

    loc = sub.add_parser("localize", help="anchor-placement synthesis")
    loc.add_argument("--anchors", type=int, default=100)
    loc.add_argument("--points", type=int, default=80)
    loc.add_argument("--min-anchors", type=int, default=3)
    loc.add_argument("--min-rss", type=float, default=-80.0)
    loc.add_argument("--objective", default="cost",
                     choices=["cost", "dsod"])
    loc.add_argument("--k-star", type=int, default=20)
    loc.add_argument("--svg-out", type=Path)
    loc.add_argument("--stats-json", type=Path,
                     help="write runtime instrumentation as JSON; "
                          "'-' for stdout")
    loc.add_argument("--deadline", type=float, metavar="SECONDS",
                     help="overall wall-clock budget for the solve")
    loc.add_argument("--max-retries", type=int, metavar="N",
                     help="retry crashed/errored solves up to N times "
                          "(enables the solver watchdog)")
    _add_telemetry_args(loc)

    lint = sub.add_parser(
        "lint", help="pre-solve static analysis of a spec file (no solving)"
    )
    lint.add_argument("spec", type=Path,
                      help="pattern-language spec file to analyze")
    lint.add_argument("--sensors", type=int, default=12)
    lint.add_argument("--relays", type=int, default=24)
    lint.add_argument("--floorplan", type=Path,
                      help="SVG floor plan (default: built-in office floor)")
    lint.add_argument("--k-star", type=int, default=5)
    lint.add_argument("--no-model", action="store_true",
                      help="run spec-level rules only; skip building the MILP")
    lint.add_argument("--json", action="store_true",
                      help="emit the full report as JSON on stdout")

    sub.add_parser("catalog", help="print the component library")

    sim = sub.add_parser(
        "simulate", help="replay a synthesized design (JSON) in the "
                         "discrete-event simulator"
    )
    sim.add_argument("design", type=Path, help="JSON from synthesize")
    sim.add_argument("--reports", type=int, default=100)
    sim.add_argument("--seed", type=int, default=0)

    kst = sub.add_parser("kstar", help="K* trade-off sweep (Section 4.3)")
    kst.add_argument("--nodes", type=int, default=50)
    kst.add_argument("--devices", type=int, default=20)
    kst.add_argument("--ladder", type=int, nargs="+",
                     default=[1, 3, 5, 10, 20])
    kst.add_argument("--parallel", type=int, default=1,
                     help="solve ladder rungs concurrently through the "
                          "batch runner (stop rules still apply in order)")
    kst.add_argument("--stats-json", type=Path,
                     help="write per-rung instrumentation and shared "
                          "cache counters as JSON; '-' for stdout")
    kst.add_argument("--deadline", type=float, metavar="SECONDS",
                     help="wall-clock budget for the whole ladder; the "
                          "scan stops with 'deadline exhausted' once spent")
    kst.add_argument("--max-retries", type=int, metavar="N",
                     help="retry crashed/errored rung solves up to N times "
                          "(enables the solver watchdog)")
    _add_failures_arg(kst)
    kst.add_argument("--checkpoint", type=Path, metavar="FILE",
                     help="persist each completed rung to a JSONL "
                          "checkpoint so a killed sweep can resume")
    kst.add_argument("--resume", action="store_true",
                     help="replay rungs recorded in --checkpoint instead "
                          "of re-solving them")
    _add_telemetry_args(kst)

    vf = sub.add_parser(
        "verify-failures",
        help="sweep a synthesized design (JSON) against failure patterns",
    )
    vf.add_argument("design", type=Path,
                    help="JSON design from synthesize --json-out")
    vf.add_argument("--failures", required=True, metavar="SPEC",
                    help="failure-pattern spec, e.g. 'k-link:1,walls' "
                         "(see docs/failures.md)")
    vf.add_argument("--spec", type=Path,
                    help="pattern-language spec naming the route "
                         "requirements to verify (default: built-in)")
    vf.add_argument("--floorplan", type=Path,
                    help="SVG floor plan for the wall/region families "
                         "(default: built-in office floor)")
    vf.add_argument("--deadline", type=float, metavar="SECONDS",
                    help="wall-clock budget for the whole sweep")
    vf.add_argument("--checkpoint", type=Path, metavar="FILE",
                    help="persist each verified pattern to a JSONL "
                         "checkpoint so a killed sweep can resume")
    vf.add_argument("--resume", action="store_true",
                    help="replay pattern verdicts recorded in "
                         "--checkpoint instead of re-verifying them")
    vf.add_argument("--stats-json", type=Path,
                    help="write the survivability report as JSON; "
                         "'-' for stdout")
    _add_telemetry_args(vf)

    scn = sub.add_parser(
        "scenarios",
        help="generative scenario corpus and what-if re-solve "
             "(docs/scenarios.md)",
    )
    scn_sub = scn.add_subparsers(dest="scenarios_command", required=True)
    scn_list = scn_sub.add_parser(
        "list", help="enumerate the registry's named scenarios"
    )
    scn_list.add_argument("--family", help="restrict to one family")
    scn_list.add_argument("--limit", type=int, metavar="N",
                          help="print at most N names")
    scn_list.add_argument("--json", action="store_true",
                          help="emit the family summaries as JSON")
    scn_gen = scn_sub.add_parser(
        "generate", help="build one scenario and describe it"
    )
    scn_gen.add_argument("name",
                         help="canonical name (family:params:seed), e.g. "
                              "'multifloor:floors=3,rooms_x=4:1' or "
                              "'campus::0' for all-defaults")
    scn_gen.add_argument("--svg-out", type=Path,
                         help="write the floor plan and candidate "
                              "template as SVG")
    scn_res = scn_sub.add_parser(
        "resolve",
        help="solve a scenario; with --edit, re-solve the edited "
             "what-if variant",
    )
    scn_res.add_argument("name", help="canonical scenario name")
    scn_res.add_argument("--edit", action="append", default=[],
                         metavar="EDIT",
                         help="what-if edit, applied in order (repeatable): "
                              "'add-wall:X1,Y1,X2,Y2,MATERIAL', "
                              "'remove-wall:INDEX', 'move-node:ID,X,Y', "
                              "'swap-device:OLD=NEW', "
                              "'set-replicas:ROUTE,N', "
                              "'set-min-snr:DB'")
    scn_res.add_argument("--incremental", action="store_true",
                         help="with --edit: re-solve incrementally (cache "
                              "transplant + warm start) and report the "
                              "speedup over a cold re-solve of the edited "
                              "problem")
    scn_res.add_argument("--k-star", type=int,
                         help="override the scenario's candidate-path "
                              "budget")
    scn_res.add_argument("--stats-json", type=Path,
                         help="write solve stats and cache counters as "
                              "JSON; '-' for stdout")

    srv = sub.add_parser(
        "serve", help="run the HTTP job service (docs/service.md)"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8765,
                     help="TCP port (0 picks a free ephemeral port)")
    srv.add_argument("--workers", type=int, default=2,
                     help="concurrent job workers")
    srv.add_argument("--state-dir", type=Path, metavar="DIR",
                     help="persist job state here; a restarted server "
                          "re-queues every job that was in flight and "
                          "resumes its sweep from the checkpoint")
    _add_telemetry_args(srv)
    return parser


def _emit_stats(payload: dict, target: Path | None) -> None:
    """Write an instrumentation payload as JSON ('-' means stdout).

    Every payload carries a top-level ``schema_version`` (see
    docs/observability.md for the version history).
    """
    if target is None:
        return
    payload = {"schema_version": STATS_SCHEMA_VERSION, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if str(target) == "-":
        print(text)
    else:
        target.write_text(text + "\n")
        print(f"wrote {target}")


def _print_analysis_failure(exc: AnalysisError) -> None:
    """Render a blocking analyzer report the way ``repro lint`` would."""
    print(f"analysis: {exc.context} found "
          f"{len(exc.report.errors)} blocking finding(s)")
    for diag in exc.report.errors + exc.report.warnings:
        print(f"  {diag.format()}")
    print("hint: run `repro lint <spec>` for the full report")


def _print_result_diagnostics(result) -> None:
    """Explain an infeasible result with the analyzer findings, if any."""
    for diag in result.diagnostics[:10]:
        print(f"  {diag.format()}")
    if len(result.diagnostics) > 10:
        print(f"  ... ({len(result.diagnostics) - 10} more)")


def _cmd_synthesize(args) -> int:
    if (args.checkpoint or args.resume) and not args.failures:
        print("--checkpoint/--resume need --failures: synthesize only "
              "checkpoints the failure verification sweep")
        return 1
    if args.floorplan:
        plan = floorplan_from_svg(args.floorplan.read_text())
    else:
        plan = None
    instance = data_collection_template(
        n_sensors=args.sensors, n_relay_candidates=args.relays, plan=plan
    )
    spec_text = args.spec.read_text() if args.spec else DEFAULT_SPEC
    compiled = compile_spec(spec_text, instance.template)
    try:
        result = explore(
            instance.template, default_catalog(), compiled.requirements,
            objective=compiled.objective,
            k_star=args.k_star,
            solver=HighsSolver(time_limit=args.time_limit,
                               mip_rel_gap=args.mip_gap),
            options=SolveOptions(deadline_s=args.deadline,
                                 max_retries=args.max_retries,
                                 failures=args.failures,
                                 checkpoint=(
                                     str(args.checkpoint)
                                     if args.checkpoint else None
                                 ),
                                 resume=bool(args.resume
                                             and args.checkpoint)),
            plan=instance.plan,
        )
    except AnalysisError as exc:
        _print_analysis_failure(exc)
        return 1
    except CheckpointError as exc:
        print(f"checkpoint: {exc}")
        return 1
    except FaultError as exc:
        # Injected kill (REPRO_FAULTS failures.drop): verified patterns
        # are already on disk, so a --resume run replays them.
        print(f"aborted by injected fault: {exc}")
        if args.checkpoint:
            print(f"checkpoint saved: {args.checkpoint} (rerun with "
                  f"--resume to continue)")
        return 3
    print(f"status:  {result.status.value}")
    print(f"model:   {result.model_stats}")
    if result.survivability_score is not None:
        print(f"survivability: {result.survivability_score:.1%} "
              f"worst-pattern coverage")
    _emit_stats(result.stats_dict(), args.stats_json)
    if not result.feasible:
        _print_result_diagnostics(result)
        return 1
    arch = result.architecture
    report = validate(arch, compiled.requirements)
    print(f"design:  {arch.summary()}")
    print(f"checks:  {'all requirements hold' if report.ok else 'VIOLATIONS'}")
    for violation in report.violations[:10]:
        print(f"  !! {violation}")
    if report.lifetimes_years:
        print(f"lifetime: min {report.min_lifetime_years:.2f} y, "
              f"avg {report.average_lifetime_years:.2f} y")
    if args.svg_out:
        markers = [
            SvgMarker(instance.template.node(i).location,
                      instance.template.node(i).role, str(i))
            for i in arch.used_nodes
        ]
        links = [
            (instance.template.node(u).location,
             instance.template.node(v).location)
            for u, v in sorted(arch.active_edges)
        ]
        args.svg_out.write_text(
            floorplan_to_svg(instance.plan, markers, links)
        )
        print(f"wrote {args.svg_out}")
    if args.json_out:
        from repro.io import save_architecture

        save_architecture(arch, args.json_out)
        print(f"wrote {args.json_out}")
    return 0 if report.ok else 2


def _cmd_simulate(args) -> int:
    from repro.io import load_architecture
    from repro.simulation.datacollection import DataCollectionSimulator

    arch = load_architecture(args.design, default_catalog())
    requirements = RequirementSet()
    simulator = DataCollectionSimulator(arch, requirements, seed=args.seed)
    outcome = simulator.run(reports=args.reports)
    print(f"design:   {arch.summary()}")
    print(f"schedule: {simulator.schedule.span_superframes} superframe(s), "
          f"{len(simulator.schedule.assignments)} slot assignments")
    print(f"traffic:  {outcome.packets_injected} packets injected, "
          f"{outcome.packets_delivered} delivered, "
          f"{outcome.packets_dropped} dropped "
          f"(ratio {outcome.delivery_ratio:.3f})")
    retx = sum(l.retransmissions for l in outcome.ledgers.values())
    print(f"radio:    {retx} retransmissions")
    worst = min(
        (outcome.lifetime_years(n, requirements.power, requirements.tdma)
         for n in arch.used_nodes
         if arch.template.node(n).role != "sink"),
        default=float("inf"),
    )
    print(f"lifetime: worst battery node {worst:.2f} y (measured burn rate)")
    return 0 if outcome.delivery_ratio > 0.99 else 2


def _cmd_localize(args) -> int:
    instance = localization_template(args.anchors, args.points)
    requirement = ReachabilityRequirement(
        test_points=instance.test_points,
        min_anchors=args.min_anchors,
        min_rss_dbm=args.min_rss,
    )
    try:
        result = explore(
            instance.template, localization_catalog(), requirement,
            objective=args.objective,
            channel=instance.channel, k_star=args.k_star,
            options=SolveOptions(deadline_s=args.deadline,
                                 max_retries=args.max_retries),
        )
    except AnalysisError as exc:
        _print_analysis_failure(exc)
        return 1
    print(f"status: {result.status.value}")
    _emit_stats(result.stats_dict(), args.stats_json)
    if not result.feasible:
        _print_result_diagnostics(result)
        return 1
    arch = result.architecture
    reqs = RequirementSet(reachability=requirement)
    report = validate(arch, reqs, instance.channel)
    print(f"design: {arch.node_count} anchors, ${arch.dollar_cost:.0f}, "
          f"avg reachable {report.average_reachable:.2f}")
    if args.svg_out:
        markers = [SvgMarker(p, "test") for p in instance.test_points] + [
            SvgMarker(instance.template.node(i).location, "anchor", str(i))
            for i in arch.used_nodes
        ]
        args.svg_out.write_text(floorplan_to_svg(instance.plan, markers))
        print(f"wrote {args.svg_out}")
    return 0 if report.ok else 2


def _emit_lint_report(args, report: AnalysisReport) -> int:
    """Print a lint report (text or ``--json``); exit 1 on errors."""
    if args.json:
        payload = report.to_dict()
        payload["spec"] = str(args.spec)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for diag in report.errors + report.warnings:
            print(diag.format())
        print(report.summary())
    return 1 if report.errors else 0


def _cmd_lint(args) -> int:
    """Run the pre-solve analyzers over a spec without invoking a solver.

    Spec-level rules always run; unless ``--no-model`` is given, the spec
    is also encoded (with error-flagged routes dropped so the encoder
    does not choke on them) and the model-level rules run on the result.
    """
    report = AnalysisReport()
    if args.floorplan:
        plan = floorplan_from_svg(args.floorplan.read_text())
    else:
        plan = None
    instance = data_collection_template(
        n_sensors=args.sensors, n_relay_candidates=args.relays, plan=plan
    )
    library = default_catalog()
    try:
        compiled = compile_spec(args.spec.read_text(), instance.template)
    except SpecError as exc:
        report.add(Diagnostic(
            rule_id="spec.parse", severity=Severity.ERROR,
            message=str(exc), location=str(args.spec),
            hint="fix the specification syntax "
                 "(see docs/pattern_language.md)",
        ))
        return _emit_lint_report(args, report)
    report.merge(analyze_problem(
        instance.template, compiled.requirements, library
    ))
    if not args.no_model:
        requirements = compiled.requirements
        # Routes flagged by a blocking spec rule cannot be encoded (Yen
        # finds no paths); drop them so the model-level rules still get a
        # model to inspect for everything else.
        bad_routes = {d.data.get("route") for d in report.errors}
        bad_routes.discard(None)
        if bad_routes:
            requirements = dataclasses.replace(
                requirements,
                routes=[r for i, r in enumerate(requirements.routes)
                        if i not in bad_routes],
            )
        explorer = DataCollectionExplorer(
            instance.template, library, requirements,
            encoder=ApproximatePathEncoder(k_star=args.k_star),
            channel=instance.channel, analyze=False,
        )
        try:
            built = explorer.build(compiled.objective)
        except (EncodingError, MappingError, ValueError) as exc:
            report.add(Diagnostic(
                rule_id="spec.encoding", severity=Severity.ERROR,
                message=str(exc), location="encoder",
                hint="the spec could not be encoded into a model; fix "
                     "the findings above first",
            ))
        else:
            report.merge(analyze_model(built.model))
    return _emit_lint_report(args, report)


def _cmd_catalog(_args) -> int:
    for title, lib in (("devices", default_catalog()),
                       ("anchors", localization_catalog())):
        print(f"[{title}]")
        print(f"{'name':<16} {'roles':<16} {'$':>5} {'tx dBm':>7} "
              f"{'gain':>5} {'tx mA':>6} {'rx mA':>6} {'sleep uA':>9}")
        for dev in lib.devices:
            print(f"{dev.name:<16} {'/'.join(sorted(dev.roles)):<16} "
                  f"{dev.cost:>5.0f} {dev.tx_power_dbm:>7.1f} "
                  f"{dev.antenna_gain_dbi:>5.1f} {dev.radio_tx_ma:>6.1f} "
                  f"{dev.radio_rx_ma:>6.1f} {dev.sleep_ma * 1000:>9.1f}")
        print()
    return 0


def _cmd_kstar(args) -> int:
    instance = synthetic_template(args.nodes, args.devices, seed=11)
    reqs = RequirementSet()
    for sensor in instance.sensor_ids:
        reqs.require_route(sensor, instance.sink_id, replicas=2,
                           disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)

    cache = EncodeCache()
    try:
        search = kstar_search(
            lambda k: DataCollectionExplorer(
                instance.template, default_catalog(), reqs,
                encoder=ApproximatePathEncoder(k_star=k),
            ),
            ladder=tuple(args.ladder),
            cache=cache,
            options=SolveOptions(
                parallel=args.parallel,
                deadline_s=args.deadline,
                max_retries=args.max_retries,
                failures=args.failures,
                checkpoint=args.checkpoint,
                resume=bool(args.resume and args.checkpoint),
            ),
        )
    except CheckpointError as exc:
        print(f"checkpoint: {exc}")
        return 1
    except FaultError as exc:
        # Injected abort (REPRO_FAULTS kstar.abort): completed rungs are
        # already on disk, so a --resume run picks up where this died.
        print(f"aborted by injected fault: {exc}")
        if args.checkpoint:
            print(f"checkpoint saved: {args.checkpoint} (rerun with "
                  f"--resume to continue)")
        return 3
    print(f"{'K*':>4} {'cost ($)':>9} {'time (s)':>9}")
    for k, objective, seconds in search.table_rows():
        print(f"{k:>4} {objective:>9.0f} {seconds:>9.2f}")
    selected = search.best.k_star if search.best else None
    print(f"selected K* = {selected} ({search.stop_reason})")
    if search.restored_ks:
        print(f"resumed: {len(search.restored_ks)} rung(s) replayed from "
              f"{args.checkpoint}")
    summary = cache.summary()
    print(f"cache:  {cache.counters.hit_count()} hits / "
          f"{cache.counters.miss_count()} misses "
          f"({summary['entries']} entries)")
    _emit_stats(
        {**search.to_dict(), "cache": summary},
        args.stats_json,
    )
    return 0


def _cmd_verify_failures(args) -> int:
    """Sweep a saved design against a failure-pattern spec (no solving).

    Exit codes: 0 = every pattern survived, 1 = input/checkpoint error,
    2 = violated patterns found, 3 = injected-fault abort (checkpoint
    intact; rerun with ``--resume``).
    """
    from repro.failures import generate_patterns, verify_patterns
    from repro.io import load_architecture
    from repro.resilience.checkpoint import problem_fingerprint
    from repro.resilience.policy import DeadlineBudget

    arch = load_architecture(args.design, default_catalog())
    spec_text = args.spec.read_text() if args.spec else DEFAULT_SPEC
    compiled = compile_spec(spec_text, arch.template)
    if args.floorplan:
        plan = floorplan_from_svg(args.floorplan.read_text())
    else:
        # The saved design does not embed its floor plan; geometric
        # families need --floorplan, combinatorial ones do not.
        plan = None
    try:
        patterns = generate_patterns(args.failures, arch.template, plan)
    except ValueError as exc:
        print(f"failures: {exc}")
        return 1
    budget = (
        DeadlineBudget(args.deadline) if args.deadline is not None else None
    )
    try:
        report = verify_patterns(
            arch, compiled.requirements, patterns,
            budget=budget,
            checkpoint=args.checkpoint,
            resume=bool(args.resume and args.checkpoint),
            problem=problem_fingerprint(
                arch.template, compiled.requirements
            ),
        )
    except CheckpointError as exc:
        print(f"checkpoint: {exc}")
        return 1
    except FaultError as exc:
        # Injected kill (REPRO_FAULTS failures.drop): verified patterns
        # are already on disk, so a --resume run replays them.
        print(f"aborted by injected fault: {exc}")
        if args.checkpoint:
            print(f"checkpoint saved: {args.checkpoint} (rerun with "
                  f"--resume to continue)")
        return 3
    print(f"patterns: {len(report.results)} verified "
          f"({report.restored_count} replayed from checkpoint)")
    print(f"coverage: worst {report.worst_coverage:.1%}, "
          f"mean {report.mean_coverage:.1%}")
    for result in report.critical_patterns[:10]:
        pairs = ", ".join(f"{s}->{d}" for s, d in result.disconnected_pairs)
        print(f"  !! {result.pattern_id} ({result.family} {result.label}) "
              f"disconnects {pairs}")
    extra = len(report.critical_patterns) - 10
    if extra > 0:
        print(f"  ... ({extra} more)")
    if report.survived_all:
        print("verdict: every pattern survived")
    else:
        print(f"verdict: {len(report.critical_patterns)} pattern(s) "
              f"violated (try synthesize --failures to re-solve robustly)")
    _emit_stats({"kind": "failures", **report.to_dict()}, args.stats_json)
    return 0 if report.survived_all else 2


def _cmd_scenarios(args) -> int:
    """Corpus enumeration, generation and (incremental) re-solve.

    Exit codes: 0 = ok, 1 = bad name/edit/family, 2 = infeasible solve.
    """
    import time

    from repro.scenarios import (
        apply_edits,
        cold_resolve,
        default_registry,
        incremental_resolve,
        parse_edit,
    )

    registry = default_registry()
    if args.scenarios_command == "list":
        try:
            names = registry.names(family=args.family)
        except KeyError as exc:
            print(f"scenarios: {exc.args[0]}")
            return 1
        if args.json:
            print(json.dumps(registry.summary(), indent=2, sort_keys=True))
            return 0
        for fam in registry.summary():
            if args.family and fam["family"] != args.family:
                continue
            print(f"[{fam['family']}] {fam['description']} "
                  f"({fam['grid_points']} grid points x {fam['seeds']} "
                  f"seeds = {fam['scenarios']} scenarios)")
        shown = names if args.limit is None else names[:args.limit]
        for name in shown:
            print(f"  {name}")
        if len(shown) < len(names):
            print(f"  ... ({len(names) - len(shown)} more)")
        print(f"total: {len(names)} scenarios")
        return 0

    try:
        scenario = registry.generate(args.name)
    except (KeyError, ValueError) as exc:
        print(f"scenarios: {exc.args[0] if exc.args else exc}")
        return 1

    if args.scenarios_command == "generate":
        print(json.dumps(scenario.summary(), indent=2, sort_keys=True))
        if args.svg_out:
            markers = [
                SvgMarker(node.location, node.role, str(node.id))
                for node in scenario.template.nodes
            ]
            links = [
                (scenario.template.node(u).location,
                 scenario.template.node(v).location)
                for u, v, _w in scenario.template.edges()
                if u < v
            ]
            args.svg_out.write_text(
                floorplan_to_svg(scenario.plan, markers, links)
            )
            print(f"wrote {args.svg_out}")
        return 0

    # resolve
    if args.k_star is not None:
        scenario = dataclasses.replace(scenario, k_star=args.k_star)
    try:
        edits = tuple(parse_edit(text) for text in args.edit)
    except ValueError as exc:
        print(f"scenarios: {exc}")
        return 1
    if args.incremental and not edits:
        print("scenarios: --incremental needs at least one --edit")
        return 1

    cache = EncodeCache()
    started = time.perf_counter()
    base = scenario.explore(cache=cache)
    base_seconds = time.perf_counter() - started
    print(f"base:     {scenario.name}")
    print(f"  status {base.status.value}, objective "
          f"{base.objective_value}, {base_seconds:.3f}s")
    stats: dict = {
        "kind": "scenarios",
        "scenario": scenario.summary(),
        "base": {**base.stats_dict(), "seconds": base_seconds},
    }
    if not base.feasible:
        _print_result_diagnostics(base)
        _emit_stats(stats, args.stats_json)
        return 2

    code = 0
    if edits:
        try:
            edited, deltas = apply_edits(scenario, edits)
        except (ValueError, KeyError, IndexError) as exc:
            print(f"scenarios: {exc.args[0] if exc.args else exc}")
            return 1
        print(f"edited:   {edited.name}")
        if args.incremental:
            started = time.perf_counter()
            cold = cold_resolve(edited)
            cold_seconds = time.perf_counter() - started
            started = time.perf_counter()
            result = incremental_resolve(
                scenario, edited, deltas,
                previous=base.architecture, cache=cache,
            )
            incr_seconds = time.perf_counter() - started
            speedup = cold_seconds / max(incr_seconds, 1e-9)
            print(f"  cold        status {cold.status.value}, objective "
                  f"{cold.objective_value}, {cold_seconds:.3f}s")
            print(f"  incremental status {result.status.value}, objective "
                  f"{result.objective_value}, {incr_seconds:.3f}s "
                  f"({speedup:.1f}x, partial reuse "
                  f"{cache.counters.partial_count()})")
            stats["cold"] = {**cold.stats_dict(), "seconds": cold_seconds}
            stats["incremental"] = {
                **result.stats_dict(), "seconds": incr_seconds,
                "speedup": speedup,
            }
        else:
            started = time.perf_counter()
            result = edited.explore(cache=cache)
            seconds = time.perf_counter() - started
            print(f"  status {result.status.value}, objective "
                  f"{result.objective_value}, {seconds:.3f}s")
            stats["edited"] = {**result.stats_dict(), "seconds": seconds}
        if not result.feasible:
            _print_result_diagnostics(result)
            code = 2
    stats["cache"] = cache.counters.to_dict()
    _emit_stats(stats, args.stats_json)
    return code


def _cmd_serve(args) -> int:
    from repro.server import SynthesisService
    from repro.server.http import serve as serve_http

    service = SynthesisService(
        state_dir=args.state_dir, workers=args.workers
    )
    if service.recovered:
        print(f"recovered {len(service.recovered)} in-flight job(s) "
              f"from {args.state_dir}", flush=True)

    def ready(frontend) -> None:
        print(f"serving on http://{frontend.host}:{frontend.port}",
              flush=True)

    try:
        serve_http(service, host=args.host, port=args.port, ready=ready)
    finally:
        service.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "synthesize": _cmd_synthesize,
        "localize": _cmd_localize,
        "lint": _cmd_lint,
        "catalog": _cmd_catalog,
        "kstar": _cmd_kstar,
        "simulate": _cmd_simulate,
        "verify-failures": _cmd_verify_failures,
        "scenarios": _cmd_scenarios,
        "serve": _cmd_serve,
    }
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path is not None:
        configure_tracing([JsonlSink(trace_path)])
    try:
        return handlers[args.command](args)
    finally:
        if trace_path is not None:
            shutdown_tracing()
            print(f"wrote {trace_path}")
        if metrics_path is not None:
            text = prometheus_text(get_registry())
            if str(metrics_path) == "-":
                print(text, end="")
            else:
                metrics_path.write_text(text)
                print(f"wrote {metrics_path}")


if __name__ == "__main__":
    sys.exit(main())
