"""The architecture explorers — the toolbox's problem-assembly layer.

:class:`ExplorerBase` owns the single build → solve → decode pipeline
every exploration runs through, including its ``explorer.build``,
``analysis`` and ``explorer.solve`` trace spans, the per-trial cache
counters and the optional :class:`~repro.runtime.cache.EncodeCache` that
lets sweeps reuse encode work across trials.

:class:`DataCollectionExplorer` assembles a data-collection exploration
problem (template + library + requirements) into one MILP — sizing,
routing (via a pluggable path encoder), link quality and energy.
:class:`AnchorPlacementExplorer` does the same for localization networks
(sizing + pruned reachability constraints, no routing).

Most callers should not instantiate explorers directly: the
:func:`repro.explore` facade picks the right one and routes execution
through the runtime.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.analysis.analyzer import analyze_model, analyze_problem
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.channel.base import ChannelModel
from repro.constraints.energy import EnergyVars, build_energy
from repro.constraints.link_quality import LinkQualityVars, build_link_quality
from repro.constraints.localization import LocalizationVars, build_localization
from repro.constraints.mapping import MappingVars, build_mapping
from repro.core.objectives import ObjectiveSpec, parse_objective
from repro.core.results import SynthesisResult
from repro.encoding.approximate import ApproximatePathEncoder
from repro.encoding.base import RoutingEncoder, RoutingEncoding
from repro.library.catalog import Library
from repro.milp.expr import LinExpr, lin_sum
from repro.milp.highs import HighsSolver
from repro.milp.model import Model
from repro.milp.solution import Solution
from repro.network.requirements import ReachabilityRequirement, RequirementSet
from repro.network.template import Template
from repro.network.topology import Architecture
from repro.runtime.cache import EncodeCache
from repro.runtime.instrumentation import RunStats
from repro.telemetry.trace import drain_drop_warnings, span


def _telemetry_diagnostics() -> list[Diagnostic]:
    """Sink-failure warnings queued by the tracer, as result diagnostics.

    Telemetry never fails a solve — a raising sink only drops events —
    but silently losing a trace is not acceptable either, so the drop
    warnings surface on the next ``SynthesisResult``.
    """
    return [
        Diagnostic(
            rule_id="telemetry.dropped-events",
            severity=Severity.WARNING,
            message=message,
            hint="check the --trace/--metrics target (disk space, "
            "permissions); the solve itself is unaffected",
        )
        for message in drain_drop_warnings()
    ]


@dataclass
class BuiltProblem:
    """A fully encoded MILP plus the handles needed to decode it."""

    model: Model
    mapping: MappingVars
    encoding: RoutingEncoding | None
    link_quality: LinkQualityVars | None
    energy: EnergyVars | None
    localization: LocalizationVars | None
    objective_exprs: dict[str, LinExpr]
    #: Findings of the pre-solve static analyzer (None when disabled).
    analysis: AnalysisReport | None = None

    def term(self, name: str) -> LinExpr:
        """The expression of objective term ``name``.

        The energy term's node charges are built on its first request,
        so only a model that prices or bounds energy carries them.
        """
        if (
            name == "energy" and name not in self.objective_exprs
            and self.energy is not None
        ):
            self.objective_exprs[name] = self.energy.total_charge()
        return self.objective_exprs[name]


class ExplorerBase(abc.ABC):
    """Shared analyze → build → solve → decode pipeline of every explorer.

    Subclasses implement :meth:`_assemble` (problem assembly into a MILP)
    and :attr:`encoder_name`; the base class owns the pre-solve static
    analysis gate, solving, decoding, timing and result assembly, so
    every explorer reports uniform
    :class:`~repro.core.results.SynthesisResult`\\ s.

    :meth:`build` is a fail-fast gate: the spec-level analyzer runs over
    the problem inputs before any encoding work, and the model-level
    analyzer over the built MILP before any solver call.  Blocking
    findings raise :class:`~repro.analysis.diagnostics.AnalysisError`
    (an :class:`~repro.encoding.base.EncodingError`) carrying the full
    diagnostic list; warnings ride along on the
    :attr:`BuiltProblem.analysis` report and surface on the result.

    Parameters (keyword-only)
    -------------------------
    solver:
        MILP backend; defaults to :class:`~repro.milp.highs.HighsSolver`.
    cache:
        Optional shared :class:`~repro.runtime.cache.EncodeCache`; when
        set, encode-phase artifacts (path-loss graphs, Yen candidate
        pools, anchor rankings) are reused across trials that share the
        cache.
    analyze:
        Run the pre-solve static analyzer in :meth:`build` (default).
        Disable only to reproduce raw encoder/solver behaviour on inputs
        the analyzer would refuse.

    Setting the :attr:`warm_start_architecture` attribute warm-starts
    every later solve from that previous design
    (:mod:`repro.accel.warmstart`): the start reaches the backend
    through ``Model.hints["warm_start"]``.
    """

    def __init__(
        self,
        template: Template,
        library: Library,
        *,
        solver=None,
        cache: EncodeCache | None = None,
        analyze: bool = True,
    ) -> None:
        self.template = template
        self.library = library
        self.solver = solver or HighsSolver()
        self.cache = cache
        self.analyze = analyze
        #: Previous design whose routes warm-start every solve (the
        #: kstar ladder, the Pareto sweep and ``explore(previous=)``
        #: set it); ``None`` solves cold.
        self.warm_start_architecture: Architecture | None = None
        #: Failure-pattern spec (``"k-link:1,walls"``-style string or a
        #: :class:`~repro.failures.patterns.FailuresSpec`); when set,
        #: :meth:`solve` runs failure-aware synthesis through
        #: :func:`repro.failures.robust.robust_solve`.
        self.failures = None
        #: Floor plan for geometric failure families (walls/regions).
        self.floorplan = None
        #: JSONL checkpoint path for the verification sweep, and whether
        #: to replay completed verdicts from it.
        self.failures_checkpoint: str | None = None
        self.failures_resume: bool = False

    def fingerprint(self) -> str:
        """A short stable hash of the problem identity (template,
        library, requirements, channel — not solver/encoder tuning).

        Checkpoints pin this in their header so a resume against a
        different problem instance is refused instead of silently
        replaying another problem's objectives (see
        :mod:`repro.resilience.checkpoint`).
        """
        from repro.resilience.checkpoint import problem_fingerprint

        return problem_fingerprint(
            self.template,
            self.library,
            getattr(self, "requirements", None)
            or getattr(self, "requirement", None),
            getattr(self, "channel", None),
        )

    def build(
        self,
        objective: str | dict | ObjectiveSpec = "cost",
        *,
        stats: RunStats | None = None,
    ) -> BuiltProblem:
        """Analyze and encode the exploration problem into a MILP.

        Raises :class:`~repro.analysis.diagnostics.AnalysisError` when a
        blocking diagnostic fires — before encoding for spec-level
        findings, before any solver call for model-level findings.
        """
        with span(
            "explorer.build", explorer=type(self).__name__
        ) as build_span:
            report = AnalysisReport()
            if self.analyze:
                with span("analysis", level="spec"):
                    report.merge(analyze_problem(
                        self.template, self._analysis_requirements(),
                        self.library,
                    ))
                report.raise_for_errors(
                    f"{type(self).__name__} spec analysis"
                )
            built = self._assemble(objective, stats=stats)
            if self.analyze:
                with span("analysis", level="model"):
                    report.merge(analyze_model(built.model))
                report.raise_for_errors(
                    f"{type(self).__name__} model analysis"
                )
            built.analysis = report if self.analyze else None
            model_stats = built.model.stats()
            build_span.set_attributes(
                variables=model_stats.num_vars,
                constraints=model_stats.num_constraints,
            )
            return built

    @abc.abstractmethod
    def _assemble(
        self,
        objective: str | dict | ObjectiveSpec = "cost",
        *,
        stats: RunStats | None = None,
    ) -> BuiltProblem:
        """Encode the exploration problem into a MILP (no analysis)."""

    def _analysis_requirements(
        self,
    ) -> RequirementSet | ReachabilityRequirement | None:
        """The requirements object handed to the spec-level analyzer."""
        return None

    @property
    @abc.abstractmethod
    def encoder_name(self) -> str:
        """Name of the encoding reported in results."""

    def solve(
        self, objective: str | dict | ObjectiveSpec = "cost",
    ) -> SynthesisResult:
        """Build, solve and decode in one call.

        With :attr:`failures` set, the call is delegated to the
        failure-aware loop: solve, sweep the decoded design against the
        enumerated failure patterns, add survivability rows for the
        worst violated ones and re-solve to a fixpoint
        (:mod:`repro.failures.robust`).
        """
        return self._solve(objective)

    def _solve(
        self,
        objective: str | dict | ObjectiveSpec = "cost",
        mutate: Callable[[BuiltProblem], None] | None = None,
    ) -> SynthesisResult:
        """:meth:`solve`, with ``mutate`` tightening the built model
        before its first solve (the Pareto sweep adds its
        epsilon-constraint budget row this way)."""
        if self.failures is not None:
            from repro.failures.robust import robust_solve

            return robust_solve(self, objective, mutate=mutate)
        with span(
            "explorer.solve", explorer=type(self).__name__
        ) as solve_span:
            stats = RunStats()
            t0 = time.perf_counter()
            built = self.build(objective, stats=stats)
            encode_seconds = time.perf_counter() - t0
            if mutate is not None:
                mutate(built)
            solution = self._solve_built(built)
            architecture, terms = self._decode(solution, built)
            diagnostics = []
            if built.analysis is not None:
                diagnostics = built.analysis.errors + built.analysis.warnings
            diagnostics = diagnostics + _telemetry_diagnostics()
            solve_span.set_attribute("status", solution.status.name)
            return SynthesisResult(
                status=solution.status,
                architecture=architecture,
                solution=solution,
                model_stats=built.model.stats(),
                encode_seconds=encode_seconds,
                solve_seconds=solution.solve_time,
                encoder_name=self.encoder_name,
                objective_terms=terms,
                run_stats=stats,
                diagnostics=diagnostics,
                # The watchdog's per-attempt log (retries, fallbacks,
                # degradation) rides the Solution's extra dict; surface it.
                solve_attempts=list(
                    solution.extra.get("solve_attempts", ())
                ),
            )

    def _solve_built(self, built: BuiltProblem) -> Solution:
        """Run the solver on ``built``.

        With a :attr:`warm_start_architecture` set, the start it seeds
        lands on the model's hints first.
        """
        if self.warm_start_architecture is not None:
            from repro.accel.warmstart import (
                attach_warm_start,
                compute_warm_start,
            )

            warm = compute_warm_start(built, self.warm_start_architecture)
            if warm is not None:
                attach_warm_start(built.model, warm)
        return self.solver.solve(built.model)

    def _decode(
        self, solution: Solution, built: BuiltProblem
    ) -> tuple[Architecture | None, dict[str, float]]:
        """Decode a solution (when one exists) plus its objective terms."""
        if not solution.status.has_solution:
            return None, {}
        architecture = decode_architecture(
            solution, built, self.template, self.library
        )
        terms = {
            name: solution.value(expr)
            for name, expr in built.objective_exprs.items()
        }
        if built.energy is not None:
            # The charge at the decoded design, whether or not the model
            # built (or priced) the node charges.
            terms["energy"] = built.energy.charge_value(solution)
        return architecture, terms


class DataCollectionExplorer(ExplorerBase):
    """Joint topology + sizing synthesis for data-collection networks.

    When the requirement set additionally carries a
    :class:`~repro.network.requirements.ReachabilityRequirement`, the
    synthesized relays double as localization anchors (a dual-use
    network); this needs the ``channel`` model to estimate anchor-to-test-
    point path losses, and ``reach_k_star`` prunes the candidate anchors
    per test point as in Section 4.2.

    All configuration beyond the problem triple (template, library,
    requirements) is keyword-only.
    """

    def __init__(
        self,
        template: Template,
        library: Library,
        requirements: RequirementSet,
        *,
        encoder: RoutingEncoder | None = None,
        solver=None,
        channel=None,
        reach_k_star: int = 20,
        cache: EncodeCache | None = None,
        analyze: bool = True,
    ) -> None:
        super().__init__(
            template, library, solver=solver, cache=cache, analyze=analyze,
        )
        self.requirements = requirements
        self.encoder = encoder or ApproximatePathEncoder(k_star=10)
        self.channel = channel
        self.reach_k_star = reach_k_star

    @property
    def encoder_name(self) -> str:
        """The routing encoder's name."""
        return self.encoder.name

    def _analysis_requirements(self) -> RequirementSet:
        """Data-collection problems are analyzed against the full set."""
        return self.requirements

    def _assemble(
        self,
        objective: str | dict | ObjectiveSpec = "cost",
        *,
        stats: RunStats | None = None,
    ) -> BuiltProblem:
        """Encode the exploration problem into a MILP."""
        spec = parse_objective(objective)
        reqs = self.requirements
        model = Model(f"{self.template.name}:{self.encoder.name}")

        mapping = build_mapping(model, self.template, self.library)
        encoding = self.encoder.encode(
            model, self.template, reqs.routes, mapping.node_used,
            cache=self.cache, stats=stats,
        )
        lq = build_link_quality(
            model, self.template, mapping, encoding, reqs.link_quality
        )
        needs_energy = reqs.lifetime is not None or "energy" in spec.terms
        energy = None
        if needs_energy:
            energy = build_energy(
                model, self.template, mapping, encoding, lq,
                reqs.tdma, reqs.power, reqs.lifetime,
            )

        localization = None
        if reqs.reachability is not None:
            if self.channel is None:
                raise ValueError(
                    "a reachability requirement needs the channel model; "
                    "pass channel= to the explorer"
                )
            localization = build_localization(
                model, self.template, mapping, reqs.reachability,
                self.channel, self.reach_k_star,
                cache=self.cache, stats=stats,
            )

        cost = mapping.cost_expr()
        if self.template.link_type.cost:
            cost = cost + lin_sum(
                list(encoding.edge_active.values())
            ) * self.template.link_type.cost
        objective_exprs: dict[str, LinExpr] = {"cost": cost}
        if energy is not None and "energy" in spec.terms:
            objective_exprs["energy"] = energy.total_charge()
        if localization is not None:
            objective_exprs["dsod"] = localization.dsod_expr()
        model.minimize(spec.build(objective_exprs))
        return BuiltProblem(
            model=model,
            mapping=mapping,
            encoding=encoding,
            link_quality=lq,
            energy=energy,
            localization=localization,
            objective_exprs=objective_exprs,
        )


class AnchorPlacementExplorer(ExplorerBase):
    """Anchor placement + sizing synthesis for localization networks."""

    def __init__(
        self,
        template: Template,
        library: Library,
        requirement: ReachabilityRequirement,
        channel: ChannelModel,
        *,
        k_star: int = 20,
        solver=None,
        cache: EncodeCache | None = None,
        analyze: bool = True,
    ) -> None:
        super().__init__(
            template, library, solver=solver, cache=cache, analyze=analyze,
        )
        self.requirement = requirement
        self.channel = channel
        self.k_star = k_star

    @property
    def encoder_name(self) -> str:
        """Reachability-pruned encoding at the configured K*."""
        return f"reach-pruned-k{self.k_star}"

    def _analysis_requirements(self) -> ReachabilityRequirement:
        """Anchor placement is analyzed against the bare requirement."""
        return self.requirement

    def _assemble(
        self,
        objective: str | dict | ObjectiveSpec = "cost",
        *,
        stats: RunStats | None = None,
    ) -> BuiltProblem:
        """Encode the localization problem into a MILP."""
        spec = parse_objective(objective)
        model = Model(f"{self.template.name}:loc")
        mapping = build_mapping(model, self.template, self.library)
        loc = build_localization(
            model, self.template, mapping, self.requirement,
            self.channel, self.k_star,
            cache=self.cache, stats=stats,
        )
        objective_exprs = {
            "cost": mapping.cost_expr(),
            "dsod": loc.dsod_expr(),
        }
        objective = spec.build(objective_exprs)
        if "cost" not in spec.terms:
            # Without a cost term the anchor-used variables are degenerate:
            # placing extra anchors changes nothing, so the solver may
            # return all of them.  A tiny lexicographic cost tie-breaker
            # keeps the placement minimal without disturbing the primary
            # objective.
            objective = objective + objective_exprs["cost"] * 1e-4
        model.minimize(objective)
        return BuiltProblem(
            model=model,
            mapping=mapping,
            encoding=None,
            link_quality=None,
            energy=None,
            localization=loc,
            objective_exprs=objective_exprs,
        )


def decode_architecture(
    solution: Solution,
    built: BuiltProblem,
    template: Template,
    library: Library,
) -> Architecture:
    """Translate a MILP assignment into an :class:`Architecture`."""
    arch = Architecture(
        template=template,
        library=library,
        sizing=built.mapping.decode_sizing(solution),
        objective_value=solution.objective,
    )
    if built.encoding is not None:
        arch.active_edges = {
            edge
            for edge, var in built.encoding.edge_active.items()
            if solution.value_bool(var)
        }
        arch.routes = built.encoding.decode(solution)
    if built.localization is not None:
        # "A node is used if it is connected": an anchor is part of the
        # design only when it serves at least one test point or carries
        # routing traffic.  Objectives that exert no downward pressure on
        # the used indicators (pure DSOD) would otherwise report every
        # candidate as placed.
        serving: set[int] = {
            anchor_id
            for (anchor_id, _), var in built.localization.reach.items()
            if solution.value_bool(var)
        }
        routing_used: set[int] = {
            node for edge in arch.active_edges for node in edge
        }
        arch.sizing = {
            node_id: name
            for node_id, name in arch.sizing.items()
            if (node_id in serving or node_id in routing_used
                or template.node(node_id).fixed)
        }
    return arch
