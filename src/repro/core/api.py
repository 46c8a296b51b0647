"""The unified request/result surface: typed jobs over every entry point.

:func:`~repro.core.facade.explore`, :func:`~repro.core.kstar.
kstar_search` and :func:`~repro.core.pareto.explore_pareto` grew
divergent keyword surfaces; a :class:`JobRequest` normalizes all of
them into one typed, serializable object — the same object the
in-process facade, the CLI and the :mod:`repro.server` wire protocol
share.  A request names a problem *family* (``kind``), the problem's
parameters (a plain dict mirroring the CLI flags), an objective and a
:class:`~repro.core.options.SolveOptions`; :meth:`JobRequest.run`
builds the problem and dispatches to the right entry point.

Results travel as the matching versioned envelope
(:meth:`SynthesisResult.to_dict`, :meth:`KStarSearchResult.to_dict`,
:meth:`ParetoFront.to_dict`); :func:`result_to_dict` /
:func:`result_from_dict` are the one encode/decode pair for all of
them, keyed by the envelope's ``kind``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from repro.core.explorer import DataCollectionExplorer
from repro.core.facade import build_explorer, explore
from repro.core.kstar import (
    DEFAULT_K_LADDER,
    KStarSearchResult,
    kstar_search,
)
from repro.core.options import DEFAULT_OPTIONS, SolveOptions
from repro.core.pareto import ParetoFront, explore_pareto
from repro.core.results import SynthesisResult
from repro.encoding.approximate import ApproximatePathEncoder
from repro.library.catalog import default_catalog, localization_catalog
from repro.milp.highs import HighsSolver
from repro.network.builders import (
    data_collection_template,
    localization_template,
    synthetic_template,
)
from repro.network.requirements import (
    LifetimeRequirement,
    LinkQualityRequirement,
    ReachabilityRequirement,
    RequirementSet,
)
from repro.network.topology import Architecture
from repro.resilience.checkpoint import RestoredResult, restored_result
from repro.runtime.cache import EncodeCache
from repro.scenarios import (
    apply_edits,
    default_registry,
    parse_edit,
    prepare_cache,
)
from repro.spec.problem import compile_spec

#: Version of the job wire format (request envelopes).  Result payloads
#: carry the ``--stats-json`` schema version instead.
JOB_SCHEMA_VERSION = 1

JOB_KINDS = ("synthesize", "localize", "kstar", "pareto", "scenario")

#: The built-in data-collection spec (also the CLI default).
DEFAULT_SPEC = """
has_paths(sensors, sink, replicas=2, disjoint=true)
min_signal_to_noise(20)
min_network_lifetime(5)
objective(cost)
"""

#: Problem-parameter keys each job kind accepts (mirroring CLI flags).
_PROBLEM_KEYS = {
    "synthesize": (
        "spec", "sensors", "relays", "k_star", "time_limit", "mip_gap",
    ),
    "localize": (
        "anchors", "points", "min_anchors", "min_rss", "k_star",
    ),
    "kstar": (
        "nodes", "devices", "ladder", "seed", "time_threshold_s",
        "min_relative_gain",
    ),
    "pareto": (
        "sensors", "relays", "k_star", "secondary", "points",
    ),
    # ``scenario`` names a registry problem (``family:params:seed``);
    # ``edits`` is a list of what-if edit specs applied in order and
    # ``base`` the job id of a prior solve of the unedited scenario —
    # the server resolves it to a warm-start architecture, and the
    # shared cache supplies that solve's transplantable compilation.
    "scenario": (
        "scenario", "edits", "k_star", "base",
    ),
}


@dataclass(frozen=True)
class JobRequest:
    """One synthesis job: problem family, parameters, objective, options.

    ``problem`` holds the family's parameters under the same names as
    the CLI flags (see ``_PROBLEM_KEYS``); anything omitted takes the
    CLI default.  ``tenant`` identifies the submitter for the server's
    fair scheduler and is free-form.
    """

    kind: str
    problem: dict = field(default_factory=dict)
    objective: str = "cost"
    options: SolveOptions = DEFAULT_OPTIONS
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of "
                f"{', '.join(JOB_KINDS)}"
            )
        if not isinstance(self.problem, dict):
            raise TypeError("problem must be a dict of problem parameters")
        unknown = sorted(set(self.problem) - set(_PROBLEM_KEYS[self.kind]))
        if unknown:
            raise ValueError(
                f"unknown problem parameter(s) for {self.kind!r}: "
                f"{', '.join(unknown)} (accepted: "
                f"{', '.join(_PROBLEM_KEYS[self.kind])})"
            )
        if not isinstance(self.options, SolveOptions):
            raise TypeError("options must be a SolveOptions")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")

    @property
    def resumable(self) -> bool:
        """Whether this job's sweep can resume from a checkpoint.

        Ladder and front sweeps always are; a synthesize job is when a
        failures spec is set (the checkpoint then covers the failure
        verification sweep, not the solve itself).
        """
        if self.kind in ("kstar", "pareto"):
            return True
        return self.kind == "synthesize" and self.options.failures is not None

    def to_dict(self) -> dict:
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            "kind": self.kind,
            "problem": dict(self.problem),
            "objective": self.objective,
            "options": self.options.to_dict(),
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> JobRequest:
        if not isinstance(payload, dict):
            raise TypeError("job request payload must be a JSON object")
        version = payload.get("schema_version", JOB_SCHEMA_VERSION)
        if version != JOB_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported job schema_version {version!r} "
                f"(this build speaks {JOB_SCHEMA_VERSION})"
            )
        known = {
            "schema_version", "kind", "problem", "objective", "options",
            "tenant",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown job request field(s): {', '.join(unknown)}"
            )
        options = payload.get("options", {})
        return cls(
            kind=payload.get("kind", ""),
            problem=dict(payload.get("problem", {})),
            objective=str(payload.get("objective", "cost")),
            options=(
                options if isinstance(options, SolveOptions)
                else SolveOptions.from_dict(options)
            ),
            tenant=str(payload.get("tenant", "default")),
        )

    def run(
        self,
        *,
        cache: EncodeCache | None = None,
        checkpoint: str | None = None,
        resume: bool | None = None,
        previous: Architecture | None = None,
    ) -> SynthesisResult | KStarSearchResult | ParetoFront:
        """Build the problem and dispatch to the right entry point.

        ``cache`` shares encode work across jobs (the server passes its
        warm process-wide cache).  ``checkpoint``/``resume`` override
        the request's options for resumable kinds — the server points
        them at its per-job sweep file; single solves (synthesize /
        localize) ignore them, their recovery is re-running the job.
        ``previous`` warm-starts a scenario job from a prior solve's
        architecture (the server resolves the job's ``base`` to it);
        other kinds ignore it.
        """
        opts = self.options
        if self.resumable:
            if checkpoint is not None:
                opts = opts.replace(checkpoint=str(checkpoint))
            if resume is not None:
                opts = opts.replace(
                    resume=bool(resume) and opts.checkpoint is not None
                )
        else:
            opts = opts.replace(checkpoint=None, resume=False)
        if self.kind == "scenario":
            return self._run_scenario(opts, cache, previous)
        runner = {
            "synthesize": self._run_synthesize,
            "localize": self._run_localize,
            "kstar": self._run_kstar,
            "pareto": self._run_pareto,
        }[self.kind]
        return runner(opts, cache)

    # -- per-kind problem builders (mirroring the CLI commands) --------

    def _run_synthesize(
        self, opts: SolveOptions, cache: EncodeCache | None
    ) -> SynthesisResult:
        p = self.problem
        instance = data_collection_template(
            n_sensors=int(p.get("sensors", 20)),
            n_relay_candidates=int(p.get("relays", 60)),
        )
        compiled = compile_spec(
            str(p.get("spec", DEFAULT_SPEC)), instance.template
        )
        return explore(
            instance.template, default_catalog(), compiled.requirements,
            objective=compiled.objective,
            k_star=int(p.get("k_star", 10)),
            solver=HighsSolver(
                time_limit=float(p.get("time_limit", 300.0)),
                mip_rel_gap=float(p.get("mip_gap", 0.02)),
            ),
            cache=cache,
            options=opts,
            # The instance's floor plan feeds the geometric failure
            # families when options.failures asks for walls/regions.
            plan=instance.plan,
        )

    def _run_localize(
        self, opts: SolveOptions, cache: EncodeCache | None
    ) -> SynthesisResult:
        p = self.problem
        instance = localization_template(
            int(p.get("anchors", 100)), int(p.get("points", 80))
        )
        requirement = ReachabilityRequirement(
            test_points=instance.test_points,
            min_anchors=int(p.get("min_anchors", 3)),
            min_rss_dbm=float(p.get("min_rss", -80.0)),
        )
        return explore(
            instance.template, localization_catalog(), requirement,
            objective=self.objective,
            channel=instance.channel,
            k_star=int(p.get("k_star", 20)),
            cache=cache,
            options=opts,
        )

    def _kstar_problem(self) -> tuple[RequirementSet, object]:
        p = self.problem
        instance = synthetic_template(
            int(p.get("nodes", 50)), int(p.get("devices", 20)),
            seed=int(p.get("seed", 11)),
        )
        reqs = RequirementSet()
        for sensor in instance.sensor_ids:
            reqs.require_route(
                sensor, instance.sink_id, replicas=2, disjoint=True
            )
        reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
        return reqs, instance

    def _run_kstar(
        self, opts: SolveOptions, cache: EncodeCache | None
    ) -> KStarSearchResult:
        p = self.problem
        reqs, instance = self._kstar_problem()
        threshold = p.get("time_threshold_s")
        return kstar_search(
            lambda k: DataCollectionExplorer(
                instance.template, default_catalog(), reqs,
                encoder=ApproximatePathEncoder(k_star=k),
            ),
            objective=self.objective,
            ladder=tuple(
                int(k) for k in p.get("ladder", DEFAULT_K_LADDER)
            ),
            time_threshold_s=(
                None if threshold is None else float(threshold)
            ),
            min_relative_gain=float(p.get("min_relative_gain", 1e-3)),
            cache=cache,
            options=opts,
        )

    def _run_scenario(
        self,
        opts: SolveOptions,
        cache: EncodeCache | None,
        previous: Architecture | None,
    ) -> SynthesisResult:
        p = self.problem
        name = str(p.get("scenario", ""))
        if not name:
            raise ValueError(
                "scenario jobs need a 'scenario' name (family:params:seed)"
            )
        scenario = default_registry().generate(name)
        if "k_star" in p:
            scenario = dc_replace(scenario, k_star=int(p["k_star"]))
        edits = tuple(parse_edit(str(e)) for e in p.get("edits", ()))
        if not edits:
            return scenario.explore(
                objective=self.objective, cache=cache, options=opts,
            )
        edited, deltas = apply_edits(scenario, edits)
        if cache is not None:
            # When the base scenario was solved against this same cache
            # (the server's warm process-wide one), this transplants its
            # still-valid graph/Yen/ranking entries to the edited keys.
            prepare_cache(scenario, edited, deltas, cache)
        return edited.explore(
            objective=self.objective, cache=cache, options=opts,
            previous=previous,
        )

    def _run_pareto(
        self, opts: SolveOptions, cache: EncodeCache | None
    ) -> ParetoFront:
        p = self.problem
        instance = data_collection_template(
            n_sensors=int(p.get("sensors", 12)),
            n_relay_candidates=int(p.get("relays", 24)),
        )
        reqs = RequirementSet()
        for sensor in instance.sensor_ids:
            reqs.require_route(sensor, instance.sink_id)
        # The secondary (energy) term only enters the model alongside a
        # lifetime requirement, so the trade-off has both axes.
        reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
        reqs.lifetime = LifetimeRequirement(years=5.0)
        explorer = build_explorer(
            instance.template, default_catalog(), reqs,
            k_star=int(p.get("k_star", 5)), cache=cache,
            plan=instance.plan,
        )
        return explore_pareto(
            explorer,
            primary=self.objective,
            secondary=str(p.get("secondary", "energy")),
            points=int(p.get("points", 6)),
            options=opts,
        )


def result_to_dict(
    result: SynthesisResult | RestoredResult | KStarSearchResult | ParetoFront,
) -> dict:
    """Encode any entry point's result as its versioned envelope."""
    to_dict = getattr(result, "to_dict", None)
    if to_dict is None:
        raise TypeError(
            f"{type(result).__name__} is not a serializable result"
        )
    return to_dict()


def result_from_dict(
    payload: dict,
) -> RestoredResult | KStarSearchResult | ParetoFront:
    """Decode a result envelope, dispatching on its ``kind``.

    The inverse of :func:`result_to_dict` up to architecture loss:
    synthesis payloads come back as
    :class:`~repro.resilience.checkpoint.RestoredResult` stand-ins.
    """
    kind = payload.get("kind")
    if kind == "synthesis":
        return restored_result(payload)
    if kind == "kstar":
        return KStarSearchResult.from_dict(payload)
    if kind == "pareto":
        return ParetoFront.from_dict(payload)
    raise ValueError(
        f"unknown result kind {kind!r}; expected synthesis, kstar or pareto"
    )


@dataclass(frozen=True)
class JobResult:
    """The terminal outcome envelope of one job.

    ``result`` is the payload from :func:`result_to_dict` when the job
    succeeded; ``error`` carries the failure message otherwise.
    """

    kind: str
    ok: bool
    result: dict | None = None
    error: str | None = None
    seconds: float | None = None

    def to_dict(self) -> dict:
        payload: dict = {
            "schema_version": JOB_SCHEMA_VERSION,
            "kind": self.kind,
            "ok": self.ok,
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        if self.seconds is not None:
            payload["seconds"] = round(self.seconds, 6)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> JobResult:
        return cls(
            kind=str(payload.get("kind", "")),
            ok=bool(payload.get("ok", False)),
            result=payload.get("result"),
            error=payload.get("error"),
            seconds=payload.get("seconds"),
        )

    @classmethod
    def success(
        cls, kind: str, result, *, seconds: float | None = None
    ) -> JobResult:
        return cls(
            kind=kind, ok=True,
            result=result_to_dict(result), seconds=seconds,
        )

    @classmethod
    def failure(
        cls, kind: str, error: str, *, seconds: float | None = None
    ) -> JobResult:
        return cls(kind=kind, ok=False, error=error, seconds=seconds)
