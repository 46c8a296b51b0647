"""The benchmark's three workloads, built on the public ``repro`` API.

Each workload turns an *input seed* into a fixed list of ops.  An op is
one proven-optimal solve with default :class:`repro.SolveOptions` (no
parallelism, deadline, time threshold, portfolio or lazy cuts), so the
work per op is fixed and repeats exactly from run to run.

``ladder``
    Cold solves of the Table 3 data-collection family (two disjoint
    replicas per sensor, SNR >= 20 dB, 5-year lifetime, K* = 10, exact
    gap) at six sizes.  HiGHS takes most of the time: this is where a
    tighter formulation or a solver-side change shows.
``corpus``
    All 105 problems of the default scenario registry, each a cold
    :meth:`Scenario.explore` with a fresh :class:`EncodeCache`.  Ops take
    tens of milliseconds and the Python build (analysis, Yen pools,
    constraint assembly) outweighs HiGHS.
``whatif``
    Single-edit what-if sessions on two large bases.  Each base is solved
    once during set-up; each op applies one edit and re-solves it
    incrementally against a private copy of the base's cache, so pools
    are replayed instead of built cold.

Every op also knows its cold reference: a from-scratch re-solve the
runner uses, outside set-up and timing, when no pinned reference exists.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import repro
from repro.network import (
    LifetimeRequirement,
    LinkQualityRequirement,
    ReachabilityRequirement,
    RequirementSet,
)
from repro.runtime import EncodeCache

#: Ladder rungs as (nodes in total, end devices): similar sizes, so that
#: no single solve dominates a pass.
LADDER_RUNGS = ((50, 20), (60, 20), (75, 20), (80, 30), (100, 25), (100, 30))
#: Rung solved once during set-up to load and warm the solver path.
LADDER_WARMUP = (100, 20)
LADDER_K_STAR = 10

#: Registry seeds per corpus input seed: input ``s`` uses s .. s+4.
CORPUS_SEEDS = 5

#: The two gated what-if bases of ``benchmarks/bench_scenarios.py``.
WHATIF_BASES = (
    (
        "multifloor",
        "multifloor:floors=6,k_star=24,relays_per_floor=16,"
        "rooms_x=5,sensors_per_floor=6:0",
    ),
    (
        "campus",
        "campus:buildings_x=3,buildings_y=3,k_star=24,"
        "sensors_per_building=4,street_relays=100:0",
    ),
)
_WALL_MATERIALS = ("drywall", "glass", "brick", "concrete")
#: SNR edits tighten the base's 20 dB: a looser link budget admits many
#: more links and turns a what-if into a long cold-sized MILP.
_SNR_CHOICES = (21.0, 22.0)
#: Edits of each kind per base: two, so that no single edit sets a
#: pass's tail latency.
EDITS_PER_KIND = 2
#: Relay swaps that keep both bases feasible and their re-solves short.
_SWAPS = (
    ("relay-std", "relay-lp"),
    ("relay-std", "relay-lp-ant"),
    ("relay-std", "relay-pa"),
    ("relay-ant", "relay-lp-ant"),
)

#: Calibration loads and their weights per workload (see calib.py),
#: chosen by how well each tracked the workload's ops across runs.
CALIBRATION = {
    "ladder": {"loop": 1.0},
    "corpus": {"loop": 0.5, "build": 0.5},
    "whatif": {"loop": 1.0},
}

#: Default input seed per workload; METRICS.md lists the held-out ones.
DEFAULT_INPUT = {"ladder": 11, "corpus": 0, "whatif": 0}


@dataclass
class Outcome:
    """What an op returns: the result plus what validating it needs."""

    result: Any
    requirements: RequirementSet
    channel: Any = None
    #: The op's own cache, when it has one, for its seeded-entry count.
    cache: EncodeCache | None = None


@dataclass
class Op:
    """One timed unit of work.

    ``run`` is the timed call.  ``cold`` re-solves the same problem from
    scratch and returns its objective; the runner calls it only to get
    references for inputs without pinned ones, never inside timing.
    """

    key: str
    run: Callable[[], Outcome]
    cold: Callable[[], float]


@dataclass
class Prepared:
    """A workload's ops plus the op solved once during set-up."""

    ops: list[Op]
    warmup: Op


def build(workload: str, input_seed: int) -> Prepared:
    """The ops of ``workload`` for ``input_seed`` (all set-up work)."""
    return _BUILDERS[workload](input_seed)


# -- ladder -------------------------------------------------------------------


def _ladder_problem(n_total: int, n_end: int, seed: int):
    instance = repro.synthetic_template(n_total, n_end, seed=seed)
    reqs = RequirementSet()
    for sensor in instance.sensor_ids:
        reqs.require_route(sensor, instance.sink_id, replicas=2, disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    reqs.lifetime = LifetimeRequirement(years=5.0)
    return instance.template, reqs


def _ladder_op(n_total: int, n_end: int, seed: int) -> Op:
    template, reqs = _ladder_problem(n_total, n_end, seed)
    library = repro.default_catalog()

    def run() -> Outcome:
        result = repro.explore(template, library, reqs, k_star=LADDER_K_STAR)
        return Outcome(result, reqs)

    def cold() -> float:
        fresh_template, fresh_reqs = _ladder_problem(n_total, n_end, seed)
        return repro.explore(
            fresh_template, repro.default_catalog(), fresh_reqs,
            k_star=LADDER_K_STAR,
        ).objective_value

    return Op(f"{n_total}x{n_end}", run, cold)


def _build_ladder(seed: int) -> Prepared:
    ops = [_ladder_op(n, e, seed) for n, e in LADDER_RUNGS]
    return Prepared(ops, _ladder_op(*LADDER_WARMUP, seed))


# -- corpus -------------------------------------------------------------------


def _validation_inputs(scenario) -> tuple[RequirementSet, Any]:
    reqs = scenario.requirements
    if isinstance(reqs, ReachabilityRequirement):
        reqs = RequirementSet(reachability=reqs)
    return reqs, scenario.channel


def _corpus_op(scenario) -> Op:
    reqs, channel = _validation_inputs(scenario)

    def run() -> Outcome:
        cache = EncodeCache()
        result = scenario.explore(cache=cache)
        return Outcome(result, reqs, channel, cache)

    def cold() -> float:
        return repro.scenarios.cold_resolve(scenario).objective_value

    return Op(scenario.name, run, cold)


def _build_corpus(seed: int) -> Prepared:
    registry = repro.scenarios.ScenarioRegistry(
        seeds=range(seed, seed + CORPUS_SEEDS)
    )
    ops = [_corpus_op(registry.generate(name)) for name in registry.names()]
    return Prepared(ops, _corpus_op(registry.generate(registry.names()[0])))


# -- whatif -------------------------------------------------------------------


def _fork(cache: EncodeCache) -> EncodeCache:
    """A private copy of a solved base's cache.

    Each op must start from the base's pristine cache: entries an earlier
    edit added would turn later misses into hits and change the work.
    ``EncodeCache`` has no public copy, so this shares the entry values
    (immutable by the cache's contract) through its entry dict.
    """
    fork = EncodeCache()
    fork._entries = dict(cache._entries)
    return fork


def edit_stream(scenario, stream: int, label: str) -> list[str]:
    """``EDITS_PER_KIND`` distinct edits of each of the six kinds, seeded.

    Walls are short and placed anywhere in the plan, moved nodes are
    non-fixed relays shifted by at most 3 m, swaps exchange a relay
    model, replica edits ask for two disjoint routes and SNR edits
    tighten the link budget by 1-2 dB.
    """
    rng = random.Random(f"whatif:{stream}:{label}")
    bounds = scenario.plan.bounds
    count = EDITS_PER_KIND
    edits = []
    for _ in range(count):
        vertical = rng.random() < 0.5
        length = rng.choice((4.0, 6.0, 8.0))
        x = round(rng.uniform(bounds.x_min + 2, bounds.x_max - 2) * 2) / 2
        y = round(rng.uniform(bounds.y_min + 2, bounds.y_max - 2) * 2) / 2
        x2, y2 = (x, min(y + length, bounds.y_max)) if vertical else (
            min(x + length, bounds.x_max), y
        )
        material = rng.choice(_WALL_MATERIALS)
        edits.append(f"add-wall:{x},{y},{x2},{y2},{material}")

    for index in rng.sample(range(len(scenario.plan.walls)), count):
        edits.append(f"remove-wall:{index}")

    relays = [
        n for n in scenario.template.nodes
        if n.role == "relay" and not n.fixed
    ]
    for node in rng.sample(relays, count):
        nx = min(max(node.location.x + rng.uniform(-3, 3),
                     bounds.x_min + 0.5), bounds.x_max - 0.5)
        ny = min(max(node.location.y + rng.uniform(-3, 3),
                     bounds.y_min + 0.5), bounds.y_max - 0.5)
        edits.append(f"move-node:{node.id},{nx:.1f},{ny:.1f}")

    names = {d.name for d in scenario.library.devices}
    swaps = [(old, new) for old, new in _SWAPS if old in names]
    for old, new in rng.sample(swaps, count):
        edits.append(f"swap-device:{old}={new}")

    for route in rng.sample(range(len(scenario.requirements.routes)), count):
        edits.append(f"set-replicas:{route},2")

    for snr in rng.sample(_SNR_CHOICES, count):
        edits.append(f"set-min-snr:{snr}")
    return edits


def _whatif_op(label: str, base, base_result, cache, text: str) -> Op:
    scenarios = repro.scenarios
    edit = scenarios.parse_edit(text)

    def run() -> Outcome:
        private = _fork(cache)
        # Looked up at call time so a traced run sees the wrapped layer.
        edited, deltas = scenarios.apply_edits(base, (edit,))
        result = scenarios.incremental_resolve(
            base, edited, deltas,
            previous=base_result.architecture, cache=private,
        )
        reqs, channel = _validation_inputs(edited)
        return Outcome(result, reqs, channel, private)

    def cold() -> float:
        edited, _ = scenarios.apply_edits(base, (edit,))
        return scenarios.cold_resolve(edited).objective_value

    return Op(f"{label}/{edit.spec()}", run, cold)


def _build_whatif(stream: int) -> Prepared:
    ops: list[Op] = []
    registry = repro.scenarios.default_registry()
    for label, name in WHATIF_BASES:
        base = registry.generate(name)
        cache = EncodeCache()
        base_result = base.explore(cache=cache)
        if not base_result.feasible:
            raise RuntimeError(f"what-if base {name} did not solve")
        ops.extend(
            _whatif_op(label, base, base_result, cache, text)
            for text in edit_stream(base, stream, label)
        )
    # The last edit is a cheap requirement edit on the smaller base.
    return Prepared(ops, ops[-1])


_BUILDERS: dict[str, Callable[[int], Prepared]] = {
    "ladder": _build_ladder,
    "corpus": _build_corpus,
    "whatif": _build_whatif,
}
WORKLOADS = tuple(_BUILDERS)
