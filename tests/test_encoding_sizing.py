"""The size estimator must match the actually-built full model exactly."""

import pytest

from repro.constraints import build_energy, build_link_quality, build_mapping
from repro.encoding import FullPathEncoder
from repro.encoding.sizing import estimate_full_encoding_stats
from repro.library import default_catalog
from repro.milp import Model
from repro.network import (
    LifetimeRequirement,
    LinkQualityRequirement,
    RequirementSet,
    small_grid_template,
)


def build_full(instance, requirements, energy_term=False):
    """The full model as the explorer assembles it; ``energy_term`` reads
    the energy expression, as the energy objective does."""
    library = default_catalog()
    model = Model()
    mapping = build_mapping(model, instance.template, library)
    encoding = FullPathEncoder().encode(
        model, instance.template, requirements.routes, mapping.node_used
    )
    lq = build_link_quality(
        model, instance.template, mapping, encoding, requirements.link_quality
    )
    if requirements.lifetime is not None or energy_term:
        energy = build_energy(
            model, instance.template, mapping, encoding, lq,
            requirements.tdma, requirements.power, requirements.lifetime,
        )
        if energy_term:
            energy.total_charge()
    return model


@pytest.mark.parametrize("with_lq", [False, True])
@pytest.mark.parametrize("with_lifetime", [False, True])
@pytest.mark.parametrize("replicas,disjoint", [(1, False), (2, True)])
def test_estimate_matches_built_model(with_lq, with_lifetime, replicas,
                                      disjoint):
    instance = small_grid_template(nx=4, ny=3)
    requirements = RequirementSet()
    for s in instance.sensor_ids:
        requirements.require_route(s, instance.sink_id, replicas=replicas,
                                   disjoint=disjoint)
    if with_lq:
        requirements.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    if with_lifetime:
        requirements.lifetime = LifetimeRequirement(years=5.0)

    model = build_full(instance, requirements)
    stats = model.stats()
    estimate = estimate_full_encoding_stats(
        instance.template, requirements, default_catalog()
    )
    assert estimate.num_vars == stats.num_vars
    assert estimate.num_constraints == stats.num_constraints


@pytest.mark.parametrize("spacing,min_snr_db", [(8.0, 20.0), (25.0, None)])
@pytest.mark.parametrize("with_lifetime", [False, True])
def test_estimate_matches_energy_objective_model(spacing, min_snr_db,
                                                 with_lifetime):
    """Under the energy objective the node charges join the model.  At
    25 m without an SNR floor most links carry ETX surcharges."""
    instance = small_grid_template(nx=3, ny=2, spacing=spacing)
    requirements = RequirementSet()
    for s in instance.sensor_ids:
        requirements.require_route(s, instance.sink_id, replicas=2,
                                   disjoint=True)
    if min_snr_db is not None:
        requirements.link_quality = LinkQualityRequirement(
            min_snr_db=min_snr_db
        )
    if with_lifetime:
        requirements.lifetime = LifetimeRequirement(years=10.0)

    model = build_full(instance, requirements, energy_term=True)
    estimate = estimate_full_encoding_stats(
        instance.template, requirements, default_catalog(),
        include_energy=True,
    )
    assert estimate.num_vars == model.stats().num_vars
    assert estimate.num_constraints == model.stats().num_constraints
    assert any(v.name.startswith("z[") for v in model.variables)


def test_estimate_with_hop_bounds():
    instance = small_grid_template(nx=4, ny=3)
    requirements = RequirementSet()
    requirements.require_route(instance.sensor_ids[0], instance.sink_id,
                               replicas=1, disjoint=False, max_hops=3)
    requirements.require_route(instance.sensor_ids[1], instance.sink_id,
                               replicas=1, disjoint=False, exact_hops=2)
    model = build_full(instance, requirements)
    estimate = estimate_full_encoding_stats(
        instance.template, requirements, default_catalog()
    )
    assert estimate.num_constraints == model.stats().num_constraints
    assert estimate.num_vars == model.stats().num_vars


def test_estimate_scales_superlinearly_with_routes():
    instance = small_grid_template(nx=4, ny=3)
    one = RequirementSet()
    one.require_route(instance.sensor_ids[0], instance.sink_id)
    many = RequirementSet()
    for s in instance.sensor_ids:
        many.require_route(s, instance.sink_id, replicas=2, disjoint=True)
    lib = default_catalog()
    small = estimate_full_encoding_stats(instance.template, one, lib)
    large = estimate_full_encoding_stats(instance.template, many, lib)
    # 6x the replicas more than triples the row count (per-replica blocks
    # plus the quadratic disjointness rows).
    assert large.num_constraints > 3 * small.num_constraints
