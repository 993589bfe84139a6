"""Catalog entries: certification, claims, determinism, export."""

import dataclasses

import numpy as np
import pytest

from ctlab import catalog, curvature
from ctlab.catalog import CatalogError
from ctlab.exprlang import GeometrySpec
from ctlab.geometry import GeometryInstance, PointState
from ctlab.identities import CertificationError


def test_all_entries_certify():
    for name in catalog.names():
        entry = catalog.load(name)
        assert entry.geometry.dim >= 2


def test_unknown_entry():
    with pytest.raises(CatalogError, match="unknown catalog entry"):
        catalog.load("klein_bottle")
    with pytest.raises(CatalogError, match="unknown catalog entry"):
        catalog.parameters("klein_bottle")


def test_every_entry_rejects_an_unknown_parameter():
    for name in catalog.names():
        with pytest.raises(CatalogError, match=f"{name!r} does not take "
                                               "colour"):
            catalog.load(name, certify=False, colour=3)


def test_parameters_are_the_builder_signatures():
    assert catalog.parameters("random") == ("dim", "seed", "degree", "eps")
    assert catalog.parameters("sphere") == ("dim", "radius")
    assert catalog.parameters("s2xs2") == ()
    # a parameter of another entry is no parameter of this one
    with pytest.raises(CatalogError, match="does not take seed; its "
                                           "parameters: dim, radius"):
        catalog.load("sphere", seed=4)
    with pytest.raises(CatalogError, match="does not take dim; its "
                                           "parameters: none"):
        catalog.load("s2xs2", dim=3)


def test_euclidean_claims():
    e = catalog.load("euclidean", dim=3)
    kinds = {c.kind for c in e.claims}
    assert {"einstein", "gradient_soliton", "generic_soliton"} <= kinds


def test_cigar_claim_kinds():
    e = catalog.load("cigar_x_line")
    claims = {c.kind: c.lam for c in e.claims}
    assert claims["gradient_soliton"] == 0.0
    assert e.geometry.dim == 3


def test_gaussian_plus_killing_rotation_is_killing():
    # half Lie along X equals half Lie along grad f because the rotation
    # part is Killing
    e = catalog.load("gaussian_plus_killing", dim=3)
    g = e.geometry
    grad = GeometryInstance(dataclasses.replace(
        g.spec, x_components=[f"0.5*{c}" for c in g.spec.coords]), g.config)
    for p in g.sample_points(2, 1):
        lie_x = curvature.bundle(g, p).coord("lie_metric").value()[0]
        lie_grad = curvature.bundle(grad, p).coord("lie_metric").value()[0]
        assert np.abs(0.5 * lie_x - 0.5 * lie_grad).max() < 1e-11


def test_random_metric_eigenvalue_window():
    for dim in (3, 4, 5):
        e = catalog.load("random", dim=dim, seed=dim)
        for p in e.geometry.sample_points(8, 0):
            w = np.linalg.eigvalsh(
                PointState(e.geometry, p).g.value()[0])
            assert w.min() > 0.5 and w.max() < 1.5


def test_random_entry_carries_generic_fields():
    e = catalog.load("random", dim=4, seed=0)
    assert e.spec.u is not None and e.spec.f is not None
    assert e.spec.x_components is not None and e.spec.lam is None


def test_entry_deterministic_for_seed():
    a = catalog.load("random", dim=3, seed=5, certify=False)
    b = catalog.load("random", dim=3, seed=5, certify=False)
    assert a.spec.to_json() == b.spec.to_json()
    c = catalog.load("random", dim=3, seed=6, certify=False)
    assert c.spec.to_json() != a.spec.to_json()


def test_export_round_trip():
    e = catalog.load("sphere", dim=3)
    text = e.spec.to_json()
    spec = GeometrySpec.from_json(text)
    assert spec.dim == 3
    assert spec.to_json() == text


def test_certification_failure_is_hard_error():
    e = catalog.load("euclidean", dim=3, certify=False)
    # claim a wrong constant: the defining residual cannot vanish
    from ctlab.catalog import CatalogEntry, StructureClaim, certify_entry
    broken = CatalogEntry(name="broken", geometry=e.geometry,
                          claims=(StructureClaim("einstein", 1.0),))
    with pytest.raises(CertificationError, match="certification failed"):
        certify_entry(broken)


def test_certification_error_comes_at_its_grid_point():
    # the grid is certified in blocks; a metric that is not positive
    # definite at the third grid point only raises that point's error
    from ctlab.catalog import (CERTIFICATION_POINTS, CERTIFICATION_SEED,
                               CatalogEntry, certify_entry)
    from ctlab.geometry import GeometryInstance, MetricError
    from ctlab.jets import JetConfig
    g = GeometryInstance(GeometrySpec(
        name="pinched", dim=2, coords=["x1", "x2"],
        domain=[(-2.0, 2.0), (-2.0, 2.0)],
        metric=[["x1*x1 - 0.01"], ["0", "1"]]), JetConfig(2))
    grid = g.sample_points(CERTIFICATION_POINTS, CERTIFICATION_SEED)
    assert [p[0] ** 2 > 0.01 for p in grid[:3]] == [True, True, False]
    with pytest.raises(MetricError) as alone:
        PointState(g, grid[2])
    with pytest.raises(MetricError) as got:
        certify_entry(CatalogEntry(name="pinched", geometry=g, claims=()))
    assert str(got.value) == str(alone.value)


def test_conformal_entries_flatten_back():
    from ctlab import conformal, curvature
    e = catalog.load("conformal_gaussian", dim=3, seed=4)
    pair = conformal.rescale(e.geometry)
    for p in e.geometry.sample_points(2, 2):
        r = curvature.bundle(pair.tilde, p).on("riemann")
        assert np.abs(r).max() < 1e-10  # rescaled metric is flat
