"""Building surface-group representations and recovering coordinates."""

import numpy as np
import pytest

from pantsrep import builder, coordinates as co, surface as su
from pantsrep.coordinates import EdgeParams
from pantsrep.projective import INF, DegenerateInputError

from conftest import SURFACES, max_residual, sample_params

RNG = np.random.default_rng(20240904)


def test_relations_hold_on_all_fixtures():
    for make in SURFACES.values():
        surf = make()
        for _ in range(20):
            params = sample_params(surf, RNG)
            rep = builder.build(surf, params)
            res = builder.verify_relations(rep)
            assert max(res.values()) < 1e-10, res


def test_verify_relations_keys():
    surf = su.genus_two()
    rep = builder.build(surf, sample_params(surf, RNG))
    res = builder.verify_relations(rep)
    assert set(res) == {"relator", "walk", "hnn1", "hnn2"}


def test_curve_images_have_prescribed_traces():
    # the image of each boundary/cut curve has trace e + 1/e up to sign
    for make in SURFACES.values():
        surf = make()
        params = sample_params(surf, RNG)
        rep = builder.build(surf, params)
        pres = rep.presentation
        for i, eid in enumerate(pres.u_edges, start=1):
            e = params.eigen[eid]
            tr = rep.image("a%d" % i).trace()
            assert min(abs(tr - (e + 1 / e)), abs(tr + e + 1 / e)) < 1e-9
        for i, name in enumerate(pres.delta, start=1):
            eid = surf.graph.boundary_edges()[i - 1]
            e = params.eigen[eid]
            tr = rep.image(name).trace()
            assert min(abs(tr - (e + 1 / e)), abs(tr + e + 1 / e)) < 1e-9


def test_build_rejects_out_of_domain():
    surf = su.one_holed_torus()
    params = sample_params(surf, RNG)
    bad = EdgeParams({1: params.eigen[1], 2: 1.0}, dict(params.twist))
    with pytest.raises(DegenerateInputError):
        builder.build(surf, bad)


def test_evaluate_words():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    rep = builder.build(surf, params)
    m = rep.evaluate([("d1", 1), ("d1", -1)]).m
    assert np.abs(m - np.eye(2)).max() < 1e-12
    m12 = rep.evaluate([("d1", 1), ("d2", 1)]).m
    assert np.abs(m12 - rep.image("d1").m @ rep.image("d2").m).max() < 1e-12


def test_recover_roundtrip():
    for make in SURFACES.values():
        surf = make()
        for _ in range(10):
            params = sample_params(surf, RNG)
            rep = builder.build(surf, params)
            rec = builder.recover_coordinates(rep)
            for eid, e in params.eigen.items():
                got = rec.eigen[eid]
                # the recovery picks a branch; match it before comparing
                if abs(got - e) > abs(1 / got - e):
                    got = 1 / got
                assert abs(got - e) < 1e-8 * max(1.0, abs(e))
            # twists on the matching branch: rebuild from the recovered
            # parameters and compare squared traces of the curve images
            rep2 = builder.build(surf, rec)
            for name in rep.images:
                t1 = complex(rep.image(name).trace()) ** 2
                t2 = complex(rep2.image(name).trace()) ** 2
                assert abs(t1 - t2) < 1e-6 * max(1.0, abs(t1))


def test_recover_with_eigen_choice():
    surf = su.one_holed_torus()
    params = sample_params(surf, RNG)
    rep = builder.build(surf, params)
    rec1 = builder.recover_coordinates(rep)
    flip = {eid: -1 for eid in surf.graph.edges}
    rec2 = builder.recover_coordinates(rep, eigen_choice=flip)
    for eid in rec1.eigen:
        assert abs(rec2.eigen[eid] - 1 / rec1.eigen[eid]) < 1e-8


def test_base_triple_controls_normalization():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    rep = builder.build(surf, params, base=(INF, 1, 0))
    # the first slot at the base vertex is edge 1 read at its tail: the
    # curve image (d1 d2)^-1 fixes infinity, so it is upper triangular
    m = rep.evaluate([("d2", -1), ("d1", -1)]).m
    assert abs(m[1, 0]) < 1e-10 * np.abs(m).max()


def test_stiefel_whitney():
    surf = su.genus_two()
    params = sample_params(surf, RNG)
    rep = builder.build(surf, params)
    w = builder.stiefel_whitney(rep)
    assert w in (1, -1)
    # each stable letter occurs twice in the relator, so sign flips on the
    # b's preserve the class (and all relations)
    rep2 = builder.act_beta_signs(rep, {1: -1})
    assert builder.stiefel_whitney(rep2) == w
    assert rep2.beta_signs[1] == -rep.beta_signs.get(1, 1)
    assert np.abs(rep2.image("b1").m + rep.image("b1").m).max() < 1e-12
    assert max_residual(rep2) < 1e-10
    with pytest.raises(ValueError):
        builder.stiefel_whitney(builder.build(su.one_holed_torus(),
                                              sample_params(su.one_holed_torus(), RNG)))
