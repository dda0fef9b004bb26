"""Building surface-group representations and recovering coordinates."""

import math

import numpy as np
import pytest

from pantsrep import builder, coordinates as co, moves, surface as su
from pantsrep.coordinates import EdgeParams
from pantsrep.moves import Move
from pantsrep.projective import INF, DegenerateInputError, MoebiusMap, SingularMapError

from helpers import SURFACES, caterpillar, handle_chain, max_residual, sample_params

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


def _entries(m):
    return (m.a, m.b, m.c, m.d)


def _moebius_chain(rep, word):
    """rep.evaluate as it was first written: MoebiusMap @ and inverse."""
    out = MoebiusMap.identity()
    for name, exp in word:
        m = rep.images[name]
        out = out @ (m if exp == 1 else m.inverse())
    return out


def test_evaluate_equals_the_moebius_chain_entry_for_entry():
    rng = np.random.default_rng(123)
    for make in SURFACES.values():
        surf = make()
        rep = builder.build(surf, sample_params(surf, rng))
        gens = rep.presentation.generators()
        assert _entries(rep.evaluate([])) == _entries(MoebiusMap.identity())
        for _ in range(40):
            word = [(gens[rng.integers(len(gens))], int(rng.choice([-1, 1])))
                    for _ in range(rng.integers(1, 12))]
            assert _entries(rep.evaluate(word)) == _entries(_moebius_chain(rep, word))


def test_singular_intermediate_product_raises():
    # d1 has eigenvalue 10: d1^8 has entries near 1e8, so |det| = 1 is
    # below 1e-12 * |m|^2 and the rule rejects it, though d1^8 d1^-8 = I
    surf = su.four_holed_sphere()
    params = EdgeParams({1: 1.5 + 0.5j, 2: 10.0 + 0j, 3: 1.7 - 0.3j, 4: -2.0 + 0j, 5: 1.2 + 1j},
                        {1: 0.8 + 0.1j})
    rep = builder.build(surf, params)
    word = [("d1", 1)] * 8 + [("d1", -1)] * 8
    with pytest.raises(SingularMapError):
        _moebius_chain(rep, word)
    with pytest.raises(SingularMapError):
        rep.evaluate(word)


def _outputs(rep):
    rec = builder.recover_coordinates(rep)
    return ({n: _entries(m) for n, m in rep.images.items()},
            builder.verify_relations(rep), rec)


def test_one_surface_two_trees_equals_two_fresh_surfaces():
    rng = np.random.default_rng(5)
    params = sample_params(su.genus_two(), rng)
    shared = su.genus_two()
    for tree in ({1}, {2}, {3}, {1}):
        got = builder.build(shared, params, tree=tree)
        fresh = su.genus_two()
        fresh.tree = set(tree)
        want = builder.build(fresh, params)
        assert got.tree == want.tree == tree
        assert _outputs(got) == _outputs(want)


def test_move_results_never_reuse_the_source_plan():
    rng = np.random.default_rng(8)
    cases = [("four_holed", Move("reverse", 1)), ("four_holed", Move("vertex", 0)),
             ("four_holed", Move("elem", 1)), ("one_holed", Move("reverse", 1)),
             ("one_holed", Move("vertex", 0)), ("genus_two", Move("reverse", 2)),
             ("genus_two", Move("vertex", 1)),
             ("genus_two", Move("auto", 0, data={"vertices": {0: 1, 1: 0}}))]
    for label, move in cases:
        surf = SURFACES[label]()
        params = sample_params(surf, rng)
        builder.build(surf, params)
        new_surf, new_params = moves.apply_move(surf, params, move)
        assert new_surf is not surf
        assert su._plan(new_surf) is not su._plan(surf)
        assert su._tables(new_surf) is not su._tables(surf)
        fresh = su.from_json(su.to_json(new_surf))
        assert (_outputs(builder.build(new_surf, new_params))
                == _outputs(builder.build(fresh, new_params)))


def test_deep_surfaces_have_no_nan_residuals():
    # propagated points are scaled to max(|num|, |den|) = 1; unscaled, the
    # homogeneous pairs overflow along a deep tree and residuals turn NaN
    rng = np.random.default_rng(1)
    for surf in (handle_chain(4), handle_chain(8), caterpillar(16)):
        for _ in range(20):
            params = sample_params(surf, rng)
            try:
                res = builder.verify_relations(builder.build(surf, params))
            except (SingularMapError, DegenerateInputError):
                continue  # the global matrices may still be too large to hold
            assert not any(math.isnan(v) for v in res.values()), res


def test_recover_rejects_images_with_a_common_fixed_point():
    surf = su.four_holed_sphere()
    rep = builder.build(surf, sample_params(surf, RNG))
    # upper-triangular images all fix infinity, so every vertex restriction
    # is reducible
    images = {name: MoebiusMap((lam, 1.0, 0, 1 / lam))
              for name, lam in zip(sorted(rep.images), (2.0, 3j, -1.5, 0.5 + 1j))}
    bad = builder.SurfaceRepresentation(surf, rep.presentation, rep.params, images,
                                        rep.points, rep.base)
    with pytest.raises(DegenerateInputError) as info:
        builder.recover_coordinates(bad)
    assert info.value.factor == "tr[m,m']-2"


def _norm(m):
    return max(abs(z) for z in _entries(m))


def test_vertex_commutator_traces_agree():
    # m0 m1 m2 = +-I gives tr[m0,m1] = tr[m1,m2] = tr[m2,m0], so
    # recover_coordinates tests reducibility on the first pair alone
    rng = np.random.default_rng(6)
    for make in SURFACES.values():
        surf = make()
        for _ in range(20):
            rep = builder.build(surf, sample_params(surf, rng))
            pres = rep.presentation
            for vid, _ in pres.incidences:
                ms = [rep.evaluate(pres.vertex_words[(vid, s)]) for s in range(3)]
                pairs = list(zip(ms, ms[1:] + ms[:1]))
                trs = [(p @ q @ p.inverse() @ q.inverse()).trace() for p, q in pairs]
                # rounding grows with the operands: compare to |p|^2 |q|^2
                scale = max(_norm(p) * _norm(q) for p, q in pairs) ** 2
                assert max(abs(tr - trs[0]) for tr in trs) <= 1e-12 * scale
