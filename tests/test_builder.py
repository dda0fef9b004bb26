"""Building surface-group representations and recovering coordinates."""

import cmath
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from pantsrep import builder, coordinates as co, moves, surface as su
from pantsrep.coordinates import EdgeParams
from pantsrep.moves import Move
from pantsrep.pants import make_pants_data, pants_rep
from pantsrep.projective import (INF, DegenerateInputError, MoebiusMap, ProjectivePoint,
                                  SingularMapError, _adj, _apply, _at, _chain,
                                  _fixed_points_with_eigs, _max_abs)

from helpers import (SUBPROCESS_ENV, SURFACES, caterpillar, handle_chain, max_residual, outcome,
                     rand_c, reference_surfaces, ribbon_graphs, same_numbers, same_outcome,
                     sample_fuchsian_params, sample_params)

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
    assert np.abs(rep2.image("b1").m + rep.image("b1").m).max() < 1e-12
    assert max_residual(rep2) < 1e-10
    with pytest.raises(ValueError):
        builder.stiefel_whitney(builder.build(su.one_holed_torus(),
                                              sample_params(su.one_holed_torus(), RNG)))


@pytest.mark.parametrize("value", [complex(math.nan, 0), complex(math.inf, 0)], ids=["nan", "inf"])
def test_stiefel_whitney_refuses_a_relator_that_is_not_finite(value):
    # a NaN entry made both distances to +-I NaN, and inf made both inf, so
    # the comparison read False and the class -1 ("not liftable")
    surf = su.genus_two()
    images = dict(builder.build(surf, sample_params(surf, np.random.default_rng(28))).images)
    m = images["a1"]
    images["a1"] = MoebiusMap((value, m.b, m.c, m.d))
    rep = builder.SurfaceRepresentation(surf, images)
    with pytest.raises(ValueError) as info:
        builder.stiefel_whitney(rep)
    assert info.type is ValueError
    assert str(info.value).startswith("relator: product ") and "is not finite" in str(info.value)


@pytest.mark.parametrize("signs, named", [
    ({1: 0}, "signs[1] = 0"), ({2: "x"}, "signs[2] = 'x'"), ({5: -1}, "signs[5] = -1"),
], ids=["zero", "string", "no-letter"])
def test_act_beta_signs_rejects_a_key_or_sign_outside_the_group(signs, named):
    surf = su.genus_two()
    rep = builder.build(surf, sample_params(surf, np.random.default_rng(27)))
    with pytest.raises(ValueError) as info:
        builder.act_beta_signs(rep, signs)
    assert info.type is ValueError and str(info.value).startswith(named + ": "), info.value


def _fail(*args):
    raise DegenerateInputError("vanishing factor f = 0", factor="f")


@pytest.mark.parametrize("names, where", [
    (("_across",), lambda pres: "edge %d" % pres.walk[0][0]),
    (("_three_point_map",), lambda pres: "edge %d (b1)" % pres.u_edges[0]),
], ids=["walk", "letter"])
def test_build_numeric_error_names_the_edge(monkeypatch, names, where):
    # carrying the triple across a tree edge, or closing up a complement
    # edge with its stable letter, names the edge; class and factor stay
    surf = su.genus_two()
    params = sample_params(surf, np.random.default_rng(19))
    named = where(builder.build(surf, params).presentation)
    for name in names:
        monkeypatch.setattr(builder, name, _fail)
    with pytest.raises(DegenerateInputError, match=r"^%s: vanishing factor f = 0$" % re.escape(named)) as info:
        builder.build(surf, params)
    assert info.value.factor == "f"


def test_build_rejects_a_base_of_coinciding_points():
    surf = su.four_holed_sphere()
    params = sample_params(surf, np.random.default_rng(20))
    with pytest.raises(ValueError, match=r"^base triple must be three distinct points$"):
        builder.build(surf, params, base=(0, 1, 0))


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
        got = builder.build(su.PantsSurface(2, 0, shared.graph, tree=tree), params)
        fresh = su.genus_two()
        fresh.tree = set(tree)
        want = builder.build(fresh, params)
        assert got.presentation.tree == want.presentation.tree == tree
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
        assert new_surf._presentation is not surf._presentation
        # graph facts live on the graph, presentations on the surface
        assert new_surf.graph is not surf.graph
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
    bad = builder.SurfaceRepresentation(surf, images)
    with pytest.raises(DegenerateInputError) as info:
        builder.recover_coordinates(bad)
    assert info.value.factor == "tr[m,m']-2"


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_recover_refuses_a_tol_that_switches_the_reducibility_test_off(tol):
    # at tol = nan the reducible images above passed |tr - 2| <= tol and
    # failed later, on another factor
    surf = su.four_holed_sphere()
    images = {name: MoebiusMap((lam, 1.0, 0, 1 / lam))
              for name, lam in zip(("d1", "d2", "d3", "d4"), (2.0, 3j, -1.5, 0.5 + 1j))}
    bad = builder.SurfaceRepresentation(surf, images)
    with pytest.raises(ValueError) as info:
        builder.recover_coordinates(bad, tol=tol)
    assert info.type is ValueError and str(info.value).startswith("tol = %r: " % tol), info.value
    assert bad._spectra == {}


#: a fixed invertible matrix, scaled to determinant 1 where it is used
_CONJUGATOR = (1.3 + 0.4j, 0.7 - 1.1j, -0.5 + 0.8j, 0.9 - 0.2j)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_a_representation_from_conjugated_images_recovers_the_same_point(name):
    # recover reads only the surface and the images, and conjugation moves
    # no eigenvalue or cross ratio
    a, b, c, d = _CONJUGATOR
    r = cmath.sqrt(a * d - b * c)
    conj = MoebiusMap((a / r, b / r, c / r, d / r))
    surf = SURFACES[name]()
    rng = np.random.default_rng(28)
    for _ in range(10):
        rep = builder.build(surf, sample_params(surf, rng))
        moved = builder.SurfaceRepresentation(surf, {n: conj @ m @ conj.inverse()
                                                     for n, m in rep.images.items()})
        want, got = builder.recover_coordinates(rep), builder.recover_coordinates(moved)
        for part in ("eigen", "twist"):
            assert all(abs(getattr(got, part)[k] - v) <= 1e-8 * max(1.0, abs(v))
                       for k, v in getattr(want, part).items()), (part, want, got)


def test_recover_rejects_conjugated_reducible_images():
    # the images above conjugated by (k z, 1, 1, 2/(k z)) stay reducible,
    # but their entries grow as k^2, and the commutator's rounding with them
    surf = su.four_holed_sphere()
    rng = np.random.default_rng(12)
    rep = builder.build(surf, sample_params(surf, rng))
    rejected = 0
    for k in np.geomspace(3, 600, 60):
        z = complex(*rng.normal(size=2))
        try:
            c = MoebiusMap((k * z, 1.0, 1.0, 2 / (k * z)))
            images = {name: c @ MoebiusMap((lam, 1.0, 0, 1 / lam)) @ c.inverse()
                      for name, lam in zip(sorted(rep.images), (2.0, 3j, -1.5, 0.5 + 1j))}
            bad = builder.SurfaceRepresentation(surf, images)
            with pytest.raises(DegenerateInputError) as info:
                builder.recover_coordinates(bad)
        except SingularMapError:
            continue  # an image or a vertex word too large for det = 1 to be held
        assert info.value.factor == "tr[m,m']-2", k
        rejected += 1
    assert rejected >= 50


def _stretched(k, theta):
    """R diag(k, 1/k) R^-1 for the rotation R by theta: det 1, entries about k."""
    c, s = math.cos(theta), math.sin(theta)
    return MoebiusMap((c * c * k + s * s / k, c * s * (k - 1 / k), c * s * (k - 1 / k),
                       s * s * k + c * c / k))


@pytest.mark.parametrize("make, big, stretch, call, where", [
    # a product of two letters stretched by 1e4 fails the singularity rule
    # (|det| < 1e-12 max|entry|^2); a commutator of letters stretched by 100
    # fails it while the vertex words pass
    (su.four_holed_sphere, None, 1e4, builder.verify_relations, "relator"),
    (su.genus_two, ("a3", "a4"), 1e4, builder.verify_relations, "walk"),
    (su.four_holed_sphere, None, 1e4, builder.recover_coordinates, "vertex 0 slot 0"),
    (su.four_holed_sphere, None, 100.0, builder.recover_coordinates, "vertex 0"),
], ids=["relator", "walk", "vertex-word", "commutator"])
def test_a_singular_product_names_its_relation_or_vertex(make, big, stretch, call, where):
    # hand-built images along distinct axes; with big, only those letters
    # are stretched, so the one relator, which has no a_(g+i), passes
    surf = make()
    rep = builder.build(surf, sample_params(surf, np.random.default_rng(3)))
    images = {name: _stretched(stretch if big is None or name in big else 1.5, 0.7 * i + 0.3)
              for i, name in enumerate(sorted(rep.images))}
    bad = builder.SurfaceRepresentation(surf, images)
    for _ in range(2):
        with pytest.raises(SingularMapError) as info:
            call(bad)
        assert str(info.value).startswith(where + ": singular matrix"), info.value
        assert info.value.factor == "det"


@pytest.mark.parametrize("scale", [1e40, 1e80])
def test_recover_names_the_vertex_of_images_scaled_out_of_sl(scale):
    # genus-two images scaled by 1e80: the commutator bound (|m0| |m1|)^2 lies
    # past the float range, where squaring it with ** raised a bare
    # OverflowError that named no vertex; squared with * it is inf, and the
    # first vertex word's solve names its vertex, slot and factor, as at 1e40
    surf = su.genus_two()
    rep = builder.build(surf, sample_params(surf, np.random.default_rng(0)))
    images = {name: MoebiusMap((m.a * scale, m.b * scale, m.c * scale, m.d * scale))
              for name, m in rep.images.items()}
    with pytest.raises(DegenerateInputError) as info:
        builder.recover_coordinates(builder.SurfaceRepresentation(surf, images))
    assert str(info.value) == "vertex 0 slot 0: fixed_points_with_eigs expects an SL-normalized map"
    assert info.value.factor == "det - 1"


def test_build_vertex_matrices_equal_the_public_pants_route(monkeypatch):
    # build hands pants_rep the (num, den) pairs it propagates, through
    # pants._pants_data; make_pants_data on the end-adjusted eigenvalues and
    # the same points as ProjectivePoints gives the same PantsData, and
    # pants_rep on it the same matrices, entry for entry
    made = []
    real = builder.pants_rep

    def spy(data):
        made.append((data, real(data)))
        return made[-1][1]

    monkeypatch.setattr(builder, "pants_rep", spy)
    rng = np.random.default_rng(29)
    checked = 0
    for surf in reference_surfaces()[::3]:
        params = sample_params(surf, rng)
        made.clear()
        try:
            rep = builder.build(surf, params)
        except ValueError:  # a product past SING_TOL on a large ribbon graph
            continue
        pres = surf._presentation
        walk = [pres.root] + [far for _, _, _, _, far, _, _ in pres.walk]
        assert len(made) == len(walk) == len(surf.graph.trivalent_vertices())
        assert made[0][0].fixed == tuple((p.num, p.den) for p in builder.DEFAULT_BASE)
        mats = {}
        for vid, (data, got) in zip(walk, made):
            es = tuple(params.eigen[i] if end == "tail" else 1 / params.eigen[i]
                       for i, end in surf.graph.vertices[vid].incident)
            public = make_pants_data(es, [ProjectivePoint(*x) for x in data.fixed])
            assert same_numbers(public, data)
            assert same_numbers([_entries(m) for m in pants_rep(public)], [_entries(m) for m in got])
            mats[vid] = got
        assert all(rep.images[name] is mats[vid][slot] for name, vid, slot in pres.image_slots)
        checked += 1
    assert checked > 30


@pytest.mark.parametrize("make, seed", [(lambda: handle_chain(4), 5), (lambda: caterpillar(8), 39)],
                         ids=["hc4", "cat8"])
def test_recover_inverts_band_points_with_large_vertex_words(make, seed):
    # the first point of the domain within 0.2 of its boundary: one vertex
    # has |tr[m0,m1] - 2| under 1e-12 (|m0| |m1|)^2 but far above its
    # rounding, and points of the domain have irreducible vertices
    surf = make()
    rng = np.random.default_rng(seed)
    params = sample_params(surf, rng)
    while co.in_domain(params, surf, 0.2):
        params = sample_params(surf, rng)
    rep = builder.build(surf, params)
    first = builder.recover_coordinates(rep)
    choice = {eid: 1 if abs(first.eigen[eid] - e) <= abs(1 / first.eigen[eid] - e) else -1
              for eid, e in params.eigen.items()}
    rec = builder.recover_coordinates(rep, eigen_choice=choice)
    for got, want in ((rec.eigen, params.eigen), (rec.twist, params.twist)):
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-8 * max(1.0, abs(value)), key


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
            for vid in surf.graph.trivalent_vertices():
                ms = [rep.evaluate(pres.vertex_words[(vid, s)]) for s in range(3)]
                pairs = list(zip(ms, ms[1:] + ms[:1]))
                trs = [(p @ q @ p.inverse() @ q.inverse()).trace() for p, q in pairs]
                # rounding grows with the operands: compare to |p|^2 |q|^2
                scale = max(_norm(p) * _norm(q) for p, q in pairs) ** 2
                assert max(abs(tr - trs[0]) for tr in trs) <= 1e-12 * scale


def _outcome(rep, **kw):
    """recover_coordinates' result with NaN made comparable, or what it raised."""
    try:
        rec = builder.recover_coordinates(rep, **kw)
    except (ValueError, ArithmeticError) as ex:
        return type(ex), getattr(ex, "factor", None), str(ex)
    return tuple({k: "nan" if cmath.isnan(v) else v for k, v in part.items()} for part in rec)


def test_recover_gives_the_same_result_whatever_was_recovered_before():
    # the vertex spectra kept on the representation by an earlier call
    # change neither a later call with another branch choice nor a repeat
    rng = np.random.default_rng(11)
    outcomes = set()
    surfaces = [make() for make in SURFACES.values()] + ribbon_graphs()
    for surf in surfaces + [handle_chain(2), handle_chain(4), caterpillar(4), caterpillar(8)]:
        for _ in range(3):
            params = sample_params(surf, rng)
            try:
                rep = builder.build(surf, params)
            except SingularMapError:
                continue
            first = _outcome(rep)
            if isinstance(first[0], dict):
                choice = {eid: 1 if abs(first[0][eid] - e) <= abs(1 / first[0][eid] - e) else -1
                          for eid, e in params.eigen.items()}
            else:
                choice = {eid: 1 for eid in params.eigen}
            assert _outcome(rep, eigen_choice=choice) == _outcome(
                builder.build(surf, params), eigen_choice=choice)
            _outcome(rep, eigen_choice={eid: -1 for eid in params.eigen})
            assert _outcome(rep) == first
            outcomes.add(isinstance(first[0], dict))
    assert outcomes == {True, False}


def _reducible_at_tol_005():
    # the CLI's `recover --tol 0.05` case: tr[m,m'] is within 0.05 of 2
    eigen = (-1.32 - 0.236j, 0.752 + 1.294j, 0.772 - 1.072j, -1.047 - 0.093j, 1.149 - 0.242j)
    params = EdgeParams(dict(enumerate(eigen, start=1)), {1: 0.64})
    return builder.build(su.four_holed_sphere(), params)


def test_recover_keeps_spectra_per_tol():
    wide = (DegenerateInputError, "tr[m,m']-2")
    rep = _reducible_at_tol_005()
    default = _outcome(rep)
    assert isinstance(default[0], dict)
    assert _outcome(rep, tol=0.05)[:2] == wide
    rep = _reducible_at_tol_005()
    assert _outcome(rep, tol=0.05)[:2] == wide
    assert _outcome(rep) == default


def test_failing_recover_raises_on_every_call_and_names_the_vertex():
    surf = handle_chain(8)
    rep = builder.build(surf, sample_params(surf, np.random.default_rng(1)))
    first = _outcome(rep)
    assert first[:2] == (DegenerateInputError, "det - 1")
    assert re.match(r"vertex \d+ slot [012]: ", first[2]), first
    assert _outcome(rep) == first


def _recovered(surf, rng, gate=None):
    """A representation on surf whose first recover succeeds (relation residuals under
    gate, if given), or None after 20 draws."""
    for _ in range(20):
        try:
            rep = builder.build(surf, sample_params(surf, rng))
            if gate is None or max_residual(rep) < gate:
                builder.recover_coordinates(rep)
                return rep
        except (ValueError, ArithmeticError):
            continue
    return None


def test_recover_solves_each_pair_of_inverse_vertex_words_once(monkeypatch):
    # the two ends of an interior tree edge carry mutually inverse words, so
    # one solve serves both; a second recover reads the kept spectra
    calls = []
    solve = builder._fixed_points_with_eigs
    monkeypatch.setattr(builder, "_fixed_points_with_eigs",
                        lambda *args: calls.append(args) or solve(*args))
    rng = np.random.default_rng(15)
    surfaces = [make() for make in SURFACES.values()] + ribbon_graphs()
    for surf in surfaces + [handle_chain(2), caterpillar(4)]:
        rep = _recovered(surf, rng)
        assert rep is not None
        rep = builder.SurfaceRepresentation(surf, rep.images)  # no spectra kept yet
        calls.clear()
        builder.recover_coordinates(rep)
        pres = rep.presentation
        assert len(calls) == 3 * len(surf.graph.trivalent_vertices()) - len(pres.walk)
        calls.clear()
        builder.recover_coordinates(rep, eigen_choice={eid: -1 for eid in surf.graph.edges})
        assert calls == []


def _point_distance(p, q):
    return abs(p[0] * q[1] - q[0] * p[1]) / (max(abs(p[0]), abs(p[1])) * max(abs(q[0]), abs(q[1])))


@pytest.mark.parametrize("surfaces, tol", [
    (lambda: [make() for make in SURFACES.values()], 1e-12),
    (lambda: (ribbon_graphs() + [handle_chain(g) for g in (2, 3, 4)]
              + [caterpillar(b) for b in range(4, 9)]), 1e-8),
], ids=["fixtures", "larger"])
def test_far_end_spectra_match_a_direct_solve(surfaces, tol):
    # the far end's (y, e, x), read off its near end's (x, e, y), against a
    # solve of the far end's own word, at points under the residual gate
    rng = np.random.default_rng(16)
    compared = 0
    for surf in surfaces():
        for _ in range(5):
            rep = _recovered(surf, rng, gate=1e-9)
            if rep is None:
                continue
            slot_fixed, slot_eigen = rep._spectra[1e-9]
            for far in [(w, sw) for _, _, _, _, w, sw, _ in rep.presentation.walk]:
                word = builder._word(rep._letters, rep.presentation.vertex_words[far])
                x, e, y = builder._fixed_points_with_eigs(*word, 1e-9)
                assert abs(slot_eigen[far] - e) <= tol * abs(e), far
                assert max(map(_point_distance, slot_fixed[far], (x, y))) <= tol, far
                compared += 1
    assert compared >= 10


def test_the_end_the_walk_reaches_first_is_solved():
    # at every walk step the near slot's word is multiplied and solved, and
    # the far slot takes the reversed spectrum, whichever end has the lower id
    rng = np.random.default_rng(18)
    higher_near = 0
    for surf in ribbon_graphs():
        for _ in range(5):
            rep = _recovered(surf, rng, gate=1e-9)
            if rep is None or all(v < w for _, _, v, _, w, _, _ in rep.presentation.walk):
                break
            slot_fixed, slot_eigen = rep._spectra[1e-9]
            for _, _, v, sv, w, sw, _ in rep.presentation.walk:
                word = builder._word(rep._letters, rep.presentation.vertex_words[(v, sv)])
                x, e, y = builder._fixed_points_with_eigs(*word, 1e-9)
                assert (slot_fixed[(v, sv)], slot_eigen[(v, sv)]) == ((x, y), e), (v, sv)
                assert (slot_fixed[(w, sw)], slot_eigen[(w, sw)]) == ((y, x), e), (w, sw)
                higher_near += v > w
    assert higher_near >= 100


def test_genus_zero_verify_multiplies_the_relator_once(monkeypatch):
    # at genus 0 the walk relation is the one relator
    words = []
    word = builder._word
    monkeypatch.setattr(builder, "_word", lambda table, w: words.append(w) or word(table, w))
    rng = np.random.default_rng(17)
    surfaces = [su.four_holed_sphere(), caterpillar(4), caterpillar(8)]
    checked = 0
    for surf in surfaces + [s for s in ribbon_graphs() if s.genus == 0]:
        try:
            rep = builder.build(surf, sample_params(surf, rng))
        except (ValueError, ArithmeticError):
            continue
        words.clear()
        res = builder.verify_relations(rep)
        assert res["walk"] == res["relator"]
        assert words == [rep.presentation.one_relator()]
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("choice, named", [
    ({1: 0}, "eigen_choice[1] = 0"),
    ({"1": -1}, "eigen_choice['1'] = -1"),
    ({2: -1, 99: 1}, "eigen_choice[99] = 1"),
    ({3: 0.5}, "eigen_choice[3] = 0.5"),
    ({1: [1]}, "eigen_choice[1] = [1]"),
])
def test_recover_rejects_a_choice_that_is_no_edge_or_sign(choice, named):
    surf = su.four_holed_sphere()
    rep = builder.build(surf, sample_params(surf, np.random.default_rng(18)))
    with pytest.raises(ValueError, match=re.escape(named)):
        builder.recover_coordinates(rep, eigen_choice=choice)


def _round_trip(surf, params):
    """Everything build, verify_relations and both recovers give, as one repr."""
    rep = builder.build(surf, params)
    out = [{name: (m.a, m.b, m.c, m.d) for name, m in rep.images.items()},
           builder.verify_relations(rep)]
    for choice in ({}, {eid: -1 for eid in params.eigen}):
        out.append(_outcome(rep, eigen_choice=choice))
    return repr(out)


def _with(params, kind):
    return EdgeParams({k: kind(v) for k, v in params.eigen.items()},
                      {k: kind(v) for k, v in params.twist.items()})


def _integer_params(surf, rng):
    g = surf.graph
    while True:
        params = EdgeParams(
            {eid: int(rng.choice([-5, -4, -3, -2, 2, 3, 4, 5])) for eid in g.edges},
            {eid: int(rng.choice([-3, -2, -1, 1, 2, 3])) for eid in g.interior_edges()})
        if co.in_domain(params, surf):
            return params


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_number_types_give_exactly_the_complex_result(name):
    # build coerces every parameter once, so no formula runs in int, float
    # or numpy arithmetic and the result is the complex values' to the bit
    surf = SURFACES[name]()
    rng = np.random.default_rng(12)
    for _ in range(30):
        params = sample_params(surf, rng)
        assert _round_trip(surf, _with(params, np.complex128)) == _round_trip(surf, params)
        for given in (sample_fuchsian_params(surf, rng), _integer_params(surf, rng)):
            assert _round_trip(surf, given) == _round_trip(surf, _with(given, complex))


def _construction_census():
    """Print, as JSON, the ProjectivePoints and MoebiusMaps each stage makes.

    Every way of making one (a call, copy, pickle, or a bare cls.__new__
    that skips __init__) goes through the class's __new__, which is
    replaced here by one that records the new object.  A replaced __new__
    cannot be put back, so this runs in a fresh interpreter.
    """
    import copy
    import pickle

    made = []

    def recording(klass, *args, **kwargs):
        made.append(object.__new__(klass))
        return made[-1]

    def taken():
        out = list(made)
        made.clear()
        return out

    for cls in (ProjectivePoint, MoebiusMap):
        cls.__new__ = staticmethod(recording)
    copy.copy(ProjectivePoint(1, 2))
    pickle.loads(pickle.dumps(MoebiusMap((1, 2, 3, 4))))
    ProjectivePoint.__new__(ProjectivePoint)
    doc = {"hook": sorted(type(o).__name__ for o in taken()), "build": [], "later": []}
    rng = np.random.default_rng(13)
    for surf in [make() for make in SURFACES.values()] + ribbon_graphs():
        for _ in range(3):
            params = sample_params(surf, rng)
            try:
                rep = builder.build(surf, params)
            except (ValueError, ArithmeticError):
                taken()
                continue
            new = taken()
            doc["build"].append([sum(type(o) is ProjectivePoint for o in new),
                                 sum(type(o) is MoebiusMap for o in new), sorted(vars(rep))])
            builder.verify_relations(rep)
            for choice in ({}, {eid: -1 for eid in params.eigen}):
                _outcome(rep, eigen_choice=choice)
            doc["later"].append(len(taken()))
    print(json.dumps(doc))


def test_only_the_api_edge_makes_point_and_map_objects():
    # build makes no ProjectivePoint (its vertices' points are the (num, den)
    # pairs it propagates) and only its images as MoebiusMaps: a
    # representation holds its surface, its images and what it derives from
    # them; verify_relations and recover_coordinates make neither kind of object
    r = subprocess.run(
        [sys.executable, "-c", "import test_builder; test_builder._construction_census()"],
        cwd=os.path.dirname(os.path.abspath(__file__)), env=SUBPROCESS_ENV,
        capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    doc = json.loads(r.stdout)
    assert doc["hook"] == ["MoebiusMap", "MoebiusMap", "ProjectivePoint", "ProjectivePoint",
                           "ProjectivePoint"]
    assert len(doc["build"]) > 150
    kept = sorted(["surface", "presentation", "images", "_letters", "_spectra"])
    assert all(points == 0 and maps > 0 and names == kept for points, maps, names in doc["build"])
    assert doc["later"] == [0] * len(doc["build"])


#: fixed box points, one per fixture, for the call census
_CENSUS_POINTS = {
    "four_holed": EdgeParams({1: -1.2 + 0.7j, 2: 1.4 - 0.9j, 3: -0.6 - 1.5j, 4: 1.7 + 0.4j,
                              5: -1.8 - 0.3j}, {1: 0.8 - 1.1j}),
    "one_holed": EdgeParams({1: -1.6 + 0.5j, 2: 0.7 + 1.3j}, {1: 1.2 - 0.6j}),
    "genus_two": EdgeParams({1: -1.3 + 0.8j, 2: 1.5 + 0.6j, 3: -0.7 - 1.4j},
                            {1: 0.9 + 1.2j, 2: -1.1 + 0.4j, 3: 1.6 - 0.7j}),
}


def _call_census():
    """Print, as JSON, the Python-level calls into pantsrep frames that one
    round trip makes per fixture: build, verify_relations, and a default and
    a branch-choice recover_coordinates, as fixtures-roundtrip runs them.

    The surface compiles its presentation on the first build, so each
    fixture is built once before the count.
    """
    package = os.path.dirname(os.path.abspath(builder.__file__)) + os.sep
    doc = {}
    for name, params in _CENSUS_POINTS.items():
        surf = SURFACES[name]()
        builder.build(surf, params)
        calls = [0]

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls[0] += 1

        sys.setprofile(count)
        try:
            rep = builder.build(surf, params)
            builder.verify_relations(rep)
            first = builder.recover_coordinates(rep)
            choice = {eid: 1 if abs(first.eigen[eid] - e) <= abs(1 / first.eigen[eid] - e) else -1
                      for eid, e in params.eigen.items()}
            rec = builder.recover_coordinates(rep, eigen_choice=choice)
        finally:
            sys.setprofile(None)
        assert all(abs(rec.eigen[k] - v) <= 1e-9 for k, v in params.eigen.items())
        doc[name] = calls[0]
    print(json.dumps(doc))


def _reference_residual(m):
    """_residual as first written: two _max_abs calls."""
    a, b, c, d = m
    return float(min(_max_abs(a - 1, b, c, d - 1), _max_abs(a + 1, b, c, d + 1)))


def test_residual_equals_the_max_abs_form():
    rng = np.random.default_rng(2804)
    nan, inf = complex(math.nan, 0), complex(math.inf, 0)
    big = complex(1.5e308, 1.5e308)  # abs() of it overflows
    special = [0j, 1 + 0j, -1 + 0j, nan, inf, -inf, big, -big, complex(1e300, -1e300),
               complex(1e-300, 0), complex(0, math.nan)]
    for _ in range(5000):
        m = tuple(rand_c(rng) if rng.integers(3) else special[rng.integers(len(special))]
                  for _ in range(4))
        assert same_outcome(builder._residual, _reference_residual, m), m


def _reference_verify_relations(rep):
    """verify_relations as first written: the hnn adjugate through _adj."""
    pres, table = rep.presentation, rep._letters
    relator = pres.one_relator()
    out = {}
    key = "relator"
    try:
        out[key] = _reference_residual(builder._word(table, relator))
        key = "walk"
        out[key] = (out["relator"] if pres.relation == relator
                    else _reference_residual(builder._word(table, pres.relation)))
        for i, (lhs, rhs) in enumerate(pres.hnn, start=1):
            key = "hnn%d" % i
            out[key] = _reference_residual(
                _chain((_adj(builder._word(table, rhs)),), builder._word(table, lhs)))
    except SingularMapError as ex:
        raise _at(key, ex)
    return out


def _reference_recover(rep, eigen_choice, tol):
    """recover_coordinates' vertex spectra, branch loop and twist stage as
    first written: _adj, _word and _max_abs per vertex, _end_eigen per end,
    _apply per pushed point; nothing is kept on rep."""
    pres = rep.presentation
    table, words = rep._letters, pres.vertex_words
    mats, slot_fixed, slot_eigen = {}, {}, {}
    for keys, facing, near in pres.visits:
        for key in keys:
            try:
                mats[key] = _adj(mats[near]) if key == facing else builder._word(table, words[key])
            except SingularMapError as ex:
                raise _at("vertex %r slot %d" % key, ex)
        p, q = mats[keys[0]], mats[keys[1]]
        try:
            comm = _chain((q, _adj(p), _adj(q)), p)
        except SingularMapError as ex:
            raise _at("vertex %r" % (keys[0][0],), ex)
        gap, scale = abs(comm[0] + comm[3] - 2), _max_abs(*p) * _max_abs(*q)
        if gap <= max(tol, builder._COMM_TOL * (scale * scale)):
            raise DegenerateInputError(
                "reducible restriction at vertex %r" % (keys[0][0],), factor="tr[m,m']-2")
        for key in keys:
            if key == facing:
                (y, x), e = slot_fixed[near], slot_eigen[near]
            else:
                try:
                    x, e, y = _fixed_points_with_eigs(*mats[key], tol)
                except DegenerateInputError as ex:
                    raise _at("vertex %r slot %d" % key, ex)
            slot_fixed[key] = (x, y)
            slot_eigen[key] = e
    eigen, branch_points = {}, {}
    for eid, ends in pres.ends:
        end, key = ends[0]
        e = slot_eigen[key]
        x, y = slot_fixed[key]
        if eigen_choice.get(eid, 1) == -1:
            e, x, y = 1 / e, y, x
        eigen[eid] = co._end_eigen(e, end)
        branch_points[key] = x
        for end2, key2 in ends[1:]:
            e2 = slot_eigen[key2]
            x2, y2 = slot_fixed[key2]
            want = co._end_eigen(eigen[eid], end2)
            branch_points[key2] = y2 if abs(e2 - want) > abs(1 / e2 - want) else x2
    twist = {}
    for eid, nbrs, (k1, k2, k3, k4, k5), letter in pres.twist_slots:
        x4, x5 = branch_points[k4], branch_points[k5]
        if letter is not None:
            bmap = table[(letter, 1)]
            x4, x5 = _apply(bmap, x4), _apply(bmap, x5)
        xs = (None, branch_points[k1], branch_points[k2], branch_points[k3], x4, x5)
        twist[eid] = co._twist(co._best_variant(xs), co._picture_es(eigen, eid, nbrs), xs)
    return EdgeParams(eigen, twist)


def _perturbed(rep, rng):
    """rep with one entry of one image replaced by an edge value, or one
    image scaled by a power of ten, or None when no map has those entries."""
    nan, inf = complex(math.nan, 0), complex(math.inf, 0)
    special = [nan, complex(0, math.nan), inf, -inf, complex(1.5e308, 1.5e308), 1e300 + 0j,
               1e-300 + 0j, 0j, 1 + 0j, -1 + 0j, complex(1e160, 1e160)]
    images = dict(rep.images)
    name = sorted(images)[rng.integers(len(images))]
    m = images[name]
    entries = [m.a, m.b, m.c, m.d]
    if rng.integers(2):
        entries[rng.integers(4)] = special[rng.integers(len(special))]
    else:
        s = 10.0 ** rng.integers(-300, 300)
        entries = [v * s for v in entries]
    try:
        images[name] = MoebiusMap(tuple(entries))
    except SingularMapError:
        return None
    return builder.SurfaceRepresentation(rep.surface, images)


def test_verify_and_recover_equal_their_forms_as_first_written():
    # the adjugates, one-letter words, _max_abs, _end_eigen and _apply that
    # verify_relations and recover_coordinates now write in place: equal
    # values, or the same error class, message and factor, on built
    # representations and on ones with NaN, infinite, huge, tiny, zero and
    # overflowing entries (abs() of complex(1.5e308, 1.5e308) raises)
    rng = np.random.default_rng(2806)
    surfaces = reference_surfaces()[::4]
    seen = set()
    for surf in surfaces:
        flip = {eid: -1 for eid in surf.graph.edges}
        for _ in range(6):
            try:
                rep = builder.build(surf, sample_params(surf, rng))
            except ValueError:  # a product past SING_TOL on a large ribbon graph
                continue
            for trial in range(4):
                r = rep if trial == 0 else _perturbed(rep, rng)
                if r is None:
                    continue
                assert same_outcome(builder.verify_relations, _reference_verify_relations, r)
                for choice, tol in (({}, 1e-9), (flip, 1e-9), ({}, 0.0)):
                    got = outcome(builder.recover_coordinates, r, choice, tol)
                    want = outcome(_reference_recover, r, choice, tol)
                    assert (same_numbers(got[1], want[1]) if got[0] == want[0] == "value"
                            else got == want), (surf, r.images, choice, tol)
                    seen.add(got[0] if got[0] == "value" else got[0].__name__)
    assert {"value", "DegenerateInputError", "OverflowError"} <= seen, seen


def test_the_round_trip_calls_no_more_helpers_than_measured():
    # the per-point kernels do their arithmetic in place; a change that puts
    # helper calls back on the round trip raises these ceilings, and says so
    r = subprocess.run(
        [sys.executable, "-c", "import test_builder; test_builder._call_census()"],
        cwd=os.path.dirname(os.path.abspath(__file__)), env=SUBPROCESS_ENV,
        capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    doc = json.loads(r.stdout)
    assert doc.keys() == _CENSUS_POINTS.keys()
    ceilings = {"four_holed": 87, "one_holed": 80, "genus_two": 162}
    assert all(doc[name] <= ceilings[name] for name in ceilings), doc
