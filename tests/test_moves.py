"""Moves on the marking: reversals, twists, vertex moves, elementary moves."""

import cmath
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from pantsrep import builder, coordinates as co, fuchsian as fu, moves, projective, surface as su, symmetry
from pantsrep.coordinates import EdgeParams
from pantsrep.moves import Move, apply_move
from pantsrep.projective import DegenerateInputError, _at, sqrt_principal

from helpers import (SURFACES, SUBPROCESS_ENV, caterpillar, handle_chain, marking_words,
                     max_residual, outcome, rand_c, reference_surfaces, ribbon_graphs, same_numbers,
                     same_outcome, sample_fuchsian_params, sample_params, squared_trace_table)

RNG = np.random.default_rng(20240906)


def tr2(rep, word):
    return complex(rep.evaluate(word).trace()) ** 2


def test_reverse_is_an_involution():
    for make in SURFACES.values():
        surf = make()
        params = sample_params(surf, RNG)
        for edge in surf.graph.edges:
            s1, p1 = apply_move(surf, params, Move("reverse", edge))
            s2, p2 = apply_move(s1, p1, Move("reverse", edge))
            assert s2.graph.edges[edge] == surf.graph.edges[edge]
            for eid in params.eigen:
                assert abs(p2.eigen[eid] - params.eigen[eid]) < 1e-9
            for eid in params.twist:
                assert abs(p2.twist[eid] - params.twist[eid]) < 1e-8 * max(
                    1.0, abs(params.twist[eid])
                )


def test_reverse_boundary_edge_inverts_eigen():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    s1, p1 = apply_move(surf, params, Move("reverse", 3))
    assert abs(p1.eigen[3] - 1 / params.eigen[3]) < 1e-12
    assert p1.twist == params.twist
    e_old, e_new = surf.graph.edges[3], s1.graph.edges[3]
    assert (e_new.tail, e_new.head) == (e_old.head, e_old.tail)


def test_reverse_preserves_generator_traces():
    # reversing an edge inverts its eigenvalue label but fixes the free
    # homotopy class of every generator loop (mixed products can differ by
    # the marking substitution, so only single generators are compared)
    for make in SURFACES.values():
        surf = make()
        params = sample_params(surf, RNG)
        rep = builder.build(surf, params)
        for edge in surf.graph.interior_edges():
            s1, p1 = apply_move(surf, params, Move("reverse", edge))
            rep1 = builder.build(s1, p1)
            for g in rep.presentation.generators():
                x = tr2(rep, [(g, 1)])
                y = tr2(rep1, [(g, 1)])
                assert abs(x - y) < 1e-7 * max(1.0, abs(x))


def test_dehn_twist_formulas():
    e, t = 2.0 - 1.0j, 0.5 + 0.25j
    _, tr = moves.dehn_twist_formula(e, t, "right")
    assert abs(tr - e * e * t) < 1e-14
    _, tl = moves.dehn_twist_formula(e, t, "left")
    assert abs(tl - t / (e * e)) < 1e-14
    with pytest.raises(ValueError) as info:
        moves.dehn_twist_formula(e, t, "up")
    assert (info.type, str(info.value)) == (ValueError, "direction must be 'right' or 'left'")


def test_dehn_twist_left_right_cancel():
    surf = su.one_holed_torus()
    params = sample_params(surf, RNG)
    s1, p1 = apply_move(surf, params, Move("twist-r", 1))
    assert s1 is surf
    assert abs(p1.twist[1] - params.eigen[1] ** 2 * params.twist[1]) < 1e-12
    s2, p2 = apply_move(s1, p1, Move("twist-l", 1))
    assert abs(p2.twist[1] - params.twist[1]) < 1e-10 * max(1.0, abs(params.twist[1]))


def test_dehn_twist_rejects_boundary():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    with pytest.raises(ValueError):
        apply_move(surf, params, Move("twist-r", 2))


def test_dehn_twist_preserves_curve_traces():
    # the twist is a mapping class, so the twisted curve itself and all
    # pants curves keep their squared traces
    surf = su.genus_two()
    params = sample_params(surf, RNG)
    rep = builder.build(surf, params)
    for edge in (1, 2, 3):
        _, p1 = apply_move(surf, params, Move("twist-r", edge))
        rep1 = builder.build(surf, p1)
        for i in (1, 2):
            a, b = tr2(rep, [("a%d" % i, 1)]), tr2(rep1, [("a%d" % i, 1)])
            assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_half_twist_squares_to_dehn_twist():
    for _ in range(20):
        e1, e2, e3 = (complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2)) for _ in range(3))
        t1 = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
        once = moves.half_twist_formula(e1, e2, e3, t1)
        # the half twist reverses the order of the two following legs
        twice = moves.half_twist_formula(e1, e3, e2, once)
        assert abs(twice - e1 * e1 * t1) < 1e-9 * max(1.0, abs(e1 * e1 * t1))


def test_vertex_move_square_is_dehn_twists():
    for make in SURFACES.values():
        surf = make()
        params = sample_params(surf, RNG)
        for vid in surf.graph.trivalent_vertices():
            s1, p1 = apply_move(surf, params, Move("vertex", vid))
            s2, p2 = apply_move(s1, p1, Move("vertex", vid))
            assert s2.graph.vertices[vid].incident == surf.graph.vertices[vid].incident
            g = surf.graph
            for eid in g.interior_edges():
                # one full twist per incidence of the edge at the vertex
                factor = 1.0
                for s in range(3):
                    eid2, end = g.slot(vid, s)
                    if eid2 != eid:
                        continue
                    e = params.eigen[eid] if end == "tail" else 1 / params.eigen[eid]
                    factor *= e * e
                want = factor * params.twist[eid]
                assert abs(p2.twist[eid] - want) < 1e-8 * max(1.0, abs(want))


def test_vertex_move_acts_by_the_expected_substitution():
    # on the four-holed sphere the move at a vertex conjugates one boundary
    # generator by its neighbor and fixes the rest
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    rep0 = builder.build(surf, params)
    sub_by_vertex = {
        0: {"d2": [("d1", 1), ("d2", 1), ("d1", -1)]},
        1: {"d3": [("d4", -1), ("d3", 1), ("d4", 1)]},
    }
    for vid, sub in sub_by_vertex.items():
        s1, p1 = apply_move(surf, params, Move("vertex", vid))
        rep1 = builder.build(s1, p1)
        for i in (1, 2, 3, 4):
            name = "d%d" % i
            word0 = sub.get(name, [(name, 1)])
            # single generators (trace test) and pairwise products
            for other in ("d1", "d2", "d3", "d4"):
                w0 = word0 + sub.get(other, [(other, 1)])
                w1 = [(name, 1), (other, 1)]
                x, y = tr2(rep0, w0), tr2(rep1, w1)
                assert abs(x - y) < 1e-7 * max(1.0, abs(x))


def test_vertex_move_rejects_univalent_vertex():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    uni = surf.graph.univalent_vertices()[0]
    with pytest.raises(ValueError):
        apply_move(surf, params, Move("vertex", uni))


def test_auto_move_relabels():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    move = Move("auto", None, data={"edges": {2: 3, 3: 2}, "vertices": {}})
    s1, p1 = apply_move(surf, params, move)
    assert p1.eigen[2] == params.eigen[3]
    assert p1.eigen[3] == params.eigen[2]
    assert su.validate(s1) == []


def test_auto_move_needs_its_maps():
    surf = su.genus_two()
    with pytest.raises(ValueError) as info:
        apply_move(surf, sample_params(surf, RNG), Move("auto", None))
    assert (info.type, str(info.value)) == (ValueError, 'an auto move needs data: a "vertices" or an "edges" map')


@pytest.mark.parametrize("data, named", [
    ({"vertices": {0: 1}}, "the vertices map is not injective: the surface's ids [0, 1] collide"),
    ({"edges": {1: 2}}, "the edges map is not injective: the surface's ids [1, 2] collide"),
    ({"vertices": {0: 1, 1: 0}, "edges": {1: 3, 2: 3}},
     "the edges map is not injective: the surface's ids [1, 2, 3] collide"),
], ids=["vertex", "edge", "three-edges"])
def test_auto_move_refuses_a_map_that_sends_two_ids_to_one(data, named):
    # such a map made a surface that validate refuses: a vertex of genus_two
    # lost, or edge 1 dropped with its eigenvalue and twist
    surf = su.genus_two()
    with pytest.raises(ValueError) as info:
        apply_move(surf, sample_params(surf, RNG), Move("auto", None, data=data))
    assert (info.type, str(info.value)) == (ValueError, named)


def test_auto_move_ignores_a_key_that_is_no_id_of_the_surface():
    # only the surface's ids are relabelled, so key 7 cannot collide with 1 -> 0
    surf = su.genus_two()
    s1, _ = apply_move(surf, sample_params(surf, RNG), Move("auto", None, data={"vertices": {0: 1, 1: 0, 7: 0}}))
    assert su.validate(s1) == []


@pytest.mark.parametrize("unit, size", [(1, 1e300), (-1, 1e300), (1, 2e154), (-1j, 2e154),
                                        (1 + 1j, 1.5e308), (-1.2 + 0.5j, 1.2e154), (1 - 1j, 1e200)])
def test_new_eigenvalue_solves_a_trace_whose_square_is_past_the_float_range(unit, size):
    # the roots are tr and 1/tr to double precision, and the default root
    # is still (tr - sqrt(tr^2 - 4)) / 2: the same one of the two as at a
    # trace of the same argument whose square is finite
    tr = unit * size
    plus, minus = projective._trace_roots(tr)
    assert complex(tr) in (plus, minus)
    assert abs(plus * minus - 1) < 1e-15
    e = moves.new_eigenvalue(tr)
    assert e == minus
    assert (e == tr) == (abs(moves.new_eigenvalue(unit * 1e150)) > 1)


def test_new_eigenvalue_branches():
    tr = 2.5
    e = moves.new_eigenvalue(tr)
    assert abs(e + 1 / e - tr) < 1e-12
    assert abs(e) <= 1 + 1e-12  # default branch is the small root
    with pytest.raises(DegenerateInputError):
        moves.new_eigenvalue(2.0)
    # explicit branch choice
    e2 = moves.new_eigenvalue(tr, branch=e)
    assert abs(e2 - e) < 1e-12
    with pytest.raises(ValueError) as info:
        moves.new_eigenvalue(3.0, branch=0.5)
    assert (info.type, str(info.value)) == (ValueError, "branch is not a root of x^2 - tr x + 1")


@pytest.mark.parametrize("branch", [float("nan"), complex("nan"), float("inf"), -float("inf"),
                                    complex("inf"), complex(0, -float("inf"))],
                         ids=["nan", "complex-nan", "inf", "minus-inf", "complex-inf", "imag-inf"])
def test_new_eigenvalue_refuses_a_non_finite_branch(branch):
    # the residual of a NaN or infinite branch is NaN or infinite: no root
    with pytest.raises(ValueError) as info:
        moves.new_eigenvalue(3, branch)
    assert (info.type, str(info.value)) == (ValueError, "branch is not a root of x^2 - tr x + 1")


@pytest.mark.parametrize("tr, branch", [
    (3, 1e200), (3, -1e160), (3, complex(1e200, 0)), (3, complex(0, 1e155)),
    (3, complex(1.37e154, 0.55e154)), (3, complex(1.5e308, 1.5e308)), (complex(math.nan, 0), 2.0),
], ids=["float", "minus-float", "complex", "imag", "square-modulus", "modulus", "nan-trace"])
def test_new_eigenvalue_names_a_branch_whose_square_or_residual_is_not_finite(tr, branch):
    # a finite branch whose square or residual lies past the float range, or
    # is NaN, is refused and named, where abs(e) ** 2 raised a bare
    # OverflowError.  abs() of the "modulus" branch itself overflows, and the
    # square of "square-modulus" has finite parts but a modulus past the
    # float range
    with pytest.raises(ValueError) as info:
        moves.new_eigenvalue(tr, branch)
    assert (info.type, str(info.value)) == (
        ValueError, "branch %r: its square or residual e^2 - tr e + 1 is not finite" % (branch,))
    # a large root whose square is still finite is a root
    assert moves.new_eigenvalue(1e150, 1e150) == 1e150


def test_new_eigenvalue_has_no_cancellation():
    # the small root is the inverse of the large one, which is formed
    # without cancellation
    for tr in (1e3 + 2j, -4e6 + 1j):
        e = moves.new_eigenvalue(tr)
        assert abs(e + 1 / e - tr) <= 1e-15 * abs(tr)
        # still the branch (tr - sqrt(tr^2 - 4)) / 2
        naive = (tr - sqrt_principal(tr * tr - 4)) / 2
        assert abs(e - naive) < abs(1 / e - naive)


def test_elementary_four_holed_trace_bookkeeping():
    surf = su.four_holed_sphere()
    for _ in range(10):
        params = sample_params(surf, RNG)
        lp = co.local_picture(surf, params, 1)
        tr34, tr24, tr35 = co.four_holed_traces(lp.es, lp.t1)
        s1, p1 = apply_move(surf, params, Move("elem", 1))
        lp1 = co.local_picture(s1, p1, 1)
        n34, n24, n35 = co.four_holed_traces(lp1.es, lp1.t1)
        e1 = lp.es[0]
        # the new interior curve is the old cross curve and vice versa
        assert abs(n34 - (e1 + 1 / e1)) < 1e-8
        assert abs(n24 - tr35) < 1e-7 * max(1.0, abs(tr35))
        assert abs(n35 - tr24) < 1e-7 * max(1.0, abs(tr24))
        # boundary data is preserved
        for eid in (2, 3, 4, 5):
            tr_old = params.eigen[eid] + 1 / params.eigen[eid]
            tr_new = p1.eigen[eid] + 1 / p1.eigen[eid]
            assert abs(tr_old - tr_new) < 1e-8 * max(1.0, abs(tr_old))


def test_elementary_four_holed_graph_rewrite():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    s1, p1 = apply_move(surf, params, Move("elem", 1))
    assert su.validate(s1) == []
    g0, g1 = surf.graph, s1.graph
    # edge 1 stays interior and the boundary edges are redistributed: the
    # two vertices swap one neighbor pair
    assert g1.interior_edges() == [1]
    inc0 = {vid: {eid for eid, _ in g0.vertices[vid].incident} for vid in (0, 1)}
    inc1 = {vid: {eid for eid, _ in g1.vertices[vid].incident} for vid in (0, 1)}
    assert inc0 != inc1
    assert inc0[0] | inc0[1] == inc1[0] | inc1[1]


def test_elementary_four_holed_spectrum():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    rep0 = builder.build(surf, params)
    s1, p1 = apply_move(surf, params, Move("elem", 1))
    rep1 = builder.build(s1, p1)
    words = marking_words(rep0.presentation)
    sp0 = sorted(squared_trace_table(rep0, words), key=lambda z: (z.real, z.imag))
    sp1 = sorted(squared_trace_table(rep1, words), key=lambda z: (z.real, z.imag))
    # the multisets need not match word for word, but every boundary trace
    # must appear unchanged; check the four boundary generators directly
    for i in (1, 2, 3, 4):
        x = tr2(rep0, [("d%d" % i, 1)])
        y = tr2(rep1, [("d%d" % i, 1)])
        assert abs(x - y) < 1e-7 * max(1.0, abs(x))


def test_elementary_one_holed_swaps_handle_curves():
    surf = su.one_holed_torus()
    for _ in range(10):
        params = sample_params(surf, RNG)
        rep0 = builder.build(surf, params)
        s1, p1 = apply_move(surf, params, Move("elem", 1))
        rep1 = builder.build(s1, p1)
        # the move exchanges the roles of the two handle curves and fixes
        # the boundary
        pairs = [([("a1", 1)], [("b1", 1)]),
                 ([("b1", 1)], [("a1", 1)]),
                 ([("d1", 1)], [("d1", 1)])]
        for w0, w1 in pairs:
            x, y = tr2(rep0, w0), tr2(rep1, w1)
            assert abs(x - y) < 1e-6 * max(1.0, abs(x))
        x = tr2(rep0, [("a1", 1), ("b1", 1)])
        y = tr2(rep1, [("a1", 1), ("b1", -1)])
        assert abs(x - y) < 1e-6 * max(1.0, abs(x))


def test_elementary_move_rejects_bad_targets():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    with pytest.raises(ValueError):
        apply_move(surf, params, Move("elem", 2))  # boundary edge
    g2 = su.genus_two()
    p2 = sample_params(g2, RNG)
    with pytest.raises(ValueError):
        apply_move(g2, p2, Move("elem", 3))  # neighbors are not 4 distinct edges


def test_unknown_move_kind():
    surf = su.one_holed_torus()
    params = sample_params(surf, RNG)
    with pytest.raises(ValueError):
        apply_move(surf, params, Move("slide", 1))


def _reference_graph(graph, move):
    """A move's new graph as it was written before: every record rebuilt."""
    target = move.target
    vertices, edges = list(graph.vertices.values()), list(graph.edges.values())
    if move.kind == "reverse":
        e = graph.edges[target]
        flip = {"tail": "head", "head": "tail"}
        edges = [su.Edge(target, e.head, e.tail) if r.id == target else r for r in edges]
        vertices = [su.Vertex(v.id, v.kind, tuple((eid, flip[end] if eid == target else end)
                                                  for eid, end in v.incident))
                    for v in vertices]
    elif move.kind == "vertex":
        inc = graph.vertices[target].incident
        vertices = [su.Vertex(target, "tri", (inc[0], inc[2], inc[1])) if v.id == target else v
                    for v in vertices]
    elif move.kind == "auto":
        vperm, eperm = move.data["vertices"], move.data["edges"]
        vertices = [su.Vertex(vperm.get(v.id, v.id), v.kind,
                              tuple((eperm.get(eid, eid), end) for eid, end in v.incident))
                    for v in vertices]
        edges = [su.Edge(eperm.get(e.id, e.id), vperm.get(e.tail, e.tail), vperm.get(e.head, e.head))
                 for e in edges]
    elif graph.edges[target].tail != graph.edges[target].head:  # elem, four-holed
        (v, sv), (w, sw), (g2, g3, g4, g5) = su._picture_slots(graph, target)
        new = {v: su.Vertex(v, "tri", ((target, "tail"), g5, g2)),
               w: su.Vertex(w, "tri", ((target, "head"), g3, g4))}
        vertices = [new.get(r.id, r) for r in vertices]
        rebuilt = []
        for rec in edges:
            tail, head = rec.tail, rec.head
            if rec.id != target:
                for slot, old_v, new_v in ((g3, v, w), (g5, w, v)):
                    if rec.id == slot[0]:
                        if slot[1] == "tail" and tail == old_v:
                            tail = new_v
                        elif slot[1] == "head" and head == old_v:
                            head = new_v
            rebuilt.append(su.Edge(rec.id, tail, head))
        edges = rebuilt
    return su.FatGraph(vertices, edges)


def test_moves_rewrite_only_the_records_they_change():
    rng = np.random.default_rng(99)
    applied = {"reverse": 0, "vertex": 0, "auto": 0, "elem": 0}
    for surf in reference_surfaces():
        g = surf.graph
        params = EdgeParams({eid: rand_c(rng) for eid in g.edges},
                            {eid: rand_c(rng) for eid in g.interior_edges()})
        vids, eids = list(g.vertices), list(g.edges)
        autos = [Move("auto", None, data={"vertices": dict(zip(vids, rng.permutation(vids).tolist())),
                                          "edges": dict(zip(eids, rng.permutation(eids).tolist()))})
                 for _ in range(2)]
        tree = surf.tree
        for move in ([Move("reverse", eid) for eid in eids] + [Move("elem", eid) for eid in eids]
                     + [Move("vertex", vid) for vid in g.trivalent_vertices()] + autos):
            try:
                new, _ = apply_move(surf, params, move)
            except (ValueError, ArithmeticError):
                continue  # elem on a boundary edge, a self-glued or degenerate picture
            ref = _reference_graph(g, move)
            assert list(new.graph.vertices.items()) == list(ref.vertices.items())
            assert list(new.graph.edges.items()) == list(ref.edges.items())
            assert new.graph.slot_of == ref.slot_of
            if move.kind == "auto" and tree is not None:
                assert new.tree == {move.data["edges"].get(eid, eid) for eid in tree}
            else:  # a moved surface shares its parent's frozen tree
                assert new.tree is tree and (tree is None or type(tree) is frozenset)
            applied[move.kind] += 1
    assert min(applied.values()) > 100, applied


def _fresh_facts(graph):
    """The slot table as it was first written, eagerly, over every vertex's
    incidences, and _interior and _triples (in order) of a graph built anew
    from graph's records."""
    slot_of = {}
    for v in graph.vertices.values():
        for i, key in enumerate(v.incident):
            slot_of[key] = (v.id, i)
    fresh = su.FatGraph(list(graph.vertices.values()), list(graph.edges.values()))
    return slot_of, fresh._interior, list(fresh._triples.items())


def _every_move(surf, rng):
    """Every move kind on every edge and trivalent vertex, and a relabelling."""
    g = surf.graph
    vids, eids = list(g.vertices), list(g.edges)
    return ([Move(kind, eid) for eid in eids for kind in ("reverse", "twist-r", "twist-l", "elem")]
            + [Move("vertex", vid) for vid in g.trivalent_vertices()]
            + [Move("auto", None, data={"vertices": dict(zip(vids, rng.permutation(vids).tolist())),
                                        "edges": dict(zip(eids, rng.permutation(eids).tolist()))})])


def _kind(graph, move):
    """The move's kind, with the picture it acts on where there are two."""
    if move.kind == "reverse":
        return "reverse-boundary" if graph.is_boundary(move.target) else "reverse-interior"
    if move.kind == "elem":
        e = graph.edges[move.target]
        return "elem-one-holed" if e.tail == e.head else "elem-four-holed"
    return move.kind


def test_moves_compile_no_graph_fact_and_moved_graphs_compile_their_own():
    # a graph stores only its records: after construction, and after every
    # move, neither the parent graph nor the new one has compiled a fact,
    # whatever the parent had compiled; a moved graph's facts, compiled on
    # first read, equal the records' eager slot table and a fresh compile
    # of _interior and _triples (in vertex id order), over chains of moves
    rng = np.random.default_rng(16)
    records = {"vertices", "edges"}
    applied = Counter()
    surfaces = ([make() for make in SURFACES.values()] + [handle_chain(g) for g in (2, 3, 4)]
                + [caterpillar(b) for b in range(4, 9)] + ribbon_graphs())
    for surf in surfaces:
        params = sample_params(surf, rng)  # in_domain compiles _interior and _triples on surf
        assert {"_interior", "_triples"} <= vars(surf.graph).keys()
        g = surf.graph
        bare = su.PantsSurface(surf.genus, surf.boundary,
                               su.FatGraph(list(g.vertices.values()), list(g.edges.values())),
                               tree=surf.tree)
        assert vars(bare.graph).keys() == records
        for move in _every_move(bare, rng):
            try:
                new, _ = apply_move(bare, params, move)
            except (ValueError, ArithmeticError):
                continue  # twist or elem on a boundary edge, a self-glued or degenerate picture
            assert vars(bare.graph).keys() == vars(new.graph).keys() == records, move
        for move in _every_move(surf, rng):
            s, p = surf, params
            reverses = [Move("reverse", int(eid)) for eid in rng.choice(list(s.graph.edges), 2)]
            for step in [move] + reverses:
                try:
                    new, p = apply_move(s, p, step)
                except (ValueError, ArithmeticError):
                    break
                if new.graph is not s.graph:  # a twist, or a one-holed elem, keeps the graph
                    assert vars(new.graph).keys() == records, step
                assert (new.graph.slot_of, new.graph._interior, list(new.graph._triples.items())) == \
                    _fresh_facts(new.graph), step
                applied[_kind(s.graph, step)] += 1
                s = new
    assert min(applied.values()) >= 20 and len(applied) == 8, applied


def test_flips_and_fenchel_nielsen_compile_no_graph_fact():
    # like a move, a flip, a sign check or action and an FN round trip read
    # the incidence lists, so none compiles a table on the graph; off the
    # locus, to_fenchel_nielsen flips and applies a sign vector first
    rng = np.random.default_rng(22)
    normalized = 0
    for surf in reference_surfaces():
        params = sample_fuchsian_params(surf, rng)
        g = surf.graph
        bare = su.PantsSurface(surf.genus, surf.boundary,
                               su.FatGraph(list(g.vertices.values()), list(g.edges.values())),
                               tree=surf.tree)
        for eid in g.edges:
            symmetry.flip_eigenvalue(params, bare, eid)
        fu.from_fenchel_nielsen(fu.to_fenchel_nielsen(params, bare), bare)
        assert vars(bare.graph).keys() == {"vertices", "edges"}
        basis = symmetry.epsilon_basis(surf)
        for eps in basis + [{eid: -1 for eid in g.edges}, {max(g.edges) + 1: 1}]:
            symmetry.check_epsilon(bare, eps)
            try:
                symmetry.act_epsilon(params, eps, bare)
            except ValueError:
                pass  # a vector that breaks a vertex, or names no edge
        assert vars(bare.graph).keys() == {"vertices", "edges"}
        if basis:
            off = symmetry.act_epsilon(params, basis[0], bare)  # positive eigenvalues
            off = symmetry.flip_eigenvalue(off, surf, min(g.edges))  # one inside the unit circle
            fn = fu.to_fenchel_nielsen(off, bare, require_domain=False)
            actions = fn.meta["actions"]
            normalized += bool(actions["flips"] and actions["epsilon"])
        assert vars(bare.graph).keys() == {"vertices", "edges"}
    assert normalized > 50, normalized


def _moderate_params(surf, rng):
    """|e| in [1.2, 3], |t| = exp(u) with u in [-1, 1], arguments uniform; in the domain."""
    g = surf.graph
    while True:
        params = EdgeParams(
            {eid: cmath.rect(rng.uniform(1.2, 3.0), rng.uniform(0, 2 * math.pi)) for eid in g.edges},
            {eid: cmath.rect(math.exp(rng.uniform(-1.0, 1.0)), rng.uniform(0, 2 * math.pi))
             for eid in g.interior_edges()})
        if co.in_domain(params, surf):
            return params


def _table_error(got, want):
    return max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want))


def test_one_holed_torus_move_relations_return_the_character():
    # S = elem and T = twist-r on the loop edge of S_{1,1}: S^2 (a half twist
    # about the boundary), S^4, (ST)^3 and (TS)^3 return every squared trace
    # of the marking words; T alone, the negative control, moves them
    surf = su.one_holed_torus()
    S, T = Move("elem", 1), Move("twist-r", 1)
    loops = {"S^2": [S] * 2, "S^4": [S] * 4, "(ST)^3": [S, T] * 3, "(TS)^3": [T, S] * 3}
    rng = np.random.default_rng(1010)
    checked, control = 0, 0.0
    for _ in range(30):
        params = _moderate_params(surf, rng)
        rep = builder.build(surf, params)
        if max_residual(rep) >= 1e-9:
            continue
        words = marking_words(rep.presentation)
        want = squared_trace_table(rep, words)
        for name, loop in loops.items():
            s, p = surf, params
            for move in loop:
                s, p = apply_move(s, p, move)
            err = _table_error(squared_trace_table(builder.build(s, p), words), want)
            assert err <= 1e-10, (name, err)
        s, p = apply_move(surf, params, T)
        control = max(control, _table_error(squared_trace_table(builder.build(s, p), words), want))
        checked += 1
    assert checked >= 20
    assert control > 1.0


@pytest.mark.parametrize("tr", [float("nan"), complex("nan"), complex(float("nan"), 1.0),
                                complex(2.5, float("nan"))],
                         ids=["nan", "complex-nan", "nan-real", "nan-imag"])
def test_new_eigenvalue_refuses_a_nan_trace(tr):
    # like an infinite trace, a NaN trace has no default root; the error
    # names tr^2 - 4, which _trace_roots cannot judge for a NaN
    with pytest.raises(DegenerateInputError) as info:
        moves.new_eigenvalue(tr)
    assert info.value.factor == "tr^2 - 4"
    assert str(info.value) == "trace %r is not a number" % (tr,)
    with pytest.raises(DegenerateInputError) as inf:
        moves.new_eigenvalue(float("inf"))
    assert inf.value.factor == "tr^2 - 4"


def test_an_elementary_move_at_a_nan_trace_names_its_edge():
    with pytest.raises(DegenerateInputError) as info:
        moves.elementary_one_holed(float("nan"), 0.7 + 1.3j, 1.2 - 0.6j)
    assert info.value.factor == "tr^2 - 4"
    for surf in (su.one_holed_torus(), su.four_holed_sphere()):
        params = sample_params(surf, np.random.default_rng(2303))
        params.twist[1] = complex("nan")
        with pytest.raises(DegenerateInputError) as info:
            apply_move(surf, params, Move("elem", 1))
        assert str(info.value).startswith("edge 1: trace ")
        assert str(info.value).endswith(" is not a number")
        assert info.value.factor == "tr^2 - 4"


def _eager_elementary_four_holed(es, t1, t_other, branch=None):
    """elementary_four_holed as it was: every neighbor factor evaluated."""
    e1, e2, e3, e4, e5 = es
    tr34, tr24, tr35 = co.four_holed_traces(es, t1)
    e1p = moves.new_eigenvalue(tr34, branch)
    f13_2, f12_3 = e1 * e3 - e2, e1 * e2 - e3
    f14_5, f15_4 = e1 * e4 - e5, e1 * e5 - e4
    num = (e4 * e1p - e3) * (
        e3 * e5 * (-f13_2 * t1 + e1 * f12_3) * e1p + e1 * f13_2 * t1 - f12_3
    )
    den = (e3 * e1p - e4) * (
        (e1 * f13_2 * t1 - f12_3) * e1p + e3 * e5 * (-f13_2 * t1 + e1 * f12_3)
    )
    t1p = num / moves._vanishing(den, "den t1'")
    t1p_alt = co.twist_from_traces_four_holed((e1p, e5, e2, e3, e4), tr35, tr24)
    if abs(t1p - t1p_alt) > 1e-6 * max(1.0, abs(t1p)):
        raise DegenerateInputError("twist formulas disagree; parameters near a degeneracy",
                                   factor="t1' - t1'(traces)")
    factors = {
        2: (f12_3 * f13_2 * (t1 + 1))
        / ((e2 * e3 - e1) * f13_2 * t1 + (1 - e1 * e2 * e3) * f12_3)
        * (e2 * e1p - e5)
        / (e2 * e5 - e1p),
        3: (e2 * e3 - e1)
        * (f13_2 * f14_5 * t1 + f12_3 * f15_4)
        / (f13_2 * ((e2 * e3 - e1) * f14_5 * t1 + (1 - e1 * e2 * e3) * f15_4)),
        4: (f13_2 * f14_5 * t1 + f12_3 * f15_4)
        / (f13_2 * (e4 * e5 - e1) * t1 + f12_3 * (1 - e1 * e4 * e5))
        * (e3 * e1p - e4)
        / (1 - e3 * e4 * e1p),
        5: f15_4
        * (e1 * e4 * e5 - 1)
        * (t1 + 1)
        / ((e1 - e4 * e5) * f14_5 * t1 + (e1 * e4 * e5 - 1) * f15_4),
    }
    return e1p, t1p, {pos: factors[pos] * t for pos, t in t_other.items()}


def test_elementary_four_holed_equals_the_eager_factor_dict():
    # at box points of every embedded four-holed picture of the reference
    # surfaces with at most 20 edges, and at variants
    # where e1 e3 - e2 (in the position-3 factor) or the position-5 factor's
    # denominator is exactly zero, with the twists the move passes and with
    # random subsets of the four positions, on both branches: the lazy
    # factors equal the eager dict by value or by error class and message,
    # except where only a factor at a position not in t_other raised
    rng = np.random.default_rng(2304)
    kinds = Counter()
    for surf in reference_surfaces():
        g = surf.graph
        if len(g.edges) > 20:
            continue
        params = EdgeParams({eid: rand_c(rng) for eid in g.edges},
                            {eid: rand_c(rng) for eid in g.interior_edges()})
        for edge in g.interior_edges():
            _, _, nbrs = su._picture_slots(g, edge)
            ids = [eid for eid, _ in nbrs]
            if len(set(ids)) != 4 or edge in ids:
                continue
            es, t1 = co._picture_es(params.eigen, edge, nbrs), params.twist[edge]
            e1, e2, e3, e4, e5 = es
            passed = {pos: params.twist[eid] for pos, eid in zip((2, 3, 4, 5), ids) if eid in params.twist}
            subsets = [passed] + [{pos: rand_c(rng) for pos in (2, 3, 4, 5) if mask >> (pos - 2) & 1}
                                  for mask in rng.choice(16, 3, replace=False)]
            t5 = -((e1 * e4 * e5 - 1) * (e1 * e5 - e4)) / ((e1 - e4 * e5) * (e1 * e4 - e5))
            for es, t1 in ((es, t1), ((e1, e1 * e3, e3, e4, e5), t1), (es, t5)):
                for t_other in subsets:
                    for branch in (None, 1 / moves.new_eigenvalue(co.four_holed_traces(es, t1)[0])):
                        args = es, t1, t_other, branch
                        got = outcome(moves.elementary_four_holed, *args)
                        want = outcome(_eager_elementary_four_holed, *args)
                        if got[0] == "value" and want[0] != "value":
                            every = {pos: 1.0 for pos in (2, 3, 4, 5)}
                            assert want[0] is ZeroDivisionError, args
                            assert outcome(moves.elementary_four_holed, es, t1, every, branch) == want
                            kinds["unused factor raised"] += 1
                        else:
                            assert same_outcome(moves.elementary_four_holed, _eager_elementary_four_holed,
                                                *args), args
                            kinds[got[0] if got[0] == "value" else got[0].__name__] += 1
    assert kinds["value"] > 2000 and kinds["ZeroDivisionError"] > 100, kinds
    assert kinds["unused factor raised"] > 100, kinds
    with pytest.raises(KeyError):  # a position outside 2..5, as the eager dict raised
        moves.elementary_four_holed((-1.2 + 0.7j, 1.4 - 0.9j, -0.6 - 1.5j, 1.7 + 0.4j, -1.8 - 0.3j),
                                    0.8 - 1.1j, {1: 1.0})


def test_an_unused_neighbor_factor_does_not_stop_the_move():
    # here the position-5 factor's denominator is exactly zero; on the
    # four-holed sphere every neighbor of edge 1 is a boundary edge, so no
    # factor is used, and the move returns where the eager dict raised
    e1, e2, e3, e4, e5 = -3 + 0j, -1.3 + 0.4j, 1.7 - 0.2j, -2.5 + 0j, 1.5 - 2j
    t1 = -((e1 * e4 * e5 - 1) * (e1 * e5 - e4)) / ((e1 - e4 * e5) * (e1 * e4 - e5))
    assert (e1 - e4 * e5) * (e1 * e4 - e5) * t1 + (e1 * e4 * e5 - 1) * (e1 * e5 - e4) == 0
    es = (e1, e2, e3, e4, e5)
    with pytest.raises(ZeroDivisionError):
        _eager_elementary_four_holed(es, t1, {})
    with pytest.raises(ZeroDivisionError):
        moves.elementary_four_holed(es, t1, {5: 1.0})
    e1p, t1p, new = moves.elementary_four_holed(es, t1, {2: 0.5, 3: 1j, 4: -2.0})
    assert sorted(new) == [2, 3, 4]
    surf = su.four_holed_sphere()
    params = EdgeParams({1: e1, 2: e2, 3: e3, 4: e4, 5: e5}, {1: t1})
    assert co.in_domain(params, surf)
    _, moved = apply_move(surf, params, Move("elem", 1))
    assert (moved.eigen[1], moved.twist[1]) == (e1p, t1p)
    tr34 = co.four_holed_traces(es, t1)[0]
    assert abs(e1p + 1 / e1p - tr34) <= 1e-12 * max(1.0, abs(tr34))


def test_elementary_four_holed_refuses_twist_formulas_that_disagree():
    # at e1' = e3/e4 the closed form of t1' has the vanishing factor
    # e4 e1' - e3, which the trace form need not share: pick t1 so that the
    # new curve's trace tr34(t1) = a t1 + b/t1 + c is e4/e3 + e3/e4
    rng = np.random.default_rng(20261020)
    outcomes = Counter()
    for _ in range(20):
        es = tuple(2 * complex(*rng.normal(size=2)) for _ in range(5))
        _, _, e3, e4, _ = es
        at1, at_minus1, at2 = (co.four_holed_traces(es, t)[0] for t in (1, -1, 2))
        c, a_plus_b = (at1 + at_minus1) / 2, (at1 - at_minus1) / 2
        a = (at2 - c - a_plus_b / 2) / 1.5
        d = c - (e4 / e3 + e3 / e4)
        t1 = (-d + cmath.sqrt(d * d - 4 * a * (a_plus_b - a))) / (2 * a)
        try:
            moves.elementary_four_holed(es, t1, {}, branch=e3 / e4)
            outcomes["ok"] += 1
        except DegenerateInputError as ex:
            assert str(ex) == "twist formulas disagree; parameters near a degeneracy", str(ex)
            outcomes[ex.factor] += 1
    assert outcomes["t1' - t1'(traces)"] >= 5, outcomes


def _per_kind_apply_move(surface, params, move):
    """apply_move as it was: each kind copies, modifies and returns its own
    dicts and builds its own surface."""
    try:
        graph = surface.graph
        kind = move.kind
        if kind == "reverse":
            edge = move.target
            eigen = dict(params.eigen)
            twist = dict(params.twist)
            if graph.is_boundary(edge):
                eigen[edge] = 1 / eigen[edge]
            else:
                es = co._picture_es(params.eigen, edge, su._picture_slots(graph, edge)[2])
                eigen[edge], twist[edge] = moves.reverse_edge_formula(es, params.twist[edge])
            e = graph.edges[edge]
            ends = {}
            for vid in (e.tail, e.head):
                rec = graph.vertices[vid]
                ends[vid] = su.Vertex(vid, rec.kind, tuple([
                    key if key[0] != edge else (edge, "head" if key[1] == "tail" else "tail")
                    for key in rec.incident]))
            return _rewired(surface, ends, {edge: su.Edge(edge, e.head, e.tail)}), EdgeParams(eigen, twist)
        if kind in ("twist-r", "twist-l"):
            edge = move.target
            if graph.is_boundary(edge):
                raise ValueError("Dehn twists act along interior pants curves")
            twist = dict(params.twist)
            _, twist[edge] = moves.dehn_twist_formula(
                params.eigen[edge], twist[edge], "right" if kind == "twist-r" else "left")
            return surface, EdgeParams(dict(params.eigen), twist)
        if kind == "vertex":
            vid = move.target
            if surface.graph.vertices[vid].kind != "tri":
                raise ValueError("vertex move needs a trivalent vertex")
            twist = dict(params.twist)
            inc = graph.vertices[vid].incident
            es = [co._end_eigen(params.eigen[eid], end) for eid, end in inc]
            for s, (eid, _end) in enumerate(inc):
                if graph.is_boundary(eid):
                    continue
                factor = moves.half_twist_formula(es[s], es[(s + 1) % 3], es[(s + 2) % 3], 1)
                twist[eid] = factor * twist[eid]
            new_surface = _rewired(surface, {vid: su.Vertex(vid, "tri", (inc[0], inc[2], inc[1]))}, {})
            return new_surface, EdgeParams(dict(params.eigen), twist)
        if kind == "auto":
            vperm = move.data.get("vertices", {})
            eperm = move.data.get("edges", {})
            new_graph = su.FatGraph(
                [su.Vertex(vperm.get(v.id, v.id), v.kind,
                           tuple((eperm.get(eid, eid), end) for eid, end in v.incident))
                 for v in graph.vertices.values()],
                [su.Edge(eperm.get(e.id, e.id), vperm.get(e.tail, e.tail), vperm.get(e.head, e.head))
                 for e in graph.edges.values()])
            tree = None if surface.tree is None else {eperm.get(eid, eid) for eid in surface.tree}
            eigen = {eperm.get(k, k): v for k, v in params.eigen.items()}
            twist = {eperm.get(k, k): v for k, v in params.twist.items()}
            return (su.PantsSurface(surface.genus, surface.boundary, new_graph, tree=tree),
                    EdgeParams(eigen, twist))
        if kind == "elem":
            return _per_kind_elementary_move(surface, params, move.target, move.branch)
        raise ValueError("unknown move kind %r" % (kind,))
    except (DegenerateInputError, ArithmeticError) as ex:
        raise _at("%s %r" % ("vertex" if move.kind == "vertex" else "edge", move.target), ex)


def _rewired(surface, vertices, edges):
    return su.PantsSurface(surface.genus, surface.boundary, surface.graph._rewired(vertices, edges),
                           tree=surface.tree)


def _per_kind_elementary_move(surface, params, edge, branch):
    graph = surface.graph
    if graph.is_boundary(edge):
        raise ValueError("elementary move needs an interior edge")
    (v, _), (w, _), nbrs = su._picture_slots(graph, edge)
    es, t1 = co._picture_es(params.eigen, edge, nbrs), params.twist[edge]
    if v == w:
        boundary_eid = None
        e2 = None
        for slot, value in zip(nbrs, es[1:]):
            if slot[0] != edge:
                boundary_eid, e2 = slot[0], value
                break
        e1p, t1p, t2_factor = moves.elementary_one_holed(es[0], e2, t1, branch)
        eigen = dict(params.eigen)
        twist = dict(params.twist)
        eigen[edge] = e1p
        twist[edge] = t1p
        if boundary_eid in twist:
            twist[boundary_eid] = t2_factor * twist[boundary_eid]
        return surface, EdgeParams(eigen, twist)
    neighbor_eids = [eid for eid, _ in nbrs]
    if len(set(neighbor_eids)) != 4 or edge in neighbor_eids:
        raise ValueError(
            "elementary move implemented for embedded four-holed pictures; "
            "self-glued configurations reduce to the one-holed case via moves"
        )
    t_other = {pos: params.twist[eid] for pos, eid in zip((2, 3, 4, 5), neighbor_eids)
               if eid in params.twist}
    e1p, t1p, new_other = moves.elementary_four_holed(es, t1, t_other, branch)
    eigen = dict(params.eigen)
    twist = dict(params.twist)
    eigen[edge] = e1p
    twist[edge] = t1p
    for pos, eid in zip((2, 3, 4, 5), neighbor_eids):
        if eid in twist:
            twist[eid] = new_other[pos]
    g2, g3, g4, g5 = nbrs
    moved = {eid: graph.edges[eid]._replace(**{end: new_v}) for (eid, end), new_v in ((g3, w), (g5, v))}
    new_surface = _rewired(surface, {v: su.Vertex(v, "tri", ((edge, "tail"), g5, g2)),
                                     w: su.Vertex(w, "tri", ((edge, "head"), g3, g4))}, moved)
    return new_surface, EdgeParams(eigen, twist)


def _move_outcome(fn, surf, params, move):
    """The moved surface's JSON (None if it is surf), whether the tree is
    surf's, and the eigenvalue and twist items in order; or the class,
    message and factor raised."""
    try:
        new, p = fn(surf, params, move)
    except (ArithmeticError, ValueError, KeyError) as ex:
        return type(ex), str(ex), getattr(ex, "factor", None)
    return ("value", None if new is surf else su.to_json(new), new.tree is surf.tree,
            [list(p.eigen.items()), list(p.twist.items())])


def test_apply_move_equals_the_per_kind_form():
    # one tail builds every moved surface and every new EdgeParams; it
    # equals the per-kind form (surface JSON, params with NaN equal and keys
    # in order, the same surface object or not, error class, message and
    # factor) for every kind on every target, unknown targets, a branch, a
    # relabelling and an unknown kind, on every reference surface at box and
    # Fuchsian points (and, on small surfaces, at huge and zero eigenvalues)
    # and on a moved graph.  The one difference: where the per-kind form
    # returned a twist that is not finite, the tail raises OverflowError
    # naming the move's edge or vertex
    rng = np.random.default_rng(2401)
    kinds = Counter()
    for surf in reference_surfaces():
        box = EdgeParams({eid: rand_c(rng) for eid in surf.graph.edges},
                         {eid: rand_c(rng) for eid in surf.graph.interior_edges()})
        points = [box, sample_fuchsian_params(surf, rng)]
        if len(surf.graph.edges) <= 12:  # huge eigenvalues, whose factors overflow, and a zero one
            zero = min(surf.graph.edges)
            points += [EdgeParams({k: v * 1e150 for k, v in box.eigen.items()}, box.twist),
                       EdgeParams({**box.eigen, zero: 0j}, box.twist)]
        for params in points:
            s, p = surf, params
            for step in range(2):
                g = s.graph
                unknown_e, unknown_v = max(g.edges) + 1, max(g.vertices) + 1
                extra = ([Move(kind, unknown_e) for kind in ("reverse", "twist-r", "twist-l", "elem")]
                         + [Move("vertex", vid) for vid in g.vertices if g.vertices[vid].kind == "uni"]
                         + [Move("vertex", unknown_v), Move("slide", min(g.edges)),
                            Move("elem", min(g.interior_edges(), default=unknown_e), rand_c(rng))])
                for move in _every_move(s, rng) + extra:
                    got = _move_outcome(apply_move, s, p, move)
                    want = _move_outcome(_per_kind_apply_move, s, p, move)
                    if want[0] == "value" and not all(cmath.isfinite(t) for _, t in want[3][1]):
                        where = "%s %r: twist " % ("vertex" if move.kind == "vertex" else "edge", move.target)
                        assert got[0] is OverflowError and got[1].startswith(where), (move, got)
                        assert got[1].endswith(" is not finite") and got[2] is None, (move, got)
                        kinds["non-finite"] += 1
                    else:
                        # == where no NaN is returned, else NaN equal to NaN
                        assert got == want or (got[:3] == want[:3] and same_numbers(got[3], want[3])), \
                            (move, got, want)
                        kinds[got[0] if got[0] == "value" else got[0].__name__] += 1
                # the second round acts on a moved graph: a reverse, then an elem or a vertex move
                for move in (Move("reverse", min(g.edges)), Move("elem", max(g.edges)),
                             Move("vertex", min(g.trivalent_vertices()))):
                    try:
                        s, p = apply_move(s, p, move)
                    except (ValueError, ArithmeticError):
                        pass
    assert kinds["value"] > 10000 and kinds["ValueError"] > 1000 and kinds["KeyError"] > 500, kinds
    assert kinds["ZeroDivisionError"] > 100 and kinds["non-finite"] > 100, kinds


def test_a_non_finite_twist_raises_overflow_naming_the_edge():
    # at this in-domain point the reverse formula's and the flip's factors
    # overflow, and their quotient is NaN
    es = (-1.2 + 0.7j, 1.4 - 0.9j, -0.6 - 1.5j, 1.7 + 0.4j, -1.8 - 0.3j)
    surf = su.four_holed_sphere()
    params = EdgeParams({eid: e * 1e100 for eid, e in enumerate(es, 1)}, {1: 0.8 - 1.1j})
    assert co.in_domain(params, surf)
    for step, where in ((lambda: apply_move(surf, params, Move("reverse", 1)), "edge 1: "),
                        (lambda: symmetry.flip_eigenvalue(params, surf, 2), "edge 2: ")):
        with pytest.raises(OverflowError) as info:
            step()
        assert str(info.value) == where + "twist 1 = (nan+nanj) is not finite"
        assert not hasattr(info.value, "factor")


#: fixed box points, one per fixture, and a Fuchsian genus-two point, for the step census
_STEP_POINTS = {
    "four_holed": EdgeParams({1: -1.2 + 0.7j, 2: 1.4 - 0.9j, 3: -0.6 - 1.5j, 4: 1.7 + 0.4j,
                              5: -1.8 - 0.3j}, {1: 0.8 - 1.1j}),
    "one_holed": EdgeParams({1: -1.6 + 0.5j, 2: 0.7 + 1.3j}, {1: 1.2 - 0.6j}),
    "genus_two": EdgeParams({1: -1.3 + 0.8j, 2: 1.5 + 0.6j, 3: -0.7 - 1.4j},
                            {1: 0.9 + 1.2j, 2: -1.1 + 0.4j, 3: 1.6 - 0.7j}),
    "fuchsian": EdgeParams({1: -1.7, 2: -2.4, 3: -3.1}, {1: 0.6, 2: 1.9, 3: 2.7}),
}


def _step_census():
    """Print, as JSON, the Python-level calls into pantsrep frames that one
    walk step of each kind makes, each on a fixture whose graph has
    compiled nothing, as a graph a move has just made."""
    package = os.path.dirname(os.path.abspath(moves.__file__)) + os.sep
    four, one, two = su.four_holed_sphere, su.one_holed_torus, su.genus_two
    pts = _STEP_POINTS
    eps = {1: 1, 2: -1, 3: -1}
    assert symmetry.check_epsilon(two(), eps)
    steps = {
        "reverse": (two, lambda s: apply_move(s, pts["genus_two"], Move("reverse", 1))),
        "reverse-boundary": (four, lambda s: apply_move(s, pts["four_holed"], Move("reverse", 2))),
        "twist": (two, lambda s: apply_move(s, pts["genus_two"], Move("twist-r", 1))),
        "vertex": (two, lambda s: apply_move(s, pts["genus_two"], Move("vertex", 1))),
        "elem": (four, lambda s: apply_move(s, pts["four_holed"], Move("elem", 1))),
        "elem-one-holed": (one, lambda s: apply_move(s, pts["one_holed"], Move("elem", 1))),
        "flip": (two, lambda s: symmetry.flip_eigenvalue(pts["genus_two"], s, 1)),
        "epsilon": (two, lambda s: symmetry.act_epsilon(pts["genus_two"], eps, s)),
        "fn": (two, lambda s: fu.from_fenchel_nielsen(fu.to_fenchel_nielsen(pts["fuchsian"], s), s)),
    }
    doc = {}
    for kind, (make, step) in steps.items():
        step(make())  # warm-up
        surf = make()
        calls = [0]

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls[0] += 1

        sys.setprofile(count)
        try:
            step(surf)
        finally:
            sys.setprofile(None)
        doc[kind] = calls[0]
    print(json.dumps(doc))


def test_walk_steps_call_no_more_helpers_than_measured():
    # a step reads what it needs off the incidence lists: a change that puts
    # a compile or helper calls back on a step raises these ceilings, and says so
    r = subprocess.run(
        [sys.executable, "-c", "import test_moves; test_moves._step_census()"],
        cwd=os.path.dirname(os.path.abspath(__file__)), env=SUBPROCESS_ENV,
        capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    doc = json.loads(r.stdout)
    # measured here; before the one-pass sign check and flip, flip read 29
    # and epsilon 16 (the sign check compiled _triples), elem 54; before the
    # one tail of apply_move, reverse 14, reverse-boundary 7, vertex 14, elem 53;
    # before the boundary traces were computed inline, elem 52 (26 calls of a
    # one-line chi), and before from_fenchel_nielsen built its dicts once, fn 124
    ceilings = {"reverse": 13, "reverse-boundary": 6, "twist": 3, "vertex": 13, "elem": 26,
                "elem-one-holed": 18, "flip": 17, "epsilon": 3, "fn": 122}
    assert doc.keys() == ceilings.keys()
    assert all(doc[kind] <= ceilings[kind] for kind in ceilings), doc
