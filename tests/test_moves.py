"""Moves on the marking: reversals, twists, vertex moves, elementary moves."""

import numpy as np
import pytest

from pantsrep import builder, coordinates as co, moves, surface as su
from pantsrep.coordinates import EdgeParams
from pantsrep.moves import Move, apply_move
from pantsrep.projective import DegenerateInputError, sqrt_principal

from helpers import SURFACES, marking_words, sample_params, squared_trace_table

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
