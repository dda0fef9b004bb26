"""End-to-end acceptance checks, one test per criterion."""

import cmath
import math

import numpy as np

from pantsrep import builder, coordinates as co, fuchsian as fu, shearbend as sb
from pantsrep import surface as su, symmetry as sym
from pantsrep.coordinates import EdgeParams
from pantsrep.moves import Move, apply_move
from pantsrep.projective import (
    INF,
    DegenerateInputError,
    as_point,
    cross_ratio,
    mobius_with_axis,
    sqrt_principal,
    three_point_map,
)

from helpers import (
    SURFACES,
    marking_words,
    rand_c,
    sample_fuchsian_params,
    sample_params,
    squared_trace_table,
)


def sl_diff(m, exp):
    m = np.asarray(m, dtype=complex)
    exp = np.asarray(exp, dtype=complex)
    return min(np.abs(m - exp).max(), np.abs(m + exp).max())


def test_01_relation_residuals():
    rng = np.random.default_rng(101)
    worst = 0.0
    for make in SURFACES.values():
        surf = make()
        for _ in range(200):
            params = sample_params(surf, rng)
            rep = builder.build(surf, params)
            worst = max(worst, max(builder.verify_relations(rep).values()))
    assert worst < 1e-9, worst


def test_02_closed_form_matrices_reproduced():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        # four-holed sphere, normalized at (x1, x2, x3) = (inf, 1, 0)
        surf = su.four_holed_sphere()
        params = sample_params(surf, rng)
        e1, e2, e3, e4, e5 = (params.eigen[i] for i in range(1, 6))
        t1 = params.twist[1]
        rep = builder.build(surf, params, base=(INF, 1, 0))
        g1 = np.array([[e1, e3 / e2 - e1], [0, 1 / e1]])
        g2 = np.array([[-e1 / e3 + e2 + 1 / e2, e1 / e3 - 1 / e2], [e2 - e1 / e3, e1 / e3]])
        g3 = np.array([[1 / e3, 0], [1 / e3 - e2 / e1, e3]])
        a11 = (e1 * (e4 + 1 / e4) - (e5 + 1 / e5)) / (e1 - 1 / e1) \
            - (1 - e1 * e4 * e5) * (e1 * e5 - e4) * (e1 * e2 - e3) / (
                (e1 * e1 - 1) * (e1 * e3 - e2) * e4 * e5 * t1)
        a12 = e1 / ((e1 * e1 - 1) ** 2 * e2 * (e1 * e3 - e2) * e4 * e5 * t1) \
            * ((e1 * e3 - e2) * (e1 * e4 - e5) * t1 + (e1 * e5 - e4) * (e1 * e2 - e3)) \
            * ((e1 * e3 - e2) * (e4 * e5 - e1) * t1 + (e1 * e2 - e3) * (1 - e1 * e4 * e5))
        a21 = e2 * (e1 * e5 - e4) * (e1 * e4 * e5 - 1) / (e1 * (e1 * e3 - e2) * e4 * e5 * t1)
        a22 = -(e4 + 1 / e4) / (e1 * (e1 - 1 / e1)) + (e5 + 1 / e5) / (e1 - 1 / e1) \
            + (1 - e1 * e4 * e5) * (e1 * e5 - e4) * (e1 * e2 - e3) / (
                (e1 * e1 - 1) * (e1 * e3 - e2) * e4 * e5 * t1)
        g4 = np.array([[a11, a12], [a21, a22]])
        # the boundary generators are the loops around edges 2..5; the
        # interior curve is the inverse of the product of the first two
        worst = max(worst, sl_diff(rep.evaluate([("d2", -1), ("d1", -1)]).m, g1))
        worst = max(worst, sl_diff(rep.image("d1").m, g2))
        worst = max(worst, sl_diff(rep.image("d2").m, g3))
        worst = max(worst, sl_diff(rep.image("d3").m, g4))

        # one-holed torus, normalized at (inf, 0, 1)
        surf = su.one_holed_torus()
        params = sample_params(surf, rng)
        e1, e2, t1 = params.eigen[1], params.eigen[2], params.twist[1]
        rep = builder.build(surf, params, base=(INF, 0, 1))
        al = np.array([[e1, 1 / e1 - 1 / (e1 * e2)], [0, 1 / e1]])
        de = np.array([[1 / e2, 0], [e1 * e1 - e2, e2]])
        a2 = np.array([[e2 / e1, 1 / e1 - e2 / e1],
                       [e2 / e1 - e1, e1 + 1 / e1 - e2 / e1]])
        be = np.array([[(e2 - e1 * e1) * t1 + (e2 - 1), (t1 + 1) * (1 - e2)],
                       [-e2 * (e1 * e1 - 1), e2 * (e1 * e1 - 1)]]) / (
            sqrt_principal(-e2 * t1) * (e1 * e1 - 1))
        worst = max(worst, sl_diff(rep.image("a1").m, al))
        worst = max(worst, sl_diff(rep.image("d1").m, de))
        worst = max(worst, sl_diff(rep.image("a2").m, a2))
        worst = max(worst, sl_diff(rep.image("b1").m, be))

        # genus two, normalized at (inf, 0, 1)
        surf = su.genus_two()
        params = sample_params(surf, rng)
        e1, e2, e3 = (params.eigen[i] for i in (1, 2, 3))
        t1, t2, t3 = (params.twist[i] for i in (1, 2, 3))
        rep = builder.build(surf, params, base=(INF, 0, 1))
        ga1 = np.array([[1 / e1, 0], [-e1 + e3 / e2, e1]])
        ga2 = np.array([[e1 / e3, e2 - e1 / e3],
                        [-1 / e2 + e1 / e3, e2 + 1 / e2 - e1 / e3]])
        b1 = np.array([
            [1, -(e2 * e3 - e1) * (t3 + 1) / (e1 * (e3 * e3 - 1))],
            [e1 * (t1 + 1) * (e1 * e2 - e3) / ((e1 * e1 - 1) * e2),
             ((e1 * e2 * e3 - 1) * (e1 * e3 - e2) * t1 * t3
              - (e1 * e2 - e3) * (e2 * e3 - e1) * (t1 + t3 + 1))
             / ((e1 * e1 - 1) * e2 * (e3 * e3 - 1))],
        ]) / sqrt_principal(t1 * t3)
        b11 = (e1 * e2 - e3) * t2 + e2 * (e1 - e2 * e3)
        b12 = (e1 - e2 * e3) * (e3 * (e1 * e2 * e3 - 1) * t2 * t3
                                + (e1 * e2 - e3) * t2
                                + e2 * e3 * (e1 * e3 - e2) * t3
                                + e2 * (e1 - e2 * e3)) / (e1 * (e3 * e3 - 1))
        b21 = (e1 * e2 - e3) * (t2 + 1)
        b22 = (e3 * (e1 * e2 * e3 - 1) * (e1 - e2 * e3) * t2 * t3
               + e3 * (e1 * e2 - e3) * (e1 * e3 - e2) * t3
               - (e1 * e2 - e3) * (e2 * e3 - e1) * (1 + t2)) / (e1 * (e3 * e3 - 1))
        b2 = np.array([[b11, b12], [b21, b22]]) / (
            (e2 * e2 - 1) * e3 * sqrt_principal(t2 * t3))
        worst = max(worst, sl_diff(rep.image("a1").m, ga1))
        worst = max(worst, sl_diff(rep.image("a2").m, ga2))
        worst = max(worst, sl_diff(rep.image("b1").m, b1))
        worst = max(worst, sl_diff(rep.image("b2").m, b2))
    assert worst < 1e-10, worst


def test_03_markov_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        e1, t1 = rand_c(rng), rand_c(rng)
        if min(abs(e1), abs(t1), abs(e1 * e1 - 1)) < 1e-2:
            continue
        tra = e1 + 1 / e1
        trb, trab = co.one_holed_traces(e1, -1.0, t1)
        val = tra ** 2 + trb ** 2 + trab ** 2 - tra * trb * trab
        worst = max(worst, abs(val))
    assert worst < 1e-8, worst


def test_04_coordinate_roundtrip():
    rng = np.random.default_rng(104)
    worst_round, worst_twist = 0.0, 0.0
    for make in SURFACES.values():
        surf = make()
        for _ in range(20):
            params = sample_params(surf, rng)
            rep = builder.build(surf, params)
            rec0 = builder.recover_coordinates(rep)
            choice = {}
            for eid, e in params.eigen.items():
                got = rec0.eigen[eid]
                choice[eid] = 1 if abs(got - e) <= abs(1 / got - e) else -1
            rec = builder.recover_coordinates(rep, eigen_choice=choice)
            for eid, e in params.eigen.items():
                worst_round = max(worst_round,
                                  abs(rec.eigen[eid] - e) / max(1.0, abs(e)))
            for eid, t in params.twist.items():
                worst_round = max(worst_round,
                                  abs(rec.twist[eid] - t) / max(1.0, abs(t)))
    surf = su.four_holed_sphere()
    for _ in range(50):
        params = sample_params(surf, rng)
        lp = co.local_picture(surf, params, 1)
        _, tr24, tr35 = co.four_holed_traces(lp.es, lp.t1)
        t1 = co.twist_from_traces_four_holed(lp.es, tr24, tr35)
        worst_twist = max(worst_twist, abs(t1 - lp.t1) / max(1.0, abs(lp.t1)))
    surf = su.one_holed_torus()
    for _ in range(50):
        params = sample_params(surf, rng)
        e1, e2, t = params.eigen[1], params.eigen[2], params.twist[1]
        trb, trab = co.one_holed_traces(e1, e2, t)
        t1 = co.twist_from_traces_one_holed(e1, e2, trb, trab)
        worst_twist = max(worst_twist, abs(t1 - t) / max(1.0, abs(t)))
    assert worst_round < 1e-8, worst_round
    assert worst_twist < 1e-9, worst_twist


def test_05_action_invariance_genus_two():
    rng = np.random.default_rng(105)
    surf = su.genus_two()
    worst_sp, worst_formula = 0.0, 0.0
    for k in range(100):
        params = sample_params(surf, rng)
        heavy = k < 10  # rebuild-based spectrum checks on a subsample
        if heavy:
            rep = builder.build(surf, params)
            words = marking_words(rep.presentation)
            base = squared_trace_table(rep, words)
            actions = [sym.flip_eigenvalue(params, surf, e) for e in (1, 2, 3)]
            actions += [sym.act_epsilon(params, eps, surface=surf)
                        for eps in sym.epsilon_basis(surf)]
            for acted in actions:
                rep1 = builder.build(surf, acted)
                other = squared_trace_table(rep1, words)
                for x, y in zip(base, other):
                    worst_sp = max(worst_sp, abs(x - y) / max(1.0, abs(x)))
        # flip formulas against the independent branch-choice oracle: the
        # same matrices, re-read on the other eigenvalue branch of one edge
        rep = builder.build(surf, params)
        for edge in (1, 2, 3):
            flipped = sym.flip_eigenvalue(params, surf, edge)
            rec0 = builder.recover_coordinates(rep)
            choice = {}
            for eid, e in flipped.eigen.items():
                got = rec0.eigen[eid]
                choice[eid] = 1 if abs(got - e) <= abs(1 / got - e) else -1
            rec = builder.recover_coordinates(rep, eigen_choice=choice)
            for eid, e in flipped.eigen.items():
                worst_formula = max(worst_formula,
                                    abs(rec.eigen[eid] - e) / max(1.0, abs(e)))
            for eid, t in flipped.twist.items():
                worst_formula = max(worst_formula,
                                    abs(rec.twist[eid] - t) / max(1.0, abs(t)))
    assert worst_sp < 1e-8, worst_sp
    assert worst_formula < 1e-10, worst_formula


def test_06_move_coherence():
    rng = np.random.default_rng(106)
    # types I-III algebraic identities
    for make in SURFACES.values():
        surf = make()
        params = sample_params(surf, rng)
        for edge in surf.graph.edges:
            s1, p1 = apply_move(surf, params, Move("reverse", edge))
            s2, p2 = apply_move(s1, p1, Move("reverse", edge))
            for eid in params.eigen:
                assert abs(p2.eigen[eid] - params.eigen[eid]) < 1e-9
            for eid in params.twist:
                assert abs(p2.twist[eid] - params.twist[eid]) < 1e-8 * max(
                    1.0, abs(params.twist[eid]))
        for vid in surf.graph.trivalent_vertices():
            # half twists square to one full twist per incidence
            s1, p1 = apply_move(surf, params, Move("vertex", vid))
            s2, p2 = apply_move(s1, p1, Move("vertex", vid))
            g = surf.graph
            for eid in g.interior_edges():
                factor = 1.0
                for s in range(3):
                    eid2, end = g.slot(vid, s)
                    if eid2 == eid:
                        e = params.eigen[eid] if end == "tail" else 1 / params.eigen[eid]
                        factor *= e * e
                want = factor * params.twist[eid]
                assert abs(p2.twist[eid] - want) < 1e-8 * max(1.0, abs(want))

    # type V spectrum preservation and trace bookkeeping
    worst_sp, worst_tr = 0.0, 0.0
    surf = su.four_holed_sphere()
    for _ in range(20):
        params = sample_params(surf, rng)
        rep0 = builder.build(surf, params)
        words = marking_words(rep0.presentation)
        s1, p1 = apply_move(surf, params, Move("elem", 1))
        rep1 = builder.build(s1, p1)
        key = lambda z: (z.real, z.imag)
        a = sorted(squared_trace_table(rep0, words), key=key)
        b = sorted(squared_trace_table(rep1, words), key=key)
        for x, y in zip(a, b):
            worst_sp = max(worst_sp, abs(x - y) / max(1.0, abs(x)))
        lp = co.local_picture(surf, params, 1)
        tr34 = co.four_holed_traces(lp.es, lp.t1)[0]
        e1p = p1.eigen[1]
        worst_tr = max(worst_tr, abs(e1p + 1 / e1p - tr34) / max(1.0, abs(tr34)))
    surf = su.one_holed_torus()
    curve_words = [[("a1", 1)], [("b1", 1)], [("d1", 1)],
                   [("a1", 1), ("b1", 1)], [("a1", 1), ("b1", -1)]]
    for _ in range(20):
        params = sample_params(surf, rng)
        rep0 = builder.build(surf, params)
        s1, p1 = apply_move(surf, params, Move("elem", 1))
        rep1 = builder.build(s1, p1)
        key = lambda z: (z.real, z.imag)
        a = sorted(squared_trace_table(rep0, curve_words), key=key)
        b = sorted(squared_trace_table(rep1, curve_words), key=key)
        for x, y in zip(a, b):
            worst_sp = max(worst_sp, abs(x - y) / max(1.0, abs(x)))
        e1, e2, t1 = params.eigen[1], params.eigen[2], params.twist[1]
        trb, _ = co.one_holed_traces(e1, e2, t1)
        e1p = p1.eigen[1]
        worst_tr = max(worst_tr, abs(e1p + 1 / e1p - trb) / max(1.0, abs(trb)))
    assert worst_sp < 1e-7, worst_sp
    assert worst_tr < 1e-10, worst_tr


def test_07_fuchsian_locus():
    rng = np.random.default_rng(107)
    # fundamental-domain chain for 1000 real triples
    for _ in range(1000):
        e1, e2, e3 = (-float(rng.uniform(1.0 + 1e-6, 10.0)) for _ in range(3))
        cert = fu.pants_discreteness_certificate(e1, e2, e3)
        assert cert.passed
        chain = (0.0,) + tuple(cert.chain)
        for a, b in zip(chain, chain[1:]):
            assert b - a > 1e-12 * max(1.0, abs(b)), (e1, e2, e3, chain)

    # real matrix entries and FN round trip on all three surfaces
    worst_im, worst_fn = 0.0, 0.0
    for make in SURFACES.values():
        surf = make()
        for _ in range(25):
            params = sample_fuchsian_params(surf, rng)
            rep = builder.build(surf, params)
            for name in rep.images:
                m = rep.image(name).m
                worst_im = max(worst_im,
                               np.abs(m.imag).max() / max(1.0, np.abs(m).max()))
            fn = fu.to_fenchel_nielsen(params, surf)
            back = fu.from_fenchel_nielsen(fn, surf)
            for eid in params.eigen:
                worst_fn = max(worst_fn, abs(back.eigen[eid] - params.eigen[eid])
                               / max(1.0, abs(params.eigen[eid])))
            for eid in params.twist:
                worst_fn = max(worst_fn, abs(back.twist[eid] - params.twist[eid])
                               / max(1.0, abs(params.twist[eid])))
    assert worst_im < 1e-9, worst_im
    assert worst_fn < 1e-10, worst_fn

    # length of the new curve after the elementary move
    worst_ok = 0.0
    surf = su.four_holed_sphere()
    for _ in range(50):
        params = sample_fuchsian_params(surf, rng)
        fn = fu.to_fenchel_nielsen(params, surf)
        lp = co.local_picture(surf, params, 1)
        ls = [2 * math.log(max(-complex(x).real, -1 / complex(x).real)) for x in lp.es]
        new_l = fu.okai_length(ls, fn.fn_twists[1])
        s1, p1 = apply_move(surf, params, Move("elem", 1))
        p1n, _ = fu.normalize_domain(p1, s1)
        worst_ok = max(worst_ok, abs(new_l - 2 * math.log(-p1n.eigen[1].real)))
    surf = su.one_holed_torus()
    for _ in range(50):
        params = sample_fuchsian_params(surf, rng)
        fn = fu.to_fenchel_nielsen(params, surf)
        new_l = fu.okai_length_one_holed(fn.lengths[1], fn.lengths[2], fn.fn_twists[1])
        s1, p1 = apply_move(surf, params, Move("elem", 1))
        p1n, _ = fu.normalize_domain(p1, s1)
        worst_ok = max(worst_ok, abs(new_l - 2 * math.log(-p1n.eigen[1].real)))
    assert worst_ok < 1e-8, worst_ok


def test_08_shear_bend_bridge():
    rng = np.random.default_rng(108)
    surf = su.one_holed_torus()
    worst_glue, worst_tra, worst_trb, worst_p = 0.0, 0.0, 0.0, 0.0
    for _ in range(100):
        params = sample_params(surf, rng)
        e1, e2, t1 = params.eigen[1], params.eigen[2], params.twist[1]
        if min(abs(t1 + 1), abs(t1 * e1 * e1 + 1)) < 1e-2:
            continue
        a, b, c, z1, z2 = sb.one_holed_to_shear(e1, e2, t1)
        for row in sb.one_holed_gluing_rows(e1):
            worst_glue = max(worst_glue, abs(sb.evaluate_gluing(row, [z1, z2])))
        ma, mb = sb.shear_rep_one_holed(a, b, c)
        # the curve matrix reproduces the interior-curve trace and the
        # transverse matrix the closed-form trace of the handle generator
        tra2 = complex(np.trace(ma.m)) ** 2
        worst_tra = max(worst_tra, abs(tra2 - (e1 + 1 / e1) ** 2)
                        / max(1.0, abs(tra2)))
        trb_formula, _ = co.one_holed_traces(e1, e2, t1)
        trb2 = complex(np.trace(mb.m)) ** 2
        worst_trb = max(worst_trb, abs(trb2 - trb_formula ** 2)
                        / max(1.0, abs(trb2)))
        # product identity of the pants shear parameters
        p1, p2, p3 = sb.pants_shear_params(e1, e2, e2)
        worst_p = max(worst_p, abs(1 / (p3 * p1) - e1 * e1))
        worst_p = max(worst_p, abs(p1 * p2 * p3 - 1 / (e1 * e2 * e2)))
    assert worst_glue < 1e-10, worst_glue
    assert worst_tra < 1e-9, worst_tra
    assert worst_trb < 1e-9, worst_trb
    assert worst_p < 1e-12, worst_p


def test_09_projective_core_randomized():
    rng = np.random.default_rng(109)

    def point(allow_inf=True):
        if allow_inf and rng.uniform() < 0.05:
            return INF
        return as_point(rand_c(rng))

    def rand_map():
        while True:
            m = np.array([[rand_c(rng), rand_c(rng)], [rand_c(rng), rand_c(rng)]])
            if abs(np.linalg.det(m)) > 0.5:
                from pantsrep.projective import MoebiusMap
                return MoebiusMap(m)

    n = 10 ** 4
    worst = 0.0
    for _ in range(n):
        pts = [point() for _ in range(4)]
        try:
            cr1 = cross_ratio(*pts)
        except DegenerateInputError:
            continue
        if abs(cr1) > 1e3:
            continue
        m = rand_map()
        cr2 = cross_ratio(*(m.apply(p) for p in pts))
        worst = max(worst, abs(cr1 - cr2) / max(1.0, abs(cr1)))
    assert worst < 1e-10, worst

    worst = 0.0
    for _ in range(n):
        e = rand_c(rng)
        if abs(e) < 0.1:
            continue
        x, y = point(), point()
        if x.same_as(y, tol=1e-3):
            continue
        m = mobius_with_axis(e, x, y)
        worst = max(worst, abs(m.det() - 1))
        worst = max(worst, abs(m.trace() - (e + 1 / e)) / max(1.0, abs(e)))
        for p, lam in ((x, e), (y, 1 / e)):
            q = m.apply(p)
            assert q.same_as(p, tol=1e-8)
    assert worst < 1e-10, worst

    worst = 0.0
    for _ in range(n):
        src = [point() for _ in range(3)]
        dst = [point() for _ in range(3)]
        ok = True
        for t in (src, dst):
            for i in range(3):
                for j in range(i + 1, 3):
                    if t[i].same_as(t[j], tol=1e-3):
                        ok = False
        if not ok:
            continue
        m = three_point_map(src, dst)
        for p, q in zip(src, dst):
            assert m.apply(p).same_as(q, tol=1e-10)
        # uniqueness: the two-way composite is projectively the identity
        back = three_point_map(dst, src)
        comp = m.m @ back.m
        off = max(abs(comp[0, 1]), abs(comp[1, 0])) / np.abs(comp).max()
        diag = abs(comp[0, 0] - comp[1, 1]) / np.abs(comp).max()
        worst = max(worst, off, diag)
    assert worst < 1e-10, worst
