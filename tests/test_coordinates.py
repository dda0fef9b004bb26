"""Eigenvalue-twist coordinates: propagation, twist recovery, trace formulas."""

import numpy as np
import pytest

from pantsrep import builder, coordinates as co, surface as su
from pantsrep.coordinates import EdgeParams
from pantsrep.projective import (INF, DegenerateInputError, ProjectivePoint, as_point,
                                 cross_ratio)

from helpers import rand_c, sample_params

RNG = np.random.default_rng(20240903)


def random_edge_data():
    es = tuple(rand_c(RNG) for _ in range(5))
    t1 = rand_c(RNG)
    xs = (INF, as_point(1), as_point(0))
    return es, t1, xs


def test_in_domain_and_key_checks():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    assert co.in_domain(params, surf)
    # eigenvalue at a forbidden value
    eigen = dict(params.eigen)
    eigen[2] = 1.0
    assert not co.in_domain(EdgeParams(eigen, dict(params.twist)), surf)
    # zero twist
    bad = EdgeParams(dict(params.eigen), {1: 0.0})
    assert not co.in_domain(bad, surf)
    # reducible vertex triple: e2 = e1 e3 at vertex 0
    e = dict(params.eigen)
    e[2] = e[1] * e[3]
    assert not co.in_domain(EdgeParams(e, dict(params.twist)), surf)
    # mismatched key sets raise rather than return False
    with pytest.raises(KeyError):
        co.in_domain(EdgeParams({1: -2.0}, dict(params.twist)), surf)
    with pytest.raises(KeyError):
        co.in_domain(EdgeParams(dict(params.eigen), {}), surf)


def test_propagation_forward_backward_inverse():
    for _ in range(50):
        es, t1, (x1, x2, x3) = random_edge_data()
        try:
            x4, x5 = co.propagate_forward(es, t1, x1, x2, x3)
            x2b, x3b = co.propagate_backward(es, t1, x1, x4, x5)
        except DegenerateInputError:
            continue
        assert x2b.same_as(x2, tol=1e-8)
        assert x3b.same_as(x3, tol=1e-8)


def test_propagation_matches_closed_form():
    # with (x1, x2, x3) = (inf, 1, 0) the propagated points have explicit
    # rational expressions in the parameters
    for _ in range(30):
        es, t1, (x1, x2, x3) = random_edge_data()
        e1, e2, e3, e4, e5 = es
        try:
            x4, x5 = co.propagate_forward(es, t1, x1, x2, x3)
        except DegenerateInputError:
            continue
        want4 = (e1 * (e1 * e3 - e2) * (e1 * e4 - e5) * t1 + e1 * (e1 * e2 - e3) * (e1 * e5 - e4)) / (
            (e1 * e1 - 1) * e2 * (e1 * e5 - e4)
        )
        want5 = (-(e1 * e3 - e2) * t1 + e1 * (e1 * e2 - e3)) / ((e1 * e1 - 1) * e2)
        assert x4.same_as(as_point(want4), tol=1e-9)
        assert x5.same_as(as_point(want5), tol=1e-9)


def test_gluing_map_carries_x2_to_x5():
    for _ in range(50):
        es, t1, (x1, x2, x3) = random_edge_data()
        e1 = es[0]
        try:
            x4, x5 = co.propagate_forward(es, t1, x1, x2, x3)
            # y1 is the companion fixed point of the edge map at (inf, 1, 0):
            # the matrix fixing inf with eigenvalue e1 and trace e1 + 1/e1
            # determined by the vertex triple fixes y1 = (e3/e2-e1)/(1/e1-e1)
            y1 = (es[2] / es[1] - e1) / (1 / e1 - e1)
            g = co.gluing_map(t1, x1, as_point(y1))
        except DegenerateInputError:
            continue
        assert g.apply(x2).same_as(x5, tol=1e-7)


def test_twist_variants_agree():
    for _ in range(50):
        es, t1, (x1, x2, x3) = random_edge_data()
        try:
            x4, x5 = co.propagate_forward(es, t1, x1, x2, x3)
            xs = {1: x1, 2: x2, 3: x3, 4: x4, 5: x5}
            vals = [co.twist_from_fixed_points(v, es, xs) for v in (1, 2, 3, 4)]
            best = co.best_twist_from_fixed_points(es, xs)
        except DegenerateInputError:
            continue
        for v in vals + [best]:
            assert abs(v - t1) < 1e-7 * max(1.0, abs(t1))


def test_four_holed_traces_match_matrices():
    surf = su.four_holed_sphere()
    for _ in range(30):
        params = sample_params(surf, RNG)
        rep = builder.build(surf, params)
        lp = co.local_picture(surf, params, 1)
        tr34, tr24, tr35 = co.four_holed_traces(lp.es, lp.t1)
        # generators d1..d4 are the boundary loops of edges 2..5
        m = {i: rep.image("d%d" % i).m for i in range(1, 5)}
        assert abs(np.trace(m[2] @ m[3]) - tr34) < 1e-9
        assert abs(np.trace(m[1] @ m[3]) - tr24) < 1e-9
        assert abs(np.trace(m[2] @ m[4]) - tr35) < 1e-9


def test_twist_from_traces_four_holed():
    surf = su.four_holed_sphere()
    for _ in range(30):
        params = sample_params(surf, RNG)
        lp = co.local_picture(surf, params, 1)
        _, tr24, tr35 = co.four_holed_traces(lp.es, lp.t1)
        t1 = co.twist_from_traces_four_holed(lp.es, tr24, tr35)
        assert abs(t1 - lp.t1) < 1e-8 * max(1.0, abs(lp.t1))


def test_one_holed_traces_match_matrices():
    surf = su.one_holed_torus()
    for _ in range(30):
        params = sample_params(surf, RNG)
        rep = builder.build(surf, params)
        e1, e2, t1 = params.eigen[1], params.eigen[2], params.twist[1]
        trb, trab = co.one_holed_traces(e1, e2, t1)
        ma, mb = rep.image("a1").m, rep.image("b1").m
        assert abs(np.trace(ma) - (e1 + 1 / e1)) < 1e-9
        assert abs(np.trace(mb) ** 2 - trb ** 2) < 1e-8
        assert abs(np.trace(ma @ mb) ** 2 - trab ** 2) < 1e-8
        t1b = co.twist_from_traces_one_holed(e1, e2, trb, trab)
        assert abs(t1b - t1) < 1e-8 * max(1.0, abs(t1))


def test_local_picture_structure():
    surf = su.genus_two()
    params = sample_params(surf, RNG)
    for eid in (1, 2, 3):
        lp = co.local_picture(surf, params, eid)
        assert lp.edge == eid
        assert lp.es[0] == params.eigen[eid]
        assert lp.t1 == params.twist[eid]
        g = surf.graph
        # adjusted values: eigenvalue at a tail, inverse at a head
        for val, (nid, end) in zip(lp.es[1:], lp.neighbor_slots):
            want = params.eigen[nid] if end == "tail" else 1 / params.eigen[nid]
            assert val == want


def test_local_picture_rejects_boundary():
    surf = su.four_holed_sphere()
    params = sample_params(surf, RNG)
    with pytest.raises(ValueError):
        co.local_picture(surf, params, 2)


def test_params_json_roundtrip(tmp_path):
    surf = su.genus_two()
    params = sample_params(surf, RNG)
    doc = co.params_to_json(params)
    back = co.params_from_json(doc)
    for eid in params.eigen:
        assert abs(back.eigen[eid] - params.eigen[eid]) < 1e-15
    for eid in params.twist:
        assert abs(back.twist[eid] - params.twist[eid]) < 1e-15
    path = tmp_path / "params.json"
    co.save_params(params, path)
    again = co.load_params(path)
    assert again.eigen == back.eigen and again.twist == back.twist


@pytest.mark.parametrize("doc", [
    [], {"eigen": {"1": [2.0, 0.0]}}, {"eigen": {"1": [2.0, 0.0]}, "twist": []},
    {"eigen": {"1": "x"}, "twist": {}}, {"eigen": {"1": [float("nan"), 0.0]}, "twist": {}},
    {"eigen": {"1": [2.0, float("-inf")]}, "twist": {}}, {"eigen": {"1": [2.0]}, "twist": {}},
    {"eigen": {"1": [True, 0.0]}, "twist": {}}, {"eigen": {"1": None}, "twist": {}},
    {"eigen": {"a": [2.0, 0.0]}, "twist": {}}, {"eigen": {}, "twist": {"1": [0.0, float("nan")]}},
])
def test_params_from_json_rejects_malformed_documents(doc):
    with pytest.raises(co.ParamsSchemaError):
        co.params_from_json(doc)
    assert issubclass(co.ParamsSchemaError, ValueError)


def _reference_best_variant(xs):
    """best_twist_from_fixed_points' choice as first written: per variant and pair."""
    needed = {1: (5, 3, 1, 2), 2: (4, 3, 1, 2), 3: (2, 4, 1, 5), 4: (3, 4, 1, 5)}
    best, score = None, -1.0
    for variant, idx in needed.items():
        try:
            pts = [as_point(xs[i]) for i in idx]
        except KeyError:
            continue
        m = min(
            abs(p.num * q.den - q.num * p.den)
            / (max(abs(p.num), abs(p.den)) * max(abs(q.num), abs(q.den)))
            for i, p in enumerate(pts)
            for q in pts[i + 1:]
        )
        if m > score:
            best, score = variant, m
    return best


def test_best_twist_picks_the_reference_variant(monkeypatch):
    rng = np.random.default_rng(404)
    chosen = []
    real = co.twist_from_fixed_points

    def spy(variant, es, xs):
        chosen.append(variant)
        return real(variant, es, xs)

    monkeypatch.setattr(co, "twist_from_fixed_points", spy)

    def point(kind):
        z = rand_c(rng)
        if kind == "inf":
            return INF
        if kind == "huge":    # homogeneous pairs whose products overflow
            s = 10.0 ** rng.integers(150, 300)
            return ProjectivePoint(z * s, s)
        if kind == "tiny":
            s = 10.0 ** -rng.integers(150, 300)
            return ProjectivePoint(z * s, s)
        if kind == "tie":     # a repeat of x1 makes several variants score 0
            return None
        return z

    kinds = ["plain"] * 6 + ["inf", "huge", "tiny", "tie"]
    for _ in range(400):
        es = tuple(rand_c(rng) for _ in range(5))
        xs = {1: rand_c(rng)}
        for i in range(2, 6):
            x = point(kinds[rng.integers(len(kinds))])
            xs[i] = xs[1] if x is None else x
        chosen.clear()
        try:
            want = _reference_best_variant(xs)
        except ArithmeticError as ex:  # tiny pairs: a scale product underflows to 0
            with pytest.raises(type(ex)):
                co.best_twist_from_fixed_points(es, xs)
            assert chosen == []
            continue
        try:
            want_value = real(want, es, xs)
        except (ArithmeticError, ValueError) as ex:
            with pytest.raises(type(ex)):
                co.best_twist_from_fixed_points(es, xs)
            assert chosen == [want]
            continue
        got = co.best_twist_from_fixed_points(es, xs)
        assert chosen == [want]
        assert got == want_value or (got != got and want_value != want_value)
