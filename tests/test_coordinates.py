"""Eigenvalue-twist coordinates: propagation, twist recovery, trace formulas."""

from fractions import Fraction

import numpy as np
import pytest

from pantsrep import builder, coordinates as co, surface as su
from pantsrep.coordinates import EdgeParams
from pantsrep.projective import (INF, DegenerateInputError, ProjectivePoint, as_point,
                                 cross_ratio)

from pantsrep import projective

from helpers import caterpillar, handle_chain, outcome, rand_c, same_outcome, sample_params

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


@pytest.mark.parametrize("part, value", [("eigen", complex("nan")), ("twist", complex("nan")),
                                         ("twist", complex("inf")), ("twist", complex("-inf"))])
def test_in_domain_rejects_non_finite_values(part, value):
    # build checks the domain first, so it raises instead of returning NaN images
    surf = su.four_holed_sphere()
    params = sample_params(surf, np.random.default_rng(20261018))
    getattr(params, part)[1] = value
    assert not co.in_domain(params, surf)
    with pytest.raises(DegenerateInputError):
        builder.build(surf, params)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_in_domain_refuses_a_tol_that_switches_the_tests_off(tol):
    # at tol = nan every comparison is False, so an eigenvalue of 1 passed
    surf = su.four_holed_sphere()
    params = sample_params(surf, np.random.default_rng(20261021))
    params.eigen[1] = 1.0
    with pytest.raises(ValueError) as info:
        co.in_domain(params, surf, tol=tol)
    assert info.type is ValueError and str(info.value).startswith("tol = %r: " % tol), info.value


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
    # keys must be written as str(int(key)) writes them, so no two name one edge
    {"eigen": {"1": [-2, 0], "01": [-3, 0], "2": [1.5, 1]}, "twist": {}},
    {"eigen": {" 2": [-2.0, 0.0]}, "twist": {}}, {"eigen": {"+3": [-2.0, 0.0]}, "twist": {}},
    {"eigen": {"1_0": [-2.0, 0.0]}, "twist": {}}, {"eigen": {}, "twist": {"-0": [1.0, 0.0]}},
    {"eigen": {"None": [-2.0, 0.0]}, "twist": {}},
])
def test_params_from_json_rejects_malformed_documents(doc):
    with pytest.raises(co.ParamsSchemaError):
        co.params_from_json(doc)
    assert issubclass(co.ParamsSchemaError, ValueError)


def test_params_from_json_names_a_non_canonical_key():
    doc = {"eigen": {"1": [-2, 0], "01": [-3, 0], "2": [1.5, 1]}, "twist": {}}
    with pytest.raises(co.ParamsSchemaError, match=r"^eigen key '01' is not an edge id$"):
        co.params_from_json(doc)
    assert co.params_from_json({"eigen": {"-1": [-2, 0], "10": [1.5, 1]}, "twist": {}}).eigen == {
        -1: -2 + 0j, 10: 1.5 + 1j}


@pytest.mark.parametrize("value", [complex(float("nan"), 0), complex(1, float("inf"))])
def test_save_params_refuses_a_non_finite_value_and_writes_no_file(tmp_path, value):
    path = tmp_path / "params.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        co.save_params(EdgeParams({1: value}, {}), path)
    assert not path.exists()


def _reference_best_variant(xs):
    """best_twist_from_fixed_points' choice as first written: per variant and
    pair.  A variant with a NaN spread never wins, and without a winner the
    choice raises as the kernel does."""
    needed = {1: (5, 3, 1, 2), 2: (4, 3, 1, 2), 3: (2, 4, 1, 5), 4: (3, 4, 1, 5)}
    best, score = None, -1.0
    for variant, idx in needed.items():
        try:
            pts = [as_point(xs[i]) for i in idx]
        except KeyError:
            continue
        spreads = [
            abs(p.num * q.den - q.num * p.den)
            / (max(abs(p.num), abs(p.den)) * max(abs(q.num), abs(q.den)))
            for i, p in enumerate(pts)
            for q in pts[i + 1:]
        ]
        m = min(spreads)
        if m > score and not any(d != d for d in spreads):
            best, score = variant, m
    if best is None:
        raise DegenerateInputError("no variant has a finite spread", factor="x1 .. x5")
    return best


def test_twist_recovery_refuses_what_no_variant_can_read():
    es = (-2, -1.5, -2.5, -1.75, -3)
    with pytest.raises(ValueError) as info:
        co.twist_from_fixed_points(5, es, {i: i for i in range(1, 6)})
    assert (info.type, str(info.value)) == (ValueError, "variant must be 1, 2, 3 or 4")
    # NaN points have no spread, so no variant is better conditioned
    nan = float("nan")
    with pytest.raises(DegenerateInputError) as info:
        co.best_twist_from_fixed_points(es, {i: nan for i in range(1, 6)})
    assert (str(info.value), info.value.factor) == ("no variant has a finite spread", "x1 .. x5")


def test_best_twist_picks_the_reference_variant(monkeypatch):
    rng = np.random.default_rng(404)
    chosen = []
    real = co.twist_from_fixed_points
    pick = co._best_variant

    def spy(x):
        chosen.append(pick(x))
        return chosen[-1]

    monkeypatch.setattr(co, "_best_variant", spy)

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
        except (ArithmeticError, DegenerateInputError) as ex:
            # tiny pairs: a scale product underflows to 0; huge pairs: the
            # products overflow, and a NaN spread can rule out every variant
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


def test_best_twist_skips_a_variant_with_a_nan_spread():
    # a NaN spread anywhere in a variant's six rules it out, not only when
    # it is the first spread min() sees
    nan = float("nan")
    es = (-2 + 0.1j, -1.5, -2.5 + 0.2j, -1.75, -3 + 0.3j)
    xs = {1: 0.3, 2: nan, 3: "inf", 4: 2 + 1j, 5: -1 + 0.5j}
    got = co.best_twist_from_fixed_points(es, xs)
    assert got == co.twist_from_fixed_points(4, es, xs)
    assert abs(got - (-1.1833 + 0.1425j)) < 1e-4
    # variants 1-4 read {1,2,3,5}, {1,2,3,4}, {1,2,4,5} and {1,3,4,5}
    unread = {2: 4, 3: 3, 4: 1, 5: 2}
    plain = {1: 0.3, 2: -0.4 + 1.1j, 3: "inf", 4: 2 + 1j, 5: -1 + 0.5j}
    for i, variant in unread.items():
        for bad in (nan, complex(nan, 1), ProjectivePoint(1, nan)):
            xs = dict(plain)
            xs[i] = bad
            p = {k: as_point(v) for k, v in xs.items()}
            assert co._best_variant({k: (q.num, q.den) for k, q in p.items()}) == variant
            assert co.best_twist_from_fixed_points(es, xs) == co.twist_from_fixed_points(variant, es, xs)
    with pytest.raises(DegenerateInputError) as info:
        co.best_twist_from_fixed_points(es, {**plain, 1: nan})
    assert (type(info.value), str(info.value), info.value.factor) == (
        DegenerateInputError, "no variant has a finite spread", "x1 .. x5")


def _reference_best_variant_max(x):
    """_best_variant as first written: each scale through max()."""
    (n1, d1), (n2, d2), (n3, d3), (n4, d4), (n5, d5) = x[1], x[2], x[3], x[4], x[5]
    s5, s3 = max(abs(n5), abs(d5)), max(abs(n3), abs(d3))
    s1, s2 = max(abs(n1), abs(d1)), max(abs(n2), abs(d2))
    d35, d15 = abs(n3 * d5 - n5 * d3) / (s3 * s5), abs(n1 * d5 - n5 * d1) / (s1 * s5)
    d25, d13 = abs(n2 * d5 - n5 * d2) / (s2 * s5), abs(n1 * d3 - n3 * d1) / (s1 * s3)
    d23, d12 = abs(n2 * d3 - n3 * d2) / (s2 * s3), abs(n1 * d2 - n2 * d1) / (s1 * s2)
    s4 = max(abs(n4), abs(d4))
    d34, d14 = abs(n3 * d4 - n4 * d3) / (s3 * s4), abs(n1 * d4 - n4 * d1) / (s1 * s4)
    d24 = abs(n2 * d4 - n4 * d2) / (s2 * s4)
    d45 = abs(n4 * d5 - n5 * d4) / (s4 * s5)
    ds = [-1.0 if v != v else v for v in (d35, d15, d25, d13, d23, d12, d34, d14, d24, d45)]
    d35, d15, d25, d13, d23, d12, d34, d14, d24, d45 = ds
    best, score = None, -1.0
    for variant, m in enumerate((min(d35, d15, d25, d13, d23, d12), min(d34, d14, d24, d13, d23, d12),
                                 min(d24, d12, d25, d14, d45, d15), min(d34, d13, d35, d14, d45, d15)),
                                start=1):
        if m > score:
            best, score = variant, m
    if best is None:
        raise DegenerateInputError("no variant has a finite spread", factor="x1 .. x5")
    return best


def test_best_variant_equals_its_max_form():
    # points with a NaN, zero, huge or tiny coordinate on either side of the
    # pair, so that max(|num|, |den|) meets NaN in first and in second place
    rng = np.random.default_rng(2807)
    nan = complex(float("nan"), 0)
    special = [(nan, 1 + 0j), (1 + 0j, nan), (nan, nan), (0j, 1 + 0j), (1 + 0j, 0j),
               (1e300 + 0j, 1 + 0j), (1 + 0j, 1e-300 + 0j), (complex(1e200, 1e200), 1 + 0j)]
    for _ in range(4000):
        xs = [None]
        for _ in range(5):
            kind = rng.integers(4)
            if kind == 0:
                xs.append(special[rng.integers(len(special))])
            elif kind == 1 and len(xs) > 1:
                xs.append(xs[rng.integers(1, len(xs))])
            else:
                xs.append((rand_c(rng), rand_c(rng)))
        assert same_outcome(co._best_variant, _reference_best_variant_max, tuple(xs)), xs


def _reference_ratio_point(a, b, c, x1, x2, x3):
    """_ratio_point as first written, through _pair."""
    pair = projective._pair
    w1, w2, w3 = a * pair(x2, x3), b * pair(x3, x1), c * pair(x1, x2)
    num = w1 * x1[0] + w2 * x2[0] + w3 * x3[0]
    den = w1 * x1[1] + w2 * x2[1] + w3 * x3[1]
    s = projective._vanishing(max(abs(num), abs(den)), "(num : den)")
    return num / s, den / s


def test_ratio_point_equals_its_pair_form():
    rng = np.random.default_rng(2006)
    nan = complex(float("nan"), 0)
    special = [(1 + 0j, 0j), (0j, 1 + 0j), (nan, 1 + 0j), (2, 1), (1, 0)]
    for _ in range(3000):
        pts = []
        for _ in range(3):
            kind = rng.integers(5)
            z = rand_c(rng)
            if kind == 0:
                s = 10.0 ** rng.integers(100, 300)
                pts.append((z * s, complex(s)))
            elif kind == 1:
                pts.append(special[rng.integers(len(special))])
            elif kind == 2 and pts:
                pts.append(pts[-1])
            else:
                pts.append((z, 1 + 0j))
        coeffs = [rand_c(rng) for _ in range(3)]
        assert same_outcome(co._ratio_point, _reference_ratio_point, *coeffs, *pts)
    for coeffs in ((1, 2, 3), (0, 0, 1), (0, 0, 0)):
        assert same_outcome(co._ratio_point, _reference_ratio_point, *coeffs, (0, 1), (1, 0), (1, 1))


# ---------------------------------------------------------------------------
# propagation is written once: crossing back is the forward formula read from
# the head, which equals, by == with NaN equal to NaN, the backward formula
# as first written

def _reference_forward(es, t1, x1, x2, x3):
    """_forward as first written, with the factor test inside the kernel."""
    e1, e2, e3, e4, e5 = es
    f15_4 = e1 * e5 - e4
    a4 = e1 * (-(e1 * e3 - e2) * (e1 * e4 - e5) * t1 + e3 * f15_4)
    b4 = e1 * e1 * e2 * f15_4
    c4 = e2 * f15_4
    projective._vanishing(f15_4, "e1 e5 - e4", co._FACTOR_TOL * (abs(e1 * e5) + abs(e4)))
    x4 = co._ratio_point(a4, b4, c4, x1, x2, x3)
    a5 = (e1 * e3 - e2) * t1 + e1 * e3
    x5 = co._ratio_point(a5, e1 * e1 * e2, e2, x1, x2, x3)
    return x4, x5


def _reference_backward(es, t1, x1, x4, x5):
    """The backward formula as first written, term by term."""
    e1, e2, e3, e4, e5 = es
    s = 1 / t1
    a2 = (e1 * e5 - e4) * s + e1 * e5
    x2 = co._ratio_point(a2, e1 * e1 * e4, e4, x1, x5, x4)
    f13_2 = e1 * e3 - e2
    projective._vanishing(f13_2, "e1 e3 - e2", co._FACTOR_TOL * (abs(e1 * e3) + abs(e2)))
    a3 = e1 * (-(e1 * e5 - e4) * (e1 * e2 - e3) * s + e5 * f13_2)
    b3 = e1 * e1 * e4 * f13_2
    c3 = e4 * f13_2
    x3 = co._ratio_point(a3, b3, c3, x1, x5, x4)
    return x2, x3


def _reference_across(es, t1, xs, forward):
    step = _reference_forward if forward else _reference_backward
    return (xs[0],) + step(es, t1, *xs)


def _propagation_draw(rng):
    """es, t1 and three (num, den) points: random, huge, tiny or infinite
    points, a repeated point, and factors that vanish exactly or nearly."""
    inf = float("inf")
    es = [rand_c(rng) for _ in range(5)]
    # e1 e5 - e4 or e1 e3 - e2 vanishing exactly, or within the factor tolerance
    kind, near = rng.integers(3), (1.0, 1 + 1e-11)[rng.integers(2)]
    if kind == 1:
        es[3] = es[0] * es[4] * near
    elif kind == 2:
        es[1] = es[0] * es[2] * near
    xs = []
    for _ in range(3):
        z, which = rand_c(rng), rng.integers(7)
        if which == 1:
            s = 10.0 ** rng.integers(100, 300)
            xs.append((z * s, complex(s)))
        elif which == 2:
            s = 10.0 ** -rng.integers(100, 300)
            xs.append((z * s, complex(s)))
        elif which == 3:
            xs.append((1 + 0j, 0j))
        elif which == 4:
            xs.append((complex(inf, 0), 1 + 0j))
        elif which == 5 and xs:
            xs.append(xs[-1])
        else:
            xs.append((z, 1 + 0j))
    return tuple(es), rand_c(rng), tuple(xs)


def _same_but_for_the_precedence(es, t1, xs, forward):
    """_across and the reference agree, or cross back where both e1 e3 - e2
    and what the reference tests before it (t1, x2's (num : den)) vanish."""
    if same_outcome(co._across, _reference_across, es, t1, xs, forward):
        return True
    got, want = outcome(co._across, es, t1, xs, forward), outcome(_reference_across, es, t1, xs, forward)
    return (not forward and got[::2] == (DegenerateInputError, "e1 e3 - e2")
            and (want[0] is ZeroDivisionError or want[2:] == ("(num : den)",)))


def test_across_equals_the_two_formulas_as_first_written():
    rng = np.random.default_rng(2022)
    for _ in range(4000):
        es, t1, xs = _propagation_draw(rng)
        for forward in (True, False):
            assert _same_but_for_the_precedence(es, t1, xs, forward), (es, t1, xs, forward)
    # exact inputs stay exact
    for _ in range(300):
        es = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(5))
        t1 = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        xs = tuple((Fraction(int(rng.integers(-9, 10))), Fraction(int(rng.integers(0, 3))))
                   for _ in range(3))
        for forward in (True, False):
            assert _same_but_for_the_precedence(es, t1, xs, forward), (es, t1, xs, forward)


@pytest.mark.parametrize("t1, xs", [(0j, ((0j, 1 + 0j), (1 + 0j, 0j), (1 + 0j, 1 + 0j))),
                                    (1 + 1j, ((0j, 1 + 0j), (0j, 1 + 0j), (0j, 1 + 0j)))],
                         ids=["zero-twist", "x2-vanishes"])
def test_crossing_back_names_e1_e3_minus_e2_first(t1, xs):
    # the one precedence the single formula changes: when e1 e3 - e2
    # vanishes together with t1, or with x2's (num : den), the factor test,
    # which now comes first, names e1 e3 - e2
    es = (2 + 0j, 6 + 0j, 3 + 0j, 1 + 1j, 1 - 1j)
    got = outcome(co._across, es, t1, xs, False)
    assert got == (DegenerateInputError, "vanishing factor e1 e3 - e2 = 0j", "e1 e3 - e2")
    want = outcome(_reference_across, es, t1, xs, False)
    assert want[0] is (ZeroDivisionError if t1 == 0 else DegenerateInputError) and want != got


def _reference_picture_es(eigen, edge, nbrs):
    """_picture_es as first written: one _end_eigen call per neighbor slot."""
    (i2, n2), (i3, n3), (i4, n4), (i5, n5) = nbrs
    return (eigen[edge], co._end_eigen(eigen[i2], n2), co._end_eigen(eigen[i3], n3),
            co._end_eigen(eigen[i4], n4), co._end_eigen(eigen[i5], n5))


def test_picture_es_equals_the_end_eigen_form():
    # every interior edge of the fixtures and two families, at seeded values
    # and at 0, +-1, infinities, NaN and 1e+-300 (1/0 raises in both forms)
    rng = np.random.default_rng(2803)
    nan, inf = complex(float("nan"), 0), complex(float("inf"), 0)
    special = [0j, 0.0, 0, 1, -1, 1 + 0j, inf, -inf, complex(0, float("inf")), nan,
               complex(1e300, 0), complex(1e-300, 1e-300), 1e-320, Fraction(1, 3)]
    surfaces = [su.four_holed_sphere(), su.one_holed_torus(), su.genus_two(),
                handle_chain(3), caterpillar(5)]
    for surf in surfaces:
        graph = surf.graph
        for edge in graph.interior_edges():
            nbrs = su._picture_slots(graph, edge)[2]
            for _ in range(60):
                eigen = {eid: rand_c(rng) if rng.integers(3) else special[rng.integers(len(special))]
                         for eid in graph.edges}
                assert same_outcome(co._picture_es, _reference_picture_es, eigen, edge, nbrs)
