"""Moebius maps, projective points and cross ratios."""

import cmath
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pantsrep.projective import (
    INF,
    DegenerateInputError,
    MoebiusMap,
    ProjectivePoint,
    SingularMapError,
    as_point,
    axis_transport_squared,
    cross_ratio,
    fixed_points_with_eigs,
    mobius_with_axis,
    sl_normalize,
    sqrt_principal,
    three_point_map,
)
from pantsrep import projective

from helpers import same_outcome

RNG = np.random.default_rng(20240901)


def rand_c(lo=-3.0, hi=3.0):
    return complex(RNG.uniform(lo, hi), RNG.uniform(lo, hi))


def rand_map():
    while True:
        m = np.array([[rand_c(), rand_c()], [rand_c(), rand_c()]])
        if abs(np.linalg.det(m)) > 1e-3:
            return MoebiusMap(m)


def test_point_identifications():
    assert as_point(2.0).same_as(ProjectivePoint(4, 2))
    assert as_point(2.0) == ProjectivePoint(4, 2)
    assert INF.same_as(ProjectivePoint(-3, 0))
    assert not INF.same_as(as_point(0))
    assert as_point(INF) is INF or as_point(INF).same_as(INF)


@pytest.mark.parametrize("z, want", [
    (np.float64(2.5), 2.5), (np.complex128(1 - 2j), 1 - 2j), (np.int64(-3), -3),
    (np.float32(0.5), 0.5), (Fraction(3, 4), 0.75), (True, 1),
])
def test_as_point_takes_any_complex_number(z, want):
    p = as_point(z)
    assert p.den == 1 and p.num == want and type(p.num) is complex


@pytest.mark.parametrize("z", [np.float64("inf"), -np.float64("inf"), float("inf"), "inf"])
def test_as_point_maps_infinity_to_inf(z):
    assert as_point(z) is INF


@pytest.mark.parametrize("z, error", [
    (np.bool_(True), TypeError), (Decimal(1), TypeError), (None, TypeError), ([1, 0], TypeError),
    ("x", ValueError), ("1", ValueError),
])
def test_as_point_rejects_non_numbers(z, error):
    with pytest.raises(error):
        as_point(z)


def test_points_are_unhashable_and_print_their_value():
    # equality is tolerant, so no hash can agree with it
    with pytest.raises(TypeError) as info:
        hash(INF)
    assert str(info.value) == "ProjectivePoint is not hashable (tolerant equality)"
    assert repr(INF) == repr(ProjectivePoint(-3, 0)) == "ProjectivePoint(inf)"
    assert repr(ProjectivePoint(5, 2)) == "ProjectivePoint((2.5+0j))"


def test_zero_over_zero_is_no_point_and_a_point_equals_no_string():
    with pytest.raises(ValueError, match=r"^\(0 : 0\) is not a point of CP\^1$"):
        ProjectivePoint(0, 0)
    assert (ProjectivePoint(1) == "nope") is False


def test_a_map_called_on_a_point_applies_it():
    m = MoebiusMap((2, 1, 1, 1))
    for p, want in ((as_point(1), 1.5), (INF, 2.0), (as_point(-1), INF)):
        got = m(p)
        assert type(got) is ProjectivePoint and got.same_as(want) and got.same_as(m.apply(p))


def test_singular_matrix_rejected():
    with pytest.raises(SingularMapError):
        MoebiusMap(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_map_moves_infinity():
    m = MoebiusMap(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert m.apply(INF).same_as(as_point(2.0))
    # pole goes to infinity
    assert m.apply(as_point(-1.0)).same_as(INF)


def test_cross_ratio_normalization():
    for _ in range(50):
        z = rand_c()
        if abs(z) < 1e-6 or abs(z - 1) < 1e-6:
            continue
        assert abs(cross_ratio(as_point(0), INF, as_point(1), as_point(z)) - z) < 1e-12


def test_cross_ratio_moebius_invariance():
    for _ in range(100):
        pts = [rand_c() for _ in range(4)]
        m = rand_map()
        cr1 = cross_ratio(*pts)
        cr2 = cross_ratio(*(m.apply(as_point(p)) for p in pts))
        assert abs(cr1 - cr2) < 1e-9 * max(1.0, abs(cr1))


def test_cross_ratio_with_infinity():
    # [inf : x1 : x2 : x3] = (x2 - x1)/(x2 - inf) style degenerations stay finite
    val = cross_ratio(INF, as_point(0), as_point(1), as_point(3))
    # (x3-x0)(x2-x1)/((x3-x1)(x2-x0)) -> (x2-x1)/(x3-x1) = 1/3
    assert abs(val - 1 / 3) < 1e-12


def test_cross_ratio_coincident_points_raise():
    with pytest.raises(DegenerateInputError):
        cross_ratio(as_point(1), as_point(2), as_point(1), as_point(2))


def test_sqrt_principal_branch():
    assert sqrt_principal(4) == 2
    assert abs(sqrt_principal(-4) - 2j) < 1e-15
    for _ in range(100):
        z = rand_c()
        r = sqrt_principal(z)
        assert abs(r * r - z) < 1e-12
        assert r.imag > -1e-15


def test_mobius_with_axis():
    for _ in range(100):
        e = rand_c()
        if abs(e) < 0.1:
            continue
        x, y = rand_c(), rand_c()
        if abs(x - y) < 1e-3:
            continue
        m = mobius_with_axis(e, x, y)
        assert abs(m.det() - 1) < 1e-10
        assert abs(m.trace() - (e + 1 / e)) < 1e-9
        assert m.apply(as_point(x)).same_as(as_point(x))
        assert m.apply(as_point(y)).same_as(as_point(y))


def test_mobius_with_axis_at_infinity():
    e = 2.0 + 1.0j
    m = mobius_with_axis(e, INF, 0)
    assert sl_diff(m.m, np.array([[e, 0], [0, 1 / e]])) < 1e-12
    m2 = mobius_with_axis(e, 0, INF)
    assert sl_diff(m2.m, np.array([[1 / e, 0], [0, e]])) < 1e-12


def sl_diff(a, b):
    return min(np.abs(a - b).max(), np.abs(a + b).max())


def test_mobius_with_axis_degenerate():
    with pytest.raises(DegenerateInputError):
        mobius_with_axis(2.0, 1.0, 1.0)
    with pytest.raises(DegenerateInputError):
        mobius_with_axis(0.0, 0.0, 1.0)


def test_three_point_map():
    for _ in range(50):
        src = [rand_c() for _ in range(3)]
        dst = [rand_c() for _ in range(3)]
        if min(abs(p - q) for t in (src, dst) for i, p in enumerate(t) for q in t[i + 1 :]) < 1e-2:
            continue
        m = three_point_map(src, dst)
        for p, q in zip(src, dst):
            assert m.apply(as_point(p)).same_as(as_point(q), tol=1e-9)


def test_three_point_map_with_infinity():
    m = three_point_map((0, INF, 1), (INF, 0, 1))
    assert m.apply(as_point(0)).same_as(INF)
    assert m.apply(INF).same_as(as_point(0))
    assert m.apply(as_point(1)).same_as(as_point(1))


def test_three_point_map_degenerate():
    with pytest.raises(DegenerateInputError):
        three_point_map((0, 0, 1), (0, 1, INF))
    # a target triple that is not distinct is refused too
    with pytest.raises(DegenerateInputError) as info:
        three_point_map((0, 1, INF), (0, 0, 1))
    assert (str(info.value), info.value.factor) == ("triple is not pairwise distinct", "x_i - x_j")


def test_axis_transport():
    for _ in range(100):
        x, y, z1 = rand_c(), rand_c(), rand_c()
        t = rand_c()
        if min(abs(x - y), abs(z1 - x), abs(z1 - y), abs(t)) < 1e-2:
            continue
        m = mobius_with_axis(t, x, y)
        z2 = m.apply(as_point(z1))
        t2 = axis_transport_squared(x, y, z1, z2)
        assert abs(t2 - t * t) < 1e-8 * max(1.0, abs(t) ** 2)


def test_axis_transport_on_axis_raises():
    with pytest.raises(DegenerateInputError):
        axis_transport_squared(0, INF, 0, 1)


def test_sl_normalize():
    for _ in range(50):
        m = rand_map()
        s = sl_normalize(m)
        assert abs(s.det() - 1) < 1e-10
        # same projective map
        assert s.apply(as_point(0.3)).same_as(m.apply(as_point(0.3)))
        # idempotent, and stable under input rescaling
        again = sl_normalize(MoebiusMap(-5.0 * m.m))
        assert np.abs(s.m - again.m).max() < 1e-9


def test_fixed_points_with_eigs_roundtrip():
    for _ in range(100):
        e = rand_c()
        if abs(abs(e) - 1) < 0.05 or abs(e) < 0.1:
            continue
        x, y = rand_c(), rand_c()
        if abs(x - y) < 1e-2:
            continue
        m = mobius_with_axis(e, x, y)
        fx, fe, fy = fixed_points_with_eigs(m)
        want = e if abs(e) > 1 else 1 / e
        assert abs(fe - want) < 1e-8 * max(1.0, abs(want))
        px, py = (x, y) if abs(e) > 1 else (y, x)
        assert fx.same_as(as_point(px), tol=1e-7)
        assert fy.same_as(as_point(py), tol=1e-7)


def test_fixed_points_parabolic_raises():
    m = MoebiusMap(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DegenerateInputError):
        fixed_points_with_eigs(m)


@given(
    st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
    st.integers(1, 5), st.integers(-5, 5),
)
@settings(max_examples=200, deadline=None)
def test_cross_ratio_invariance_integer_maps(z0, z1, z2, z3, a, b):
    pts = [z0, z1 + 0.5, z2 + 0.25, z3 + 0.125]
    assume(a * (a + 1) - b != 0)
    m = MoebiusMap(np.array([[a, b], [1.0, a + 1.0]], dtype=complex))
    cr1 = cross_ratio(*pts)
    cr2 = cross_ratio(*(m.apply(as_point(p)) for p in pts))
    assert abs(cr1 - cr2) < 1e-9 * max(1.0, abs(cr1))


# ---------------------------------------------------------------------------
# the scalar 2x2 core against numpy references built from .m; each test
# seeds its own generator so the shared RNG stream above is left as it was

def _rng_c(rng, lo=-3.0, hi=3.0):
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


def _rng_map(rng):
    while True:
        m = np.array([[_rng_c(rng), _rng_c(rng)], [_rng_c(rng), _rng_c(rng)]])
        if abs(np.linalg.det(m)) > 1e-3:
            return MoebiusMap(m)


def _rel_err(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


def _np_adj(a):
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])


def _np_point(p):
    return np.array([p.num, p.den])


def _np_from_standard(x1, x2, x3):
    d31 = x3.num * x1.den - x1.num * x3.den
    d23 = x2.num * x3.den - x3.num * x2.den
    return np.array([[x2.num * d31, x1.num * d23], [x2.den * d31, x1.den * d23]])


def test_scalar_matmul_and_inverse_match_numpy():
    rng = np.random.default_rng(7001)
    for _ in range(500):
        m, n = _rng_map(rng), _rng_map(rng)
        assert _rel_err((m @ n).m, m.m @ n.m) <= 1e-12
        assert _rel_err(m.inverse().m, _np_adj(m.m)) <= 1e-12
        assert _rel_err((-m).m, -m.m) == 0
        assert abs(m.det() - np.linalg.det(m.m)) <= 1e-12 * np.abs(m.m).max() ** 2
        assert m.trace() == np.trace(m.m)
        z = as_point(_rng_c(rng))
        img = m.m @ _np_point(z)
        assert m.apply(z).same_as(ProjectivePoint(img[0], img[1]), tol=1e-12)


def test_scalar_three_point_map_matches_numpy():
    rng = np.random.default_rng(7002)
    checked = 0
    for _ in range(500):
        src = [as_point(_rng_c(rng)) for _ in range(3)]
        dst = [as_point(_rng_c(rng)) for _ in range(3)]
        if rng.uniform() < 0.2:
            src[rng.integers(3)] = INF
        try:
            m = three_point_map(src, dst)
        except DegenerateInputError:
            continue
        want = _np_from_standard(*dst) @ _np_adj(_np_from_standard(*src))
        assert _rel_err(m.m, want) <= 1e-12
        checked += 1
    assert checked > 450


def test_scalar_mobius_with_axis_matches_numpy():
    rng = np.random.default_rng(7003)
    for _ in range(500):
        e = _rng_c(rng)
        x, y = as_point(_rng_c(rng)), as_point(_rng_c(rng))
        if rng.uniform() < 0.2:
            x = INF
        if abs(e) < 0.1 or x.same_as(y, tol=1e-3):
            continue
        m = mobius_with_axis(e, x, y)
        p = np.array([[x.num, y.num], [x.den, y.den]])
        want = p @ np.diag([e, 1 / e]) @ _np_adj(p) / np.linalg.det(p)
        assert _rel_err(m.m, want) <= 1e-12


def test_scalar_sl_normalize_matches_numpy():
    rng = np.random.default_rng(7004)
    for _ in range(500):
        m = _rng_map(rng)
        want = m.m / sqrt_principal(np.linalg.det(m.m))
        lead = want.flat[np.flatnonzero(np.abs(want) > 1e-12 * np.abs(want).max())[0]]
        if lead.imag < 0 or (lead.imag == 0 and lead.real < 0):
            want = -want
        assert _rel_err(sl_normalize(m).m, want) <= 1e-12


def test_scalar_pants_rep_matches_numpy():
    from pantsrep.pants import is_admissible_triple, make_pants_data, pants_rep

    rng = np.random.default_rng(7005)
    checked = 0
    while checked < 300:
        eigen = tuple(_rng_c(rng, -2.0, 2.0) for _ in range(3))
        fixed = tuple(_rng_c(rng, -2.0, 2.0) for _ in range(3))
        try:
            data = make_pants_data(eigen, fixed)
        except DegenerateInputError:
            continue
        if not is_admissible_triple(*eigen, tol=1e-3):
            continue
        e1, e2, e3 = eigen
        norm = [
            np.array([[1 / e1, 0], [1 / e1 - e3 / e2, e1]]),
            np.array([[e2, e1 / e3 - e2], [0, 1 / e2]]),
            np.array([[e3 + 1 / e3 - e2 / e1, (e2 - e1 / e3) / e1],
                      [(e1 * e3 - e2) / e1, e2 / e1]]),
        ]
        conj = three_point_map((0, INF, 1), data.fixed).m
        a = conj / np.sqrt(np.abs(np.linalg.det(conj)))
        ainv = np.linalg.inv(a)
        got = pants_rep(data)
        for m, n in zip(got, norm):
            assert _rel_err(m.m, a @ n @ ainv) <= 1e-12
        prod = (got[0] @ got[1] @ got[2]).m
        assert np.abs(prod - np.eye(2)).max() <= 1e-9 * np.abs(a).max() ** 2
        checked += 1


def test_m_is_a_read_only_complex_2x2_array():
    m = MoebiusMap((1, 2, 3, 4.5))
    arr = m.m
    assert arr.shape == (2, 2) and arr.dtype == np.complex128
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 7
    with pytest.raises(AttributeError):
        m.m = np.eye(2)
    assert m.a == 1 and m.b == 2 and m.c == 3 and m.d == 4.5
    assert all(type(v) is complex for v in (m.a, m.b, m.c, m.d))


def test_flat_tuple_and_array_give_equal_maps():
    rng = np.random.default_rng(7006)
    for _ in range(100):
        arr = _rng_map(rng).m
        flat = MoebiusMap(tuple(complex(v) for v in arr.flat))
        assert np.array_equal(flat.m, MoebiusMap(arr).m)
        assert np.array_equal(flat.m, MoebiusMap(arr.tolist()).m)
    # numpy scalars and ints in the tuple are stored as Python complex
    m = MoebiusMap((np.complex128(2), 1, np.float64(0.5), 1))
    assert np.array_equal(m.m, np.array([[2, 1], [0.5, 1]], dtype=complex))
    assert type(m.a) is complex and type(m.b) is complex


@pytest.mark.parametrize("bad", [
    np.eye(3), np.ones(4), np.ones(2), [1.0, 2.0, 3.0, 4.0], (1.0, 2.0, 3.0),
    (1.0, 2.0, 3.0, 4.0, 5.0), ((1, 2), (3, 4), (5, 6), (7, 8)), ("x", 1, 2, 3),
])
def test_non_2x2_input_raises_value_error(bad):
    with pytest.raises(ValueError):
        MoebiusMap(bad)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 3.0 - 4.0j, 1e6])
def test_singular_threshold_is_the_same_for_both_forms(scale):
    from pantsrep.projective import SING_TOL

    # det = scale^2 eps against max|entry|^2 = |scale|^2 (1 + eps)^2
    for factor, singular in ((0.5, True), (0.9, True), (1.1, False), (2.0, False)):
        eps = factor * SING_TOL
        entries = (scale, scale, scale, scale * (1 + eps))
        arr = np.array(entries, dtype=complex).reshape(2, 2)
        for form in (entries, arr):
            if singular:
                with pytest.raises(SingularMapError):
                    MoebiusMap(form)
            else:
                MoebiusMap(form)
    for form in ((0, 0, 0, 0), np.zeros((2, 2))):
        with pytest.raises(SingularMapError):
            MoebiusMap(form)


def test_huge_entries_do_not_raise_overflow():
    # past sqrt(float max) the squared norm is inf, as with numpy, and the
    # check neither raises OverflowError nor rejects the matrix
    for form in ((1e200, 2e200, 3e200, 4e200), np.array([[1e200, 2e200], [3e200, 4e200]])):
        MoebiusMap(form)
    with pytest.raises(SingularMapError):
        MoebiusMap((1e150, 1e150, 1e150, 1e150))
    # a NaN determinant passes the SL check; the huge trace then reads as
    # parabolic instead of overflowing
    with pytest.raises(DegenerateInputError):
        fixed_points_with_eigs(MoebiusMap((1e200, float("nan"), 0, 1)))


def test_nan_entries_propagate_like_numpy():
    from pantsrep.projective import _max_abs

    nan = float("nan")
    # a NaN entry is not rejected as singular (the build reports it as a
    # non-finite residual), and _max_abs keeps it wherever it sits
    m = MoebiusMap((1, nan, 0, 1))
    assert np.isnan(m.m[0, 1])
    for pos in range(4):
        entries = [1.0, 2.0, 3.0, 4.0]
        entries[pos] = nan
        assert np.isnan(_max_abs(*entries))
    assert _max_abs(1, -5j, 2, 3) == 5


def test_complex_entry_past_the_float_range():
    from pantsrep.projective import SING_TOL, _max_abs

    # |1.5e308 (1 + i)| is past the float range: abs() would raise
    # OverflowError, np.abs gives inf, and the check follows numpy
    huge = 1.5e308 + 1.5e308j
    for d, singular in ((1.0, False), (1e-300, True)):
        entries = (huge, 0, 0, d)
        arr = np.array(entries, dtype=complex).reshape(2, 2)
        with np.errstate(all="ignore"):
            want = np.abs(arr[0, 0] * arr[1, 1]) < SING_TOL * np.abs(arr).max() ** 2
        assert want == singular
        for form in (entries, arr):
            if singular:
                with pytest.raises(SingularMapError):
                    MoebiusMap(form)
            else:
                MoebiusMap(form)
    assert _max_abs(1, huge, 2, 3) == np.inf


def test_pants_rep_with_huge_homogeneous_fixed_points():
    from pantsrep.pants import make_pants_data, pants_rep

    # a vertex of a deep build: the fixed points are O(1) but their
    # homogeneous coordinates are ~1e122, so the conjugating map's
    # determinant overflows to inf
    eigen = (-0.7209371046830604 + 1.169665163253248j,
             -0.44076417546809343 - 0.33226770943469275j,
             -0.3818792010831259 - 0.6195697172144865j)
    fixed = [
        (1.478144565188572e+121 - 1.0227168327575036e+122j,
         3.1849127283657357e+122 - 8.083455468198275e+122j),
        (7.498066973091725e+49 + 1.6608682207985532e+49j,
         -9.574964627593942e+50 + 4.565075592006418e+49j),
        (-1.1233558597867792e+122 - 1.3691963696658787e+121j,
         -2.460219094419955e+123 - 8.149035848148191e+122j),
    ]
    assert not np.isfinite(three_point_map((0, INF, 1), [ProjectivePoint(*p) for p in fixed]).det())
    got = pants_rep(make_pants_data(eigen, [ProjectivePoint(*p) for p in fixed]))
    # the same points with homogeneous coordinates of modulus <= 1
    small = [ProjectivePoint(n / max(abs(n), abs(d)), d / max(abs(n), abs(d))) for n, d in fixed]
    want = pants_rep(make_pants_data(eigen, small))
    for m, n, e, x in zip(got, want, eigen, small):
        assert np.isfinite(m.m).all()
        assert _rel_err(m.m, n.m) <= 1e-12
        assert abs(m.det() - 1) <= 1e-12
        assert m.apply(x).same_as(x, tol=1e-12)
        v = m.m @ _np_point(x)
        assert np.abs(v - e * _np_point(x)).max() <= 1e-12 * np.abs(v).max()
    prod = (got[0] @ got[1] @ got[2]).m
    assert np.abs(prod - np.eye(2)).max() <= 1e-9


def test_pants_rep_rejects_a_singular_conjugating_map(monkeypatch):
    from pantsrep import pants

    # ad and bc overflow, so det is NaN and MoebiusMap's own check lets the
    # map through; scaled to unit largest entry its determinant is 1e-14
    conj = (1e200, 1e200, 1e200, 1e200 * (1 + 1e-14))
    monkeypatch.setattr(pants, "_map_from_standard", lambda *fixed: conj)
    with pytest.raises(DegenerateInputError) as info:
        pants.pants_rep(pants.make_pants_data((2, 3j, -1.5 + 1j), (0, INF, 1)))
    assert info.value.factor == "det(conj)"


# ---------------------------------------------------------------------------
# the hot kernels write the two-point determinant and the eigenvector solve
# in place; each equals, by == with NaN equal to NaN, its form as first written

def _reference_eigvec(a, b, c, d, lam):
    u, v, p, q = lam - d, c, b, lam - a
    return projective._point(u, v) if abs(u) + abs(v) > abs(p) + abs(q) else projective._point(p, q)


def _reference_fixed_points_with_eigs(a, b, c, d, tol):
    """_fixed_points_with_eigs as first written: one _eigvec call per eigenvalue."""
    if abs(a * d - b * c - 1) > 1e-8:
        raise DegenerateInputError("fixed_points_with_eigs expects an SL-normalized map",
                                   factor="det - 1")
    e, other = projective._trace_roots(a + d, tol)
    if abs(e) < 1 or (abs(abs(e) - 1) <= 1e-12 and not (0 <= cmath.phase(e) < math.pi)):
        e = other
    return _reference_eigvec(a, b, c, d, e), e, _reference_eigvec(a, b, c, d, 1 / e)


def test_fixed_points_with_eigs_equals_the_eigvec_rule():
    rng = np.random.default_rng(2004)
    nan = complex(float("nan"), 0)
    maps = []
    for _ in range(300):
        maps.append(sl_normalize(_rng_map(rng)))
        e, t = _rng_c(rng), _rng_c(rng)
        # a = d and b = c: both candidate rows have the same size, a tie
        maps.append((cmath.cosh(t), cmath.sinh(t), cmath.sinh(t), cmath.cosh(t)))
        # infinity fixed, with eigenvalue e and then 1/e
        maps.append((e, _rng_c(rng), 0j, 1 / e))
        maps.append((1 / e, _rng_c(rng), 0j, e))
        maps.append((e, 0j, _rng_c(rng), 1 / e))
        maps.append((e, 0j, 0j, 1 / e))
        maps.append(mobius_with_axis(e, INF, _rng_c(rng)))
        maps.append((e, nan, 0j, 1 / e))
        maps.append((nan, _rng_c(rng), _rng_c(rng), nan))
    maps += [(1, 1, 0, 1), (2, 0, 0, 0.5), (2, 3, 1, 2), (1 + 0j, 0j, 0j, 1 + 0j)]
    for m in maps:
        entries = (m.a, m.b, m.c, m.d) if isinstance(m, MoebiusMap) else m
        for tol in (1e-9, 1e-3):
            assert same_outcome(projective._fixed_points_with_eigs,
                                _reference_fixed_points_with_eigs, *entries, tol)


def _reference_distinct(p, q, r):
    """_distinct as first written, through _pair."""
    sp, sq, sr = [max(abs(x[0]), abs(x[1])) for x in (p, q, r)]
    pair = projective._pair
    return not (abs(pair(p, q)) <= projective.EQ_TOL * (sp * sq)
                or abs(pair(q, r)) <= projective.EQ_TOL * (sq * sr)
                or abs(pair(p, r)) <= projective.EQ_TOL * (sp * sr))


def _reference_cross_ratio(x0, x1, x2, x3):
    """_cross_ratio as first written, through _pair."""
    pair = projective._pair
    num = pair(x3, x0) * pair(x2, x1)
    return num / projective._vanishing(pair(x3, x1) * pair(x2, x0), "(x3 - x1)(x2 - x0)")


def _kernel_points(rng, n):
    """n (num, den) points: plain, infinite, zero, huge, tiny, NaN, integer and
    Fraction, with repeats."""
    nan = float("nan")
    fixed = [(1 + 0j, 0j), (0j, 1 + 0j), (2, 1), (1, 0), (-3, 2), (Fraction(1, 3), 1),
             (Fraction(2, 3), Fraction(1, 2)), (complex(nan, 0), 1 + 0j), (1 + 0j, complex(nan, 0))]
    out = []
    for _ in range(n):
        z = _rng_c(rng)
        kind = rng.integers(6)
        if kind == 0:
            s = 10.0 ** rng.integers(100, 300)
            out.append((z * s, complex(s)))
        elif kind == 1:
            s = 10.0 ** -rng.integers(100, 300)
            out.append((z * s, complex(s)))
        elif kind == 2 and out:
            out.append(out[rng.integers(len(out))])
        elif kind == 3:
            out.append(fixed[rng.integers(len(fixed))])
        else:
            out.append((z, 1 + 0j))
    return out


def test_distinct_and_cross_ratio_equal_their_pair_forms():
    rng = np.random.default_rng(2005)
    for _ in range(3000):
        pts = _kernel_points(rng, 4)
        assert same_outcome(projective._distinct, _reference_distinct, *pts[:3])
        assert same_outcome(projective._cross_ratio, _reference_cross_ratio, *pts)
    small = [(n, d) for n in (-1, 0, 1, 2) for d in (0, 1, Fraction(1, 2))
             if (n, d) != (0, 0)]
    for p in small:
        for q in small:
            for r in small:
                assert same_outcome(projective._distinct, _reference_distinct, p, q, r)
                assert same_outcome(projective._cross_ratio, _reference_cross_ratio,
                                    p, q, r, small[0])
