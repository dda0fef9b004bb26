"""Pair-of-pants representations from eigenvalues and fixed points."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pantsrep import pants
from pantsrep.pants import (
    is_admissible_triple,
    make_pants_data,
    other_fixed_point,
    pants_rep,
)
from pantsrep.projective import (INF, SING_TOL, DegenerateInputError, MoebiusMap,
                                 ProjectivePoint, _adj, _check_nonsingular, _max_abs, _mul,
                                 _vanishing, as_point)

from helpers import same_outcome

RNG = np.random.default_rng(20240902)


def rand_c(lo=-2.0, hi=2.0):
    return complex(RNG.uniform(lo, hi), RNG.uniform(lo, hi))


def random_data():
    while True:
        eigen = (rand_c(), rand_c(), rand_c())
        fixed = (rand_c(), rand_c(), rand_c())
        try:
            data = make_pants_data(eigen, fixed)
        except DegenerateInputError:
            continue
        if is_admissible_triple(*eigen, tol=1e-3):
            return data


def test_product_is_identity_exactly_in_sl2():
    for _ in range(50):
        data = random_data()
        m1, m2, m3 = pants_rep(data)
        prod = m1.m @ m2.m @ m3.m
        assert np.abs(prod - np.eye(2)).max() < 1e-10
        for m in (m1, m2, m3):
            assert abs(m.det() - 1) < 1e-10


def test_fixed_points_and_eigenvalues():
    for _ in range(50):
        data = random_data()
        mats = pants_rep(data)
        for m, e, x in zip(mats, data.eigen, data.fixed):
            x = ProjectivePoint(*x)
            assert m.apply(x).same_as(x, tol=1e-8)
            assert abs(m.trace() - (e + 1 / e)) < 1e-8


def test_fixed_point_at_infinity():
    data = make_pants_data((2.0, -3.0 + 1j, 0.5j), (INF, 0, 1))
    m1, m2, m3 = pants_rep(data)
    assert m1.apply(INF).same_as(INF)
    assert m2.apply(as_point(0)).same_as(as_point(0))
    assert m3.apply(as_point(1)).same_as(as_point(1))
    assert np.abs(m1.m @ m2.m @ m3.m - np.eye(2)).max() < 1e-10


def test_other_fixed_point():
    for _ in range(50):
        data = random_data()
        mats = pants_rep(data)
        for i in (1, 2, 3):
            y = other_fixed_point(i, data)
            m = mats[i - 1]
            assert m.apply(y).same_as(y, tol=1e-7)
            assert not y.same_as(ProjectivePoint(*data.fixed[i - 1]), tol=1e-6)
    with pytest.raises(ValueError) as info:
        other_fixed_point(4, data)
    assert (info.type, str(info.value)) == (ValueError, "index must be 1, 2 or 3")


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateInputError):
        make_pants_data((1.0, 2.0, 3.0), (0, 1, INF))
    with pytest.raises(DegenerateInputError):
        make_pants_data((2.0, 2.0, 3.0), (0, 0, INF))


def test_admissibility_boundary():
    assert is_admissible_triple(2.0, 3.0 + 1j, -1.5)
    # reducible loci
    assert not is_admissible_triple(6.0, 2.0, 3.0)       # e1 = e2 e3
    assert not is_admissible_triple(2.0, 6.0, 3.0)       # e2 = e3 e1
    assert not is_admissible_triple(2.0, 3.0, 6.0)       # e3 = e1 e2
    assert not is_admissible_triple(2.0, 0.5, 1.0 + 0j)  # e1 e2 e3 = 1


def test_reducible_triple_companion_point_raises():
    data = make_pants_data((2.0, 6.0, 3.0), (0, 1, INF))
    with pytest.raises(DegenerateInputError):
        other_fixed_point(1, data)


def _reference_pants_rep(data):
    """pants_rep as first written: the conjugation through two _mul products."""
    e1, e2, e3 = data.eigen
    mats = pants._normalized_matrices(e1, e2, e3)
    a, b, c, d = pants._map_from_standard(*data.fixed)
    _check_nonsingular(a, b, c, d)
    s = _max_abs(a, b, c, d)
    p0, p1, p2, p3 = a / s, b / s, c / s, d / s
    r = math.sqrt(abs(_vanishing(p0 * p3 - p1 * p2, "det(conj)", SING_TOL)))
    p = p0, p1, p2, p3 = p0 / r, p1 / r, p2 / r, p3 / r
    det = p0 * p3 - p1 * p2
    q = tuple([z / det for z in _adj(p)])
    return tuple([MoebiusMap(_mul(_mul(p, m), q)) for m in mats])


def _entries(rep):
    """The matrices of a pants_rep result as (a, b, c, d) tuples."""
    def run(data):
        return tuple((m.a, m.b, m.c, m.d) for m in rep(data))
    return run


def test_pants_rep_equals_the_two_product_reference(monkeypatch):
    rng = np.random.default_rng(2002)

    def point(kind):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if kind == "inf":
            return INF
        if kind == "huge":
            s = 10.0 ** rng.integers(100, 300)
            return ProjectivePoint(z * s, s)
        if kind == "tiny":
            s = 10.0 ** -rng.integers(100, 300)
            return ProjectivePoint(z * s, s)
        return z

    kinds = ["plain"] * 4 + ["inf", "huge", "tiny"]
    cases = 0
    for _ in range(600):
        eigen = tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3))
        try:
            data = make_pants_data(eigen, [point(kinds[rng.integers(len(kinds))])
                                           for _ in range(3)])
        except (DegenerateInputError, OverflowError):  # products of huge pairs overflow
            continue
        cases += 1
        assert same_outcome(_entries(pants_rep), _entries(_reference_pants_rep), data)
    assert cases > 500
    # a deep build's vertex: homogeneous coordinates ~1e122, so the
    # conjugating map's determinant overflows
    eigen = (-0.7209371046830604 + 1.169665163253248j,
             -0.44076417546809343 - 0.33226770943469275j,
             -0.3818792010831259 - 0.6195697172144865j)
    fixed = [ProjectivePoint(1.478144565188572e+121 - 1.0227168327575036e+122j,
                             3.1849127283657357e+122 - 8.083455468198275e+122j),
             ProjectivePoint(7.498066973091725e+49 + 1.6608682207985532e+49j,
                             -9.574964627593942e+50 + 4.565075592006418e+49j),
             ProjectivePoint(-1.1233558597867792e+122 - 1.3691963696658787e+121j,
                             -2.460219094419955e+123 - 8.149035848148191e+122j)]
    data = make_pants_data(eigen, fixed)
    assert same_outcome(_entries(pants_rep), _entries(_reference_pants_rep), data)
    # a conjugating map whose determinant overflows to NaN: both refuse it
    # with the same DegenerateInputError
    monkeypatch.setattr(pants, "_map_from_standard",
                        lambda *fixed: (1e200, 1e200, 1e200, 1e200 * (1 + 1e-14)))
    data = make_pants_data((2, 3j, -1.5 + 1j), (0, INF, 1))
    with pytest.raises(DegenerateInputError):
        pants_rep(data)
    assert same_outcome(_entries(pants_rep), _entries(_reference_pants_rep), data)


def _reference_admissible(e1, e2, e3, tol=1e-9):
    """is_admissible_triple as first written: a loop over four pairs."""
    products = [
        (e1, e2 * e3),
        (e2, e3 * e1),
        (e3, e1 * e2),
        (e1 * e2 * e3, 1),
    ]
    for lhs, rhs in products:
        if abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs), 1.0):
            return False
    return True


def test_admissible_triple_equals_the_four_pair_loop():
    rng = np.random.default_rng(2003)
    nan = float("nan")
    values = [nan, complex(nan, 1), 0, 1, -1, 2, 3, 6, Fraction(1, 2), Fraction(2, 3),
              Fraction(3, 2), 0.5, 2.0, 1e308 + 1e308j]
    values += [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)]
    for triple in itertools.product(values, repeat=3):
        for tol in (1e-9, 0.25, Fraction(1, 4), 0):
            assert same_outcome(is_admissible_triple, _reference_admissible, *triple, tol)
    # one pair at a time exactly at tol, |lhs - rhs| = tol max(|lhs|, |rhs|, 1),
    # the others far from it; float(1/3) < 1/3, so a float bound differs
    for tol in (Fraction(1, 3), Fraction(1, 1000)):
        at_tol = [(15 * (1 - tol), 3, 5), (5, 15 * (1 - tol), 3), (3, 5, 15 * (1 - tol)),
                  (2, 3, (1 - tol) / 6)]
        for triple in at_tol:
            assert not is_admissible_triple(*triple, tol=tol)
            assert is_admissible_triple(*triple, tol=tol * Fraction(999, 1000))
            for t in (tol, tol * Fraction(999, 1000), float(tol)):
                assert same_outcome(is_admissible_triple, _reference_admissible, *triple, t)
                floats = tuple(float(e) for e in triple)
                assert same_outcome(is_admissible_triple, _reference_admissible, *floats, t)


@pytest.mark.parametrize("conj", [
    (complex(1.5e308, 1.5e308), 0j, 0j, 1 + 0j),  # a modulus overflows
    (complex(1.5e308, 1.5e308), 0j, 0j, 0j),  # ... on a singular map
    (complex(1.5e308, 1.5e308), complex(1.5e308, 1.5e308), 1 + 0j, 2 + 0j),
    (complex(math.nan, 0), 1 + 0j, 1 + 0j, 2 + 0j),  # NaN: the largest modulus is NaN
    (1 + 0j, complex(math.nan, 0), 1 + 0j, 2 + 0j),
    (1 + 0j, 2 + 0j, 2 + 0j, 4 + 0j),  # singular
    (1e-300 + 0j, 0j, 0j, 1e-300 + 0j),  # det underflows to 0
    (1e150 + 0j, 1 + 0j, 1 + 0j, 1e150 + 0j),
], ids=["overflow", "overflow-singular", "overflow-det", "nan-a", "nan-b", "singular",
        "underflow", "huge"])
def test_pants_rep_conjugation_check_equals_the_reference(monkeypatch, conj):
    # pants_rep tests the conjugating map (_check_nonsingular) and scales it
    # by its largest modulus (_max_abs); these maps reach each branch of
    # those two rules
    monkeypatch.setattr(pants, "_map_from_standard", lambda *fixed: conj)
    data = make_pants_data((2, 3j, -1.5 + 1j), (0, INF, 1))
    assert same_outcome(_entries(pants_rep), _entries(_reference_pants_rep), data)
