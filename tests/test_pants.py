"""Pair-of-pants representations from eigenvalues and fixed points."""

import numpy as np
import pytest

from pantsrep.pants import (
    is_admissible_triple,
    make_pants_data,
    other_fixed_point,
    pants_rep,
)
from pantsrep.projective import INF, DegenerateInputError, as_point

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
            assert not y.same_as(data.fixed[i - 1], tol=1e-6)
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
