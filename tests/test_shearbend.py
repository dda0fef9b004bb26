"""Shear parameters, tetrahedron gluing equations and the one-holed example."""

import numpy as np
import pytest

from pantsrep import builder, shearbend as sb, surface as su
from pantsrep.coordinates import EdgeParams
from pantsrep.projective import DegenerateInputError, sqrt_principal

from helpers import rand_c, sample_params

RNG = np.random.default_rng(20240908)


def test_shear_params_roundtrip():
    for _ in range(50):
        e1, e2, e3 = rand_c(RNG), rand_c(RNG), rand_c(RNG)
        p1, p2, p3 = sb.pants_shear_params(e1, e2, e3)
        # p-product identity
        assert abs(p1 * p2 * p3 - 1 / (e1 * e2 * e3)) < 1e-12 * max(
            1.0, abs(p1 * p2 * p3)
        )
        s1, s2, s3 = sb.eigenvalues_from_shear(p1, p2, p3)
        assert abs(s1 - e1 * e1) < 1e-10 * max(1.0, abs(e1) ** 2)
        assert abs(s2 - e2 * e2) < 1e-10 * max(1.0, abs(e2) ** 2)
        assert abs(s3 - e3 * e3) < 1e-10 * max(1.0, abs(e3) ** 2)


def test_tetrahedron_edge_params():
    for _ in range(50):
        z = rand_c(RNG)
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            continue
        z1, z2, z3 = sb.tetrahedron_edge_params(z)
        assert z1 == z
        assert abs(z1 * z2 * z3 + 1) < 1e-10
        assert abs(z2 - 1 / (1 - z)) < 1e-12 * max(1.0, abs(z2))
        assert abs(z3 - (1 - 1 / z)) < 1e-12 * max(1.0, abs(z3))


def test_evaluate_gluing():
    z = 0.5 + 0.5j
    row = {"sign": 1.0, "rprime": [1], "rdprime": [0]}
    assert abs(sb.evaluate_gluing(row, [z]) - (z - 1)) < 1e-14
    row2 = {"sign": 2.0, "rprime": [0], "rdprime": [2]}
    want = 2.0 * (1 - z) ** 2 - 1
    assert abs(sb.evaluate_gluing(row2, [z]) - want) < 1e-14


def test_one_holed_shear_consistency():
    for _ in range(50):
        e1, e2, t1 = rand_c(RNG), rand_c(RNG), rand_c(RNG)
        if min(abs(e1), abs(e2), abs(t1), abs(e1 * e1 - 1), abs(t1 * e1 * e1 + 1),
               abs(t1 + 1)) < 1e-2:
            continue
        a, b, c, z1, z2 = sb.one_holed_to_shear(e1, e2, t1)
        assert abs(z2 / z1 + t1) < 1e-9 * max(1.0, abs(t1))
        assert abs(c - z1 * z2) < 1e-9 * max(1.0, abs(c))
        assert abs(a - (1 - 1 / z1) * (1 - 1 / z2)) < 1e-8 * max(1.0, abs(a))
        assert abs(b - 1 / (e2 * (1 - z1) * (1 - z2))) < 1e-8 * max(1.0, abs(b))


def test_one_holed_gluing_rows_vanish():
    for _ in range(50):
        e1, e2, t1 = rand_c(RNG), rand_c(RNG), rand_c(RNG)
        if min(abs(e1), abs(e2), abs(t1), abs(e1 * e1 - 1), abs(t1 * e1 * e1 + 1),
               abs(t1 + 1)) < 1e-2:
            continue
        a, b, c, z1, z2 = sb.one_holed_to_shear(e1, e2, t1)
        for row in sb.one_holed_gluing_rows(e1):
            assert abs(sb.evaluate_gluing(row, [z1, z2])) < 1e-9


def test_shear_rep_traces_match_builder():
    surf = su.one_holed_torus()
    for _ in range(30):
        params = sample_params(surf, RNG)
        e1, e2, t1 = params.eigen[1], params.eigen[2], params.twist[1]
        a, b, c, z1, z2 = sb.one_holed_to_shear(e1, e2, t1)
        ma, mb = sb.shear_rep_one_holed(a, b, c)
        rep = builder.build(surf, params)
        # the matrix fixing the handle curve has the edge trace ...
        tra2 = complex(np.trace(ma.m)) ** 2
        assert abs(tra2 - (e1 + 1 / e1) ** 2) < 1e-8 * max(1.0, abs(tra2))
        # ... and the second handle matrix realizes the twist-dependent trace
        trb2 = complex(np.trace(mb.m)) ** 2
        want = complex(rep.image("b1").trace()) ** 2
        assert abs(trb2 - want) < 1e-7 * max(1.0, abs(want))
        # determinant 1 and irreducibility of the pair
        assert abs(ma.det() - 1) < 1e-10
        assert abs(mb.det() - 1) < 1e-10


def test_shear_rep_closed_form_traces():
    for _ in range(30):
        a, b, c = rand_c(RNG), rand_c(RNG), rand_c(RNG)
        if min(abs(a), abs(b), abs(c)) < 1e-2:
            continue
        ma, mb = sb.shear_rep_one_holed(a, b, c)
        tra2 = complex(np.trace(ma.m)) ** 2
        trb2 = complex(np.trace(mb.m)) ** 2
        assert abs(tra2 - (c * a - c + 1) ** 2 / (c * a)) < 1e-8 * max(1.0, abs(tra2))
        assert abs(trb2 - (a * b - a + 1) ** 2 / (a * b)) < 1e-8 * max(1.0, abs(trb2))


@pytest.mark.parametrize("fn, args, factor", [
    (sb.tetrahedron_edge_params, (0,), "z"),
    (sb.tetrahedron_edge_params, (1,), "1 - z"),
    (sb.one_holed_to_shear, (-2, -1.5, -0.25), "t1 e1^2 + 1"),
    (sb.one_holed_to_shear, (-1, -1.5, 2), "e1^2 - 1"),
    (sb.one_holed_to_shear, (-2, -1.5, -1), "t1 + 1"),
    (sb.shear_rep_one_holed, (1, 2, 0), "c"),
])
def test_degenerate_shear_input_names_the_factor(fn, args, factor):
    with pytest.raises(DegenerateInputError) as info:
        fn(*args)
    assert info.value.factor == factor
