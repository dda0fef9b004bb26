"""Real locus: discreteness certificates, Fenchel-Nielsen conversion, lengths."""

import cmath
import math

import numpy as np
import pytest

from pantsrep import builder, coordinates as co, fuchsian as fu, moves, surface as su
from pantsrep.coordinates import EdgeParams
from pantsrep.moves import Move, apply_move

from helpers import SURFACES, sample_fuchsian_params, sample_params

RNG = np.random.default_rng(20240907)


def test_in_teich_domain():
    surf = su.genus_two()
    params = sample_fuchsian_params(surf, RNG)
    assert fu.in_teich_domain(params)
    bad = EdgeParams(dict(params.eigen, **{}), dict(params.twist))
    bad.eigen[1] = -0.5
    assert not fu.in_teich_domain(bad)
    bad2 = EdgeParams(dict(params.eigen), dict(params.twist))
    bad2.twist[1] = -1.0
    assert not fu.in_teich_domain(bad2)
    assert not fu.in_teich_domain(sample_params(surf, RNG))


def test_certificate_chain_closed_forms():
    for _ in range(50):
        e1, e2, e3 = (-float(RNG.uniform(1.05, 8.0)) for _ in range(3))
        cert = fu.pants_discreteness_certificate(e1, e2, e3)
        assert cert.passed
        chain = (0.0,) + tuple(cert.chain)
        # strictly increasing from 0 through 1 up to e1^2
        assert chain[1] == 1
        assert abs(chain[-1] - e1 * e1) < 1e-12 * e1 * e1
        for a, b in zip(chain, chain[1:]):
            assert b - a > 1e-12 * max(1.0, abs(b))
        # interior points match the fixed-point expressions
        x3 = -e1 * (e1 * e2 - e3) / (e1 * e3 - e2)
        y2 = (e1 * e2 - e3) * (1 - e1 * e2 * e3) / ((e2 * e3 - e1) * (e1 * e3 - e2))
        y3 = -e1 * (1 - e1 * e2 * e3) / (e2 * e3 - e1)
        for want, got in zip((y2, x3, y3), chain[2:5]):
            assert abs(want - got) < 1e-9 * max(1.0, abs(want))


def test_certificate_matches_real_matrices():
    # on the certified locus the built generators are real up to sign
    surf = su.four_holed_sphere()
    for _ in range(10):
        params = sample_fuchsian_params(surf, RNG)
        rep = builder.build(surf, params)
        for name in rep.images:
            m = rep.image(name).m
            im = min(np.abs(m.imag).max(), np.abs((1j * m).imag).max())
            assert im < 1e-9 * max(1.0, np.abs(m).max())


def test_goldman_type():
    # eigenvalues of an SU(2) triple: unit complex numbers close to 1
    assert fu.goldman_type(-2.0, -3.0, -1.5) == "SL2R"
    u = cmath.exp(0.3j)
    v = cmath.exp(0.4j)
    w = cmath.exp(0.2j)
    assert fu.goldman_type(u, v, w) == "SU2"


def test_commutator_trace_identity():
    # kappa = chi1^2 + chi2^2 + chi3^2 - chi1 chi2 chi3 - 2 against matrices
    for _ in range(20):
        e1, e2, e3 = (complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2)) for _ in range(3))
        from pantsrep.pants import is_admissible_triple, make_pants_data, pants_rep
        if not is_admissible_triple(e1, e2, e3, tol=1e-3):
            continue
        kappa = fu.commutator_trace(e1, e2, e3)
        m1, m2, m3 = pants_rep(make_pants_data((e1, e2, e3), (0, 1, "inf")))
        comm = m1.m @ m2.m @ np.linalg.inv(m1.m) @ np.linalg.inv(m2.m)
        assert abs(np.trace(comm) - kappa) < 1e-8 * max(1.0, abs(kappa))


def test_fn_roundtrip():
    for make in SURFACES.values():
        surf = make()
        for _ in range(10):
            params = sample_fuchsian_params(surf, RNG)
            fn = fu.to_fenchel_nielsen(params, surf)
            assert fn.meta["on_locus"]
            back = fu.from_fenchel_nielsen(fn, surf)
            for eid in params.eigen:
                assert abs(back.eigen[eid] - params.eigen[eid]) < 1e-10 * max(
                    1.0, abs(params.eigen[eid])
                )
            for eid in params.twist:
                assert abs(back.twist[eid] - params.twist[eid]) < 1e-10 * max(
                    1.0, abs(params.twist[eid])
                )


def test_fn_lengths_are_translation_lengths():
    surf = su.one_holed_torus()
    params = sample_fuchsian_params(surf, RNG)
    fn = fu.to_fenchel_nielsen(params, surf)
    for eid, e in params.eigen.items():
        assert abs(fn.lengths[eid] - 2 * math.log(-e)) < 1e-12
        # 2 cosh(l/2) = |tr|
        assert abs(2 * math.cosh(fn.lengths[eid] / 2) - abs(e + 1 / e)) < 1e-10


def test_fn_invariant_under_edge_reversal():
    # reversing any edge leaves the FN coordinates unchanged once the
    # reversed parameters are normalized back into the real domain
    for make in SURFACES.values():
        surf = make()
        params = sample_fuchsian_params(surf, RNG)
        fn = fu.to_fenchel_nielsen(params, surf)
        for edge in surf.graph.edges:
            s1, p1 = apply_move(surf, params, Move("reverse", edge))
            fn1 = fu.to_fenchel_nielsen(p1, s1)
            for eid in fn.lengths:
                assert abs(fn1.lengths[eid] - fn.lengths[eid]) < 1e-9
            for eid in fn.fn_twists:
                assert abs(fn1.fn_twists[eid] - fn.fn_twists[eid]) < 1e-8 * max(
                    1.0, abs(fn.fn_twists[eid])
                )


def test_normalize_domain_restores_locus():
    surf = su.genus_two()
    params = sample_fuchsian_params(surf, RNG)
    # push out of the domain with an eigenvalue inversion
    from pantsrep import symmetry as sym

    off = sym.flip_eigenvalue(params, surf, 1)
    assert not fu.in_teich_domain(off)
    fixed, actions = fu.normalize_domain(off, surf)
    assert fu.in_teich_domain(fixed)
    assert 1 in actions["flips"]


def test_okai_four_holed_matches_elementary_move():
    surf = su.four_holed_sphere()
    for _ in range(20):
        params = sample_fuchsian_params(surf, RNG)
        fn = fu.to_fenchel_nielsen(params, surf)
        lp = co.local_picture(surf, params, 1)
        ls = [2 * math.log(-v.real) if v.real < -1 else -2 * math.log(-v.real)
              for v in (complex(x) for x in lp.es)]
        # adjusted values may be inverted; lengths are branch-free
        ls = [2 * math.log(max(-complex(x).real, -1 / complex(x).real))
              for x in lp.es]
        new_l = fu.okai_length(ls, fn.fn_twists[1])
        s1, p1 = moves.apply_move(surf, params, Move("elem", 1))
        p1n, _ = fu.normalize_domain(p1, s1)
        assert abs(new_l - 2 * math.log(-p1n.eigen[1].real)) < 1e-8


def test_okai_one_holed_matches_elementary_move():
    surf = su.one_holed_torus()
    for _ in range(20):
        params = sample_fuchsian_params(surf, RNG)
        fn = fu.to_fenchel_nielsen(params, surf)
        l1 = fn.lengths[1]
        l2 = fn.lengths[2]
        new_l = fu.okai_length_one_holed(l1, l2, fn.fn_twists[1])
        s1, p1 = moves.apply_move(surf, params, Move("elem", 1))
        p1n, _ = fu.normalize_domain(p1, s1)
        assert abs(new_l - 2 * math.log(-p1n.eigen[1].real)) < 1e-8


def test_psl2r_obstruction():
    surf = su.one_holed_torus()
    params = sample_fuchsian_params(surf, RNG)
    rep = builder.build(surf, params)
    signs = fu.psl2r_obstruction(rep)
    assert set(signs) == {1}
    assert signs[1] in (1, -1)
    # negative twist makes sqrt(-e2 t1) flip between real and imaginary
    neg = EdgeParams(dict(params.eigen), {1: -params.twist[1]})
    rep2 = builder.build(surf, neg)
    signs2 = fu.psl2r_obstruction(rep2)
    assert signs2[1] == -signs[1]


@pytest.mark.parametrize("name", ["genus_two", "four_holed"])
def test_normalize_domain_applies_admissible_sign_vector(name):
    from pantsrep import symmetry as sym

    surf = SURFACES[name]()
    params = sample_fuchsian_params(surf, np.random.default_rng(20261018))
    for eps in sym.epsilon_basis(surf):
        off = sym.act_epsilon(params, eps, surf)
        assert not fu.in_teich_domain(off)
        fixed, actions = fu.normalize_domain(off, surf)
        assert fu.in_teich_domain(fixed)
        assert actions == {"flips": [], "epsilon": eps}
        assert fixed.eigen == params.eigen and fixed.twist == params.twist


def test_normalize_domain_leaves_inadmissible_signs():
    surf = su.four_holed_sphere()
    params = sample_fuchsian_params(surf, np.random.default_rng(20261019))
    off = EdgeParams(dict(params.eigen), dict(params.twist))
    edge = surf.graph.boundary_edges()[0]
    off.eigen[edge] = -off.eigen[edge]
    fixed, actions = fu.normalize_domain(off, surf)
    assert actions == {"flips": [], "epsilon": None}
    assert fixed.eigen == off.eigen and fixed.twist == off.twist



def _complex_point(seed):
    return sample_params(su.genus_two(), np.random.default_rng(seed))


@pytest.mark.parametrize("call, message", [
    (lambda: fu.pants_discreteness_certificate(-2.0, -2 + 1j, -3.0), "eigenvalues must be real, got (-2+1j)"),
    (lambda: fu.pants_discreteness_certificate(-2.0, -2.5, 3.0),
     "need e1*e2*e3 < 0 (boundary traces of a real pants group)"),
    (lambda: fu.goldman_type(2 + 1j, -2.0, -3.0), "is not real; not a real or unitary triple"),
    (lambda: fu.fn_twist_factor(su.four_holed_sphere(), EdgeParams({}, {}), 2), "edge 2 is a boundary edge"),
    (lambda: fu.to_fenchel_nielsen(_complex_point(2), su.genus_two()),
     "parameters are outside the Teichmueller domain; pass require_domain=False for the analytic extension"),
    (lambda: fu.psl2r_obstruction(builder.build(su.genus_two(), _complex_point(3))),
     "image of b1 is neither real nor purely imaginary; parameters are not real"),
], ids=["complex-eigenvalue", "positive-product", "complex-trace", "boundary-edge", "off-locus",
        "complex-images"])
def test_the_real_locus_refuses_what_is_off_it(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value).endswith(message), str(info.value)
