"""The real locus: Teichmueller domain, discreteness, Fenchel-Nielsen.

Eigenvalue parameters with e_i < -1 and positive real twists describe
discrete faithful PSL(2,R) representations; this module certifies the
pants-level discreteness inequalities, classifies real-or-unitary triples,
converts twists to the hyperbolic-distance normalization, and evaluates
Okai's length formula for the curve produced by an elementary move.
"""

import cmath
import math
from collections import namedtuple

from .projective import sqrt_principal
from .coordinates import EdgeParams, _picture_es
from .surface import _picture_slots
from . import symmetry

REAL_TOL = 1e-9

FnParams = namedtuple("FnParams", ["lengths", "fn_twists", "meta"])


def _is_real(z):
    return abs(z.imag) <= REAL_TOL * max(1.0, abs(z))


def in_teich_domain(params):
    """True iff every eigenvalue is real < -1 and every twist real > 0."""
    for e in params.eigen.values():
        if not _is_real(e) or e.real >= -1:
            return False
    for t in params.twist.values():
        if not _is_real(t) or t.real <= 0:
            return False
    return True


DiscretenessCertificate = namedtuple(
    "DiscretenessCertificate", ["chain", "passed"]
)


def pants_discreteness_certificate(e1, e2, e3):
    """Fixed-point chain 0 < 1 < y2 < x3 < y3 < e1^2 certifying discreteness.

    The three hyperbolic generators of a pants group have fixed points
    (0, e1^2), (1, y2), (x3, y3) on the real line; the ordering makes the
    half-plane ping-pong argument work, so the representation is discrete
    and faithful whenever the chain is strictly increasing.
    """
    for e in (e1, e2, e3):
        if not _is_real(e):
            raise ValueError("eigenvalues must be real, got %r" % (e,))
    e1, e2, e3 = e1.real, e2.real, e3.real
    if e1 * e2 * e3 >= 0:
        raise ValueError("need e1*e2*e3 < 0 (boundary traces of a real pants group)")
    x3 = -e1 * (e1 * e2 - e3) / (e1 * e3 - e2)
    y2 = (e1 * e2 - e3) * (1 - e1 * e2 * e3) / ((e2 * e3 - e1) * (e1 * e3 - e2))
    y3 = -e1 * (1 - e1 * e2 * e3) / (e2 * e3 - e1)
    chain = (1.0, y2, x3, y3, e1 * e1)
    passed = all(a < b for a, b in zip((0.0,) + chain, chain))
    return DiscretenessCertificate(chain, passed)


def goldman_type(e1, e2, e3):
    """'SL2R' or 'SU2' for an irreducible pants representation.

    The boundary traces chi_i = e_i + 1/e_i are real exactly when each e_i
    is real or unit-modulus; the representation is conjugate into SL(2,R)
    iff some |chi_i| >= 2 or kappa >= 2 where kappa is the trace of the
    commutator, and into SU(2) otherwise.
    """
    chis = []
    for e in (e1, e2, e3):
        chi = e + 1 / e
        if not _is_real(chi):
            raise ValueError("trace %r is not real; not a real or unitary triple" % (chi,))
        chis.append(chi.real)
    kappa = sum(c * c for c in chis) - chis[0] * chis[1] * chis[2] - 2
    if any(abs(c) >= 2 for c in chis) or kappa >= 2:
        return "SL2R"
    return "SU2"


def commutator_trace(e1, e2, e3):
    chis = [e + 1 / e for e in (e1, e2, e3)]
    return sum(c * c for c in chis) - chis[0] * chis[1] * chis[2] - 2


def fn_twist_factor(surface, params, edge):
    """Multiplier turning the twist at an interior edge into FN form.

    Factored square root of a positive rational expression on the
    Teichmueller domain; off the real locus the principal branch of each
    factor is used.  Only the eigenvalues of params are read.
    """
    graph = surface.graph
    if graph.is_boundary(edge):
        raise ValueError("edge %r is a boundary edge" % (edge,))
    e1, e2, e3, e4, e5 = _picture_es(params.eigen, edge, _picture_slots(graph, edge)[2])
    sq = sqrt_principal
    num = (1.0 + 0j) * sq(e1 * e3 - e2) * sq(e2 * e3 - e1) * sq(e1 * e4 - e5) * sq(e4 * e5 - e1)
    return num / sq(e1 * e2 - e3) / sq(1 - e1 * e2 * e3) / sq(e1 * e5 - e4) / sq(1 - e1 * e4 * e5)


def normalize_domain(params, surface):
    """Push real parameters toward the canonical sign pattern e < -1.

    Eigenvalues inside the unit circle are inverted by the flip action
    (which is how an orientation reversal is undone), then the sign vector
    that is -1 exactly on the positive real eigenvalues is applied if the
    admissible (Z/2)^k action contains it.  Returns
    (params', {"flips": [...], "epsilon": ...}).  Both actions fix the
    underlying PSL(2,C) representation.
    """
    actions = {"flips": [], "epsilon": None}
    for eid in sorted(params.eigen):
        if abs(params.eigen[eid]) < 1:
            params = symmetry.flip_eigenvalue(params, surface, eid)
            actions["flips"].append(eid)
    eps = {eid: -1 if _is_real(e) and e.real > 0 else 1
           for eid, e in sorted(params.eigen.items())}
    if -1 in eps.values():
        try:
            params, actions["epsilon"] = symmetry.act_epsilon(params, eps, surface), eps
        except ValueError:
            pass  # eps is not in the admissible group
    return params, actions


def to_fenchel_nielsen(params, surface, require_domain=True):
    """Lengths l = 2 log(-e) and FN twists tau = log t^FN."""
    actions = {"flips": [], "epsilon": None}
    on_locus = in_teich_domain(params)
    if not on_locus:
        params, actions = normalize_domain(params, surface)
        on_locus = in_teich_domain(params)
    if require_domain and not on_locus:
        raise ValueError("parameters are outside the Teichmueller domain; "
                         "pass require_domain=False for the analytic extension")
    lengths = {}
    for eid, e in params.eigen.items():
        if on_locus:
            lengths[eid] = 2 * math.log(-e.real)
        else:
            lengths[eid] = 2 * cmath.log(-e)
    fn_twists = {}
    for eid, t in params.twist.items():
        tfn = fn_twist_factor(surface, params, eid) * t
        if on_locus:
            fn_twists[eid] = math.log(tfn.real)
        else:
            fn_twists[eid] = cmath.log(tfn)
    meta = {"normalization": "signed distance between projected fixed points",
            "on_locus": on_locus, "actions": actions}
    return FnParams(lengths, fn_twists, meta)


def from_fenchel_nielsen(fn, surface):
    """Inverse of to_fenchel_nielsen on the Teichmueller domain."""
    eigen = {eid: -cmath.exp(l / 2) for eid, l in fn.lengths.items()}
    # the conversion factor reads only eigenvalues, so the twists can be
    # recovered edge by edge
    probe = EdgeParams(eigen, {})
    out = {}
    for eid, tau in fn.fn_twists.items():
        out[eid] = cmath.exp(tau) / fn_twist_factor(surface, probe, eid)
    if all(_is_real(e) for e in eigen.values()) and all(_is_real(t) for t in out.values()):
        eigen = {k: complex(v.real) for k, v in eigen.items()}
        out = {k: complex(v.real) for k, v in out.items()}
    return EdgeParams(eigen, out)


def okai_length(ls, tau1):
    """Length of the curve replacing the interior curve of a four-holed
    sphere, from the five old lengths and the FN twist."""
    l1, l2, l3, l4, l5 = (float(l) for l in ls)
    c = [math.cosh(l / 2) for l in (l1, l2, l3, l4, l5)]
    c1, c2, c3, c4, c5 = c
    r1 = c1 * c1 + c2 * c2 + c3 * c3 + 2 * c1 * c2 * c3 - 1
    r2 = c1 * c1 + c4 * c4 + c5 * c5 + 2 * c1 * c4 * c5 - 1
    val = (
        math.sqrt(r1) * math.sqrt(r2) * math.cosh(float(tau1))
        + c1 * (c3 * c5 + c2 * c4)
        + (c2 * c5 + c3 * c4)
    ) / math.sinh(l1 / 2) ** 2
    return 2 * math.acosh(val)


def okai_length_one_holed(l1, l2, tau1):
    """One-holed torus version: length of the new interior curve."""
    l1, l2, tau1 = float(l1), float(l2), float(tau1)
    val = (
        math.cosh(tau1 / 2)
        / math.sinh(l1 / 2)
        * math.sqrt(2 * math.cosh(l1) + 2 * math.cosh(l2 / 2))
        / 2
    )
    return 2 * math.acosh(val)


def psl2r_obstruction(rep):
    """Sign per handle generator: +1 for a real matrix, -1 for a purely imaginary
    one, to 1e-8 relative.  All +1 iff the representation reduces to PSL(2,R)."""
    signs = {}
    for i in range(1, rep.surface.genus + 1):
        m = rep.image("b%d" % i)
        re = max(abs(z.real) for z in (m.a, m.b, m.c, m.d))
        im = max(abs(z.imag) for z in (m.a, m.b, m.c, m.d))
        scale = max(re, im)
        if im <= 1e-8 * scale:
            signs[i] = 1
        elif re <= 1e-8 * scale:
            signs[i] = -1
        else:
            raise ValueError(
                "image of b%d is neither real nor purely imaginary; "
                "parameters are not real" % i
            )
    return signs
