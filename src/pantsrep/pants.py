"""Representations of the three-holed sphere group from eigenvalues and fixed points.

pi_1 of a pair of pants is free on boundary loops gamma_1, gamma_2, gamma_3
with gamma_1 gamma_2 gamma_3 = 1.  Given an eigenvalue e_i and a fixed point
x_i for each rho(gamma_i), the representation is determined exactly; the
construction below conjugates the normalized solution at (0, inf, 1) back to
the requested fixed points, which handles infinity without special cases.
PantsData.fixed holds (num, den) pairs: make_pants_data coerces its points
once, and builder hands the pairs it propagates to _pants_data.
"""

import math
from collections import namedtuple

from .projective import (
    SING_TOL,
    DegenerateInputError,
    MoebiusMap,
    _check_nonsingular,
    _distinct,
    _map_from_standard,
    _max_abs,
    _vanishing,
    as_pair,
)

PantsData = namedtuple("PantsData", ["eigen", "fixed"])


def make_pants_data(eigen, fixed):
    """PantsData of three eigenvalues and three distinct points, kept as (num, den) pairs."""
    return _pants_data(tuple(eigen), tuple([as_pair(x) for x in fixed]))


def _pants_data(eigen, fixed):
    """make_pants_data's checks on an eigenvalue triple and a (num, den) triple."""
    for e in eigen:
        if e == 0 or abs(e - 1) < 1e-13 or abs(e + 1) < 1e-13:
            raise DegenerateInputError("eigenvalue %r in {0, +1, -1}" % (e,), factor="e (e^2 - 1)")
    if not _distinct(*fixed):
        raise DegenerateInputError("fixed points coincide", factor="x_i - x_j")
    return PantsData(eigen, fixed)


def _normalized_matrices(e1, e2, e3):
    """The three matrices fixing (0, inf, 1) with eigenvalues (e1, e2, e3).

    These are the unique SL(2,C) solutions of m1 m2 m3 = I, written as
    Laurent polynomials in the eigenvalues so no reducibility locus turns
    into a spurious division by zero.  Each is a row-major (a, b, c, d).
    """
    m1 = (1 / e1, 0j, 1 / e1 - e3 / e2, e1)
    m2 = (e2, e1 / e3 - e2, 0j, 1 / e2)
    m3 = (e3 + 1 / e3 - e2 / e1, (e2 - e1 / e3) / e1, (e1 * e3 - e2) / e1, e2 / e1)
    return m1, m2, m3


def _normalized_other_fixed_points(e1, e2, e3):
    """Companion fixed points y'_i of the normalized matrices.

    Denominators vanish exactly on the reducibility loci of the triple.
    """
    dens = [
        (e3 / e2 - 1 / e1, "e2 - e1 e3"),
        (e2 - 1 / e2, "e2^2 - 1"),
        (e2 - e1 * e3, "e2 - e1 e3"),
    ]
    nums = [e1 - 1 / e1, e2 - e1 / e3, e2 - e1 / e3]
    return tuple(num / _vanishing(den, label, 1e-13 * max(1.0, abs(num)))
                 for (den, label), num in zip(dens, nums))


def pants_rep(data):
    """Matrices (m1, m2, m3) with m_i x_i = x_i, eigenvalue e_i, m1 m2 m3 = I.

    The product is the identity exactly in SL(2,C), not merely up to sign.
    """
    e1, e2, e3 = data.eigen
    mats = _normalized_matrices(e1, e2, e3)
    # _map_from_standard(0, inf, 1) is the identity, so this is
    # three_point_map((0, INF, 1), data.fixed), on points make_pants_data
    # has already checked
    a, b, c, d = _map_from_standard(*data.fixed)
    # conjugation is scale-invariant: bring the largest entry to modulus 1,
    # so det stays finite when the fixed points' homogeneous coordinates are
    # huge, then |det| to 1; the adjugate divided by det below keeps the SL
    # property of the normalized matrices exactly
    _check_nonsingular(a, b, c, d)
    s = _max_abs(a, b, c, d)
    p0, p1, p2, p3 = a / s, b / s, c / s, d / s
    r = math.sqrt(abs(_vanishing(p0 * p3 - p1 * p2, "det(conj)", SING_TOL)))
    p0, p1, p2, p3 = p0 / r, p1 / r, p2 / r, p3 / r
    det = p0 * p3 - p1 * p2
    q0, q1, q2, q3 = p3 / det, -p1 / det, -p2 / det, p0 / det
    # p m q, multiplied out as _mul(_mul(p, m), q) multiplies it
    out = []
    for m0, m1, m2, m3 in mats:
        t0, t1, t2, t3 = p0 * m0 + p1 * m2, p0 * m1 + p1 * m3, p2 * m0 + p3 * m2, p2 * m1 + p3 * m3
        out.append(MoebiusMap((t0 * q0 + t1 * q2, t0 * q1 + t1 * q3, t2 * q0 + t3 * q2, t2 * q1 + t3 * q3)))
    return tuple(out)


def other_fixed_point(index, data):
    """The companion fixed point y_index (eigenvalue 1/e_index) of m_index."""
    if index not in (1, 2, 3):
        raise ValueError("index must be 1, 2 or 3")
    e1, e2, e3 = data.eigen
    yp = _normalized_other_fixed_points(e1, e2, e3)[index - 1]
    return MoebiusMap(_map_from_standard(*data.fixed)).apply(yp)


def is_admissible_triple(e1, e2, e3, tol=1e-9):
    """True iff the pants representation is irreducible for these eigenvalues.

    Reducibility happens exactly on e1 = e2 e3, e2 = e3 e1, e3 = e1 e2 and
    e1 e2 e3 = 1; comparisons are relative to the magnitudes involved.
    """
    # each scale is max(|e_i|, |p|, 1.0), compared as max() compares it; the
    # moduli are taken in the order the comparison reads them
    p = e2 * e3
    gap, s, t = abs(e1 - p), abs(e1), abs(p)
    s = t if t > s else s
    if gap <= tol * (1.0 if 1.0 > s else s):
        return False
    p = e3 * e1
    gap, s, t = abs(e2 - p), abs(e2), abs(p)
    s = t if t > s else s
    if gap <= tol * (1.0 if 1.0 > s else s):
        return False
    p = e1 * e2
    gap, s, t = abs(e3 - p), abs(e3), abs(p)
    s = t if t > s else s
    if gap <= tol * (1.0 if 1.0 > s else s):
        return False
    p = p * e3
    # max(|p|, |1|, 1.0), as for the other three pairs
    gap, s = abs(p - 1), abs(p)
    return not gap <= tol * (1 if 1 > s else s)
