"""Projective line CP^1 and Moebius transformation arithmetic.

Points of CP^1 are kept in homogeneous form (numerator, denominator) so
that infinity is the exact point (1, 0) and no code path ever divides by
zero.  Moebius maps are 2x2 complex matrices acting on homogeneous
coordinates; scalar multiples act identically (PGL), and sl_normalize
produces a determinant-1 representative when one is wanted.

Each formula is written once, in a private kernel (here and in pants,
coordinates and builder) that takes points as plain ``(num, den)`` tuples,
matrices as row-major ``(a, b, c, d)`` tuples, and coerces nothing: for a
2x2 matrix, an object or a numpy call per step costs many times the
arithmetic.  The public functions coerce their points once (as_point),
call the kernel and wrap its result; below them a point is a pair
throughout, pants.PantsData.fixed included.  Formulas compute in their
inputs' own arithmetic: complex() is called only where numbers enter the
package.
numpy is imported on demand, only to accept an array, build ``.m`` or
print a map.

The two-point determinant p_num q_den - q_num p_den (_pair) is written out
in place in the hottest kernels (_distinct, _cross_ratio, _map_from_standard,
and _ratio_point and _best_variant in coordinates): a round trip runs them
dozens of times per point, and a Python call costs more than the determinant.
For the same reason a few more rules are written out where the round trip
runs them per point, each with a test that compares it with its form as
first written: MoebiusMap's singularity rule (_check_nonsingular) in _chain,
which calls it only for a modulus past the float range; _trace_roots,
sqrt_principal and the (0 : 0) test of _point in _fixed_points_with_eigs;
_max_abs in builder._residual; _mul and _adj in _three_point_map; _adj and
_apply in builder's representation, verify_relations and recover.  The builtins max(), min()
and sum() cost a call each, so the kernels compare and add instead, keeping
max()'s and min()'s first argument on a tie or NaN (_max_abs, _distinct,
_ratio_point, _best_variant, is_admissible_triple, the commutator bound).
The moduli are taken in the order the forms as first written take them:
abs() of a complex number with a NaN part raises OverflowError while errno
still holds the ERANGE of an earlier overflow, so the order can show.
Elsewhere the functions stay the one place of their rule.

Every numeric degeneracy is a named factor of a source formula reaching
zero; _vanishing is the one rule that tests it and names it in the error.
"""

import cmath
import math
import numbers

#: default tolerance for projective comparisons
EQ_TOL = 1e-9
#: |det| below SING_TOL * ||m||^2 counts as singular
SING_TOL = 1e-12


class SingularMapError(ValueError):
    """Raised when a Moebius map is numerically singular."""

    factor = "det"


class DegenerateInputError(ValueError):
    """Raised when input points coincide or a named denominator vanishes.

    The offending factor (in the notation of the source formulas) is kept
    in ``factor`` to aid diagnosis.
    """

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


def _at(where, ex):
    """ex, its message prefixed by where: the class and factor stay."""
    ex.args = ("%s: %s" % (where, ex),)
    return ex


def _vanishing(value, factor, bound=0.0):
    """The library's one degeneracy rule: value, unless the named factor vanishes.

    |value| <= bound raises DegenerateInputError naming factor; a NaN
    never vanishes.
    """
    if abs(value) <= bound:
        raise DegenerateInputError("vanishing factor %s = %r" % (factor, value), factor=factor)
    return value


def _point(num, den):
    """The pair (num, den), unless it is (0 : 0), which is no point of CP^1."""
    if num == 0 and den == 0:
        raise ValueError("(0 : 0) is not a point of CP^1")
    return num, den


class ProjectivePoint:
    """A point of CP^1 as a homogeneous pair (num : den)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        self.num, self.den = _point(complex(num), complex(den))

    def same_as(self, other, tol=EQ_TOL):
        """Projective equality: vanishing of the 2x2 determinant, scaled."""
        other = as_point(other)
        det = _pair((self.num, self.den), (other.num, other.den))
        scale = max(abs(self.num), abs(self.den)) * max(abs(other.num), abs(other.den))
        return abs(det) <= tol * scale

    def __eq__(self, other):
        try:
            return self.same_as(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        raise TypeError("ProjectivePoint is not hashable (tolerant equality)")

    def __repr__(self):
        if abs(self.den) <= EQ_TOL * abs(self.num):
            return "ProjectivePoint(inf)"
        return "ProjectivePoint(%r)" % (self.num / self.den)


INF = ProjectivePoint(1, 0)


def _pair(p, q):
    """p_num q_den - q_num p_den: zero exactly when the points p, q coincide."""
    return p[0] * q[1] - q[0] * p[1]


def _distinct(p, q, r):
    """True iff the points p, q, r are pairwise distinct (same_as tolerance)."""
    (pn, pd), (qn, qd), (rn, rd) = p, q, r
    # each scale is max(|num|, |den|), compared as max() compares it
    sp, s = abs(pn), abs(pd)
    if s > sp:
        sp = s
    sq, s = abs(qn), abs(qd)
    if s > sq:
        sq = s
    sr, s = abs(rn), abs(rd)
    if s > sr:
        sr = s
    return not (abs(pn * qd - qn * pd) <= EQ_TOL * (sp * sq) or abs(qn * rd - rn * qd) <= EQ_TOL * (sq * sr)
                or abs(pn * rd - rn * pd) <= EQ_TOL * (sp * sr))


def as_point(z):
    """Coerce a number, 'inf', or ProjectivePoint into a point.

    A number is any ``numbers.Complex`` (numpy scalars, fractions and bool
    included); a real infinity of either sign is the point at infinity.
    """
    if isinstance(z, ProjectivePoint):
        return z
    if isinstance(z, str):
        if z == "inf":
            return INF
        raise ValueError("unknown point literal %r" % (z,))
    if isinstance(z, numbers.Complex):
        if isinstance(z, numbers.Real) and math.isinf(z):
            return INF
        return ProjectivePoint(z)
    raise TypeError("cannot interpret %r as a point of CP^1" % (z,))


def as_pair(z):
    """as_point(z) as the (num, den) tuple the private kernels take."""
    p = as_point(z)
    return p.num, p.den


def sqrt_principal(z):
    """Square root with argument in [0, pi).

    cmath.sqrt returns arg in (-pi/2, pi/2]; negate when the result falls
    on the negative-argument side so every root has arg in [0, pi).
    """
    w = cmath.sqrt(complex(z))
    if w.imag < 0 or (w.imag == 0 and w.real < 0):
        w = -w
    return w


class MoebiusMap:
    """A nonsingular 2x2 complex matrix acting on CP^1.

    The entries are kept as four plain complex numbers in the slots
    ``a, b, c, d`` (row-major: the matrix is ((a, b), (c, d))), and every
    operation below is scalar arithmetic on them.  ``MoebiusMap(m)`` accepts
    a 2x2 array or nested list, or a flat ``(a, b, c, d)`` tuple; the tuple
    form skips numpy altogether.  ``.m`` is a read-only (2, 2) complex array
    built on demand.

    Interpreted projectively unless the caller asks for the SL-normalized
    representative.  Instances are immutable.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, m):
        if type(m) is tuple and len(m) == 4:
            a, b, c, d = m
            if not (type(a) is type(b) is type(c) is type(d) is complex):
                try:
                    a, b, c, d = (complex(v) for v in m)
                except (TypeError, ValueError):
                    raise ValueError("MoebiusMap entries must be numbers: %r" % (m,)) from None
        else:
            import numpy as np

            arr = np.asarray(m, dtype=complex)
            if arr.shape != (2, 2):
                raise ValueError("MoebiusMap needs a 2x2 matrix or a flat 4-tuple")
            a, b, c, d = (complex(v) for v in arr.flat)
        _check_nonsingular(a, b, c, d)
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def m(self):
        """The matrix as a read-only (2, 2) complex array (a fresh copy)."""
        import numpy as np

        arr = np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)
        arr.setflags(write=False)
        return arr

    @classmethod
    def identity(cls):
        return cls(_IDENTITY)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def inverse(self):
        # adjugate; in PGL the 1/det factor is irrelevant, and for an SL
        # input the adjugate IS the inverse, keeping determinant exactly 1
        return MoebiusMap(_adj((self.a, self.b, self.c, self.d)))

    def __matmul__(self, other):
        return MoebiusMap(_mul((self.a, self.b, self.c, self.d),
                               (other.a, other.b, other.c, other.d)))

    def __neg__(self):
        return MoebiusMap((-self.a, -self.b, -self.c, -self.d))

    def apply(self, p):
        return ProjectivePoint(*_apply((self.a, self.b, self.c, self.d), as_pair(p)))

    def __call__(self, p):
        return self.apply(p)

    def __repr__(self):
        import numpy as np

        return "MoebiusMap(%s)" % np.array2string(self.m, separator=", ")


def _check_nonsingular(a, b, c, d):
    """The singularity rule of MoebiusMap: raise SingularMapError or return.

    |ad - bc| < SING_TOL * max|entry|^2 is singular.  |det| == 0 covers the
    zero matrix; a NaN entry makes det NaN and passes, as the numpy check
    did; norm * norm is inf past the float range, where ** would raise.
    """
    det = a * d - b * c
    try:
        adet, norm, mb, mc, md = abs(det), abs(a), abs(b), abs(c), abs(d)
    except OverflowError:
        adet, norm, mb, mc, md = _mod(det), _mod(a), _mod(b), _mod(c), _mod(d)
    if mb > norm:  # max(), compared as it compares, without the call: this runs per product
        norm = mb
    if mc > norm:
        norm = mc
    if md > norm:
        norm = md
    if adet == 0 or adet < SING_TOL * norm * norm:
        raise SingularMapError("singular matrix %r" % (((a, b), (c, d)),))


_IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)


def _mul(m, n):
    """The product m @ n of two row-major (a, b, c, d) tuples."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _adj(m):
    """The adjugate of a row-major (a, b, c, d): its inverse times its det."""
    a, b, c, d = m
    return d, -b, -c, a


def _apply(m, p):
    """The image of the point p under the row-major (a, b, c, d) m."""
    (a, b, c, d), (num, den) = m, p
    return _point(a * num + b * den, c * num + d * den)


def _chain(factors, start):
    """start @ f1 @ f2 @ ... on row-major (a, b, c, d) tuples, left to right.

    Every partial product meets MoebiusMap's singularity rule, so a chain
    raises exactly where the same product of MoebiusMaps would, without
    building any MoebiusMap.  The rule is _check_nonsingular's, written out
    in place; only a modulus past the float range goes through it.
    """
    a, b, c, d = start
    for e, f, g, h in factors:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        det = a * d - b * c
        try:
            adet, norm, mb, mc, md = abs(det), abs(a), abs(b), abs(c), abs(d)
        except OverflowError:
            _check_nonsingular(a, b, c, d)
            continue
        if mb > norm:
            norm = mb
        if mc > norm:
            norm = mc
        if md > norm:
            norm = md
        if adet == 0 or adet < SING_TOL * norm * norm:
            raise SingularMapError("singular matrix %r" % (((a, b), (c, d)),))
    return a, b, c, d


def _mod(z):
    """|z|, or inf where it lies past the float range.

    Python's abs() raises OverflowError for a complex number with finite
    parts whose modulus overflows; np.abs returns inf there.
    """
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _max_abs(a, b, c, d):
    """Largest modulus among four entries; NaN if any entry is NaN.

    Python's max() drops a NaN that is not its first argument, so the sum
    of the moduli (NaN exactly when one of them is) decides first.  This
    keeps the NaN propagation of numpy's ``np.abs(m).max()``; a modulus
    past the float range counts as inf, as in _mod.
    """
    try:
        a, b, c, d = abs(a), abs(b), abs(c), abs(d)
    except OverflowError:
        a, b, c, d = _mod(a), _mod(b), _mod(c), _mod(d)
    total = a + b + c + d
    if total != total:
        return total
    if b > a:  # sum() and max() as they add and compare, without the calls
        a = b
    if c > a:
        a = c
    if d > a:
        a = d
    return a


def sl_normalize(m):
    """Scale to determinant 1 and fix the sign convention.

    The representative is chosen so that the first row-major entry with
    modulus above tolerance has argument in [0, pi).  This is a repo
    convention: PSL elements have no canonical SL lift.
    """
    return MoebiusMap(_sl_normalize(m.a, m.b, m.c, m.d))


def _sl_normalize(a, b, c, d):
    """sl_normalize on the entries of a row-major (a, b, c, d), as (a, b, c, d)."""
    r = sqrt_principal(a * d - b * c)
    s = (a / r, b / r, c / r, d / r)
    scale = _max_abs(*s)
    for v in s:
        if abs(v) > 1e-12 * scale:
            if v.imag < 0 or (v.imag == 0 and v.real < 0):
                s = (-s[0], -s[1], -s[2], -s[3])
            break
    return s


def cross_ratio(x0, x1, x2, x3):
    """Cross ratio [x0 : x1 : x2 : x3] = (x3-x0)(x2-x1)/((x3-x1)(x2-x0)).

    Computed on homogeneous pairs so any argument may be infinity.
    """
    return _cross_ratio(as_pair(x0), as_pair(x1), as_pair(x2), as_pair(x3))


def _cross_ratio(x0, x1, x2, x3):
    """cross_ratio of four (num, den) points."""
    (n0, d0), (n1, d1), (n2, d2), (n3, d3) = x0, x1, x2, x3
    num = (n3 * d0 - n0 * d3) * (n2 * d1 - n1 * d2)
    return num / _vanishing((n3 * d1 - n1 * d3) * (n2 * d0 - n0 * d2), "(x3 - x1)(x2 - x0)")


def mobius_with_axis(e, x, y):
    """The map M(e; x, y) fixing x with eigenvalue e and y with 1/e.

    Built from the conjugated diagonal form, so infinity among {x, y} is
    exact; the result has determinant 1.
    """
    e = _vanishing(e, "e")
    x = as_point(x)
    y = as_point(y)
    if x.same_as(y):
        raise DegenerateInputError("axis endpoints coincide", factor="x - y")
    # columns of p are homogeneous representatives of x and y; the map is
    # p diag(e, 1/e) adj(p) / det(p)
    p = (x.num, y.num, x.den, y.den)
    s = _pair((x.num, x.den), (y.num, y.den))
    a, b, c, d = _mul(_mul(p, (e, 0j, 0j, 1 / e)), _adj(p))
    return MoebiusMap((a / s, b / s, c / s, d / s))


def axis_transport_squared(x, y, z1, z2):
    """t^2 such that M(t; x, y) sends z1 to z2, i.e. [y : x : z1 : z2]."""
    x, y, z1, z2 = (as_point(p) for p in (x, y, z1, z2))
    for z in (z1, z2):
        if z.same_as(x) or z.same_as(y):
            raise DegenerateInputError("transported point lies on the axis",
                                       factor="(z - x)(z - y)")
    return cross_ratio(y, x, z1, z2)


def _map_from_standard(x1, x2, x3):
    """Matrix sending (0, inf, 1) to (x1, x2, x3), up to scalar, as (a, b, c, d)."""
    # rows of the homogeneous pairs; the closed form
    #   ((x2(x3-x1), x1(x2-x3)), (x3-x1, x2-x3))
    # in homogeneous arithmetic:
    d31 = x3[0] * x1[1] - x1[0] * x3[1]
    d23 = x2[0] * x3[1] - x3[0] * x2[1]
    return (x2[0] * d31, x1[0] * d23, x2[1] * d31, x1[1] * d23)


def three_point_map(src, dst):
    """The unique PGL element sending the triple src to the triple dst."""
    src, dst = [as_pair(p) for p in src], [as_pair(p) for p in dst]
    if not _distinct(*src):
        raise DegenerateInputError("triple is not pairwise distinct", factor="x_i - x_j")
    return MoebiusMap(_three_point_map(src, dst))


def _three_point_map(src, dst):
    """three_point_map on (num, den) triples, as a nonsingular (a, b, c, d);
    the caller has tested src for distinctness, dst is tested here."""
    if not _distinct(*dst):
        raise DegenerateInputError("triple is not pairwise distinct", factor="x_i - x_j")
    # _mul(to, _adj(fro)), multiplied out
    a, b, c, d = _map_from_standard(*dst)
    e, f, g, h = _map_from_standard(*src)
    f, g = -f, -g
    m = a * h + b * g, a * f + b * e, c * h + d * g, c * f + d * e
    _check_nonsingular(*m)
    return m


def fixed_points_with_eigs(m):
    """Fixed points and eigenvalue of an SL-normalized non-parabolic map.

    Returns (x, e, y) with m x = x for eigenvalue e and m y = y for 1/e,
    where e is the root of l^2 - tr(m) l + 1 with |e| > 1 (ties broken by
    arg(e) in [0, pi)).  The other branch is reached through the flip
    action, not here.
    """
    x, e, y = _fixed_points_with_eigs(m.a, m.b, m.c, m.d, 1e-9)
    return ProjectivePoint(*x), e, ProjectivePoint(*y)


def _fixed_points_with_eigs(a, b, c, d, tol):
    """fixed_points_with_eigs on the entries of a row-major (a, b, c, d).

    _trace_roots, sqrt_principal and the eigenvector rows are written out in
    place: recover solves every vertex word this way.
    """
    if abs(a * d - b * c - 1) > 1e-8:
        raise DegenerateInputError("fixed_points_with_eigs expects an SL-normalized map",
                                   factor="det - 1")
    tr = a + d
    try:
        scale = abs(tr)
    except OverflowError:
        scale = math.inf
    scale = scale * scale
    if not scale > 1.0:  # max(1.0, |tr|^2), NaN included
        scale = 1.0
    if scale == math.inf and cmath.isfinite(tr):  # tr^2 past the float range: rare, left to _trace_roots
        e, other = _trace_roots(tr)
        size = abs(e)
    else:
        w = cmath.sqrt(_vanishing(tr * tr - 4, "tr^2 - 4", tol * scale))
        if w.imag < 0 or (w.imag == 0 and w.real < 0):
            w = -w
        plus, minus = (tr + w) / 2, (tr - w) / 2
        size = abs(plus)
        if size >= abs(minus):
            e, other = plus, 1 / plus
        else:
            e, other = 1 / minus, minus
            size = abs(e)
    if size < 1 or (abs(size - 1) <= 1e-12 and not (0 <= cmath.phase(e) < math.pi)):
        e = other
    # x for e, then y for 1/e, solve (a - lam) u + b v = 0: of the candidate rows
    # (b, lam - a) and (lam - d, c) take the larger, the first on a tie or NaN;
    # a (0 : 0) row goes to _point, which raises
    sb, sc = abs(b), abs(c)
    u, q = e - d, e - a
    x = (u, c) if abs(u) + sc > sb + abs(q) else (b, q)
    if x[0] == 0 and x[1] == 0:
        _point(*x)
    lam = 1 / e
    u, q = lam - d, lam - a
    y = (u, c) if abs(u) + sc > sb + abs(q) else (b, q)
    if y[0] == 0 and y[1] == 0:
        _point(*y)
    return x, e, y


def _trace_roots(tr, tol=1e-9):
    """The roots ((tr + w)/2, (tr - w)/2) of x^2 - tr x + 1, w = sqrt_principal(tr^2 - 4).

    The root of larger modulus is formed directly and the other as its
    inverse (the roots multiply to 1), so neither loses digits to
    cancellation.  A nearly double root, tr near +-2, raises.
    """
    try:
        scale = abs(tr)
    except OverflowError:  # a finite complex trace whose modulus is past the float range
        scale = math.inf
    if scale * scale == math.inf and cmath.isfinite(tr):  # the roots are tr and 1/tr to double precision
        inv = 0.25 / (0.25 * tr)  # 1 / tr, kept off the overflow of complex division
        return (inv, tr) if tr.imag < 0 or (tr.imag == 0 and tr.real < 0) else (tr, inv)
    w = sqrt_principal(_vanishing(tr * tr - 4, "tr^2 - 4", tol * max(1.0, scale * scale)))
    plus, minus = (tr + w) / 2, (tr - w) / 2
    if abs(plus) >= abs(minus):
        return plus, 1 / plus
    return 1 / minus, minus
