"""Eigenvalue-twist coordinates: domain, propagation, gluing, twist extraction.

An EdgeParams assigns an eigenvalue parameter to every edge of the fat graph
and a twist parameter to every interior edge.  The propagation formulas
transport fixed points across an interior edge of the (universal cover of
the) graph: with the edge oriented from the vertex carrying (x1, x2, x3) to
the vertex carrying (x1, x4, x5), both triples counterclockwise starting at
the shared edge, the equations give (x4, x5).  They are written once
(_across), and read from either end: seen from the head the picture is
(e1, e4, e5, e2, e3) with twist 1/t1, and they carry (x1, x5, x4) to
(x3, x2).  All eigenvalues entering these formulas must already be
orientation-adjusted (invert e for an edge pointing into its vertex);
_end_eigen owns that adjustment.  The public functions coerce their points
once and wrap kernels on numbers and (num, den) points, which builder calls
directly; eigenvalues and twists are computed on as given.
"""

import cmath
import json
import math
from collections import namedtuple

from .projective import (
    DegenerateInputError,
    ProjectivePoint,
    _cross_ratio,
    _vanishing,
    as_pair,
    as_point,
    mobius_with_axis,
    sqrt_principal,
)
from .pants import is_admissible_triple
from .surface import _picture_slots

EdgeParams = namedtuple("EdgeParams", ["eigen", "twist"])

#: a factor of the propagation and twist formulas vanishes at or below this,
#: relative to its scale
_FACTOR_TOL = 1e-9
#: in_domain's default tolerance, the one build checks its parameters at
DOMAIN_TOL = 1e-9


def _end_eigen(e, end):
    """The eigenvalue parameter e of an edge as seen from one of its ends.

    e at the edge's tail, 1/e at its head.  The map is its own inverse, so
    it also turns the value seen at an end back into the parameter.
    """
    return e if end == "tail" else 1 / e


def in_domain(params, surface, tol=DOMAIN_TOL):
    """Membership in E(S,C) x (C*)^k.

    Every eigenvalue avoids {0, +-1}, every vertex triple satisfies
    e_i^{+-1} e_j^{+-1} e_k^{+-1} != 1 (equivalently the admissibility
    inequalities, which are inversion-symmetric), and twists are nonzero.
    Every value must be finite.
    Eigenvalues keyed by other than the edge ids, or twists by other than
    the interior edge ids, raise KeyError naming the ids that differ.
    """
    graph = surface.graph
    _check_keys(params.eigen, graph.edges.keys(), "eigenvalue keys are not the edge ids")
    _check_keys(params.twist, graph._interior, "twist keys are not the interior edge ids")
    for e in params.eigen.values():
        if not cmath.isfinite(e) or abs(e) < tol or abs(e - 1) < tol or abs(e + 1) < tol:
            return False
    for t in params.twist.values():
        if not cmath.isfinite(t) or abs(t) < tol:
            return False
    eigen = params.eigen
    for i, j, k in graph._triples.values():
        if not is_admissible_triple(eigen[i], eigen[j], eigen[k], tol=tol):
            return False
    return True


def _check_keys(values, ids, label):
    """KeyError naming the missing and unexpected ids, unless values is keyed by ids."""
    if values.keys() != ids:
        missing = sorted(ids - values.keys())
        unexpected = [key for key in values if key not in ids]
        raise KeyError("%s: missing %r, unexpected %r" % (label, missing, unexpected))


def _ratio_point(a, b, c, x1, x2, x3):
    """The point (A x1 (x2-x3) + B x2 (x3-x1) + C x3 (x1-x2)) / (same with x_i -> 1).

    Evaluated on homogeneous pairs, so any of the x_i may be infinity.  The
    pair is scaled to max(|num|, |den|) = 1, so that points carried along a
    deep tree neither overflow nor underflow.
    """
    (n1, d1), (n2, d2), (n3, d3) = x1, x2, x3
    w1, w2, w3 = a * (n2 * d3 - n3 * d2), b * (n3 * d1 - n1 * d3), c * (n1 * d2 - n2 * d1)
    num = w1 * n1 + w2 * n2 + w3 * n3
    den = w1 * d1 + w2 * d2 + w3 * d3
    s = _vanishing(max(abs(num), abs(den)), "(num : den)")
    return num / s, den / s


def propagate_forward(es, t1, x1, x2, x3):
    """Fixed points (x4, x5) across the edge, from (x1, x2, x3)."""
    _, x4, x5 = _across(es, t1, (as_pair(x1), as_pair(x2), as_pair(x3)), True)
    return ProjectivePoint(*x4), ProjectivePoint(*x5)


def propagate_backward(es, t1, x1, x4, x5):
    """Fixed points (x2, x3) on the near side, from (x1, x4, x5)."""
    _, x2, x3 = _across(es, t1, (as_pair(x1), as_pair(x4), as_pair(x5)), False)
    return ProjectivePoint(*x2), ProjectivePoint(*x3)


def _across(es, t1, xs, forward):
    """The triple at the far end of an edge from the one at the near end.

    es and t1 are the edge's local picture, on numbers; the points are
    (num, den) pairs.  Both triples are read counterclockwise from the
    edge: (x1, x2, x3) at the tail and (x1, x4, x5) at the head.  forward
    crosses from tail to head; crossing back reads the picture from the
    head.  The factor that must not vanish is tested first and named as
    seen from the tail: e1 e5 - e4 going forward, e1 e3 - e2 going back.
    """
    e1, e2, e3, e4, e5 = es
    x1, x2, x3 = xs
    if forward:
        _vanishing(e1 * e5 - e4, "e1 e5 - e4", _FACTOR_TOL * (abs(e1 * e5) + abs(e4)))
    else:
        _vanishing(e1 * e3 - e2, "e1 e3 - e2", _FACTOR_TOL * (abs(e1 * e3) + abs(e2)))
        # read from the head: (e1, e4, e5, e2, e3), 1/t1 carry (x1, x5, x4) to (x3, x2)
        e2, e3, e4, e5, t1, x2, x3 = e4, e5, e2, e3, 1 / t1, x3, x2
    f15_4 = e1 * e5 - e4
    a4 = e1 * (-(e1 * e3 - e2) * (e1 * e4 - e5) * t1 + e3 * f15_4)
    b4 = e1 * e1 * e2 * f15_4
    c4 = e2 * f15_4
    x4 = _ratio_point(a4, b4, c4, x1, x2, x3)
    a5 = (e1 * e3 - e2) * t1 + e1 * e3
    b5 = e1 * e1 * e2
    c5 = e2
    x5 = _ratio_point(a5, b5, c5, x1, x2, x3)
    return (x1, x4, x5) if forward else (x1, x5, x4)


def gluing_map(t1, x1, y1):
    """M(sqrt(-t1); x1, y1), the map carrying x2 to x5 across the edge."""
    return mobius_with_axis(sqrt_principal(-_vanishing(t1, "t1")), x1, y1)


def twist_from_fixed_points(variant, es, xs):
    """Recover t1 from four of the five fixed points.

    xs maps the index i (1..5) to the fixed point x_i; the variants use
    {x1,x2,x3,x5}, {x1,x2,x3,x4}, {x1,x2,x4,x5}, {x1,x3,x4,x5} respectively.
    """
    return _twist(variant, es, {k: as_pair(v) for k, v in xs.items() if v is not None})


def _twist(variant, es, x):
    """twist_from_fixed_points on numbers and (num, den) points."""
    e1, e2, e3, e4, e5 = es
    if variant == 1:
        den = _vanishing(e2 - e1 * e3, "e2 - e1 e3", _FACTOR_TOL)
        return -1 + e2 * (1 - e1 * e1) / den * _cross_ratio(x[5], x[3], x[1], x[2])
    if variant == 2:
        den = _vanishing(e2 - e1 * e3, "e2 - e1 e3", _FACTOR_TOL)
        den2 = _vanishing(e1 * e4 - e5, "e1 e4 - e5", _FACTOR_TOL)
        inner = -1 + e2 * (1 - e1 * e1) / den * _cross_ratio(x[4], x[3], x[1], x[2])
        return -(e1 * e5 - e4) / (e1 * den2) * inner
    if variant == 3:
        den = _vanishing(e4 - e1 * e5, "e4 - e1 e5", _FACTOR_TOL)
        inv = -1 + e4 * (1 - e1 * e1) / den * _cross_ratio(x[2], x[4], x[1], x[5])
        return 1 / _vanishing(inv, "1/t1", _FACTOR_TOL)
    if variant == 4:
        den = _vanishing(e4 - e1 * e5, "e4 - e1 e5", _FACTOR_TOL)
        den2 = _vanishing(e1 * e2 - e3, "e1 e2 - e3", _FACTOR_TOL)
        inner = -1 + e4 * (1 - e1 * e1) / den * _cross_ratio(x[3], x[4], x[1], x[5])
        inv = -(e1 * e3 - e2) / (e1 * den2) * inner
        return 1 / _vanishing(inv, "1/t1", _FACTOR_TOL)
    raise ValueError("variant must be 1, 2, 3 or 4")


def best_twist_from_fixed_points(es, xs):
    """The variant whose cross ratio is best conditioned, then its value (xs holds x1..x5)."""
    p = {i: as_point(xs[i]) for i in (5, 3, 1, 2, 4)}
    return twist_from_fixed_points(_best_variant({i: (q.num, q.den) for i, q in p.items()}), es, p)


def _best_variant(x):
    """The variant of twist_from_fixed_points to use on the five (num, den) points x.

    The four formulas agree exactly; this picks the one whose points are most
    spread out (largest min over its pairs of |det| / (scale scale)).  Each
    scale and spread is computed once, in the order the variants first read
    them; a tie keeps the lower variant, and a variant with a NaN spread never wins.
    """
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
    spreads = d35 + d15 + d25 + d13 + d23 + d12 + d34 + d14 + d24 + d45
    if spreads != spreads:  # min() keeps a NaN only in first place; as -1.0 it always loses
        d35, d15, d25, d13, d23, d12, d34, d14, d24, d45 = [
            -1.0 if v != v else v for v in (d35, d15, d25, d13, d23, d12, d34, d14, d24, d45)]
    best, score = None, -1.0
    m = min(d35, d15, d25, d13, d23, d12)
    if m > score:
        best, score = 1, m
    m = min(d34, d14, d24, d13, d23, d12)
    if m > score:
        best, score = 2, m
    m = min(d24, d12, d25, d14, d45, d15)
    if m > score:
        best, score = 3, m
    if min(d34, d13, d35, d14, d45, d15) > score:
        best = 4
    if best is None:
        raise DegenerateInputError("no variant has a finite spread", factor="x1 .. x5")
    return best


def four_holed_traces(es, t1):
    """(tr(g3 g4), tr(g2 g4), tr(g3 g5)) of the four-holed sphere closed forms."""
    e1, e2, e3, e4, e5 = es
    _vanishing(e1 - 1 / e1, "e1 - 1/e1", _FACTOR_TOL)
    p = (e2 * e3 - e1) * (e1 * e3 - e2) / (e1 * e2 * e3) * (e4 * e5 - e1) * (e1 * e4 - e5) / (e1 * e4 * e5)
    q = (1 - e1 * e2 * e3) * (e1 * e2 - e3) / (e1 * e2 * e3) * (1 - e1 * e4 * e5) * (e1 * e5 - e4) / (e1 * e4 * e5)
    c3, c5, c2, c4 = e3 + 1 / e3, e5 + 1 / e5, e2 + 1 / e2, e4 + 1 / e4
    s1 = c3 * c5 + c2 * c4
    s2 = c2 * c5 + c3 * c4
    s3 = c2 * c4 + c3 * c5
    d = (e1 - 1 / e1) ** 2
    c1 = e1 + 1 / e1
    tr34 = (-p * t1 - q / t1 + c1 * s1 - 2 * s2) / d
    tr24 = (p * e1 * t1 + q / (e1 * t1) + c1 * s2 - 2 * s3) / d
    tr35 = (p * t1 / e1 + q * e1 / t1 + c1 * s2 - 2 * s3) / d
    return tr34, tr24, tr35


def twist_from_traces_four_holed(es, tr24, tr35):
    """t1 from tr(rho(g2 g4)) and tr(rho(g3 g5))."""
    e1, e2, e3, e4, e5 = es
    c1 = _vanishing(e1 + 1 / e1, "e1 + 1/e1", _FACTOR_TOL)
    _vanishing((e2 * e3 - e1) * (e1 * e3 - e2), "(e2 e3 - e1)(e1 e3 - e2)", _FACTOR_TOL)
    _vanishing((e4 * e5 - e1) * (e1 * e4 - e5), "(e4 e5 - e1)(e1 e4 - e5)", _FACTOR_TOL)
    c2, c5, c3, c4 = e2 + 1 / e2, e5 + 1 / e5, e3 + 1 / e3, e4 + 1 / e4
    s2 = c2 * c5 + c3 * c4
    s3 = c2 * c4 + c3 * c5
    lead = (
        1
        / c1
        * (e1 * e2 * e3)
        / ((e2 * e3 - e1) * (e1 * e3 - e2))
        * (e1 * e4 * e5)
        / ((e4 * e5 - e1) * (e1 * e4 - e5))
    )
    return lead * (
        (e1 - 1 / e1) * (e1 * tr24 - tr35 / e1) - c1 * s2 + 2 * s3
    )


def one_holed_traces(e1, e2, t1):
    """(tr(rho(beta_1)), tr(rho(alpha_1 beta_1))) for the one-holed torus.

    The sign depends on the branch of sqrt(-e2 t1); squared traces are
    branch-free.
    """
    root = sqrt_principal(-e2 * t1)
    den = (e1 * e1 - 1) * root
    trb = -((e1 * e1 - e2) * t1 + 1 - e1 * e1 * e2) / den
    trab = -((e1 * e1 - e2) * e1 * e1 * t1 + 1 - e1 * e1 * e2) / (den * e1)
    return trb, trab


def twist_from_traces_one_holed(e1, e2, trb, trab):
    """t1 = -e2/(e1^2 - e2)^2 (tr(beta_1) - e1 tr(alpha_1 beta_1))^2."""
    den = _vanishing(e1 * e1 - e2, "e1^2 - e2", _FACTOR_TOL)
    return -e2 / den ** 2 * (trb - e1 * trab) ** 2


# ---------------------------------------------------------------------------
# JSON encoding


def params_to_json(params):
    return {
        "eigen": {str(k): [v.real, v.imag] for k, v in sorted(params.eigen.items())},
        "twist": {str(k): [v.real, v.imag] for k, v in sorted(params.twist.items())},
    }


class ParamsSchemaError(ValueError):
    """A parameter document that does not have the shape params_to_json writes."""


def _is_number_pair(v):
    """A JSON [re, im] pair of finite numbers (booleans are not numbers)."""
    return (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    and math.isfinite(x) for x in v))


def params_from_json(doc):
    """EdgeParams from {"eigen": {id: [re, im]}, "twist": {id: [re, im]}}.

    Every key must be an integer written canonically, as str(int(key)) writes
    it, and every value a list of two finite numbers; anything else raises
    ParamsSchemaError, so no two keys can name one edge.
    """
    if not isinstance(doc, dict):
        raise ParamsSchemaError("parameter document must be a JSON object")
    parts = []
    for part in ("eigen", "twist"):
        values = doc.get(part)
        if not isinstance(values, dict):
            raise ParamsSchemaError("parameter document needs an object %r" % part)
        out = {}
        for key, v in values.items():
            if not _is_number_pair(v):
                raise ParamsSchemaError("%s[%s] must be a list of two finite numbers, got %s"
                                        % (part, key, json.dumps(v)))
            try:
                eid = int(key)
            except ValueError:
                eid = None
            if eid is None or str(eid) != key:
                raise ParamsSchemaError("%s key %r is not an edge id" % (part, key))
            out[eid] = complex(v[0], v[1])
        parts.append(out)
    return EdgeParams(*parts)


def load_params(path):
    with open(path) as fh:
        return params_from_json(json.load(fh))


def save_params(params, path):
    """Write params as params_to_json does; a value that is not finite raises
    ValueError before the file is opened, since load_params would refuse it."""
    text = json.dumps(params_to_json(params), indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# local picture of an interior edge

LocalPicture = namedtuple(
    "LocalPicture", ["edge", "es", "t1", "tail_slots", "head_slots", "neighbor_slots"]
)


def local_picture(surface, params, edge):
    """Orientation-adjusted (e1..e5) around an interior edge.

    e2, e3 sit counterclockwise after the edge at its tail vertex, e4, e5
    counterclockwise after it at its head vertex; self-gluings (loops, or a
    neighbor edge occurring twice) enter once per incidence, which is the
    covering trick of the one-holed torus picture.
    """
    graph = surface.graph
    if graph.is_boundary(edge):
        raise ValueError("edge %r is a boundary edge" % (edge,))
    tail, head, nbrs = _picture_slots(graph, edge)
    es = _picture_es(params.eigen, edge, nbrs)
    return LocalPicture(edge, es, params.twist[edge], tail, head, nbrs)


def _picture_es(eigen, edge, nbrs):
    """(e1, ..., e5) of edge's local picture, from its four neighbor slots."""
    (i2, n2), (i3, n3), (i4, n4), (i5, n5) = nbrs
    return (eigen[edge], _end_eigen(eigen[i2], n2), _end_eigen(eigen[i3], n3),
            _end_eigen(eigen[i4], n4), _end_eigen(eigen[i5], n5))
