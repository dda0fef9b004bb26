"""The five moves on pants decompositions with dual graphs.

Type I reverses an edge orientation, II is a Dehn twist along a pants
curve, III half-twists the three edges at a vertex, IV relabels by a graph
automorphism, V is the elementary move replacing the cut curve of a
four-holed sphere or one-holed torus.  Each move comes with the exact
transformation of the eigenvalue-twist parameters.
"""

import cmath
import math
from collections import namedtuple

from .projective import DegenerateInputError, _at, _trace_roots, _vanishing, sqrt_principal
from .surface import Edge, FatGraph, PantsSurface, Vertex, _picture_slots
from .coordinates import (
    EdgeParams,
    _end_eigen,
    _picture_es,
    four_holed_traces,
    one_holed_traces,
    twist_from_traces_four_holed,
)

Move = namedtuple("Move", ["kind", "target", "branch", "data"])
Move.__new__.__defaults__ = (None, None)


def reverse_edge_formula(es, t1):
    """(e1, t1) after reversing the edge carrying them."""
    e1, e2, e3, e4, e5 = es
    coeff = (e1 * e2 - e3) * (e1 * e5 - e4) / ((e1 * e3 - e2) * (e1 * e4 - e5))
    return 1 / e1, coeff / t1


def dehn_twist_formula(e, t, direction="right"):
    if direction == "right":
        return e, e * e * t
    if direction == "left":
        return e, t / (e * e)
    raise ValueError("direction must be 'right' or 'left'")


def half_twist_formula(e1, e2, e3, t1):
    """Twist after a right half twist at the (e1; e2, e3) vertex."""
    return -e1 * (e1 * e3 - e2) / (e1 * e2 - e3) * t1


def new_eigenvalue(tr, branch=None):
    """Root of x^2 - tr x + 1, default (tr - sqrt(tr^2 - 4))/2.

    A parabolic new curve (tr near +-2) or a trace that is not finite
    raises DegenerateInputError, and a branch that is not a finite root
    ValueError; a finite branch whose square or residual is not finite
    (past the float range, or NaN) is named in it.
    """
    _, e = _trace_roots(tr)
    if branch is None:
        if e != e:  # a NaN trace, which _trace_roots passes through
            raise DegenerateInputError("trace %r is not a number" % (tr,), factor="tr^2 - 4")
        return e
    e = branch
    if not cmath.isfinite(e):
        raise ValueError("branch is not a root of x^2 - tr x + 1")
    try:
        res, m = abs(e * e - tr * e + 1), abs(e)
    except OverflowError:  # a finite number whose modulus is past the float range
        res = m = math.inf
    sq = m * m  # inf past the float range, where ** would raise
    if not (res < math.inf and sq < math.inf):
        raise ValueError("branch %r: its square or residual e^2 - tr e + 1 is not finite" % (e,))
    if not res <= 1e-6 * max(1.0, abs(tr)) * max(1.0, sq):
        raise ValueError("branch is not a root of x^2 - tr x + 1")
    return e


def elementary_four_holed(es, t1, t_other, branch=None):
    """Type V on a four-holed sphere: new (e1', t1', {position: twist}).

    es = (e1..e5) orientation-adjusted around the old interior edge, t1 its
    twist.  t_other maps each neighbor position (2..5) that is itself an
    interior edge of a larger surface to its old twist; the returned dict
    maps the same positions to their new twists, and only their factors
    are evaluated: a position not in t_other cannot raise.
    """
    e1, e2, e3, e4, e5 = es
    tr34, tr24, tr35 = four_holed_traces(es, t1)
    e1p = new_eigenvalue(tr34, branch)

    f13_2, f12_3 = e1 * e3 - e2, e1 * e2 - e3
    f14_5, f15_4 = e1 * e4 - e5, e1 * e5 - e4
    num = (e4 * e1p - e3) * (
        e3 * e5 * (-f13_2 * t1 + e1 * f12_3) * e1p + e1 * f13_2 * t1 - f12_3
    )
    den = (e3 * e1p - e4) * (
        (e1 * f13_2 * t1 - f12_3) * e1p + e3 * e5 * (-f13_2 * t1 + e1 * f12_3)
    )
    t1p = num / _vanishing(den, "den t1'")

    # consistency with the trace-based expression: the new local picture is
    # (e1'; e5, e2 | e3, e4) with curve pairs swapped accordingly
    t1p_alt = twist_from_traces_four_holed((e1p, e5, e2, e3, e4), tr35, tr24)
    if abs(t1p - t1p_alt) > 1e-6 * max(1.0, abs(t1p)):
        raise DegenerateInputError("twist formulas disagree; parameters near a degeneracy",
                                   factor="t1' - t1'(traces)")

    new = {}
    for pos, t in t_other.items():
        if pos == 2:
            factor = ((f12_3 * f13_2 * (t1 + 1))
                      / ((e2 * e3 - e1) * f13_2 * t1 + (1 - e1 * e2 * e3) * f12_3)
                      * (e2 * e1p - e5) / (e2 * e5 - e1p))
        elif pos == 3:
            factor = ((e2 * e3 - e1) * (f13_2 * f14_5 * t1 + f12_3 * f15_4)
                      / (f13_2 * ((e2 * e3 - e1) * f14_5 * t1 + (1 - e1 * e2 * e3) * f15_4)))
        elif pos == 4:
            factor = ((f13_2 * f14_5 * t1 + f12_3 * f15_4)
                      / (f13_2 * (e4 * e5 - e1) * t1 + f12_3 * (1 - e1 * e4 * e5))
                      * (e3 * e1p - e4) / (1 - e3 * e4 * e1p))
        elif pos == 5:
            factor = (f15_4 * (e1 * e4 * e5 - 1) * (t1 + 1)
                      / ((e1 - e4 * e5) * f14_5 * t1 + (e1 * e4 * e5 - 1) * f15_4))
        else:
            raise KeyError(pos)
        new[pos] = factor * t
    return e1p, t1p, new


def elementary_one_holed(e1, e2, t1, branch=None):
    """Type V on a one-holed torus: new (e1', t1', boundary twist factor)."""
    trb, _ = one_holed_traces(e1, e2, t1)
    e1p = new_eigenvalue(trb, branch)
    _vanishing(e1p * e1p - e2, "e1'^2 - e2", 1e-12 * max(1.0, abs(e2)))
    root = sqrt_principal(-e2 * t1)
    trab_inv = -((e1 * e1 - e2) * t1 + e1 * e1 * (1 - e1 * e1 * e2)) / (
        e1 * (e1 * e1 - 1) * root
    )
    t1p = -e2 / (e1p * e1p - e2) ** 2 * ((e1 + 1 / e1) - e1p * trab_inv) ** 2
    t2_factor = (
        e2 * (e2 - e1 * e1) * (root * e1p + t1)
        / ((1 - e1 * e1 * e2) * root * e1p + (e2 - e1 * e1) * e2 * t1)
    )
    return e1p, t1p, t2_factor


def apply_move(surface, params, move):
    """Apply one move, returning (new surface, new params).

    Every kind but "auto" is a record rewrite plus parameter updates (the
    vertex and edge records it replaces, the eigenvalues and twists it
    changes); with no record replaced, the surface itself is returned.
    A changed twist that is not finite raises OverflowError.  A
    DegenerateInputError or ArithmeticError is re-raised, class and factor
    kept, with its message prefixed "vertex <id>: " or, for an edge, "edge <id>: ".
    """
    graph, kind, target = surface.graph, move.kind, move.target
    vertices, edges, eigen, twist = {}, {}, {}, {}
    try:
        if kind == "reverse":
            if graph.is_boundary(target):
                # reversing plus inverting keeps every adjusted local value
                eigen[target] = 1 / params.eigen[target]
            else:
                es = _picture_es(params.eigen, target, _picture_slots(graph, target)[2])
                eigen[target], twist[target] = reverse_edge_formula(es, params.twist[target])
            e = graph.edges[target]
            edges[target] = Edge(target, e.head, e.tail)
            for vid in (e.tail, e.head):
                rec = graph.vertices[vid]
                vertices[vid] = Vertex(vid, rec.kind, tuple([
                    key if key[0] != target else (target, "head" if key[1] == "tail" else "tail")
                    for key in rec.incident]))
        elif kind in ("twist-r", "twist-l"):
            if graph.is_boundary(target):
                raise ValueError("Dehn twists act along interior pants curves")
            _, twist[target] = dehn_twist_formula(params.eigen[target], params.twist[target],
                                                  "right" if kind == "twist-r" else "left")
        elif kind == "vertex":
            if graph.vertices[target].kind != "tri":
                raise ValueError("vertex move needs a trivalent vertex")
            inc = graph.vertices[target].incident
            es = [_end_eigen(params.eigen[eid], end) for eid, end in inc]
            for s, (eid, _end) in enumerate(inc):
                if not graph.is_boundary(eid):
                    # an edge met twice at the vertex is rescaled twice
                    factor = half_twist_formula(es[s], es[(s + 1) % 3], es[(s + 2) % 3], 1)
                    twist[eid] = factor * twist.get(eid, params.twist[eid])
            # the half twists reverse the counterclockwise order at the vertex
            vertices[target] = Vertex(target, "tri", (inc[0], inc[2], inc[1]))
        elif kind == "auto":
            return _relabelled(surface, params, move.data)
        elif kind == "elem":
            vertices, edges, eigen, twist = _elementary_move(graph, params, target, move.branch)
        else:
            raise ValueError("unknown move kind %r" % (kind,))
        for eid, t in twist.items():
            if not cmath.isfinite(t):
                raise OverflowError("twist %r = %r is not finite" % (eid, t))
    except (DegenerateInputError, ArithmeticError) as ex:
        raise _at("%s %r" % ("vertex" if kind == "vertex" else "edge", target), ex)
    if vertices or edges:
        surface = PantsSurface(surface.genus, surface.boundary, graph._rewired(vertices, edges),
                               tree=surface.tree)
    return surface, EdgeParams({**params.eigen, **eigen}, {**params.twist, **twist})


def _relabelled(surface, params, data):
    """Type IV: every record, the tree and the parameters relabelled by the
    "vertices" and "edges" maps of data (an id neither maps is kept)."""
    if data is None:
        raise ValueError('an auto move needs data: a "vertices" or an "edges" map')
    vperm, eperm, graph = data.get("vertices", {}), data.get("edges", {}), surface.graph
    for key, perm, ids in (("vertices", vperm, graph.vertices), ("edges", eperm, graph.edges)):
        new = [perm.get(i, i) for i in ids]
        if len(set(new)) < len(new):
            raise ValueError("the %s map is not injective: the surface's ids %s collide"
                             % (key, [i for i, j in zip(ids, new) if new.count(j) > 1]))
    # a relabelling changes every record, so the graph is built anew
    new_graph = FatGraph(
        [Vertex(vperm.get(v.id, v.id), v.kind,
                tuple((eperm.get(eid, eid), end) for eid, end in v.incident))
         for v in graph.vertices.values()],
        [Edge(eperm.get(e.id, e.id), vperm.get(e.tail, e.tail), vperm.get(e.head, e.head))
         for e in graph.edges.values()])
    tree = None if surface.tree is None else {eperm.get(eid, eid) for eid in surface.tree}
    return (PantsSurface(surface.genus, surface.boundary, new_graph, tree=tree),
            EdgeParams({eperm.get(k, k): v for k, v in params.eigen.items()},
                       {eperm.get(k, k): v for k, v in params.twist.items()}))


def _elementary_move(graph, params, edge, branch):
    """Type V at an interior edge: the vertex and edge records it replaces
    and the eigenvalues and twists it changes, as four dicts."""
    if graph.is_boundary(edge):
        raise ValueError("elementary move needs an interior edge")
    (v, _), (w, _), nbrs = _picture_slots(graph, edge)
    es, t1 = _picture_es(params.eigen, edge, nbrs), params.twist[edge]
    if v == w:
        # one-holed torus picture: the graph is unchanged
        for (boundary_eid, _), e2 in zip(nbrs, es[1:]):
            if boundary_eid != edge:  # the third edge at the vertex
                break
        e1p, t1p, t2_factor = elementary_one_holed(es[0], e2, t1, branch)
        twist = {edge: t1p}
        if boundary_eid in params.twist:
            twist[boundary_eid] = t2_factor * params.twist[boundary_eid]
        return {}, {}, {edge: e1p}, twist

    neighbor_eids = [eid for eid, _ in nbrs]
    if len(set(neighbor_eids)) != 4 or edge in neighbor_eids:
        raise ValueError("elementary move implemented for embedded four-holed pictures; "
                         "self-glued configurations reduce to the one-holed case via moves")
    t_other = {pos: params.twist[eid] for pos, eid in zip((2, 3, 4, 5), neighbor_eids)
               if eid in params.twist}
    e1p, t1p, new_other = elementary_four_holed(es, t1, t_other, branch)
    twist = {edge: t1p}
    for pos, t in new_other.items():
        twist[neighbor_eids[pos - 2]] = t

    # regroup the cuffs: tail keeps (old position-5, position-2) neighbors,
    # head keeps (position-3, position-4), matching the relabeled picture
    g2, g3, g4, g5 = nbrs
    # the position-3 end moves from v to w, the position-5 end from w to v;
    # the four neighbor edges are distinct and none is the edge itself
    return ({v: Vertex(v, "tri", ((edge, "tail"), g5, g2)), w: Vertex(w, "tri", ((edge, "head"), g3, g4))},
            {eid: graph.edges[eid]._replace(**{end: new_v}) for (eid, end), new_v in ((g3, w), (g5, v))},
            {edge: e1p}, twist)
