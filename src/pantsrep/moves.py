"""The five moves on pants decompositions with dual graphs.

Type I reverses an edge orientation, II is a Dehn twist along a pants
curve, III half-twists the three edges at a vertex, IV relabels by a graph
automorphism, V is the elementary move replacing the cut curve of a
four-holed sphere or one-holed torus.  Each move comes with the exact
transformation of the eigenvalue-twist parameters.
"""

from collections import namedtuple

from .projective import DegenerateInputError, _at, _trace_roots, _vanishing, sqrt_principal
from .surface import Edge, FatGraph, PantsSurface, Vertex
from .coordinates import (
    EdgeParams,
    _end_eigen,
    four_holed_traces,
    local_picture,
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

    A parabolic new curve (tr near +-2) raises DegenerateInputError.
    """
    _, e = _trace_roots(tr)
    if branch is None:
        return e
    e = branch
    if abs(e * e - tr * e + 1) > 1e-6 * max(1.0, abs(tr)) * max(1.0, abs(e) ** 2):
        raise ValueError("branch is not a root of x^2 - tr x + 1")
    return e


def elementary_four_holed(es, t1, t_other, branch=None):
    """Type V on a four-holed sphere: new (e1', t1', {position: twist}).

    es = (e1..e5) orientation-adjusted around the old interior edge, t1 its
    twist.  t_other maps each neighbor position (2..5) that is itself an
    interior edge of a larger surface to its old twist; the returned dict
    maps the same positions to their new twists.
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

    factors = {
        2: (f12_3 * f13_2 * (t1 + 1))
        / ((e2 * e3 - e1) * f13_2 * t1 + (1 - e1 * e2 * e3) * f12_3)
        * (e2 * e1p - e5)
        / (e2 * e5 - e1p),
        3: (e2 * e3 - e1)
        * (f13_2 * f14_5 * t1 + f12_3 * f15_4)
        / (f13_2 * ((e2 * e3 - e1) * f14_5 * t1 + (1 - e1 * e2 * e3) * f15_4)),
        4: (f13_2 * f14_5 * t1 + f12_3 * f15_4)
        / (f13_2 * (e4 * e5 - e1) * t1 + f12_3 * (1 - e1 * e4 * e5))
        * (e3 * e1p - e4)
        / (1 - e3 * e4 * e1p),
        5: f15_4
        * (e1 * e4 * e5 - 1)
        * (t1 + 1)
        / ((e1 - e4 * e5) * f14_5 * t1 + (e1 * e4 * e5 - 1) * f15_4),
    }
    return e1p, t1p, {pos: factors[pos] * t for pos, t in t_other.items()}


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


def _rewired(surface, vertices, edges):
    """A new surface, on surface's tree, whose graph replaces only the
    records a move changes (``FatGraph._rewired``).  The new surface and
    graph compile their own presentations and graph facts.
    """
    return PantsSurface(surface.genus, surface.boundary, surface.graph._rewired(vertices, edges),
                        tree=surface.tree)


def apply_move(surface, params, move):
    """Apply one move, returning (new surface, new params).

    A DegenerateInputError or ArithmeticError is re-raised, class and factor
    kept, with its message prefixed "vertex <id>: " or, for an edge, "edge <id>: ".
    """
    try:
        graph = surface.graph
        kind = move.kind
        if kind == "reverse":
            edge = move.target
            eigen = dict(params.eigen)
            twist = dict(params.twist)
            if graph.is_boundary(edge):
                # reversing plus inverting keeps every adjusted local value
                eigen[edge] = 1 / eigen[edge]
            else:
                lp = local_picture(surface, params, edge)
                eigen[edge], twist[edge] = reverse_edge_formula(lp.es, lp.t1)
            e = graph.edges[edge]
            flip = {"tail": "head", "head": "tail"}
            ends = {}
            for vid in (e.tail, e.head):
                rec = graph.vertices[vid]
                ends[vid] = rec._replace(incident=tuple(
                    (eid, flip[end] if eid == edge else end) for eid, end in rec.incident))
            new_surface = _rewired(surface, ends, {edge: Edge(edge, e.head, e.tail)})
            return new_surface, EdgeParams(eigen, twist)
        if kind in ("twist-r", "twist-l"):
            edge = move.target
            if graph.is_boundary(edge):
                raise ValueError("Dehn twists act along interior pants curves")
            twist = dict(params.twist)
            _, twist[edge] = dehn_twist_formula(
                params.eigen[edge], twist[edge], "right" if kind == "twist-r" else "left"
            )
            return surface, EdgeParams(dict(params.eigen), twist)
        if kind == "vertex":
            vid = move.target
            if surface.graph.vertices[vid].kind != "tri":
                raise ValueError("vertex move needs a trivalent vertex")
            twist = dict(params.twist)
            inc = graph.vertices[vid].incident
            es = [_end_eigen(params.eigen[eid], end) for eid, end in inc]
            for s, (eid, _end) in enumerate(inc):
                if graph.is_boundary(eid):
                    continue
                factor = half_twist_formula(es[s], es[(s + 1) % 3], es[(s + 2) % 3], 1)
                twist[eid] = factor * twist[eid]
            # the half twists reverse the counterclockwise order at the vertex
            new_surface = _rewired(surface, {vid: Vertex(vid, "tri", (inc[0], inc[2], inc[1]))}, {})
            return new_surface, EdgeParams(dict(params.eigen), twist)
        if kind == "auto":
            vperm = move.data.get("vertices", {})
            eperm = move.data.get("edges", {})
            # a relabelling changes every record, so the graph is built anew
            new_graph = FatGraph(
                [Vertex(vperm.get(v.id, v.id), v.kind,
                        tuple((eperm.get(eid, eid), end) for eid, end in v.incident))
                 for v in graph.vertices.values()],
                [Edge(eperm.get(e.id, e.id), vperm.get(e.tail, e.tail), vperm.get(e.head, e.head))
                 for e in graph.edges.values()])
            tree = (None if surface.tree is None
                    else {eperm.get(eid, eid) for eid in surface.tree})
            eigen = {eperm.get(k, k): v for k, v in params.eigen.items()}
            twist = {eperm.get(k, k): v for k, v in params.twist.items()}
            return (PantsSurface(surface.genus, surface.boundary, new_graph, tree=tree),
                    EdgeParams(eigen, twist))
        if kind == "elem":
            return _elementary_move(surface, params, move.target, move.branch)
        raise ValueError("unknown move kind %r" % (kind,))
    except (DegenerateInputError, ArithmeticError) as ex:
        raise _at("%s %r" % ("vertex" if move.kind == "vertex" else "edge", move.target), ex)


def _elementary_move(surface, params, edge, branch):
    graph = surface.graph
    if graph.is_boundary(edge):
        raise ValueError("elementary move needs an interior edge")
    e = graph.edges[edge]
    if e.tail == e.head:
        # one-holed torus picture
        lp = local_picture(surface, params, edge)
        boundary_eid = None
        e2 = None
        for slot, value in zip(lp.neighbor_slots, lp.es[1:]):
            if slot[0] != edge:
                boundary_eid, e2 = slot[0], value
                break
        e1p, t1p, t2_factor = elementary_one_holed(
            params.eigen[edge], e2, params.twist[edge], branch
        )
        eigen = dict(params.eigen)
        twist = dict(params.twist)
        eigen[edge] = e1p
        twist[edge] = t1p
        if boundary_eid in twist:
            twist[boundary_eid] = t2_factor * twist[boundary_eid]
        return surface, EdgeParams(eigen, twist)

    lp = local_picture(surface, params, edge)
    neighbor_eids = [eid for eid, _ in lp.neighbor_slots]
    if len(set(neighbor_eids)) != 4 or edge in neighbor_eids:
        raise ValueError(
            "elementary move implemented for embedded four-holed pictures; "
            "self-glued configurations reduce to the one-holed case via moves"
        )
    t_other = {
        pos: params.twist[eid]
        for pos, eid in zip((2, 3, 4, 5), neighbor_eids)
        if eid in params.twist
    }
    e1p, t1p, new_other = elementary_four_holed(lp.es, lp.t1, t_other, branch)
    eigen = dict(params.eigen)
    twist = dict(params.twist)
    eigen[edge] = e1p
    twist[edge] = t1p
    for pos, eid in zip((2, 3, 4, 5), neighbor_eids):
        if eid in twist:
            twist[eid] = new_other[pos]

    # regroup the cuffs: tail keeps (old position-5, position-2) neighbors,
    # head keeps (position-3, position-4), matching the relabeled picture
    (v, _), (w, _) = lp.tail_slots, lp.head_slots
    g2, g3, g4, g5 = lp.neighbor_slots
    # the position-3 end moves from v to w, the position-5 end from w to v;
    # the four neighbor edges are distinct and none is the edge itself
    moved = {eid: graph.edges[eid]._replace(**{end: new_v}) for (eid, end), new_v in ((g3, w), (g5, v))}
    new_surface = _rewired(surface, {v: Vertex(v, "tri", ((edge, "tail"), g5, g2)),
                                     w: Vertex(w, "tri", ((edge, "head"), g3, g4))}, moved)
    return new_surface, EdgeParams(eigen, twist)
