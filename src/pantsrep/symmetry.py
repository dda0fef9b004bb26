"""Finite group actions on the coordinates.

Two actions: inverting the eigenvalue parameter of a single edge (one Z/2
factor per edge), which rescales the twists of adjacent interior edges,
and the sign group of vectors with trivial product at every trivalent
vertex, which acts on eigenvalues only.  A flip, a sign check and a sign
action read the incidence lists and compile nothing on the graph.
"""

import cmath

from .coordinates import EdgeParams, _picture_es
from .projective import _at


def _occurrence_factor(es, position):
    """Twist rescaling when the neighbor at the given position is inverted.

    Positions follow the local picture: 2, 3 counterclockwise after the
    edge at its tail, 4, 5 at its head.  Inverting the position-3 or
    position-4 neighbor swaps the corresponding fixed point for its
    companion, which drops out of the twist cross ratio.
    """
    e1, e2, e3, e4, e5 = es
    if position == 2:
        return (e2 * e3 - e1) * (e1 * e3 - e2) / ((1 - e1 * e2 * e3) * (e1 * e2 - e3))
    if position == 5:
        return (e4 * e5 - e1) * (e1 * e4 - e5) / ((1 - e1 * e4 * e5) * (e1 * e5 - e4))
    return 1


def flip_eigenvalue(params, surface, edge):
    """Invert the eigenvalue at one edge and transport the twists along.

    The twist of the flipped edge itself inverts; the twist of every
    interior edge seeing the flipped edge in its local picture picks up
    the rescaling factor once per occurrence (so self-glued pictures are
    handled by the same rule through the covering trick).  Only those
    edges are visited: the interior edges at the flipped edge's two end
    vertices, in incidence order, each picture read once.  A changed twist
    that is not finite raises OverflowError.  A numeric error's message
    starts "edge <id>: ".
    """
    graph = surface.graph
    edges, vertices = graph.edges, graph.vertices
    if edge not in edges:
        raise KeyError("unknown edge %r" % (edge,))
    eigen = dict(params.eigen)
    twist = dict(params.twist)
    changed = []
    try:
        for f in dict.fromkeys([eid for vid in edges[edge][1:] for eid, _ in vertices[vid].incident]):
            # f's picture as _picture_slots reads it, written out: with is_boundary,
            # the helper calls were ~1 us of a ~7 us flip on genus two
            _, v, w = edges[f]
            tail, head = vertices[v], vertices[w]
            if tail.kind == "uni" or head.kind == "uni":
                continue
            at_v, at_w = tail.incident, head.incident
            sv, sw = at_v.index((f, "tail")), at_w.index((f, "head"))
            nbrs = at_v[(sv + 1) % 3], at_v[(sv + 2) % 3], at_w[(sw + 1) % 3], at_w[(sw + 2) % 3]
            (i2, _), (i3, _), (i4, _), (i5, _) = nbrs
            if edge == i2 or edge == i3 or edge == i4 or edge == i5:
                es = _picture_es(params.eigen, f, nbrs)
                scale = 1
                for position, eid in ((2, i2), (3, i3), (4, i4), (5, i5)):
                    if eid == edge:
                        scale *= _occurrence_factor(es, position)
                twist[f] = twist[f] * scale
                changed.append(f)
        if not graph.is_boundary(edge):
            twist[edge] = 1 / twist[edge]
            changed.append(edge)
        eigen[edge] = 1 / eigen[edge]
        for f in changed:
            if not cmath.isfinite(twist[f]):
                raise OverflowError("twist %r = %r is not finite" % (f, twist[f]))
    except ArithmeticError as ex:
        raise _at("edge %r" % (edge,), ex)
    return EdgeParams(eigen, twist)


def epsilon_basis(surface):
    """Basis of the sign vectors with product +1 around every vertex.

    Returned as dicts edge -> +-1.  Gaussian elimination over GF(2) on the
    vertex-parity system, one row per trivalent vertex: the XOR of its
    three edges' bits, so an edge met twice drops out.  The solution space
    has dimension g when the surface is closed and g + b - 1 otherwise.
    """
    edges = sorted(surface.graph.edges)
    index = {eid: i for i, eid in enumerate(edges)}
    rows = [(1 << index[i]) ^ (1 << index[j]) ^ (1 << index[k])
            for i, j, k in surface.graph._triples.values()]
    pivots = {}
    for row in rows:
        for col in pivots:
            if (row >> col) & 1:
                row ^= pivots[col]
        for col in reversed(range(len(edges))):
            if (row >> col) & 1:
                for pcol, prow in pivots.items():
                    if (prow >> col) & 1:
                        pivots[pcol] = prow ^ row
                pivots[col] = row
                break
    basis = []
    for f in (c for c in range(len(edges)) if c not in pivots):
        vec = 1 << f
        for col, row in pivots.items():
            if (row >> f) & 1:
                vec |= 1 << col
        basis.append({eid: (-1 if (vec >> index[eid]) & 1 else 1) for eid in edges})
    return basis


def check_epsilon(surface, eps):
    """True iff eps maps edge ids to 1 or -1 (a missing edge counts as 1)
    and the signs at each trivalent vertex multiply to +1.

    An edge met twice at a vertex contributes a square, so it cancels.
    One pass over the incidence lists decides it; nothing is compiled.
    """
    graph, get = surface.graph, eps.get
    edges = graph.edges
    for k, v in eps.items():
        if k not in edges or v not in (1, -1):
            return False
    for v in graph.vertices.values():
        if v.kind == "tri":
            (i, _), (j, _), (k, _) = v.incident
            if not get(i, 1) * get(j, 1) * get(k, 1) == 1:
                return False
    return True


def act_epsilon(params, eps, surface):
    """eigen_i -> eps_i * eigen_i; twists untouched (a PSL-trivial action).

    A vector check_epsilon refuses on the surface raises ValueError,
    naming the first entry that is not an edge id mapped to 1 or -1.
    """
    if not check_epsilon(surface, eps):
        edges = surface.graph.edges
        for k, v in eps.items():
            if k not in edges or v not in (1, -1):
                raise ValueError("eps[%r] = %r: expected an edge id mapped to 1 or -1" % (k, v))
        raise ValueError("sign vector violates the vertex product condition")
    eigen = {eid: eps.get(eid, 1) * e for eid, e in params.eigen.items()}
    return EdgeParams(eigen, dict(params.twist))
