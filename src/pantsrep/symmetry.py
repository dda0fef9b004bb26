"""Finite group actions on the coordinates.

Two actions: inverting the eigenvalue parameter of a single edge (one Z/2
factor per edge), which rescales the twists of adjacent interior edges,
and the sign group of vectors with trivial product at every trivalent
vertex, which acts on eigenvalues only.
"""

from .coordinates import EdgeParams, _picture_es
from .surface import _picture_slots


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
    edges are visited: they are the interior edges that meet the flipped
    edge at a vertex.
    """
    graph = surface.graph
    if edge not in graph.edges:
        raise KeyError("unknown edge %r" % (edge,))
    eigen = dict(params.eigen)
    twist = dict(params.twist)
    e = graph.edges[edge]
    near = {eid for vid in (e.tail, e.head) for eid, _ in graph.vertices[vid].incident
            if not graph.is_boundary(eid)}
    for f in near:
        _, _, nbrs = _picture_slots(graph, f)
        positions = [pos for pos, (eid, _) in zip((2, 3, 4, 5), nbrs) if eid == edge]
        if positions:
            es = _picture_es(params.eigen, f, nbrs)
            scale = 1
            for position in positions:
                scale *= _occurrence_factor(es, position)
            twist[f] = twist[f] * scale
    if not graph.is_boundary(edge):
        twist[edge] = 1 / twist[edge]
    eigen[edge] = 1 / eigen[edge]
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
            for i, j, k in surface.graph._triples]
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
    """True iff the signs at each trivalent vertex multiply to +1.

    An edge met twice at a vertex contributes a square, so it cancels.
    """
    return all(eps.get(i, 1) * eps.get(j, 1) * eps.get(k, 1) == 1
               for i, j, k in surface.graph._triples)


def act_epsilon(params, eps, surface=None):
    """eigen_i -> eps_i * eigen_i; twists untouched (a PSL-trivial action)."""
    if surface is not None and not check_epsilon(surface, eps):
        raise ValueError("sign vector violates the vertex product condition")
    eigen = {eid: eps.get(eid, 1) * e for eid, e in params.eigen.items()}
    return EdgeParams(eigen, dict(params.twist))
