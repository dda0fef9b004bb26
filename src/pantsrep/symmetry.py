"""Finite group actions on the coordinates.

Two actions: inverting the eigenvalue parameter of a single edge (one Z/2
factor per edge), which rescales the twists of adjacent interior edges,
and the sign group of vectors with trivial product at every trivalent
vertex, which acts on eigenvalues only.
"""

from .coordinates import EdgeParams, _picture_es
from .surface import _tables


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
    return 1.0


def flip_eigenvalue(params, surface, edge):
    """Invert the eigenvalue at one edge and transport the twists along.

    The twist of the flipped edge itself inverts; the twist of every
    interior edge seeing the flipped edge in its local picture picks up
    the rescaling factor once per occurrence (so self-glued pictures are
    handled by the same rule through the covering trick).  Only those
    edges are visited, from the surface's compiled neighbor index.
    """
    if edge not in surface.graph.edges:
        raise KeyError("unknown edge %r" % (edge,))
    tables = _tables(surface)
    eigen = dict(params.eigen)
    twist = dict(params.twist)
    for f, positions in tables.seen_by.get(edge, ()):
        _, _, nbrs = tables.pictures[f]
        es = _picture_es(params.eigen, f, nbrs)
        scale = 1.0
        for position in positions:
            scale *= _occurrence_factor(es, position)
        twist[f] = twist[f] * scale
    if edge in tables.pictures:
        twist[edge] = 1 / twist[edge]
    eigen[edge] = 1 / eigen[edge]
    return EdgeParams(eigen, twist)


def vertex_sign_conditions(surface):
    """One GF(2) row per trivalent vertex: edges with odd incidence count."""
    graph = surface.graph
    rows = []
    for vid in graph.trivalent_vertices():
        counts = {}
        for eid, _end in graph.vertices[vid].incident:
            counts[eid] = counts.get(eid, 0) + 1
        rows.append({eid for eid, c in counts.items() if c % 2 == 1})
    return rows


def epsilon_basis(surface):
    """Basis of the sign vectors with product +1 around every vertex.

    Returned as dicts edge -> +-1.  Gaussian elimination over GF(2) on the
    vertex-parity system; the solution space has dimension g when the
    surface is closed and g + b - 1 otherwise.
    """
    edges = sorted(surface.graph.edges)
    index = {eid: i for i, eid in enumerate(edges)}
    rows = [sum(1 << index[eid] for eid in row) for row in vertex_sign_conditions(surface)]
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
    for row in vertex_sign_conditions(surface):
        prod = 1
        for eid in row:
            prod *= eps.get(eid, 1)
        if prod != 1:
            return False
    return True


def act_epsilon(params, eps, surface=None):
    """eigen_i -> eps_i * eigen_i; twists untouched (a PSL-trivial action)."""
    if surface is not None and not check_epsilon(surface, eps):
        raise ValueError("sign vector violates the vertex product condition")
    eigen = {eid: eps.get(eid, 1) * e for eid, e in params.eigen.items()}
    return EdgeParams(eigen, dict(params.twist))
