"""From eigenvalue-twist parameters to explicit matrix generators.

The construction walks the maximal tree of the fat graph, propagating a
base triple of fixed points from the root vertex, applies the pants
representation at each trivalent vertex, and closes up each complement
edge with a Moebius map carrying the tree-side triple to its translate
across the edge.  The resulting generator images satisfy the surface-group
relations exactly up to rounding.
"""

from .projective import (
    DegenerateInputError,
    INF,
    MoebiusMap,
    _max_abs,
    as_point,
    fixed_points_with_eigs,
    sl_normalize,
    three_point_map,
)
from .pants import make_pants_data, pants_rep
from .surface import presentation as make_presentation, maximal_tree
from .coordinates import (
    EdgeParams,
    _end_eigen,
    best_twist_from_fixed_points,
    in_domain,
    local_picture,
    propagate_backward,
    propagate_forward,
)

DEFAULT_BASE = (as_point(0), as_point(1), INF)


class SurfaceRepresentation:
    """Matrix images of the surface-group generators plus build data.

    images maps generator names to MoebiusMaps with determinant 1;
    points maps each trivalent vertex to its slot-ordered fixed-point
    triple; beta_signs records the SL sign chosen for each stable letter.
    """

    def __init__(self, surface, tree, params, pres, images, points, base, beta_signs=None):
        self.surface = surface
        self.tree = set(tree)
        self.params = params
        self.presentation = pres
        self.images = dict(images)
        self.points = points
        self.base = base
        self.beta_signs = dict(beta_signs or {i: 1 for i in range(1, surface.genus + 1)})

    def evaluate(self, word):
        out = MoebiusMap.identity()
        for name, exp in word:
            m = self.images[name]
            out = out @ (m if exp == 1 else m.inverse())
        return out

    def image(self, name):
        return self.images[name]


def _from_slot(triple, s):
    """A slot-ordered triple read counterclockwise from slot s."""
    return triple[s], triple[(s + 1) % 3], triple[(s + 2) % 3]


def _across(lp, xs, forward):
    """The triple at the far end of lp's edge from the one at the near end.

    Both are read counterclockwise from the edge: (x1, x2, x3) at the tail
    and (x1, x4, x5) at the head.  forward crosses from tail to head.
    """
    step = propagate_forward if forward else propagate_backward
    return (xs[0],) + step(lp.es, lp.t1, *xs)


def _vertex_points(surface, params, tree, base):
    """Fixed-point triples at every trivalent vertex, by one walk of the tree.

    The walk starts from the lowest trivalent vertex, which carries base,
    and crosses each interior tree edge once, forward or backward.
    """
    graph = surface.graph
    steps = {}
    for eid in sorted(tree):
        if not graph.is_boundary(eid):
            e = graph.edges[eid]
            steps.setdefault(e.tail, []).append((eid, e.head, True))
            steps.setdefault(e.head, []).append((eid, e.tail, False))
    root = min(graph.trivalent_vertices())
    points = {root: list(base)}
    stack = [root]
    while stack:
        near = stack.pop()
        for eid, far, forward in steps.get(near, ()):
            if far in points:
                continue
            lp = local_picture(surface, params, eid)
            (_, sv), (_, sw) = lp.tail_slots, lp.head_slots
            sn, sf = (sv, sw) if forward else (sw, sv)
            xs = _across(lp, _from_slot(points[near], sn), forward)
            triple = [None, None, None]
            for k in range(3):
                triple[(sf + k) % 3] = xs[k]
            points[far] = triple
            stack.append(far)
    if len(points) != len(graph.trivalent_vertices()):
        raise ValueError("tree does not reach every trivalent vertex")
    return points


def build(surface, params, tree=None, base=None):
    """Construct the SL(2,C) representation determined by the parameters.

    Every generator image has determinant 1.  tree defaults to the
    surface's stored tree, else maximal_tree.  base is the fixed-point
    triple placed at the root vertex, slot order counterclockwise from
    slot 0; differing bases give conjugate results.
    """
    graph = surface.graph
    if tree is None:
        tree = surface.tree if surface.tree is not None else maximal_tree(surface)
    tree = set(tree)
    if not in_domain(params, surface):
        raise DegenerateInputError("parameters outside the admissible domain")
    if base is None:
        base = DEFAULT_BASE
    base = tuple(as_point(p) for p in base)
    if (base[0].same_as(base[1]) or base[1].same_as(base[2])
            or base[0].same_as(base[2])):
        raise ValueError("base triple must be three distinct points")

    pres = make_presentation(surface, tree)
    points = _vertex_points(surface, params, tree, base)

    mats = {}
    for vid in graph.trivalent_vertices():
        inc = graph.vertices[vid].incident
        es = tuple([_end_eigen(params.eigen[eid], end) for eid, end in inc])
        mats[vid] = pants_rep(make_pants_data(es, points[vid]))

    g = surface.genus
    images = {}
    for i, eid in enumerate(pres.u_edges, start=1):
        v, sv = graph.slot_of[(eid, "tail")]
        w, sw = graph.slot_of[(eid, "head")]
        images["a%d" % i] = mats[v][sv]
        images["a%d" % (g + i)] = mats[w][sw]
    for j, eid in enumerate(graph.boundary_edges(), start=1):
        for end in ("tail", "head"):
            vid, slot = graph.slot_of[(eid, end)]
            if graph.vertices[vid].kind == "tri":
                images["d%d" % j] = mats[vid][slot]
    beta_signs = {}
    for i, eid in enumerate(pres.u_edges, start=1):
        # b_i carries the head-side triple to its translate across the edge
        lp = local_picture(surface, params, eid)
        (v, sv), (w, sw) = lp.tail_slots, lp.head_slots
        target = _across(lp, _from_slot(points[v], sv), True)
        images["b%d" % i] = sl_normalize(three_point_map(_from_slot(points[w], sw), target))
        beta_signs[i] = 1
    return SurfaceRepresentation(surface, tree, params, pres, images, points, base,
                                 beta_signs=beta_signs)


def _residual(m):
    a, b, c, d = m.a, m.b, m.c, m.d
    return float(min(_max_abs(a - 1, b, c, d - 1), _max_abs(a + 1, b, c, d + 1)))


def verify_relations(rep):
    """Residual (distance of each relation product to +-identity) per relation."""
    out = {}
    out["relator"] = _residual(rep.evaluate(rep.presentation.one_relator()))
    out["walk"] = _residual(rep.evaluate(rep.presentation.relation))
    for i, (lhs, rhs) in enumerate(rep.presentation.hnn, start=1):
        out["hnn%d" % i] = _residual(rep.evaluate(lhs) @ rep.evaluate(rhs).inverse())
    return out


def _vertex_matrices(rep, vid):
    """The three pants matrices at a vertex, from the generator words."""
    return [rep.evaluate(rep.presentation.vertex_words[(vid, s)]) for s in range(3)]


def recover_coordinates(rep, eigen_choice=None, tol=1e-9):
    """Invert build: eigenvalue and twist parameters from the matrices.

    eigen_choice maps an edge id to +-1 and selects which of the two
    eigenvalue branches of the curve image is reported (default: the
    dominant branch returned by fixed_points_with_eigs).  Requires every
    curve image to be non-parabolic and every vertex restriction to be
    irreducible.
    """
    surface, graph = rep.surface, rep.surface.graph
    eigen_choice = eigen_choice or {}
    slot_fixed = {}
    slot_eigen = {}
    for vid in graph.trivalent_vertices():
        ms = _vertex_matrices(rep, vid)
        for s, pair in enumerate(zip(ms, ms[1:] + ms[:1])):
            comm = pair[0] @ pair[1] @ pair[0].inverse() @ pair[1].inverse()
            if abs(comm.trace() - 2) <= tol:
                raise DegenerateInputError(
                    "reducible restriction at vertex %r" % (vid,), factor="tr[m,m']-2"
                )
        for s, m in enumerate(ms):
            x, e, y = fixed_points_with_eigs(m, tol=tol)
            slot_fixed[(vid, s)] = (x, y)
            slot_eigen[(vid, s)] = e

    eigen = {}
    branch_points = {}
    for eid in sorted(graph.edges):
        ends = [
            (end, graph.slot_of[(eid, end)])
            for end in ("tail", "head")
            if graph.vertices[graph.end_vertex(eid, end)].kind == "tri"
        ]
        end, (vid, s) = ends[0]
        choice = eigen_choice.get(eid, 1)
        e = slot_eigen[(vid, s)]
        x, y = slot_fixed[(vid, s)]
        if choice == -1:
            e, x, y = 1 / e, y, x
        eigen[eid] = _end_eigen(e, end)
        branch_points[(vid, s)] = x
        for end2, (vid2, s2) in ends[1:]:
            e2 = slot_eigen[(vid2, s2)]
            x2, y2 = slot_fixed[(vid2, s2)]
            want = _end_eigen(eigen[eid], end2)
            if abs(e2 - want) > abs(1 / e2 - want):
                e2, x2, y2 = 1 / e2, y2, x2
            branch_points[(vid2, s2)] = x2

    # the twists are the unknowns; local_picture reads only the eigenvalues
    recovered = EdgeParams(eigen, dict.fromkeys(graph.interior_edges()))
    u_index = {eid: i for i, eid in enumerate(rep.presentation.u_edges, start=1)}
    twist = {}
    for eid in graph.interior_edges():
        lp = local_picture(surface, recovered, eid)
        (v, sv), (w, sw) = lp.tail_slots, lp.head_slots
        x1, x2, x3 = (branch_points[(v, (sv + k) % 3)] for k in range(3))
        x4, x5 = (branch_points[(w, (sw + k) % 3)] for k in (1, 2))
        if eid in u_index:
            # the head-side points live on the far lift: push them across
            bmap = rep.images["b%d" % u_index[eid]]
            x4, x5 = bmap.apply(x4), bmap.apply(x5)
        twist[eid] = best_twist_from_fixed_points(
            lp.es, {1: x1, 2: x2, 3: x3, 4: x4, 5: x5}
        )
    return EdgeParams(eigen, twist)


def stiefel_whitney(rep):
    """Sign of the evaluated relator for a closed surface: +1 iff liftable."""
    if rep.surface.boundary != 0:
        raise ValueError("second Stiefel-Whitney class needs a closed surface")
    m = rep.evaluate(rep.presentation.one_relator())
    a, b, c, d = m.a, m.b, m.c, m.d
    return 1 if _max_abs(a - 1, b, c, d - 1) < _max_abs(a + 1, b, c, d + 1) else -1


def act_beta_signs(rep, signs):
    """Multiply each stable-letter image by the given sign (H^1(G;Z/2) action)."""
    images = dict(rep.images)
    beta_signs = dict(rep.beta_signs)
    for i, s in signs.items():
        if s == -1:
            images["b%d" % i] = -images["b%d" % i]
        beta_signs[i] = beta_signs.get(i, 1) * s
    return SurfaceRepresentation(
        rep.surface, rep.tree, rep.params, rep.presentation, images,
        rep.points, rep.base, beta_signs=beta_signs,
    )
