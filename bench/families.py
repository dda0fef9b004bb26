"""Seeded surface families and parameter samplers for the benchmark.

Everything here goes through the public ``pantsrep`` API only: surfaces are
built from ``Vertex``/``Edge``/``FatGraph``/``PantsSurface`` and checked with
``surface.validate`` before use, and sampled parameters are rejected into
the coordinate domain with ``coordinates.in_domain``.
"""

import cmath
import math

from pantsrep import coordinates, surface
from pantsrep.coordinates import EdgeParams
from pantsrep.surface import Edge, FatGraph, PantsSurface, Vertex

FIXTURES = {
    "four_holed": surface.four_holed_sphere,
    "one_holed": surface.one_holed_torus,
    "genus_two": surface.genus_two,
}


class GeneratorError(RuntimeError):
    """A generated surface failed validation; the run must abort."""


def checked(surf, label):
    """Return surf after checking validate() and the Euler counts."""
    problems = surface.validate(surf)
    g, b, graph = surf.genus, surf.boundary, surf.graph
    want = {
        "trivalent": (len(graph.trivalent_vertices()), 2 * g - 2 + b),
        "univalent": (len(graph.univalent_vertices()), b),
        "edges": (len(graph.edges), 3 * g - 3 + 2 * b),
        "interior": (len(graph.interior_edges()), 3 * g - 3 + b),
    }
    problems += ["%s count %d != %d" % (k, got, exp) for k, (got, exp) in want.items() if got != exp]
    if problems:
        raise GeneratorError("%s: %s" % (label, "; ".join(problems)))
    return surf


def handle_chain(g):
    """S_{g,2}: a path of g spine pants, each carrying a one-holed-torus handle.

    Spine vertex s_i (id i) joins the previous spine edge, its handle edge
    and the next spine edge; handle vertex h_i (id g + i) carries a loop.
    The two ends of the spine are the boundary components.  No tree is
    stored, so ``build`` computes ``maximal_tree`` itself.
    """
    if g < 1:
        raise GeneratorError("handle chain needs g >= 1, got %r" % (g,))
    vertices, edges = [], []
    spine = list(range(1, g + 2))              # spine[0], spine[g] are boundary edges
    handle = list(range(g + 2, 2 * g + 2))
    loop = list(range(2 * g + 2, 3 * g + 2))
    uni_left, uni_right = 2 * g + 1, 2 * g + 2
    for i in range(g):
        s, h = i + 1, g + i + 1
        left = (spine[i], "head") if i > 0 else (spine[0], "tail")
        vertices.append(Vertex(s, "tri", (left, (handle[i], "tail"), (spine[i + 1], "tail"))))
        vertices.append(Vertex(h, "tri", ((loop[i], "tail"), (handle[i], "head"), (loop[i], "head"))))
        edges.append(Edge(handle[i], s, h))
        edges.append(Edge(loop[i], h, h))
        if i > 0:
            edges.append(Edge(spine[i], i, s))
    edges.append(Edge(spine[0], 1, uni_left))
    edges.append(Edge(spine[g], g, uni_right))
    vertices.append(Vertex(uni_left, "uni", ((spine[0], "head"),)))
    vertices.append(Vertex(uni_right, "uni", ((spine[g], "head"),)))
    return checked(PantsSurface(g, 2, FatGraph(vertices, edges)), "hc%d" % g)


def caterpillar(b):
    """S_{0,b}: a path of b - 2 pants, each with one boundary leg (two at the ends)."""
    if b < 4:
        raise GeneratorError("caterpillar needs b >= 4, got %r" % (b,))
    n = b - 2
    spine = list(range(1, n))                 # spine[i] joins vertex i and i + 1
    legs = list(range(n, n + b))
    vertices, edges = [], []
    leg = iter(legs)
    uni = iter(range(n + 1, n + 1 + b))

    def add_leg(vid):
        eid, u = next(leg), next(uni)
        edges.append(Edge(eid, vid, u))
        vertices.append(Vertex(u, "uni", ((eid, "head"),)))
        return (eid, "tail")

    for vid in range(1, n + 1):
        if vid == 1:
            inc = ((spine[0], "tail"), add_leg(vid), add_leg(vid))
        elif vid == n:
            inc = ((spine[-1], "head"), add_leg(vid), add_leg(vid))
        else:
            inc = ((spine[vid - 2], "head"), add_leg(vid), (spine[vid - 1], "tail"))
        vertices.append(Vertex(vid, "tri", inc))
    edges.extend(Edge(eid, i + 1, i + 2) for i, eid in enumerate(spine))
    return checked(PantsSurface(0, b, FatGraph(vertices, edges)), "cat%d" % b)


def elem_edges(surf):
    """Interior edges whose elementary move is defined: loops, or embedded
    four-holed pictures (four distinct neighbours, none the edge itself)."""
    graph = surf.graph
    out = []
    for eid in graph.interior_edges():
        e = graph.edges[eid]
        if e.tail == e.head:
            out.append(eid)
            continue
        v, sv = graph.slot_of[(eid, "tail")]
        w, sw = graph.slot_of[(eid, "head")]
        nbrs = [graph.slot(v, sv + 1)[0], graph.slot(v, sv + 2)[0],
                graph.slot(w, sw + 1)[0], graph.slot(w, sw + 2)[0]]
        if len(set(nbrs)) == 4 and eid not in nbrs:
            out.append(eid)
    return out


# ---------------------------------------------------------------------------
# parameter samplers; each takes a numpy Generator


#: distance from the domain's boundary, in ``in_domain``'s own tolerance, that
#: the timed fixture points keep: every eigenvalue at least this far from
#: 0 and +-1, every twist from 0, every vertex triple from reducibility.
#: Nearer the boundary (nearly parabolic curves) genus_two points exceed
#: the residual gate about once in 10^4; those points form the census band.
MARGIN = 0.2


def _accept(surf, make, rng, tries=1000, keep=None):
    keep = keep or (lambda params: coordinates.in_domain(params, surf))
    for _ in range(tries):
        params = make(rng)
        if keep(params):
            return params
    raise GeneratorError("rejection sampling never hit the domain")


def _box(surf):
    def rand_c(r):
        return complex(r.uniform(-2.0, 2.0), r.uniform(-2.0, 2.0))

    g = surf.graph
    return lambda r: EdgeParams({eid: rand_c(r) for eid in g.edges},
                                {eid: rand_c(r) for eid in g.interior_edges()})


def box_params(surf, rng, margin=MARGIN):
    """The test-suite sampler, e, t uniform in the [-2, 2]^2 box, rejected
    into the domain shrunk by `margin`."""
    return _accept(surf, _box(surf), rng, keep=lambda p: coordinates.in_domain(p, surf, margin))


def band_params(surf, rng, margin=MARGIN):
    """Box points inside the domain but within `margin` of its boundary."""
    return _accept(surf, _box(surf), rng, keep=lambda p: (
        coordinates.in_domain(p, surf) and not coordinates.in_domain(p, surf, margin)))


def moderate_params(surf, rng):
    """|e| in [1.2, 3], |t| = exp(u) with u in [-1, 1]; arguments uniform."""
    def polar(r, mod):
        return mod * cmath.exp(1j * r.uniform(0.0, 2 * math.pi))

    g = surf.graph
    return _accept(surf, lambda r: EdgeParams(
        {eid: polar(r, r.uniform(1.2, 3.0)) for eid in sorted(g.edges)},
        {eid: polar(r, math.exp(r.uniform(-1.0, 1.0))) for eid in g.interior_edges()}), rng)


def fuchsian_params(surf, rng):
    """Real points of the Teichmueller locus: e < -1, t > 0."""
    g = surf.graph
    return EdgeParams(
        {eid: complex(-rng.uniform(1.1, 6.0)) for eid in sorted(g.edges)},
        {eid: complex(rng.uniform(0.1, 5.0)) for eid in g.interior_edges()},
    )
