"""Shared helpers for the test suite."""

import os
import random

import numpy as np

from pantsrep import builder, coordinates, surface
from pantsrep.coordinates import EdgeParams

# subprocesses import the same pantsrep as the tests, whether it comes
# from PYTHONPATH, pytest's pythonpath setting or an install
SRC = os.path.dirname(os.path.dirname(os.path.abspath(coordinates.__file__)))
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

SURFACES = {
    "four_holed": surface.four_holed_sphere,
    "one_holed": surface.one_holed_torus,
    "genus_two": surface.genus_two,
}


def rand_c(rng, lo=-2.0, hi=2.0):
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


def sample_params(surf, rng):
    """Generic complex parameters inside the coordinate domain."""
    g = surf.graph
    for _ in range(100):
        eigen = {eid: rand_c(rng) for eid in g.edges}
        twist = {eid: rand_c(rng) for eid in g.interior_edges()}
        params = EdgeParams(eigen, twist)
        if coordinates.in_domain(params, surf):
            return params
    raise RuntimeError("could not sample a point in the domain")


def sample_fuchsian_params(surf, rng):
    """Real parameters in the Teichmueller locus: e < -1, t > 0."""
    g = surf.graph
    eigen = {eid: -float(rng.uniform(1.1, 6.0)) for eid in g.edges}
    twist = {eid: float(rng.uniform(0.1, 5.0)) for eid in g.interior_edges()}
    return EdgeParams(eigen, twist)


def same_numbers(a, b):
    """a == b entry by entry through nested tuples, lists and dicts (keys
    equal and in the same order), with NaN equal to NaN (part by part for a
    complex number) and the types equal."""
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_numbers(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (type(a) is type(b) and list(a) == list(b)
                and all(same_numbers(a[k], b[k]) for k in a))
    if type(a) is not type(b):
        return False
    if isinstance(a, complex):
        return same_numbers(a.real, b.real) and same_numbers(a.imag, b.imag)
    return a == b or (a != a and b != b)


def outcome(fn, *args, stale=False):
    """("value", fn(*args)), or the class, message and factor of what it raised.

    The call starts from a known errno: cleared, or with stale=True left at
    the ERANGE of an overflow.  CPython's abs() of a complex number with a
    NaN part raises OverflowError while errno still holds that ERANGE, so a
    kernel's outcome can depend on it and on the order of its abs() calls.
    """
    if stale:
        try:
            abs(complex(1.5e308, 1.5e308))
        except OverflowError:
            pass
    else:
        abs(1j)  # a finite modulus leaves errno at 0
    try:
        return "value", fn(*args)
    except (ArithmeticError, ValueError) as ex:
        return type(ex), str(ex), getattr(ex, "factor", None)


def same_outcome(fn, ref, *args):
    """fn and its reference form agree on args: equal values, or the same
    error, from a cleared errno and from a stale one."""
    for stale in (False, True):
        got, want = outcome(fn, *args, stale=stale), outcome(ref, *args, stale=stale)
        if got[0] == "value" and want[0] == "value":
            if not same_numbers(got[1], want[1]):
                return False
        elif got != want:
            return False
    return True


def sl_diff(m, exp):
    """Entrywise distance up to the SL(2,C) sign ambiguity."""
    m = np.asarray(m, dtype=complex)
    exp = np.asarray(exp, dtype=complex)
    return min(np.abs(m - exp).max(), np.abs(m + exp).max())


def max_residual(rep, tol=None):
    return max(builder.verify_relations(rep).values())


def squared_trace_table(rep, words):
    return [complex(rep.evaluate(w).trace()) ** 2 for w in words]


def marking_words(pres):
    """Generators, pairwise products and relator prefixes, as words."""
    gens = [(name, 1) for name in pres.generators()]
    words = [[g] for g in gens]
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            words.append([g, h])
    rel = pres.one_relator()
    for k in range(2, len(rel)):
        words.append(list(rel[:k]))
    return words


def handle_chain(g):
    """S_{g,2}: a spine of g pants, each carrying a one-holed-torus handle.

    Spine vertex i (1..g) meets spine edges i and i + 1 and handle edge
    g + 1 + i; handle vertex g + i carries loop edge 2g + 1 + i.  Spine
    edges 1 and g + 1 end at the univalent vertices 2g + 1 and 2g + 2.  No
    tree is stored.
    """
    vertices, edges = [], []
    for i in range(1, g + 1):
        handle, loop = g + 1 + i, 2 * g + 1 + i
        left = (i, "head") if i > 1 else (1, "tail")
        vertices.append(surface.Vertex(i, "tri", (left, (handle, "tail"), (i + 1, "tail"))))
        vertices.append(surface.Vertex(g + i, "tri",
                                       ((loop, "tail"), (handle, "head"), (loop, "head"))))
        edges += [surface.Edge(handle, i, g + i), surface.Edge(loop, g + i, g + i)]
        if i > 1:
            edges.append(surface.Edge(i, i - 1, i))
    edges += [surface.Edge(1, 1, 2 * g + 1), surface.Edge(g + 1, g, 2 * g + 2)]
    vertices += [surface.Vertex(2 * g + 1, "uni", ((1, "head"),)),
                 surface.Vertex(2 * g + 2, "uni", ((g + 1, "head"),))]
    return surface.PantsSurface(g, 2, surface.FatGraph(vertices, edges))


def caterpillar(b):
    """S_{0,b}: a path of b - 2 pants with one boundary leg each, two at the ends.

    Spine edge i joins vertices i and i + 1; leg edge n + j (n = b - 2)
    ends at univalent vertex n + 1 + j.  No tree is stored.
    """
    n = b - 2
    vertices, edges = [], []
    legs = iter(range(b))

    def leg(vid):
        j = next(legs)
        edges.append(surface.Edge(n + j, vid, n + 1 + j))
        vertices.append(surface.Vertex(n + 1 + j, "uni", ((n + j, "head"),)))
        return (n + j, "tail")

    for vid in range(1, n + 1):
        left = (vid - 1, "head") if vid > 1 else leg(vid)
        right = (vid, "tail") if vid < n else leg(vid)
        vertices.append(surface.Vertex(vid, "tri", (left, leg(vid), right)))
    edges += [surface.Edge(i, i, i + 1) for i in range(1, n)]
    return surface.PantsSurface(0, b, surface.FatGraph(vertices, edges))


def random_ribbon_graph(rng, pants, legs):
    """A seeded random cubic ribbon graph: S_{g,legs} cut into `pants` pants.

    The 3 * pants + legs half-edges (slot s of trivalent vertex v is the
    half-edge (v, s); univalent vertices pants..pants + legs - 1 have one
    each) are paired at random, and each edge gets a random orientation.
    Pairings that join two legs, or that validate rejects (a disconnected
    graph), are drawn again.  Loops and edges met twice at one vertex are
    kept: they give self-glued local pictures and trees that are not paths.
    rng is a random.Random; pants - legs must be even and pants >= legs - 2.
    """
    genus, odd = divmod(pants - legs + 2, 2)
    if odd or genus < 0 or pants < 1:
        raise ValueError("no cubic ribbon graph with %d pants and %d legs" % (pants, legs))
    halves = [(v, s) for v in range(pants) for s in range(3)]
    halves += [(pants + j, 0) for j in range(legs)]
    while True:
        rng.shuffle(halves)
        pairs = [halves[i:i + 2] for i in range(0, len(halves), 2)]
        if any(a[0] >= pants and b[0] >= pants for a, b in pairs):
            continue
        ends, edges = {}, []
        for eid, pair in enumerate(pairs, start=1):
            if rng.random() < 0.5:
                pair.reverse()
            (tail, ts), (head, hs) = pair
            edges.append(surface.Edge(eid, tail, head))
            ends[(tail, ts)], ends[(head, hs)] = (eid, "tail"), (eid, "head")
        vertices = [surface.Vertex(v, "tri", tuple(ends[(v, s)] for s in range(3)))
                    for v in range(pants)]
        vertices += [surface.Vertex(pants + j, "uni", (ends[(pants + j, 0)],))
                     for j in range(legs)]
        surf = surface.PantsSurface(genus, legs, surface.FatGraph(vertices, edges))
        if not surface.validate(surf):
            break
    graph = surf.graph
    # Euler counts: 2g - 2 + b pants, 3g - 3 + 2b edges, and a first Betti
    # number E - V + 1 of g: one cut curve per handle off a maximal tree
    assert len(graph.trivalent_vertices()) == 2 * genus - 2 + legs
    assert len(graph.edges) == 3 * genus - 3 + 2 * legs
    assert len(graph.edges) - len(graph.vertices) + 1 == genus
    return surf


def ribbon_graphs():
    """60 seeded random ribbon graphs with 1-12 pants and 0-4 legs."""
    sizes = [(n, b) for n in range(1, 13) for b in range(5) if (n - b) % 2 == 0 and n >= b - 2]
    return [random_ribbon_graph(random.Random(seed), *sizes[seed % len(sizes)])
            for seed in range(60)]


def reference_surfaces():
    """The fixtures, hc1-hc16, cat4-cat33 and the random ribbon graphs."""
    return ([make() for make in SURFACES.values()] + [handle_chain(g) for g in range(1, 17)]
            + [caterpillar(b) for b in range(4, 34)] + ribbon_graphs())
