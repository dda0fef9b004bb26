"""Pants decompositions as oriented fat graphs, and surface-group presentations.

A pants decomposition of S_{g,b} together with a dual graph is encoded as a
fat graph: trivalent vertices carry a counterclockwise cyclic order of
incidences, boundary components carry univalent vertices, and every edge is
oriented (tail -> head).  Cutting along the decomposition curves dual to a
complement of a maximal tree leaves a planar piece S_0 whose fundamental
group relation is read off by walking the boundary of the fattened tree.
"""

import json
from collections import namedtuple
from functools import cached_property

Edge = namedtuple("Edge", ["id", "tail", "head"])
Vertex = namedtuple("Vertex", ["id", "kind", "incident"])  # incident: ((edge_id, end), ...)


class FatGraph:
    """Oriented trivalent/univalent graph with cyclic order at vertices."""

    def __init__(self, vertices, edges):
        self.vertices = {v.id: v for v in vertices}
        self.edges = {e.id: e for e in edges}
        # slot lookup: (edge id, end) -> (vertex id, slot index)
        self.slot_of = {}
        for v in vertices:
            for i, (eid, end) in enumerate(v.incident):
                self.slot_of[(eid, end)] = (v.id, i)

    def is_boundary(self, eid):
        e = self.edges[eid]
        return (
            self.vertices[e.tail].kind == "uni"
            or self.vertices[e.head].kind == "uni"
        )

    def interior_edges(self):
        return sorted(eid for eid in self.edges if not self.is_boundary(eid))

    def boundary_edges(self):
        return sorted(eid for eid in self.edges if self.is_boundary(eid))

    def trivalent_vertices(self):
        return sorted(v for v, rec in self.vertices.items() if rec.kind == "tri")

    def univalent_vertices(self):
        return sorted(v for v, rec in self.vertices.items() if rec.kind == "uni")

    def slot(self, vid, i):
        """The (edge id, end) incidence at slot i of vertex vid."""
        inc = self.vertices[vid].incident
        return inc[i % len(inc)]

    def end_vertex(self, eid, end):
        e = self.edges[eid]
        return e.tail if end == "tail" else e.head


class PantsSurface:
    """A surface S_{g,b} presented by a pants decomposition fat graph."""

    def __init__(self, genus, boundary, graph, tree=None):
        self.genus = genus
        self.boundary = boundary
        self.graph = graph
        self.tree = set(tree) if tree is not None else None

    def euler_characteristic(self):
        return 2 - 2 * self.genus - self.boundary


def validate(surface):
    """Return a list of human-readable invariant violations (empty = valid)."""
    g, b, graph = surface.genus, surface.boundary, surface.graph
    problems = []
    if 2 - 2 * g - b >= 0:
        problems.append("euler characteristic 2-2g-b=%d is not negative" % (2 - 2 * g - b))
    tri = graph.trivalent_vertices()
    uni = graph.univalent_vertices()
    if len(tri) != 2 * g - 2 + b:
        problems.append(
            "trivalent vertex count %d != 2g-2+b = %d" % (len(tri), 2 * g - 2 + b)
        )
    if len(uni) != b:
        problems.append("univalent vertex count %d != b = %d" % (len(uni), b))
    if len(graph.edges) != 3 * g - 3 + 2 * b:
        problems.append("edge count %d != 3g-3+2b = %d" % (len(graph.edges), 3 * g - 3 + 2 * b))
    # vertex incidence structure
    degree = {v: 0 for v in graph.vertices}
    for e in graph.edges.values():
        for v in (e.tail, e.head):
            if v not in graph.vertices:
                problems.append("edge %r touches unknown vertex %r" % (e.id, v))
            else:
                degree[v] += 1
    for v, rec in graph.vertices.items():
        want = 3 if rec.kind == "tri" else 1
        if len(rec.incident) != want:
            problems.append(
                "vertex %r has %d incidences, expected %d" % (v, len(rec.incident), want)
            )
        if degree.get(v) != want:
            problems.append("vertex %r has degree %d, expected %d" % (v, degree.get(v), want))
        for eid, end in rec.incident:
            if eid not in graph.edges:
                problems.append("vertex %r lists unknown edge %r" % (v, eid))
            elif graph.end_vertex(eid, end) != v:
                problems.append(
                    "vertex %r lists (%r, %r) but that end is elsewhere" % (v, eid, end)
                )
    for e in graph.edges.values():
        if e.tail not in graph.vertices or e.head not in graph.vertices:
            continue  # reported above
        kinds = {graph.vertices[e.tail].kind, graph.vertices[e.head].kind}
        if graph.vertices[e.tail].kind == "uni" and graph.vertices[e.head].kind == "uni":
            problems.append("edge %r joins two univalent vertices" % (e.id,))
        if "uni" not in kinds and e.tail == e.head and graph.vertices[e.tail].kind != "tri":
            problems.append("loop edge %r at non-trivalent vertex" % (e.id,))
    for eid in surface.tree or ():
        if eid not in graph.edges:
            problems.append("tree lists unknown edge %r" % (eid,))
    if not problems and not _connected(graph):
        problems.append("graph is not connected")
    tree = surface.tree
    if not problems and tree is not None and not _is_spanning_tree(graph, tree):
        problems.append("tree %r is not a spanning tree of the graph" % (sorted(tree),))
    return problems


def _is_spanning_tree(graph, tree):
    """True iff the set of edge ids tree is a spanning tree of the graph."""
    return (all(eid in graph.edges for eid in tree)
            and len(tree) == len(graph.vertices) - 1 and _connected(graph, tree))


def _connected(graph, eids=None):
    """True iff the edges eids (default: every edge) join all vertices."""
    verts = list(graph.vertices)
    if not verts:
        return False
    nbrs = {}
    for eid in graph.edges if eids is None else eids:
        e = graph.edges[eid]
        nbrs.setdefault(e.tail, []).append(e.head)
        nbrs.setdefault(e.head, []).append(e.tail)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in nbrs.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(graph.vertices)


def maximal_tree(surface):
    """A spanning tree of the fat graph, as a set of edge ids.

    Grown from the lowest vertex id; each step adds the edge leaving the
    tree that comes first in id order.
    """
    import heapq  # here, not at the top: off the CLI's import path

    graph = surface.graph
    # a heap of the ids of the edges at seen vertices; an edge whose ends
    # are both seen by the time it comes up is dropped
    touching = {}
    for eid, e in graph.edges.items():
        touching.setdefault(e.tail, []).append(eid)
        touching.setdefault(e.head, []).append(eid)
    start = min(graph.vertices)
    seen = {start}
    tree = set()
    heap = list(touching.get(start, ()))
    heapq.heapify(heap)
    while heap:
        eid = heapq.heappop(heap)
        e = graph.edges[eid]
        if (e.tail in seen) == (e.head in seen):
            continue
        new = e.head if e.tail in seen else e.tail
        seen.add(new)
        tree.add(eid)
        for f in touching[new]:
            heapq.heappush(heap, f)
    if len(seen) != len(graph.vertices):
        raise ValueError("graph is disconnected; no spanning tree")
    complement = [eid for eid in graph.interior_edges() if eid not in tree]
    if len(complement) != surface.genus:
        raise ValueError(
            "tree complement has %d interior edges, expected genus %d"
            % (len(complement), surface.genus)
        )
    return tree


class Presentation:
    """Generators and relations of pi_1(S) from a fat graph and tree.

    Generators 'a1'..'a2g' are the loops around the two sides of the cut
    curves u_1..u_g (complement edges in id order: 'ai' for the tail side,
    'a(g+i)' for the head side), 'b1'..'bg' the HNN stable letters, and
    'd1'..'db' the boundary loops (boundary edges in id order).  Words are
    tuples of (name, +-1); vertex_words maps (vertex id, slot) to a word.

    The walk that reads off the relation also compiles what build,
    verify_relations and recover_coordinates read of the graph:
    - root, walk: the root vertex and one step (edge, neighbor slots, near
      vertex, near slot, far vertex, far slot, forward) per interior tree
      edge, each after the step that reaches its near vertex;
    - incidences: (vertex, incidences) per trivalent vertex, in id order;
    - image_slots: (generator, vertex, slot) of every pants-matrix image;
    - letters: (edge, 'b<i>', tail slot, head slot, neighbor slots) per
      complement edge;
    - ends: (edge, ((end, (vertex, slot)), ...)) over the trivalent ends of
      every edge, in id order;
    - twist_slots: (edge, neighbor slots, the five (vertex, slot) keys of
      x1..x5, 'b<i>' or None) per interior edge, in id order.
    One Presentation is shared by everything built on its surface and tree
    (see _plan), so none of this is ever mutated.
    """

    def __init__(self, surface, tree):
        graph = surface.graph
        g, b = self.genus, self.boundary = surface.genus, surface.boundary
        self.tree = tree = frozenset(tree)
        if not _is_spanning_tree(graph, tree):
            raise ValueError("tree %r is not a spanning tree of the graph" % (set(tree),))
        self.u_edges = u_edges = tuple(eid for eid in graph.interior_edges() if eid not in tree)
        if len(u_edges) != g:
            raise ValueError("not a maximal tree: %d complement edges for genus %d" % (len(u_edges), g))
        self.alpha = tuple("a%d" % i for i in range(1, 2 * g + 1))
        self.beta = tuple("b%d" % i for i in range(1, g + 1))
        self.delta = tuple("d%d" % j for j in range(1, b + 1))
        # the generator emitted on departing through each (edge, end) that
        # leaves the tree: both ends of a complement edge, and the
        # trivalent end of a boundary edge
        gen = {}
        for i, eid in enumerate(u_edges, start=1):
            gen[(eid, "tail")], gen[(eid, "head")] = "a%d" % i, "a%d" % (g + i)
        for j, eid in enumerate(graph.boundary_edges(), start=1):
            uni_head = graph.vertices[graph.edges[eid].head].kind == "uni"
            gen[(eid, "tail" if uni_head else "head")] = "d%d" % j
        self.image_slots = tuple((name,) + graph.slot_of[key] for key, name in gen.items())
        pictures = _tables(surface).pictures
        vertex_words = self.vertex_words = {}
        walk = []

        def excursion(vid, s):
            """Generators emitted while departing vertex vid through slot s."""
            eid, end = graph.slot(vid, s)
            name = gen.get((eid, end))
            if name is not None:
                word = ((name, 1),)
            else:
                # cross a tree edge; the slot it arrives through faces back
                # toward the root: m_sw = (m_(sw+1) m_(sw+2))^-1
                wid, sw = graph.slot_of[(eid, "head" if end == "tail" else "tail")]
                walk.append((eid, pictures[eid][2], vid, s, wid, sw, end == "tail"))
                word = excursion(wid, (sw + 1) % 3) + excursion(wid, (sw + 2) % 3)
                vertex_words[(wid, sw)] = inverse_word(word)
            vertex_words[(vid, s)] = word
            return word

        tri = graph.trivalent_vertices()
        self.root = root = min(tri)
        self.relation = excursion(root, 0) + excursion(root, 1) + excursion(root, 2)
        self.walk = tuple(walk)
        # the HNN relations a_(g+i)^-1 = b_i^-1 a_i b_i, and the substitution
        # that eliminates a_(g+i) from the one relator
        hnn, sub = [], {}
        for i in range(1, g + 1):
            ai, agi, bi = "a%d" % i, "a%d" % (g + i), "b%d" % i
            rhs = ((bi, -1), (ai, 1), (bi, 1))
            hnn.append((((agi, -1),), rhs))
            sub[(agi, -1)], sub[(agi, 1)] = rhs, inverse_word(rhs)
        self.hnn = tuple(hnn)
        self._relator = tuple(x for letter in self.relation for x in sub.get(letter, (letter,)))
        self.incidences = tuple((vid, graph.vertices[vid].incident) for vid in tri)
        self.letters = tuple((eid, "b%d" % i) + pictures[eid] for i, eid in enumerate(u_edges, start=1))
        self.ends = tuple(
            (eid, tuple((end, graph.slot_of[(eid, end)]) for end in ("tail", "head")
                        if graph.vertices[graph.end_vertex(eid, end)].kind == "tri"))
            for eid in sorted(graph.edges)
        )
        names = {letter[0]: letter[1] for letter in self.letters}
        self.twist_slots = tuple(
            (eid, nbrs, ((v, sv), (v, (sv + 1) % 3), (v, (sv + 2) % 3),
                         (w, (sw + 1) % 3), (w, (sw + 2) % 3)), names.get(eid))
            for eid, ((v, sv), (w, sw), nbrs) in pictures.items()
        )

    def generators(self):
        return list(self.alpha + self.beta + self.delta)

    def one_relator(self):
        """The S_0 relation with a_(g+i) rewritten through the HNN relations."""
        return self._relator


def inverse_word(word):
    return tuple((name, -exp) for name, exp in reversed(word))


def presentation(surface, tree):
    """Derive the presentation by walking the fattened-tree boundary.

    The walk starts at the lowest trivalent vertex id, departs through
    slot 0, and after arriving at a vertex through slot s departs through
    slot s+1.  Each complement-edge stub or univalent vertex encountered
    emits a generator; the emitted sequence is the S_0 relation.  A tree
    that is not a spanning tree of the graph raises ValueError.  Each call
    compiles afresh; _plan caches the result per surface and tree.
    """
    return Presentation(surface, tree)


# ---------------------------------------------------------------------------
# Compiled combinatorics: what build, verify_relations, recover_coordinates
# and flip_eigenvalue read of the graph, compiled once per surface and tree.
# A surface is treated as immutable once something has been built on it.


def _picture_slots(graph, edge):
    """The local-picture slots ((v, sv), (w, sw), (g2, g3, g4, g5)) of an edge.

    (v, sv) and (w, sw) hold its tail and head; g2, g3 are the incidences
    counterclockwise after it at v, and g4, g5 those after it at w.
    """
    v, sv = graph.slot_of[(edge, "tail")]
    w, sw = graph.slot_of[(edge, "head")]
    return (v, sv), (w, sw), (graph.slot(v, sv + 1), graph.slot(v, sv + 2),
                              graph.slot(w, sw + 1), graph.slot(w, sw + 2))


class _GraphTables:
    """What the fat graph alone fixes, kept on its surface by _tables.

    pictures maps each interior edge to its _picture_slots; seen_by maps
    an edge id to the interior edges whose picture holds it, each with the
    positions (2..5) it fills there, in edge id order.  default_tree is
    maximal_tree once computed; plans caches one Presentation per tree.
    """

    def __init__(self, graph):
        self.graph = graph
        self.pictures = {f: _picture_slots(graph, f) for f in graph.interior_edges()}
        self.seen_by = {}
        for f, (_, _, nbrs) in self.pictures.items():
            positions = {}
            for position, (eid, _end) in zip((2, 3, 4, 5), nbrs):
                positions.setdefault(eid, []).append(position)
            for eid, at in positions.items():
                self.seen_by.setdefault(eid, []).append((f, tuple(at)))
        self.default_tree = None
        self.plans = {}

    @cached_property
    def triples(self):
        """The edge ids at each trivalent vertex, built on in_domain's first
        call: a surface that a move creates is often only flipped."""
        return [tuple([eid for eid, _ in v.incident])
                for v in self.graph.vertices.values() if v.kind == "tri"]


def _tables(surface):
    """The surface's _GraphTables, compiled on first use and kept on it."""
    tables = surface.__dict__.get("_graph_tables")
    if tables is None:
        tables = surface._graph_tables = _GraphTables(surface.graph)
    return tables


def _plan(surface, tree=None):
    """The Presentation of surface and tree, compiled on first use.

    tree defaults to the surface's stored tree, else maximal_tree (computed
    once per surface).  Raises ValueError, as presentation does, for a tree
    that is not a maximal tree of the graph.
    """
    tables = _tables(surface)
    if tree is None:
        tree = surface.tree
        if tree is None:
            if tables.default_tree is None:
                tables.default_tree = frozenset(maximal_tree(surface))
            tree = tables.default_tree
    key = frozenset(tree)
    pres = tables.plans.get(key)
    if pres is None:
        pres = tables.plans[key] = presentation(surface, key)
    return pres


# ---------------------------------------------------------------------------
# JSON encoding


def to_json(surface):
    graph = surface.graph
    doc = {
        "genus": surface.genus,
        "boundary": surface.boundary,
        "vertices": [
            {"id": v.id, "kind": v.kind, "incident": [[e, end] for e, end in v.incident]}
            for v in sorted(graph.vertices.values(), key=lambda v: v.id)
        ],
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head}
            for e in sorted(graph.edges.values(), key=lambda e: e.id)
        ],
    }
    if surface.tree is not None:
        doc["tree"] = sorted(surface.tree)
    return doc


def from_json(doc):
    vertices = [
        Vertex(v["id"], v["kind"], tuple((e, end) for e, end in v["incident"]))
        for v in doc["vertices"]
    ]
    edges = [Edge(e["id"], e["tail"], e["head"]) for e in doc["edges"]]
    return PantsSurface(
        doc["genus"], doc["boundary"], FatGraph(vertices, edges), tree=doc.get("tree")
    )


def load(path):
    with open(path) as fh:
        return from_json(json.load(fh))


def save(surface, path):
    with open(path, "w") as fh:
        json.dump(to_json(surface), fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# The three standard decompositions used throughout the tests and examples.


def four_holed_sphere():
    """S_{0,4}: two pants glued along one curve; edges 1..5, interior edge 1."""
    vertices = [
        Vertex(0, "tri", ((1, "tail"), (2, "tail"), (3, "tail"))),
        Vertex(1, "tri", ((1, "head"), (4, "tail"), (5, "tail"))),
        Vertex(2, "uni", ((2, "head"),)),
        Vertex(3, "uni", ((3, "head"),)),
        Vertex(4, "uni", ((4, "head"),)),
        Vertex(5, "uni", ((5, "head"),)),
    ]
    edges = [Edge(1, 0, 1), Edge(2, 0, 2), Edge(3, 0, 3), Edge(4, 1, 4), Edge(5, 1, 5)]
    return PantsSurface(0, 4, FatGraph(vertices, edges), tree=[1, 2, 3, 4, 5])


def one_holed_torus():
    """S_{1,1}: one pants with two cuffs glued; loop edge 1, boundary edge 2."""
    vertices = [
        Vertex(0, "tri", ((1, "tail"), (2, "tail"), (1, "head"))),
        Vertex(1, "uni", ((2, "head"),)),
    ]
    edges = [Edge(1, 0, 0), Edge(2, 0, 1)]
    return PantsSurface(1, 1, FatGraph(vertices, edges), tree=[2])


def genus_two():
    """Closed genus-2: two pants glued along all three cuffs (theta graph)."""
    vertices = [
        Vertex(0, "tri", ((3, "tail"), (1, "tail"), (2, "tail"))),
        Vertex(1, "tri", ((3, "head"), (2, "head"), (1, "head"))),
    ]
    edges = [Edge(1, 0, 1), Edge(2, 0, 1), Edge(3, 0, 1)]
    return PantsSurface(2, 0, FatGraph(vertices, edges), tree=[3])
