"""Pants decompositions as oriented fat graphs, and surface-group presentations.

A pants decomposition of S_{g,b} together with a dual graph is encoded as a
fat graph: trivalent vertices carry a counterclockwise cyclic order of
incidences, boundary components carry univalent vertices, and every edge is
oriented (tail -> head).  Cutting along the decomposition curves dual to a
complement of a maximal tree leaves a planar piece S_0 whose fundamental
group relation is read off by walking the boundary of the fattened tree.
"""

import heapq
import json
from collections import namedtuple
from functools import cached_property

Edge = namedtuple("Edge", ["id", "tail", "head"])
Vertex = namedtuple("Vertex", ["id", "kind", "incident"])  # incident: ((edge_id, end), ...)


class FatGraph:
    """Oriented trivalent/univalent graph with cyclic order at vertices; it
    stores only its vertex and edge records."""

    def __init__(self, vertices, edges):
        self.vertices = {v.id: v for v in vertices}
        self.edges = {e.id: e for e in edges}

    def _rewired(self, vertices, edges):
        """A new graph with some records replaced.

        vertices and edges map an id to the record with that id, and of the
        same kind, that takes its place; every other record is kept, in the
        same dict position.  The new graph compiles what it reads.
        """
        new = FatGraph.__new__(FatGraph)
        new.vertices = {**self.vertices, **vertices}
        new.edges = {**self.edges, **edges}
        return new

    def is_boundary(self, eid):
        e = self.edges[eid]
        return (
            self.vertices[e.tail].kind == "uni"
            or self.vertices[e.head].kind == "uni"
        )

    # What the graph alone fixes, compiled on first use: a graph is treated
    # as immutable once used, and a move makes a new one, which compiles
    # what it reads afresh (_rewired).  Lazy, because a graph that is only
    # flipped or moved never needs them.

    @cached_property
    def slot_of(self):
        """(edge id, end) -> (vertex id, slot index), over every incidence."""
        return {key: (vid, i) for vid, v in self.vertices.items() for i, key in enumerate(v.incident)}

    @cached_property
    def _interior(self):
        """The interior edge ids, as a frozenset."""
        return frozenset(eid for eid in self.edges if not self.is_boundary(eid))

    @cached_property
    def _triples(self):
        """The edge ids at each trivalent vertex, keyed by vertex id, in id order."""
        return {vid: tuple([eid for eid, _ in self.vertices[vid].incident])
                for vid in self.trivalent_vertices()}

    def interior_edges(self):
        return sorted(self._interior)

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


class PantsSurface:
    """A surface S_{g,b} presented by a pants decomposition fat graph.

    The generators are read along tree, else along maximal_tree; to build
    on another tree, make PantsSurface(g, b, surf.graph, tree=T).  The
    tree is kept as a frozenset, which surfaces made by moves share.  A
    surface is treated as immutable once something is built on it.
    """

    def __init__(self, genus, boundary, graph, tree=None):
        self.genus = genus
        self.boundary = boundary
        self.graph = graph
        self.tree = frozenset(tree) if tree is not None else None

    def euler_characteristic(self):
        return 2 - 2 * self.genus - self.boundary

    @cached_property
    def _presentation(self):
        """The one Presentation everything built on the surface shares; a
        tree that is not maximal raises ValueError, as presentation does."""
        return presentation(self, maximal_tree(self) if self.tree is None else self.tree)


def validate(surface):
    """Return a list of human-readable invariant violations (empty = valid).

    The incidence lists are the graph's one adjacency: every edge end
    (edge id, "tail" | "head") must be listed exactly once, by the vertex
    at that end.  Genus and boundary must be non-negative integers, and
    vertex and edge ids integers (booleans are neither); such problems are
    the only ones reported, since the other rules count and sort with them.
    """
    g, b, graph = surface.genus, surface.boundary, surface.graph
    problems = ["%s %r is not a non-negative integer" % (name, n)
                for name, n in (("genus", g), ("boundary", b))
                if not isinstance(n, int) or isinstance(n, bool) or n < 0]
    problems += ["%s id %r is not an integer" % (kind, i)
                 for kind, ids in (("vertex", graph.vertices), ("edge", graph.edges)) for i in ids
                 if not isinstance(i, int) or isinstance(i, bool)]
    if problems:
        return problems
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
    listed = {}  # (edge id, end) -> the vertices that list it
    for v, rec in graph.vertices.items():
        want = 3 if rec.kind == "tri" else 1
        if len(rec.incident) != want:
            problems.append(
                "vertex %r has %d incidences, expected %d" % (v, len(rec.incident), want)
            )
        for key in rec.incident:
            listed.setdefault(key, []).append(v)
    uni_ids = set(uni)
    for e in graph.edges.values():
        for key, v in (((e.id, "tail"), e.tail), ((e.id, "head"), e.head)):
            by = listed.pop(key, [])
            if by != [v]:
                problems.append("vertex %r must list %r once; listed by %s" % (v, key, by or "none"))
        if e.tail in uni_ids and e.head in uni_ids:
            problems.append("edge %r joins two univalent vertices" % (e.id,))
    for key, by in listed.items():
        problems += ["vertex %r lists %r, which is no edge end" % (v, key) for v in by]
    for eid in surface.tree or ():
        if eid not in graph.edges:
            problems.append("tree lists unknown edge %r" % (eid,))
    if not problems and len(_spanning_walk(graph, graph.edges)) != len(graph.vertices) - 1:
        problems.append("graph is not connected")
    tree = surface.tree
    if not problems and tree is not None and not _is_spanning_tree(graph, tree):
        problems.append("tree %r is not a spanning tree of the graph" % (sorted(tree),))
    return problems


def _spanning_walk(graph, eids):
    """The tree the one graph walk grows over the edge ids eids, as a set.

    The walk starts at the lowest vertex id and always takes the lowest-id
    edge of eids that leaves the vertices seen so far, reading each seen
    vertex's incidence list; an id that is no edge is never taken.  The
    edges reach every vertex iff the tree has one edge fewer than the graph
    has vertices.
    """
    start = min(graph.vertices)
    seen = {start}
    tree = set()
    # a heap of the ids of the edges at seen vertices; an edge whose ends
    # are both seen by the time it comes up is dropped
    heap = [eid for eid, _ in graph.vertices[start].incident if eid in eids]
    heapq.heapify(heap)
    while heap:
        eid = heapq.heappop(heap)
        e = graph.edges[eid]
        if (e.tail in seen) == (e.head in seen):
            continue
        new = e.head if e.tail in seen else e.tail
        seen.add(new)
        tree.add(eid)
        for f, _ in graph.vertices[new].incident:
            if f in eids:
                heapq.heappush(heap, f)
    return tree


def _is_spanning_tree(graph, tree):
    """True iff the set of edge ids tree is a spanning tree of the graph."""
    return len(tree) == len(graph.vertices) - 1 == len(_spanning_walk(graph, tree))


def maximal_tree(surface):
    """A spanning tree of the fat graph, as a set of edge ids: the one
    _spanning_walk grows over every edge."""
    graph = surface.graph
    tree = _spanning_walk(graph, graph.edges)
    if len(tree) != len(graph.vertices) - 1:
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
      edge, each after the step that reaches its near vertex; the far
      slot's vertex word is the inverse of the near slot's;
    - visits: per vertex in walk order, its three (vertex, slot) keys, the
      key of the slot facing the root and the near key that slot faces
      (both None at the root);
    - image_slots: (generator, vertex, slot) of every pants-matrix image;
    - letters: (edge, 'b<i>', tail slot, head slot, neighbor slots) per
      complement edge;
    - ends: (edge, ((end, (vertex, slot)), ...)) over the trivalent ends of
      every edge, in id order;
    - twist_slots: (edge, neighbor slots, the five (vertex, slot) keys of
      x1..x5, 'b<i>' or None) per interior edge, in id order.
    One Presentation is shared by everything built on its surface
    (PantsSurface._presentation), so none of this is ever mutated.
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
        pictures = {f: _picture_slots(graph, f) for f in graph.interior_edges()}
        vertex_words = self.vertex_words = {}
        walk = []

        def excursion(vid, s):
            """Generators emitted while departing vertex vid through slot s.

            The walk keeps an explicit stack, so a deep tree cannot overflow
            the call stack; departures come in depth-first order.  A task
            with a far end (wid, sw) joins the two words beyond that tree edge.
            """
            todo, words = [(vid, s, None)], []
            while todo:
                vid, s, far = todo.pop()
                if far is not None:
                    word = words.pop(-2) + words.pop()
                    vertex_words[far] = inverse_word(word)
                else:
                    eid, end = graph.slot(vid, s)
                    name = gen.get((eid, end))
                    if name is None:
                        # cross a tree edge; the slot it arrives through faces
                        # back toward the root: m_sw = (m_(sw+1) m_(sw+2))^-1
                        wid, sw = far = graph.slot_of[(eid, "head" if end == "tail" else "tail")]
                        walk.append((eid, pictures[eid][2], vid, s, wid, sw, end == "tail"))
                        todo += [(vid, s, far), (wid, (sw + 2) % 3, None), (wid, (sw + 1) % 3, None)]
                        continue
                    word = ((name, 1),)
                vertex_words[(vid, s)] = word
                words.append(word)
            return words.pop()

        self.root = root = min(graph.trivalent_vertices())
        self.relation = excursion(root, 0) + excursion(root, 1) + excursion(root, 2)
        self.walk = tuple(walk)
        visits = [(root, None, None)] + [(w, (w, sw), (v, sv)) for _, _, v, sv, w, sw, _ in walk]
        self.visits = tuple((((vid, 0), (vid, 1), (vid, 2)), facing, near)
                            for vid, facing, near in visits)
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
        self.letters = tuple((eid, "b%d" % i) + pictures[eid] for i, eid in enumerate(u_edges, start=1))
        self.ends = tuple(
            (eid, tuple((end, graph.slot_of[(eid, end)]) for end, vid in (("tail", e.tail), ("head", e.head))
                        if graph.vertices[vid].kind == "tri"))
            for eid, e in sorted(graph.edges.items())
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
    compiles afresh; surface._presentation is the one compiled on the
    surface's own tree.
    """
    return Presentation(surface, tree)


def _picture_slots(graph, edge):
    """The local-picture slots ((v, sv), (w, sw), (g2, g3, g4, g5)) of an edge.

    (v, sv) and (w, sw) hold its tail and head; g2, g3 are the incidences
    counterclockwise after it at v, and g4, g5 those after it at w, read
    off the two incidence lists: a flip or a move compiles no slot table.
    """
    _, v, w = graph.edges[edge]
    at_v, at_w = graph.vertices[v].incident, graph.vertices[w].incident
    sv, sw = at_v.index((edge, "tail")), at_w.index((edge, "head"))
    return (v, sv), (w, sw), (at_v[(sv + 1) % 3], at_v[(sv + 2) % 3],
                              at_w[(sw + 1) % 3], at_w[(sw + 2) % 3])


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
