"""Fat graphs, validation, spanning trees, presentations and serialization."""

import random

import numpy as np
import pytest

from pantsrep import builder, surface as su
from pantsrep.surface import (
    Edge,
    FatGraph,
    PantsSurface,
    Vertex,
    four_holed_sphere,
    genus_two,
    inverse_word,
    maximal_tree,
    one_holed_torus,
    presentation,
    validate,
)

from helpers import caterpillar, handle_chain, reference_surfaces, ribbon_graphs, sample_params


def test_fixtures_validate():
    for surf in (four_holed_sphere(), one_holed_torus(), genus_two()):
        assert validate(surf) == []


def test_fixture_counts():
    s04 = four_holed_sphere()
    assert (s04.genus, s04.boundary) == (0, 4)
    assert len(s04.graph.trivalent_vertices()) == 2
    assert s04.graph.interior_edges() == [1]
    assert s04.graph.boundary_edges() == [2, 3, 4, 5]

    t11 = one_holed_torus()
    assert (t11.genus, t11.boundary) == (1, 1)
    assert t11.graph.interior_edges() == [1]

    g2 = genus_two()
    assert (g2.genus, g2.boundary) == (2, 0)
    assert g2.graph.interior_edges() == [1, 2, 3]
    assert g2.graph.boundary_edges() == []


def test_euler_characteristic():
    assert four_holed_sphere().euler_characteristic() == -2
    assert one_holed_torus().euler_characteristic() == -1
    assert genus_two().euler_characteristic() == -2


def test_slot_indexing_is_cyclic():
    g = four_holed_sphere().graph
    assert g.slot(0, 0) == g.slot(0, 3)
    assert g.slot(0, 1) == g.slot(0, 4)


def test_slot_of_inverts_slot():
    for surf in (four_holed_sphere(), one_holed_torus(), genus_two()):
        g = surf.graph
        for vid in g.trivalent_vertices():
            for s in range(3):
                eid, end = g.slot(vid, s)
                assert g.slot_of[(eid, end)] == (vid, s)


def test_validate_reports_problems():
    # genus/boundary mismatch with the graph
    s = four_holed_sphere()
    wrong = PantsSurface(3, 0, s.graph, tree=s.tree)
    assert validate(wrong) != []
    # nonnegative euler characteristic
    t = one_holed_torus()
    flat = PantsSurface(1, 0, t.graph)
    assert any("euler" in msg for msg in validate(flat))


def test_maximal_tree_spans():
    for surf in (four_holed_sphere(), one_holed_torus(), genus_two()):
        tree = maximal_tree(surf)
        g = surf.graph
        nverts = len(g.vertices)
        assert len(tree) == nverts - 1
        # tree edges touch every vertex
        touched = set()
        for eid in tree:
            e = g.edges[eid]
            touched.update((e.tail, e.head))
        assert touched == set(g.vertices) or nverts == 1


def test_a_genus_the_graph_cannot_carry_is_refused():
    # the four-holed sphere's graph declared as S_{1,4}: every spanning tree
    # leaves no interior edge out, not the one that genus 1 needs
    surf = PantsSurface(1, 4, four_holed_sphere().graph)
    with pytest.raises(ValueError, match=r"^tree complement has 0 interior edges, expected genus 1$"):
        maximal_tree(surf)
    with pytest.raises(ValueError, match=r"^not a maximal tree: 0 complement edges for genus 1$"):
        su.Presentation(surf, {1, 2, 3, 4, 5})


def test_fixture_trees_are_valid():
    assert set(four_holed_sphere().tree) == {1, 2, 3, 4, 5}
    assert set(one_holed_torus().tree) == {2}
    assert set(genus_two().tree) == {3}


def test_presentation_shapes():
    s04 = four_holed_sphere()
    p = presentation(s04, s04.tree)
    assert (p.genus, p.boundary) == (0, 4)
    assert list(p.beta) == []
    assert sorted(p.delta) == ["d1", "d2", "d3", "d4"]
    assert p.one_relator() == tuple(p.relation)

    t11 = one_holed_torus()
    p = presentation(t11, t11.tree)
    assert list(p.alpha) == ["a1", "a2"]
    assert list(p.beta) == ["b1"]
    assert list(p.delta) == ["d1"]
    assert len(p.hnn) == 1

    g2 = genus_two()
    p = presentation(g2, g2.tree)
    assert list(p.alpha) == ["a1", "a2", "a3", "a4"]
    assert list(p.beta) == ["b1", "b2"]
    assert list(p.delta) == []
    assert len(p.hnn) == 2
    # the closed-surface relator eliminates the redundant alphas
    names = {name for name, _ in p.one_relator()}
    assert "a3" not in names and "a4" not in names


def test_inverse_word():
    w = (("a1", 1), ("b1", -1), ("a2", 1))
    assert inverse_word(w) == (("a2", -1), ("b1", 1), ("a1", -1))
    assert inverse_word(inverse_word(w)) == w


def test_json_roundtrip(tmp_path):
    for surf in (four_holed_sphere(), one_holed_torus(), genus_two()):
        doc = su.to_json(surf)
        back = su.from_json(doc)
        assert validate(back) == []
        assert (back.genus, back.boundary) == (surf.genus, surf.boundary)
        assert set(back.graph.edges) == set(surf.graph.edges)
        for vid, rec in surf.graph.vertices.items():
            assert back.graph.vertices[vid].incident == rec.incident
        path = tmp_path / "surf.json"
        su.save(surf, path)
        again = su.load(path)
        assert validate(again) == []
        assert again.tree == surf.tree


NOT_SPANNING = [
    (four_holed_sphere, []),            # spans nothing
    (four_holed_sphere, [1, 2, 3, 4]),  # misses a univalent vertex
    (genus_two, [1, 2, 3]),             # holds a cycle
    (one_holed_torus, [1]),             # a loop, missing the boundary edge
    (one_holed_torus, [1, 2]),
]


@pytest.mark.parametrize("make, tree", NOT_SPANNING)
def test_validate_reports_non_spanning_tree(make, tree):
    surf = make()
    surf.tree = set(tree)
    problems = validate(surf)
    assert len(problems) == 1 and "not a spanning tree" in problems[0]


def test_validate_accepts_every_spanning_tree_of_genus_two():
    for eid in (1, 2, 3):
        surf = genus_two()
        surf.tree = {eid}
        assert validate(surf) == []


def _reference_maximal_tree(surface):
    """maximal_tree as it was first written: re-sort and rescan per vertex."""
    graph = surface.graph
    seen = {min(graph.vertices)}
    tree = set()
    while True:
        candidates = [eid for eid in sorted(graph.edges)
                      if (graph.edges[eid].tail in seen) != (graph.edges[eid].head in seen)]
        if not candidates:
            return tree
        e = graph.edges[candidates[0]]
        seen.add(e.head if e.tail in seen else e.tail)
        tree.add(candidates[0])


def test_maximal_tree_matches_reference():
    surfaces = [four_holed_sphere(), one_holed_torus(), genus_two()]
    surfaces += [handle_chain(g) for g in (1, 2, 3, 5, 8, 13, 21, 32)]
    surfaces += [caterpillar(b) for b in (4, 5, 9, 16, 33)]
    surfaces += ribbon_graphs()
    for surf in surfaces:
        assert maximal_tree(surf) == _reference_maximal_tree(surf)


def _union_find_verdicts(graph, eids):
    """(connected, spanning tree) for the edge ids eids, by union-find."""
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    merges = 0
    for eid in eids:
        a, b = find(graph.edges[eid].tail), find(graph.edges[eid].head)
        if a != b:
            parent[a] = b
            merges += 1
    connected = merges == len(graph.vertices) - 1
    return connected, connected and len(eids) == len(graph.vertices) - 1


def test_spanning_walk_agrees_with_union_find():
    """The one walk's verdicts (validate's connectivity test and
    _is_spanning_tree) on random edge subsets, against union-find."""
    rng = random.Random(20261019)
    for surf in reference_surfaces():
        graph = surf.graph
        n, edges = len(graph.vertices), sorted(graph.edges)
        for _ in range(30):
            k = n - 1 if rng.random() < 0.5 else rng.randint(0, len(edges))
            eids = frozenset(rng.sample(edges, min(k, len(edges))))
            connected, spanning = _union_find_verdicts(graph, eids)
            assert (len(su._spanning_walk(graph, eids)) == n - 1) == connected
            assert su._is_spanning_tree(graph, eids) == spanning


def test_validate_reports_a_disconnected_graph():
    # two one-holed tori side by side have the vertex and edge counts of S_{1,2}
    vertices = [Vertex(0, "tri", ((1, "tail"), (2, "tail"), (1, "head"))),
                Vertex(1, "uni", ((2, "head"),)),
                Vertex(2, "tri", ((3, "tail"), (4, "tail"), (3, "head"))),
                Vertex(3, "uni", ((4, "head"),))]
    edges = [Edge(1, 0, 0), Edge(2, 0, 1), Edge(3, 2, 2), Edge(4, 2, 3)]
    surf = PantsSurface(1, 2, FatGraph(vertices, edges))
    assert validate(surf) == ["graph is not connected"]
    with pytest.raises(ValueError, match="disconnected"):
        maximal_tree(surf)


def test_validate_reports_an_edge_between_two_univalent_vertices():
    # the counts of S_{0,3}: one trivalent vertex with a loop and a leg,
    # and edge 3 on its own between two univalent vertices
    vertices = [Vertex(0, "tri", ((1, "tail"), (2, "tail"), (2, "head"))),
                Vertex(1, "uni", ((1, "head"),)),
                Vertex(2, "uni", ((3, "tail"),)),
                Vertex(3, "uni", ((3, "head"),))]
    edges = [Edge(1, 0, 1), Edge(2, 0, 0), Edge(3, 2, 3)]
    assert validate(PantsSurface(0, 3, FatGraph(vertices, edges))) == [
        "edge 3 joins two univalent vertices"]


@pytest.mark.parametrize("vertex, slot, incidence, named", [
    (1, 0, [1, "middle"], ["vertex 1 lists (1, 'middle')", "vertex 1 must list (1, 'head')"]),
    (0, 1, [3, "tail"], ["vertex 0 must list (3, 'tail')", "vertex 0 must list (2, 'tail')"]),
    (2, 0, [2, "x"], ["vertex 2 lists (2, 'x')", "vertex 2 must list (2, 'head')"]),
    (0, 0, [9, "tail"], ["vertex 0 lists (9, 'tail')", "vertex 0 must list (1, 'tail')"]),
    (1, 0, [1, "tail"], ["vertex 0 must list (1, 'tail')", "vertex 1 must list (1, 'head')"]),
], ids=["label-at-trivalent", "end-twice", "label-at-univalent", "unknown-edge", "end-elsewhere"])
def test_validate_names_the_vertex_and_end_of_each_bad_incidence(vertex, slot, incidence, named):
    """Every edge end is listed exactly once, by the vertex at that end."""
    doc = su.to_json(four_holed_sphere())
    doc["vertices"][vertex]["incident"][slot] = incidence
    problems = validate(su.from_json(doc))
    for fragment in named:
        assert any(msg.startswith(fragment) for msg in problems), problems


@pytest.mark.parametrize("make, vertex_ids, edge_ids, named", [
    (one_holed_torus, {1: "x"}, {}, ["vertex id 'x' is not an integer"]),
    (four_holed_sphere, {}, {2: "2"}, ["edge id '2' is not an integer"]),
    (four_holed_sphere, {}, {1: True, 3: 3.0},
     ["edge id True is not an integer", "edge id 3.0 is not an integer"]),
    (lambda: caterpillar(5), {1: "a", 8: "b"}, {4: None},
     ["vertex id 'a' is not an integer", "vertex id 'b' is not an integer",
      "edge id None is not an integer"]),
], ids=["univalent-vertex", "edge", "bool-and-float", "several"])
def test_validate_names_each_id_that_is_not_an_integer(make, vertex_ids, edge_ids, named):
    # the other rules sort the ids, so these are the only problems reported
    doc = su.to_json(make())
    for records, renames in ((doc["vertices"], vertex_ids), (doc["edges"], edge_ids)):
        for r in records:
            r["id"] = renames.get(r["id"], r["id"])
    assert validate(su.from_json(doc)) == named


def test_a_loop_at_a_vertex_of_another_kind_breaks_the_incidence_count():
    # the one-holed torus, plus a vertex of kind "bi" carrying loop edge 3
    t = one_holed_torus()
    vertices = list(t.graph.vertices.values()) + [Vertex(2, "bi", ((3, "tail"), (3, "head")))]
    edges = list(t.graph.edges.values()) + [Edge(3, 2, 2)]
    surf = PantsSurface(t.genus, t.boundary, FatGraph(vertices, edges))
    assert "vertex 2 has 2 incidences, expected 1" in validate(surf)


def _reference_tree_walk(graph, tree):
    """The root and the steps of one DFS over the tree's interior edges.

    The separate walk build used before the presentation's walk took its
    place, with each edge's local-picture slots looked up directly.
    """
    steps = {}
    for eid in sorted(tree):
        if not graph.is_boundary(eid):
            e = graph.edges[eid]
            steps.setdefault(e.tail, []).append((eid, e.head, True))
            steps.setdefault(e.head, []).append((eid, e.tail, False))
    root = min(graph.trivalent_vertices())
    reached = {root}
    walk = []
    stack = [root]
    while stack:
        near = stack.pop()
        for eid, far, forward in steps.get(near, ()):
            if far in reached:
                continue
            (_, sv), (_, sw), nbrs = su._picture_slots(graph, eid)
            sn, sf = (sv, sw) if forward else (sw, sv)
            walk.append((eid, nbrs, near, sn, far, sf, forward))
            reached.add(far)
            stack.append(far)
    assert len(reached) == len(graph.trivalent_vertices())
    return root, walk


def test_presentation_walk_matches_reference_tree_walk():
    surfaces = [four_holed_sphere(), one_holed_torus(), genus_two()]
    surfaces += [handle_chain(g) for g in range(1, 17)]
    surfaces += [caterpillar(b) for b in range(4, 34)] + ribbon_graphs()
    for surf in surfaces:
        tree = surf.tree if surf.tree is not None else maximal_tree(surf)
        pres = presentation(surf, tree)
        root, walk = _reference_tree_walk(surf.graph, tree)
        assert pres.root == root
        assert len(pres.walk) == len(walk) and set(pres.walk) == set(walk)
        reached = {root}
        for step in pres.walk:
            near, far = step[2], step[4]
            assert near in reached and far not in reached
            reached.add(far)


def test_a_deep_tree_compiles():
    """The 1,000-leg caterpillar's tree is a 997-edge path: the walk that
    compiles the presentation must not recurse once per tree level."""
    surf = caterpillar(1000)
    assert validate(surf) == []
    pres = presentation(surf, maximal_tree(surf))
    assert len(pres.walk) == 997
    assert sorted(name for name, _ in pres.one_relator()) == sorted(pres.delta)


def _hc2():
    return handle_chain(2)


@pytest.mark.parametrize("make, tree", NOT_SPANNING + [
    (four_holed_sphere, [1]),                  # the right complement, too small
    (four_holed_sphere, [1, 2, 3, 4, 5, 6]),   # an unknown edge
    (_hc2, [1, 3, 4, 5, 6]),                   # the right size, holds a loop
    (_hc2, [1, 2, 3, 4, 6]),
])
def test_non_spanning_tree_raises_value_error(make, tree):
    surf = make()
    params = sample_params(surf, np.random.default_rng(3))
    with pytest.raises(ValueError, match="not a spanning tree"):
        presentation(surf, tree)
    surf.tree = set(tree)
    with pytest.raises(ValueError, match="not a spanning tree"):
        builder.build(surf, params)
