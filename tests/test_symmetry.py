"""Eigenvalue flips and the vertex-sign group."""

import cmath
from collections import Counter

import numpy as np
import pytest

from pantsrep import builder, surface as su, symmetry as sym
from pantsrep.coordinates import EdgeParams, _picture_es, local_picture
from pantsrep.moves import Move, apply_move
from pantsrep.projective import _at

from helpers import (SURFACES, caterpillar, handle_chain, marking_words, outcome, rand_c,
                      reference_surfaces, ribbon_graphs, same_numbers, same_outcome,
                      sample_fuchsian_params, sample_params, squared_trace_table)

RNG = np.random.default_rng(20240905)


def test_epsilon_basis_sizes():
    sizes = {"four_holed": 3, "one_holed": 1, "genus_two": 2}
    for name, make in SURFACES.items():
        surf = make()
        basis = sym.epsilon_basis(surf)
        assert len(basis) == sizes[name]
        for eps in basis:
            assert sym.check_epsilon(surf, eps)
            assert set(eps) == set(surf.graph.edges)
            assert all(s in (1, -1) for s in eps.values())


def test_check_epsilon_rejects_bad_vectors():
    surf = SURFACES["genus_two"]()
    # the theta graph: edges 1, 2, 3 each join vertices 0 and 1, so a lone
    # sign on any one of them breaks the product condition at both ends
    bad = {eid: 1 for eid in surf.graph.edges}
    bad[1] = -1
    assert not sym.check_epsilon(surf, bad)
    bad2 = {eid: 1 for eid in surf.graph.edges}
    bad2[3] = -1
    assert not sym.check_epsilon(surf, bad2)


def test_check_epsilon_counts_a_loop_twice_at_its_vertex():
    # one_holed_torus: loop edge 1 meets vertex 0 twice, so -1 on it alone
    # keeps the product +1 there; boundary edge 2 meets vertex 0 once
    surf = SURFACES["one_holed"]()
    assert sym.check_epsilon(surf, {1: -1, 2: 1})
    assert not sym.check_epsilon(surf, {1: 1, 2: -1})


def test_act_epsilon_changes_eigen_only():
    surf = SURFACES["four_holed"]()
    params = sample_params(surf, RNG)
    for eps in sym.epsilon_basis(surf):
        out = sym.act_epsilon(params, eps, surface=surf)
        for eid in params.eigen:
            assert out.eigen[eid] == eps[eid] * params.eigen[eid]
        assert out.twist == params.twist


def test_act_epsilon_refuses_a_sign_vector_that_breaks_a_vertex():
    surf = SURFACES["four_holed"]()
    with pytest.raises(ValueError) as info:
        sym.act_epsilon(sample_params(surf, RNG), {1: -1}, surf)
    assert (info.type, str(info.value)) == (ValueError, "sign vector violates the vertex product condition")


@pytest.mark.parametrize("eps, bad", [({1: 2, 2: 0.5, 4: 0.5}, "eps[1] = 2"), ({99: -1}, "eps[99] = -1"),
                                      ({1: -1, 2: float("nan"), 4: -1}, "eps[2] = nan"),
                                      ({1: -1, 2: -1, 4: -1, 5: 0}, "eps[5] = 0")],
                         ids=["scales", "no-edge", "nan", "zero"])
def test_a_sign_vector_maps_edge_ids_to_signs(eps, bad):
    # every vertex product of {1: 2, 2: 0.5, 4: 0.5} is 1, but scaling the
    # eigenvalues is no sign action; a key that is no edge id is no sign
    surf = SURFACES["four_holed"]()
    assert not sym.check_epsilon(surf, eps)
    with pytest.raises(ValueError) as info:
        sym.act_epsilon(sample_params(surf, np.random.default_rng(21)), eps, surface=surf)
    assert (info.type, str(info.value)) == (ValueError, bad + ": expected an edge id mapped to 1 or -1")
    assert sym.check_epsilon(surf, {1: -1, 2: -1, 4: -1})  # a missing edge counts as 1


def test_epsilon_preserves_squared_traces():
    for make in SURFACES.values():
        surf = make()
        params = sample_params(surf, RNG)
        rep = builder.build(surf, params)
        words = marking_words(rep.presentation)
        base = squared_trace_table(rep, words)
        for eps in sym.epsilon_basis(surf):
            rep2 = builder.build(surf, sym.act_epsilon(params, eps, surface=surf))
            other = squared_trace_table(rep2, words)
            for x, y in zip(base, other):
                assert abs(x - y) < 1e-8 * max(1.0, abs(x))


def test_flip_preserves_squared_traces():
    for make in SURFACES.values():
        surf = make()
        params = sample_params(surf, RNG)
        rep = builder.build(surf, params)
        words = marking_words(rep.presentation)
        base = squared_trace_table(rep, words)
        for edge in surf.graph.edges:
            rep2 = builder.build(surf, sym.flip_eigenvalue(params, surf, edge))
            other = squared_trace_table(rep2, words)
            for x, y in zip(base, other):
                assert abs(x - y) < 1e-7 * max(1.0, abs(x))


def test_flip_is_an_involution():
    for make in SURFACES.values():
        surf = make()
        params = sample_params(surf, RNG)
        for edge in surf.graph.edges:
            once = sym.flip_eigenvalue(params, surf, edge)
            twice = sym.flip_eigenvalue(once, surf, edge)
            for eid in params.eigen:
                assert abs(twice.eigen[eid] - params.eigen[eid]) < 1e-9
            for eid in params.twist:
                assert abs(twice.twist[eid] - params.twist[eid]) < 1e-8 * max(
                    1.0, abs(params.twist[eid])
                )


def test_flip_boundary_edge_four_holed():
    # flipping a boundary edge inverts its eigenvalue and rescales the one
    # interior twist by the documented factor
    surf = SURFACES["four_holed"]()
    params = sample_params(surf, RNG)
    from pantsrep.coordinates import local_picture

    lp = local_picture(surf, params, 1)
    e1, e2, e3, e4, e5 = lp.es
    out = sym.flip_eigenvalue(params, surf, 2)  # position-2 neighbor of edge 1
    assert abs(out.eigen[2] - 1 / params.eigen[2]) < 1e-12
    want = (
        params.twist[1]
        * (e2 * e3 - e1)
        * (e1 * e3 - e2)
        / ((1 - e1 * e2 * e3) * (e1 * e2 - e3))
    )
    assert abs(out.twist[1] - want) < 1e-10 * max(1.0, abs(want))


def test_flip_unknown_edge_raises():
    surf = SURFACES["one_holed"]()
    params = sample_params(surf, RNG)
    with pytest.raises(KeyError):
        sym.flip_eigenvalue(params, surf, 99)


@pytest.mark.parametrize("edge, part, key", [(2, "eigen", 2), (1, "twist", 1)])
def test_flip_numeric_error_names_the_edge(edge, part, key):
    # a zero eigenvalue in the flipped edge's picture, or a zero twist on it,
    # divides by zero; the error keeps its class and names the flipped edge
    surf = SURFACES["four_holed"]()
    params = sample_params(surf, RNG)
    getattr(params, part)[key] = 0j
    with pytest.raises(ZeroDivisionError, match=r"^edge %d: complex division by zero$" % edge):
        sym.flip_eigenvalue(params, surf, edge)


def _reference_flip(params, surface, edge):
    """flip_eigenvalue as it was first written: every interior edge's picture."""
    eigen, twist = dict(params.eigen), dict(params.twist)
    for f in surface.graph.interior_edges():
        lp = local_picture(surface, params, f)
        scale = 1.0
        for position, (eid, _end) in zip((2, 3, 4, 5), lp.neighbor_slots):
            if eid == edge:
                scale *= sym._occurrence_factor(lp.es, position)
        new = twist[f] * scale
        twist[f] = 1 / new if f == edge else new
    eigen[edge] = 1 / eigen[edge]
    return EdgeParams(eigen, twist)


def test_flip_visits_only_affected_edges_with_the_same_result():
    rng = np.random.default_rng(97)
    surfaces = [make() for make in SURFACES.values()]
    surfaces += [handle_chain(g) for g in (1, 2, 3, 6)]
    surfaces += [caterpillar(b) for b in (4, 5, 9)] + ribbon_graphs()
    for surf in surfaces:
        g = surf.graph
        params = EdgeParams({eid: rand_c(rng) for eid in g.edges},
                            {eid: rand_c(rng) for eid in g.interior_edges()})
        for edge in g.edges:
            assert sym.flip_eigenvalue(params, surf, edge) == _reference_flip(params, surf, edge)


def test_flip_compiles_no_whole_graph_fact():
    # a flip reads the records at the flipped edge's two ends, so on a fresh
    # surface, or one a move made from a graph that had compiled nothing, it
    # compiles neither graph fact
    rng = np.random.default_rng(98)
    for make in [*SURFACES.values(), lambda: handle_chain(3), lambda: caterpillar(5)]:
        params = sample_params(make(), rng)
        for edge in make().graph.edges:
            surf = make()
            sym.flip_eigenvalue(params, surf, edge)
            assert not {"_interior", "_triples"} & vars(surf.graph).keys(), edge


def _reference_sign_rows(surface):
    """One GF(2) row per trivalent vertex: the edges met an odd number of times."""
    graph = surface.graph
    rows = []
    for vid in graph.trivalent_vertices():
        counts = {}
        for eid, _end in graph.vertices[vid].incident:
            counts[eid] = counts.get(eid, 0) + 1
        rows.append({eid for eid, c in counts.items() if c % 2 == 1})
    return rows


def _reference_check_epsilon(surface, eps):
    for row in _reference_sign_rows(surface):
        prod = 1
        for eid in row:
            prod *= eps.get(eid, 1)
        if prod != 1:
            return False
    return True


def _reference_epsilon_basis(surface):
    """epsilon_basis as it was with the odd-incidence rows above."""
    edges = sorted(surface.graph.edges)
    index = {eid: i for i, eid in enumerate(edges)}
    rows = [sum(1 << index[eid] for eid in row) for row in _reference_sign_rows(surface)]
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


def test_sign_group_matches_the_odd_incidence_rule():
    rng = np.random.default_rng(98)
    for surf in reference_surfaces():
        basis = sym.epsilon_basis(surf)
        assert basis == _reference_epsilon_basis(surf)
        edges = sorted(surf.graph.edges)
        vectors = [{eid: int(s) for eid, s in zip(edges, rng.choice([-1, 1], len(edges)))}
                   for _ in range(50)]
        for eps in basis + vectors:
            assert sym.check_epsilon(surf, eps) == _reference_check_epsilon(surf, eps)


def _two_pass_bad_sign(surface, eps):
    edges = surface.graph.edges
    return next(((k, v) for k, v in eps.items() if k not in edges or v not in (1, -1)), None)


def _two_pass_check_epsilon(surface, eps):
    """check_epsilon as it was: a pass over the entries, then one over _triples."""
    return _two_pass_bad_sign(surface, eps) is None and all(
        eps.get(i, 1) * eps.get(j, 1) * eps.get(k, 1) == 1
        for i, j, k in surface.graph._triples.values())


def _two_pass_act_epsilon(params, eps, surface=None):
    if surface is not None and not _two_pass_check_epsilon(surface, eps):
        bad = _two_pass_bad_sign(surface, eps)
        if bad is not None:
            raise ValueError("eps[%r] = %r: expected an edge id mapped to 1 or -1" % bad)
        raise ValueError("sign vector violates the vertex product condition")
    eigen = {eid: eps.get(eid, 1) * e for eid, e in params.eigen.items()}
    return EdgeParams(eigen, dict(params.twist))


def _set_based_flip(params, surface, edge):
    """flip_eigenvalue as it was: a set of the interior edges at the flipped
    edge's ends, each picture read through _picture_slots."""
    graph = surface.graph
    if edge not in graph.edges:
        raise KeyError("unknown edge %r" % (edge,))
    eigen = dict(params.eigen)
    twist = dict(params.twist)
    e = graph.edges[edge]
    near = {eid for vid in (e.tail, e.head) for eid, _ in graph.vertices[vid].incident
            if not graph.is_boundary(eid)}
    try:
        for f in near:
            _, _, nbrs = su._picture_slots(graph, f)
            positions = [pos for pos, (eid, _) in zip((2, 3, 4, 5), nbrs) if eid == edge]
            if positions:
                es = _picture_es(params.eigen, f, nbrs)
                scale = 1
                for position in positions:
                    scale *= sym._occurrence_factor(es, position)
                twist[f] = twist[f] * scale
        if not graph.is_boundary(edge):
            twist[edge] = 1 / twist[edge]
        eigen[edge] = 1 / eigen[edge]
    except ArithmeticError as ex:
        raise _at("edge %r" % (edge,), ex)
    return EdgeParams(eigen, twist)


def _bare(surf):
    """surf on a graph made anew from its records, so it has compiled nothing."""
    g = surf.graph
    return su.PantsSurface(surf.genus, surf.boundary,
                           su.FatGraph(list(g.vertices.values()), list(g.edges.values())), tree=surf.tree)


def _moved(surf, params, rng, steps=4):
    """A bare copy of surf and params after a seeded run of reverse, vertex
    and elem moves (a move that raises is skipped)."""
    s, p = _bare(surf), params
    for _ in range(steps):
        kind = ("reverse", "vertex", "elem")[rng.integers(3)]
        ids = s.graph.trivalent_vertices() if kind == "vertex" else sorted(s.graph.edges)
        try:
            s, p = apply_move(s, p, Move(kind, ids[rng.integers(len(ids))]))
        except (ValueError, ArithmeticError):
            pass
    return s, p


def _sign_vectors(surf, rng):
    """Valid, random and malformed sign vectors for surf, in shuffled key orders."""
    edges = sorted(surf.graph.edges)
    basis = sym.epsilon_basis(surf)
    vectors = list(basis)
    for _ in range(6):
        eps = {eid: 1 for eid in edges}
        for vec in basis:
            if rng.integers(2):
                eps = {eid: eps[eid] * vec[eid] for eid in edges}
        vectors.append(eps)
        vectors.append({eid: int(s) for eid, s in zip(edges, rng.choice([-1, 1], len(edges)))})
        vectors.append({eid: eps[eid] for eid in edges if rng.integers(2)})  # missing edges count as 1
    for bad in (0, 2, 0.5, 1.0, -1.0, True, float("nan"), [1], [-1, 1]):
        eps = dict(vectors[rng.integers(len(vectors))])
        eps[edges[rng.integers(len(edges))]] = bad
        vectors.append(eps)
    vectors.append({**vectors[0], max(edges) + 1: -1})  # a key that is no edge id
    vectors.append({max(edges) + 1: 1})
    shuffled = []
    for eps in vectors:
        keys = list(eps)
        shuffled.append({keys[i]: eps[keys[i]] for i in rng.permutation(len(keys))})
    return vectors + shuffled


def test_check_and_act_epsilon_equal_the_two_pass_forms():
    # the one-pass check reads the incidence lists; the two-pass form as
    # first written checks the entries, then compiles _triples.  They agree,
    # value or error class and message, on every reference surface and on
    # graphs made by moves, for valid, random and malformed sign vectors
    rng = np.random.default_rng(2301)
    checked = 0
    for surf in reference_surfaces():
        params = sample_params(surf, rng)
        for s, p in [(surf, params), _moved(surf, params, rng)]:
            for eps in _sign_vectors(s, rng):
                assert same_outcome(sym.check_epsilon, _two_pass_check_epsilon, s, eps), eps
                assert same_outcome(sym.act_epsilon, _two_pass_act_epsilon, p, eps, s), eps
                checked += 1
    assert checked > 5000


def _flip_points(surf, rng):
    """Box, Fuchsian, huge, tiny and zero-eigenvalue points of surf."""
    g = surf.graph
    box = EdgeParams({eid: rand_c(rng) for eid in g.edges},
                     {eid: rand_c(rng) for eid in g.interior_edges()})
    fuchsian = sample_fuchsian_params(surf, rng)
    points = [box, fuchsian]
    for scales in ((1e150, 1e300), (1e-150, 1e-300)):
        scale = scales[rng.integers(2)]
        twist = box.twist if rng.integers(2) else {k: v * scale for k, v in box.twist.items()}
        points.append(EdgeParams({k: v * scale for k, v in box.eigen.items()}, dict(twist)))
    zero = sorted(g.edges)[rng.integers(len(g.edges))]
    points += [EdgeParams({**box.eigen, zero: 0j}, dict(box.twist)),
               EdgeParams({**fuchsian.eigen, zero: 0.0}, dict(fuchsian.twist))]
    return points


def test_flip_equals_the_set_based_form():
    # the one ordered pass equals the set-based flip by value, NaN equal to
    # NaN, or by error class and message, for every edge at box, Fuchsian,
    # huge, tiny and zero-eigenvalue points, on original and moved graphs;
    # except that where the set-based flip returns a twist that is not
    # finite, the flip raises OverflowError naming the edge
    rng = np.random.default_rng(2302)
    kinds = Counter()
    for surf in reference_surfaces():
        if len(surf.graph.edges) > 20:
            continue
        for s, _ in [(surf, None), _moved(surf, sample_params(surf, rng), rng)]:
            for params in _flip_points(s, rng):
                for edge in s.graph.edges:
                    got = outcome(sym.flip_eigenvalue, params, s, edge)
                    want = outcome(_set_based_flip, params, s, edge)
                    if want[0] == "value" and not all(map(cmath.isfinite, want[1].twist.values())):
                        assert got[0] is OverflowError and got[2] is None, (edge, got)
                        assert got[1].startswith("edge %r: twist " % (edge,)), (edge, got)
                        kinds["non-finite"] += 1
                        continue
                    assert (same_numbers(got[1], want[1]) if got[0] == want[0] == "value"
                            else got == want), (edge, got, want)
                    kinds[got[0] if got[0] == "value" else got[0].__name__] += 1
    assert kinds["value"] > 5000 and kinds["ZeroDivisionError"] > 200, kinds
    assert kinds["non-finite"] > 100, kinds
