"""Eigenvalue flips and the vertex-sign group."""

import numpy as np
import pytest

from pantsrep import builder, symmetry as sym
from pantsrep.coordinates import EdgeParams, local_picture

from helpers import (SURFACES, caterpillar, handle_chain, marking_words, rand_c,
                      sample_params, squared_trace_table)

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
    bad = {eid: 1 for eid in surf.graph.edges}
    bad[1] = -1  # edge 1 is a loop: it meets its vertex twice, so a lone
    # sign on another edge breaks the product condition instead
    bad2 = {eid: 1 for eid in surf.graph.edges}
    bad2[3] = -1
    assert not sym.check_epsilon(surf, bad2)


def test_act_epsilon_changes_eigen_only():
    surf = SURFACES["four_holed"]()
    params = sample_params(surf, RNG)
    for eps in sym.epsilon_basis(surf):
        out = sym.act_epsilon(params, eps, surface=surf)
        for eid in params.eigen:
            assert out.eigen[eid] == eps[eid] * params.eigen[eid]
        assert out.twist == params.twist


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
    surfaces += [caterpillar(b) for b in (4, 5, 9)]
    for surf in surfaces:
        g = surf.graph
        params = EdgeParams({eid: rand_c(rng) for eid in g.edges},
                            {eid: rand_c(rng) for eid in g.interior_edges()})
        for edge in g.edges:
            assert sym.flip_eigenvalue(params, surf, edge) == _reference_flip(params, surf, edge)
