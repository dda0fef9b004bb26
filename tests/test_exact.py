"""The rational formulas compute in their inputs' own arithmetic, so on
fractions.Fraction parameters the move and symmetry identities hold exactly
and every result stays a Fraction."""

import random
from fractions import Fraction

import pytest

from pantsrep import coordinates as co, symmetry
from pantsrep.coordinates import EdgeParams
from pantsrep.moves import Move, apply_move

from helpers import SURFACES, ribbon_graphs

CASES = [(name, make()) for name, make in SURFACES.items()]
CASES += [("ribbon%d" % i, surf) for i, surf in enumerate(ribbon_graphs()) if i % 6 == 0]


def fraction_params(surf, seed):
    """Rational parameters in the coordinate domain."""
    rng = random.Random(seed)

    def rational():
        while True:
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            if x not in (0, 1, -1):
                return x

    g = surf.graph
    while True:
        params = EdgeParams({eid: rational() for eid in g.edges},
                            {eid: rational() for eid in g.interior_edges()})
        if co.in_domain(params, surf):
            return params


def assert_exact(got, want):
    assert got == want
    assert all(type(v) is Fraction for part in got for v in part.values())


@pytest.fixture(params=CASES, ids=[name for name, _ in CASES])
def case(request):
    name, surf = request.param
    return surf, fraction_params(surf, name)


def test_inverse_moves_and_actions_return_the_start_exactly(case):
    surf, params = case
    for edge in surf.graph.edges:
        s1, p1 = apply_move(surf, params, Move("reverse", edge))
        assert_exact(apply_move(s1, p1, Move("reverse", edge))[1], params)
        once = symmetry.flip_eigenvalue(params, surf, edge)
        assert_exact(symmetry.flip_eigenvalue(once, surf, edge), params)
    for edge in surf.graph.interior_edges():
        s1, p1 = apply_move(surf, params, Move("twist-r", edge))
        assert_exact(apply_move(s1, p1, Move("twist-l", edge))[1], params)
    for eps in symmetry.epsilon_basis(surf):
        assert_exact(symmetry.act_epsilon(symmetry.act_epsilon(params, eps, surf), eps, surf), params)


def test_vertex_move_twice_is_one_full_twist_per_incidence_exactly(case):
    surf, params = case
    for vid in surf.graph.trivalent_vertices():
        s1, p1 = apply_move(surf, params, Move("vertex", vid))
        _, p2 = apply_move(s1, p1, Move("vertex", vid))
        twist = dict(params.twist)
        for eid, end in surf.graph.vertices[vid].incident:
            if eid in twist:
                twist[eid] *= co._end_eigen(params.eigen[eid], end) ** 2
        assert_exact(p2, EdgeParams(params.eigen, twist))


def test_four_holed_twist_from_traces_is_exact(case):
    surf, params = case
    for edge in surf.graph.interior_edges():
        lp = co.local_picture(surf, params, edge)
        _, tr24, tr35 = co.four_holed_traces(lp.es, lp.t1)
        t1 = co.twist_from_traces_four_holed(lp.es, tr24, tr35)
        assert t1 == lp.t1 and type(t1) is Fraction
