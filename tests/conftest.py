"""Shared helpers for the test suite."""

import os

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
