"""From eigenvalue-twist parameters to explicit matrix generators.

The construction walks the maximal tree of the fat graph, propagating a
base triple of fixed points from the root vertex, applies the pants
representation at each trivalent vertex, and closes up each complement
edge with a Moebius map carrying the tree-side triple to its translate
across the edge.  The resulting generator images satisfy the surface-group
relations exactly up to rounding.  Past build's coercion of its input,
points and matrices are the kernels' tuples; only rep.points and rep.images
are objects.
"""

from .projective import (
    DegenerateInputError,
    INF,
    MoebiusMap,
    ProjectivePoint,
    _adj,
    _apply,
    _at,
    _chain,
    _distinct,
    _fixed_points_with_eigs,
    _max_abs,
    _sl_normalize,
    _three_point_map,
    as_point,
)
from .pants import make_pants_data, pants_rep
from .surface import _plan
from .coordinates import (
    EdgeParams,
    _backward,
    _best_variant,
    _end_eigen,
    _forward,
    _picture_es,
    _twist,
    in_domain,
)

DEFAULT_BASE = (as_point(0), as_point(1), INF)
_DEFAULT_PAIRS = [(p.num, p.den) for p in DEFAULT_BASE]
#: tr[m0,m1] rounds by up to 16 double rounding units times (|m0| |m1|)^2
_COMM_TOL = 16 * 2.0 ** -53


class SurfaceRepresentation:
    """Matrix images of the surface-group generators plus build data.

    images maps generator names to MoebiusMaps with determinant 1;
    points maps each trivalent vertex to its slot-ordered fixed-point
    triple; beta_signs records the SL sign chosen for each stable letter.
    presentation is the surface's compiled Presentation for the tree.
    The letter table (name, +-1) -> (a, b, c, d) that evaluate,
    verify_relations, recover_coordinates and stiefel_whitney read is built
    once here, and recover_coordinates keeps the vertex spectra it reads
    per tol, so a representation is treated as immutable: for other images,
    make a new one.
    """

    def __init__(self, surface, presentation, params, images, points, base, beta_signs=None):
        self.surface = surface
        self.tree = set(presentation.tree)
        self.params = params
        self.presentation = presentation
        self.images = dict(images)
        self.points = points
        self.base = base
        self.beta_signs = dict(beta_signs or {i: 1 for i in range(1, surface.genus + 1)})
        self._letters = table = {}
        for name, m in self.images.items():
            table[(name, 1)] = entries = (m.a, m.b, m.c, m.d)
            table[(name, -1)] = _adj(entries)
        self._spectra = {}

    def evaluate(self, word):
        return MoebiusMap(_word(self._letters, word))

    def image(self, name):
        return self.images[name]


def _word(table, word):
    """The product of a presentation word, as (a, b, c, d)."""
    return _chain(map(table.__getitem__, word))


def _from_slot(triple, s):
    """A slot-ordered triple read counterclockwise from slot s."""
    return triple[s], triple[(s + 1) % 3], triple[(s + 2) % 3]


def _across(es, t1, xs, forward):
    """The triple at the far end of an edge from the one at the near end.

    es and t1 are the edge's local picture.  Both triples are read
    counterclockwise from the edge: (x1, x2, x3) at the tail and
    (x1, x4, x5) at the head.  forward crosses from tail to head.
    """
    step = _forward if forward else _backward
    return (xs[0],) + step(es, t1, *xs)


def _vertex_points(pres, params, base):
    """Fixed-point triples at every trivalent vertex, by one walk of the tree.

    The walk (pres.walk) starts from the lowest trivalent vertex, which
    carries base, and crosses each interior tree edge once, forward or
    backward.
    """
    eigen, twist = params.eigen, params.twist
    points = {pres.root: list(base)}
    for eid, nbrs, near, sn, far, sf, forward in pres.walk:
        try:
            xs = _across(_picture_es(eigen, eid, nbrs), twist[eid],
                         _from_slot(points[near], sn), forward)
        except ValueError as ex:
            raise _at("edge %r" % (eid,), ex)
        triple = [None, None, None]
        for k in range(3):
            triple[(sf + k) % 3] = xs[k]
        points[far] = triple
    return points


def build(surface, params, tree=None, base=None):
    """Construct the SL(2,C) representation determined by the parameters.

    Every generator image has determinant 1.  tree defaults to the
    surface's stored tree, else maximal_tree.  base is the fixed-point
    triple placed at the root vertex, slot order counterclockwise from
    slot 0; differing bases give conjugate results.  A tree that is not a
    maximal tree raises ValueError before the parameters are looked at.
    In-domain parameter values are coerced to complex (rep.params keeps them).  A
    numeric error's message starts "vertex <id>: ", "edge <id>: " or "edge <id> (b<i>): ".
    """
    pres = _plan(surface, tree)
    if not in_domain(params, surface):
        raise DegenerateInputError("parameters outside the admissible domain", factor="in_domain")
    params = EdgeParams({k: complex(v) for k, v in params.eigen.items()},
                        {k: complex(v) for k, v in params.twist.items()})
    if base is None:
        base, base_pairs = DEFAULT_BASE, _DEFAULT_PAIRS
    else:
        base = tuple(as_point(p) for p in base)
        base_pairs = [(p.num, p.den) for p in base]
        if not _distinct(*base_pairs):
            raise ValueError("base triple must be three distinct points")

    pairs = _vertex_points(pres, params, base_pairs)
    points = {vid: list(base) if vid == pres.root else [ProjectivePoint(*x) for x in triple]
              for vid, triple in pairs.items()}
    eigen = params.eigen
    mats = {}
    for vid, inc in pres.incidences:
        es = tuple([_end_eigen(eigen[eid], end) for eid, end in inc])
        try:
            mats[vid] = pants_rep(make_pants_data(es, points[vid]))
        except ValueError as ex:
            raise _at("vertex %r" % (vid,), ex)
    images = {name: mats[vid][slot] for name, vid, slot in pres.image_slots}
    for eid, name, (v, sv), (w, sw), nbrs in pres.letters:
        # b_i carries the head-side triple to its translate across the edge
        try:
            target = _across(_picture_es(eigen, eid, nbrs), params.twist[eid],
                             _from_slot(pairs[v], sv), True)
            images[name] = MoebiusMap(
                _sl_normalize(*_three_point_map(_from_slot(pairs[w], sw), target)))
        except ValueError as ex:
            raise _at("edge %r (%s)" % (eid, name), ex)
    return SurfaceRepresentation(surface, pres, params, images, points, base)


def _residual(m):
    """Distance of a row-major (a, b, c, d) to +-identity."""
    a, b, c, d = m
    return float(min(_max_abs(a - 1, b, c, d - 1), _max_abs(a + 1, b, c, d + 1)))


def verify_relations(rep):
    """Residual (distance of each relation product to +-identity) per relation."""
    pres = rep.presentation
    table = rep._letters
    out = {}
    out["relator"] = _residual(_word(table, pres.one_relator()))
    out["walk"] = _residual(_word(table, pres.relation))
    for i, (lhs, rhs) in enumerate(pres.hnn, start=1):
        out["hnn%d" % i] = _residual(_chain((_adj(_word(table, rhs)),), _word(table, lhs)))
    return out


def _vertex_spectra(rep, tol):
    """Fixed points and eigenvalues of the three vertex words at every vertex.

    Returns (slot_fixed, slot_eigen), keyed by (vid, slot): the fixed-point
    pair (x, y) and the eigenvalue e of x that fixed_points_with_eigs
    returns.  Raises DegenerateInputError for a reducible vertex, and
    re-raises a numeric error of a vertex word naming its vertex and slot.
    """
    pres = rep.presentation
    table = rep._letters
    slot_fixed = {}
    slot_eigen = {}
    for vid, _ in pres.incidences:
        ms = [_word(table, pres.vertex_words[(vid, s)]) for s in range(3)]
        p, q = ms[0], ms[1]
        comm = _chain((q, _adj(p), _adj(q)), p)
        if abs(comm[0] + comm[3] - 2) <= max(tol, _COMM_TOL * (_max_abs(*p) * _max_abs(*q)) ** 2):
            raise DegenerateInputError(
                "reducible restriction at vertex %r" % (vid,), factor="tr[m,m']-2"
            )
        for s, m in enumerate(ms):
            try:
                x, e, y = _fixed_points_with_eigs(*m, tol)
            except DegenerateInputError as ex:
                raise _at("vertex %r slot %d" % (vid, s), ex)
            slot_fixed[(vid, s)] = (x, y)
            slot_eigen[(vid, s)] = e
    return slot_fixed, slot_eigen


def recover_coordinates(rep, eigen_choice=None, tol=1e-9):
    """Invert build: eigenvalue and twist parameters from the matrices.

    eigen_choice maps an edge id to +-1 and selects which of the two
    eigenvalue branches of the curve image is reported (default: the
    dominant branch returned by fixed_points_with_eigs).  Requires every
    curve image to be non-parabolic and every vertex restriction to be
    irreducible.  One commutator per vertex tests irreducibility: with
    m0 m1 m2 = +-I, tr[m0,m1] = tr[m1,m2] = tr[m2,m0].  Its rounding grows
    as (|m0| |m1|)^2 (largest entry moduli), so |tr - 2| counts as zero up
    to max(tol, _COMM_TOL (|m0| |m1|)^2).

    The vertex spectra (fixed points and eigenvalues of the vertex words)
    do not depend on eigen_choice: the first successful call for a tol
    keeps them on rep, and later calls with that tol only choose branches
    and read twists.  A call that raises keeps nothing.
    """
    pres = rep.presentation
    eigen_choice = eigen_choice or {}
    spectra = rep._spectra.get(tol)
    if spectra is None:
        spectra = rep._spectra[tol] = _vertex_spectra(rep, tol)
    slot_fixed, slot_eigen = spectra

    eigen = {}
    branch_points = {}
    for eid, ends in pres.ends:
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

    # the twists are the unknowns; the local pictures read only eigenvalues
    twist = {}
    for eid, nbrs, keys, letter in pres.twist_slots:
        x1, x2, x3, x4, x5 = (branch_points[k] for k in keys)
        if letter is not None:
            # the head-side points live on the far lift: push them across
            bmap = rep._letters[(letter, 1)]
            x4, x5 = _apply(bmap, x4), _apply(bmap, x5)
        xs = {1: x1, 2: x2, 3: x3, 4: x4, 5: x5}
        twist[eid] = _twist(_best_variant(xs), _picture_es(eigen, eid, nbrs), xs)
    return EdgeParams(eigen, twist)


def stiefel_whitney(rep):
    """Sign of the evaluated relator for a closed surface: +1 iff liftable."""
    if rep.surface.boundary != 0:
        raise ValueError("second Stiefel-Whitney class needs a closed surface")
    a, b, c, d = _word(rep._letters, rep.presentation.one_relator())
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
        rep.surface, rep.presentation, rep.params, images, rep.points, rep.base,
        beta_signs=beta_signs,
    )
