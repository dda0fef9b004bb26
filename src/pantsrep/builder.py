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
    _IDENTITY,
    ProjectivePoint,
    SingularMapError,
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
from .coordinates import (
    EdgeParams,
    _across,
    _best_variant,
    _end_eigen,
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
    presentation is the surface's one compiled Presentation
    (surface._presentation), so the two never disagree.
    The letter table (name, +-1) -> (a, b, c, d) that evaluate,
    verify_relations, recover_coordinates and stiefel_whitney read is built
    once here, and recover_coordinates keeps the vertex spectra it reads
    per tol, so a representation is treated as immutable: for other images,
    make a new one.
    """

    def __init__(self, surface, params, images, points, beta_signs=None):
        self.surface = surface
        self.params = params
        self.presentation = surface._presentation
        self.images = dict(images)
        self.points = points
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
    """The product of a presentation word, as (a, b, c, d), from its first letter on."""
    if not word:
        return _IDENTITY
    factors = map(table.__getitem__, word)
    return _chain(factors, next(factors))


def _from_slot(triple, s):
    """A slot-ordered triple read counterclockwise from slot s."""
    return triple[s], triple[(s + 1) % 3], triple[(s + 2) % 3]


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


def build(surface, params, base=None):
    """Construct the SL(2,C) representation determined by the parameters.

    Every generator image has determinant 1.  The generators are read along
    the surface's stored tree, else maximal_tree (surface._presentation).
    base is the fixed-point triple placed at the root vertex, slot order
    counterclockwise from slot 0; differing bases give conjugate results.
    A stored tree that is not a maximal tree raises ValueError before the
    parameters are looked at.
    In-domain parameter values are coerced to complex (rep.params keeps them).  A
    numeric error's message starts "vertex <id>: ", "edge <id>: " or "edge <id> (b<i>): ".
    """
    pres = surface._presentation
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
    eigen, vertices = params.eigen, surface.graph.vertices
    mats = {}
    # points holds the vertices in walk order: the root, then each step's far vertex
    for vid, pts in points.items():
        es = tuple([_end_eigen(eigen[eid], end) for eid, end in vertices[vid].incident])
        try:
            mats[vid] = pants_rep(make_pants_data(es, pts))
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
    return SurfaceRepresentation(surface, params, images, points)


def _residual(m):
    """Distance of a row-major (a, b, c, d) to +-identity."""
    a, b, c, d = m
    return float(min(_max_abs(a - 1, b, c, d - 1), _max_abs(a + 1, b, c, d + 1)))


def verify_relations(rep):
    """Residual (distance of each relation product to +-identity) per relation.

    A SingularMapError of a product is re-raised with its message prefixed
    by the relation's key: "relator: ", "walk: " or "hnn<i>: ".
    """
    pres = rep.presentation
    table = rep._letters
    relator = pres.one_relator()
    out = {}
    key = "relator"
    try:
        out[key] = _residual(_word(table, relator))
        key = "walk"
        out[key] = out["relator"] if pres.relation == relator else _residual(_word(table, pres.relation))
        for i, (lhs, rhs) in enumerate(pres.hnn, start=1):
            key = "hnn%d" % i
            out[key] = _residual(_chain((_adj(_word(table, rhs)),), _word(table, lhs)))
    except SingularMapError as ex:
        raise _at(key, ex)
    return out


def _vertex_spectra(rep, tol):
    """Fixed points and eigenvalues of the three vertex words at every vertex.

    Returns (slot_fixed, slot_eigen), keyed by (vid, slot): the fixed-point
    pair (x, y) and the eigenvalue e of x that fixed_points_with_eigs
    returns.  Vertices come in walk order (pres.visits), and every word is
    multiplied and solved except each step's far slot, which faces the root
    and whose word is the inverse of the near slot's: its product is the
    near product's adjugate, whose spectrum is (y, e, x) for the near
    (x, e, y).  Raises DegenerateInputError for a reducible vertex, and
    re-raises a numeric error of a vertex word naming its vertex and slot
    ("vertex <id> slot <s>: "), and a SingularMapError of the commutator
    naming its vertex ("vertex <id>: ").
    """
    pres = rep.presentation
    table, words = rep._letters, pres.vertex_words
    mats = {}
    slot_fixed = {}
    slot_eigen = {}
    for keys, facing, near in pres.visits:
        for key in keys:
            try:
                mats[key] = _adj(mats[near]) if key == facing else _word(table, words[key])
            except SingularMapError as ex:
                raise _at("vertex %r slot %d" % key, ex)
        p, q = mats[keys[0]], mats[keys[1]]
        try:
            comm = _chain((q, _adj(p), _adj(q)), p)
        except SingularMapError as ex:
            raise _at("vertex %r" % (keys[0][0],), ex)
        if abs(comm[0] + comm[3] - 2) <= max(tol, _COMM_TOL * (_max_abs(*p) * _max_abs(*q)) ** 2):
            raise DegenerateInputError(
                "reducible restriction at vertex %r" % (keys[0][0],), factor="tr[m,m']-2"
            )
        for key in keys:
            if key == facing:
                (y, x), e = slot_fixed[near], slot_eigen[near]
            else:
                try:
                    x, e, y = _fixed_points_with_eigs(*mats[key], tol)
                except DegenerateInputError as ex:
                    raise _at("vertex %r slot %d" % key, ex)
            slot_fixed[key] = (x, y)
            slot_eigen[key] = e
    return slot_fixed, slot_eigen


def recover_coordinates(rep, eigen_choice=None, tol=1e-9):
    """Invert build: eigenvalue and twist parameters from the matrices.

    eigen_choice maps an edge id to +-1 and selects which of the two
    eigenvalue branches of the curve image is reported (default: the
    dominant branch returned by fixed_points_with_eigs); any other key or
    value raises ValueError naming it.  Requires every
    curve image to be non-parabolic and every vertex restriction to be
    irreducible.  One commutator per vertex tests irreducibility: with
    m0 m1 m2 = +-I, tr[m0,m1] = tr[m1,m2] = tr[m2,m0].  Its rounding grows
    as (|m0| |m1|)^2 (largest entry moduli), so |tr - 2| counts as zero up
    to max(tol, _COMM_TOL (|m0| |m1|)^2).

    The vertex spectra (fixed points and eigenvalues of the vertex words)
    do not depend on eigen_choice: the first successful call for a tol
    computes them, one product and one solve per pair of mutually inverse
    words at the two ends of an interior tree edge (_vertex_spectra), and
    keeps them on rep; later calls with that tol only choose branches and
    read twists.  A call that raises keeps nothing.
    """
    pres = rep.presentation
    eigen_choice = eigen_choice or {}
    edges = rep.surface.graph.edges
    for k, v in eigen_choice.items():
        if k not in edges or v not in (1, -1):
            raise ValueError("eigen_choice[%r] = %r: expected an edge id mapped to 1 or -1" % (k, v))
    spectra = rep._spectra.get(tol)
    if spectra is None:
        spectra = rep._spectra[tol] = _vertex_spectra(rep, tol)
    slot_fixed, slot_eigen = spectra

    eigen = {}
    branch_points = {}
    for eid, ends in pres.ends:
        end, key = ends[0]
        choice = eigen_choice.get(eid, 1)
        e = slot_eigen[key]
        x, y = slot_fixed[key]
        if choice == -1:
            e, x, y = 1 / e, y, x
        eigen[eid] = _end_eigen(e, end)
        branch_points[key] = x
        for end2, key2 in ends[1:]:
            e2 = slot_eigen[key2]
            x2, y2 = slot_fixed[key2]
            want = _end_eigen(eigen[eid], end2)
            if abs(e2 - want) > abs(1 / e2 - want):
                x2 = y2
            branch_points[key2] = x2

    # the twists are the unknowns; the local pictures read only eigenvalues
    twist = {}
    for eid, nbrs, (k1, k2, k3, k4, k5), letter in pres.twist_slots:
        x4, x5 = branch_points[k4], branch_points[k5]
        if letter is not None:
            # the head-side points live on the far lift: push them across
            bmap = rep._letters[(letter, 1)]
            x4, x5 = _apply(bmap, x4), _apply(bmap, x5)
        # indexed 1..5, as _best_variant and _twist read it
        xs = (None, branch_points[k1], branch_points[k2], branch_points[k3], x4, x5)
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
    return SurfaceRepresentation(rep.surface, rep.params, images, rep.points, beta_signs=beta_signs)
