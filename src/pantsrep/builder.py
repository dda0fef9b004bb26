"""From eigenvalue-twist parameters to explicit matrix generators.

The construction walks the maximal tree of the fat graph, propagating a
base triple of fixed points from the root vertex, applies the pants
representation at each trivalent vertex, and closes up each complement
edge with a Moebius map carrying the tree-side triple to its translate
across the edge.  The resulting generator images satisfy the surface-group
relations exactly up to rounding.  A representation is its surface and
its images: past build's coercion of its input, every point is a (num, den)
pair, up to and including pants_rep's input, and the only objects made are
the MoebiusMaps of pants_rep and of the b<i> images.
"""

import cmath

from .projective import (
    DegenerateInputError,
    INF,
    MoebiusMap,
    _IDENTITY,
    SingularMapError,
    _at,
    _chain,
    _distinct,
    _fixed_points_with_eigs,
    _max_abs,
    _point,
    _sl_normalize,
    _three_point_map,
    as_point,
)
from .pants import _pants_data, pants_rep
from .coordinates import (
    EdgeParams,
    _across,
    _best_variant,
    _picture_es,
    _twist,
    in_domain,
)

DEFAULT_BASE = (as_point(0), as_point(1), INF)
#: tr[m0,m1] rounds by up to 16 double rounding units times (|m0| |m1|)^2
_COMM_TOL = 16 * 2.0 ** -53


class SurfaceRepresentation:
    """Matrix images of the surface-group generators of a marked surface.

    images maps generator names to MoebiusMaps with determinant 1;
    presentation is the surface's one compiled Presentation
    (surface._presentation), so the two never disagree.
    The letter table (name, +-1) -> (a, b, c, d) that evaluate,
    verify_relations, recover_coordinates and stiefel_whitney read is built
    once here, and recover_coordinates keeps the vertex spectra it reads
    per tol, so a representation is treated as immutable: for other images,
    make a new one.
    """

    def __init__(self, surface, images):
        self.surface = surface
        self.presentation = surface._presentation
        self.images = dict(images)
        self._letters = table = {}
        for name, m in self.images.items():
            table[(name, 1)] = m.a, m.b, m.c, m.d
            table[(name, -1)] = m.d, -m.b, -m.c, m.a  # the adjugate
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


def _vertex_points(pres, eigen, twist, base):
    """Fixed-point triples at every trivalent vertex, by one walk of the tree.

    The walk (pres.walk) starts from the lowest trivalent vertex, which
    carries base, and crosses each interior tree edge once, forward or
    backward.
    """
    points = {pres.root: tuple(base)}
    for eid, nbrs, near, sn, far, sf, forward in pres.walk:
        try:
            xs = _across(_picture_es(eigen, eid, nbrs), twist[eid],
                         _from_slot(points[near], sn), forward)
        except ValueError as ex:
            raise _at("edge %r" % (eid,), ex)
        points[far] = xs[3 - sf:] + xs[:3 - sf]  # slot order, from xs read at slot sf
    return points


def build(surface, params, base=None):
    """Construct the SL(2,C) representation determined by the parameters.

    Every generator image has determinant 1.  The generators are read along
    the surface's stored tree, else maximal_tree (surface._presentation).
    base is the fixed-point triple placed at the root vertex, slot order
    counterclockwise from slot 0; differing bases give conjugate results.
    A stored tree that is not a maximal tree raises ValueError before the
    parameters are looked at.
    In-domain parameter values are coerced to complex.  A numeric error's
    message starts "vertex <id>: ", "edge <id>: " or "edge <id> (b<i>): ".
    """
    pres = surface._presentation
    if not in_domain(params, surface):
        raise DegenerateInputError("parameters outside the admissible domain", factor="in_domain")
    eigen = {k: complex(v) for k, v in params.eigen.items()}
    twist = {k: complex(v) for k, v in params.twist.items()}
    base = DEFAULT_BASE if base is None else tuple(as_point(p) for p in base)
    base_pairs = [(p.num, p.den) for p in base]
    if base is not DEFAULT_BASE and not _distinct(*base_pairs):
        raise ValueError("base triple must be three distinct points")

    pairs = _vertex_points(pres, eigen, twist, base_pairs)
    vertices = surface.graph.vertices
    mats = {}
    # walk order: the root, on base's own points, then each step's far vertex
    for vid, triple in pairs.items():
        (i1, n1), (i2, n2), (i3, n3) = vertices[vid].incident  # _end_eigen in place
        es = (eigen[i1] if n1 == "tail" else 1 / eigen[i1],
              eigen[i2] if n2 == "tail" else 1 / eigen[i2],
              eigen[i3] if n3 == "tail" else 1 / eigen[i3])
        try:
            mats[vid] = pants_rep(_pants_data(es, triple))
        except ValueError as ex:
            raise _at("vertex %r" % (vid,), ex)
    images = {name: mats[vid][slot] for name, vid, slot in pres.image_slots}
    for eid, name, (v, sv), (w, sw), nbrs in pres.letters:
        # b_i carries the head-side triple to its translate across the edge
        try:
            target = _across(_picture_es(eigen, eid, nbrs), twist[eid],
                             _from_slot(pairs[v], sv), True)
            images[name] = MoebiusMap(
                _sl_normalize(*_three_point_map(_from_slot(pairs[w], sw), target)))
        except ValueError as ex:
            raise _at("edge %r (%s)" % (eid, name), ex)
    return SurfaceRepresentation(surface, images)


def _residual(m):
    """Distance of a row-major (a, b, c, d) to +-identity.

    The two distances are _max_abs's, written out in place; only a modulus
    past the float range goes through it.
    """
    a, b, c, d = m
    try:
        am, mb, mc, dm, ap, dp = abs(a - 1), abs(b), abs(c), abs(d - 1), abs(a + 1), abs(d + 1)
    except OverflowError:
        return min(_max_abs(a - 1, b, c, d - 1), _max_abs(a + 1, b, c, d + 1))
    to_minus, to_plus = am + mb + mc + dm, ap + mb + mc + dp  # NaN exactly when a modulus is
    # max() and min() as comparisons: a NaN distance stays, as in _max_abs,
    # and min() keeps its first argument unless the second is smaller
    mbc = mb if mb > mc else mc
    if to_minus == to_minus:
        to_minus = am if am > mbc else mbc
        to_minus = to_minus if to_minus > dm else dm
    if to_plus == to_plus:
        to_plus = ap if ap > mbc else mbc
        to_plus = to_plus if to_plus > dp else dp
    return to_plus if to_plus < to_minus else to_minus


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
            a, b, c, d = _word(table, rhs)
            out[key] = _residual(_chain(((d, -b, -c, a),), _word(table, lhs)))  # lhs rhs^-1
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
        # the adjugates and one-letter words in place: _adj and _word per slot
        # cost more than the lookup
        for key in keys:
            if key == facing:
                a, b, c, d = mats[near]
                mats[key] = d, -b, -c, a
                continue
            word = words[key]
            if len(word) == 1:
                mats[key] = table[word[0]]
                continue
            try:
                mats[key] = _word(table, word)
            except SingularMapError as ex:
                raise _at("vertex %r slot %d" % key, ex)
        p, q = mats[keys[0]], mats[keys[1]]
        try:
            comm = _chain((q, (p[3], -p[1], -p[2], p[0]), (q[3], -q[1], -q[2], q[0])), p)
        except SingularMapError as ex:
            raise _at("vertex %r" % (keys[0][0],), ex)
        gap = abs(comm[0] + comm[3] - 2)
        scale = _max_abs(*p) * _max_abs(*q)
        bound = _COMM_TOL * (scale * scale)  # inf past the float range, where ** would raise
        if gap <= (bound if bound > tol else tol):  # max(tol, bound)
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
    value raises ValueError naming it, as does a NaN, infinite or negative
    tol.  Requires every curve image to be non-parabolic and every vertex
    restriction to be irreducible.  One commutator per vertex tests
    irreducibility: with m0 m1 m2 = +-I, tr[m0,m1] = tr[m1,m2] = tr[m2,m0].
    Its rounding grows as (|m0| |m1|)^2 (largest entry moduli), so |tr - 2|
    counts as zero up to max(tol, _COMM_TOL (|m0| |m1|)^2).

    The vertex spectra (fixed points and eigenvalues of the vertex words)
    do not depend on eigen_choice: the first successful call for a tol
    computes them, one product and one solve per pair of mutually inverse
    words at the two ends of an interior tree edge (_vertex_spectra), and
    keeps them on rep; later calls with that tol only choose branches and
    read twists.  A call that raises keeps nothing.
    """
    if not 0 <= tol < float("inf"):
        raise ValueError("tol = %r: expected a finite non-negative number" % (tol,))
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
        # the parameter and the value wanted at each end are _end_eigen's,
        # read in place
        eigen[eid] = value = e if end == "tail" else 1 / e
        branch_points[key] = x
        for end2, key2 in ends[1:]:
            e2 = slot_eigen[key2]
            x2, y2 = slot_fixed[key2]
            want = value if end2 == "tail" else 1 / value
            if abs(e2 - want) > abs(1 / e2 - want):
                x2 = y2
            branch_points[key2] = x2

    # the twists are the unknowns; the local pictures read only eigenvalues
    twist = {}
    for eid, nbrs, (k1, k2, k3, k4, k5), letter in pres.twist_slots:
        x4, x5 = branch_points[k4], branch_points[k5]
        if letter is not None:
            # the head-side points live on the far lift: push them across
            # (_apply in place; a (0 : 0) image goes to _point, which raises)
            a, b, c, d = rep._letters[(letter, 1)]
            (n4, d4), (n5, d5) = x4, x5
            x4 = a * n4 + b * d4, c * n4 + d * d4
            if x4[0] == 0 and x4[1] == 0:
                _point(*x4)
            x5 = a * n5 + b * d5, c * n5 + d * d5
            if x5[0] == 0 and x5[1] == 0:
                _point(*x5)
        # indexed 1..5, as _best_variant and _twist read it
        xs = (None, branch_points[k1], branch_points[k2], branch_points[k3], x4, x5)
        twist[eid] = _twist(_best_variant(xs), _picture_es(eigen, eid, nbrs), xs)
    return EdgeParams(eigen, twist)


def stiefel_whitney(rep):
    """Sign of the evaluated relator for a closed surface: +1 iff liftable.

    A relator product with an infinite or NaN entry has no sign: ValueError.
    """
    if rep.surface.boundary != 0:
        raise ValueError("second Stiefel-Whitney class needs a closed surface")
    a, b, c, d = _word(rep._letters, rep.presentation.one_relator())
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)):
        raise ValueError("relator: product %r is not finite" % (((a, b), (c, d)),))
    return 1 if _max_abs(a - 1, b, c, d - 1) < _max_abs(a + 1, b, c, d + 1) else -1


def act_beta_signs(rep, signs):
    """Multiply each stable-letter image b<i> by signs[i] (H^1(G;Z/2) action);
    a key outside 1..genus, or a value other than +-1, raises ValueError naming it."""
    images = dict(rep.images)
    for i, s in signs.items():
        if i not in range(1, rep.surface.genus + 1) or s not in (1, -1):
            raise ValueError("signs[%r] = %r: expected a letter index mapped to 1 or -1" % (i, s))
        if s == -1:
            images["b%d" % i] = -images["b%d" % i]
    return SurfaceRepresentation(rep.surface, images)
