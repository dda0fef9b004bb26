"""Bridge to exponential shear-bend coordinates.

A pair of pants carries an ideal triangulation by three geodesics
spiralling into its cuffs; their complex edge parameters are simple
monomials in the boundary eigenvalues.  For the one-holed torus the
eigenvalue-twist coordinates convert to the edge parameters of an ideal
triangulation through a layered pair of ideal tetrahedra, and the holonomy
can be rebuilt directly from the triangulation.
"""

from .projective import MoebiusMap, _vanishing, sqrt_principal


def pants_shear_params(e1, e2, e3):
    """Edge parameters (p1, p2, p3) of the spiralling triangulation.

    p_i is carried by the edge spiralling around the cuffs c_i and
    c_{i+1}, and equals e_{i+2}/(e_i e_{i+1}) with indices mod 3.
    """
    return e3 / (e1 * e2), e1 / (e2 * e3), e2 / (e3 * e1)


def eigenvalues_from_shear(p1, p2, p3):
    """Squared eigenvalues from the edge parameters.

    The two edges spiralling around c_i multiply to 1/e_i^2, so only the
    squares are determined (the sign ambiguity is the (Z/2)^2 action on a
    pants).  Returns (e1^2, e2^2, e3^2).
    """
    return 1 / (p3 * p1), 1 / (p1 * p2), 1 / (p2 * p3)


def tetrahedron_edge_params(z):
    """The three edge parameters (z, 1/(1-z), 1-1/z) of an ideal
    tetrahedron; opposite edges share a parameter."""
    z = _vanishing(z, "z")
    _vanishing(1 - z, "1 - z")
    return z, 1 / (1 - z), 1 - 1 / z


def evaluate_gluing(row, zs):
    """Residual of one gluing equation: sign * prod z^r' (1-z)^r'' - 1.

    row is a plain dict {"sign": +-1, "rprime": [...], "rdprime": [...]}.
    """
    out = row.get("sign", 1)
    rp = row.get("rprime", [])
    rpp = row.get("rdprime", [])
    for z, a, b in zip(zs, rp, rpp):
        if a:
            out *= z ** a
        if b:
            out *= (1 - z) ** b
    return out - 1


def one_holed_to_shear(e1, e2, t1):
    """Edge parameters of the one-holed torus triangulation.

    Returns (a, b, c, z1, z2): a, b, c sit on the three edges of the final
    triangulation, z1, z2 parametrize the layered ideal tetrahedra.
    """
    den = _vanishing(t1 * e1 * e1 + 1, "t1 e1^2 + 1")
    _vanishing(e1 * e1 - 1, "e1^2 - 1")
    _vanishing(t1 + 1, "t1 + 1")
    z1 = (1 - e1 * e1) / den
    z2 = -t1 * (1 - e1 * e1) / den
    a = -e1 * e1 * (1 + t1) ** 2 / (t1 * (1 - e1 * e1) ** 2)
    b = den ** 2 / (e1 * e1 * e2 * (t1 + 1) ** 2)
    c = -t1 * (1 - e1 * e1) ** 2 / den ** 2
    return a, b, c, z1, z2


def one_holed_gluing_rows(e1):
    """The two gluing relations of the layered triangulation, as rows over
    (z1, z2, w) where w = -e1^2 enters as a fixed edge parameter."""
    # (1/(1-z1)) * z2 * (1-1/z2) * (-e1^2) = 1 collapses to
    # e1^2 * (1-z1)^-1 * (1-z2) = 1; the second relation is its reciprocal
    return [
        {"sign": e1 * e1, "rprime": [0, 0], "rdprime": [-1, 1],
         "note": "around the edge where the two faces glued to A meet"},
        {"sign": 1 / (e1 * e1), "rprime": [0, 0], "rdprime": [1, -1],
         "note": "around the edge where the two faces glued to B meet"},
    ]


def shear_rep_one_holed(a, b, c):
    """Holonomy matrices (m_alpha_inv, m_beta) from the edge parameters."""
    a, b, c = _vanishing(a, "a"), _vanishing(b, "b"), _vanishing(c, "c")
    sac = sqrt_principal(a * c)
    sab = sqrt_principal(a * b)
    m_alpha_inv = MoebiusMap(((c - 1) / sac, -c / sac, a * c / sac, -a * c / sac))
    m_beta = MoebiusMap((1 / sab, -1 / sab, a / sab, a * (b - 1) / sab))
    return m_alpha_inv, m_beta
