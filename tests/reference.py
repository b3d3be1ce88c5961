"""Root-datum, affine Weyl group and loop-group formulas that only the tests use,
and the apartment's faces evaluated at their vertices: the reference that the
library's closed forms on W's tables are checked against."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from mvcrystals.affine import AffineRoot, AffWeylElt, face_vertices, fundamentalize, phi_plus_aff
from mvcrystals.looplab.series import LaurentMatrix, vector_val
from mvcrystals.rootdata import Coweight


def rho_coweight(datum):
    """rho^vee, the sum of the fundamental coweights."""
    return sum((datum.fundamental_coweight(i) for i in range(1, datum.rank + 1)),
               datum.zero_coweight()).normalized()


@lru_cache(maxsize=None)
def _root_of(datum):
    """Each coroot's root, over all roots of the datum."""
    return {datum.coroot_of(r): r for rt in datum.positive_roots for r in (rt, -rt)}


def act_root(datum, w, root):
    """w(alpha), read off w(alpha^vee), which is the coroot of w(alpha)."""
    return _root_of(datum)[w.act_coweight(datum.coroot_of(root))]


def translation(datum, mu):
    """t_mu = (mu, 1) in W^aff."""
    return AffWeylElt(mu.coords, datum.identity_elt())


def act_affine_root(g, datum, beta):
    """The affine Weyl group element g applied to the affine root beta."""
    # w(alpha, n) = (w alpha, n); tau_mu(alpha, n) = (alpha, n + <alpha, mu>)
    alpha = act_root(datum, g.finite, beta.root)
    return AffineRoot(alpha, beta.level + datum.pairing(alpha, g.translation))


def alcove(g, j):
    """The vertices of a gallery's Delta_j = P_j(A_fund), j = 0..p, in units of
    1/D and indexed like A_fund's."""
    return face_vertices(g.gtype.datum, g.prefixes[j])


def facet(g, j):
    """The vertices of a gallery's Delta'_j for j = 0..p+1: the origin for
    j = 0, Delta_{j-1} less its vertex i_j for 1 <= j <= p, and the end vertex
    Delta'_{p+1}, the face of P_p's alcove whose type is the J that
    fundamentalize gives lambda."""
    datum, p = g.gtype.datum, g.gtype.p
    if j == 0:
        return datum.alcove_vertices[:1]
    if j <= p:
        verts, i = alcove(g, j - 1), g.gtype.word[j - 1]
        return verts[:i] + verts[i + 1:]
    end_type = fundamentalize(datum, g.gtype.lam)[1]
    return tuple(v for k, v in enumerate(alcove(g, p)) if k not in end_type)


def unscaled(datum, verts):
    """Vertices in units of 1/D as exact rationals."""
    return [tuple(Fraction(x, datum.apartment_scale) for x in v) for v in verts]


def ref_face_level(datum, verts, alpha):
    """The integer n with the face of the rational vertices verts inside the
    wall H_{alpha, n}, or None when it lies in no wall of alpha."""
    values = {datum.pairing_coords(alpha.coords, v) for v in verts}
    if len(values) == 1 and isinstance(min(values), int):
        return min(values)
    return None


def ref_phi_plus(g):
    """Phi_+^aff(Delta'_j, Delta_j) for j = 0..p, evaluated at the vertices."""
    datum = g.gtype.datum
    return tuple(phi_plus_aff(datum, facet(g, j), alcove(g, j)) for j in range(g.gtype.p + 1))


def face_walls(g):
    """A gallery's wall levels and |Phi_+^aff| counts evaluated at the vertices
    of its faces: ({c: (the level of Delta'_j in a wall of alpha_c, else None,
    for j = 0..p+1)}, (|Phi_+^aff(Delta'_j, Delta_j)| for j = 0..p))."""
    datum, p = g.gtype.datum, g.gtype.p
    faces = [unscaled(datum, facet(g, j)) for j in range(p + 2)]
    levels = {c: tuple(ref_face_level(datum, f, datum.simple_root(c)) for f in faces)
              for c in range(1, datum.rank + 1)}
    return levels, tuple(map(len, ref_phi_plus(g)))


def orbit_from_minors_of_g(g):
    """The G(O)-orbit coweight of [g] read off g itself: <omega_k, lambda> is
    the least valuation over all k-minors of g, on a copy with no kept minors."""
    g, n = LaurentMatrix(g.rows), g.n
    return Coweight(tuple(
        vector_val([g.minor_det(rows, cols) for cols in combinations(range(n), k)
                    for rows in combinations(range(n), k)]) for k in range(1, n)))
