"""Root-datum, affine Weyl group and loop-group formulas that only the tests use."""

from functools import lru_cache
from itertools import combinations

from mvcrystals.affine import AffineRoot, face_level, face_vertices, fundamentalize, phi_plus_aff
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


def act_affine_root(g, datum, beta):
    """The affine Weyl group element g applied to the affine root beta."""
    # w(alpha, n) = (w alpha, n); tau_mu(alpha, n) = (alpha, n + <alpha, mu>)
    alpha = act_root(datum, g.finite, beta.root)
    return AffineRoot(alpha, beta.level + datum.pairing(alpha, g.translation))


def face_walls(g):
    """A gallery's wall levels and |Phi_+^aff| counts evaluated at the vertices
    of its faces: ({c: (the level of Delta'_j in a wall of alpha_c, else None,
    for j = 0..p+1)}, (|Phi_+^aff(Delta'_j, Delta_j)| for j = 0..p)).  The end
    vertex Delta'_{p+1} is the face of P_p's alcove whose type is the J that
    fundamentalize gives lambda."""
    datum, p = g.gtype.datum, g.gtype.p
    end_type = fundamentalize(datum, g.gtype.lam)[1]
    end = tuple(v for k, v in enumerate(face_vertices(datum, g.prefixes[p])) if k not in end_type)
    faces = [g.facet(j) for j in range(p + 1)] + [end]
    levels = {c: tuple(face_level(datum, f, datum.simple_root(c)) for f in faces)
              for c in range(1, datum.rank + 1)}
    return levels, tuple(len(phi_plus_aff(datum, g.facet(j), g.alcove(j))) for j in range(p + 1))


def orbit_from_minors_of_g(g):
    """The G(O)-orbit coweight of [g] read off g itself: <omega_k, lambda> is
    the least valuation over all k-minors of g, on a copy with no kept minors."""
    g, n = LaurentMatrix(g.rows), g.n
    return Coweight(tuple(
        vector_val([g.minor_det(rows, cols) for cols in combinations(range(n), k)
                    for rows in combinations(range(n), k)]) for k in range(1, n)))
