"""Root-datum, affine Weyl group and loop-group formulas that only the tests use:
the apartment's faces evaluated at their vertices, which the library's closed
forms on W's tables are checked against; the Gauss-plus-peel string ->
Lusztig parameters, which factor_z's Chamber Ansatz is checked against; the
valuations read off every minor of g^{-1}, which the library's Jacobi reading
is checked against; and the peel that rebuilds the whole residual each step,
which factor_y's one-row peel is checked against."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from mvcrystals.affine import AffineRoot, AffWeylElt, face_vertices, fundamentalize, phi_plus_aff
from mvcrystals.looplab.groups import _pivot
from mvcrystals.looplab.series import (
    GenericityError,
    LaurentMatrix,
    LaurentSeries,
    PrecisionError,
    sum_products,
    vector_val,
)
from mvcrystals.rootdata import Coweight, RootDataError


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


def ref_factor_z(group, g, word):
    """q with z_word(q) = g for lower unitriangular g: the lower Gauss factor of
    g wbar(w0), y-factored by the peel."""
    # g in B^+ y(q) wbar^{-1}  <=>  y(q) = lower Gauss factor of g wbar
    return group.factor_y(group.gauss_decompose(g * group.wbar_w0), word)


def ref_inverse_vals(g, families):
    """For each family of column sets S, min over S of val(Lambda^{|S|} g^{-1} e_S):
    one vector_val over the minors of g.inverse() on the columns S, all row sets."""
    ginv = g.inverse()
    return tuple(vector_val([ginv.minor_det(rows, cols) for cols in family for rows in
                             combinations(range(g.n), len(cols))]) for family in families)


def ref_factor_y(group, g, word):
    """y_word(p) = g for generic lower unitriangular g by the peel of
    LoopGroup.factor_y, rewriting every entry of row i+1 into a new matrix on
    each step and comparing the residual with the identity matrix at the end."""
    n = group.n
    word = tuple(word)
    if not group.datum.is_w0_word(word):
        raise RootDataError(f"{word} is not a reduced word of w_0")
    perm = tuple(range(n, 0, -1))  # one-line of w0
    cur, one = g, LaurentSeries.one()
    ps = []
    for step, i in enumerate(word):
        a = perm.index(i) + 1
        b = perm.index(i + 1) + 1
        if a < b:
            raise RootDataError("word does not stay reduced along the peel")
        rows = sorted(x - 1 for x in perm[:b])  # R, 0-based
        m = 0
        while rows[m] == m:
            m += 1
        num = cur.minor_det(rows[m:], range(m, b))
        rows[rows.index(i)] = i - 1  # R': row i+1 -> row i, order kept
        den = cur.minor_det(rows[m:], range(m, b))
        p = num / _pivot(den, lambda: f"peel minor of y_{i} at step {step} of {word}")
        if p.is_known_zero and not p.is_exact:
            raise PrecisionError(f"peeled parameter of y_{i} at step {step} of {word} "
                                 f"is O(t^{p.cap})")
        ps.append(p)
        res = list(cur.rows)
        res[i] = tuple(sum_products(((x, one, 1), (p, y, -1)))
                       for x, y in zip(res[i], res[i - 1]))
        cur = LaurentMatrix._of(tuple(res))
        perm = tuple(i + 1 if x == i else i if x == i + 1 else x for x in perm)
    if not cur.agrees_with(LaurentMatrix.identity(n)):
        raise GenericityError(f"factorization residual of SL_{n} on {word} is not the identity")
    return ps
