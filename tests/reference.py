"""Root-datum, affine Weyl group and loop-group formulas that only the tests use:
the apartment's faces evaluated at their vertices, which the library's closed
forms on W's tables are checked against; the Gauss-plus-peel string ->
Lusztig parameters, which factor_z's Chamber Ansatz is checked against; the
valuations read off every minor of g^{-1}, which the library's Jacobi reading
is checked against; long division that searches the remainder for its lowest
term at every step, which the series' one upward walk is checked against; the
adjugate inverse of a matrix that is not a root-subgroup word, which the
library never inverts; the peel that rebuilds the whole residual each
step, which factor_y's one-row peel is checked against; and the root
operators as face surgery on the prefixes (a reflection mover on the window, a
translation mover on the tail) followed by tuple recovery, which the library's
toggle rule is checked against."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from mvcrystals.affine import (
    AffineRoot,
    AffWeylElt,
    affine_step,
    face_vertices,
    fundamentalize,
    phi_plus_aff,
)
from mvcrystals.gallery import Gallery, GalleryError, _colour, _where, _window, fold_window
from mvcrystals.looplab.groups import _pivot
from mvcrystals.looplab.series import (
    GenericityError,
    LaurentMatrix,
    LaurentSeries,
    PrecisionError,
    _min_cap,
    default_rel_prec,
    sum_products,
    vector_val,
)
from mvcrystals.rootdata import Coweight, RootDataError


def rho_coweight(datum):
    """rho^vee, the sum of the fundamental coweights."""
    return sum((datum.fundamental_coweight(i) for i in range(1, datum.rank + 1)),
               datum.zero_coweight())


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


def ref_movers(datum, i, level, sign):
    """The face surgery's movers for colour i: the reflection (level alpha_i^vee,
    s_i) in H_{alpha_i, level} and the tail's translation by sign * alpha_i^vee."""
    co = datum.simple_coroot(i).coords
    return (AffWeylElt(tuple([level * a for a in co]), datum.simple_reflection(i)),
            AffWeylElt(tuple([sign * a for a in co]), datum.identity_elt()))


def ref_recover_tuple(g, i, j, k, refl, tail):
    """Tuple recovery (type preservation tripwires) from the new prefixes
    P'_l = P_l for l < j, refl P_l for j <= l < k and tail P_l for l >= k:
    delta_l = 1 iff P'_l = P'_{l-1} and delta_l = s_{i_l} iff
    P'_l = P'_{l-1} s_{i_l}, so no inverse is taken.  Where the mover is the
    same at l - 1 and l both tests reduce to the same tests on P, so only
    delta_0 (when j = 0), delta_j and delta_k are decided."""
    P, flips, delta0 = g.prefixes, list(g.flips), g.delta0
    if j == 0:
        d0_aff = refl * P[0]
        if any(d0_aff.mu):
            raise GalleryError(f"recovered delta_0 has a translation part ({_where(g, i)})")
        delta0 = d0_aff.finite
    for l, before, after in ((j, None, refl), (k, refl, tail)):
        if not 1 <= l <= g.gtype.p:
            continue
        prev, cur = P[l - 1] if before is None else before * P[l - 1], after * P[l]
        if cur == prev:
            flips[l - 1] = False
        elif cur == affine_step(g.gtype.datum, prev, g.gtype.word[l - 1]):
            flips[l - 1] = True
        else:
            raise GalleryError(f"recovered delta_{l} is not in W_{{i_{l}}} ({_where(g, i)})")
    return Gallery(g.gtype, delta0, tuple(flips))


def ref_root_e(g, i):
    """e_{alpha_i} as face surgery: reflect the window in H_{alpha_i, m+1},
    translate the tail by alpha_i^vee and recover the tuple."""
    window = fold_window(g, i)
    if window is None:
        return None
    m, j, k = window
    return ref_recover_tuple(g, i, j, k, *ref_movers(g.gtype.datum, i, m + 1, 1))


def ref_root_f(g, i):
    """f_{alpha_i} as face surgery: e's window on the reversed levels, reflected
    in H_{alpha_i, m}, with the tail translated by -alpha_i^vee."""
    levels, m = _colour(g, i)
    window = _window(g, i, levels[::-1], m)
    if window is None:
        return None
    m, j, k = window
    end = g.gtype.p + 1
    return ref_recover_tuple(g, i, end - k, end - j, *ref_movers(g.gtype.datum, i, m, -1))


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


def ref_adjugate_inverse(g):
    """g^{-1} as the adjugate over det g, for any invertible g.  1/det is
    windowed by the precision in force unless det g is an exact monomial, so
    the result follows the precision of each call; nothing is kept, and each
    call builds it anew."""
    dinv = g.det().inverse()
    idx = tuple(range(g.n))
    cof = [[None] * g.n for _ in idx]
    for i in idx:
        for j in idx:
            c = g.minor_det(idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:])
            cof[j][i] = sum_products(((c, dinv, -1 if (i + j) % 2 else 1),))
    return LaurentMatrix._of(tuple(map(tuple, cof)))


def ref_inverse_vals(g, families):
    """For each family of (S, S^c) pairs of column sets, min over S of
    val(Lambda^{|S|} g^{-1} e_S): one vector_val over the minors of g^{-1} on
    the columns S, all row sets, with g^{-1} a root-subgroup word's g.inverse()
    and any other matrix's adjugate; the complements S^c are not read."""
    ginv = g.inverse() if g._word is not None else ref_adjugate_inverse(g)
    return tuple(vector_val([ginv.minor_det(rows, cols) for cols, _ in family for rows in
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


def ref_long_division(a, b):
    """a / b with the window of ``LaurentSeries.__truediv__``, by long division
    that looks for the remainder's lowest term again, min(rem), at every step."""
    if not b.coeffs and b.cap is None:
        raise ZeroDivisionError("division by the exact zero series")
    v = b.val()
    lead = b.coeffs[v]
    low = a.val_lower_bound()
    if low is None:
        return LaurentSeries.zero()
    cap = None if a.cap is None else a.cap - v
    if b.cap is not None or len(b.coeffs) > 1:
        rel = default_rel_prec() if b.cap is None else b.cap - v
        cap = _min_cap(cap, low - v + rel)
    exact = a.cap is None and b.cap is None
    stop = cap
    if exact:
        whole = max(a.coeffs) - max(b.coeffs) + 1
        stop = whole if cap is None else max(cap, whole)
    rem, out = dict(a.coeffs), {}
    while rem and min(rem) - v < stop:
        e = min(rem)
        c = rem.pop(e)
        q = c // lead if type(c) is type(lead) is int and not c % lead else Fraction(c) / lead
        q = out[e - v] = q.numerator if type(q) is Fraction and q.denominator == 1 else q
        for f, d in b.coeffs.items():
            if f != v:
                x = e + f - v
                rem[x] = rem.get(x, 0) - q * d
                if not rem[x]:
                    del rem[x]
    return LaurentSeries._of(out, None if exact and not rem else cap)
