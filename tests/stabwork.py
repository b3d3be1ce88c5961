"""Constructive stabilizer rewriting for the cell-inclusion coset identity.

For type A the stabilizer in U^+(K) of a face F is cut out entrywise: an
upper unitriangular matrix lies in Stab_+(F) iff val of the (j,k) entry is at
least ceil(f_F(eps_j - eps_k)).  That makes the rewriting steps of the
inclusion proof (absorb a stabilizer element into the tail of a cell product,
push a torus element, push a negative root element) explicitly computable:
every step is an exact matrix identity plus a membership check, and the
final object is the coset identity

    A K C E F [t^nu]  =  A x_{-alpha,-m-1}(h) B [t^nu]

checked by exact arithmetic at random parameters.

The rewriting needs three things the library does not: the square root of a
unit series, the exact sup of a root over a face, and a coefficient reader
that returns ``Fraction`` (the torus push raises a coefficient to negative
powers, and an ``int`` there would give a float).  They live here, with the
tests that cover them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul

from mvcrystals.affine import phi_plus_aff
from mvcrystals.gallery import Gallery, fold_window, root_e
from mvcrystals.looplab.groups import LoopGroup
from mvcrystals.looplab.series import (
    GenericityError,
    LaurentMatrix,
    LaurentSeries,
    LoopGroupError,
    PrecisionError,
    default_rel_prec,
)
from mvcrystals.rootdata import Coweight, Root


def _rand_nonzero(rng: random.Random, bound: int) -> Fraction:
    """A uniform nonzero integer in [-bound, bound], as a Fraction."""
    x = 0
    while x == 0:
        x = rng.randint(-bound, bound)
    return Fraction(x)


def coefficient(s: LaurentSeries, e) -> Fraction:
    """The coefficient of t^e in s, as a Fraction; unknown at or past the cap."""
    if s.cap is not None and e >= s.cap:
        raise PrecisionError(f"coefficient of t^{e} beyond cap {s.cap}")
    return Fraction(s.coeffs.get(e, 0))


def sqrt(s: LaurentSeries, rel_prec=None) -> LaurentSeries:
    """Square root of a series with constant term a nonzero rational square
    (used with 1 + t O), windowed like a division by s: known on rel_prec
    exponents (else the default) for exact s, and on s's own window, or
    rel_prec if smaller, for windowed s."""
    if s.val() != 0:
        raise GenericityError("sqrt implemented for unit series only")
    r0 = _fraction_sqrt(s.coeffs[0])
    if s.cap is None:
        rel = rel_prec if rel_prec is not None else default_rel_prec()
    else:
        rel = s.cap if rel_prec is None else min(s.cap, rel_prec)
    out = {0: r0}
    for e in range(1, rel):
        # coefficient of t^e in out^2 must match s
        acc = sum(out[k] * out[e - k] for k in range(1, e))
        out[e] = (s.coeffs.get(e, 0) - acc) / (2 * r0)
    return LaurentSeries(out, rel)


def _fraction_sqrt(q) -> Fraction:
    if q <= 0:
        raise GenericityError("sqrt of a nonpositive leading coefficient")
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise GenericityError(f"{q} is not a rational square")
    return Fraction(rn, rd)


def face_sup(datum, verts, alpha: Root) -> Fraction:
    """f_F(alpha) = sup_{x in F} <alpha, x>, exact: the largest value of alpha
    at the face's vertices, which are in units of 1/D."""
    row = datum.pairing_row(alpha.coords)
    return Fraction(max(sum(map(mul, row, v)) for v in verts), datum.apartment_scale)


def _in_stab_plus(group: LoopGroup, mat: LaurentMatrix, face) -> bool:
    n = group.n
    for a in range(n):
        if (mat[a, a] - LaurentSeries.one()).coeffs:
            return False
        for b in range(a):
            if mat[a, b].coeffs:
                return False
    for a in range(n):
        for b in range(a + 1, n):
            # eps_{a+1} - eps_{b+1} = alpha_{a+1} + ... + alpha_b
            root = Root(tuple(int(a <= i < b) for i in range(n - 1)))
            bound = math.ceil(face_sup(group.datum, face, root))
            s = mat[a, b]
            if s.coeffs and min(s.coeffs) < bound:
                return False
            if not s.coeffs and s.cap is not None and s.cap < bound:
                raise PrecisionError("stabilizer bound not certifiable at this cap")
    return True


def _factors(group: LoopGroup, tail):
    """The x_product factors of a tail: x_beta(coeff) over its slots, in order."""
    return [group.x_factor(beta.root, coeff, beta.level)
            for slot in tail for beta, coeff in slot]


def _tail_matrix(group: LoopGroup, tail):
    return group.x_product(_factors(group, tail))


def _fixes_end(group: LoopGroup, mat: LaurentMatrix, nu: Coweight) -> bool:
    t = group.gen_t(nu)
    return (t.inverse() * mat * t).all_entries_val_nonneg()


class _Rewriter:
    """Tail rewriting over one gallery: slots indexed by absolute position."""

    def __init__(self, group: LoopGroup, gallery: Gallery):
        self.group = group
        self.gallery = gallery
        self.datum = group.datum
        self.nu = gallery.weight

    # -- absorption of a positive stabilizer element (assertion a) -----------

    def absorb(self, u: LaurentMatrix, tail, idx):
        """u * prod(tail) [t^nu] = prod(tail') [t^nu] for u in Stab_+(Delta'_idx)."""
        if not _in_stab_plus(self.group, u, self.gallery.facet(idx)):
            raise LoopGroupError(
                "absorb precondition failed: u not in Stab_+ of the facet")
        out = []
        cur = u
        for offset, slot in enumerate(tail):
            l = idx + offset
            if not slot:
                out.append([])
                continue
            m = cur * _tail_matrix(self.group, [slot])
            new_slot = []
            # strip gap roots by increasing height: a strip only pollutes
            # strictly higher entries, so one pass extracts the coordinates
            for beta, _ in sorted(slot, key=lambda bc: sum(bc[0].root.coords)):
                j0, k0 = self.group.root_pair(beta.root)
                coeff = coefficient(m[j0 - 1, k0 - 1], beta.level)
                new_slot.append((beta, coeff))
                m = self.group.gen_x(beta.root, LaurentSeries.t_power(beta.level, -coeff)) * m
            if not _in_stab_plus(self.group, m, self.gallery.alcove(l)):
                raise LoopGroupError("absorb: remainder left Stab_+ of the alcove")
            out.append(new_slot)
            cur = m
        if not _fixes_end(self.group, cur, self.nu):
            raise LoopGroupError("absorb: final remainder moved [t^nu]")
        return out

    # -- torus push (assertion b) -----------------------------------------------

    def push_torus(self, p_series: LaurentSeries, mu: Coweight, tail, idx):
        """p^mu * prod(tail) [t^nu] = prod(tail') [t^nu] for a unit series p."""
        a0 = coefficient(p_series, 0)
        if a0 == 0:
            raise LoopGroupError("torus push needs a unit series")
        out = []
        i = 0
        while i < len(tail):
            slot = tail[i]
            l = idx + i
            if not slot:
                out.append([])
                i += 1
                continue
            if len(slot) > 1 and not p_series.equals_exact(
                    LaurentSeries.from_scalar(a0)):
                raise GenericityError("series torus push through a multi-root slot")
            new_slot = []
            residue = None
            for beta, coeff in slot:
                k_pair = self.datum.pairing(beta.root, mu)
                pk = p_series ** k_pair
                scalar = a0 ** k_pair
                new_slot.append((beta, coeff * scalar))
                rem = (pk - LaurentSeries.from_scalar(scalar)) * LaurentSeries.from_scalar(coeff)
                if rem.coeffs:
                    residue = self.group.gen_x(beta.root, rem.shift(beta.level))
            out.append(new_slot)
            if residue is not None:
                if not _in_stab_plus(self.group, residue, self.gallery.alcove(l)):
                    raise LoopGroupError("torus push residue left Stab_+")
                rest = self.absorb(residue, tail[i + 1:], l + 1)
                tail = tail[: i + 1] + rest
            i += 1
        # p^mu itself fixes [t^nu] since p is a unit series
        return out

    # -- negative-root push (assertion c) ------------------------------------------

    def push_negative(self, c_scalar, alpha, m_level, tail, idx):
        """x_{-alpha,-m}(1/c) * prod(tail) [t^nu] = prod(tail') [t^nu]."""
        group, datum = self.group, self.datum
        if not tail:
            pair = datum.pairing(alpha, self.nu)
            if pair < m_level:
                raise LoopGroupError("negative push does not fix the endpoint")
            return []
        slot = tail[0]
        l = idx
        xneg = group.gen_x(-alpha, LaurentSeries.t_power(-m_level, Fraction(1, 1) / c_scalar))
        if not slot:
            return [[]] + self.push_negative(c_scalar, alpha, m_level, tail[1:], idx + 1)
        if len(slot) != 1:
            raise GenericityError("negative push through a multi-root slot")
        (beta, coeff), = slot
        zeta, n = beta.root, beta.level
        vmat = _tail_matrix(group, [slot])
        if zeta != alpha:
            # commutator case: u = x(-1/c) v^{-1} x(1/c) v lands in Stab_+(Delta_l)
            u = xneg.inverse() * vmat.inverse() * xneg * vmat
            if not _in_stab_plus(group, u, self.gallery.alcove(l)):
                raise LoopGroupError("commutator left Stab_+ (Chevalley case)")
            absorbed = self.absorb(u, tail[1:], idx + 1)
            rest = self.push_negative(c_scalar, alpha, m_level, absorbed, idx + 1)
            return [slot] + rest
        if n != m_level:
            if n < m_level:
                raise LoopGroupError("minimality of the wall level violated")
            # x(1/c) v = p^{-alpha^vee} v x(1/c) p^{-alpha^vee},
            # p = sqrt(1 + t^{n-m} b/c)
            b_over_c = Fraction(coeff, 1) / c_scalar
            p = sqrt(LaurentSeries.one() + LaurentSeries.t_power(n - m_level, b_over_c))
            mu = -datum.coroot_of(alpha)
            torus = group.gen_torus(mu, p)
            lhs = xneg * vmat
            rhs = torus * vmat * xneg * torus
            if not lhs.agrees_with(rhs):
                raise LoopGroupError("Eq-(3) square-root rewrite failed")
            inner = self.push_torus(p, mu, tail[1:], idx + 1)
            pushed = self.push_negative(c_scalar, alpha, m_level, inner, idx + 1)
            return self.push_torus(p, mu, [slot] + pushed, idx)
        # the slot carries (alpha, m) itself
        b = coeff
        if b + c_scalar == 0:
            raise GenericityError("partial-sum hypothesis b + c = 0")
        new_coeff = b * c_scalar / (b + c_scalar)
        unit = Fraction(1) + Fraction(b, 1) / c_scalar
        lhs = xneg * vmat
        rhs = group.gen_x(alpha, LaurentSeries.t_power(m_level, new_coeff)) * \
            group.gen_torus(-datum.coroot_of(alpha), LaurentSeries.from_scalar(unit)) * \
            group.gen_x(-alpha, LaurentSeries.t_power(-m_level, Fraction(1, 1) / (b + c_scalar)))
        if not lhs.agrees_with(rhs):
            raise LoopGroupError("Eq-(3) fold-slot rewrite failed")
        inner = self.push_negative(b + c_scalar, alpha, m_level, tail[1:], idx + 1)
        pushed = self.push_torus(LaurentSeries.from_scalar(unit),
                                 -datum.coroot_of(alpha), inner, idx + 1)
        return [[(beta, new_coeff)]] + pushed


def prop_inclusion_coset_check(group: LoopGroup, gallery: Gallery, i: int,
                               h=None, seed=7) -> bool:
    """The inclusion proof's coset identity at random parameters.

    Builds the two products A K C E F [t^nu] and A x_{-alpha,-m-1}(h) B [t^nu]
    through the constructive rewriting lemmas and checks they agree as cosets;
    also checks the two closed-form torus rewrites of K and E and that the
    moved point lands in the stratum of wt(e_alpha gallery)."""
    datum = group.datum
    up = root_e(gallery, i)
    if up is None:
        raise GenericityError("e_alpha is undefined on this gallery")
    alpha = datum.simple_root(i)
    m, j, k = fold_window(gallery, i)
    p = gallery.gtype.p

    rng = random.Random(repr((seed, "prop511", gallery.delta0.cmat, gallery.flips, i)))
    gaps = [phi_plus_aff(datum, gallery.facet(l), gallery.alcove(l))
            for l in range(p + 1)]
    for _ in range(20):
        coeffs = [[(beta, _rand_nonzero(rng, 6)) for beta in gaps[l]]
                  for l in range(p + 1)]
        fold_slots = [l for l in range(1, p + 1)
                      if [b.root for b, _ in coeffs[l]] == [alpha]
                      and coeffs[l][0][0].level == m]
        run = Fraction(0)
        ok = True
        for l in fold_slots:
            if l >= k:
                run += coeffs[l][0][1]
                if run == 0:
                    ok = False
        if ok:
            break
    else:
        raise GenericityError("could not draw coefficients with nonzero partial sums")
    if h is None:
        h = _rand_nonzero(rng, 6)

    a_f = _factors(group, coeffs[:j])
    b_tail = coeffs[j:]
    x_h = group.x_factor(-alpha, h, -m - 1)
    tnu = group.gen_t(gallery.weight)
    lhs = group.x_product(a_f + [x_h] + _factors(group, b_tail)) * tnu

    rw = _Rewriter(group, gallery)
    u0 = group.gen_x(alpha, LaurentSeries.t_power(m + 1, Fraction(1, 1) / h))
    tail1 = rw.absorb(u0, b_tail, j)
    k_f = [x_h, group.x_factor(alpha, -Fraction(1, 1) / h, m + 1)]
    c_f = _factors(group, tail1[: k - j])
    if k == p + 1:
        # level m is reached only at the end vertex: no slot to move, the
        # window is pure reflection and E, F collapse to the identity
        a_k = None
        e_f = f_f = []
    else:
        slot_k = tail1[k - j]
        if len(slot_k) != 1 or slot_k[0][0].root != alpha or slot_k[0][0].level != m:
            raise GenericityError("slot k does not carry the minimal wall root")
        a_k = slot_k[0][1]
        if a_k == 0:
            raise GenericityError("slot k coefficient vanished during absorption")
        d_tail = tail1[k - j + 1:]
        tail2 = rw.push_negative(a_k, alpha, m, d_tail, k + 1)
        x_ak = group.x_factor(alpha, a_k, m)
        e_f = [x_ak, group.x_factor(-alpha, -Fraction(1, 1) / a_k, -m), x_ak]
        f_f = [group.x_factor(alpha, -a_k, m)] + _factors(group, tail2)
    rhs = group.x_product(a_f + k_f + c_f + e_f + f_f) * tnu

    # closed-form torus rewrites of K and E (Eq (4) consequences)
    co = datum.coroot_of(alpha)
    sbar = group.gen_sbar(i)
    t_shift = group.gen_t(co.scale(m + 1))
    k_closed = group.gen_torus(-co, LaurentSeries.from_scalar(-h)) * \
        group.gen_x(alpha, LaurentSeries.t_power(m + 1, h)) * t_shift * sbar
    if not group.x_product(k_f).agrees_with(k_closed):
        return False
    if a_k is not None:
        e_closed = (t_shift * sbar).inverse() * \
            group.gen_torus(-co, LaurentSeries.from_scalar(-a_k)) * group.gen_t(co)
        if not group.x_product(e_f).agrees_with(e_closed):
            return False

    if not group.coset_equal(lhs, rhs):
        return False
    # the moved point must sit in the stratum of the raised gallery
    return group.mu_plus(lhs) == up.weight
