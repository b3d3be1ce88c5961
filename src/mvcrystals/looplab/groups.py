"""SL_n loop-group matrices: pinned generators, Kamnitzer valuation formulas
for the mu_+/mu_-/orbit parameters, Gauss decomposition and y-factorization.

Every product of root-subgroup elements (x_beta, y_i, sbar_i, wbar, the
y-products of Y~_{i,c}, cell products) is ``LoopGroup.x_product``: one column
operation per factor.  Dense products remain where two general matrices meet.

The matrix realization is type A only; all other types reach the loop group
purely through the combinatorial modules.  Fundamental-representation data is
the wedge power Lambda^k C^n, whose extremal vectors read off the valuation
formulas: for [g] in S_lambda^+/-, -+<omega_k, lambda> = val(g^{-1} v_{+-omega_k}).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from mvcrystals.looplab.series import (
    GenericityError,
    LaurentMatrix,
    LaurentSeries,
    LoopGroupError,
    PrecisionError,
    sum_products,
    vector_val,
)
from mvcrystals.rootdata import Coweight, Root, RootDataError, RootDatum

__all__ = ["LoopGroup"]


class LoopGroup:
    """SL_n over the Laurent series field, tied to a type A root datum.

    Construction runs a randomized self-check of the pinned-group commutation
    rules (torus conjugation, the SL_2 relation, and the
    x(a) x(-1/a) x(a) = a^{alpha^vee} sbar identity), which tests the
    column-operation generators against dense matrix products.  wbar(w0) is
    built once per group, on first use, and keeps its inverse."""

    def __init__(self, datum: RootDatum):
        if datum.series != "A":
            raise RootDataError("loop-group matrices are realized for type A only")
        self.datum = datum
        self.n = datum.rank + 1
        self._self_check()

    def _self_check(self):
        import random

        rng = random.Random(f"pinning-{self.n}")
        t = LaurentSeries.t_power(1)
        for _ in range(3):
            lam = Coweight(tuple(rng.randint(-2, 2) for _ in range(self.datum.rank)))
            for alpha in self.datum.positive_roots:
                b = rng.randint(1, 7)
                k = self.datum.pairing(alpha, lam)
                lhs = self.gen_t(lam) * self.gen_x(alpha, b)
                rhs = self.gen_x(alpha, LaurentSeries.from_scalar(b).shift(k)) * \
                    self.gen_t(lam)
                if not lhs.equals_exact(rhs):
                    raise LoopGroupError("torus commutation rule failed")
        for i in range(1, self.datum.rank + 1):
            alpha = self.datum.simple_root(i)
            a, b = Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))
            lhs = self.gen_x(alpha, a) * self.gen_x(-alpha, b)
            unit = LaurentSeries.from_scalar(1 + a * b)
            rhs = self.gen_x(-alpha, b / (1 + a * b)) * \
                self.gen_torus(self.datum.coroot_of(alpha), unit) * \
                self.gen_x(alpha, a / (1 + a * b))
            if not lhs.equals_exact(rhs):
                raise LoopGroupError("SL_2 relation failed")
            lhs = self.gen_x(alpha, t) * self.gen_x(-alpha, -t.inverse()) * \
                self.gen_x(alpha, t)
            rhs = self.gen_t(self.datum.coroot_of(alpha)) * self.gen_sbar(i)
            if not lhs.agrees_with(rhs):
                raise LoopGroupError("sbar torus identity failed")

    # -- coordinates ---------------------------------------------------------

    def coweight_diag(self, v: Coweight):
        """Coroot coordinates -> diagonal exponents: d_j = c_j - c_{j-1} with
        c_0 = c_n = 0, so alpha_i^vee maps to e_i - e_{i+1} and the sum is 0."""
        c = v.coords
        if len(c) != self.n - 1:
            raise RootDataError(f"{c} has {len(c)} coroot coordinates, not {self.n - 1}")
        return (c[0],) + tuple(c[j] - c[j - 1] for j in range(1, self.n - 1)) + (-c[-1],)

    def root_pair(self, alpha: Root):
        """Root -> (j, k) with alpha = eps_j - eps_k (1-based)."""
        # consecutive support [a, b] means eps_a - eps_{b+1}
        coords = alpha.coords
        if alpha.is_positive:
            support = [i for i, c in enumerate(coords) if c != 0]
            a, b = support[0], support[-1]
            if support != list(range(a, b + 1)) or any(coords[i] != 1 for i in support):
                raise RootDataError(f"{coords} is not a root of type A")
            return a + 1, b + 2
        j, k = self.root_pair(-alpha)
        return k, j

    # -- generators -------------------------------------------------------------

    def x_factor(self, alpha: Root, p, level=0):
        """The x_product factor of x_{alpha,level}(p) = x_alpha(p t^level):
        (j, k, p t^level) with alpha = eps_{j+1} - eps_{k+1}."""
        if isinstance(p, (int, Fraction)):
            p = LaurentSeries.from_scalar(p)
        j, k = self.root_pair(alpha)
        return j - 1, k - 1, p.shift(level)

    def x_product(self, factors) -> LaurentMatrix:
        """prod x_{eps_j - eps_k}(p) over factors (j, k, p) in order, with j, k
        0-based matrix positions (eps_0, ..., eps_{n-1}).  Right
        multiplication by x_{eps_j - eps_k}(p) = 1 + p E_jk is "column k +=
        p * column j", so a word of N root-subgroup elements costs N column
        operations from the identity and no dense product."""
        one, zero = LaurentSeries.one(), LaurentSeries.zero()
        rows = [[one if a == b else zero for b in range(self.n)] for a in range(self.n)]
        for j, k, p in factors:
            for row in rows:
                if row[j].coeffs or row[j].cap is not None:
                    row[k] = sum_products(((row[k], one, 1), (row[j], p, 1)))
        return LaurentMatrix(rows)

    def gen_x(self, alpha: Root, p) -> LaurentMatrix:
        return self.x_product((self.x_factor(alpha, p),))

    def gen_y(self, i: int, p) -> LaurentMatrix:
        return self.gen_x(-self.datum.simple_root(i), p)

    def gen_t(self, v: Coweight) -> LaurentMatrix:
        d = self.coweight_diag(v)
        rows = [[LaurentSeries.t_power(d[a]) if a == b else LaurentSeries.zero()
                 for b in range(self.n)] for a in range(self.n)]
        return LaurentMatrix(rows)

    def gen_torus(self, v: Coweight, a: LaurentSeries) -> LaurentMatrix:
        """a^v for a unit series a: diagonal with entries a^{d_j}."""
        d = self.coweight_diag(v)
        rows = [[LaurentSeries.zero()] * self.n for _ in range(self.n)]
        for j in range(self.n):
            rows[j][j] = a ** d[j]
        return LaurentMatrix(rows)

    def gen_sbar(self, i: int) -> LaurentMatrix:
        """sbar_i, the SL_2 block [[0,1],[-1,0]] on rows and columns i, i+1."""
        return self.gen_wbar((i,))

    def gen_wbar(self, word) -> LaurentMatrix:
        """sbar_{i_1} ... sbar_{i_l} with sbar_i = x_i(1) y_i(-1) x_i(1)
        (Berenstein-Fomin-Zelevinsky, Adv. Math. 1996): the 3l-factor word."""
        one = LaurentSeries.one()
        return self.x_product(f for i in word
                              for f in ((i - 1, i, one), (i, i - 1, -one), (i - 1, i, one)))

    @cached_property
    def wbar_w0(self) -> LaurentMatrix:
        return self.gen_wbar(self.datum.reduced_word(self.datum.longest_element()))

    def y_product(self, word, ps) -> LaurentMatrix:
        """y_{i_1}(p_1) ... y_{i_N}(p_N); y_i(p) = x_{eps_{i+1} - eps_i}(p)."""
        return self.x_product((i, i - 1, p) for i, p in zip(word, ps))

    # -- valuation formulas ----------------------------------------------------------

    def _extremal_vals(self, g: LaurentMatrix, top: bool):
        """val(g^{-1} v) for v = e_1 ^ ... ^ e_k (top) or e_{k+1} ^ ... ^ e_n,
        k = 1..n-1; the components are the minors of g^{-1} on those columns."""
        ginv = g.inverse()
        n = self.n
        vals = []
        for k in range(1, n):
            cols = tuple(range(k)) if top else tuple(range(k, n))
            vals.append(vector_val([ginv.minor_det(rows, cols)
                                    for rows in combinations(range(n), len(cols))]))
        return vals

    def mu_plus(self, g: LaurentMatrix) -> Coweight:
        """The stratum parameter of [g] in the S^+ decomposition."""
        return Coweight(tuple(-v for v in self._extremal_vals(g, top=True)))

    def mu_minus(self, g: LaurentMatrix) -> Coweight:
        return Coweight(tuple(self._extremal_vals(g, top=False)))

    def orbit_coweight(self, g: LaurentMatrix) -> Coweight:
        """Antidominant lambda with [g] in the G(O)-orbit of [t^lambda]:
        <omega_k, lambda> = min valuation over all k-minors of g, certified
        by vector_val (PrecisionError when a minor's cap could undercut it)."""
        coords = []
        for k in range(1, self.n):
            subsets = list(combinations(range(self.n), k))
            coords.append(vector_val([g.minor_det(rows, cols)
                                      for cols in subsets for rows in subsets]))
        lam = Coweight(tuple(coords))
        if not self.datum.is_antidominant(lam):
            raise PrecisionError(
                f"orbit parameter {lam.coords} is not antidominant; "
                "precision too low or matrix not in the group")
        return lam

    def coset_equal(self, u: LaurentMatrix, v: LaurentMatrix) -> bool:
        """[u] = [v] in G(K)/G(O): u^{-1} v has all entries of valuation >= 0."""
        return (u.inverse() * v).all_entries_val_nonneg()

    # -- factorizations --------------------------------------------------------------

    def gauss_decompose(self, g: LaurentMatrix):
        """g = b u with b upper triangular and u lower unitriangular.

        Both factors are ratios of minors of g (Berenstein-Fomin-Zelevinsky,
        Adv. Math. 1996).  With D_k the minor on rows and columns k..n-1
        (0-based, D_n = 1), b_kj = Delta(rows {k} + {j+1..n-1}, cols j..n-1)
        / D_{j+1} for k <= j, and u_kj = Delta(rows k..n-1, cols {j} +
        {k+1..n-1}) / D_k for j < k.  It exists iff every D_k is a unit."""
        n = self.n
        dets = [g.minor_det(range(k, n), range(k, n)) for k in range(n)]
        for k in range(n - 1, -1, -1):
            _pivot(dets[k], f"Gauss pivot {n - 1 - k} of SL_{n}")
        dets.append(LaurentSeries.one())
        zero, one = LaurentSeries.zero(), LaurentSeries.one()
        b = [[zero] * n for _ in range(n)]
        u = [[one if k == j else zero for j in range(n)] for k in range(n)]
        for j in range(n):
            for k in range(j + 1):
                b[k][j] = g.minor_det((k, *range(j + 1, n)), range(j, n)) / dets[j + 1]
            for k in range(j + 1, n):
                u[k][j] = g.minor_det(range(k, n), (j, *range(k + 1, n))) / dets[k]
        return LaurentMatrix(b), LaurentMatrix(u)

    def factor_y(self, g: LaurentMatrix, word):
        """Factor a generic lower unitriangular g as y_{i_1}(p_1)...y_{i_N}(p_N).

        Peel one generator per step.  Let w be the current cell, b the position
        of i+1 in w, R = w({1..b}) (it holds i+1, not i) and R' = s_i R.  Left
        multiplication by y_i(p) adds p Delta_{R'} to Delta_R on columns 1..b
        and fixes Delta_{R'}; Delta_R vanishes on the cell of s_i w, so
        p = Delta_R / Delta_{R'} (Berenstein-Zelevinsky, Total positivity in
        Schubert varieties, 1997).  Peeling y_i(p) off the left is
        "row i+1 -= p * row i".  The full residual is checked to be trivial
        at the end."""
        n = self.n
        word = tuple(word)
        if not self.datum.is_w0_word(word):
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
            # rows 1..m of a lower unitriangular matrix add an identity block
            # on columns 1..m; R is not {1..b}, so m < b
            m = 0
            while rows[m] == m:
                m += 1
            num = cur.minor_det(rows[m:], range(m, b))
            rows[rows.index(i)] = i - 1  # R': row i+1 -> row i, order kept
            den = cur.minor_det(rows[m:], range(m, b))
            p = num / _pivot(den, f"peel minor of y_{i} at step {step} of {word}")
            ps.append(p)
            res = list(cur.rows)
            res[i] = tuple(sum_products(((x, one, 1), (p, y, -1)))
                           for x, y in zip(res[i], res[i - 1]))
            cur = LaurentMatrix(res)
            perm = tuple(i + 1 if x == i else i if x == i + 1 else x for x in perm)
        # the residual must be the identity within precision
        if not cur.agrees_with(LaurentMatrix.identity(n)):
            raise GenericityError(f"factorization residual of SL_{n} on {word} is not the identity")
        return ps

    def factor_z(self, g: LaurentMatrix, word):
        """Parameters q with z_word(q) = g for lower unitriangular g: the lower
        Gauss factor of g wbar(w0), y-factored."""
        # g in B^+ y(q) wbar^{-1}  <=>  y(q) = lower Gauss factor of g wbar
        _, u = self.gauss_decompose(g * self.wbar_w0)
        return self.factor_y(u, word)

    def z_of(self, word, qs) -> LaurentMatrix:
        """z_word(q) = lower Gauss factor of y_word(q) wbar(w0)^{-1}."""
        y = self.y_product(word, qs)
        _, u = self.gauss_decompose(y * self.wbar_w0.inverse())
        return u


def _pivot(s: LaurentSeries, what) -> LaurentSeries:
    """s, checked as a divisor.  An exactly zero pivot means the input is not
    generic; dividing by a pivot whose known window is zero raises
    PrecisionError, so callers that escalate precision (trop_eval) do."""
    if s.is_known_zero and s.is_exact:
        raise GenericityError(f"{what} is exactly zero")
    return s
