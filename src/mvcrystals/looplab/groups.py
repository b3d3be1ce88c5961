"""SL_n loop-group matrices: pinned generators, Kamnitzer valuation formulas
for the mu_+/mu_-/orbit parameters, Gauss decomposition and y-factorization.

Every product of root-subgroup elements (x_beta, y_i, sbar_i, wbar, t^nu, the
y-products of Y~_{i,c}, cell points, rank-one cosets) is ``LoopGroup.x_product``:
one column operation per factor, and it inverts by its factors.  Dense products
remain where two general matrices meet (coset_equal's u^{-1} v, z_of's
y wbar(w0)^{-1}, crystal_op_sample's y_i(p) g, the self-check); none is inverted.

The matrix realization is type A only; all other types reach the loop group
purely through the combinatorial modules.  Fundamental-representation data is
the wedge power Lambda^k C^n.  Every valuation formula is one routine over the
k-minors of g^{-1} on column sets S, val(Lambda^k g^{-1} e_S): for [g] in
S_lambda^+/-, -+<omega_k, lambda> = val(g^{-1} v_{+-omega_k}), on the first or
last k columns; the orbit takes all S of one size.  With 2k > n, or g not a
word, the routine reads them off g's (n-k)-minors by Jacobi's identity.  A word
gives its determinant t^{sum d} from its torus part t^d, and its single entries
as entries; factor_y's peel reads its minors with the matrix's Laplace routine.
A LoopGroup keeps the routine's column-set families, keyed by n (each set with
its complement), and factor_y's peel plans, keyed by checked w0 words; verify's
groups live in a run's graph cache, so none outlives a run_all().

The string -> Lusztig map reads z's parameters off the flag minors D of g = y(p),
q_k = -D_{u_k omega_{i*-1}} D_{u_k omega_{i*+1}} / (D_{u_{k-1} omega_{i*}} D_{u_k omega_{i*}})
(factor_z: the Chamber Ansatz of Berenstein-Fomin-Zelevinsky, Adv. Math. 122, 1996).
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
    laplace_minor,
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
        self.n = n = datum.rank + 1
        self._plans = {}  # factor_y's peel plans, keyed by checked w0 words

        def family(sets):  # _inverse_vals' column sets S of one size, each with S^c
            return tuple((S, tuple(r for r in range(n) if r not in S)) for S in map(tuple, sets))
        self._plus = tuple(family([range(k)]) for k in range(1, n))
        self._minus = tuple(family([range(k, n)]) for k in range(1, n))
        self._orbit = tuple(family(combinations(range(n), n - k)) for k in range(1, n))
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
        """Coroot coordinates -> int diagonal exponents: d_j = c_j - c_{j-1} with
        c_0 = c_n = 0, so alpha_i^vee maps to e_i - e_{i+1} and the sum is 0;
        lattice_coweight refuses any other v."""
        c = self.datum.lattice_coweight(v).coords
        return (c[0],) + tuple(c[j] - c[j - 1] for j in range(1, self.n - 1)) + (-c[-1],)

    def root_pair(self, alpha: Root):
        """Root -> (j, k) with alpha = eps_j - eps_k (1-based): its coroot's torus
        exponents are e_j - e_k, so a negative root swaps j and k."""
        try:
            d = self.coweight_diag(self.datum.coroot_of(alpha))
        except KeyError:
            raise RootDataError(f"{alpha.coords} is not a root of type A") from None
        return d.index(1) + 1, d.index(-1) + 1

    # -- generators -------------------------------------------------------------

    def x_factor(self, alpha: Root, p, level=0):
        """The x_product factor of x_{alpha,level}(p) = x_alpha(p t^level):
        (j, k, p t^level) with alpha = eps_{j+1} - eps_{k+1}."""
        if isinstance(p, (int, Fraction)) and type(p) is not bool:
            p = LaurentSeries.from_scalar(p)
        j, k = self.root_pair(alpha)
        if not isinstance(p, LaurentSeries):  # x_product's TypeError, before any shift
            self.x_product([(j - 1, k - 1, p)])
        return j - 1, k - 1, p.shift(level)

    def x_product(self, factors, torus: Coweight | None = None) -> LaurentMatrix:
        """t^torus prod x_{eps_j - eps_k}(p) over factors (j, k, p) in order, with
        j, k 0-based: column operations from t^torus (or 1), no dense product.
        A factor with j = k or an index outside 0..n-1 raises ValueError, and
        one whose p is not a LaurentSeries raises TypeError."""
        factors, n = tuple(factors), self.n
        for j, k, p in factors:
            if j == k or not (0 <= j < n and 0 <= k < n):
                raise ValueError(f"factor {(j, k, p)} is no root subgroup of SL_{n}: "
                                 f"it needs j != k in 0..{n - 1}")
            if not isinstance(p, LaurentSeries):
                raise TypeError(f"factor {(j, k, p)} of SL_{n} has a parameter of type "
                                f"{type(p).__name__}: it needs a LaurentSeries")
        d = (0,) * n if torus is None else self.coweight_diag(torus)
        return LaurentMatrix._factored(d, factors)

    def gen_x(self, alpha: Root, p) -> LaurentMatrix:
        return self.x_product((self.x_factor(alpha, p),))

    def gen_y(self, i: int, p) -> LaurentMatrix:
        return self.gen_x(-self.datum.simple_root(i), p)

    def gen_t(self, v: Coweight) -> LaurentMatrix:
        return self.x_product((), v)

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
        """y_{i_1}(p_1) ... y_{i_N}(p_N), y_i(p) = x_{eps_{i+1} - eps_i}(p); per_letter
        checks the word's letters and ps."""
        ps = self.datum.per_letter(word := tuple(word), ps, "ps")
        return self.x_product((i, i - 1, p) for i, p in zip(word, ps))

    # -- valuation formulas ----------------------------------------------------------

    def _check_size(self, *gs):
        """Every matrix a LoopGroup method takes is n x n."""
        for g in gs:
            if g.n != self.n:
                raise ValueError(f"a {g.n}x{g.n} matrix is not in SL_{self.n}(K)")

    def mu_plus(self, g: LaurentMatrix) -> Coweight:
        """The stratum parameter of [g] in the S^+ decomposition."""
        self._check_size(g)
        return -Coweight(_inverse_vals(g, self._plus))

    def mu_minus(self, g: LaurentMatrix) -> Coweight:
        self._check_size(g)
        return Coweight(_inverse_vals(g, self._minus))

    def orbit_coweight(self, g: LaurentMatrix) -> Coweight:
        """Antidominant lambda with [g] in the G(O)-orbit of [t^lambda]:
        <omega_k, lambda> = min valuation over all k-minors of g, which by
        Jacobi are +- det g times the (n-k)-minors of g^{-1}: the routine of
        mu_plus and mu_minus, which reads g's k-minors for 2k < n or g not a
        word, and the factored g^{-1}'s (n-k)-minors otherwise, taking a word's
        det from its torus part and a single entry as the entry."""
        self._check_size(g)
        lam = Coweight(_inverse_vals(g, self._orbit))
        if not self.datum.is_antidominant(lam):  # every valuation read is certified
            raise ValueError(f"orbit parameter {lam.coords} is not antidominant: "
                             f"the matrix is not in SL_{self.n}(K)")
        return lam

    def coset_equal(self, u: LaurentMatrix, v: LaurentMatrix) -> bool:
        """[u] = [v] in G(K)/G(O) for a word u (an x_product): u^{-1} v, a dense
        product never inverted, has all entries of valuation >= 0.  An entry
        known only as O(t^m) with m < 0 raises PrecisionError."""
        self._check_size(u, v)
        return (u.inverse() * v).all_entries_val_nonneg()

    # -- factorizations --------------------------------------------------------------

    def gauss_decompose(self, g: LaurentMatrix) -> LaurentMatrix:
        """The lower unitriangular u in g = b u, b upper triangular.

        u is a ratio of minors of g (Berenstein-Fomin-Zelevinsky, Adv. Math.
        1996).  With D_k the minor on rows and columns k..n-1 (0-based),
        u_kj = Delta(rows k..n-1, cols {j} + {k+1..n-1}) / D_k for j < k.  The
        factorization exists iff every D_k is a unit."""
        self._check_size(g)
        n = self.n
        dets = [g.minor_det(range(k, n), range(k, n)) for k in range(n)]
        for k in range(n - 1, -1, -1):
            _pivot(dets[k], lambda: f"Gauss pivot {n - 1 - k} of SL_{n}")
        u = [list(row) for row in LaurentMatrix.identity(n).rows]
        for k in range(1, n):
            for j in range(k):
                u[k][j] = g.minor_det(range(k, n), (j, *range(k + 1, n))) / dets[k]
        return LaurentMatrix._of(tuple(map(tuple, u)))

    def factor_y(self, g: LaurentMatrix, word):
        """Factor a generic lower unitriangular g as y_{i_1}(p_1)...y_{i_N}(p_N).

        Peel one generator per step.  Let w be the current cell, b the position
        of i+1 in w, R = w({1..b}) (it holds i+1, not i) and R' = s_i R.  Left
        multiplication by y_i(p) adds p Delta_{R'} to Delta_R on columns 1..b
        and fixes Delta_{R'}; Delta_R vanishes on the cell of s_i w, so
        p = Delta_R / Delta_{R'} (Berenstein-Zelevinsky, Total positivity in
        Schubert varieties, 1997).  Each step's rows and columns depend on
        the word alone, and the group keeps them as the word's peel plan.
        Peeling y_i(p) off the left is "row i+1 -= p * row i", which changes
        row i+1 left of column i+1 only when g is exactly zero above the
        diagonal; a g that is not raises GenericityError.  The residual's
        entries on and below the diagonal are checked against 1 and 0 at the
        end; that compares known windows only, so a parameter whose known
        window is all zero raises PrecisionError when it is peeled."""
        self._check_size(g)
        n, word = self.n, tuple(word)
        # int letters only, so no bool or float word hashes onto a kept plan
        plan = self._plans.get(word) if all(type(i) is int for i in word) else None
        if plan is None:
            plan = self._plans[word] = _peel_plan(n, word := self.datum.w0_word(word))
        res = list(g.rows)  # the residual, one row rewritten per step
        if not all(res[a][b].is_known_zero and res[a][b].is_exact
                   for a in range(n) for b in range(a + 1, n)):
            raise GenericityError(f"factor_y input of SL_{n} on {word} is not exactly zero "
                                  f"above the diagonal")
        ps = []
        for step, i, num_rows, den_rows, cols in plan:
            cache = {}  # the minors of this step's residual
            num = laplace_minor(res, num_rows, cols, cache)
            den = laplace_minor(res, den_rows, cols, cache)
            p = num / _pivot(den, lambda: f"peel minor of y_{i} at step {step} of {word}")
            if p.is_known_zero and not p.is_exact:
                raise PrecisionError(f"peeled parameter of y_{i} at step {step} of {word} "
                                     f"is O(t^{p.cap})")
            ps.append(p)
            res[i] = tuple(sum_products(((p, y, -1),), x)
                           for x, y in zip(res[i][:i], res[i - 1])) + res[i][i:]
        # the residual must be the identity within precision
        if not all(res[a][b].agrees_with(LaurentSeries.one()) if a == b else
                   res[a][b].is_known_zero for a in range(n) for b in range(a + 1)):
            raise GenericityError(f"factorization residual of SL_{n} on {word} is not the identity")
        return ps

    def factor_z(self, g: LaurentMatrix, word):
        """q with z_word(q) = g for lower unitriangular g by the Chamber Ansatz
        (Berenstein-Fomin-Zelevinsky, Adv. Math. 122, 1996, sec. 1): with
        i*_k = n - i_k, u_N = 1, u_{k-1} = u_k s_{i*_k} (one-line permutations)
        and Delta_{u omega_j}(g) the minor on rows u({1..j}) and columns 1..j
        (1 for j = 0, n), q_k = -Delta_{u_k omega_{i*-1}} Delta_{u_k omega_{i*+1}}
        / (Delta_{u_{k-1} omega_{i*}} Delta_{u_k omega_{i*}}) at i* = i*_k.  A g
        off N_- or an exactly zero denominator raises GenericityError."""
        self._check_size(g)
        n, word, one, rows = self.n, self.datum.w0_word(word), LaurentSeries.one(), g.rows
        if not all(rows[a][b].agrees_with(one) if a == b else rows[a][b].is_known_zero
                   for a in range(n) for b in range(a, n)):
            raise GenericityError(f"factor_z input of SL_{n} on {word} is not lower unitriangular")

        def minor(u, j):  # Delta_{u omega_j}(g), u 0-based
            return g.minor_det(sorted(u[:j]), range(j)) if 0 < j < n else one
        u, qs = tuple(range(n - 1, -1, -1)), []  # u_0 = w0: u_N = 1 and word is w0's
        for k, i in enumerate(word, 1):
            s, prev = n - i, u
            u = u[:s - 1] + (u[s], u[s - 1]) + u[s + 1:]  # u_k = u_{k-1} s_{i*}
            den = [_pivot(minor(v, s), lambda: f"chamber minor on rows "
                          f"{sorted(r + 1 for r in v[:s])} at step {k} of SL_{n} on {word}")
                   for v in (prev, u)]
            qs.append(-(minor(u, s - 1) * minor(u, s + 1)) / (den[0] * den[1]))
        return qs

    def z_of(self, word, qs) -> LaurentMatrix:
        """z_word(q) = lower Gauss factor of y_word(q) wbar(w0)^{-1}."""
        y = self.y_product(word, qs)
        return self.gauss_decompose(y * self.wbar_w0.inverse())


def _inverse_vals(g: LaurentMatrix, families) -> tuple:
    """For each family of column sets S of one size k, as the group's (S, S^c)
    pairs, min over S of val(Lambda^k g^{-1} e_S), the least valuation of the
    k-minors of g^{-1} on the columns S.  With 2k > n, or for a dense g, which
    is never inverted, they are read off g by Jacobi's identity,
    val Delta_{R,S}(g^{-1}) = val Delta_{S^c,R^c}(g) - val det g; the others
    are minors of a word's factored g.inverse().  Single entries are read as
    entries: a row of g for n - k = 1, a column of g^{-1} for k = 1.  A word
    t^d prod x_{jk}(p) has val det = sum d, as every root factor is unipotent;
    only a dense g expands its determinant, and a singular one raises
    ValueError."""
    n, every, word = g.n, range(g.n), g._word
    if word is None:
        det = g.minor_det(every, every)
        if det.is_known_zero and det.is_exact:
            raise ValueError(f"the matrix is singular (det = 0): it is not in SL_{n}(K)")
    vals = []
    for family in families:
        k = len(family[0][0])
        if word is None or 2 * k > n:
            minors = [x for _, comp in family for x in g.rows[comp[0]]] if k == n - 1 else \
                [g.minor_det(comp, c) for _, comp in family for c in combinations(every, n - k)]
            vals.append(vector_val(minors) - (sum(word[0]) if word else det.val()))
        else:
            ginv = g.inverse()
            minors = [row[cols[0]] for cols, _ in family for row in ginv.rows] if k == 1 else \
                [ginv.minor_det(rows, cols) for cols, _ in family
                 for rows in combinations(every, k)]
            vals.append(vector_val(minors))
    return tuple(vals)


def _peel_plan(n, word) -> tuple:
    """factor_y's steps (step, i, R, R', columns) for a checked w0 word of SL_n,
    0-based; the cell w starts at w0 and moves by s_i per step.  A lower
    unitriangular residual adds an identity block on rows and columns 1..m, so
    R and R' drop their first m rows, 1..m, and the columns run m+1..b."""
    perm, steps = list(range(n, 0, -1)), []  # one-line of w, swapped in place each step
    for step, i in enumerate(word):
        a, b = perm.index(i), perm.index(i + 1) + 1  # i + 1 stands left of i in w0's words
        rows = sorted(x - 1 for x in perm[:b])  # R, 0-based; R is not {1..b}, so m < b
        m = next(m for m, r in enumerate(rows) if r != m)
        steps.append((step, i, tuple(rows[m:]), tuple(i - 1 if r == i else r for r in rows[m:]),
                      tuple(range(m, b))))  # R': row i+1 -> row i, order kept
        perm[a], perm[b - 1] = i + 1, i
    return tuple(steps)


def _pivot(s: LaurentSeries, what) -> LaurentSeries:
    """s, checked as a divisor that what() names on failure.  An exactly zero
    pivot means the input is not generic; dividing by a pivot whose known window
    is zero raises PrecisionError, so callers that escalate precision do."""
    if s.is_known_zero and s.is_exact:
        raise GenericityError(f"{what()} is exactly zero")
    return s
