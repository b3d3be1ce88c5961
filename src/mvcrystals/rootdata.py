"""Exact root-system, Weyl-group and lattice arithmetic for small finite types.

Everything is integer or `fractions.Fraction` arithmetic; there is no floating
point anywhere.  Simple roots are indexed 1..rank (the affine node, used in
:mod:`mvcrystals.affine`, gets index 0).  Roots are stored by their integer
coordinates in the simple-root basis, coweights by their coordinates in the
simple-coroot basis; the two carry distinct types so that mismatched pairings
fail loudly instead of silently computing nonsense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

__all__ = [
    "Root",
    "Coweight",
    "WeylElt",
    "RootDatum",
    "RootDataError",
    "build_root_datum",
]


class RootDataError(ValueError):
    """Unsupported series/rank or malformed lattice data."""


# Cartan matrices C[i][j] = <alpha_i, alpha_j^vee>, 0-based storage.
def _cartan_matrix(series, rank):
    if series == "A" and 1 <= rank <= 4:
        c = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            c[i][i] = 2
            if i + 1 < rank:
                c[i][i + 1] = -1
                c[i + 1][i] = -1
        return c
    if series == "B" and 2 <= rank <= 4:
        c = _cartan_matrix("A", rank)
        # last simple root short: <alpha_{r-1}, alpha_r^vee> = -2
        c[rank - 2][rank - 1] = -2
        return c
    if series == "C" and 2 <= rank <= 4:
        c = _cartan_matrix("A", rank)
        c[rank - 1][rank - 2] = -2
        return c
    if series == "D" and rank == 4:
        # node 2 central (1-based), edges 1-2, 2-3, 2-4
        c = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
        return c
    if series == "G" and rank == 2:
        # alpha_1 short, alpha_2 long; theta = 3*alpha_1 + 2*alpha_2
        return [[2, -1], [-3, 2]]
    raise RootDataError(f"unsupported series/rank: {series}{rank}")


@dataclass(frozen=True)
class Root:
    """A root, as integer coordinates in the simple-root basis."""

    coords: tuple

    def __neg__(self):
        return Root(tuple(-a for a in self.coords))

    def __add__(self, other):
        return Root(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Root(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, k):
        return Root(tuple(k * a for a in self.coords))

    @property
    def is_positive(self):
        return all(a >= 0 for a in self.coords) and any(a > 0 for a in self.coords)

    def height(self):
        return sum(self.coords)


@dataclass(frozen=True)
class Coweight:
    """An element of Lambda x_Z Q in the simple-coroot basis.

    Lattice coweights have integer coordinates; fundamental coweights are
    rational.  Coordinates are normalised through `Fraction` only when a
    denominator is present, so lattice vectors hash as plain int tuples.
    """

    coords: tuple

    def __neg__(self):
        return Coweight(tuple(-a for a in self.coords))

    def __add__(self, other):
        return Coweight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Coweight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, k):
        return Coweight(tuple(_norm(k * a) for a in self.coords))

    def is_integral(self):
        return all(isinstance(a, int) or (isinstance(a, Fraction) and a.denominator == 1)
                   for a in self.coords)

    def normalized(self):
        return Coweight(tuple(_norm(a) for a in self.coords))


def _norm(a):
    """Collapse integral Fractions to int so equal vectors hash equal."""
    if type(a) is Fraction and a.denominator == 1:
        return int(a)
    return a


def _matvec(m, v):
    return tuple(_norm(sum(map(mul, row, v))) for row in m)


def _matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class WeylElt:
    """Finite Weyl group element: its integer matrix on the simple-coroot
    basis, acting on coweight coordinates.  Roots act through the datum
    (`RootDatum.act_root`)."""

    cmat: tuple

    def __mul__(self, other):
        return WeylElt(_matmul(self.cmat, other.cmat))

    def act_coweight(self, v: Coweight) -> Coweight:
        return Coweight(_matvec(self.cmat, v.coords))

    def act_point(self, coords: tuple) -> tuple:
        return _matvec(self.cmat, coords)

    @property
    def is_identity(self):
        return self.cmat == _identity(len(self.cmat))


class RootDatum:
    """Root system data for one finite series/rank, all fields exact.

    Positive roots and positive coroots are matched lists: ``positive_coroots[k]``
    is the coroot of ``positive_roots[k]``.
    """

    def __init__(self, series, rank):
        self.series = series
        self.rank = rank
        self.cartan = tuple(tuple(row) for row in _cartan_matrix(series, rank))
        self._weyl_cache = None
        self._pairing_rows = {}  # root coords rc -> the row rc.C
        self._reflections = {}
        self._build_roots()
        self._identity = WeylElt(_identity(rank))
        self._simple_reflections = tuple(self.reflection(a) for a in self.simple_roots())
        cinv = _rat_inverse(self.cartan)
        self._fund_coweights = tuple(Coweight(tuple(_norm(cinv[j][i]) for j in range(rank)))
                                     for i in range(rank))
        # D: every vertex omega_i^vee / m_i of A_fund lies in (1/D) Z Phi^vee
        scale = self.apartment_scale = math.lcm(*(
            Fraction(a, m).denominator
            for om, m in zip(self._fund_coweights, self.marks) for a in om.coords))
        # A_fund's vertices in units of 1/D, indexed by I^aff: vertex 0 is the
        # origin and vertex i is D omega_i^vee / m_i; their sum is D (rank + 1)
        # times A_fund's barycenter, an integer point inside A_fund
        self.alcove_vertices = ((0,) * rank,) + tuple(
            tuple(int(Fraction(a * scale, m)) for a in om.coords)
            for om, m in zip(self._fund_coweights, self.marks))
        self.fund_alcove_point = tuple(sum(col) for col in zip(*self.alcove_vertices))

    # -- construction ------------------------------------------------------

    def _build_roots(self):
        simples = [(self.simple_root(i), self.simple_coroot(i)) for i in range(1, self.rank + 1)]
        seen = dict(simples)
        frontier = simples
        while frontier:
            nxt = []
            for rt, co in frontier:
                for a, av in simples:
                    # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, and
                    # s_i(x) = x - <alpha_i, x> alpha_i^vee on coroots
                    rt2 = rt - a.scale(self.pairing(rt, av))
                    co2 = co - av.scale(self.pairing(a, co))
                    if rt2 not in seen:
                        seen[rt2] = co2
                        nxt.append((rt2, co2))
                    elif seen[rt2] != co2:
                        raise RootDataError("root/coroot matching broke")
            frontier = nxt
        pos = sorted((rt for rt in seen if rt.is_positive),
                     key=lambda rt: (rt.height(), rt.coords))
        if len(seen) != 2 * len(pos):
            raise RootDataError("reflection closure is not symmetric")
        self.positive_roots = tuple(pos)
        self.positive_coroots = tuple(seen[rt] for rt in pos)
        self._coroot_of = seen
        self._root_of = {co: rt for rt, co in seen.items()}
        self.highest_root = pos[-1]
        if not all(self.highest_root.height() > rt.height() or self.highest_root == rt
                   for rt in pos):
            raise RootDataError("highest root not unique by height")
        self.marks = self.highest_root.coords
        if not all(self.pairing(self.highest_root, cov) >= 0
                   for cov in self.simple_coroots()):
            raise RootDataError("highest root is not dominant")

    # -- basic vectors ------------------------------------------------------

    def simple_root(self, i) -> Root:
        return Root(tuple(int(i - 1 == j) for j in range(self.rank)))

    def simple_coroot(self, i) -> Coweight:
        return Coweight(tuple(int(i - 1 == j) for j in range(self.rank)))

    def simple_roots(self):
        return tuple(self.simple_root(i) for i in range(1, self.rank + 1))

    def simple_coroots(self):
        return tuple(self.simple_coroot(i) for i in range(1, self.rank + 1))

    def zero_coweight(self):
        return Coweight((0,) * self.rank)

    def coroot_of(self, root: Root) -> Coweight:
        return self._coroot_of[root]

    def fundamental_coweight(self, i) -> Coweight:
        """omega_i^vee with <alpha_j, omega_i^vee> = delta_ij; rational in general."""
        return self._fund_coweights[i - 1]

    def rho_coweight(self) -> Coweight:
        return sum(self._fund_coweights, self.zero_coweight()).normalized()

    # -- pairing and orders --------------------------------------------------

    def pairing(self, root, coweight):
        """<root, coweight>, exact."""
        if not isinstance(root, Root) or not isinstance(coweight, Coweight):
            raise TypeError("pairing takes (Root, Coweight); got "
                            f"({type(root).__name__}, {type(coweight).__name__})")
        return self.pairing_coords(root.coords, coweight.coords)

    def pairing_coords(self, rc, vc):
        row = self._pairing_rows.get(rc)
        if row is None:
            if len(rc) != self.rank:
                raise RootDataError(f"root coordinates {rc} do not have rank {self.rank}")
            row = tuple(sum(rc[i] * self.cartan[i][j] for i in range(self.rank))
                        for j in range(self.rank))
            self._pairing_rows[rc] = row
        if len(vc) != self.rank:
            raise RootDataError(f"coweight coordinates {vc} do not have rank {self.rank}")
        return _norm(sum(map(mul, row, vc)))

    def height(self, x: Coweight):
        """Height of a coroot-lattice element; errors if x is not in Z Phi^vee."""
        if not x.is_integral():
            raise RootDataError(f"{x} is not in the coroot lattice")
        return int(sum(x.coords))

    def dominance_leq(self, mu: Coweight, lam: Coweight) -> bool:
        """mu <= lam iff lam - mu is a nonnegative integer sum of positive coroots."""
        d = lam - mu
        return d.is_integral() and all(a >= 0 for a in d.coords)

    def is_dominant(self, v: Coweight) -> bool:
        return all(self.pairing(self.simple_root(i), v) >= 0
                   for i in range(1, self.rank + 1))

    def is_antidominant(self, v: Coweight) -> bool:
        return all(self.pairing(self.simple_root(i), v) <= 0
                   for i in range(1, self.rank + 1))

    def dominant_conjugate(self, v: Coweight) -> Coweight:
        x = v
        guard = 0
        while not self.is_dominant(x):
            for i in range(1, self.rank + 1):
                if self.pairing(self.simple_root(i), x) < 0:
                    x = self.simple_reflection(i).act_coweight(x)
                    break
            guard += 1
            if guard > 10000:
                raise RootDataError("dominant conjugate did not terminate")
        return x

    # -- Weyl group -----------------------------------------------------------

    def simple_reflection(self, i) -> WeylElt:
        if not 1 <= i <= self.rank:
            raise RootDataError(f"simple reflection index {i} out of range")
        return self._simple_reflections[i - 1]

    def identity_elt(self) -> WeylElt:
        return self._identity

    def reflection(self, root: Root) -> WeylElt:
        """s_alpha for an arbitrary root alpha, cached per root:
        x -> x - <alpha, x> alpha^vee on coweights."""
        s = self._reflections.get(root)
        if s is None:
            n, rc, co = self.rank, root.coords, self.coroot_of(root).coords
            unit = _identity(n)
            on_unit = [self.pairing_coords(rc, e) for e in unit]
            s = self._reflections[root] = WeylElt(
                tuple(tuple(unit[i][j] - co[i] * on_unit[j] for j in range(n)) for i in range(n)))
        return s

    def act_root(self, w: WeylElt, root: Root) -> Root:
        """w(alpha), read off w(alpha^vee), which is the coroot of w(alpha)."""
        return self._root_of[w.act_coweight(self.coroot_of(root))]

    def weyl_length(self, w: WeylElt) -> int:
        """The number of positive roots w sends negative, counted on their
        coroots (alpha > 0 iff alpha^vee > 0)."""
        return sum(1 for co in self.positive_coroots if min(w.act_point(co.coords)) < 0)

    def weyl_elements(self):
        """All of W sorted by (length, cmat), BFS from the identity (cached);
        the BFS depth of w is its length."""
        if self._weyl_cache is None:
            length = {self.identity_elt(): 0}
            frontier = [self.identity_elt()]
            while frontier:
                nxt = []
                for w in frontier:
                    for i in range(1, self.rank + 1):
                        w2 = w * self.simple_reflection(i)
                        if w2 not in length:
                            length[w2] = length[w] + 1
                            nxt.append(w2)
                frontier = nxt
            self._weyl_cache = tuple(sorted(length, key=lambda w: (length[w], w.cmat)))
        return self._weyl_cache

    def longest_element(self) -> WeylElt:
        return self.weyl_elements()[-1]

    def enumerate_reduced_words(self, w: WeylElt):
        """All reduced words of w (tuples of 1-based indices), sorted."""
        return _reduced_words(w, self.weyl_length, enumerate(self._simple_reflections, 1))

    def word_to_element(self, word) -> WeylElt:
        w = self.identity_elt()
        for i in word:
            w = w * self.simple_reflection(i)
        return w

    def is_w0_word(self, word) -> bool:
        """True when word is a reduced word of the longest element w_0."""
        word = tuple(word)
        return len(word) == len(self.positive_roots) and \
            all(1 <= i <= self.rank for i in word) and \
            self.word_to_element(word) == self.longest_element()

    def reduced_word(self, w: WeylElt):
        """One reduced word (greedy left descent, smallest letter first)."""
        word = []
        cur, lc = w, self.weyl_length(w)
        while lc > 0:
            for i, s in enumerate(self._simple_reflections, 1):
                cand = s * cur
                lcand = self.weyl_length(cand)
                if lcand < lc:
                    word.append(i)
                    cur, lc = cand, lcand
                    break
        return tuple(word)


def _reduced_words(w, length, simple):
    """All reduced words of w, sorted, in a Coxeter group given by its length
    function and its simple reflections as (letter, s) pairs; each element's
    words are memoized for this call only."""
    simple = tuple(simple)
    memo = {}

    def words(x, lx):
        got = memo.get(x)
        if got is None:
            if lx == 0:
                got = ((),)
            else:
                found = set()
                for i, s in simple:
                    y = x * s
                    ly = length(y)
                    if ly < lx:
                        found.update(word + (i,) for word in words(y, ly))
                got = tuple(sorted(found))
            memo[x] = got
        return got

    return words(w, length(w))


def _rat_inverse(m):
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [[aug[i][n + j] for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def build_root_datum(series: str, rank: int) -> RootDatum:
    """Build the root datum for the given series letter and rank (<= 4)."""
    return RootDatum(series, rank)
