"""Exact root-system, Weyl-group and lattice arithmetic for small finite types.

There is no floating point anywhere: a vector stores each coordinate as an int
or a non-integral `fractions.Fraction` and refuses any other type (`_norm`).
Simple roots are indexed 1..rank (the affine node, used in :mod:`mvcrystals.affine`,
gets index 0).  Roots have coordinates in the simple-root basis, coweights in
the simple-coroot basis; mixed arithmetic raises TypeError, and every method reads
a vector through `_of_rank` (`_coords` without a datum), whose one TypeError names
the datum and the value.  The datum answers every Weyl-word question from its tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

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


# Cartan matrices C[i][j] = <alpha_i, alpha_j^vee>, 0-based, from the Dynkin diagram in
# Bourbaki's numbering.  W is numbered whole on first use: |W(B6)| = 46,080 takes 0.5-0.8 s.
MAX_RANK = 6


def _cartan_matrix(series, rank):
    lowest = {"A": 1, "B": 2, "C": 2, "D": 4}  # B1 = C1 = A1 and D3 = A3
    if series == "G" and rank == 2:  # alpha_1 short, alpha_2 long
        return [[2, -1], [-3, 2]]
    if not lowest.get(series, MAX_RANK + 1) <= rank <= MAX_RANK:
        built = ", ".join(f"{s}{r}-{s}{MAX_RANK}" for s, r in lowest.items())
        raise RootDataError(f"unsupported series/rank: {series}{rank}; built are {built} and G2")
    c = [[2 if i == j else -int(abs(i - j) == 1) for j in range(rank)] for i in range(rank)]
    if series == "B":  # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
        c[rank - 2][rank - 1] = -2
    elif series == "C":  # alpha_n long
        c[rank - 1][rank - 2] = -2
    elif series == "D":  # the fork: nodes n-1 and n both hang on n-2
        c[rank - 2][rank - 1] = c[rank - 1][rank - 2] = 0
        c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
    return c


class _Vector:
    """Coordinate arithmetic of roots and coweights; results keep the type.
    A root never equals a coweight, even with the same coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = coords = tuple(coords)  # so that _norm can name the vector it refuses
        self.coords = tuple([_norm(a, self) for a in coords])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return f"{type(self).__name__}(coords={self.coords!r})"

    def __str__(self):
        return f"({', '.join(map(str, self.coords))})"

    def __neg__(self):
        return type(self)(tuple(-a for a in self.coords))

    def __add__(self, other):  # another type: NotImplemented, so TypeError names both
        return self._zip(add, other)

    def __sub__(self, other):
        return self._zip(sub, other)

    def _zip(self, op, other):
        """self op other by coordinates."""
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(map(op, self.coords, _of_len(other.coords, len(self.coords))))

    def scale(self, k):
        if type(k) is not int and type(k) is not Fraction:  # True * a would be an int
            raise TypeError(f"scale factors are int or Fraction, got {type(k).__name__} {k!r}")
        return type(self)(k * a for a in self.coords)


class Root(_Vector):
    """A root, as integer coordinates in the simple-root basis."""

    __slots__ = ()


class Coweight(_Vector):
    """An element of Lambda x_Z Q in the simple-coroot basis, each coordinate an
    int or a non-integral Fraction: lattice coweights are int tuples, and hash as
    such; fundamental coweights are rational."""

    __slots__ = ()

    def is_integral(self):
        return all(type(a) is int for a in self.coords)


def _of_len(coords, n, datum=None, kind=""):
    """coords, checked to number n: coordinate arithmetic zips, so it would
    truncate or pad a vector of another rank.  The one length check; a datum
    checking its own rank names itself and the kind of coordinates."""
    if len(coords) != n:
        raise RootDataError(f"{kind}coordinates {coords} do not have rank {n}"
                            + ("" if datum is None else f" for {datum}"))
    return coords


def _coords(v, cls, datum=None):
    """v's coordinates, refused unless v is a cls: the one kind rule."""
    if type(v) is not cls:
        raise TypeError(f"expected a {cls.__name__}{f' for {datum}' if datum else ''}, got {v!r}")
    return v.coords


def _norm(a, owner=None):
    """a, exact: an int as it is, a Fraction as its int when integral; any other type
    (float, bool, str) raises TypeError, naming the vector owner being built, if any."""
    if type(a) is int:
        return a
    if type(a) is Fraction:
        return int(a) if a.denominator == 1 else a
    raise TypeError(f"coordinates are int or Fraction, got {type(a).__name__} {a!r}"
                    + ("" if owner is None else f" in {owner!r}"))


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _sreflect(x, i, row):
    """x - <row, x> e_i: a simple reflection s_i moves only coordinate i, by
    row i of C on coweight coordinates and by column i on root coordinates."""
    return x[:i] + (x[i] - sum(map(mul, row, x)),) + x[i + 1:]


def _walk(w, word):
    """w s_{i_1} ... s_{i_l} for letters in 1..rank: one table lookup per letter."""
    for i in word:
        w = w._right[i]
    return w


def _reflect(x, row, co):
    """x - <alpha, x> alpha^vee, alpha given by its pairing row and coroot co."""
    p = sum(map(mul, row, x))
    return tuple([a - p * c for a, c in zip(x, co)]) if p else x


class WeylElt:
    """Finite Weyl group element, built once per datum by
    `RootDatum.weyl_elements`, so equal elements are the same object.  It
    keeps its integer matrix on the simple-coroot basis (cmat, acting on
    coweight coordinates), its index in W, its greedy reduced word (smallest
    left descent first; so its length) and its products with the generators
    s_theta, s_1, ..., s_rank, left and right, indexed like I^aff."""

    __slots__ = ("cmat", "index", "word", "length", "gen", "_left", "_right")

    def __init__(self, cmat, index, word, gen):
        self.cmat, self.index, self.word, self.length = cmat, index, word, len(word)
        self.gen = gen  # this element's column in the tables, if it is a generator

    def __hash__(self):
        return self.index

    def __repr__(self):
        return f"WeylElt(cmat={self.cmat!r})"

    def __mul__(self, other):
        if other.gen is not None:
            return self._right[other.gen]
        if self.gen is not None:
            return other._left[self.gen]
        return _walk(self, other.word)

    def act_coweight(self, v: Coweight) -> Coweight:
        return Coweight(self.act_point(_coords(v, Coweight)))

    def act_point(self, coords: tuple) -> tuple:
        coords = _of_len(coords, len(self.cmat))
        return tuple(_norm(sum(map(mul, row, coords))) for row in self.cmat)


class RootDatum:
    """Root system data for one finite series/rank, all fields exact.

    Positive roots and positive coroots are matched lists: ``positive_coroots[k]``
    is the coroot of ``positive_roots[k]``.
    """

    def __init__(self, series, rank):
        self.series, self.rank = series, rank
        self.cartan = tuple(tuple(row) for row in _cartan_matrix(series, rank))
        self._weyl = None  # (W numbered, its generators)
        self._simple_roots = tuple(Root(row) for row in _identity(rank))
        self._simple_coroots = tuple(Coweight(row) for row in _identity(rank))
        self._build_roots()
        # omega_i^vee is column i of C^-1: fraction-free (Bareiss) Gauss-Jordan on [C | 1]
        # over Z, dividing exactly by the last pivot p, needs no row swaps (C's leading
        # principal minors are positive) and ends at [p 1 | p C^-1] with p = det C
        m, p = [row + e for row, e in zip(self.cartan, _identity(rank))], 1
        for k in range(rank):
            mk = m[k]
            m = [r if i == k else [(mk[k] * a - r[k] * b) // p for a, b in zip(r, mk)]
                 for i, r in enumerate(m)]
            p = mk[k]
        self._fund_coweights = tuple(Coweight(Fraction(a, p) for a in c) for c in [*zip(*m)][rank:])
        # D: every vertex omega_i^vee / m_i of A_fund lies in (1/D) Z Phi^vee
        scale = self.apartment_scale = math.lcm(*(
            Fraction(a, m).denominator
            for om, m in zip(self._fund_coweights, self.marks) for a in om.coords))
        # A_fund's vertices in units of 1/D, indexed by I^aff: vertex 0 is the
        # origin and vertex i is D omega_i^vee / m_i
        self.alcove_vertices = ((0,) * rank,) + tuple(
            tuple(int(Fraction(a * scale, m)) for a in om.coords)
            for om, m in zip(self._fund_coweights, self.marks))

    def __str__(self):
        return f"{self.series}{self.rank}"

    # -- construction ------------------------------------------------------

    def _build_roots(self):
        # s_i moves only coordinate i: of a root by <beta, alpha_i^vee> (column
        # i of C), of a coroot by <alpha_i, x> (row i of C).  Its facts on the 20
        # data built are tier-1 tests (tests/test_rootdata.py)
        simple = tuple(zip(self.cartan, zip(*self.cartan)))
        seen = {e: e for e in _identity(self.rank)}  # root coords -> coroot coords
        for rt in (todo := list(seen)):  # todo grows until closed
            for i, (row, col) in enumerate(simple):
                if (rt2 := _sreflect(rt, i, col)) not in seen:
                    seen[rt2] = _sreflect(seen[rt], i, row)
                    todo.append(rt2)
        pos = sorted((rt for rt in seen if all(a >= 0 for a in rt) and any(rt)),
                     key=lambda rt: (sum(rt), rt))
        self._coroot_of = {Root(rt): Coweight(co) for rt, co in seen.items()}
        # root coords rc -> the row rc.C, column by column: <rt, alpha_j^vee>
        self._root_rows = {rt: tuple([sum(map(mul, rt, col)) for _, col in simple])
                           for rt in seen}
        self.positive_roots = tuple(Root(rt) for rt in pos)
        self.positive_coroots = tuple(Coweight(seen[rt]) for rt in pos)
        # 2 rho^vee, the sum of the positive coroots, in coroot coordinates
        self.two_rho_vee = tuple(map(sum, zip(*(seen[rt] for rt in pos))))
        self.highest_root, self.marks = self.positive_roots[-1], pos[-1]
        self.theta_vee = seen[pos[-1]]  # the coroot of the highest root

    # -- basic vectors ------------------------------------------------------

    def _node(self, i, what):
        """The 0-based position of the finite node i, which must be an int in 1..rank."""
        if type(i) is not int or not 1 <= i <= self.rank:
            raise RootDataError(f"{what} index {i} out of range for {self}")
        return i - 1

    def simple_root(self, i) -> Root:
        return self._simple_roots[self._node(i, "simple root")]

    def simple_coroot(self, i) -> Coweight:
        return self._simple_coroots[self._node(i, "simple coroot")]

    def simple_roots(self):
        return self._simple_roots

    def zero_coweight(self):
        return Coweight((0,) * self.rank)

    def coroot_of(self, root: Root) -> Coweight:
        if type(root) is not Root or (co := self._coroot_of.get(root)) is None:
            raise RootDataError(f"{_coords(root, Root, self)} is not a root of {self}")
        return co

    def fundamental_coweight(self, i) -> Coweight:
        """omega_i^vee with <alpha_j, omega_i^vee> = delta_ij; rational in general."""
        return self._fund_coweights[self._node(i, "fundamental coweight")]

    # -- pairing and orders --------------------------------------------------

    def _of_rank(self, v, cls=Coweight):
        """v's coordinates, refused unless v is a cls (_coords) of the datum's rank."""
        if type(v) is not cls or len(v.coords) != self.rank:  # no call on the way through
            _of_len(_coords(v, cls, self), self.rank, self, f"{cls.__name__.lower()} ")
        return v.coords

    def pairing(self, root: Root, coweight: Coweight):
        """<root, coweight>, exact."""
        row = self.pairing_row(self._of_rank(root, Root))
        return _norm(sum(map(mul, row, self._of_rank(coweight))))

    def pairing_row(self, rc):
        """The row rc.C, so that <root, x> = row . x for root coordinates rc:
        a root's row was built with the roots, any other rc's is computed and not kept."""
        if type(rc) is not tuple:
            raise TypeError(f"expected a tuple of root coordinates for {self}, got {rc!r}")
        if (row := self._root_rows.get(rc)) is None:
            _of_len(rc, self.rank, self, "root ")
            row = tuple([sum(map(mul, rc, col)) for col in zip(*self.cartan)])
        return row

    def pairing_coords(self, rc, vc):
        row = self.pairing_row(rc)
        return _norm(sum(map(mul, row, _of_len(vc, self.rank, self, "coweight "))))

    def lattice_coweight(self, x: Coweight) -> Coweight:
        """x, refused unless it is a Coweight of the datum's rank (_of_rank) in
        Z Phi^vee, so that its coordinates are ints."""
        self._of_rank(x)
        if not x.is_integral():
            raise RootDataError(f"{x} is not in the coroot lattice of {self}")
        return x

    def dominant_coweight(self, lam: Coweight) -> Coweight:
        """lam, refused unless it is dominant."""
        if not self.is_dominant(lam):
            raise RootDataError(f"{lam} is not dominant for {self}")
        return lam

    def height(self, x: Coweight):
        """Height of a coroot-lattice element; lattice_coweight refuses any other x."""
        return sum(self.lattice_coweight(x).coords)

    def dominance_leq(self, mu: Coweight, lam: Coweight) -> bool:
        """mu <= lam iff lam - mu is a nonnegative integer sum of positive coroots."""
        d = Coweight(map(sub, self._of_rank(lam), self._of_rank(mu)))
        return d.is_integral() and all(a >= 0 for a in d.coords)

    def is_dominant(self, v: Coweight) -> bool:
        return all(self.pairing(a, v) >= 0 for a in self._simple_roots)

    def is_antidominant(self, v: Coweight) -> bool:
        return all(self.pairing(a, v) <= 0 for a in self._simple_roots)

    def dominant_conjugate(self, v: Coweight) -> Coweight:
        """The dominant point of W v, by s_i at a negative <alpha_i, x>: each adds a
        positive multiple of alpha_i^vee, so x rises in dominance order on the finite
        orbit W v and the loop ends."""
        x = self._of_rank(v)
        while (i := next((i for i, row in enumerate(self.cartan)
                          if sum(map(mul, row, x)) < 0), None)) is not None:
            x = _sreflect(x, i, self.cartan[i])
        return Coweight(x)

    # -- Weyl group -----------------------------------------------------------

    def _group(self):
        if self._weyl is None:
            self.weyl_elements()
        return self._weyl

    def generators(self):
        """(s_theta, s_1, ..., s_rank), indexed like I^aff: the columns of
        every element's generator tables."""
        return self._group()[1]

    def simple_reflection(self, i) -> WeylElt:
        return self.generators()[self._node(i, "simple reflection") + 1]

    def identity_elt(self) -> WeylElt:
        return self._group()[0][0]

    def weyl_elements(self):
        """All of W sorted by (length, cmat), numbered in that order once per
        datum.  w is keyed by its columns w(alpha_c^vee), as bytes of indices into
        the datum's coroots, so s_g w's key is w's translated by s_g's table of
        coroot images: one lookup per column.  A BFS by the simple reflections,
        whose depth is the length, finds every w with each s_g w; then
        w s_g = s_i (u s_g) along the BFS edge w = s_i u.  Each depth is
        reached by the smallest letter first, so w's edge is its smallest
        left descent s_i and its word, i then u's, is the greedy reduced word."""
        if self._weyl is None:
            cos = [co.coords for co in self._coroot_of.values()]
            at = {co: k for k, co in enumerate(cos)}  # at most 72 (B6, C6): a byte each
            theta = self.pairing_row(self.marks), self.theta_vee
            # each generator's coroot images, padded to the 256 bytes bytes.translate reads
            tables = [bytes([at[_reflect(co, *theta)] for co in cos]).ljust(256)] + [
                bytes([at[_sreflect(co, i, row)] for co in cos]).ljust(256)
                for i, row in enumerate(self.cartan)]
            start = bytes(map(at.__getitem__, _identity(self.rank)))
            seen = {start: ((), _identity(self.rank), None)}  # key -> word, cmat, parent
            left, frontier = {}, [start]
            while frontier:
                nxt = []
                for x in frontier:
                    left[x] = tuple(map(x.translate, tables))
                for i in range(self.rank):  # smallest letter first over the frontier
                    for x in frontier:
                        if (y := left[x][i + 1]) not in seen:  # s_i m: m with row i changed
                            word, m, _ = seen[x]
                            mi = tuple([cos[k][i] for k in y])
                            seen[y] = ((i + 1,) + word, m[:i] + (mi,) + m[i + 1:], x)
                            nxt.append(y)
                frontier = nxt
            order = sorted(seen, key=lambda x: (len(seen[x][0]), seen[x][1]))
            gen_of = {y: g for g, y in enumerate(left[start])}
            elt = {x: WeylElt(seen[x][1], k, seen[x][0], gen_of.get(x))
                   for k, x in enumerate(order)}
            for x, w in elt.items():
                w._left = tuple(map(elt.__getitem__, left[x]))
            gens = elt[start]._left
            for x, w in elt.items():
                w._right = tuple([u._left[w.word[0]] for u in elt[seen[x][2]]._right]) \
                    if w.length else gens
            self._weyl = (tuple(elt.values()), gens)
        return self._weyl[0]

    def longest_element(self) -> WeylElt:
        return self.weyl_elements()[-1]

    def enumerate_reduced_words(self, w: WeylElt):
        """All reduced words of w (tuples of 1-based indices), sorted."""
        return _reduced_words(w, lambda x: x.length, enumerate(self.generators()[1:], 1))

    def word_to_element(self, word) -> WeylElt:
        return _walk(self.identity_elt(), [self._node(i, "simple reflection") + 1 for i in word])

    def is_w0_word(self, word) -> bool:
        """True when word is a reduced word of the longest element w_0: it has
        |Phi_+| int letters in 1..rank and walks to that length, which only w_0 has."""
        word, n = tuple(word), len(self.positive_roots)
        return len(word) == n and all(type(i) is int and 1 <= i <= self.rank for i in word) \
            and _walk(self.identity_elt(), word).length == n

    def per_letter(self, word, values, name) -> tuple:
        """values as a tuple, refused unless word's letters are ints in 1..rank, then
        unless values has one entry per letter."""
        if not all(type(i) is int and 1 <= i <= self.rank for i in word):
            raise RootDataError(f"word {word} has a letter outside 1..{self.rank} for {self}")
        if len(values := tuple(values)) != len(word):
            raise RootDataError(f"{name} = {values} on word {word} for {self}: need one "
                                f"{name} entry per letter; the word has {len(word)} letters, "
                                f"{name} has {len(values)} entries")
        return values

    def w0_word(self, word) -> tuple:
        """word as a tuple, refused unless it is a reduced word of w_0."""
        if not self.is_w0_word(word := tuple(word)):
            raise RootDataError(f"{word} is not a reduced word of w_0 for {self} "
                                f"({len(self.positive_roots)} letters in 1..{self.rank})")
        return word

    def reduced_word(self, w: WeylElt):
        """w's greedy reduced word (smallest left descent first), kept by the BFS."""
        return w.word


def _reduced_words(w, length, simple):
    """All reduced words of w, sorted, in a Coxeter group given by its length
    function and its simple reflections as (letter, s) pairs; each element's
    words are memoized for this call only."""
    simple = tuple(simple)
    memo = {}

    def words(x, lx):
        # l(x s) = l(x) - 1 or l(x) + 1
        if x not in memo:
            found = {word + (i,) for i, s in simple if length(x * s) < lx
                     for word in words(x * s, lx - 1)}
            memo[x] = tuple(sorted(found)) if lx else ((),)
        return memo[x]

    return words(w, length(w))


@lru_cache(maxsize=None)
def build_root_datum(series: str, rank: int) -> RootDatum:
    """Build the root datum for the given series letter and rank: A-D up to MAX_RANK, or G2."""
    return RootDatum(series, rank)
