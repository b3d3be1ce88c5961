"""Affine roots, affine Weyl group, lengths, the wall-crossing sets of a
vertex and the minimal gallery type gamma_lambda.

Conventions.  An affine root is a pair (alpha, n) with wall
H_{alpha,n} = {x : <alpha,x> = n} and closed half-space
H^-_{alpha,n} = {x : <alpha,x> <= n}.  The affine node has index 0 with
alpha_0 = (-theta, -1); finite simple reflections keep their 1-based index.
W^aff = Z Phi^vee x| W acts by x |-> w(x) + mu; an element is the plain
pair (mu, w) of an integer tuple and a finite element (AffWeylElt).  A step
P s_i over I^aff is one table lookup (affine_step); nothing is stored on a datum.

Lengths read the pair (mu, w) alone: alpha > 0 takes the values (k, k + 1)
on (mu, w)(A_fund), k = <alpha, mu> - [w^-1 alpha < 0], so |k| walls of alpha
separate it from A_fund (aff_length, Iwahori-Matsumoto).  Every alcove of a
gallery type is dominant, so nothing tests it: a reduced word of w_lambda,
minimal in t_lambda W, walks a minimal gallery from A_fund to the alcove at
dominant lambda nearest A_fund, and such a gallery crosses only walls that
separate its two dominant ends, so no wall of the chamber.

Only phi_plus_aff evaluates at vertices, and mvcrystals.gallery calls it at
a gallery's origin face Delta'_0 = {0} alone.  A face is the tuple of its
vertices: the face g(phi_J) has the images under g of the vertices of A_fund
whose index is not in J (face_vertices).  A_fund's vertices 0 and
omega_i^vee / m_i lie in (1/D) Z Phi^vee for the datum's apartment_scale D,
so vertices are integer coordinates in units of 1/D and every pairing with a
root is an integer: a face lies in H_{alpha,n} iff all its vertex values
equal nD, and otherwise strictly below it iff its largest vertex value is at
most nD (faces of the arrangement never straddle walls).
"""

from __future__ import annotations

from operator import mul

from mvcrystals.rootdata import Coweight, Root, RootDataError, RootDatum, WeylElt, _norm, \
    _of_len, _reduced_words

__all__ = [
    "AffineRoot",
    "AffWeylElt",
    "GalleryType",
    "affine_step",
    "simple_affine_reflection",
    "aff_length",
    "face_vertices",
    "phi_plus_aff",
    "fundamentalize",
    "minimal_word",
    "build_gallery_type",
    "enumerate_affine_reduced_words",
]


class AffineRoot:
    """The affine root (root, level), whose wall is H_{root, level}."""

    __slots__ = ("root", "level")

    def __init__(self, root: Root, level: int):
        self.root, self.level = root, level

    def __eq__(self, other):
        if type(other) is not AffineRoot:
            return NotImplemented
        return self.root == other.root and self.level == other.level

    def __hash__(self):
        return hash((self.root, self.level))

    def __repr__(self):
        return f"AffineRoot(root={self.root!r}, level={self.level!r})"


class AffWeylElt:
    """Element (mu, w) of W^aff acting by x |-> w(x) + mu: the finite part w
    and the translation mu, a tuple of integers since mu lies in Z Phi^vee."""

    __slots__ = ("mu", "finite")

    def __init__(self, mu: tuple, finite: WeylElt):
        self.mu, self.finite = mu, finite

    def __eq__(self, other):
        return isinstance(other, AffWeylElt) and self.finite is other.finite \
            and self.mu == other.mu

    def __hash__(self):
        return hash((self.mu, self.finite.index))

    def __mul__(self, other):
        # (mu, w)(nu, v) = (mu + w(nu), wv); nu = 0 for every s_i with i >= 1
        mu, nu = self.mu, other.mu
        if any(nu):
            mu = tuple([a + sum(map(mul, row, nu)) for a, row in zip(mu, self.finite.cmat)])
        return AffWeylElt(mu, self.finite * other.finite)

    @property
    def translation(self) -> Coweight:
        return Coweight(self.mu)

    def act_point(self, coords):
        coords = _of_len(coords, len(self.mu))
        return tuple(_norm(sum(map(mul, row, coords)) + b)
                     for row, b in zip(self.finite.cmat, self.mu))

    def act_coweight(self, v: Coweight) -> Coweight:
        return Coweight(self.act_point(v.coords))


def identity_aff(datum: RootDatum) -> AffWeylElt:
    return AffWeylElt((0,) * datum.rank, datum.identity_elt())


def affine_step(datum: RootDatum, P: AffWeylElt, i: int) -> AffWeylElt:
    """P s_i for an int i in I^aff: w s_i off w's table, and mu + w(theta^vee) for s_0."""
    if type(i) is not int or not 0 <= i <= datum.rank:
        raise RootDataError(f"affine node {i} out of range for {datum}")
    mu, w = P.mu, P.finite
    if not i:
        mu = tuple([a + sum(map(mul, row, datum.theta_vee)) for a, row in zip(mu, w.cmat)])
    return AffWeylElt(mu, w._right[i])


def simple_affine_reflection(datum: RootDatum, i: int) -> AffWeylElt:
    """s_i for i in I^aff (s_0 reflects in H_{theta,1}): the step from the identity."""
    return affine_step(datum, identity_aff(datum), i)


# -- faces -------------------------------------------------------------------

def face_vertices(datum: RootDatum, mover: AffWeylElt):
    """The vertices of the alcove mover(A_fund) in units of 1/D,
    D = datum.apartment_scale, indexed like I^aff: the face mover(phi_J) has
    those whose index is not in J."""
    scale, cmat = datum.apartment_scale, mover.finite.cmat
    return tuple(tuple(sum(map(mul, row, v)) + scale * b for row, b in zip(cmat, mover.mu))
                 for v in datum.alcove_vertices)


def phi_plus_aff(datum: RootDatum, small, big):
    """Phi_+^aff(F', F) for the faces with vertices small and big: affine
    roots (alpha, n), alpha positive, with F' inside the wall at level n and
    F strictly beyond it (some vertex of F above nD), one pairing row per root.

    F' in closure(F) is the caller's responsibility."""
    out, scale = [], datum.apartment_scale
    for alpha in datum.positive_roots:
        row = datum.pairing_row(alpha.coords)
        values = {sum(map(mul, row, v)) for v in small}  # one value nD: F' in H_{alpha, n}
        n = min(values)
        if len(values) == 1 and n % scale == 0 and max(sum(map(mul, row, v)) for v in big) > n:
            out.append(AffineRoot(alpha, n // scale))
    return tuple(out)


# -- lengths and reduced words -----------------------------------------------

def aff_length(datum: RootDatum, g: AffWeylElt) -> int:
    """Number of walls separating A_fund from (mu, w)(A_fund): the sum over alpha > 0
    of |<alpha, mu> - [w^-1 alpha < 0]|, where w^-1 alpha < 0 iff <alpha, w(2 rho^vee)> < 0."""
    rho = g.finite.act_point(datum.two_rho_vee)
    rows = (datum.pairing_row(alpha.coords) for alpha in datum.positive_roots)
    return sum(abs(sum(map(mul, row, g.mu)) - (sum(map(mul, row, rho)) < 0)) for row in rows)


def enumerate_affine_reduced_words(datum: RootDatum, g: AffWeylElt):
    """All reduced words of g in the alphabet I^aff (tuples over {0,...,rank})."""
    return _reduced_words(g, lambda x: aff_length(datum, x),
                          ((i, simple_affine_reflection(datum, i))
                           for i in range(datum.rank + 1)))


# -- fundamentalization and the minimal gallery type ---------------------------

def fundamentalize(datum: RootDatum, lam: Coweight):
    """Fold lam into closure(A_fund) across violated simple affine walls,
    the smallest index first: (lam_fund, J, word) with J the type of the
    folded point and word the folds' indices over I^aff in order, so s_word
    maps lam_fund to lam.  A fold is x - sign side(i) co, co = alpha_i^vee
    (theta^vee for wall 0).  Each crosses one of the finitely many walls
    separating the point from A_fund, so the loop ends, s_word is w_lambda
    (reduced, minimal in s_word W_J) and each letter is its smallest left
    descent: word is the greedy word."""
    x, word = datum.exact_coords(lam), []
    walls = [(1, -1, datum.highest_root)] + [(0, 1, a) for a in datum.simple_roots()]

    def side(i):
        """x's signed value on the wall of s_i, i in I^aff: negative beyond it."""
        const, sign, alpha = walls[i]
        return const + sign * datum.pairing_coords(alpha.coords, x)

    while (i := next((i for i in range(datum.rank + 1) if side(i) < 0), None)) is not None:
        _, sign, alpha = walls[i]
        k = sign * side(i)
        x = tuple(_norm(a - k * c) for a, c in zip(x, datum.coroot_of(alpha).coords))
        word.append(i)
    return Coweight(x), frozenset(i for i in range(datum.rank + 1) if side(i) == 0), tuple(word)


def minimal_word(datum: RootDatum, lam: Coweight):
    """fundamentalize's fold word of a dominant lam, checked: the greedy reduced
    word over I^aff of w_lambda, the shortest w with w(lam_fund) = lam."""
    lam_fund, _, word = fundamentalize(datum, datum.dominant_coweight(lam))
    _check_word(datum, word, lam_fund, lam)
    return word


def _check_word(datum: RootDatum, word, lam_fund: Coweight, lam: Coweight):
    """Refuse word over I^aff unless it is reduced and maps lam_fund, the point
    lam folds to, to lam."""
    g = identity_aff(datum)
    for i in word:
        g = affine_step(datum, g, i)
    if aff_length(datum, g) != len(word):
        raise RootDataError(f"word {word} for lambda = {lam} on {datum} is not reduced")
    if (end := g.act_coweight(lam_fund)) != lam:
        raise RootDataError(f"word {word} for lambda = {lam} on {datum} maps {lam_fund} "
                            f"to {end}, not to lambda")


class GalleryType:
    """The type gamma_lambda in the apartment of datum: dominant lam in Z Phi^vee,
    which folds to lam_fund = 0 of type J = {1..rank}, and a reduced word of
    w_lambda over I^aff.  Each gallery of the type builds its own prefix movers."""

    __slots__ = ("datum", "lam", "word")

    def __init__(self, datum: RootDatum, lam: Coweight, word: tuple):
        self.datum, self.lam, self.word = datum, lam, word

    def _fields(self):
        return (self.datum, self.lam, self.word)

    def __eq__(self, other):
        if type(other) is not GalleryType:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @property
    def p(self):
        return len(self.word)

    @property
    def dim_gamma(self) -> int:
        """dim gamma_lambda = |Phi_+| + p: every alcove of the type is
        dominant (module docstring), so each of its p wall crossings is
        positive."""
        return len(self.datum.positive_roots) + len(self.word)


def build_gallery_type(datum: RootDatum, lam: Coweight, word=None) -> GalleryType:
    """Construct gamma_lambda for a dominant lam in Z Phi^vee and a reduced word of w_lambda.

    lam is refused off the coroot lattice, then if not dominant, and kept as
    lattice_coweight's int coordinates.  The word defaults to ``minimal_word``'s;
    a given one is checked: it is reduced, maps 0 to lam and has l(w_lambda)
    letters, so it is a reduced word of the minimal element of t_lambda W,
    whose alcoves are all dominant (module docstring)."""
    minimal = minimal_word(datum, lam := datum.lattice_coweight(lam))  # lam folds to 0
    if word is not None:
        _check_word(datum, word := tuple(word), datum.zero_coweight(), lam)
        if len(word) != len(minimal):
            raise RootDataError(f"word {word} for lambda = {lam} on {datum} is not minimal: "
                                f"w_lambda has {len(minimal)} letters")
    return GalleryType(datum, lam, minimal if word is None else word)
