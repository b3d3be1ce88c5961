"""The type-A MV polytope of a string, exactly: min-plus walks on the 0/1
weights of Lambda^k C^n.

y_i(p) = x_{eps_{i+1} - eps_i}(p) is 1 + p E_{i+1,i}, so by Cauchy-Binet a
minor Delta_{R,C} of y_{i_1}(p_1) ... y_{i_N}(p_N) is a sum over chains
R = S_0, ..., S_N = C in which each letter keeps S_j or moves its element i
to i + 1, with coefficient 1 or p_j: a polynomial with nonnegative
coefficients (Lindstrom-Gessel-Viennot; Berenstein-Fomin-Zelevinsky, Adv.
Math. 122, 1996).  At p_j = k t^{c_j} no leading terms cancel, so
val Delta_{R,C} is the least cost of a walk from the 0/1 weight of C that
reads the letters right to left, where letter j either skips or moves a 1
from position i_j - 1 to i_j (0-based) at cost c_j, and ends at R.  A minor
that no walk reaches is zero, of valuation +infinity.

The BZ datum of a generic point g of Y~_{i, c} (Kamnitzer, Ann. of Math.
171, 2010) is D_S = val(Lambda^{|S|} g^{-1} e_S), which by Jacobi with
det g = 1 is the least over column sets C of val Delta_{S^c, C}(g), so
`exact_bz` reads the MV polytope of a string off walks alone.
"""

import math
from itertools import combinations


def subsets(n):
    """The nonempty proper subsets S of [n] = {0, ..., n-1}, in the order of a
    BZ datum: by size, then lexicographically."""
    return [S for k in range(1, n) for S in combinations(range(n), k)]


def _weight(n, subset):
    return tuple(int(x in subset) for x in range(n))


def minplus_walks(n, word, c, cols):
    """0/1 weight of R -> val Delta_{R, cols} of y_word(t^c), for every R that a
    walk from cols reaches (0-based index sets)."""
    best = {_weight(n, cols): 0}
    for i, cost in zip(reversed(word), reversed(c)):
        nxt = dict(best)  # the letter skips
        for w, v in best.items():
            if w[i - 1] and not w[i]:
                moved = w[:i - 1] + (0, 1) + w[i + 1:]
                nxt[moved] = min(nxt.get(moved, v + cost), v + cost)
        best = nxt
    return best


def minplus_minor(n, word, c, rows, cols):
    """val Delta_{rows, cols} of y_word(t^c): the least cost of a walk from the
    0/1 weight of cols to that of rows, and math.inf when no walk gets there."""
    return minplus_walks(n, word, c, cols).get(_weight(n, rows), math.inf)


def minplus_lusztig(n, word, c):
    """The min-plus Chamber Ansatz on y_word(t^c)."""

    def v(u, j):
        return minplus_minor(n, word, c, set(u[:j]), set(range(j))) if 0 < j < n else 0

    u, out = tuple(range(n - 1, -1, -1)), []
    for i in word:
        s, prev = n - i, u
        u = u[:s - 1] + (u[s], u[s - 1]) + u[s + 1:]
        out.append(v(u, s - 1) + v(u, s + 1) - v(prev, s) - v(u, s))
    return out


def exact_bz(n, word, c_tilde):
    """The BZ datum of Y~_{word, c}, with c~ its modified string, in subsets(n)'s
    order: D_S is the least over column sets C with |C| = n - |S| of
    val Delta_{S^c, C} of y_word(t^{c~}), one walk per column set."""
    walks = {k: [minplus_walks(n, word, c_tilde, C) for C in combinations(range(n), k)]
             for k in range(1, n)}
    out = []
    for S in subsets(n):
        rows = _weight(n, set(range(n)) - set(S))
        out.append(min(walk.get(rows, math.inf) for walk in walks[n - len(S)]))
    return tuple(out)


def edge_lengths(datum, bz, word):
    """Kamnitzer's edge lengths (Ann. of Math. 171, 2010) of the MV polytope
    with BZ datum bz, listed in subsets' order, along the reduced word
    (i_1, ..., i_N) of w_0.  With w_k = s_{i_1} ... s_{i_k} in one-line
    notation (0-based), M_{w omega_j} = D_{w({1..j})} and M = 0 for j in
    {0, n}, the k-th length is
    n_k = -(M_{w_{k-1} omega_i} + M_{w_k omega_i} + sum_{j != i} a_{ji} M_{w_k omega_j})
    at i = i_k, a_{ji} = <alpha_j, alpha_i^vee> (datum.cartan, symmetric in
    type A).  Kamnitzer: this list is the Lusztig datum along the word of the
    crystal element of the polytope."""
    n = datum.rank + 1
    bz = dict(zip(subsets(n), bz))

    def m(w, j):
        return bz[tuple(sorted(w[:j]))] if 0 < j < n else 0
    w, lengths = tuple(range(n)), []
    for i in word:
        prev, w = w, w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
        lengths.append(-(m(prev, i) + m(w, i) + sum(datum.cartan[j - 1][i - 1] * m(w, j)
                                                    for j in range(1, n) if j != i)))
    return lengths
