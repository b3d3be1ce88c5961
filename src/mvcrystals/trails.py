"""i-trails in the fundamental (wedge power) representations of SL_n, the
d_j statistics, and string cone inequalities with membership testing.

Matrix realization is type A only: V(omega_k) = Lambda^k C^n.  Every weight
space is a line, spanned by the wedge of the basis vectors a weight marks, so
the walk runs on the weights themselves, in epsilon coordinates: the 0/1
n-tuples of total k, which avoids the center quotient altogether.  The
raising operator E_i moves the 1 at position i+1 to an empty position i; a
single index moves in place, so the convention is sign-free.

E_i^2 = 0, so an i-trail is a walk on these weights in which each letter
applies its E_i once or not at all.
"""

from __future__ import annotations

from mvcrystals.rootdata import RootDataError, RootDatum

__all__ = [
    "ITrail",
    "enumerate_itrails",
    "string_cone_inequalities",
    "in_string_cone",
]


class ITrail:
    """An i-trail along word: its weights (epsilon-coordinate tuples, length
    N + 1), its exponents n_j >= 0 with gamma_{j-1} - gamma_j = n_j alpha_{i_j},
    and d_j = <gamma_{j-1} + gamma_j, alpha_{i_j}^vee> / 2."""

    __slots__ = ("word", "weights", "exponents", "d")

    def __init__(self, word: tuple, weights: tuple, exponents: tuple, d: tuple):
        self.word, self.weights, self.exponents, self.d = word, weights, exponents, d


def enumerate_itrails(gamma: tuple, delta: tuple, word):
    """All i-trails from gamma to delta in Lambda^k C^n, n = len(gamma) and
    k = sum(gamma), by exponents.

    Walk from delta, reading the word from the right: each letter skips (n_j = 0)
    or applies E_{i_j} (n_j = 1), and the walk prepends the weight it reaches; the
    walks that reach gamma are the trails.  With gamma_{j-1} - gamma_j = n_j alpha_{i_j}
    and <alpha_i, alpha_i^vee> = 2, d_j = <gamma_{j-1} + gamma_j, alpha_{i_j}^vee> / 2
    = <gamma_{j-1}, alpha_{i_j}^vee> - n_j = gamma_{j-1}[i_j - 1] - gamma_{j-1}[i_j] - n_j."""
    gamma, delta, word = tuple(gamma), tuple(delta), tuple(word)
    n = len(gamma)
    if not all(type(i) is int and 1 <= i < n for i in word):
        raise RootDataError(f"word {word} has a letter outside 1..{n - 1}")
    if len(delta) != n or sum(delta) != sum(gamma) or not set(delta) <= {0, 1}:
        return []
    walks = [((), (delta,))]  # (exponents, weights), both read from the right
    for i in reversed(word):
        nxt = []
        for exps, wts in walks:
            w = wts[0]
            nxt.append(((0,) + exps, (w,) + wts))
            if w[i] and not w[i - 1]:
                nxt.append(((1,) + exps, (w[:i - 1] + (1, 0) + w[i + 1:],) + wts))
        walks = nxt
    return [ITrail(word, wts, exps,
                   tuple(w[i - 1] - w[i] - m for i, w, m in zip(word, wts, exps)))
            for exps, wts in sorted(walk for walk in walks if walk[1][0] == gamma)]  # by exponents


def string_cone_inequalities(datum: RootDatum, word):
    """One inequality row per i-trail from omega_i to w0 s_i omega_i in
    V(omega_i), for every i; returns (deduplicated rows, raw rows)."""
    if datum.series != "A":
        raise RootDataError("string cone via i-trails is implemented for type A only")
    n, word, raw = datum.rank + 1, datum.w0_word(word), []
    for i in range(1, n):
        gamma = (1,) * i + (0,) * (n - i)
        # s_i swaps the epsilon coordinates i and i+1; w0 reverses them all
        wt = list(gamma)
        wt[i - 1], wt[i] = wt[i], wt[i - 1]
        raw.extend(t.d for t in enumerate_itrails(gamma, tuple(wt[::-1]), word))
    return tuple(sorted(set(raw))), tuple(raw)


def in_string_cone(c, rows) -> bool:
    return all(sum(r * x for r, x in zip(row, c, strict=True)) >= 0 for row in rows)
