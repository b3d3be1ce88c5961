"""The string -> Lusztig map as a min-plus walk on the 0/1 weights of
Lambda^k C^n, against the series path of ``lusztig_from_string``.

y_i(p) = x_{eps_{i+1} - eps_i}(p) is 1 + p E_{i+1,i}, so by Cauchy-Binet a
minor Delta_{R,C} of y_{i_1}(p_1) ... y_{i_N}(p_N) is a sum over chains
R = S_0, ..., S_N = C in which each letter keeps S_j or moves its element i
to i + 1, with coefficient 1 or p_j: a polynomial with nonnegative
coefficients (Lindstrom-Gessel-Viennot; Berenstein-Fomin-Zelevinsky, Adv.
Math. 122, 1996).  At p_j = k t^{c_j} no leading terms cancel, so
val Delta_{R,C} is the least cost of a walk from the 0/1 weight of C that
reads the letters right to left, where letter j either skips or moves a 1
from position i_j - 1 to i_j (0-based) at cost c_j, and ends at R.

The Chamber Ansatz (``LoopGroup.factor_z``) then reads the Lusztig
parameter off those valuations:
n_k = v(u_k, i* - 1) + v(u_k, i* + 1) - v(u_{k-1}, i*) - v(u_k, i*),
with i* = n - i_k, u_0 = w0, u_k = u_{k-1} s_{i*} and v(u, j) the valuation
of the minor on rows u({1..j}) and columns 1..j (0 for j = 0, n).  The map
is an involution: applied to its own output it gives c~ back.
"""

import random
from functools import cache

import pytest

from mvcrystals.looplab import LoopGroup, lusztig_from_string
from mvcrystals.rootdata import build_root_datum


def minplus_minor(n, word, c, rows, cols):
    """val Delta_{rows, cols} of y_word(t^c): the least cost of a walk from the
    0/1 weight of cols to that of rows (0-based index sets)."""
    best = {tuple(int(x in cols) for x in range(n)): 0}
    for i, cost in zip(reversed(word), reversed(c)):
        nxt = dict(best)  # the letter skips
        for w, v in best.items():
            if w[i - 1] and not w[i]:
                moved = w[:i - 1] + (0, 1) + w[i + 1:]
                nxt[moved] = min(nxt.get(moved, v + cost), v + cost)
        best = nxt
    return best[tuple(int(x in rows) for x in range(n))]


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


def _cases():
    """(rank, word, c~): every reduced word of w0 in A2 and A3 and a seeded
    sample of A4 words, with seeded c~ in [-3, 3]^N."""
    rng = random.Random("minplus-chamber-ansatz")
    out = []
    for rank, words, draws in ((2, None, 4), (3, None, 2), (4, 6, 1)):
        datum = build_root_datum("A", rank)
        every = sorted(datum.enumerate_reduced_words(datum.longest_element()))
        for word in every if words is None else rng.sample(every, words):
            out.extend((rank, word, tuple(rng.randint(-3, 3) for _ in word))
                       for _ in range(draws))
    return out


CASES = _cases()


@cache
def _group(rank):
    return LoopGroup(build_root_datum("A", rank))


def test_case_counts():
    assert len(CASES) == 2 * 4 + 16 * 2 + 6


@pytest.mark.parametrize("rank, word, c", CASES,
                         ids=[f"A{r}-{''.join(map(str, w))}-{i}" for i, (r, w, _) in
                              enumerate(CASES)])
def test_minplus_chamber_ansatz_is_the_series_map(rank, word, c):
    n = rank + 1
    got = minplus_lusztig(n, word, c)
    assert got == lusztig_from_string(_group(rank), word, c)
    assert minplus_lusztig(n, word, got) == list(c)  # F(F(c~)) = c~


def test_some_case_has_a_negative_lusztig_entry():
    # off the crystal strings n may be negative, which a clamp max(0, n_k) hides
    assert any(min(minplus_lusztig(r + 1, w, c)) < 0 for r, w, c in CASES)
