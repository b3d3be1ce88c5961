"""The string -> Lusztig map as a min-plus walk on the 0/1 weights of
Lambda^k C^n (mvpolytope: val Delta_{R,C} of y_word(t^c) is the least cost of
a walk), against the series path of ``lusztig_from_string``.

The Chamber Ansatz (``LoopGroup.factor_z``) then reads the Lusztig
parameter off those valuations:
n_k = v(u_k, i* - 1) + v(u_k, i* + 1) - v(u_{k-1}, i*) - v(u_k, i*),
with i* = n - i_k, u_0 = w0, u_k = u_{k-1} s_{i*} and v(u, j) the valuation
of the minor on rows u({1..j}) and columns 1..j (0 for j = 0, n).  The map
is an involution: applied to its own output it gives c~ back.
"""

import math
import random
from functools import cache

import pytest

from mvcrystals.looplab import LoopGroup, lusztig_from_string
from mvcrystals.rootdata import build_root_datum
from mvpolytope import minplus_lusztig, minplus_minor


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


def test_a_minor_that_no_walk_reaches_is_infinite():
    # a walk moves each 1 one place right, so from column 0 only the last
    # letter (1, cost 3) and then the middle one (2, cost 2) reach row 2; no
    # walk reaches row 0 from column 2, and that minor is zero
    assert minplus_minor(3, (1, 2, 1), (1, 2, 3), {2}, {0}) == 5
    assert minplus_minor(3, (1, 2, 1), (1, 2, 3), {0}, {2}) == math.inf
