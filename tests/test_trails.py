import collections
import itertools

import pytest

from mvcrystals.affine import build_gallery_type
from mvcrystals.crystal import string_parameters
from mvcrystals.gallery import enumerate_ls
from mvcrystals.rootdata import Coweight, RootDataError, build_root_datum
from mvcrystals.trails import (
    enumerate_itrails,
    in_string_cone,
    string_cone_inequalities,
)

A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)

WORD_A2 = (1, 2, 1)
WORD_A3 = (2, 1, 3, 2, 1, 3)

# the paper-listed relations for A3, word (2,1,3,2,1,3):
# c1>=0, c2>=c6>=0, c3>=c5>=0, c2+c3>=c4>=c5+c6
PAPER_A3_ROWS = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, -1),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, -1, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 1, 1, -1, 0, 0),
    (0, 0, 0, 1, -1, -1),
)


def weights(n, k):
    """The weights of Lambda^k C^n: the 0/1 n-tuples of total k."""
    return [tuple(int(j in s) for j in range(n)) for s in itertools.combinations(range(n), k)]


def raising_matrix(n, k, i):
    """E_i on Lambda^k C^n in the weight basis, read off one-letter walks:
    E_i e_delta = e_gamma iff the word (i,) has a trail gamma -> delta with
    exponent 1."""
    wts = weights(n, k)
    return [[int(any(t.exponents == (1,) for t in enumerate_itrails(g, d, (i,))))
             for d in wts] for g in wts]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_raising_rule_satisfies_the_sl_n_commutation_relations(n):
    # [E_i, F_j] = delta_ij diag(<wt, alpha_i^vee>) with F_i = E_i^T, on every
    # Lambda^k C^n with n <= 5
    for k in range(1, n):
        wts = weights(n, k)
        e = {i: raising_matrix(n, k, i) for i in range(1, n)}
        span = range(len(wts))
        for i in e:
            for j in e:
                comm = [[sum(e[i][a][c] * e[j][b][c] - e[j][c][a] * e[i][c][b] for c in span)
                         for b in span] for a in span]
                want = [[int(a == b and i == j) * (wts[a][i - 1] - wts[a][i]) for b in span]
                        for a in span]
                assert comm == want, (n, k, i, j)


def test_trail_trivial_and_sl2():
    hw = (1, 0)
    trails = enumerate_itrails(hw, hw, (1,))
    assert len(trails) == 1 and trails[0].exponents == (0,)
    low = (0, 1)
    trails = enumerate_itrails(hw, low, (1,))
    assert len(trails) == 1
    assert trails[0].exponents == (1,)
    assert trails[0].d == (0,)


def zero_d_trail_exists(datum, word, i) -> bool:
    """The trail (omega_i, s_{i_1} omega_i, ..., w0 omega_i) with all d_j = 0."""
    gamma = (1,) * i + (0,) * (datum.rank + 1 - i)
    # each step of the chain swaps the epsilon coordinates j and j + 1
    chain = [gamma]
    for j in word:
        wt = list(chain[-1])
        wt[j - 1], wt[j] = wt[j], wt[j - 1]
        chain.append(tuple(wt))
    for t in enumerate_itrails(gamma, gamma[::-1], word):
        if t.weights == tuple(chain):
            assert not any(t.d), ("reflection chain trail has d != 0", word, i, t.d)
            return True
    return False


def test_zero_d_trail_exists_both_words():
    for datum, word in [(A2, (1, 2, 1)), (A2, (2, 1, 2)),
                        (A3, WORD_A3), (A3, (1, 2, 1, 3, 2, 1))]:
        for i in range(1, datum.rank + 1):
            assert zero_d_trail_exists(datum, word, i)


def test_all_d_integral():
    for datum, word in [(A2, WORD_A2), (A3, WORD_A3)]:
        n = datum.rank + 1
        for i in range(1, n):
            hw = (1,) * i + (0,) * (n - i)
            for wt in weights(n, i):
                for t in enumerate_itrails(hw, wt, word):
                    assert all(isinstance(d, int) for d in t.d)


def test_cone_a2_matches_known_pattern():
    rows, raw = string_cone_inequalities(A2, WORD_A2)
    assert raw  # at least one trail per i
    # cone should be {c1 >= 0, c2 >= c3 >= 0}
    for c in itertools.product(range(-3, 4), repeat=3):
        expected = c[0] >= 0 and c[1] >= c[2] >= 0
        assert in_string_cone(c, rows) == expected, c


def test_cone_a3_matches_paper_rows():
    rows, _ = string_cone_inequalities(A3, WORD_A3)
    for c in itertools.product(range(-2, 3), repeat=6):
        assert in_string_cone(c, rows) == in_string_cone(c, PAPER_A3_ROWS), c


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_cone_of_the_nice_word_is_one_chain_per_block(rank):
    # Littelmann, "Cones, crystals, and patterns" (1998), section 5: for
    # i = (1, 2 1, ..., rank ... 1) the cone is c_first >= ... >= c_last >= 0
    # on every block
    n = rank * (rank + 1) // 2
    chains, start = set(), 0
    for size in range(1, rank + 1):
        block = range(start, start + size)
        for a, b in zip(block, block[1:]):
            chains.add(tuple(int(k == a) - int(k == b) for k in range(n)))
        chains.add(tuple(int(k == block[-1]) for k in range(n)))
        start += size
    word = tuple(i for top in range(1, rank + 1) for i in range(top, 0, -1))
    rows, _ = string_cone_inequalities(build_root_datum("A", rank), word)
    assert len(rows) == n and set(rows) == chains


def test_in_string_cone_paper_point():
    rows, _ = string_cone_inequalities(A3, WORD_A3)
    assert in_string_cone((0,) * 6, rows)
    assert not in_string_cone((0, 0, 0, 1, 1, 1), rows)  # violates c2+c3 >= c4


def test_type_restriction():
    with pytest.raises(RootDataError):
        string_cone_inequalities(build_root_datum("B", 2), (1, 2, 1, 2))
    with pytest.raises(RootDataError):
        string_cone_inequalities(A2, (1, 2))  # not a word of w0


def test_cone_soundness_harvested_strings():
    # every string parameter of suite crystals lies in the cone
    for datum, words, lams in [
        (A2, ((1, 2, 1), (2, 1, 2)), [(1, 1), (2, 1)]),
        (A3, (WORD_A3,), [(1, 1, 1)]),
    ]:
        for word in words:
            rows, _ = string_cone_inequalities(datum, word)
            for coords in lams:
                graph = enumerate_ls(build_gallery_type(datum, Coweight(coords)))
                for node in graph.nodes:
                    c = string_parameters(graph, node, word).c
                    assert in_string_cone(c, rows)


def test_cone_tightness_a2_desk_scale():
    # every cone lattice point with coordinates <= 3 is a string of some B(lam)
    rows, _ = string_cone_inequalities(A2, WORD_A2)
    wanted = {c for c in itertools.product(range(4), repeat=3)
              if in_string_cone(c, rows)}
    achieved = set()
    for coords in [(3, 3), (3, 5)]:
        graph = enumerate_ls(build_gallery_type(A2, Coweight(coords)))
        for node in graph.nodes:
            achieved.add(string_parameters(graph, node, WORD_A2).c)
    assert wanted <= achieved


def test_itrail_letter_out_of_range_names_word_and_range():
    with pytest.raises(RootDataError, match=r"^word \(3,\) has a letter outside 1\.\.2$"):
        enumerate_itrails((1, 0, 0), (0, 0, 1), (3,))
    with pytest.raises(RootDataError, match="outside 1..2"):
        enumerate_itrails((1, 0, 0), (0, 0, 1), (1, 0))


def test_no_trail_to_a_weight_outside_the_module():
    # delta must be a 0/1 vector of gamma's length and total
    for delta in [(0, 0, 1, 0), (0, 1), (1, 1, 0), (2, -1, 0), (0, 0, 0)]:
        assert enumerate_itrails((1, 0, 0), delta, (2, 1)) == [], delta


def test_in_string_cone_rejects_a_string_of_the_wrong_length():
    rows, _ = string_cone_inequalities(A2, WORD_A2)
    with pytest.raises(ValueError):
        in_string_cone((0, 0), rows)
    with pytest.raises(ValueError):
        in_string_cone((0, 0, 0, 0), rows)


def kostant(datum, beta):
    """Kostant's partition function: the ways to write beta (simple-root
    coordinates) as a sum of positive roots."""
    roots = [r.coords for r in datum.positive_roots]

    def count(b, k):  # sums of roots[k:]
        if not any(b):
            return 1
        total = 0
        while k < len(roots) and min(b) >= 0:
            total += count(b, k + 1)
            b = tuple(x - y for x, y in zip(b, roots[k]))
        return total
    return count(tuple(beta), 0)


def cone_counts(datum, word, rows, height):
    """{beta: #c in Z^N_{>=0} inside rows with sum_j c_j alpha_{i_j} = beta},
    over the beta of height 1..height, by a bounded recursion from the last
    letter (the height of beta is sum_j c_j)."""
    counts = collections.Counter()

    def grow(j, tail, left):
        if j < 0:
            c = tuple(tail)
            if any(c) and in_string_cone(c, rows):
                beta = [0] * datum.rank
                for i, x in zip(word, c):
                    beta[i - 1] += x
                counts[tuple(beta)] += 1
            return
        for x in range(left + 1):
            grow(j - 1, [x] + tail, left - x)

    grow(len(word) - 1, [], height)
    return counts


def kostant_mismatches(datum, word, rows, height):
    got = cone_counts(datum, word, rows, height)
    betas = [b for b in itertools.product(range(height + 1), repeat=datum.rank)
             if 1 <= sum(b) <= height]
    return [b for b in betas if got[b] != kostant(datum, b)], len(betas)


KOSTANT_CASES = [("A", 2, (1, 2, 1), 6), ("A", 2, (2, 1, 2), 6),
                 ("A", 3, (1, 2, 1, 3, 2, 1), 4), ("A", 3, (2, 1, 3, 2, 1, 3), 4),
                 ("A", 3, (3, 2, 1, 2, 3, 2), 4), ("A", 4, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1), 3)]


@pytest.mark.parametrize("series, rank, word, height", KOSTANT_CASES,
                         ids=[f"{s}{r}-{''.join(map(str, w))}" for s, r, w, _ in KOSTANT_CASES])
def test_string_cone_points_of_each_weight_number_kostants_partition_function(series, rank,
                                                                              word, height):
    # the string cone is the string set of B(infinity) (Littelmann, Transform.
    # Groups 3, 1998; Berenstein-Zelevinsky, Invent. Math. 143, 2001), and
    # dim U(n+)_beta is Kostant's P(beta)
    datum = build_root_datum(series, rank)
    rows, _ = string_cone_inequalities(datum, word)
    bad, checked = kostant_mismatches(datum, word, rows, height)
    assert checked > 20 and bad == []


def test_dropping_a_cone_row_breaks_the_kostant_count():
    # control: the count sees every row that is not a bare c_j >= 0, which
    # the enumeration imposes by itself
    rows, _ = string_cone_inequalities(A3, WORD_A3)
    bare = {tuple(int(k == j) for k in range(6)) for j in range(6)}
    kept = [r for r in rows if r not in bare]
    assert len(kept) == 4
    for row in kept:
        bad, _ = kostant_mismatches(A3, WORD_A3, [r for r in rows if r != row], 4)
        assert bad, row
