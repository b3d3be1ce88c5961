import itertools

import pytest

from mvcrystals.affine import build_gallery_type
from mvcrystals.crystal import string_parameters
from mvcrystals.gallery import enumerate_ls
from mvcrystals.rootdata import Coweight, RootDataError, build_root_datum
from mvcrystals.trails import (
    WedgeRep,
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


def test_wedge_rep_basics():
    r = WedgeRep(2, 1)
    assert r.dim == 2
    # E1 maps e2 to e1, F1 maps e1 to e2
    assert r.raising[1] == {1: 0}
    assert r.lowering[1] == {0: 1}
    assert WedgeRep(4, 2).dim == 6
    r31 = WedgeRep(3, 1)
    wts = [r31.weight(a) for a in range(3)]
    assert wts == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(RootDataError):
        WedgeRep(3, 3)


def test_trail_trivial_and_sl2():
    r = WedgeRep(2, 1)
    hw = r.highest_weight()
    trails = enumerate_itrails(r, hw, hw, (1,))
    assert len(trails) == 1 and trails[0].exponents == (0,)
    low = (0, 1)
    trails = enumerate_itrails(r, hw, low, (1,))
    assert len(trails) == 1
    assert trails[0].exponents == (1,)
    assert trails[0].d == (0,)


def zero_d_trail_exists(datum, word, i) -> bool:
    """The trail (omega_i, s_{i_1} omega_i, ..., w0 omega_i) with all d_j = 0."""
    rep = WedgeRep(datum.rank + 1, i)
    gamma = rep.highest_weight()
    # each step of the chain swaps the epsilon coordinates j and j + 1
    chain = [gamma]
    for j in word:
        wt = list(chain[-1])
        wt[j - 1], wt[j] = wt[j], wt[j - 1]
        chain.append(tuple(wt))
    for t in enumerate_itrails(rep, gamma, gamma[::-1], word):
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
            rep = WedgeRep(n, i)
            hw = rep.highest_weight()
            for a in range(rep.dim):
                for t in enumerate_itrails(rep, hw, rep.weight(a), word):
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


@pytest.mark.parametrize("rank", [3, 4])
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
        enumerate_itrails(WedgeRep(3, 1), (1, 0, 0), (0, 0, 1), (3,))
    with pytest.raises(RootDataError, match="outside 1..2"):
        enumerate_itrails(WedgeRep(3, 1), (1, 0, 0), (0, 0, 1), (1, 0))


def test_in_string_cone_rejects_a_string_of_the_wrong_length():
    rows, _ = string_cone_inequalities(A2, WORD_A2)
    with pytest.raises(ValueError):
        in_string_cone((0, 0), rows)
    with pytest.raises(ValueError):
        in_string_cone((0, 0, 0, 0), rows)
