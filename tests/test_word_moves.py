"""Rank-2 moves between reduced words of w_0: how a node's string and Lusztig
parameters change when two reduced words differ by one braid move or one
commutation.

For a braid move (a, b, a) -> (b, a, b) at positions j..j+2 in type A, the
closed forms are
- strings: (x, y, z) -> (max(z, y - x), x + z, min(x, y - z))
  (Berenstein-Zelevinsky, "String bases for quantum groups of type A_r",
  Adv. Soviet Math. 16, 1993; Littelmann, "Cones, crystals, and patterns",
  Transform. Groups 3, 1998);
- Lusztig data: (x, y, z) -> (y + z - m, m, x + y - m) with m = min(x, z)
  (Lusztig, "Canonical bases arising from quantized enveloping algebras",
  J. Amer. Math. Soc. 3, 1990, sec. 2).
A commutation (a, b) -> (b, a) swaps the two entries in both; every other
entry is unchanged.  The tests walk every move between the 16 reduced words
of w_0 in A3.
"""

import pytest

from mvcrystals.affine import build_gallery_type
from mvcrystals.crystal import string_parameters
from mvcrystals.gallery import enumerate_ls
from mvcrystals.looplab import LoopGroup, lusztig_from_string
from mvcrystals.rootdata import Coweight, build_root_datum

A3 = build_root_datum("A", 3)
WORDS = A3.enumerate_reduced_words(A3.longest_element())


def _moves(datum, words):
    """(word, j, moved word, braid?) for every braid move and commutation at
    position j that takes one word of words to another."""
    out, known = [], set(words)
    for word in words:
        for j in range(len(word) - 1):
            a, b = word[j], word[j + 1]
            if datum.cartan[a - 1][b - 1] == 0:
                out.append((word, j, word[:j] + (b, a) + word[j + 2:], False))
            elif j + 2 < len(word) and word[j + 2] == a and \
                    datum.cartan[a - 1][b - 1] == datum.cartan[b - 1][a - 1] == -1:
                out.append((word, j, word[:j] + (b, a, b) + word[j + 3:], True))
    assert all(moved in known for _, _, moved, _ in out)
    return out


def _string_move(x, y, z):
    return max(z, y - x), x + z, min(x, y - z)


def _lusztig_move(x, y, z):
    m = min(x, z)
    return y + z - m, m, x + y - m


def _check_moves(params, rule):
    """The (word, j) pairs whose parameters break the move rule; params maps
    each word to one node's parameter tuple on it."""
    bad = []
    for word, j, moved, braid in _moves(A3, WORDS):
        before = params[word]
        span = 3 if braid else 2
        window = rule(*before[j:j + 3]) if braid else (before[j + 1], before[j])
        if params[moved] != before[:j] + tuple(window) + before[j + span:]:
            bad.append((word, j))
    return bad


def _classes(moves):
    """The words of WORDS joined by the given moves, as a set of frozensets."""
    cls = {w: frozenset([w]) for w in WORDS}
    for word, _, moved, _ in moves:
        joined = cls[word] | cls[moved]
        for w in joined:
            cls[w] = joined
    return set(cls.values())


def test_a3_words_of_w0_are_joined_by_the_moves():
    # Matsumoto: the moves join all 16 words; commutations alone leave the 8
    # commutation classes of w_0 in A3 (the rhombic tilings of an octagon)
    moves = _moves(A3, WORDS)
    assert len(WORDS) == 16
    assert len(_classes(moves)) == 1
    assert len(_classes([m for m in moves if not m[3]])) == 8


@pytest.mark.parametrize("lam", [(1, 1, 1), (1, 2, 1), (1, 2, 2)])
def test_string_parameters_move_by_the_rank_two_rule(lam):
    graph = enumerate_ls(build_gallery_type(A3, Coweight(lam)))
    for node in graph.nodes:
        strings = {word: string_parameters(graph, node, word).c for word in WORDS}
        assert not _check_moves(strings, _string_move), (lam, graph.node_id(node))


def test_lusztig_parameters_move_by_the_rank_two_rule():
    group = LoopGroup(A3)
    graph = enumerate_ls(build_gallery_type(A3, Coweight((1, 1, 1))))
    for node in graph.nodes:
        lusztig = {word: tuple(lusztig_from_string(
            group, word, string_parameters(graph, node, word).c_tilde)) for word in WORDS}
        assert not _check_moves(lusztig, _lusztig_move), graph.node_id(node)
