"""The paper's main statement in identity and operator form: the cell of each
LS gallery and Y~ of its string have the same closure, after a translation.

Gaussent and Littelmann (Duke Math. J. 127, 2005): the cell C(delta) of an LS
gallery delta is dense in the MV cycle of delta.  The paper: Y~_{i,c} is dense
in the MV cycle of the crystal element with string parameter c along the
reduced word i of w_0, and the Gaussent-Littelmann bijection is a crystal
isomorphism.  Together: t^{-w_0 lambda} C(delta) and Y~_{i, string(delta)}
have one closure.  In operator form: the crystal operator e_i on cycles is
left multiplication by y_i(p) with val p = -1 + eps_i(delta), so y_i(p) C(delta)
and C(e_i delta) have one closure.

An MV cycle is determined by its Berenstein-Zelevinsky datum (Kamnitzer, Ann.
of Math. 171, 2010), which in type A is D_S = val(Lambda^{|S|} g^{-1} e_S) at a
generic point g of the cycle, over the nonempty proper S of [n]
(groups._inverse_vals).  Genericity: the points of either side are products
whose coefficients are drawn at random, and each D_S is the least valuation
of a family of minors, polynomials in those coefficients.  At any point a
leading term can only cancel, never appear, so D_S there is at least its
generic value, with equality off a proper closed subset.  The least D_S over
a few seeded points is therefore the generic value unless every point falls
in that subset.  With these seeds, one point per side leaves 3 of the 100
nodes unmatched, and two or three points match them all.  The Y~ side also
has an exact datum, with no sampling: min-plus walks at c~
(mvpolytope.exact_bz), which must equal the sampled one.

The paper relates the varieties of Lusztig's parametrization to MV cycles.
Kamnitzer (loc. cit.): the Lusztig datum of b along a reduced word of w_0 is
the list of edge lengths of b's MV polytope along that word's path, so one
cell datum per node gives the tropical map's Lusztig datum of its string
along every word (mvpolytope.edge_lengths states the formula and its
conventions).
"""

import random
from functools import cached_property
from itertools import combinations

import pytest

from mvcrystals import verify
from mvcrystals.affine import build_gallery_type
from mvcrystals.crystal import string_param_from_c, string_parameters
from mvcrystals.gallery import Gallery, enumerate_ls
from mvcrystals.looplab import LoopGroup
from mvcrystals.looplab.groups import _inverse_vals
from mvcrystals.looplab.sampling import cell_point, lusztig_from_string, random_unit_series
from mvcrystals.rootdata import Coweight, build_root_datum
from mvpolytope import edge_lengths, exact_bz, subsets

POINTS = 3  # seeded points per side; the least value is the generic one

CASES = [("A", 2, (1, 1), (1, 2, 1)), ("A", 2, (1, 1), (2, 1, 2)),
         ("A", 2, (2, 2), (1, 2, 1)), ("A", 2, (2, 2), (2, 1, 2)),
         ("A", 3, (1, 1, 1), (1, 2, 1, 3, 2, 1)), ("A", 3, (1, 1, 1), (2, 1, 3, 2, 1, 3))]


def generic_bz(n, points):
    """The least D_S over the points, for every nonempty proper S of [n]."""
    family = [((S, tuple(r for r in range(n) if r not in S)),) for S in subsets(n)]
    return tuple(map(min, zip(*(_inverse_vals(g, family) for g in points))))


def setting(series, rank, lam):
    """The group, the crystal of lam and the translation t^{-w_0 lam}."""
    datum, lam = build_root_datum(series, rank), Coweight(lam)
    group = LoopGroup(datum)
    graph = enumerate_ls(build_gallery_type(datum, lam))
    return group, graph, group.gen_t(-datum.longest_element().act_coweight(lam))


def cell_cycles(group, graph, shift):
    """For each node delta, the generic BZ datum of t^{-w_0 lam} C(delta)."""
    return {node: generic_bz(group.n, [
        shift * cell_point(group, node, random.Random(repr(("cell", k, t))))
        for t in range(POINTS)]) for k, node in enumerate(graph.nodes)}


def ytilde_cycles(group, graph, word):
    """For each node delta, the generic BZ datum of Y~_{word, string(delta)}."""
    ytilde = {}
    for k, node in enumerate(graph.nodes):
        c = string_parameters(graph, node, word).c
        c_tilde = string_param_from_c(group.datum, word, c).c_tilde
        rngs = [random.Random(repr(("ytilde", k, t))) for t in range(POINTS)]
        ytilde[node] = generic_bz(group.n, [
            group.y_product(word, [random_unit_series(rng).shift(ct) for ct in c_tilde])
            for rng in rngs])
    return ytilde


def cycles(series, rank, lam, word):
    """The crystal of lam, and for each node delta the generic BZ datum of
    t^{-w_0 lam} C(delta) and of Y~_{word, string(delta)}."""
    group, graph, shift = setting(series, rank, lam)
    return graph, cell_cycles(group, graph, shift), ytilde_cycles(group, graph, word)


@pytest.mark.parametrize("series, rank, lam, word", CASES,
                         ids=[f"{s}{r}-{lam}-{''.join(map(str, w))}" for s, r, lam, w in CASES])
def test_the_cell_of_each_gallery_has_the_cycle_of_ytilde_of_its_string(series, rank, lam,
                                                                        word):
    graph, cell, ytilde = cycles(series, rank, lam, word)
    assert [graph.node_id(n) for n in graph.nodes if cell[n] != ytilde[n]] == []
    # control: the cycles of two nodes of one weight differ, so matching the
    # weight alone does not pass
    twins = [(a, b) for a, b in combinations(graph.nodes, 2) if a.weight == b.weight]
    assert twins and all(cell[a] != ytilde[b] and cell[b] != ytilde[a] for a, b in twins)


@pytest.mark.parametrize("series, rank, lam, word", CASES,
                         ids=[f"{s}{r}-{lam}-{''.join(map(str, w))}" for s, r, lam, w in CASES])
def test_the_exact_datum_of_each_string_is_the_sampled_ytilde_datum(series, rank, lam, word):
    # the min-plus walks at c~ give Y~'s BZ datum with no sampling (mvpolytope).
    # Planted fault: the string c in place of c~ misses most nodes
    group, graph, _ = setting(series, rank, lam)
    ytilde = ytilde_cycles(group, graph, word)
    strings = {node: string_parameters(graph, node, word) for node in graph.nodes}
    assert [graph.node_id(v) for v in graph.nodes
            if exact_bz(group.n, word, strings[v].c_tilde) != ytilde[v]] == []
    missed = sum(exact_bz(group.n, word, strings[v].c) != ytilde[v] for v in graph.nodes)
    assert missed > len(graph.nodes) // 2, missed


def reverse_cell_products(monkeypatch):
    """Planted fault: cell_point multiplies the steps' root subgroups last
    step first."""
    real = Gallery.phi_plus.func
    reversed_steps = cached_property(lambda g: real(g)[::-1])
    reversed_steps.__set_name__(Gallery, "phi_plus")
    monkeypatch.setattr(Gallery, "phi_plus", reversed_steps)


def test_a_reversed_cell_product_is_caught_here_and_missed_by_criteria_7_to_9(monkeypatch):
    # the reversed cell points are still t^nu times U^+(K), so mu_+ stays the
    # weight and criteria 7-9 pass; the cycle itself has moved
    reverse_cell_products(monkeypatch)
    for crit in (verify.crit_7_ytilde_sampling, verify.crit_8_cell_sampling,
                 verify.crit_9_crystal_op):
        assert crit({})[0], crit.__name__
    graph, cell, ytilde = cycles("A", 2, (2, 2), (1, 2, 1))
    assert sum(cell[n] != ytilde[n] for n in graph.nodes) > 10


OP_CASES = [("A", 2, (1, 1)), ("A", 2, (2, 2)), ("A", 2, (2, 1)),
            ("A", 3, (1, 1, 1)), ("A", 3, (1, 2, 1))]


@pytest.mark.parametrize("series, rank, lam", OP_CASES,
                         ids=[f"{s}{r}-{lam}" for s, r, lam in OP_CASES])
def test_y_i_of_valuation_eps_minus_one_moves_each_cell_onto_the_cell_of_e_i(series, rank, lam):
    # the paper's crystal operator on cycles: for val p = -1 + eps_i(delta),
    # y_i(p) C(delta) is dense in the cycle of e_i delta.  Control: with val p
    # one higher, no pair matches
    group, graph, shift = setting(series, rank, lam)
    cell = cell_cycles(group, graph, shift)
    pairs = [(k, node, i) for k, node in enumerate(graph.nodes) for i in graph.colors
             if graph.e(node, i) is not None]
    assert pairs
    for lift, want in ((0, len(pairs)), (1, 0)):
        matched = 0
        for k, node, i in pairs:
            val = -1 + graph.eps[(node, i)] + lift
            points = []
            for t in range(POINTS):
                rng = random.Random(repr(("op", k, i, t)))
                g = cell_point(group, node, rng)
                points.append(shift * group.gen_y(i, random_unit_series(rng).shift(val)) * g)
            matched += generic_bz(group.n, points) == cell[graph.e(node, i)]
        assert matched == want, (lift, matched, len(pairs))


LUSZTIG_CASES = [("A", 2, (1, 1)), ("A", 2, (2, 1)), ("A", 2, (2, 2)), ("A", 3, (1, 1, 1))]


def lusztig_data(group, graph, words):
    """lusztig_from_string of each node's string, for each word."""
    return {word: {node: lusztig_from_string(group, word,
                                             string_parameters(graph, node, word).c_tilde)
                   for node in graph.nodes} for word in words}


@pytest.mark.parametrize("series, rank, lam", LUSZTIG_CASES,
                         ids=[f"{s}{r}-{lam}" for s, r, lam in LUSZTIG_CASES])
def test_lusztig_data_are_the_edge_lengths_of_each_cell(series, rank, lam):
    # one cell datum per node gives its Lusztig datum along every reduced word
    # of w_0 (both words in A2, all 16 in A3)
    group, graph, shift = setting(series, rank, lam)
    datum = group.datum
    cell = cell_cycles(group, graph, shift)
    words = datum.enumerate_reduced_words(datum.longest_element())
    twins = [(a, b) for a, b in combinations(graph.nodes, 2) if a.weight == b.weight]
    for word, lusztig in lusztig_data(group, graph, words).items():
        assert [graph.node_id(v) for v in graph.nodes
                if edge_lengths(datum, cell[v], word) != lusztig[v]] == [], word
        # control: a same-weight twin's cell gives another datum
        assert all(edge_lengths(datum, cell[b], word) != lusztig[a] and
                   edge_lengths(datum, cell[a], word) != lusztig[b] for a, b in twins), word
    assert twins or lam == (2, 1)  # 3 omega_1 has no repeated weight


def test_a_reversed_cell_product_breaks_the_edge_lengths(monkeypatch):
    # the reversed cell product moves the cells, so their edge lengths miss
    # the Lusztig data (26 of 54 pairs)
    group, graph, shift = setting("A", 2, (2, 2))
    words = group.datum.enumerate_reduced_words(group.datum.longest_element())
    lusztig = lusztig_data(group, graph, words)
    reverse_cell_products(monkeypatch)
    cell = cell_cycles(group, graph, shift)
    missed = sum(edge_lengths(group.datum, cell[v], word) != lusztig[word][v]
                 for word in words for v in graph.nodes)
    assert missed > 10, missed
