"""The paper's main statement in identity form: the cell of each LS gallery
and Y~ of its string have the same closure, after a translation.

Gaussent and Littelmann (Duke Math. J. 127, 2005): the cell C(delta) of an LS
gallery delta is dense in the MV cycle of delta.  The paper: Y~_{i,c} is dense
in the MV cycle of the crystal element with string parameter c along the
reduced word i of w_0, and the Gaussent-Littelmann bijection is a crystal
isomorphism.  Together: t^{-w_0 lambda} C(delta) and Y~_{i, string(delta)}
have one closure.

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
nodes unmatched, and two or three points match them all.
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
from mvcrystals.looplab.sampling import cell_point, random_unit_series
from mvcrystals.rootdata import Coweight, build_root_datum

POINTS = 3  # seeded points per side; the least value is the generic one

CASES = [("A", 2, (1, 1), (1, 2, 1)), ("A", 2, (1, 1), (2, 1, 2)),
         ("A", 2, (2, 2), (1, 2, 1)), ("A", 2, (2, 2), (2, 1, 2)),
         ("A", 3, (1, 1, 1), (1, 2, 1, 3, 2, 1)), ("A", 3, (1, 1, 1), (2, 1, 3, 2, 1, 3))]


def generic_bz(n, points):
    """The least D_S over the points, for every nonempty proper S of [n]."""
    family = [(S,) for k in range(1, n) for S in combinations(range(n), k)]
    return tuple(map(min, zip(*(_inverse_vals(g, family) for g in points))))


def cycles(series, rank, lam, word):
    """The crystal of lam, and for each node delta the generic BZ datum of
    t^{-w_0 lam} C(delta) and of Y~_{word, string(delta)}."""
    datum, lam = build_root_datum(series, rank), Coweight(lam)
    group = LoopGroup(datum)
    graph = enumerate_ls(build_gallery_type(datum, lam))
    shift = group.gen_t(-datum.longest_element().act_coweight(lam))
    cell, ytilde = {}, {}
    for k, node in enumerate(graph.nodes):
        cell[node] = generic_bz(group.n, [
            shift * cell_point(group, node, random.Random(repr(("cell", k, t))))
            for t in range(POINTS)])
        c = string_parameters(graph, node, word).c
        c_tilde = string_param_from_c(datum, word, c).c_tilde
        rngs = [random.Random(repr(("ytilde", k, t))) for t in range(POINTS)]
        ytilde[node] = generic_bz(group.n, [
            group.y_product(word, [random_unit_series(rng).shift(ct) for ct in c_tilde])
            for rng in rngs])
    return graph, cell, ytilde


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


def test_a_reversed_cell_product_is_caught_here_and_missed_by_criteria_7_to_9(monkeypatch):
    # planted fault: cell_point multiplies the steps' root subgroups last step
    # first.  Its points are still t^nu times U^+(K), so mu_+ stays the weight
    # and criteria 7-9 pass; the cycle itself has moved
    real = Gallery.phi_plus.func
    reversed_steps = cached_property(lambda g: real(g)[::-1])
    reversed_steps.__set_name__(Gallery, "phi_plus")
    monkeypatch.setattr(Gallery, "phi_plus", reversed_steps)
    for crit in (verify.crit_7_ytilde_sampling, verify.crit_8_cell_sampling,
                 verify.crit_9_crystal_op):
        assert crit({})[0], crit.__name__
    graph, cell, ytilde = cycles("A", 2, (2, 2), (1, 2, 1))
    assert sum(cell[n] != ytilde[n] for n in graph.nodes) > 10
