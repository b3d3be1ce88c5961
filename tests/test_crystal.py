import random
import re
import signal
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from mvcrystals.affine import build_gallery_type
from mvcrystals.crystal import (
    CrystalError,
    CrystalGraph,
    character,
    crystal_isomorphic,
    expected_character,
    string_param_from_c,
    string_param_from_c_tilde,
    string_parameters,
    validate_axioms,
    weyl_dimension,
)
from mvcrystals.gallery import enumerate_ls, stable_string
from mvcrystals.rootdata import Coweight, RootDataError, build_root_datum
from reference import rho_coweight

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)
B2 = build_root_datum("B", 2)
G2 = build_root_datum("G", 2)


def ls_graph(datum, coords, word=None):
    return enumerate_ls(build_gallery_type(datum, Coweight(coords), word=word))


@pytest.fixture(scope="module")
def a1_graph():
    return ls_graph(A1, (1,))


@pytest.fixture(scope="module")
def theta_graph():
    return ls_graph(A2, (1, 1))


def test_validate_axioms_clean(a1_graph, theta_graph):
    assert validate_axioms(a1_graph) == []
    assert validate_axioms(theta_graph) == []


def test_validate_axioms_single_node():
    g = ls_graph(A2, (0, 0))
    assert validate_axioms(g) == []
    assert len(g.nodes) == 1


def test_validate_axioms_negative_control(a1_graph):
    import copy

    broken = copy.copy(a1_graph)
    broken.eps = dict(a1_graph.eps)
    node = a1_graph.nodes[1]
    broken.eps[(node, 1)] = a1_graph.eps[(node, 1)] + 1
    assert validate_axioms(broken) != []


def test_validate_axioms_reports_a_cyclic_string():
    # f_1(a) = b and f_1(b) = a: the strings never end, so no eps/phi can
    # match their lengths; a walk that followed them would never return
    a, b = "a", "b"
    av = A1.simple_coroot(1)
    graph = CrystalGraph(datum=A1, nodes=(a, b), wt={a: av, b: -av},
                         f_map={(a, 1): b, (b, 1): a}, e_map={(b, 1): a, (a, 1): b},
                         eps={(a, 1): 0, (b, 1): 2}, phi={(a, 1): 2, (b, 1): 0})

    def hung(signum, frame):
        raise TimeoutError("validate_axioms did not return on a cyclic string")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        bad = validate_axioms(graph)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for node in (0, 1):
        assert f"eps_1 != e-string length at {node}" in bad
        assert f"phi_1 != f-string length at {node}" in bad


def test_character_examples(a1_graph, theta_graph):
    av = A1.simple_coroot(1)
    assert character(a1_graph) == Counter({av: 1, A1.zero_coweight(): 1, -av: 1})
    ch = character(theta_graph)
    assert sum(ch.values()) == 8
    assert ch[A2.zero_coweight()] == 2


def test_expected_character_oracle():
    # sl2: dimension 3 for alpha^vee
    ch = expected_character(A1, Coweight((1,)))
    assert sum(ch.values()) == 3
    # adjoint of sl3: dimension 8, zero weight twice
    ch = expected_character(A2, Coweight((1, 1)))
    assert sum(ch.values()) == 8
    assert ch[A2.zero_coweight()] == 2
    assert ch[Coweight((1, 1))] == 1


def test_weyl_dimensions_known():
    assert weyl_dimension(A2, Coweight((1, 1))) == 8
    assert weyl_dimension(A2, Coweight((2, 2))) == 27
    assert weyl_dimension(A3, Coweight((1, 1, 1))) == 15
    # B2 theta^vee pairs to (0,1) on the dual (C2) side: the 5-dim Sp4 module
    assert weyl_dimension(B2, Coweight((1, 1))) == 5
    assert weyl_dimension(G2, Coweight((1, 2))) == 7
    assert weyl_dimension(G2, Coweight((2, 3))) == 14


def test_weyl_dimension_needs_a_coweight_lattice_point():
    # <alpha_2, (1/2, 1)> = 3/2: the product formula would give 35/8
    lam = Coweight((Fraction(1, 2), 1))
    with pytest.raises(RootDataError, match=re.escape("(1/2, 1) is not in the coweight lattice "
                                                      "of A2")):
        weyl_dimension(A2, lam)
    # omega_1^vee is off the coroot lattice but on the coweight lattice
    omega = A2.fundamental_coweight(1)
    assert omega.coords == (Fraction(2, 3), Fraction(1, 3))
    assert weyl_dimension(A2, omega) == 3


def ref_dual_form(datum):
    """The W-invariant form on coweights as rationals, normalised to
    (alpha_1^vee, alpha_1^vee) = 2 and propagated along Dynkin edges."""
    r, c = datum.rank, datum.cartan
    e = [Fraction(1)] + [None] * (r - 1)
    while None in e:
        for i, j in product(range(r), repeat=2):
            if i != j and c[i][j] and e[i] is not None and e[j] is None:
                e[j] = e[i] * Fraction(c[i][j], c[j][i])
    return [[e[j] * c[j][i] for i in range(r)] for j in range(r)]


def ref_form(bmat, x, y):
    return sum(bmat[i][j] * x[i] * y[j] for i in range(len(bmat)) for j in range(len(bmat)))


def ref_weyl_dimension(datum, lam):
    """prod over alpha > 0 of (lam + rho, alpha^vee) / (rho, alpha^vee), rationally."""
    bmat, rho = ref_dual_form(datum), rho_coweight(datum)
    num = den = Fraction(1)
    for co in datum.positive_coroots:
        num *= ref_form(bmat, (lam + rho).coords, co.coords)
        den *= ref_form(bmat, rho.coords, co.coords)
    return num / den


def ref_expected_character(datum, lam):
    """Freudenthal with |lam + rho|^2 - |mu + rho|^2 in rationals, over the
    dominant weights below lam, spread over their W-orbits."""
    bmat, rho = ref_dual_form(datum), rho_coweight(datum)
    box = (lam - datum.longest_element().act_coweight(lam)).coords
    dominants = sorted((lam - Coweight(d) for d in product(*(range(b + 1) for b in box))
                        if datum.is_dominant(lam - Coweight(d))),
                       key=lambda mu: (-sum(mu.coords), mu.coords))

    def norm(x):
        return ref_form(bmat, (x + rho).coords, (x + rho).coords)

    mult = {lam: 1}
    for mu in dominants[1:]:
        acc = Fraction(0)
        for co in datum.positive_coroots:
            k = 1
            while datum.dominance_leq(mu + co.scale(k), lam):
                x = mu + co.scale(k)
                acc += mult.get(datum.dominant_conjugate(x), 0) * ref_form(bmat, x.coords,
                                                                             co.coords)
                k += 1
        mult[mu] = 2 * acc / (norm(lam) - norm(mu))
    return Counter({w.act_coweight(mu): m for mu, m in mult.items() if m
                    for w in datum.weyl_elements()})


ALL_DATA = [build_root_datum(s, r) for s, r in (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2))]


@pytest.mark.parametrize("datum", ALL_DATA, ids=lambda d: f"{d.series}{d.rank}")
def test_integer_freudenthal_matches_the_rational_form(datum):
    # every dominant lam = sum n_i omega_i^vee with sum n_i <= 4 for the Weyl
    # dimension; for Freudenthal, the coroot-lattice ones of height <= 4 and
    # those with sum n_i <= 2, which reach past 0 in every rank-4 datum
    lams = []
    for n in product(range(5), repeat=datum.rank):
        if sum(n) > 4:
            continue
        lam = sum((datum.fundamental_coweight(i).scale(k) for i, k in enumerate(n, 1)),
                  datum.zero_coweight())
        assert weyl_dimension(datum, lam) == ref_weyl_dimension(datum, lam), lam
        if lam.is_integral() and (sum(lam.coords) <= 4 or sum(n) <= 2):
            lams.append(datum.lattice_coweight(lam))
    assert len(lams) > 2
    for lam in lams:
        assert expected_character(datum, lam) == ref_expected_character(datum, lam), lam


def test_character_matches_oracle_small_suite():
    cases = [(A1, (1,)), (A1, (2,)), (A2, (1, 1)), (A2, (2, 1)),
             (A3, (1, 1, 1)), (B2, (1, 1)), (B2, (2, 1))]
    for datum, coords in cases:
        graph = ls_graph(datum, coords)
        assert character(graph) == expected_character(datum, Coweight(coords))


@pytest.mark.parametrize("series", "ABCD", ids=lambda s: f"{s}5")
def test_theta_vee_crystals_of_rank_5(series):
    # data the Dynkin-diagram builder added: the dual groups' adjoint module
    # in A5 and D5, Sp10's Lambda^2_0 in B5 and SO11's vector module in C5
    datum = build_root_datum(series, 5)
    lam = datum.coroot_of(datum.highest_root)
    graph = ls_graph(datum, lam.coords)
    dim = {"A": 35, "B": 44, "C": 11, "D": 45}[series]
    assert len(graph.nodes) == weyl_dimension(datum, lam) == dim
    assert validate_axioms(graph) == []
    assert character(graph) == expected_character(datum, lam)


def test_string_parameters_examples(a1_graph):
    low = a1_graph.lowest_node()
    sp = string_parameters(a1_graph, low, (1,))
    assert sp.c == (0,)
    high = a1_graph.highest_node()
    sp = string_parameters(a1_graph, high, (1,))
    assert sp.c == (2,)
    assert sp.c_tilde == (-2,)


def test_string_parameters_weight_bookkeeping(theta_graph):
    w0lam = A2.longest_element().act_coweight(Coweight((1, 1)))
    for node in theta_graph.nodes:
        for word in ((1, 2, 1), (2, 1, 2)):
            sp = string_parameters(theta_graph, node, word)
            drop = A2.zero_coweight()
            for j, i in enumerate(word):
                drop = drop + A2.simple_coroot(i).scale(sp.c[j])
            assert theta_graph.wt[node] - w0lam == drop


def test_string_parameters_injective(theta_graph):
    for word in ((1, 2, 1), (2, 1, 2)):
        seen = {string_parameters(theta_graph, node, word).c
                for node in theta_graph.nodes}
        assert len(seen) == len(theta_graph.nodes)


def test_string_parameters_bad_word(theta_graph):
    with pytest.raises(CrystalError):
        string_parameters(theta_graph, theta_graph.nodes[0], (1, 2))
    with pytest.raises(CrystalError):
        string_parameters(theta_graph, theta_graph.nodes[0], (1, 2, 1, 2))


def test_c_tilde_roundtrip_random():
    rng = random.Random(11)
    for _ in range(1000):
        word = (1, 2, 1) if rng.random() < 0.5 else (2, 1, 2)
        c = tuple(rng.randint(-20, 20) for _ in word)
        sp = string_param_from_c(A2, word, c)
        back = string_param_from_c_tilde(A2, word, sp.c_tilde)
        assert back.c == c and back.c_tilde == sp.c_tilde


def test_stable_string_lowest():
    def selector(graph):
        return graph.lowest_node()

    sp = stable_string(A1, [Coweight((1,)), Coweight((2,))], selector, (1,))
    assert sp.c == (0,)


def test_stable_string_sl2_bound():
    # the node e^k(lowest) has string (k) in every B(lam) with <alpha,lam> >= k
    k = 2

    def selector(graph):
        node = graph.lowest_node()
        for _ in range(k):
            node = graph.e(node, 1)
        return node

    lams = [Coweight((2,)), Coweight((3,)), Coweight((4,))]
    sp = stable_string(A1, lams, selector, (1,))
    assert sp.c == (k,)


def test_stable_string_no_stabilization():
    # the highest node never matches between consecutive levels
    def selector(graph):
        return graph.highest_node()

    with pytest.raises(CrystalError):
        stable_string(A1, [Coweight((1,)), Coweight((2,)), Coweight((3,))],
                      selector, (1,))


def test_isomorphic_self(theta_graph):
    m = crystal_isomorphic(theta_graph, theta_graph)
    assert all(m[b] == b for b in theta_graph.nodes)


def test_isomorphic_two_words_same_wlam():
    # both reduced words of w_lambda for lam = 2 theta^vee give B(lam)
    g1 = ls_graph(A2, (2, 2), word=(0, 1, 2, 1, 0))
    g2 = ls_graph(A2, (2, 2), word=(0, 2, 1, 2, 0))
    m = crystal_isomorphic(g1, g2)
    assert len(m) == 27
    for b, c in m.items():
        assert g1.wt[b] == g2.wt[c]


def test_isomorphic_failure_different_weights(a1_graph):
    g2 = ls_graph(A1, (2,))
    with pytest.raises(CrystalError):
        crystal_isomorphic(a1_graph, g2)


# -- the matcher's and the descent's refusals, each on a small hand-built graph

def hand_graph(datum, wt, edges, phi=None):
    """A CrystalGraph on the nodes of wt (node -> coweight coordinates) whose
    f_i edges are the (b, i, c) of edges and e_i their reverses; eps is empty
    and phi is the given dict, as neither the matcher nor the descent reads
    the rest."""
    return CrystalGraph(datum, tuple(wt), {b: Coweight(w) for b, w in wt.items()},
                        {(b, i): c for b, i, c in edges}, {(c, i): b for b, i, c in edges},
                        {}, phi or {})


A1_EDGE = {"a": (1,), "b": (-1,)}
# f_1 and f_2 out of a meet at d, through b and through c
A2_DIAMOND_WT = {"a": (1, 1), "b": (0, 1), "c": (1, 0), "d": (0, 0)}
A2_DIAMOND = [("a", 1, "b"), ("a", 2, "c"), ("b", 2, "d"), ("c", 1, "d")]


def test_isomorphic_refuses_f_defined_on_one_side_only():
    g1, g2 = hand_graph(A1, A1_EDGE, [("a", 1, "b")]), hand_graph(A1, {"a": (1,)}, [])
    with pytest.raises(CrystalError, match=r"^f_1 defined on one side only at node 0$"):
        crystal_isomorphic(g1, g2)


def test_isomorphic_refuses_a_weight_mismatch_along_f():
    g1 = hand_graph(A1, A1_EDGE, [("a", 1, "b")])
    g2 = hand_graph(A1, {"a": (1,), "b": (0,)}, [("a", 1, "b")])
    with pytest.raises(CrystalError, match=r"^weight mismatch along f_1$"):
        crystal_isomorphic(g1, g2)


def test_isomorphic_refuses_an_edge_mismatch():
    # in g2 the path through c ends at e, a copy of d
    g1 = hand_graph(A2, A2_DIAMOND_WT, A2_DIAMOND)
    g2 = hand_graph(A2, {**A2_DIAMOND_WT, "e": (0, 0)}, A2_DIAMOND[:3] + [("c", 1, "e")])
    with pytest.raises(CrystalError, match=r"^edge mismatch at color 1$"):
        crystal_isomorphic(g1, g2)


def test_isomorphic_refuses_crystals_of_different_sizes():
    # z hangs below a by e_1 only, so no f-edge reaches it from the source
    g1 = hand_graph(A1, A1_EDGE, [("a", 1, "b")])
    g2 = hand_graph(A1, {**A1_EDGE, "z": (-1,)}, [("a", 1, "b")])
    g2.e_map["z", 1] = "a"
    with pytest.raises(CrystalError, match=r"^crystals have different sizes$"):
        crystal_isomorphic(g1, g2)


def test_highest_node_refuses_two_sources():
    with pytest.raises(CrystalError, match=r"^expected one source node, found 2$"):
        hand_graph(A1, A1_EDGE, []).highest_node()


def test_string_parameters_refuse_a_descent_short_of_the_lowest_node():
    graph = hand_graph(A1, A1_EDGE, [("a", 1, "b")], phi={("a", 1): 0})
    with pytest.raises(CrystalError,
                       match=r"^string descent did not reach the lowest-weight node$"):
        string_parameters(graph, "a", (1,))


def test_contragredient_node_a1(a1_graph):
    flip = crystal_isomorphic(a1_graph, a1_graph.dual())
    high, low = a1_graph.highest_node(), a1_graph.lowest_node()
    assert flip[high] == low
    assert flip[low] == high
    mid = a1_graph.e(low, 1)
    assert flip[mid] == mid


def test_contragredient_negates_weight(theta_graph):
    # -w0 lam = lam here, so the flip lands in the same crystal
    flip = crystal_isomorphic(theta_graph, theta_graph.dual())
    for node in theta_graph.nodes:
        assert theta_graph.wt[flip[node]] == -theta_graph.wt[node]


@pytest.mark.parametrize("series,rank,coords,size", [
    ("A", 2, (2, 1), 10), ("A", 3, (1, 2, 2), 45), ("B", 2, (2, 1), 10),
    ("C", 3, (1, 2, 2), 21), ("D", 4, (1, 2, 1, 1), 28), ("G", 2, (1, 2), 7),
])
def test_dual_crystal_is_the_crystal_of_minus_w0_lambda(series, rank, coords, size):
    # Kashiwara's dual B(lam)^vee (e and f, eps and phi swapped, weights
    # negated) is a normal crystal isomorphic to B(-w0 lam)
    datum = build_root_datum(series, rank)
    graph = ls_graph(datum, coords)
    dual = graph.dual()
    assert validate_axioms(dual) == []
    twin = tuple(-a for a in datum.longest_element().act_point(coords))
    match = crystal_isomorphic(dual, ls_graph(datum, twin))
    assert len(match) == len(graph.nodes) == size


def test_dual_of_a2_21_is_not_b21():
    # -w0 (2, 1) = (1, 2) on A2: the dual's source is the lowest node, of weight (1, 2)
    graph = ls_graph(A2, (2, 1))
    with pytest.raises(CrystalError, match=re.escape("source weights differ: (1, 2) vs (2, 1)")):
        crystal_isomorphic(graph.dual(), graph)


def test_tensor_shift_bookkeeping(theta_graph):
    # eps_i of the B(-infty) component of iota(x) is eps_i(x) + <alpha_i, w0 lam>
    # and phi is unchanged; realized here through string re-basing: phi values
    # of matching nodes agree between two tower levels.
    g_small = ls_graph(A1, (1,))
    g_big = ls_graph(A1, (2,))
    # low-based matching: nodes with equal strings
    for node in g_small.nodes:
        c = string_parameters(g_small, node, (1,)).c
        matches = [m for m in g_big.nodes
                   if string_parameters(g_big, m, (1,)).c == c]
        assert len(matches) == 1
        m = matches[0]
        assert g_small.phi[(node, 1)] == g_big.phi[(m, 1)]
        shift_small = A1.pairing(A1.simple_root(1),
                                 A1.longest_element().act_coweight(Coweight((1,))))
        shift_big = A1.pairing(A1.simple_root(1),
                               A1.longest_element().act_coweight(Coweight((2,))))
        assert g_small.eps[(node, 1)] + shift_small == g_big.eps[(m, 1)] + shift_big
