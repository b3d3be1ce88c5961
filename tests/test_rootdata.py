import copy
import gc
import math
import operator
import random
import re
import weakref
from fractions import Fraction
from itertools import product

import pytest

from mvcrystals.affine import minimal_word
from mvcrystals.rootdata import Coweight, Root, RootDataError, RootDatum, build_root_datum
from reference import act_root, rho_coweight


A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)
B2 = build_root_datum("B", 2)
G2 = build_root_datum("G", 2)


# every datum build_root_datum builds
BUILT = [("A", n) for n in range(1, 7)] + [(s, n) for s in "BC" for n in range(2, 7)] + \
    [("D", n) for n in range(4, 7)] + [("G", 2)]


def plate(series, n):
    """|Phi_+| and the highest root's coordinates, from the Bourbaki plates in
    this module's numbering (Bourbaki's): B_n's last simple root is short,
    C_n's is long, D_n's nodes n-1 and n hang on n-2 and G2's alpha_1 is short."""
    return {
        "A": (n * (n + 1) // 2, (1,) * n),
        "B": (n * n, (1,) + (2,) * (n - 1)),
        "C": (n * n, (2,) * (n - 1) + (1,)),
        "D": (n * (n - 1), (1,) + (2,) * (n - 3) + (1, 1)),
        "G": (6, (3, 2)),
    }[series]


def weyl_order(series, n):
    """|W| from the plates: (n+1)!, 2^n n!, 2^(n-1) n! and 12."""
    return {"A": math.factorial(n + 1), "B": 2 ** n * math.factorial(n),
            "C": 2 ** n * math.factorial(n), "D": 2 ** (n - 1) * math.factorial(n),
            "G": 12}[series]


def test_positive_root_counts():
    # the root closure against the plates; no W table is built
    for series, rank in BUILT:
        count, theta = plate(series, rank)
        datum = build_root_datum(series, rank)
        assert len(datum.positive_roots) == count, (series, rank)
        assert datum.highest_root.coords == theta, (series, rank)
        for rt in datum.positive_roots + tuple(-rt for rt in datum.positive_roots):
            assert datum.pairing(rt, datum.coroot_of(rt)) == 2, (series, rank, rt)


def broken_root_facts(datum):
    """The facts the root closure rests on that datum's fields break, read
    with no W table: "coroots" (coroot_of commutes with every simple
    reflection, s_i beta = beta - <beta, alpha_i^vee> alpha_i by column i of
    C and s_i x = x - <alpha_i, x> alpha_i^vee by row i, and positive_coroots
    matches positive_roots), "closure" (the roots are +-positive_roots),
    "highest" (highest_root is the one positive root of greatest height) and
    "dominant" (<highest_root, alpha_i^vee> >= 0 for every i)."""
    c, coroot_of, broken = datum.cartan, datum._coroot_of, []

    def reflect(x, i, pair):
        return x[:i] + (x[i] - pair,) + x[i + 1:]

    for rt, co in coroot_of.items():
        for i in range(datum.rank):
            s_rt = reflect(rt.coords, i, sum(a * row[i] for a, row in zip(rt.coords, c)))
            s_co = reflect(co.coords, i, sum(map(operator.mul, c[i], co.coords)))
            if coroot_of.get(Root(s_rt)) != Coweight(s_co):
                broken.append("coroots")
    if datum.positive_coroots != tuple(coroot_of.get(rt) for rt in datum.positive_roots):
        broken.append("coroots")
    if set(coroot_of) != set(datum.positive_roots) | {-rt for rt in datum.positive_roots}:
        broken.append("closure")
    top = max(sum(rt.coords) for rt in datum.positive_roots)
    if [rt for rt in datum.positive_roots if sum(rt.coords) == top] != [datum.highest_root]:
        broken.append("highest")
    if any(sum(a * row[i] for a, row in zip(datum.highest_root.coords, c)) < 0
           for i in range(datum.rank)):
        broken.append("dominant")
    return sorted(set(broken))


@pytest.mark.parametrize("series,rank", BUILT, ids=[f"{s}{r}" for s, r in BUILT])
def test_every_built_datum_keeps_the_root_facts(series, rank):
    # the closure builds these facts without checking them, so each of the 20
    # data is checked here, on a datum of its own that builds no W table
    datum = RootDatum(series, rank)
    assert broken_root_facts(datum) == []
    assert datum._weyl is None


def doctored(datum, **fields):
    out = copy.copy(datum)
    for name, value in fields.items():
        setattr(out, name, value)
    return out


def test_the_root_facts_refuse_a_doctored_datum():
    roots, coroot_of = A3.positive_roots, A3._coroot_of
    assert broken_root_facts(doctored(A3, highest_root=roots[-2])) == ["dominant", "highest"]
    assert broken_root_facts(doctored(B2, highest_root=B2.positive_roots[-2])) == ["highest"]
    swapped = dict(coroot_of)
    swapped[roots[0]], swapped[roots[1]] = coroot_of[roots[1]], coroot_of[roots[0]]
    assert "coroots" in broken_root_facts(doctored(A3, _coroot_of=swapped))
    dropped = {rt: co for rt, co in coroot_of.items() if rt != -roots[-1]}
    assert "closure" in broken_root_facts(doctored(A3, _coroot_of=dropped))


def test_a2_positive_roots_explicit():
    coords = {rt.coords for rt in A2.positive_roots}
    assert coords == {(1, 0), (0, 1), (1, 1)}


def test_rank1_theta_and_marks():
    assert A1.highest_root == A1.simple_root(1)
    assert A1.marks == (1,)


def test_g2_marks():
    assert G2.highest_root.coords == (3, 2)
    assert G2.marks == (3, 2)


# the Cartan matrices of the per-series table the Dynkin-diagram builder
# replaced, pinned for the 12 data it built
TABLED = {
    ("A", 1): ((2,),),
    ("A", 2): ((2, -1), (-1, 2)),
    ("A", 3): ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    ("A", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    ("B", 2): ((2, -2), (-1, 2)),
    ("B", 3): ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    ("B", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
    ("C", 2): ((2, -1), (-2, 2)),
    ("C", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("C", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
    ("D", 4): ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    ("G", 2): ((2, -1), (-3, 2)),
}


def test_the_tabled_data_keep_their_cartan_matrices():
    for (series, rank), cartan in TABLED.items():
        assert build_root_datum(series, rank).cartan == cartan, (series, rank)


def test_unsupported_series():
    # B1 = C1 = A1 and D3 = A3 are refused, as are ranks past MAX_RANK = 6
    built = "A1-A6, B2-B6, C2-C6, D4-D6 and G2"
    for series, rank in (("A", 0), ("A", 7), ("B", 1), ("D", 3), ("E", 6), ("G", 3)):
        with pytest.raises(RootDataError, match=re.escape(
                f"unsupported series/rank: {series}{rank}; built are {built}")):
            build_root_datum(series, rank)
    assert build_root_datum("A", 5).rank == build_root_datum("D", 5).rank == 5


# B6, C6 and D6 (46,080, 46,080 and 23,040 elements) take seconds
ORDERED = [d for d in BUILT if d[1] <= 5] + [("A", 6)]


@pytest.mark.parametrize("series,rank", ORDERED, ids=[f"{s}{r}" for s, r in ORDERED])
def test_weyl_group_order(series, rank):
    assert len(build_root_datum(series, rank).weyl_elements()) == weyl_order(series, rank)


def test_cartan_shape_invariants():
    for series, rank in BUILT:
        datum = build_root_datum(series, rank)
        r = datum.rank
        for i in range(r):
            assert datum.cartan[i][i] == 2
            for j in range(r):
                if i != j:
                    assert datum.cartan[i][j] <= 0
                    assert (datum.cartan[i][j] == 0) == (datum.cartan[j][i] == 0)
        assert len(datum.positive_roots) == len(datum.positive_coroots)


def test_pairing_values():
    assert A2.pairing(A2.simple_root(1), A2.simple_coroot(1)) == 2
    assert A2.pairing(A2.simple_root(1), A2.simple_coroot(2)) == -1
    # <theta, rho^vee> in A2: theta = alpha1+alpha2, rho^vee = omega1^vee+omega2^vee
    assert A2.pairing(A2.highest_root, rho_coweight(A2)) == 2


def test_pairing_type_discipline():
    with pytest.raises(TypeError):
        A2.pairing(A2.simple_root(1), A2.simple_root(2))
    with pytest.raises(TypeError):
        A2.pairing(A2.simple_coroot(1), A2.simple_coroot(2))


def test_a_root_and_a_coweight_do_not_add():
    with pytest.raises(TypeError, match="'Root' and 'Coweight'"):
        Root((1, 0)) + Coweight((0, 1))


def test_a_root_is_not_subtracted_from_a_coweight():
    with pytest.raises(TypeError, match="'Coweight' and 'Root'"):
        Coweight((1, 0)) - Root((0, 1))


def test_dominance_leq_refuses_a_root():
    with pytest.raises(TypeError, match=r"^dominance_leq takes \(Coweight, Coweight\); "
                                        r"got \(Root, Coweight\)$"):
        A2.dominance_leq(Root((1, 0)), Coweight((1, 1)))


def test_height_refuses_a_root():
    # height's one check is lattice_coweight's, so the message names it
    with pytest.raises(TypeError, match=r"^lattice_coweight takes \(Coweight\); got \(Root\)$"):
        A2.height(Root((1, 1)))


def test_weyl_act_examples():
    s1 = A2.simple_reflection(1)
    assert s1.act_coweight(A2.simple_coroot(1)) == -A2.simple_coroot(1)
    # s1(alpha2^vee) = alpha1^vee + alpha2^vee in A2
    assert s1.act_coweight(A2.simple_coroot(2)) == Coweight((1, 1))
    # w0(rho^vee) = -rho^vee
    for datum in (A2, A3, B2, G2):
        w0 = datum.longest_element()
        assert w0.act_coweight(rho_coweight(datum)) == -rho_coweight(datum)


def test_weyl_lengths():
    assert A2.identity_elt().length == 0
    assert A2.longest_element().length == 3
    assert A3.longest_element().length == 6
    assert len(A2.weyl_elements()) == 6
    assert len(A3.weyl_elements()) == 24
    assert len(B2.weyl_elements()) == 8
    assert len(G2.weyl_elements()) == 12


def test_reduced_words():
    assert A2.enumerate_reduced_words(A2.identity_elt()) == ((),)
    w0 = A2.longest_element()
    assert set(A2.enumerate_reduced_words(w0)) == {(1, 2, 1), (2, 1, 2)}
    assert len(A3.enumerate_reduced_words(A3.longest_element())) == 16


def test_reduced_words_multiply_back():
    for datum in (A2, B2):
        for w in datum.weyl_elements():
            for word in datum.enumerate_reduced_words(w):
                assert datum.word_to_element(word) == w
                assert len(word) == w.length


def test_is_w0_word():
    for datum in (A2, A3, B2):
        w0 = datum.longest_element()
        words = datum.enumerate_reduced_words(w0)
        assert words and all(datum.is_w0_word(word) for word in words)
        assert all(datum.is_w0_word(list(word)) for word in words)
    # too short, too long, right length but not reduced, letters out of range
    for word in ((1, 2), (1, 2, 1, 2), (1, 1, 2), (0, 1, 2), (1, 2, 3), ()):
        assert not A2.is_w0_word(word), word


def test_length_changes_by_one():
    for datum in (A2, B2):
        for w in datum.weyl_elements():
            for i in range(1, datum.rank + 1):
                lw = w.length
                lwi = (w * datum.simple_reflection(i)).length
                assert abs(lw - lwi) == 1


def test_pairing_invariance():
    for datum in (A2, A3, B2, G2):
        for w in datum.weyl_elements()[:12]:
            for rt in datum.positive_roots:
                for i in range(1, datum.rank + 1):
                    v = datum.simple_coroot(i)
                    assert datum.pairing(act_root(datum, w, rt), w.act_coweight(v)) == \
                        datum.pairing(rt, v)


def test_height_and_dominance():
    x = Coweight((1, 2))
    assert A2.height(x) == 3
    assert A2.dominance_leq(A2.zero_coweight(), Coweight((1, 1)))
    # alpha1^vee vs alpha2^vee incomparable
    a1, a2 = A2.simple_coroot(1), A2.simple_coroot(2)
    assert not A2.dominance_leq(a1, a2)
    assert not A2.dominance_leq(a2, a1)
    with pytest.raises(RootDataError, match=re.escape("(2/3, 1/3) is not in the coroot lattice "
                                                      "of A2")):
        A2.height(A2.fundamental_coweight(1))


def test_height_additive():
    rng = random.Random(1)
    for _ in range(50):
        a = Coweight(tuple(rng.randint(-5, 5) for _ in range(3)))
        b = Coweight(tuple(rng.randint(-5, 5) for _ in range(3)))
        assert A3.height(a + b) == A3.height(a) + A3.height(b)


def test_dominance_partial_order():
    pts = [Coweight((i, j)) for i in range(-1, 3) for j in range(-1, 3)]
    for a in pts:
        assert A2.dominance_leq(a, a)
        for b in pts:
            if A2.dominance_leq(a, b) and A2.dominance_leq(b, a):
                assert a == b
            for c in pts:
                if A2.dominance_leq(a, b) and A2.dominance_leq(b, c):
                    assert A2.dominance_leq(a, c)


def test_coroot_matching_b2():
    # long root theta = alpha1 + 2 alpha2 has short coroot theta^vee = alpha1^vee + alpha2^vee
    theta = B2.highest_root
    assert theta.coords == (1, 2)
    assert B2.coroot_of(theta) == Coweight((1, 1))


def test_reflection_of_nonsimple_root():
    theta = A2.highest_root
    s = A2.generators()[0]  # s_theta
    assert act_root(A2, s, theta) == -theta
    assert s.length == 3  # s_theta = w0 in A2
    assert s * s == A2.identity_elt()


def test_fundamental_coweights_dual_basis():
    for datum in (A2, A3, B2, G2):
        for i in range(1, datum.rank + 1):
            for j in range(1, datum.rank + 1):
                assert datum.pairing(datum.simple_root(j),
                                     datum.fundamental_coweight(i)) == int(i == j)


def test_a_sum_of_fundamental_coweights_has_int_coordinates():
    # (2/3, 1/3) + (1/3, 2/3) on A2: a sum or difference stores an integral
    # Fraction coordinate as its int
    om1, om2 = A2.fundamental_coweight(1), A2.fundamental_coweight(2)
    for total in (om1 + om2, om1 - -om2):
        assert total == Coweight((1, 1))
        assert [type(a) for a in total.coords] == [int, int]


def test_a_vector_stores_list_and_generator_coordinates_as_a_tuple():
    # a vector built from a list or a generator is the vector of the tuple:
    # it compares and hashes like it, and the datum's methods read it
    assert Coweight([1, 1]) == Coweight((1, 1)) and {Coweight([1, 1]): 1}[Coweight((1, 1))] == 1
    assert Coweight(a for a in (1, 1)).coords == (1, 1)
    assert A2.dominant_conjugate(Coweight([-1, 2])) == Coweight((3, 2))
    assert minimal_word(A2, Coweight([1, 1])) == (0,)
    assert A2.pairing(Root([1, 0]), Coweight((1, 1))) == 1
    assert Root([1, 0]) == A2.simple_root(1)


def test_an_integral_fraction_coordinate_is_stored_as_its_int():
    lam = Coweight((Fraction(2), Fraction(1, 2)))
    assert lam.coords == (2, Fraction(1, 2)) and type(lam.coords[0]) is int
    assert A2.lattice_coweight(Coweight((Fraction(1), 1))).coords == (1, 1)


TABLED_DATA = [build_root_datum(series, rank) for series, rank in TABLED]


def ref_rmat(datum, word):
    """The element with this word on simple-root coordinates:
    s_i(alpha_j) = alpha_j - C[j][i] alpha_i, multiplied along the word."""
    r = datum.rank
    m = [[int(a == b) for b in range(r)] for a in range(r)]
    for i in word:
        s = [[int(a == b) - int(a == i - 1) * datum.cartan[b][i - 1] for b in range(r)]
             for a in range(r)]
        m = [[sum(m[a][k] * s[k][b] for k in range(r)) for b in range(r)] for a in range(r)]
    return m


def ref_reduced_word(datum, w):
    """Greedy left descent, smallest letter first, by the descent test
    l(s_i w) < l(w) iff <alpha_i, w(rho^vee)> < 0."""
    word = []
    while True:
        x = w.act_coweight(rho_coweight(datum))
        i = next((i for i in range(1, datum.rank + 1)
                  if datum.pairing(datum.simple_root(i), x) < 0), None)
        if i is None:
            return tuple(word)
        word.append(i)
        w = datum.simple_reflection(i) * w


@pytest.mark.parametrize("datum", TABLED_DATA, ids=lambda d: f"{d.series}{d.rank}")
def test_root_action_and_length_match_the_root_matrix_oracle(datum):
    depth = {datum.identity_elt(): 0}
    frontier = [datum.identity_elt()]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, datum.rank + 1):
                w2 = w * datum.simple_reflection(i)
                if w2 not in depth:
                    depth[w2] = depth[w] + 1
                    nxt.append(w2)
        frontier = nxt
    assert list(datum.weyl_elements()) == sorted(depth, key=lambda w: (depth[w], w.cmat))
    roots = datum.positive_roots + tuple(-rt for rt in datum.positive_roots)
    for w in datum.weyl_elements():
        # reduced_word is pinned to the greedy word; the checks below need it
        # to be a word of w
        word = datum.reduced_word(w)
        assert word == ref_reduced_word(datum, w) and len(word) == depth[w]
        m = ref_rmat(datum, word)
        inverted = 0
        for rt in roots:
            image = Root(tuple(sum(a * b for a, b in zip(row, rt.coords)) for row in m))
            assert act_root(datum, w, rt) == image, (w, rt)
            inverted += min(rt.coords) >= 0 and min(image.coords) < 0
        assert w.length == inverted == depth[w]


def ref_matmul(a, b):
    """Plain integer matrix product, the oracle for the generator tables."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def ref_reflection(datum, rt):
    """x -> x - <alpha, x> alpha^vee as a matrix on coweight coordinates."""
    co, r = datum.coroot_of(rt).coords, datum.rank
    units = [Coweight(tuple(int(a == b) for b in range(r))) for a in range(r)]
    return tuple(tuple(int(a == b) - co[a] * datum.pairing(rt, units[b]) for b in range(r))
                 for a in range(r))


@pytest.mark.parametrize("datum", TABLED_DATA, ids=lambda d: f"{d.series}{d.rank}")
def test_generator_tables_and_products_match_the_matrix_oracle(datum):
    weyl = datum.weyl_elements()
    assert [w.index for w in weyl] == list(range(len(weyl)))
    assert list(weyl) == sorted(weyl, key=lambda w: (w.length, w.cmat))
    gens = datum.generators()
    assert [g.cmat for g in gens] == [ref_reflection(datum, rt) for rt in
                                      (datum.highest_root,) + datum.simple_roots()]
    for w in weyl:
        for g in gens:
            assert (w * g).cmat == ref_matmul(w.cmat, g.cmat)
            assert (g * w).cmat == ref_matmul(g.cmat, w.cmat)
    pairs = [(w, v) for w in weyl for v in weyl]
    if datum.rank == 4:
        pairs = random.Random(f"{datum.series}{datum.rank}").sample(pairs, 3000)
    for w, v in pairs:
        assert (w * v).cmat == ref_matmul(w.cmat, v.cmat)
        assert (w * v) is weyl[(w * v).index]


def test_simple_roots_and_coroots_out_of_range_raise():
    # a cached tuple read at i - 1 would turn i = 0 into the last entry
    for bad in (A2.simple_root, A2.simple_coroot, A2.simple_reflection,
                A2.fundamental_coweight):
        for i in (0, -1, 3, 7):
            with pytest.raises(RootDataError, match="out of range"):
                bad(i)
    assert A2.simple_root(2) == Root((0, 1)) and A2.simple_coroot(1) == Coweight((1, 0))


def wrong_rank(coords):
    """The error A2 raises for coweight coordinates of another rank."""
    return "^" + re.escape(f"coweight coordinates {coords} do not have rank 2 for A2") + "$"


def test_dominance_leq_rejects_a_coweight_of_the_wrong_rank():
    # lam - mu zips the coordinates, so (2, 3) - (1,) read as (1,) >= 0
    with pytest.raises(RootDataError, match=wrong_rank((1,))):
        A2.dominance_leq(Coweight((1,)), Coweight((2, 3)))
    with pytest.raises(RootDataError, match=wrong_rank((1, 1, 1))):
        A2.dominance_leq(Coweight((0, 0)), Coweight((1, 1, 1)))


def test_height_rejects_a_coweight_of_the_wrong_rank():
    # the sum of (1, 2, 3) read as a height of 6
    for coords in ((1, 2, 3), (1,)):
        with pytest.raises(RootDataError, match=wrong_rank(coords)):
            A2.height(Coweight(coords))


SMALL = [d for d in BUILT if d[1] <= 4]


@pytest.mark.parametrize("series,rank", SMALL, ids=[f"{s}{r}" for s, r in SMALL])
def test_dominant_conjugate_is_the_dominant_point_of_the_orbit(series, rank, deadline):
    # the oracle reads W(2v) off W's table in integers, keeps its one dominant
    # point and halves it, an integral half as an int; v runs over -1..1 in
    # halves, from -1/2 at rank 4, where |W| reaches 384
    datum = build_root_datum(series, rank)

    def half(x):
        return tuple(Fraction(a, 2) if a % 2 else a // 2 for a in x)

    for twice in product(range(-2 + (rank > 3), 3), repeat=rank):
        orbit = {w.act_point(twice) for w in datum.weyl_elements()}
        dominant = [x for x in orbit
                    if all(sum(map(operator.mul, row, x)) >= 0 for row in datum.cartan)]
        assert len(dominant) == 1, twice
        want, got = half(dominant[0]), datum.dominant_conjugate(Coweight(half(twice))).coords
        assert got == want and list(map(type, got)) == list(map(type, want)), twice


def test_dominant_conjugate_rejects_a_coweight_of_the_wrong_rank():
    # (1,) ran into an IndexError and (1, 0, -1) came back with 3 coordinates
    for coords in ((1,), (1, 0, -1)):
        with pytest.raises(RootDataError, match=wrong_rank(coords)):
            A2.dominant_conjugate(Coweight(coords))


def no_datum(coords):
    """The error of coordinate arithmetic, which has no datum to name."""
    return "^" + re.escape(f"coordinates {coords} do not have rank 2") + "$"


def test_coordinate_arithmetic_rejects_another_rank():
    # zipped coordinates read (2, 3) - (1,) as (1,)
    for coords in ((1,), (1, 2, 3)):
        for op in (operator.add, operator.sub):
            with pytest.raises(RootDataError, match=no_datum(coords)):
                op(Coweight((2, 3)), Coweight(coords))
    with pytest.raises(RootDataError, match=no_datum((1,))):
        Root((1, 0)) - Root((1,))


def test_pairing_rejects_root_coordinates_of_the_wrong_rank():
    # the one length check names the datum and the kind of coordinates
    for coords in ((1,), (1, 0, 0)):
        want = "^" + re.escape(f"root coordinates {coords} do not have rank 2 for A2") + "$"
        with pytest.raises(RootDataError, match=want):
            A2.pairing_row(coords)
        with pytest.raises(RootDataError, match=want):
            A2.pairing_coords(coords, (1, 0))


def test_weyl_action_rejects_coordinates_of_another_rank():
    # the identity read (1,) as (1, 0)
    for coords in ((1,), (1, 2, 3)):
        for w in (A2.identity_elt(), A2.longest_element()):
            with pytest.raises(RootDataError, match=no_datum(coords)):
                w.act_coweight(Coweight(coords))


def test_a_datum_built_directly_is_freed_once_dropped():
    datum = RootDatum("B", 2)
    datum.simple_reflection(1)
    datum.weyl_elements()
    ref = weakref.ref(datum)
    del datum
    gc.collect()
    assert ref() is None
