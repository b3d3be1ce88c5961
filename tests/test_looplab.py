import random
import re
from contextvars import copy_context
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from mvcrystals import verify
from mvcrystals.affine import build_gallery_type
from mvcrystals.crystal import crystal_isomorphic, string_parameters
from mvcrystals.gallery import crystal_maps, enumerate_ls, min_wall_level, root_e
from mvcrystals.looplab import (
    LaurentMatrix,
    GenericityError,
    LaurentSeries,
    LoopGroup,
    LoopGroupError,
    PrecisionError,
    cell_point,
    counterexample_matrix,
    crystal_op_sample,
    default_rel_prec,
    lusztig_from_string,
    morier_genoud_check,
    rank_one_identity_check,
    sample_cell,
    sample_ytilde,
    set_default_rel_prec,
    trop_eval,
)
from mvcrystals.looplab import groups, sampling
from mvcrystals.looplab.sampling import (
    lusztig_to_string_map,
    random_unit_series,
    string_to_lusztig_map,
)
from mvcrystals.rootdata import Coweight, RootDataError, build_root_datum
from reference import (
    act_root,
    orbit_from_minors_of_g,
    ref_adjugate_inverse,
    ref_factor_y,
    ref_factor_z,
    ref_inverse_vals,
    ref_phi_plus,
)
from stabwork import coefficient, sqrt

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)
G1 = LoopGroup(A1)
G2 = LoopGroup(A2)
G3 = LoopGroup(A3)
G4 = LoopGroup(build_root_datum("A", 4))


# -- series ----------------------------------------------------------------

def test_series_val():
    s = LaurentSeries({-2: 1, 0: 1})
    assert s.val() == -2
    with pytest.raises(PrecisionError):
        LaurentSeries.zero().val()
    with pytest.raises(PrecisionError):
        LaurentSeries({}, cap=5).val()


def test_division_by_the_exact_zero_is_a_zero_division():
    # not a precision shortfall: no precision makes the exact zero a unit,
    # nor the adjugate of a singular matrix
    one, zero = LaurentSeries.one(), LaurentSeries.zero()
    singular = LaurentMatrix([[one, one], [one, one]])
    for divide in (lambda: LaurentSeries({1: 3}) / zero, zero.inverse,
                   lambda: ref_adjugate_inverse(singular)):
        with pytest.raises(ZeroDivisionError, match="exact zero"):
            divide()


def test_series_geometric_inverse():
    one_minus_t = LaurentSeries({0: 1, 1: -1})
    inv = one_minus_t.inverse()
    assert inv.cap is not None
    assert all(coefficient(inv, e) == 1 for e in range(0, inv.cap))
    prod = one_minus_t * inv
    assert prod.val() == 0 and prod.leading() == 1
    assert all(coefficient(prod, e) == 0 for e in range(1, prod.cap))


def test_series_inverse_of_integer_coefficients_stays_rational():
    # integer coefficients must not pass through float division
    s = LaurentSeries({0: 3, 1: 1})

    def at_prec_3():
        set_default_rel_prec(3)
        return s.inverse()
    inv = copy_context().run(at_prec_3)
    assert inv.coeffs == {0: Fraction(1, 3), 1: Fraction(-1, 9), 2: Fraction(1, 27)}
    assert (s * inv).agrees_with(LaurentSeries.one())


def test_series_val_multiplicative_random():
    rng = random.Random(5)
    for _ in range(100):
        p = random_unit_series(rng).shift(rng.randint(-5, 5))
        q = random_unit_series(rng).shift(rng.randint(-5, 5))
        assert (p * q).val() == p.val() + q.val()


def test_series_cap_tracking():
    p = LaurentSeries({0: 1}, cap=4)
    q = LaurentSeries({-2: 1})
    assert (p * q).cap == 2
    assert (p + q).cap == 4
    # every reported valuation is strictly below the tracked cap
    s = p * q
    assert s.val() < s.cap


def test_series_sqrt():
    rng = random.Random(1)
    for _ in range(20):
        u = LaurentSeries({0: 1, 1: rng.randint(-5, 5), 2: rng.randint(-5, 5)})
        r = sqrt(u)
        assert (r * r).agrees_with(u)


@pytest.mark.parametrize("make, message", [
    (lambda: LaurentSeries({0: 0.1}), "int or Fraction, got float"),
    (lambda: LaurentSeries({0: 1, 2: 0.0}), "int or Fraction, got float"),
    (lambda: LaurentSeries.t_power(1, 0.5), "int or Fraction, got float"),
    (lambda: LaurentSeries.from_scalar(0.1), "int or Fraction, got float"),
    (lambda: LaurentSeries.t_power(Fraction(1, 2)), "exponents are int, got Fraction"),
    (lambda: LaurentSeries({0.5: 1}), "exponents are int, got float"),
    (lambda: LaurentSeries({0: 1, 1: 2}, cap=1.5), "caps are int or None, got float"),
    (lambda: LaurentSeries({0: 1}, cap=True), "caps are int or None, got bool"),
    (lambda: LaurentSeries({True: 3}), "exponents are int, got bool"),
    (lambda: LaurentSeries.t_power(True), "exponents are int, got bool"),
    (lambda: LaurentSeries.t_power(1).shift(0.5), "exponents are int, got float"),
    (lambda: LaurentSeries.t_power(1).shift(Fraction(1, 2)), "exponents are int, got Fraction"),
    (lambda: LaurentSeries.t_power(1).shift(True), "exponents are int, got bool"),
    (lambda: LaurentSeries({0: True}), "int or Fraction, got bool"),
], ids=["init", "init-float-zero", "t_power", "from_scalar", "t_power-exponent",
        "init-exponent", "init-cap-float", "init-cap-bool", "init-exponent-bool",
        "t_power-exponent-bool", "shift-float", "shift-fraction", "shift-bool",
        "init-coefficient-bool"])
def test_series_rejects_float_coefficients(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_series_stores_integral_coefficients_as_int():
    s = LaurentSeries({0: Fraction(4, 2), 1: Fraction(-3, -3), 2: Fraction(1, 2), 3: -3})
    assert s.coeffs == {0: 2, 1: 1, 2: Fraction(1, 2), 3: -3}
    assert [type(s.coeffs[e]) for e in range(4)] == [int, int, Fraction, int]
    for made in (LaurentSeries.one(), LaurentSeries.t_power(3),
                 LaurentSeries.from_scalar(Fraction(-6, 3))):
        assert all(type(c) is int for c in made.coeffs.values()), made


def test_series_accessors_return_fraction_for_int_storage():
    # the inclusion-proof rewriter raises coefficient(s, 0) to negative
    # powers: an int there would give a float, which the constructor rejects
    s = LaurentSeries({-1: 2, 0: 5}, cap=4)
    assert all(type(c) is int for c in s.coeffs.values())
    assert type(s.leading()) is Fraction and s.leading() == 2
    for e in (-1, 0, 3):
        assert type(coefficient(s, e)) is Fraction
    assert coefficient(LaurentSeries({0: 2}), 0) ** -1 == Fraction(1, 2)
    assert type(coefficient(LaurentSeries({0: 2}), 0) ** -1) is Fraction


# -- column-operation products -------------------------------------------------

def _elementary(n, j, k, p):
    """1 + p E_jk, entered entry by entry."""
    rows = [[LaurentSeries.one() if a == b else LaurentSeries.zero() for b in range(n)]
            for a in range(n)]
    rows[j][k] = p
    return LaurentMatrix(rows)


def _dense_product(n, mats):
    out = LaurentMatrix.identity(n)
    for m in mats:
        out = out * m
    return out


def _seeded_factors(rng, n, windowed):
    """A random word of root-subgroup factors (j, k, p) in SL_n: y letters and
    arbitrary positions j != k, with exact or sqrt-windowed parameters."""
    factors = []
    for _ in range(rng.randint(2, 9)):
        if rng.random() < 0.5:
            i = rng.randint(1, n - 1)
            j, k = i, i - 1
        else:
            j, k = rng.sample(range(n), 2)
        p = random_unit_series(rng)
        if windowed and rng.random() < 0.7:
            p = sqrt(LaurentSeries.one() + LaurentSeries.t_power(1, rng.randint(-4, 4)),
                     rel_prec=rng.randint(1, 6)) * p
        factors.append((j, k, p.shift(rng.randint(-2, 2))))
    return factors


@pytest.mark.parametrize("group", [G1, G2, G3], ids=["A1", "A2", "A3"])
@pytest.mark.parametrize("windowed", [False, True], ids=["exact", "sqrt"])
def test_x_product_matches_dense_elementary_products(group, windowed):
    rng = random.Random(f"x_product-{group.n}-{windowed}")
    for _ in range(12):
        factors = _seeded_factors(rng, group.n, windowed)
        got = group.x_product(factors)
        want = _dense_product(group.n, [_elementary(group.n, *f) for f in factors])
        # LaurentSeries equality compares coefficients and caps
        assert got.rows == want.rows, factors
    if windowed:
        assert any(s.cap is not None for row in got.rows for s in row)


@pytest.mark.parametrize("group", [G1, G2, G3], ids=["A1", "A2", "A3"])
def test_gen_wbar_of_w0_is_the_dense_product_of_sbars(group):
    datum, n = group.datum, group.n
    one, zero = LaurentSeries.one(), LaurentSeries.zero()

    def sbar(i):
        rows = [[one if a == b and a not in (i - 1, i) else zero for b in range(n)]
                for a in range(n)]
        rows[i - 1][i], rows[i][i - 1] = one, -one
        return LaurentMatrix(rows)

    for word in datum.enumerate_reduced_words(datum.longest_element()):
        want = _dense_product(n, [sbar(i) for i in word])
        assert group.gen_wbar(word).rows == want.rows
    assert group.wbar_w0.rows == want.rows


# -- a word keeps its inverse; no other matrix is inverted -----------------------

def test_one_by_one_inverse_is_exact():
    # the cofactor of a 1x1 matrix is the empty minor, which is 1
    inv = ref_adjugate_inverse(LaurentMatrix([[LaurentSeries.from_scalar(2)]]))
    assert inv.equals_exact(LaurentMatrix([[LaurentSeries.from_scalar(Fraction(1, 2))]]))


def test_matrix_keeps_its_inverse(monkeypatch):
    # an x_product inverts by its own factors, with no determinant, and keeps
    # that inverse; a dense product is not inverted at all, and its
    # valuations are read off its own minors (ref_adjugate_inverse is the one
    # det() caller of these, so the count is of adjugates built)
    ps = [LaurentSeries({0: 2, 1: 1}), LaurentSeries({1: 3}), LaurentSeries({-1: 1, 0: 5})]
    det = LaurentMatrix.det
    adjugates = []
    monkeypatch.setattr(LaurentMatrix, "det",
                        lambda self: adjugates.append(self) or det(self))
    g = G2.y_product((1, 2, 1), ps)
    ginv = g.inverse()
    assert g.inverse() is ginv
    assert (g * ginv).equals_exact(LaurentMatrix.identity(3))
    assert ginv.inverse().equals_exact(g)
    G2.mu_plus(g), G2.mu_minus(g), G2.orbit_coweight(g)
    h = G2.gen_y(2, LaurentSeries({-1: 4})) * g
    G2.mu_plus(h), G2.mu_minus(h), G2.orbit_coweight(h)
    assert adjugates == []
    with pytest.raises(ValueError, match="only a root-subgroup word inverts"):
        h.inverse()
    assert ref_adjugate_inverse(h).equals_exact(ginv * G2.gen_y(2, LaurentSeries({-1: -4})))
    assert adjugates == [h]


def test_a_matrix_that_is_not_a_word_does_not_invert():
    # LaurentMatrix(rows) keeps no factors, even when its rows are a word's
    one, zero = LaurentSeries.one(), LaurentSeries.zero()
    rows = [[one, zero], [LaurentSeries.t_power(-1), one]]
    for g in (LaurentMatrix(rows), G1.gen_t(Coweight((1,))) * G1.gen_y(1, 1),
              G1.gauss_decompose(G1.gen_y(1, 2) * G1.wbar_w0)):
        with pytest.raises(ValueError, match=r"^only a root-subgroup word inverts, by its "
                                             r"factors: LaurentMatrix\(\["):
            g.inverse()
    assert G1.gen_y(1, LaurentSeries.t_power(-1)).rows == LaurentMatrix(rows).rows
    with pytest.raises(ValueError, match="only a root-subgroup word inverts"):
        G1.coset_equal(LaurentMatrix(rows), G1.gen_t(Coweight((1,))))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_factored_inverse_is_the_adjugate_on_y_products(rank):
    datum = build_root_datum("A", rank)
    group = LoopGroup(datum)
    word = datum.reduced_word(datum.longest_element())
    rng = random.Random(f"factored-inverse-{rank}")
    for _ in range(4):
        g = group.y_product(word, [random_unit_series(rng).shift(rng.randint(-2, 2))
                                   for _ in word])
        assert g.inverse().equals_exact(ref_adjugate_inverse(g)), word


@pytest.mark.parametrize("datum, lam", [(A2, (1, 1)), (A2, (2, 2)), (A3, (1, 1, 1))],
                         ids=["A2-11", "A2-22", "A3-111"])
def test_factored_inverse_is_the_adjugate_on_cell_points(datum, lam):
    # cell_point is t^nu times the factors moved past it; it equals the
    # dense product (factors) * t^nu, and inverts like its adjugate
    group = LoopGroup(datum)
    for k, node in enumerate(enumerate_ls(build_gallery_type(datum, Coweight(lam))).nodes):
        g = cell_point(group, node, random.Random(k))
        rng = random.Random(k)
        dense = group.x_product([
            group.x_factor(beta.root, sampling.rand_nonzero_int(rng), beta.level)
            for step in ref_phi_plus(node) for beta in step]) * \
            group.gen_t(node.weight)
        assert g.equals_exact(dense), node.weight
        assert g.inverse().equals_exact(ref_adjugate_inverse(g)), node.weight


def _sampled_points(crit, monkeypatch):
    """(group, g) for every point criterion crit samples: each matrix its
    samplers return, in order."""
    points = []

    def capture(sampler):
        def run(group, *args, **kwargs):
            out = sampler(group, *args, **kwargs)
            points.extend((group, g) for g in out)
            return out
        return run

    with monkeypatch.context() as m:
        for name in ("sample_ytilde", "sample_cell", "crystal_op_sample"):
            m.setattr(verify, name, capture(getattr(verify, name)))
        assert crit({})[0]
    return points


@pytest.mark.parametrize("crit", [verify.crit_7_ytilde_sampling, verify.crit_8_cell_sampling])
def test_orbit_coweight_reads_the_minors_of_g(crit, monkeypatch):
    # on every criterion 7/8 draw, the orbit read by the valuation routine
    # equals the one read off the k-minors of g alone; criterion 8 reads the
    # orbit of each of its 40 draws, criterion 7 of none of its 300
    orbit, read = LoopGroup.orbit_coweight, []
    monkeypatch.setattr(LoopGroup, "orbit_coweight",
                        lambda group, g: read.append(g) or orbit(group, g))
    points = _sampled_points(crit, monkeypatch)
    if crit is verify.crit_7_ytilde_sampling:
        assert (len(points), len(read)) == (2 * 30 * 5, 0)
    else:
        assert [g for _, g in points] == read and len(read) == 8 * 5
    for group, g in points:
        assert orbit(group, g) == orbit_from_minors_of_g(g), g


def test_every_criterion_8_cell_point_lies_in_the_orbit_of_lambda(monkeypatch):
    # the cell's statement: a cell point of an LS gallery of type lambda lies
    # in the G(O)-orbit of t^lambda; criterion 8 checks only that the orbit's
    # dominant conjugate is at most lambda.  Its lambda = (1, 1) is fixed by
    # the diagram automorphism, so reading the k-minors for the (n-k)-minors
    # changes no orbit there; the cells of (2, 1), drawn as criterion 8
    # draws, join its 40 points
    crit8 = _sampled_points(verify.crit_8_cell_sampling, monkeypatch)
    assert len(crit8) == 8 * 5
    lam = Coweight((2, 1))
    cells = [g for node in enumerate_ls(build_gallery_type(A2, lam)).nodes
             for g in sample_cell(G2, node, trials=5, seed=7)]
    for want, points in ((Coweight((1, 1)), [g for _, g in crit8]), (lam, cells)):
        for g in points:
            assert A2.dominant_conjugate(G2.orbit_coweight(g)) == want, g


def test_kept_inverse_follows_the_default_precision():
    # 1/(1 + t) is windowed by the default relative precision, so the
    # reference adjugate follows the precision of each call; wbar(w0) is a
    # word, and its exact inverse is kept across precisions
    one_plus_t = LaurentSeries({0: 1, 1: 1})
    g = LaurentMatrix([[one_plus_t, LaurentSeries.zero()],
                       [LaurentSeries.zero(), LaurentSeries.one()]])

    def at_prec(p):
        set_default_rel_prec(p)
        return ref_adjugate_inverse(g), G2.wbar_w0.inverse()
    (low, exact), (high, again) = copy_context().run(at_prec, 4), copy_context().run(at_prec, 8)
    assert (low[0, 0].cap, high[0, 0].cap) == (4, 8)
    assert again is exact and all(s.is_exact for row in exact.rows for s in row)


# -- pinned-group relations (Eqs 1-5) -----------------------------------------

def test_relation_conjugation_eq1():
    # wbar x_i(b) wbar^{-1} = x_{w alpha_i}(+-b)
    rng = random.Random(2)
    for datum, group in ((A2, G2), (A3, G3)):
        for w in datum.weyl_elements()[:8]:
            word = datum.reduced_word(w)
            wbar = group.gen_wbar(word)
            for i in range(1, datum.rank + 1):
                b = Fraction(rng.randint(1, 9))
                lhs = wbar * group.gen_x(datum.simple_root(i), b) * wbar.inverse()
                alpha = act_root(datum, w, datum.simple_root(i))
                plus = group.gen_x(alpha, b)
                minus = group.gen_x(alpha, -b)
                assert lhs.equals_exact(plus) or lhs.equals_exact(minus)


def test_relation_torus_eq2():
    rng = random.Random(3)
    for _ in range(10):
        lam = Coweight((rng.randint(-2, 2), rng.randint(-2, 2)))
        b = Fraction(rand := rng.randint(1, 9))
        for alpha in A2.positive_roots:
            k = A2.pairing(alpha, lam)
            lhs = G2.gen_t(lam) * G2.gen_x(alpha, b)
            rhs = G2.gen_x(alpha, LaurentSeries.from_scalar(b).shift(k)) * G2.gen_t(lam)
            assert lhs.equals_exact(rhs)


def test_relation_sl2_eq3():
    rng = random.Random(4)
    for _ in range(10):
        a, b = Fraction(rng.randint(1, 6)), Fraction(rng.randint(1, 6))
        alpha = A2.simple_root(1)
        lhs = G2.gen_x(alpha, a) * G2.gen_x(-alpha, b)
        unit = LaurentSeries.from_scalar(1 + a * b)
        rhs = G2.gen_x(-alpha, b / (1 + a * b)) * \
            G2.gen_torus(A2.coroot_of(alpha), unit) * \
            G2.gen_x(alpha, a / (1 + a * b))
        assert lhs.equals_exact(rhs)


def test_relation_eq4_with_t():
    # x_alpha(t) x_{-alpha}(-1/t) x_alpha(t) = t^{alpha^vee} sbar_alpha
    t = LaurentSeries.t_power(1)
    for datum, group in ((A1, G1), (A2, G2)):
        for i in range(1, datum.rank + 1):
            alpha = datum.simple_root(i)
            lhs = group.gen_x(alpha, t) * group.gen_x(-alpha, -t.inverse()) * \
                group.gen_x(alpha, t)
            rhs = group.gen_t(datum.coroot_of(alpha)) * group.gen_sbar(i)
            assert lhs.agrees_with(rhs)
            rhs2 = group.gen_sbar(i) * group.gen_t(-datum.coroot_of(alpha))
            assert lhs.agrees_with(rhs2)


def test_relation_chevalley_eq5():
    # type A: [x_beta(b)^-1 x_alpha(a)^-1 x_beta(b) x_alpha(a)] = x_{alpha+beta}(C ab)
    rng = random.Random(6)
    a1, a2 = A2.simple_root(1), A2.simple_root(2)
    signs = set()
    for _ in range(6):
        a, b = Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))
        xa, xb = G2.gen_x(a1, a), G2.gen_x(a2, b)
        comm = xb.inverse() * xa.inverse() * xb * xa
        hit = None
        for sign in (1, -1):
            if comm.equals_exact(G2.gen_x(a1 + a2, sign * (-a) * b)):
                hit = sign
        assert hit is not None
        signs.add(hit)
    assert len(signs) == 1  # the structure constant is a constant


def test_sbar_matrix():
    s = G1.gen_sbar(1)
    assert s[0, 1].equals_exact(LaurentSeries.one())
    assert s[1, 0].equals_exact(-LaurentSeries.one())
    assert s[0, 0].is_known_zero and s[1, 1].is_known_zero


def test_gen_t_sl2():
    g = G1.gen_t(Coweight((1,)))
    assert g[0, 0].equals_exact(LaurentSeries.t_power(1))
    assert g[1, 1].equals_exact(LaurentSeries.t_power(-1))


@pytest.mark.parametrize("make", [
    lambda nu: G2.gen_t(nu),
    lambda nu: G2.x_product([G2.x_factor(A2.simple_root(1), 1)], torus=nu),
], ids=["gen_t", "x_product"])
def test_torus_rejects_nu_off_the_coroot_lattice(make):
    # omega_1^vee = (2/3, 1/3) would give diag(t^{2/3}, t^{-1/3}, t^{-1/3})
    with pytest.raises(RootDataError, match="is not in the coroot lattice"):
        make(A2.fundamental_coweight(1))
    g = make(Coweight((Fraction(2), 1)))
    assert [(e, type(e)) for j in range(3) for e in g[j, j].coeffs] == \
        [(2, int), (-1, int), (-1, int)]
    assert G2.mu_plus(g) == Coweight((2, 1))


@pytest.mark.parametrize("jk", [(0, 0), (1, 3), (-1, 0)], ids=["j=k", "past-n", "negative"])
def test_x_product_refuses_a_factor_that_is_no_root_subgroup(jk):
    # (0, 0, 1) would build diag(2, 1, 1), and its factored inverse diag(0, 1, 1)
    bad = (*jk, LaurentSeries.one())
    with pytest.raises(ValueError, match=re.escape(f"factor {bad} is no root subgroup of SL_3")):
        G2.x_product([G2.x_factor(A2.simple_root(1), 1), bad])


def test_torus_needs_a_coweight():
    # coweight_diag's one check is lattice_coweight's, so the message names it
    with pytest.raises(TypeError, match=r"^lattice_coweight takes \(Coweight\); got \(tuple\)$"):
        G2.gen_t((1, 1))


# -- valuation formulas -----------------------------------------------------------

def test_mu_of_torus_points():
    for coords in [(0, 0), (1, 1), (2, -1), (-1, 2)]:
        lam = Coweight(coords)
        g = G2.gen_t(lam)
        assert G2.mu_plus(g) == lam
        assert G2.mu_minus(g) == lam


def test_mu_examples_sl2():
    g = G1.gen_y(1, LaurentSeries.t_power(-1))
    assert G1.mu_plus(g) == Coweight((1,))
    assert G1.mu_minus(g) == Coweight((0,))
    assert G1.orbit_coweight(g) == Coweight((-1,))
    # val p >= 0: y(p) in U^-(O) fixes mu_minus at 0
    g2 = G1.gen_y(1, LaurentSeries({0: 3, 1: 2}))
    assert G1.mu_minus(g2) == Coweight((0,))


def test_orbit_coweight_certifies_its_minimum():
    # the entry O(t^-1) may hide a valuation below the known minimum 0
    one = LaurentSeries.one()
    g = LaurentMatrix([[one, LaurentSeries({}, cap=-1)], [LaurentSeries.zero(), one]])
    with pytest.raises(PrecisionError):
        G1.orbit_coweight(g)


def test_orbit_coweight_rejects_a_matrix_off_sl_n():
    # t^-5 I_3 has determinant t^-15: every valuation read is certified, so
    # a parameter that is not antidominant is no precision shortfall
    t5, zero = LaurentSeries.t_power(-5), LaurentSeries.zero()
    g = LaurentMatrix([[t5, zero, zero], [zero, t5, zero], [zero, zero, t5]])
    with pytest.raises(ValueError, match=r"^orbit parameter \(10, 5\) is not antidominant: "
                                         r"the matrix is not in SL_3\(K\)$"):
        G2.orbit_coweight(g)


def _valuations_by_both_routes(group, g, monkeypatch):
    """(mu_plus, mu_minus, orbit_coweight) of g by the library's valuation
    routine and by ref_inverse_vals, which reads every minor off g.inverse();
    an error is kept as (class, message)."""
    def outcomes():
        out = []
        for f in (group.mu_plus, group.mu_minus, group.orbit_coweight):
            try:
                out.append(f(g))
            except (ValueError, PrecisionError) as e:
                out.append((type(e), str(e)))
        return out

    got = outcomes()
    with monkeypatch.context() as m:
        m.setattr(groups, "_inverse_vals", ref_inverse_vals)
        return got, outcomes()


@pytest.mark.parametrize("crit", [verify.crit_7_ytilde_sampling, verify.crit_8_cell_sampling,
                                  verify.crit_9_crystal_op])
def test_valuations_match_the_inverse_minor_reference_on_criterion_draws(crit, monkeypatch):
    # criterion 9's draws are crystal_op_sample's dense products y_i(p) g on
    # its cell points, and the cell points of the raised galleries
    points = _sampled_points(crit, monkeypatch)
    assert len(points) == {"crit_7_ytilde_sampling": 300, "crit_8_cell_sampling": 40,
                           "crit_9_crystal_op": 80}[crit.__name__]
    # the 40 dense products are read by Jacobi alone, the words also by their inverse
    assert sum(g._word is None for _, g in points) == \
        (40 if crit is verify.crit_9_crystal_op else 0)
    for group, g in points:
        got, ref = _valuations_by_both_routes(group, g, monkeypatch)
        assert got == ref, g


def test_valuations_match_the_inverse_minor_reference_on_a4_y_products(monkeypatch):
    word = G4.datum.reduced_word(G4.datum.longest_element())
    rng = random.Random("valuations-a4")
    for _ in range(4):
        g = G4.y_product(word, [random_unit_series(rng).shift(rng.randint(-2, 2))
                                for _ in word])
        got, ref = _valuations_by_both_routes(G4, g, monkeypatch)
        assert got == ref, g


def test_valuations_match_the_inverse_minor_reference_off_sl_n(monkeypatch):
    # det t^-15: the large minors of g^{-1} read off g need its valuation
    t5, zero = LaurentSeries.t_power(-5), LaurentSeries.zero()
    g = LaurentMatrix([[t5, zero, zero], [zero, t5, zero], [zero, zero, t5]])
    got, ref = _valuations_by_both_routes(G2, g, monkeypatch)
    assert got == ref
    assert got == [Coweight((-5, -10)), Coweight((10, 5)),
                   (ValueError, "orbit parameter (10, 5) is not antidominant: "
                                "the matrix is not in SL_3(K)")]


def test_valuations_match_the_inverse_minor_reference_on_a_torus_word(monkeypatch):
    # every x_product word has det 1; this one, t^(2, -1, 3) x_01(t) x_20(1 + t)
    # x_12(t^-1), has det t^4, which the word route reads off its torus part
    one, t = LaurentSeries.one(), LaurentSeries.t_power(1)
    g = LaurentMatrix._factored((2, -1, 3), ((0, 1, t), (2, 0, one + t),
                                             (1, 2, LaurentSeries.t_power(-1))))
    assert g.det().equals_exact(LaurentSeries.t_power(4))
    got, ref = _valuations_by_both_routes(G2, g, monkeypatch)
    assert got == ref
    assert got == [Coweight((3, 1)), Coweight((-2, -4)), Coweight((-6, -4))]


def test_valuations_match_the_inverse_minor_reference_on_a_windowed_entry(monkeypatch):
    # the entry O(t^-2) may hide a valuation below the known minimum 0 of
    # column 1 of g^{-1} and of the entries of g
    one, zero = LaurentSeries.one(), LaurentSeries.zero()
    g = LaurentMatrix([[one, zero, zero], [zero, one, zero],
                       [LaurentSeries({}, cap=-2), zero, one]])
    got, ref = _valuations_by_both_routes(G2, g, monkeypatch)
    assert got == ref
    assert got[0][0] is PrecisionError and got[2][0] is PrecisionError


def test_a_singular_matrix_is_named_singular():
    # two equal rows: det g is the exact zero, no precision makes g invertible
    one, zero, t = LaurentSeries.one(), LaurentSeries.zero(), LaurentSeries.t_power(1)
    g = LaurentMatrix([[one, t, zero], [one, t, zero], [zero, one, one]])
    for f in (G2.mu_plus, G2.mu_minus, G2.orbit_coweight):
        with pytest.raises(ValueError, match=r"^the matrix is singular \(det = 0\): "
                                             r"it is not in SL_3\(K\)$"):
            f(g)


_ONE_BY_ONE = LaurentMatrix([[LaurentSeries.one()]])


@pytest.mark.parametrize("call", [
    lambda g: G2.coset_equal(G2.gen_t(Coweight((1, 1))), g),
    lambda g: G2.coset_equal(g, G2.gen_t(Coweight((1, 1)))),
    G2.mu_plus, G2.mu_minus, G2.orbit_coweight, G2.gauss_decompose,
    lambda g: G2.factor_y(g, (1, 2, 1)),
    lambda g: G2.factor_z(g, (1, 2, 1)),
], ids=["coset_equal-v", "coset_equal-u", "mu_plus", "mu_minus", "orbit_coweight",
        "gauss_decompose", "factor_y", "factor_z"])
def test_a_matrix_of_another_size_is_not_in_sl_n(call):
    # a 1x1 matrix was answered False by coset_equal, and misread by mu_plus
    # (a negative rank) and factor_y (an index out of range)
    with pytest.raises(ValueError, match=r"^a 1x1 matrix is not in SL_3\(K\)$"):
        call(_ONE_BY_ONE)


def test_factors_of_different_sizes_do_not_multiply():
    # the product zipped the rows of one with the columns of the other
    with pytest.raises(ValueError, match=r"^cannot multiply a 3x3 matrix by a 1x1 one$"):
        G2.gen_t(Coweight((1, 1))) * _ONE_BY_ONE


def test_a_matrix_of_non_series_entries_is_refused():
    # it was built, and failed later on an entry's missing series attribute
    with pytest.raises(TypeError, match="^a LaurentMatrix needs entries of type LaurentSeries$"):
        LaurentMatrix([[1, 0], [0, 1]])


def test_coset_equal_cannot_decide_an_empty_negative_window():
    # at relative precision 2, criterion 10's cosets meet entries known only
    # as O(t^-1): neither in G(O) nor out of it, so no False answer
    one = LaurentSeries.one()
    g = LaurentMatrix([[one, LaurentSeries({}, cap=-1)], [LaurentSeries.zero(), one]])
    with pytest.raises(PrecisionError, match=r"O\(t\^-1\)"):
        G1.coset_equal(LaurentMatrix.identity(2), g)
    before = default_rel_prec()
    try:
        set_default_rel_prec(2)
        with pytest.raises(PrecisionError):
            verify.run_criterion(10)
    finally:
        set_default_rel_prec(before)


def test_orbit_of_generic_o_matrix():
    rng = random.Random(9)
    g = LaurentMatrix.identity(3)
    for i in (1, 2, 1):
        g = g * G2.gen_x(A2.simple_root(i), Fraction(rng.randint(1, 5)))
        g = g * G2.gen_y(i, LaurentSeries({0: rng.randint(1, 5), 1: 1}))
    assert G2.orbit_coweight(g) == Coweight((0, 0))


def test_mu_coset_invariance():
    # right multiplication by SL_n(O) elements does not move mu or the orbit
    rng = random.Random(10)
    base = G2.gen_y(1, LaurentSeries.t_power(-1)) * \
        G2.gen_y(2, LaurentSeries({-2: 1, 0: 3}))
    mp, mm = G2.mu_plus(base), G2.mu_minus(base)
    orb = G2.orbit_coweight(base)
    for _ in range(50):
        h = LaurentMatrix.identity(3)
        for i in (1, 2):
            h = h * G2.gen_x(A2.simple_root(i),
                             LaurentSeries({0: rng.randint(-4, 4), 1: rng.randint(-4, 4)}))
            h = h * G2.gen_y(i, LaurentSeries({1: rng.randint(-4, 4)}))
        g = base * h
        assert G2.mu_plus(g) == mp
        assert G2.mu_minus(g) == mm
        assert G2.orbit_coweight(g) == orb


def test_singleton_intersection_shadow():
    # points with mu+ = mu- = lam are coset-equal to [t^lam]
    rng = random.Random(11)
    lam = Coweight((1, -1))
    for _ in range(5):
        # t^lam x_1(a) x_2(b), the word coset_equal inverts
        g = G2.x_product([G2.x_factor(A2.simple_root(i), rng.randint(1, 4)) for i in (1, 2)],
                         lam)
        if G2.mu_plus(g) == lam and G2.mu_minus(g) == lam:
            assert G2.coset_equal(g, G2.gen_t(lam))


# -- rank-one identity -------------------------------------------------------------

def test_rank_one_identity_hand_instance():
    u = G1.gen_x(-A1.simple_root(1), LaurentSeries.t_power(-1))
    v = G1.gen_x(A1.simple_root(1), LaurentSeries.t_power(1)) * G1.gen_t(Coweight((1,)))
    prod = u.inverse() * v
    expected = LaurentMatrix([
        [LaurentSeries.t_power(1), LaurentSeries.one()],
        [-LaurentSeries.one(), LaurentSeries.zero()],
    ])
    assert prod.equals_exact(expected)
    assert rank_one_identity_check(G1, 0, 1, LaurentSeries.one())


def test_rank_one_words_are_the_dense_products_on_criterion_10(monkeypatch):
    # rank_one_identity_check builds u and v as words t^mu x_beta(...); on
    # criterion 10's 50 draws they equal the dense products x_beta(...) t^mu
    # entry by entry (values and caps), and the adjugate of dense u gives
    # the same coset answer
    draws, cosets = [], []
    check, coset_equal = verify.rank_one_identity_check, LoopGroup.coset_equal
    monkeypatch.setattr(verify, "rank_one_identity_check",
                        lambda group, *args: draws.append(args) or check(group, *args))
    monkeypatch.setattr(LoopGroup, "coset_equal",
                        lambda group, u, v: cosets.append((u, v)) or coset_equal(group, u, v))
    assert verify.crit_10_rank_one({})[0]
    assert len(draws) == len(cosets) == 50
    alpha = A1.simple_root(1)
    for (nu_c, n, q), (u, v) in zip(draws, cosets):
        nu, lam = Coweight((nu_c,)), Coweight((nu_c + n,))
        half = A1.pairing(alpha, lam + nu) // 2
        if n:
            dense_u = G1.gen_x(-alpha, q.inverse().shift(-half)) * G1.gen_t(nu)
            dense_v = G1.gen_x(alpha, q.shift(half)) * G1.gen_t(lam)
        else:
            dense_u, dense_v = G1.gen_t(nu), G1.gen_t(lam)
        assert u.rows == dense_u.rows and v.rows == dense_v.rows, (nu_c, n, q)
        assert (ref_adjugate_inverse(dense_u) * dense_v).all_entries_val_nonneg()
    assert sum(n > 0 for _, n, _ in draws) > 30


def test_run_all_inverts_words_only(monkeypatch):
    # every LaurentMatrix.inverse call of the acceptance suite is on a
    # root-subgroup word, which inverts by its reversed factors
    inverse, is_word = LaurentMatrix.inverse, []
    monkeypatch.setattr(LaurentMatrix, "inverse",
                        lambda g: is_word.append(g._word is not None) or inverse(g))
    assert all(r.passed for r in verify.run_all())
    assert is_word and all(is_word)


def test_rank_one_identity_random():
    rng = random.Random(12)
    for _ in range(50):
        nu = rng.randint(-2, 2)
        n = rng.randint(0, 3)
        q = random_unit_series(rng)
        assert rank_one_identity_check(G1, nu, n, q)


# -- factorization ------------------------------------------------------------------

def test_factor_y_sl2_trivial():
    a = LaurentSeries({0: 3, 1: 1})
    g = G1.gen_y(1, a)
    ps = G1.factor_y(g, (1,))
    assert ps[0].equals_exact(a)


def test_gauss_decompose_roundtrip():
    rng = random.Random(13)
    for group, word in ((G2, (1, 2, 1)), (G3, (2, 1, 3, 2, 1, 3))):
        for _ in range(10):
            ps = [random_unit_series(rng).shift(rng.randint(-2, 2)) for _ in word]
            g = group.y_product(word, ps) * group.wbar_w0
            u = group.gauss_decompose(g)
            b = g * ref_adjugate_inverse(u)
            assert (b * u).agrees_with(g)
            # b upper triangular, u lower unitriangular
            n = group.n
            for i in range(n):
                for j in range(i):
                    assert b[i, j].is_known_zero
                assert u[i, i].agrees_with(LaurentSeries.one())
                for j in range(i + 1, n):
                    assert u[i, j].is_known_zero


def _crout_gauss(g):
    """Reference lower Gauss factor: the Crout LU of the row- and
    column-reversed matrix, dividing by each pivot as it is reached."""
    n = g.n
    rev = [[g[n - 1 - i, n - 1 - j] for j in range(n)] for i in range(n)]
    lower = [[LaurentSeries.zero()] * n for _ in range(n)]
    upper = [[LaurentSeries.one() if i == j else LaurentSeries.zero()
              for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k, n):
            acc = rev[i][k]
            for m in range(k):
                acc = acc - lower[i][m] * upper[m][k]
            lower[i][k] = acc
        pivot_inv = lower[k][k].inverse()
        for j in range(k + 1, n):
            acc = rev[k][j]
            for m in range(k):
                acc = acc - lower[k][m] * upper[m][j]
            upper[k][j] = acc * pivot_inv
    return LaurentMatrix([[upper[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)])


def _gauss_inputs_of_trop(monkeypatch, group, cases):
    """The matrices lusztig_from_string hands to gauss_decompose, for each
    (word, c~): z_of's y wbar(w0)^{-1} in the inverse direction (factor_z
    takes no Gauss factor)."""
    seen = []
    original = LoopGroup.gauss_decompose

    def record(self, g):
        seen.append(g)
        return original(self, g)

    monkeypatch.setattr(LoopGroup, "gauss_decompose", record)
    for word, c_tilde in cases:
        lusztig_from_string(group, word, c_tilde)
    monkeypatch.undo()
    return seen


def _assert_gauss_matches_crout(group, g):
    got, ref = group.gauss_decompose(g), _crout_gauss(g)
    for i in range(group.n):
        for j in range(group.n):
            assert got[i, j].agrees_with(ref[i, j]), (i, j, got[i, j], ref[i, j])
            # minors lose no precision against the elimination
            assert got[i, j].cap is None or \
                (ref[i, j].cap is not None and got[i, j].cap >= ref[i, j].cap)


def test_gauss_matches_crout_reference_on_criterion_11(theta_graph, monkeypatch):
    strings = _criterion_11_strings(theta_graph)
    inputs = _gauss_inputs_of_trop(monkeypatch, G2, strings)
    # three evaluations of the inverse map per string
    assert len(inputs) == 16 * 1 * 3
    # and the reference's forward matrices y(p) wbar(w0), p_j = k t^{c~_j}
    inputs += [G2.y_product(word, [LaurentSeries.t_power(c, k) for c in c_tilde]) * G2.wbar_w0
               for word, c_tilde in strings for k in (1, 2, 3)]
    for g in inputs:
        _assert_gauss_matches_crout(G2, g)


@pytest.mark.parametrize("word", [(2, 1, 3, 2, 1, 3), (1, 2, 1, 3, 2, 1)])
def test_gauss_matches_crout_reference_a3(word, monkeypatch):
    rng = random.Random(repr(("a3-gauss", word)))
    cases = [(word, [rng.randint(-2, 2) for _ in word]) for _ in range(3)]
    inputs = _gauss_inputs_of_trop(monkeypatch, G3, cases)
    for _ in range(3):
        ps = [random_unit_series(rng).shift(rng.randint(-2, 2)) for _ in word]
        inputs.append(G3.y_product(word, ps) * G3.wbar_w0)
    for g in inputs:
        _assert_gauss_matches_crout(G3, g)


def _leibniz(g, rows, cols):
    """The minor on these rows and columns as a sum over permutations."""
    total = LaurentSeries.zero()
    for perm in permutations(range(len(cols))):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
        term = LaurentSeries.one()
        for r, k in zip(rows, perm):
            term = term * g[r, cols[k]]
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("n", [3, 4])
def test_minor_det_matches_leibniz(n):
    rng = random.Random(repr(("leibniz", n)))
    for _ in range(6):
        # about a third of the entries are exact zeros
        g = LaurentMatrix([[LaurentSeries.zero() if rng.random() < 0.35 else
                            random_unit_series(rng).shift(rng.randint(-2, 2))
                            for _ in range(n)] for _ in range(n)])
        assert g.det().equals_exact(_leibniz(g, range(n), range(n)))
        for k in range(1, n + 1):
            for _ in range(4):
                rows = rng.sample(range(n), k)  # unsorted orders
                cols = rng.sample(range(n), k)
                want = _leibniz(g, rows, cols)
                assert g.minor_det(rows, cols).equals_exact(want), (rows, cols)
                assert g.minor_det(tuple(rows), cols).equals_exact(want)


@pytest.mark.parametrize("word", [(0, 1), (1, 3)], ids=["letter-0", "letter-n"])
def test_y_product_checks_its_letters(word):
    with pytest.raises(RootDataError) as err:
        G2.y_product(word, [LaurentSeries.one()] * 2)
    assert str(err.value) == f"word {word} has a letter outside 1..2 for A2"


@pytest.mark.parametrize("make", [
    lambda: G2.y_product((1, 2, 1), (1, 2, 3)),
    lambda: G2.x_product([(1, 0, Fraction(1, 2))]),
    lambda: G2.x_product([(0, 2, 1.0)], torus=Coweight((1, 1))),
    lambda: G2.gen_x(A2.simple_root(1), 0.5),
    lambda: G2.x_factor(-A2.simple_root(2), "1", level=1),
    lambda: G2.gen_x(A2.simple_root(1), True),
], ids=["y_product-ints", "x_product-fraction", "x_product-float", "gen_x-float",
        "x_factor-str", "gen_x-bool"])
def test_x_product_refuses_a_parameter_that_is_not_a_series(make):
    # the ints reached series arithmetic: 'int' object has no attribute 'coeffs';
    # x_factor shifted a float or str: 'float' object has no attribute 'shift',
    # and took True for the int 1
    with pytest.raises(TypeError, match=r"^factor \(.*\) of SL_3 has a parameter of type "
                                        r"(int|float|Fraction|str|bool): "
                                        r"it needs a LaurentSeries$"):
        make()


def test_factor_y_of_an_exact_y_product_is_exact():
    # every peel parameter is an exact quotient of minors of an exact input
    rng = random.Random(21)
    for group, word in ((G1, (1,)), (G2, (1, 2, 1)), (G2, (2, 1, 2)),
                        (G3, (2, 1, 3, 2, 1, 3))):
        for _ in range(3):
            ps = [random_unit_series(rng).shift(rng.randint(-2, 2)) for _ in word]
            qs = group.factor_y(group.y_product(word, ps), word)
            assert all(q.equals_exact(p) for p, q in zip(ps, qs)), (word, ps, qs)


def _factor_z_cases():
    """Every reduced word of w_0 in A1-A3 and a seeded 20 of A4's 768."""
    cases = []
    for rank in (1, 2, 3, 4):
        datum = build_root_datum("A", rank)
        words = datum.enumerate_reduced_words(datum.longest_element())
        if rank == 4:
            words = random.Random("factor-z-a4").sample(sorted(words), 20)
        cases += [(rank, word) for word in words]
    assert len(cases) == 1 + 2 + 16 + 20
    return cases


def _ref_factor_z_vals(group, g, word):
    """ref_factor_z's parameters and valuations at relative precision 16, or
    at 32 where the peel's nested divisions leave a window of 16 all zero."""
    for prec in (16, 32):
        set_default_rel_prec(prec)
        try:
            ref = ref_factor_z(group, g, word)
            return ref, [q.val() for q in ref]
        except PrecisionError:
            if prec == 32:
                raise


@pytest.mark.parametrize("rank, word", _factor_z_cases(), ids=str)
def test_factor_z_matches_the_gauss_and_peel_reference(rank, word):
    # the Chamber Ansatz against the Gauss factor of g wbar(w0), peeled, on
    # monomials k t^m as trop_eval draws them and on unit series t^m (a + b t +
    # c t^2): equal valuations, and coefficients equal on the common window
    group = {1: G1, 2: G2, 3: G3, 4: G4}[rank]
    rng = random.Random(repr(("factor-z", word)))
    before = default_rel_prec()
    try:
        for ps in ([LaurentSeries.t_power(rng.randint(-3, 3), rng.randint(1, 3)) for _ in word],
                   [random_unit_series(rng).shift(rng.randint(-3, 3)) for _ in word]):
            set_default_rel_prec(16)
            g = group.y_product(word, ps)
            got = group.factor_z(g, word)
            ref, vals = _ref_factor_z_vals(group, g, word)
            assert [q.val() for q in got] == vals, (word, ps)
            assert all(q.agrees_with(r) for q, r in zip(got, ref)), (word, ps)
    finally:
        set_default_rel_prec(before)


def test_factor_y_rejects_a_peeled_parameter_with_an_empty_window():
    # at relative precision 16 the nested divisions of Gauss plus peel leave
    # the last parameter of this A4 word known only as O(t^-3); the residual
    # check compares known windows only, so the peel itself must refuse it
    word = (1, 3, 2, 3, 1, 4, 3, 2, 1, 3)
    rng = random.Random(repr(("factor-z", word)))
    # the unit-series input of the reference comparison, drawn after its monomials
    [LaurentSeries.t_power(rng.randint(-3, 3), rng.randint(1, 3)) for _ in word]
    ps = [random_unit_series(rng).shift(rng.randint(-3, 3)) for _ in word]
    before = default_rel_prec()
    try:
        set_default_rel_prec(16)
        g = G4.y_product(word, ps)
        with pytest.raises(PrecisionError, match=r"^peeled parameter of y_3 at step 9 of "
                                                 r"\(1, 3, 2, 3, 1, 4, 3, 2, 1, 3\) "
                                                 r"is O\(t\^-3\)$"):
            ref_factor_z(G4, g, word)
        set_default_rel_prec(32)
        assert [q.val() for q in ref_factor_z(G4, g, word)] == \
            [q.val() for q in G4.factor_z(g, word)]
    finally:
        set_default_rel_prec(before)


def _peel_by_both_routes(group, g, word):
    """factor_y of g twice, the second time on the peel plan the first call
    kept, and ref_factor_y of g: each a parameter list or the error class."""
    def outcome(peel):
        try:
            return peel(g, word)
        except (GenericityError, PrecisionError) as e:
            return type(e)

    return outcome(group.factor_y), outcome(group.factor_y), \
        outcome(lambda h, w: ref_factor_y(group, h, w))


@pytest.mark.parametrize("datum", [A2, A3], ids=["A2", "A3"])
def test_factor_y_matches_the_whole_residual_peel(datum):
    # every reduced word of w_0, on the exact y-products of criterion 12's
    # unit series and on the windowed Gauss factors z_of makes of monomials
    # at relative precision 1 and 32: equal parameters, coefficients and caps.
    # One new group peels them all, so each word's first call builds its
    # peel plan and every later call reads the kept one
    group = LoopGroup(datum)
    rng = random.Random(repr((verify._SEED, "crit12", datum.rank)))
    words = sorted(datum.enumerate_reduced_words(datum.longest_element()))
    outcomes = []
    before = default_rel_prec()
    try:
        for word in words:
            assert word not in group._plans
            ps = [random_unit_series(rng).shift(rng.randint(-3, 3)) for _ in word]
            outcomes.append(_peel_by_both_routes(group, group.y_product(word, ps), word))
            assert word in group._plans
            mono = random.Random(repr(("peel", word)))
            qs = [LaurentSeries.t_power(mono.randint(-3, 3), mono.randint(1, 3)) for _ in word]
            for prec in (1, 32):
                set_default_rel_prec(prec)
                outcomes.append(_peel_by_both_routes(group, group.z_of(word, qs), word))
    finally:
        set_default_rel_prec(before)
    assert sorted(group._plans) == words
    assert all(first == kept == ref for first, kept, ref in outcomes), outcomes
    # at precision 1 some peeled windows run out, on both routes
    assert {2: 0, 3: 5}[datum.rank] == sum(got is PrecisionError for got, _, _ in outcomes)


def test_factor_y_and_the_whole_residual_peel_refuse_the_a4_reproducer():
    # the input of test_factor_y_rejects_a_peeled_parameter_with_an_empty_window
    word = (1, 3, 2, 3, 1, 4, 3, 2, 1, 3)
    rng = random.Random(repr(("factor-z", word)))
    [LaurentSeries.t_power(rng.randint(-3, 3), rng.randint(1, 3)) for _ in word]
    ps = [random_unit_series(rng).shift(rng.randint(-3, 3)) for _ in word]
    before = default_rel_prec()
    try:
        set_default_rel_prec(16)
        u = G4.gauss_decompose(G4.y_product(word, ps) * G4.wbar_w0)
        assert _peel_by_both_routes(G4, u, word) == (PrecisionError,) * 3
    finally:
        set_default_rel_prec(before)


@pytest.mark.parametrize("entry", [LaurentSeries.t_power(1), LaurentSeries({}, cap=5)],
                         ids=["t", "O(t^5)"])
def test_factor_y_rejects_a_matrix_not_exactly_zero_above_the_diagonal(entry):
    # the peel rewrites row i+1 left of column i+1 only, which is all of
    # "row i+1 -= p * row i" only when row i is exactly zero right of column i
    one, zero = LaurentSeries.one(), LaurentSeries.zero()
    g = LaurentMatrix([[one, entry, zero], [LaurentSeries.t_power(-1), one, zero],
                       [zero, one, one]])
    with pytest.raises(GenericityError, match=r"^factor_y input of SL_3 on \(1, 2, 1\) is "
                                              r"not exactly zero above the diagonal$"):
        G2.factor_y(g, (1, 2, 1))


@pytest.mark.parametrize("b", [G2.gen_x(A2.simple_root(1), LaurentSeries.t_power(1)),
                               G2.gen_t(Coweight((1, -1)))], ids=["x_alpha1(t)", "t^(1,-1)"])
def test_factor_z_rejects_a_matrix_off_n_minus(b):
    # the Gauss-plus-peel path reads b g as g for upper triangular b; the
    # chamber minors would not, so factor_z refuses b g
    t = LaurentSeries.t_power
    g = G2.y_product((1, 2, 1), (t(1), t(2), t(1)))
    assert [q.val() for q in ref_factor_z(G2, b * g, (1, 2, 1))] == [-2, -1, -2]
    with pytest.raises(GenericityError, match=r"^factor_z input of SL_3 on \(1, 2, 1\) "
                                              r"is not lower unitriangular$"):
        G2.factor_z(b * g, (1, 2, 1))


def test_factor_z_names_a_vanishing_chamber_minor():
    # y_1(1) y_2(0) y_1(1) = y_1(2): the chamber minors on rows {2, 3} x
    # columns {1, 2} (step 1) and on rows {3} x column {1} (step 2) are 0
    one, zero = LaurentSeries.one(), LaurentSeries.zero()
    g = G2.y_product((1, 2, 1), (one, zero, one))
    with pytest.raises(GenericityError, match=r"^chamber minor on rows \[2, 3\] at step 1 "
                                              r"of SL_3 on \(1, 2, 1\) is exactly zero$"):
        G2.factor_z(g, (1, 2, 1))


def test_gauss_lower_already():
    g = G1.gen_y(1, LaurentSeries({0: 5}))
    assert G1.gauss_decompose(g).agrees_with(g)


def test_z_of_lands_in_uminus():
    rng = random.Random(14)
    word = (1, 2, 1)
    qs = [random_unit_series(rng).shift(rng.randint(0, 2)) for _ in word]
    z = G2.z_of(word, qs)
    for i in range(3):
        assert z[i, i].agrees_with(LaurentSeries.one())
        for j in range(i + 1, 3):
            assert z[i, j].is_known_zero


def test_factor_y_roundtrip_random():
    rng = random.Random(15)
    for group, words in ((G2, ((1, 2, 1), (2, 1, 2))), (G3, ((2, 1, 3, 2, 1, 3),))):
        for word in words:
            for _ in range(10):
                ps = [random_unit_series(rng).shift(rng.randint(-3, 3)) for _ in word]
                g = group.y_product(word, ps)
                qs = group.factor_y(g, word)
                assert [q.val() for q in qs] == [p.val() for p in ps]
                for p, q in zip(ps, qs):
                    assert p.agrees_with(q)


@pytest.mark.parametrize("group", [G2, G3], ids=["A2", "A3"])
def test_factor_y_roundtrip_every_reduced_word(group):
    words = group.datum.enumerate_reduced_words(group.datum.longest_element())
    assert len(words) == {2: 2, 3: 16}[group.datum.rank]
    for word in words:
        rng = random.Random(repr(word))
        ps = [random_unit_series(rng).shift(rng.randint(-2, 2)) for _ in word]
        qs = group.factor_y(group.y_product(word, ps), word)
        assert [q.val() for q in qs] == [p.val() for p in ps], word
        assert all(p.agrees_with(q) for p, q in zip(ps, qs)), word


def test_factor_y_exactly_singular_input_is_not_generic():
    # y_1(a) y_2(0) y_1(c) = y_1(a + c) lies outside the open cell
    one = LaurentSeries.one()
    g = G2.y_product((1, 2, 1), (one, LaurentSeries.zero(), one))
    with pytest.raises(GenericityError, match="exactly zero"):
        G2.factor_y(g, (1, 2, 1))


def test_gauss_pivot_exactly_zero_names_the_group():
    one, zero = LaurentSeries.one(), LaurentSeries.zero()
    g = LaurentMatrix([[zero, one], [one, zero]])
    with pytest.raises(GenericityError, match=r"^Gauss pivot 0 of SL_2 is exactly zero$"):
        G1.gauss_decompose(g)


def test_factor_y_residual_names_the_group_and_the_word():
    # t^alpha^vee is not lower unitriangular: the peel leaves it in place
    g = LaurentMatrix([[LaurentSeries.t_power(1), LaurentSeries.zero()],
                       [LaurentSeries.zero(), LaurentSeries.t_power(-1)]])
    with pytest.raises(GenericityError, match=r"^factorization residual of SL_2 on "
                                              r"\(1,\) is not the identity$"):
        G1.factor_y(g, (1,))


def test_gauss_pivot_below_precision_raises_precision_error():
    # a pivot known to vanish below t^8 may still be nonzero: escalate
    one, zero = LaurentSeries.one(), LaurentSeries.zero()
    g = LaurentMatrix([[one, zero], [zero, LaurentSeries({}, 8)]])
    with pytest.raises(PrecisionError):
        G1.gauss_decompose(g)


def test_every_loop_group_runs_its_self_check(monkeypatch):
    LoopGroup(A2)
    monkeypatch.setattr(LoopGroup, "gen_sbar", lambda self, i: LaurentMatrix.identity(self.n))
    with pytest.raises(LoopGroupError, match="sbar torus identity"):
        LoopGroup(A2)


# -- counterexample -------------------------------------------------------------------

def test_counterexample_matrix_exact():
    g = counterexample_matrix(G3)
    assert g[3, 0].equals_exact(LaurentSeries.t_power(-1, -1))
    assert g.det().equals_exact(LaurentSeries.one())


def test_counterexample_valuation_pattern():
    from mvcrystals.crystal import string_param_from_c_tilde
    from mvcrystals.trails import in_string_cone, string_cone_inequalities

    word = (2, 1, 3, 2, 1, 3)
    g = counterexample_matrix(G3)
    ps = G3.factor_y(g, word)
    c_tilde = tuple(p.val() for p in ps)
    assert c_tilde == (0, -1, -1, 1, -1, -1)
    c = string_param_from_c_tilde(A3, word, c_tilde).c
    assert c == (0, 0, 0, 1, 1, 1)
    assert c[0] <= 0 and c[3] >= 1
    rows, _ = string_cone_inequalities(A3, word)
    assert not in_string_cone(c, rows)


# -- sampling ---------------------------------------------------------------------------

def test_sample_ytilde_zero():
    for g in sample_ytilde(G2, (1, 2, 1), (0, 0, 0), trials=3):
        assert G2.mu_plus(g) == Coweight((0, 0))
        assert G2.mu_minus(g) == Coweight((0, 0))


@pytest.mark.parametrize("word,c", [((1, 2), (1, 0)), ((1, 1, 1), (1, 0, 1))],
                         ids=["short", "not-reduced"])
def test_sample_ytilde_needs_a_reduced_word_of_w0(word, c):
    # Y~_{i,c} is defined only when i is a reduced word of w_0
    with pytest.raises(RootDataError, match=rf"^{re.escape(str(word))} is not a reduced "
                                            r"word of w_0 for A2 \(3 letters in 1\.\.2\)$"):
        sample_ytilde(G2, word, c)


@pytest.mark.parametrize("trials", [0, -3])
def test_samplers_and_trop_eval_need_one_trial(theta_graph, trials):
    message = f"^trials must be at least 1, got {trials}$"
    for run in (lambda: sample_ytilde(G2, (1, 2, 1), (1, 0, 1), trials=trials),
                lambda: sample_cell(G2, theta_graph.nodes[0], trials=trials),
                lambda: trop_eval(lambda ps: ps, [0, 1], trials=trials)):
        with pytest.raises(ValueError, match=message):
            run()


def test_sample_ytilde_in_cone():
    c = (1, 1, 0)
    lam = Coweight((1, 1))
    for g in sample_ytilde(G2, (1, 2, 1), c, trials=5):
        assert G2.mu_minus(g) == Coweight((0, 0))
        assert G2.mu_plus(g) == lam


def test_sample_ytilde_in_cone_a5_along_the_nice_word():
    # criterion 7's statement past the old rank-4 cap: on the word
    # (1, 2 1, ..., 5 4 3 2 1) the cone is one chain per block (Littelmann),
    # so block-wise nonincreasing strings lie in it
    from mvcrystals.trails import in_string_cone, string_cone_inequalities

    a5 = build_root_datum("A", 5)
    group = LoopGroup(a5)
    word = tuple(i for top in range(1, 6) for i in range(top, 0, -1))
    rows, _ = string_cone_inequalities(a5, word)
    rng = random.Random(5)
    for _ in range(6):
        c = tuple(x for size in range(1, 6)
                  for x in sorted((rng.randint(0, 2) for _ in range(size)), reverse=True))
        assert in_string_cone(c, rows), c
        lam = a5.zero_coweight()
        for i, cj in zip(word, c):
            lam = lam + a5.simple_coroot(i).scale(cj)
        for g in sample_ytilde(group, word, c, trials=2):
            assert group.mu_minus(g) == a5.zero_coweight() and group.mu_plus(g) == lam, c


def test_sample_ytilde_out_of_cone():
    c = (0, 0, 1)
    lam = Coweight((1, 0))
    for g in sample_ytilde(G2, (1, 2, 1), c, trials=5):
        assert A2.dominance_leq(lam, G2.mu_plus(g)) and G2.mu_plus(g) != lam


@pytest.fixture(scope="module")
def theta_graph():
    return enumerate_ls(build_gallery_type(A2, Coweight((1, 1))))


def test_sample_cell_strata(theta_graph):
    lam = Coweight((1, 1))
    for node in theta_graph.nodes:
        for g in sample_cell(G2, node, trials=3):
            assert G2.mu_plus(g) == node.weight
            assert A2.dominance_leq(A2.dominant_conjugate(G2.orbit_coweight(g)), lam)


def test_prop58_sampled_retraction(theta_graph):
    # s_i mu_+(sbar_i^{-1} x) = nu - (<alpha_i, nu> - m) alpha_i^vee on samples
    rng = random.Random(16)
    for node in theta_graph.nodes:
        nu = node.weight
        for i in (1, 2):
            m = min_wall_level(node, i)
            rho = nu - A2.simple_coroot(i).scale(A2.pairing(A2.simple_root(i), nu) - m)
            sbar_inv = G2.gen_sbar(i).inverse()
            for _ in range(2):
                x = cell_point(G2, node, rng)
                got = A2.simple_reflection(i).act_coweight(G2.mu_plus(sbar_inv * x))
                assert got == rho, (node.weight.coords, i, got.coords, rho.coords)


def test_crystal_op_stabilize_k0(theta_graph):
    # k = 0: y_i(p t^{eps_i}) with val p = 0 stabilizes the cycle pointwise
    rng = random.Random(17)
    for node in list(theta_graph.nodes)[:4]:
        for i in (1, 2):
            _, eps, _ = crystal_maps(node, i)
            x = cell_point(G2, node, rng)
            [moved] = crystal_op_sample(G2, [x], i, 0, eps)
            assert G2.mu_plus(moved) == G2.mu_plus(x)
            assert G2.mu_minus(moved) == G2.mu_minus(x)


def test_crystal_op_sample_matches_target(theta_graph):
    rng = random.Random(18)
    for node in theta_graph.nodes:
        for i in (1, 2):
            up = root_e(node, i)
            if up is None:
                continue
            _, eps, _ = crystal_maps(node, i)
            pts = [cell_point(G2, node, rng) for _ in range(2)]
            for g, base in zip(crystal_op_sample(G2, pts, i, 1, eps),
                               sample_cell(G2, up, trials=2)):
                assert G2.mu_plus(g) == up.weight == G2.mu_plus(base)
                assert G2.mu_minus(g) == G2.mu_minus(base)


# -- tropical maps -----------------------------------------------------------------------

def test_trop_eval_identity():
    out = trop_eval(lambda ps: ps, [3, -2, 0])
    assert out == [3, -2, 0]


def test_trop_eval_sum():
    out = trop_eval(lambda ps: [ps[0] + ps[1]], [0, 0])
    assert out == [0]


def test_trop_mutually_inverse_random_vectors():
    rng = random.Random(19)
    word = (1, 2, 1)
    f = string_to_lusztig_map(G2, word)
    g = lusztig_to_string_map(G2, word)
    for _ in range(20):
        m = [rng.randint(-2, 2) for _ in word]
        fw = trop_eval(f, m)
        back = trop_eval(g, fw)
        assert back == m


@pytest.mark.parametrize("rank, word", [(rank, word) for rank in (2, 3) for word in
                                        build_root_datum("A", rank).enumerate_reduced_words(
                                            build_root_datum("A", rank).longest_element())],
                         ids=str)
def test_the_two_evaluators_are_one_map(rank, word):
    # with T(g) the lower Gauss factor of g wbar(w0)^-1, factor_z = y^-1 o T
    # (the Chamber Ansatz) and wbar(w0)^2 is a central sign, so
    # lusztig_to_string_map = y^-1 o T o y = string_to_lusztig_map: the
    # chamber minors and Gauss plus peel compute one involution
    group = {2: G2, 3: G3}[rank]
    rng = random.Random(repr(("one-map", word)))
    inputs = [[LaurentSeries.t_power(rng.randint(-3, 3), rng.randint(1, 3)) for _ in word]]
    if rank == 2:
        inputs.append([random_unit_series(rng).shift(rng.randint(-3, 3)) for _ in word])
    for ps in inputs:
        chamber = string_to_lusztig_map(group, word)(ps)
        peeled = lusztig_to_string_map(group, word)(ps)
        assert [q.val() for q in chamber] == [q.val() for q in peeled], (word, ps)
        assert all(q.agrees_with(r) for q, r in zip(chamber, peeled)), (word, ps)


def test_lusztig_from_string_sl2():
    assert lusztig_from_string(G1, (1,), (0,)) == [0]
    assert lusztig_from_string(G1, (1,), (-2,)) == [2]


def test_lusztig_nonneg_and_morier_genoud(theta_graph):
    lam = Coweight((1, 1))
    flip = crystal_isomorphic(theta_graph, theta_graph.dual())
    for word in ((1, 2, 1), (2, 1, 2)):
        c_tilde = {node: string_parameters(theta_graph, node, word).c_tilde
                   for node in theta_graph.nodes}
        lusztig = {node: lusztig_from_string(G2, word, c) for node, c in c_tilde.items()}
        for node in theta_graph.nodes:
            assert all(n >= 0 for n in lusztig[node])
            assert morier_genoud_check(G2, word, c_tilde[node], lusztig[flip[node]], lam)


def test_cross_word_string_transition(theta_graph):
    # strings w.r.t. two words are related by the tropical transition of
    # the birational map y_j^{-1} o y_i
    word_i, word_j = (1, 2, 1), (2, 1, 2)

    def func(ps):
        g = G2.y_product(word_i, ps)
        return G2.factor_y(g, word_j)

    for node in theta_graph.nodes:
        ci = string_parameters(theta_graph, node, word_i).c_tilde
        cj = string_parameters(theta_graph, node, word_j).c_tilde
        got = trop_eval(func, list(ci))
        assert tuple(got) == cj, (ci, cj, got)


def _randomized_trop_eval(func, m, trials=3, seed=7, arg_tag="trop", retries=5):
    """Reference oracle: valuations of func at random inputs
    a_j t^{m_j} (1 + random higher terms), which must agree over `trials`
    draws; a disagreement redraws with a derived seed, and a PrecisionError
    doubles the relative precision up to 256."""
    base = prec = default_rel_prec()
    try:
        for attempt in range(retries):
            set_default_rel_prec(prec)
            try:
                outcomes = set()
                for trial in range(trials):
                    rng = random.Random(repr((seed, arg_tag, tuple(m), attempt, trial)))
                    ps = [random_unit_series(rng).shift(mj) for mj in m]
                    outcomes.add(tuple(s.val() for s in func(ps)))
                if len(outcomes) == 1:
                    return list(outcomes.pop())
            except PrecisionError:
                prec = min(2 * prec, 256)
    finally:
        set_default_rel_prec(base)
    raise GenericityError(f"no agreeing draws in {retries} attempts at m = {m}")


def _assert_trop_matches_randomized(group, word, c_tilde):
    """Both directions of the transition map agree with the oracle."""
    n_vec = trop_eval(string_to_lusztig_map(group, word), list(c_tilde))
    assert n_vec == _randomized_trop_eval(string_to_lusztig_map(group, word),
                                          list(c_tilde)), (word, c_tilde)
    back = trop_eval(lusztig_to_string_map(group, word), n_vec)
    assert back == _randomized_trop_eval(lusztig_to_string_map(group, word),
                                         n_vec) == list(c_tilde), (word, n_vec)


def _criterion_11_strings(theta_graph):
    """Every string criterion 11 feeds in: each node and its contragredient
    twin, on both reduced words of w_0."""
    inputs = set()
    flip = crystal_isomorphic(theta_graph, theta_graph.dual())
    for word in ((1, 2, 1), (2, 1, 2)):
        for node in theta_graph.nodes:
            for b in (node, flip[node]):
                inputs.add((word, string_parameters(theta_graph, b, word).c_tilde))
    assert len(inputs) == 16
    return sorted(inputs)


def test_trop_eval_matches_randomized_oracle_on_criterion_11(theta_graph):
    for word, c_tilde in _criterion_11_strings(theta_graph):
        _assert_trop_matches_randomized(G2, word, c_tilde)


@pytest.mark.parametrize("word", [(2, 1, 3, 2, 1, 3), (1, 2, 1, 3, 2, 1)])
def test_trop_eval_matches_randomized_oracle_a3(word):
    rng = random.Random(repr(("a3-oracle", word)))
    for _ in range(4):
        _assert_trop_matches_randomized(G3, word, [rng.randint(-2, 2) for _ in word])


def _a2_braid_move(n):
    """Lusztig's piecewise-linear change of PBW parameters between the
    words (1,2,1) and (2,1,2) of A2 (Lusztig, J. AMS 1990); an involution."""
    a, b, c = n
    m = min(a, c)
    return (b + c - m, m, a + b - m)


def test_lusztig_parameters_related_by_a2_braid_move(theta_graph):
    # hand-worked: (a,b,c) = (2,0,1) has min(a,c) = 1, so it maps to
    # (0+1-1, 1, 2+0-1) = (0,1,1), and back again
    assert _a2_braid_move((2, 0, 1)) == (0, 1, 1)
    assert _a2_braid_move((0, 1, 1)) == (2, 0, 1)
    rows = {}
    for node in theta_graph.nodes:
        n121, n212 = (tuple(lusztig_from_string(
            G2, word, string_parameters(theta_graph, node, word).c_tilde))
            for word in ((1, 2, 1), (2, 1, 2)))
        assert _a2_braid_move(n121) == n212
        assert _a2_braid_move(n212) == n121
        rows[n121] = n212
    assert len(rows) == 8
    # the convention pinned on the crystal: the node with parameter (2,0,1)
    # on (1,2,1) has parameter (0,1,1) on (2,1,2)
    assert rows[(2, 0, 1)] == (0, 1, 1)


@pytest.mark.parametrize("func,m,reason", [
    (lambda ps: [ps[0] - ps[1]], [0, 0], "exactly zero"),
    (lambda ps: [ps[0], -ps[1]], [1, 2], "mixed sign"),
    # valuation 1 at k = 1, valuation 0 at k = 2
    (lambda ps: [ps[0] - LaurentSeries.one() + LaurentSeries.t_power(1)], [0],
     "valuations differ"),
])
def test_trop_eval_tripwire_on_a_nonpositive_map(func, m, reason):
    before = default_rel_prec()
    with pytest.raises(LoopGroupError, match=reason):
        trop_eval(func, m)
    assert default_rel_prec() == before


def test_lusztig_from_string_inverse_check_names_its_inputs(monkeypatch):
    monkeypatch.setattr(sampling, "lusztig_to_string_map",
                        lambda group, word: lambda qs: [q.shift(1) for q in qs])
    with pytest.raises(LoopGroupError) as exc:
        lusztig_from_string(G2, (1, 2, 1), (0, -1, 0))
    msg = str(exc.value)
    n_vec = trop_eval(string_to_lusztig_map(G2, (1, 2, 1)), [0, -1, 0])
    assert "(1, 2, 1)" in msg and "(0, -1, 0)" in msg and str(n_vec) in msg


@pytest.fixture
def prec_log(monkeypatch):
    """Every precision trop_eval sets, in order, from a default of 2."""
    log = []

    def record(n):
        log.append(n)
        set_default_rel_prec(n)

    monkeypatch.setattr(sampling, "set_default_rel_prec", record)
    before = default_rel_prec()
    set_default_rel_prec(2)
    yield log
    set_default_rel_prec(before)


def test_trop_eval_doubles_precision_then_restores_it(prec_log):
    def needs_16(ps):
        if default_rel_prec() < 16:
            raise PrecisionError("pivot indistinguishable from zero")
        return ps

    assert trop_eval(needs_16, [1, -1]) == [1, -1]
    assert prec_log == [2, 4, 8, 16, 2]


def test_trop_eval_precision_shortfall_at_256_propagates(prec_log):
    def never(ps):
        raise PrecisionError("pivot indistinguishable from zero")

    with pytest.raises(PrecisionError):
        trop_eval(never, [0])
    assert prec_log == [2, 4, 8, 16, 32, 64, 128, 256, 2]
    assert default_rel_prec() == 2


def test_trop_eval_makes_one_attempt_on_a_division_by_the_exact_zero(prec_log):
    # the exact zero is exact at every precision, so escalating cannot help
    attempts = []

    def divides_by_zero(ps):
        attempts.append(default_rel_prec())
        return [ps[0] / LaurentSeries.zero()]

    with pytest.raises(ZeroDivisionError, match="exact zero"):
        trop_eval(divides_by_zero, [0])
    assert attempts == [2]
    assert prec_log == [2, 2]


def test_trop_eval_restores_precision_when_func_raises(prec_log):
    def broken(ps):
        raise ValueError("broken evaluator")

    with pytest.raises(ValueError):
        trop_eval(broken, [0])
    assert prec_log == [2, 2]
    assert default_rel_prec() == 2


def test_trop_eval_escalates_on_the_a3_reproducer(prec_log):
    # the chamber minors of an exact input are exact, so the string -> Lusztig
    # map needs one attempt at relative precision 1
    set_default_rel_prec(1)
    word = (2, 1, 3, 2, 1, 3)
    assert trop_eval(string_to_lusztig_map(G3, word), [-1, -1, 0, 0, -2, 1]) == \
        [1, -1, 3, -1, 0, 2]
    assert prec_log == [1, 1]
    # the inverse map peels z_of's Gauss factor: at 1 a peel divisor's window
    # is zero, at 2 it is not, so it runs at 1 and then at 2
    prec_log.clear()
    assert trop_eval(lusztig_to_string_map(G3, word), [1, -1, 3, -1, 0, 2]) == \
        [-1, -1, 0, 0, -2, 1]
    assert prec_log == [1, 2, 1]


def test_mu_plus_dominates_mu_minus_on_samples(theta_graph):
    # Prop on nonempty intersections: every sampled point has mu+ >= mu-
    for node in list(theta_graph.nodes)[:4]:
        for g in sample_cell(G2, node, trials=2):
            assert A2.dominance_leq(G2.mu_minus(g), G2.mu_plus(g))
    for c in ((1, 1, 0), (0, 0, 1), (2, 1, 1)):
        for g in sample_ytilde(G2, (1, 2, 1), c, trials=2):
            assert A2.dominance_leq(G2.mu_minus(g), G2.mu_plus(g))


def test_orbit_of_antidominant_torus_point():
    lam = Coweight((-2, -1))
    assert A2.is_antidominant(lam)
    assert G2.orbit_coweight(G2.gen_t(lam)) == lam


def test_group_elements_have_det_one():
    rng = random.Random(20)
    g = LaurentMatrix.identity(3)
    for i in (1, 2, 1):
        g = g * G2.gen_y(i, random_unit_series(rng).shift(rng.randint(-2, 2)))
        g = g * G2.gen_x(A2.simple_root(i), random_unit_series(rng))
    g = g * G2.gen_t(Coweight((1, -1))) * G2.gen_wbar((1, 2))
    d = g.det()
    assert d.equals_exact(LaurentSeries.one())


def test_grassmann_point_wrapper():
    g = G1.gen_y(1, LaurentSeries.t_power(-1))
    assert G1.mu_plus(g) == Coweight((1,))
    assert G1.mu_minus(g) == Coweight((0,))
    assert G1.orbit_coweight(g) == Coweight((-1,))
    # the invariants depend only on the coset [g]
    moved = g * G1.gen_x(A1.simple_root(1), 5)
    assert G1.coset_equal(g, moved)
    assert G1.mu_plus(moved) == G1.mu_plus(g)
    assert G1.mu_minus(moved) == G1.mu_minus(g)
    assert G1.orbit_coweight(moved) == G1.orbit_coweight(g)


def test_counterexample_checked_under_python_O(run_python):
    code = (
        "from mvcrystals.looplab import LoopGroup, LoopGroupError, counterexample_matrix\n"
        "from mvcrystals.looplab.series import LaurentMatrix\n"
        "from mvcrystals.rootdata import build_root_datum\n"
        "assert False, 'asserts are live'\n"
        "group = LoopGroup(build_root_datum('A', 3))\n"
        "LaurentMatrix.equals_exact = lambda self, other: False\n"
        "try:\n"
        "    counterexample_matrix(group)\n"
        "except LoopGroupError as exc:\n"
        "    print('raised:', exc)\n"
    )
    out = run_python(code, "-O")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: counterexample product drifted")


@pytest.mark.parametrize("value", ["abc", "12.5", "0", "257", "300", "1", "256"])
def test_import_ignores_a_prec_environment(run_python, value):
    # no environment variable sets the precision: it is 32 until
    # set_default_rel_prec sets another
    code = ("from mvcrystals.looplab import default_rel_prec\n"
            "print(default_rel_prec())\n")
    out = run_python(code, MVCRYSTALS_PREC=value)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "32"
