"""Property tests of the series layer: ring laws and valuations on exact
Laurent polynomials, the precision-window contract of division, inverse
and sqrt, results that do not depend on whether a coefficient was given
as int or Fraction, the sum-of-products kernel, with its base addend and its
exact-zero and exact-unit shortcuts, against the chains of ``+`` and ``*`` it
replaces, and the one upward walk of long division against the search for
the remainder's lowest term at every step."""

from contextvars import copy_context
from fractions import Fraction
from functools import cache
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvcrystals.looplab import LaurentMatrix, LaurentSeries, LoopGroup, set_default_rel_prec
from mvcrystals.looplab.series import sum_products
from mvcrystals.rootdata import build_root_datum
from reference import ref_long_division
from stabwork import sqrt

_COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def _polynomials(min_exp=-4, max_exp=4, min_size=0):
    """Exact Laurent polynomials with small rational coefficients."""
    return st.dictionaries(st.integers(min_exp, max_exp), _COEFF,
                           min_size=min_size, max_size=5).map(LaurentSeries)


def _unit_lead(low, sign, tail):
    """sign t^low + terms above it: a polynomial with a +-1 leading term."""
    return LaurentSeries({low: sign, **{low + e: c for e, c in tail.items()}})


# exact units, monomials with an int lead and polynomials with a +-1 lead:
# the operands that sum_products and long division take shortcuts on
_SHORTCUTS = st.sampled_from([LaurentSeries.one(), -LaurentSeries.one()]) | st.builds(
    LaurentSeries.t_power, st.integers(-3, 3), st.sampled_from([1, -1, 2, -3])) | st.builds(
    _unit_lead, st.integers(-3, 3), st.sampled_from([1, -1]),
    st.dictionaries(st.integers(1, 4), _COEFF, max_size=3))
_POLY = _polynomials() | _SHORTCUTS
_NONZERO = _polynomials(min_size=1).filter(lambda s: not s.is_known_zero) | _SHORTCUTS


def _unit_coeffs():
    """Coefficients of r^2 + a_1 t + ... + a_4 t^4 with r a nonzero rational."""
    return st.tuples(
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
        st.dictionaries(st.integers(1, 4), _COEFF, max_size=4),
    ).map(lambda rc: {0: rc[0] ** 2, **rc[1]})


def _unit_with_square_constant():
    return _unit_coeffs().map(LaurentSeries)


_SETTINGS = settings(max_examples=60, deadline=None)


def at_prec(p, f, *args):
    """f(*args) at the context precision p (None: the default), set in a
    copied context so the caller's precision is untouched."""
    def run():
        if p is not None:
            set_default_rel_prec(p)
        return f(*args)
    return copy_context().run(run)


@_SETTINGS
@given(_POLY, _POLY, _POLY)
def test_ring_laws_on_exact_polynomials(a, b, c):
    zero, one = LaurentSeries.zero(), LaurentSeries.one()
    assert (a + b).equals_exact(b + a)
    assert (a * b).equals_exact(b * a)
    assert ((a + b) + c).equals_exact(a + (b + c))
    assert ((a * b) * c).equals_exact(a * (b * c))
    assert (a * (b + c)).equals_exact(a * b + a * c)
    assert (a + zero).equals_exact(a)
    assert (a * one).equals_exact(a)
    assert (a - a).equals_exact(zero)
    assert (a * zero).equals_exact(zero)


@_SETTINGS
@given(_NONZERO, _NONZERO)
def test_valuation_is_additive(a, b):
    assert (a * b).val() == a.val() + b.val()


@_SETTINGS
@given(_NONZERO, st.integers(1, 12), st.none() | st.integers(1, 16))
def test_inverse_window_agrees_with_four_times_the_precision(a, p, window):
    # a windowed divisor sets the window itself: the finer inverse is then of
    # the same polynomial known only below val + 4 * window, not val + window
    fine_a = a
    if window is not None:
        fine_a = LaurentSeries(a.coeffs, a.val() + 4 * window)
        a = LaurentSeries(a.coeffs, a.val() + window)
    coarse, fine = at_prec(p, a.inverse), at_prec(4 * p, fine_a.inverse)
    assert coarse.agrees_with(fine)
    assert (a * coarse).agrees_with(LaurentSeries.one())


def _stored_canonically(s):
    """Every stored coefficient is an int, or a Fraction with a denominator."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in s.coeffs.values())


def _windowed(a, window):
    """a known only on `window` exponents from its lowest term (None: exact)."""
    if window is None:
        return a
    return LaurentSeries(a.coeffs, (a.val_lower_bound() or 0) + window)


@_SETTINGS
@given(_POLY, _NONZERO, st.none() | st.integers(1, 4))
def test_exact_quotient_of_a_product_is_exact(a, b, p):
    # exact even when the quotient reaches past the relative precision p
    q = at_prec(p, (a * b).__truediv__, b)
    assert q.cap is None and q.equals_exact(a)


@_SETTINGS
@given(_POLY, _NONZERO, st.none() | st.integers(1, 12),
       st.none() | st.integers(1, 8), st.none() | st.integers(1, 8))
def test_division_agrees_with_multiplying_by_the_inverse(a, b, p, wa, wb):
    a, b = _windowed(a, wa), _windowed(b, wb)
    q, ref = at_prec(p, a.__truediv__, b), a * at_prec(p, b.inverse)
    assert _stored_canonically(q) and _stored_canonically(ref)
    assert q.agrees_with(ref)
    assert (q * b).agrees_with(a)
    # the quotient's window is never smaller
    assert q.cap is None or (ref.cap is not None and q.cap >= ref.cap)


@_SETTINGS
@given(_unit_with_square_constant(), st.integers(1, 12))
def test_sqrt_window_agrees_with_four_times_the_precision(a, p):
    coarse, fine = sqrt(a, rel_prec=p), sqrt(a, rel_prec=4 * p)
    assert coarse.agrees_with(fine)
    assert (coarse * coarse).agrees_with(a)


def _twin(coeffs):
    """One exact polynomial built twice: integral coefficients given as int,
    and every coefficient given as Fraction."""
    return (LaurentSeries({e: c.numerator if c.denominator == 1 else c
                           for e, c in coeffs.items()}),
            LaurentSeries({e: Fraction(c) for e, c in coeffs.items()}))


def _same_series(results):
    first = results[0]
    return all(_stored_canonically(r) and r.coeffs == first.coeffs and r.cap == first.cap
               for r in results)


_TWINS = st.dictionaries(st.integers(-4, 4), _COEFF, max_size=5).map(_twin)
_NONZERO_TWINS = st.dictionaries(st.integers(-4, 4), _COEFF, min_size=1, max_size=5) \
    .map(_twin).filter(lambda ab: not ab[0].is_known_zero)


@_SETTINGS
@given(_TWINS, _NONZERO_TWINS, st.integers(1, 12))
def test_int_and_fraction_storage_give_the_same_series(a, b, p):
    ops = [
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x * y,
        lambda x, y: at_prec(p, x.__truediv__, y),
        lambda x, y: at_prec(p, y.inverse),
    ]
    assert _same_series(a) and _same_series(b)
    for op in ops:
        assert _same_series([op(x, y) for x in a for y in b])


@_SETTINGS
@given(_unit_coeffs().map(_twin), st.integers(1, 12))
def test_sqrt_is_independent_of_coefficient_storage(u, p):
    assert _same_series([sqrt(x, rel_prec=p) for x in u])


# -- the sum-of-products kernel against the chains it replaces ---------------

def ref_mul(a, b):
    """The product as one double loop, cap first: val_lower_bound of the
    partner added to each windowed factor's cap."""
    if (a.is_known_zero and a.is_exact) or (b.is_known_zero and b.is_exact):
        return LaurentSeries.zero()
    caps = [c.cap + d.val_lower_bound() for c, d in ((a, b), (b, a)) if c.cap is not None]
    cap = min(caps) if caps else None
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentSeries(out, cap)


def ref_minor(m, rows, cols):
    """Laplace expansion along the first row as a chain of + and *,
    skipping exact-zero entries."""
    if not rows:
        return LaurentSeries.one()
    if len(rows) == 1:
        return m[rows[0], cols[0]]
    out = LaurentSeries.zero()
    for k, j in enumerate(cols):
        a = m[rows[0], j]
        if a.is_known_zero and a.is_exact:
            continue
        term = a * ref_minor(m, rows[1:], cols[:k] + cols[k + 1:])
        out = out - term if k % 2 else out + term
    return out


def ref_dot(u, v):
    acc = LaurentSeries.zero()
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def ref_x_product(n, factors):
    """Column k += column j * p from the identity, as a chain of + and
    ref_mul on every row, exact-zero entries included."""
    one, zero = LaurentSeries.one(), LaurentSeries.zero()
    rows = [[one if a == b else zero for b in range(n)] for a in range(n)]
    for j, k, p in factors:
        for row in rows:
            row[k] = row[k] + ref_mul(row[j], p)
    return rows


def ref_neg(a):
    return LaurentSeries({e: -c for e, c in a.coeffs.items()}, a.cap)


_MIXED = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=3)
# exact and windowed entries, exact zeros and windowed zeros among them
_ENTRY = st.sampled_from([LaurentSeries.zero(), LaurentSeries({}, 0),
                          LaurentSeries({}, 2)]) | _SHORTCUTS | st.builds(
    LaurentSeries, st.dictionaries(st.integers(-2, 3), _MIXED, max_size=3),
    st.none() | st.integers(-1, 5))


def _matrices(n):
    return st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n,
                    max_size=n).map(LaurentMatrix)


def _same(got, want):
    return _stored_canonically(got) and got.coeffs == want.coeffs and got.cap == want.cap


@_SETTINGS
@given(_ENTRY, _ENTRY)
def test_product_matches_the_double_loop(a, b):
    assert _same(a * b, ref_mul(a, b))


@_SETTINGS
@given(_ENTRY, st.sampled_from([1, -1]), st.sampled_from([1, -1]), st.booleans())
def test_a_lone_unit_term_matches_the_double_loop(a, unit, sign, unit_first):
    u = LaurentSeries.from_scalar(unit)
    got = sum_products(((u, a, sign) if unit_first else (a, u, sign),))
    want = ref_mul(u, a)
    assert _same(got, want if sign > 0 else ref_neg(want))


@_SETTINGS
@given(_ENTRY, _ENTRY, _ENTRY)
def test_peel_row_update_matches_the_chained_difference(x, p, y):
    # factor_y's "row i+1 -= p * row i", entry by entry, x the base addend
    got = sum_products(((p, y, -1),), x)
    assert _same(got, x + ref_neg(ref_mul(p, y)))


@_SETTINGS
@given(_ENTRY, st.lists(st.tuples(_ENTRY, _ENTRY, st.sampled_from([1, -1])), max_size=3))
@example(LaurentSeries({0: 1}, 2), [(LaurentSeries({0: 1, 3: 1}), LaurentSeries.t_power(1), 1)])
def test_a_base_addend_is_a_leading_term_times_one(base, terms):
    # the same coefficients, cap and int/Fraction storage as (base, 1, +1)
    # leading the terms, and as the chain of + and * (a windowed base's cap binds)
    got = sum_products(terms, base)
    assert _same(got, sum_products(((base, LaurentSeries.one(), 1), *terms)))
    assert _same(got, _chained_sum(((base, LaurentSeries.one(), 1), *terms)))


# exact, windowed, monomial and +-1-lead divisors, monomials with a
# Fraction lead among them
_DIVISOR = _NONZERO | st.builds(LaurentSeries.t_power, st.integers(-3, 3), _COEFF.filter(bool))


@_SETTINGS
@given(_ENTRY | _POLY, _DIVISOR, st.none() | st.integers(1, 8), st.integers(1, 64))
def test_the_exponent_walk_matches_the_lowest_term_search(a, b, wb, p):
    b = _windowed(b, wb)
    assert _same(at_prec(p, a.__truediv__, b), at_prec(p, ref_long_division, a, b))


def test_the_exponent_walk_steps_over_gaps_and_stops_at_the_window():
    # 1 / (1 - t^3) = 1 + t^3 + t^6 + ...: the remainder skips two exponents
    # each step, and the window ends at t^7 or t^9
    one, d = LaurentSeries.one(), LaurentSeries({0: 1, 3: -1})
    for p, coeffs in ((7, {0: 1, 3: 1, 6: 1}), (9, {0: 1, 3: 1, 6: 1})):
        q = at_prec(p, one.__truediv__, d)
        assert q.coeffs == coeffs and q.cap == p
        assert _same(q, at_prec(p, ref_long_division, one, d))
    # a gapped numerator over an exact monomial: one pass, exact
    q = LaurentSeries({-2: 4, 3: 6}) / LaurentSeries.t_power(1, 2)
    assert q.cap is None and q.coeffs == {-3: 2, 2: 3}


def test_int_over_int_lead_with_a_remainder_gives_fractions():
    # (1 + t) / (2 + t) = 1/2 + t/4 - t^2/8 + t^3/16 - ...
    q = at_prec(6, LaurentSeries({0: 1, 1: 1}).__truediv__, LaurentSeries({0: 2, 1: 1}))
    assert q.cap == 6
    assert q.coeffs == {0: Fraction(1, 2), **{k: Fraction((-1) ** (k + 1), 2 ** (k + 1))
                                              for k in range(1, 6)}}
    assert all(type(c) is Fraction for c in q.coeffs.values())
    # a lead that divides every term keeps the quotient in ints
    q = LaurentSeries({0: -6, 1: 4, 2: 2}) / LaurentSeries({0: -2, 1: 2})
    assert q.cap is None and q.coeffs == {0: 3, 1: 1} and _stored_canonically(q)


@_SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(_matrices(n), _matrices(n))))
def test_minors_and_products_match_the_chained_sums(mats):
    a, b = mats
    n = a.n
    for size in range(n + 1):
        for rows in combinations(range(n), size):
            for cols in combinations(range(n), size):
                assert _same(a.minor_det(rows, cols), ref_minor(a, rows, cols)), (rows, cols)
    ab = a * b
    for i in range(n):
        for j in range(n):
            assert _same(ab[i, j], ref_dot(a.rows[i], [r[j] for r in b.rows]))


@cache
def _sl3():
    """Built on first use: a series fault that trips the group's pinning
    self-check then fails this one test, not the whole file's collection."""
    return LoopGroup(build_root_datum("A", 2))


_FACTOR = st.tuples(st.sampled_from([(j, k) for j in range(3) for k in range(3) if j != k]),
                    _ENTRY).map(lambda f: (*f[0], f[1]))


@_SETTINGS
@given(st.lists(_FACTOR, max_size=5))
def test_x_product_matches_the_chained_column_operations(factors):
    got, want = _sl3().x_product(factors), ref_x_product(3, factors)
    for i in range(3):
        for j in range(3):
            assert _same(got[i, j], want[i][j])


# -- the kernel's shortcuts: no live term, a computed unit, zero sub-minors ----

def _chained_sum(terms):
    """sum sign * a * b as a chain of + over ref_mul products."""
    out = LaurentSeries.zero()
    for a, b, sign in terms:
        out = out + (ref_mul(a, b) if sign > 0 else ref_neg(ref_mul(a, b)))
    return out


_SIGN = st.sampled_from([1, -1])


@_SETTINGS
@given(st.lists(st.tuples(_ENTRY, _SIGN, st.booleans()), max_size=4))
def test_terms_with_an_exact_zero_factor_sum_to_the_exact_zero(parts):
    zero = LaurentSeries.zero()
    terms = [(zero, e, sign) if left else (e, zero, sign) for e, sign, left in parts]
    got = sum_products(terms)
    assert _same(got, _chained_sum(terms))
    assert got.coeffs == {} and got.cap is None


@_SETTINGS
@given(_ENTRY, st.integers(-3, 3), _COEFF.filter(bool), st.none() | st.integers(1, 4),
       _SIGN, _SIGN, st.booleans())
def test_a_lone_computed_unit_term_matches_the_double_loop(a, e, c, window, unit_sign, sign,
                                                           unit_first):
    # 1 made by arithmetic, so not the shared constant: t^e c / t^e c exactly,
    # or (1 + c t) / (1 + c t) known below t^window, which reads 1 but is no unit
    t = LaurentSeries.t_power(e, c) if window is None else LaurentSeries({0: 1, 1: c})
    u = t * at_prec(window, t.inverse)
    u = u if unit_sign > 0 else -u
    assert u is not LaurentSeries.one() and u.coeffs == {0: unit_sign} and u.cap == window
    term = (u, a, sign) if unit_first else (a, u, sign)
    assert _same(sum_products((term,)), _chained_sum((term,)))


def test_a_1x1_minor_is_its_entry_and_is_not_kept():
    m = LaurentMatrix([[LaurentSeries({0: 1, 1: 2}), LaurentSeries.t_power(1)],
                       [LaurentSeries.zero(), LaurentSeries({}, 3)]])
    for i in range(2):
        for j in range(2):
            assert m.minor_det([i], [j]) is m.rows[i][j]
    assert m._minors == {}
    # the Laplace terms of a larger minor read entries too: only it is kept
    m.det()
    assert list(m._minors) == [((0, 1), (0, 1))]


def _with_a_repeated_exact_row(n):
    """n x n matrices, n >= 2, whose last two rows are one exact row twice,
    exact zeros common among the entries: every minor on both rows is an
    exact zero, so every minor containing them has exact-zero sub-minors."""
    entry = st.just(LaurentSeries.zero()) | _ENTRY
    exact = st.just(LaurentSeries.zero()) | _SHORTCUTS | _polynomials(-2, 3)
    return st.tuples(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n - 2,
                              max_size=n - 2),
                     st.lists(exact, min_size=n, max_size=n)).map(
        lambda rr: LaurentMatrix(rr[0] + [rr[1], rr[1]]))


@_SETTINGS
@given(st.integers(2, 4).flatmap(_with_a_repeated_exact_row))
def test_minors_with_exact_zero_entries_and_sub_minors_match_the_chained_sums(m):
    n = m.n
    for size in range(n + 1):
        for rows in combinations(range(n), size):
            for cols in combinations(range(n), size):
                assert _same(m.minor_det(rows, cols), ref_minor(m, rows, cols)), (rows, cols)
    det = m.det()
    assert det.coeffs == {} and det.cap is None


def test_the_shared_constants_are_unchanged_by_a_criterion_run():
    from mvcrystals.verify import run_criterion

    assert run_criterion(7).passed
    for s, coeffs in ((LaurentSeries.zero(), {}), (LaurentSeries.one(), {0: 1})):
        assert s.coeffs == coeffs and s.cap is None
