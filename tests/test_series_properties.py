"""Property tests of the series layer: ring laws and valuations on exact
Laurent polynomials, the precision-window contract of division, inverse
and sqrt, and results that do not depend on whether a coefficient was given
as int or Fraction."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mvcrystals.looplab import LaurentSeries

_COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def _polynomials(min_exp=-4, max_exp=4, min_size=0):
    """Exact Laurent polynomials with small rational coefficients."""
    return st.dictionaries(st.integers(min_exp, max_exp), _COEFF,
                           min_size=min_size, max_size=5).map(LaurentSeries)


_POLY = _polynomials()
_NONZERO = _polynomials(min_size=1).filter(lambda s: not s.is_known_zero)


def _unit_coeffs():
    """Coefficients of r^2 + a_1 t + ... + a_4 t^4 with r a nonzero rational."""
    return st.tuples(
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
        st.dictionaries(st.integers(1, 4), _COEFF, max_size=4),
    ).map(lambda rc: {0: rc[0] ** 2, **rc[1]})


def _unit_with_square_constant():
    return _unit_coeffs().map(LaurentSeries)


_SETTINGS = settings(max_examples=60, deadline=None)


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
    if window is not None:  # the same polynomial known only below val + window
        a = LaurentSeries(a.coeffs, a.val() + window)
    coarse, fine = a.inverse(rel_prec=p), a.inverse(rel_prec=4 * p)
    assert coarse.agrees_with(fine)
    assert (a * coarse).agrees_with(LaurentSeries.one())


def _windowed(a, window):
    """a known only on `window` exponents from its lowest term (None: exact)."""
    if window is None:
        return a
    return LaurentSeries(a.coeffs, (a.val_lower_bound() or 0) + window)


@_SETTINGS
@given(_POLY, _NONZERO, st.none() | st.integers(1, 4))
def test_exact_quotient_of_a_product_is_exact(a, b, p):
    # exact even when the quotient reaches past the relative precision p
    q = (a * b).__truediv__(b, rel_prec=p)
    assert q.cap is None and q.equals_exact(a)


@_SETTINGS
@given(_POLY, _NONZERO, st.none() | st.integers(1, 12),
       st.none() | st.integers(1, 8), st.none() | st.integers(1, 8))
def test_division_agrees_with_multiplying_by_the_inverse(a, b, p, wa, wb):
    a, b = _windowed(a, wa), _windowed(b, wb)
    q, ref = a.__truediv__(b, rel_prec=p), a * b.inverse(rel_prec=p)
    assert q.agrees_with(ref)
    assert (q * b).agrees_with(a)
    # the quotient's window is never smaller
    assert q.cap is None or (ref.cap is not None and q.cap >= ref.cap)


@_SETTINGS
@given(_unit_with_square_constant(), st.integers(1, 12))
def test_sqrt_window_agrees_with_four_times_the_precision(a, p):
    coarse, fine = a.sqrt(rel_prec=p), a.sqrt(rel_prec=4 * p)
    assert coarse.agrees_with(fine)
    assert (coarse * coarse).agrees_with(a)


def _twin(coeffs):
    """One exact polynomial built twice: integral coefficients given as int,
    and every coefficient given as Fraction."""
    return (LaurentSeries({e: c.numerator if c.denominator == 1 else c
                           for e, c in coeffs.items()}),
            LaurentSeries({e: Fraction(c) for e, c in coeffs.items()}))


def _stored_canonically(s):
    """Every stored coefficient is an int, or a Fraction with a denominator."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in s.coeffs.values())


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
        lambda x, y: x.__truediv__(y, rel_prec=p),
        lambda x, y: y.inverse(rel_prec=p),
    ]
    assert _same_series(a) and _same_series(b)
    for op in ops:
        assert _same_series([op(x, y) for x in a for y in b])


@_SETTINGS
@given(_unit_coeffs().map(_twin), st.integers(1, 12))
def test_sqrt_is_independent_of_coefficient_storage(u, p):
    assert _same_series([x.sqrt(rel_prec=p) for x in u])
