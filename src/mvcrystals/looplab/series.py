"""Truncated Laurent series over exact rationals with precision-window
tracking, and square matrices of them.

A coefficient is stored as an ``int`` when integral and as a ``Fraction``
otherwise, so integer data runs on native ints; ``leading`` returns
``Fraction`` either way.  Any other type raises TypeError rather than entering
the series (a float as its binary expansion, a bool as 0 or 1), and so does an
exponent that is not an ``int``.  Arithmetic builds results with the trusted
``LaurentSeries._of`` and ``LaurentMatrix._of``, which skip those checks and
the matrix copy and shape check.  Every product, dot product, minor and
elementary step x + p y (x its base addend) is one ``sum_products`` call, and
its one loop, with the factor of fewer terms outside, is the only place
coefficients are multiplied; a sum x +- y is the step with p = +-1.

A series is an immutable value, so arithmetic may hand back an operand, and
``zero()`` and ``one()`` are shared constants.  A term with an exact-zero
factor drops out (no live term gives the shared zero), and a lone term with a
factor of cap None and coefficients {0: 1} is its other factor.  Long
division by an ``int`` lead divides ``int`` terms in ints.

A series knows its coefficients on exponents below ``cap``; exponents at or
above the cap are unknown.  ``cap = None`` means the series is known exactly
(a Laurent polynomial).  Addition takes the worse cap; multiplication degrades
caps by the partner's valuation lower bound.  Division is long division, one
upward walk over the exponents, as the remainder's lowest term only moves
up.  A quotient of exact operands that divides out is exact, and so is any
quotient by an exact monomial.  Any other quotient is known on ``rel``
exponents from val(num) - val(den), fewer if the numerator's own window ends
sooner; ``rel`` is the context's relative precision (``set_default_rel_prec``)
for an exact divisor, and the divisor's own relative window for a windowed one.
``inverse`` is 1 / self.  Valuations are only ever reported below the cap; a
series whose known window is all zero raises :class:`PrecisionError` instead
of guessing, and dividing by the exact zero raises ZeroDivisionError.  Only a
word of root-subgroup factors inverts, by them (see ``LaurentMatrix``); the
dense products left (coset_equal's u^{-1} v, z_of's y wbar(w0)^{-1},
crystal_op_sample's y_i(p) g, the self-check) never do.
"""

from __future__ import annotations

from fractions import Fraction

from mvcrystals.precision import GenericityError, PrecisionError, default_rel_prec, \
    set_default_rel_prec

__all__ = [
    "LaurentSeries",
    "LaurentMatrix",
    "PrecisionError",
    "GenericityError",
    "LoopGroupError",
    "default_rel_prec",
    "set_default_rel_prec",
]


class LoopGroupError(RuntimeError):
    """An exact identity or invariant a loop-group construction relies on
    failed: an implementation fault, not a bad draw or a precision shortfall."""


def _min_cap(a, b):
    return b if a is None else a if b is None else min(a, b)


def sum_products(terms, base=None):
    """base + the sum of sign * a * b over (a, b, sign) terms as one series, with
    the caps and coefficients of the chain of ``*`` and ``+``: a term with an
    exact-zero factor drops out, and the cap is the least of base.cap and the
    product caps, a.cap + val(b) and b.cap + val(a) (so a * 1 is a, cap and all)."""
    if base is not None and not base.coeffs and base.cap is None:
        base = None  # the exact zero adds nothing
    live, cap = [], None if base is None else base.cap
    for t in terms:
        a, b = t[0], t[1]
        if (a.coeffs or a.cap is not None) and (b.coeffs or b.cap is not None):
            live.append(t)
            if a.cap is not None:
                cap = _min_cap(cap, a.cap + b.val_lower_bound())
            if b.cap is not None:
                cap = _min_cap(cap, b.cap + a.val_lower_bound())
    if not live:
        return _ZERO if base is None else base
    if base is None and len(live) == 1:
        a, b, sign = live[0]
        other = b if a.cap is None and a.coeffs == _ONE.coeffs else \
            a if b.cap is None and b.coeffs == _ONE.coeffs else None
        if other is not None:
            return other if sign > 0 else -other
    out = {} if base is None else dict(base.coeffs)
    for a, b, sign in live:
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        bc = b.coeffs.items()
        for e1, c1 in a.coeffs.items():
            if sign < 0:
                c1 = -c1
            for e2, c2 in bc:
                e = e1 + e2
                if cap is None or e < cap:
                    out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return LaurentSeries._of(out, cap)


class LaurentSeries:
    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs=None, cap=None):
        if cap is not None and type(cap) is not int:
            raise TypeError(f"series caps are int or None, got {type(cap).__name__} {cap!r}")
        coeffs = coeffs or {}
        for e, c in coeffs.items():
            if type(e) is not int:
                raise TypeError(f"series exponents are int, got {type(e).__name__} {e!r}")
            if type(c) is bool or not isinstance(c, (int, Fraction)):
                raise TypeError("series coefficients are int or Fraction, "
                                f"got {type(c).__name__} {c!r}")
        self.coeffs = LaurentSeries._of(coeffs, cap).coeffs
        self.cap = cap

    @staticmethod
    def _of(coeffs, cap):
        """Trusted constructor for coefficients series arithmetic made, so
        ints and Fractions: zeros and terms at or past cap are dropped and an
        integral Fraction is stored as an int."""
        s = object.__new__(LaurentSeries)
        s.coeffs = {e: c if type(c) is int or c.denominator != 1 else c.numerator
                    for e, c in coeffs.items() if c and (cap is None or e < cap)}
        s.cap = cap
        return s

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def t_power(n, coeff=1):
        return LaurentSeries({n: coeff})

    @staticmethod
    def from_scalar(a):
        return LaurentSeries.t_power(0, a)

    # -- structure ----------------------------------------------------------

    @property
    def is_known_zero(self):
        """No nonzero coefficient in the known window (exact zero if cap None)."""
        return not self.coeffs

    @property
    def is_exact(self):
        return self.cap is None

    def val(self) -> int:
        """Valuation; raises PrecisionError when indistinguishable from zero."""
        if not self.coeffs:
            if self.cap is None:
                raise PrecisionError("valuation of the exact zero series")
            raise PrecisionError(
                f"series indistinguishable from zero below cap {self.cap}")
        return min(self.coeffs)

    def val_lower_bound(self):
        """A certified lower bound for the valuation (cap when window is empty)."""
        if self.coeffs:
            return min(self.coeffs)
        if self.cap is None:
            return None  # exact zero: valuation +infinity
        return self.cap

    def leading(self) -> Fraction:
        return Fraction(self.coeffs[self.val()])

    # -- arithmetic ------------------------------------------------------------

    def __neg__(self):
        return LaurentSeries._of({e: -c for e, c in self.coeffs.items()}, self.cap)

    def __add__(self, other):
        return sum_products(((other, _ONE, 1),), self)

    def __sub__(self, other):
        return sum_products(((other, _ONE, -1),), self)

    def __mul__(self, other):
        return sum_products(((self, other, 1),))

    def shift(self, n):
        if type(n) is not int:
            raise TypeError(f"series exponents are int, got {type(n).__name__} {n!r}")
        if not n:
            return self
        return LaurentSeries._of({e + n: c for e, c in self.coeffs.items()},
                                 None if self.cap is None else self.cap + n)

    def __truediv__(self, other):
        """self / other by long division from the lowest term; the quotient's
        window is set out in the module docstring."""
        if not other.coeffs and other.cap is None:  # no precision makes it a unit
            raise ZeroDivisionError("division by the exact zero series")
        v = other.val()
        lead = other.coeffs[v]
        low = self.val_lower_bound()
        if low is None:
            return LaurentSeries.zero()
        cap = None if self.cap is None else self.cap - v
        if other.cap is not None or len(other.coeffs) > 1:
            rel = default_rel_prec() if other.cap is None else other.cap - v
            cap = _min_cap(cap, low - v + rel)
        exact = self.cap is None and other.cap is None
        stop = cap
        if exact:  # far enough to reach a polynomial quotient's top term
            whole = max(self.coeffs) - max(other.coeffs) + 1
            stop = whole if cap is None else max(cap, whole)
        # the remainder's lowest term only moves up, so walk e upward once
        rem, out, e = dict(self.coeffs), {}, low
        while rem and e - v < stop:
            c = rem.pop(e, 0)  # in ints when both are ints and lead divides c
            if c:
                q = c // lead if type(c) is type(lead) is int and not c % lead else \
                    Fraction(c, lead)
                q = out[e - v] = q.numerator if type(q) is Fraction and q.denominator == 1 else q
                for f, d in other.coeffs.items():
                    if f != v:
                        x = e + f - v
                        rem[x] = rem.get(x, 0) - q * d
                        if not rem[x]:
                            del rem[x]
            e += 1
        return LaurentSeries._of(out, None if exact and not rem else cap)

    def inverse(self):
        """Multiplicative inverse: 1 / self, exact for monomials."""
        return _ONE / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = LaurentSeries.one()
        for _ in range(n):
            out = out * self
        return out

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.cap == other.cap

    def equals_exact(self, other) -> bool:
        """Mathematical equality of exactly-known series."""
        return self.is_exact and other.is_exact and self.coeffs == other.coeffs

    def agrees_with(self, other) -> bool:
        """Equality of all coefficients on the common known window."""
        cap = _min_cap(self.cap, other.cap)
        return all(self.coeffs.get(e, 0) == other.coeffs.get(e, 0)
                   for e in self.coeffs.keys() | other.coeffs.keys() if cap is None or e < cap)

    def nonneg_val_certified(self) -> bool:
        """Whether the series has valuation >= 0.  An empty window below a
        negative cap cannot tell, so it raises PrecisionError."""
        if self.coeffs:
            return min(self.coeffs) >= 0
        if self.cap is not None and self.cap < 0:
            raise PrecisionError(f"cannot tell whether O(t^{self.cap}) has valuation >= 0")
        return True

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                if e == 0:
                    parts.append(f"{c}")
                elif e == 1:
                    parts.append(f"{c}*t" if c != 1 else "t")
                else:
                    parts.append(f"{c}*t^{e}" if c != 1 else f"t^{e}")
            body = " + ".join(parts)
        tail = "" if self.cap is None else f" + O(t^{self.cap})"
        return body + tail


_ZERO = LaurentSeries._of({}, None)
_ONE = LaurentSeries._of({0: 1}, None)


class LaurentMatrix:
    """A square matrix of series; it never changes, so it keeps its inverse
    and its minors (a 1x1 minor is its entry, read without the cache).  Only
    a ``_factored`` word t^d x_{j_1 k_1}(p_1) ... x_{j_N k_N}(p_N) inverts, by
    its factors, with no determinant:
    t^-d x_{j_N k_N}(-p_N t^{d_j - d_k}) ... x_{j_1 k_1}(-p_1 t^{d_j - d_k}).
    A dense matrix (``LaurentMatrix(rows)``, a ``*`` product) never does."""

    __slots__ = ("n", "rows", "_minors", "_inverse", "_word")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not all(len(r) == len(rows) for r in rows):
            raise ValueError("a LaurentMatrix needs a square array of series")
        if not all(isinstance(s, LaurentSeries) for r in rows for s in r):
            raise TypeError("a LaurentMatrix needs entries of type LaurentSeries")
        self.rows, self.n, self._minors, self._inverse, self._word = rows, len(rows), {}, None, None

    @staticmethod
    def _of(rows, word=None):
        """Trusted constructor for a square tuple of row tuples: no copy, no check."""
        m = object.__new__(LaurentMatrix)
        m.rows, m.n, m._minors, m._inverse, m._word = rows, len(rows), {}, None, word
        return m

    @staticmethod
    def _factored(d, factors):
        """t^d x_{j_1 k_1}(p_1) ... for factors (j, k, p), 0-based, with t^d =
        diag(t^{d_0}, ...): x_{jk}(p) = 1 + p E_jk on the right is "column k
        += p * column j", so N factors cost N column operations."""
        factors = tuple(factors)
        rows = [[(LaurentSeries.t_power(e) if e else _ONE) if a == b else _ZERO
                 for b in range(len(d))] for a, e in enumerate(d)]
        for j, k, p in factors:
            for row in rows:
                if row[j].coeffs or row[j].cap is not None:
                    row[k] = sum_products(((row[j], p, 1),), row[k])
        return LaurentMatrix._of(tuple(map(tuple, rows)), (d, factors))

    @staticmethod
    def identity(n):
        return LaurentMatrix._factored((0,) * n, ())

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if other.n != self.n:
            raise ValueError(f"cannot multiply a {self.n}x{self.n} matrix by a "
                             f"{other.n}x{other.n} one")
        cols = tuple(zip(*other.rows))
        return LaurentMatrix._of(tuple(tuple(sum_products([(a, b, 1) for a, b in zip(row, col)])
                                             for col in cols) for row in self.rows))

    def det(self) -> LaurentSeries:
        return self.minor_det(range(self.n), range(self.n))

    def inverse(self):
        """The reversed factors of a root-subgroup word (see the class), kept.
        Any other matrix raises ValueError."""
        if self._inverse is None:
            if self._word is None:
                raise ValueError(f"only a root-subgroup word inverts, by its factors: "
                                 f"{self!r} is not one")
            d, factors = self._word
            self._inverse = LaurentMatrix._factored(tuple(-e for e in d), [
                (j, k, -p.shift(d[j] - d[k])) for j, k, p in reversed(factors)])
        return self._inverse

    def minor_det(self, rows, cols) -> LaurentSeries:
        """The minor on these rows and columns, in the order given."""
        return laplace_minor(self.rows, tuple(rows), tuple(cols), self._minors)

    def equals_exact(self, other) -> bool:
        return all(self.rows[i][j].equals_exact(other.rows[i][j])
                   for i in range(self.n) for j in range(self.n))

    def agrees_with(self, other) -> bool:
        return all(self.rows[i][j].agrees_with(other.rows[i][j])
                   for i in range(self.n) for j in range(self.n))

    def all_entries_val_nonneg(self) -> bool:
        return all(self.rows[i][j].nonneg_val_certified()
                   for i in range(self.n) for j in range(self.n))

    def __repr__(self):
        return "LaurentMatrix([\n" + "\n".join(
            "  [" + ", ".join(repr(c) for c in row) + "]," for row in self.rows
        ) + "\n])"


def laplace_minor(rows, sel, cols, cache) -> LaurentSeries:
    """The minor of the square array rows on the row tuple sel and column tuple
    cols, in order, kept in cache: expanded along its first row, without
    exact-zero entries or sub-minors; a 1x1 minor is its entry, read without it."""
    if len(sel) < 2:
        return rows[sel[0]][cols[0]] if sel else _ONE
    if (out := cache.get((sel, cols))) is None:
        first, rest, terms = rows[sel[0]], sel[1:], []
        for k, j in enumerate(cols):
            if first[j].coeffs or first[j].cap is not None:
                m = laplace_minor(rows, rest, cols[:k] + cols[k + 1:], cache)
                if m.coeffs or m.cap is not None:
                    terms.append((first[j], m, -1 if k % 2 else 1))
        out = cache[sel, cols] = sum_products(terms)
    return out


def vector_val(entries) -> int:
    """Valuation of a vector of series: min over components, certified.

    One pass takes the least known valuation and the least cap.  Raises
    PrecisionError when an all-unknown component could undercut the best
    known valuation."""
    v = cap = None
    for s in entries:
        if s.coeffs:
            low = min(s.coeffs)
            if v is None or low < v:
                v = low
        if s.cap is not None and (cap is None or s.cap < cap):
            cap = s.cap
    if v is None:
        raise PrecisionError("vector indistinguishable from zero")
    if cap is not None and cap < v:
        # a window ending below v could hide a smaller valuation
        raise PrecisionError("vector valuation not certified at current precision")
    return v
