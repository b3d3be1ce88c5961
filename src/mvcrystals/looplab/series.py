"""Truncated Laurent series over exact rationals with precision-window
tracking, and square matrices of them.

A coefficient is stored as an ``int`` when integral and as a ``Fraction``
otherwise, so integer data runs on native ints; ``leading`` and
``coefficient`` return ``Fraction`` either way, safe to divide by and to raise
to negative powers.  Any other type (a float above all) raises TypeError
rather than entering as its binary expansion.

A series knows its coefficients on exponents below ``cap``; exponents at or
above the cap are unknown.  ``cap = None`` means the series is known exactly
(a Laurent polynomial).  Addition takes the worse cap; multiplication degrades
caps by the partner's valuation lower bound.  Division is long division from
the lowest term.  A quotient of exact operands that divides out is exact, and
so is any quotient by an exact monomial.  Any other quotient is known on
``rel`` exponents from val(num) - val(den), fewer if the numerator's own
window ends sooner; ``rel`` is ``rel_prec`` (else the module default) for an
exact divisor, and the divisor's own relative window (or ``rel_prec`` if
smaller) for a windowed one.  ``inverse`` is 1 / self.  Valuations are only
ever reported below the cap; a series whose known window is all zero raises
:class:`PrecisionError` instead of guessing.
"""

from __future__ import annotations

import os
from fractions import Fraction

__all__ = [
    "LaurentSeries",
    "LaurentMatrix",
    "PrecisionError",
    "GenericityError",
    "LoopGroupError",
    "default_rel_prec",
    "set_default_rel_prec",
]

_MAX_REL_PREC = 256


class PrecisionError(ArithmeticError):
    """A valuation was requested but every known coefficient vanishes."""


class GenericityError(RuntimeError):
    """A required pivot/denominator vanished for this particular input."""


class LoopGroupError(RuntimeError):
    """An exact identity or invariant a loop-group construction relies on
    failed: an implementation fault, not a bad draw or a precision shortfall."""


def _check_rel_prec(n: int, what="relative precision") -> int:
    if not 1 <= n <= _MAX_REL_PREC:
        raise ValueError(f"{what} must be in [1, {_MAX_REL_PREC}], got {n}")
    return n


def _rel_prec_from_env() -> int:
    text = os.environ.get("MVCRYSTALS_PREC", "32")
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"MVCRYSTALS_PREC must be an integer in "
                         f"[1, {_MAX_REL_PREC}], got {text!r}") from None
    return _check_rel_prec(n, "MVCRYSTALS_PREC")


_DEFAULT_REL_PREC = _rel_prec_from_env()


def default_rel_prec() -> int:
    return _DEFAULT_REL_PREC


def set_default_rel_prec(n: int):
    global _DEFAULT_REL_PREC
    _DEFAULT_REL_PREC = _check_rel_prec(n)


def _rel_window(s, rel_prec):
    """Relative precision of a windowed operation on s (a division by s, or
    its square root): rel_prec, else the default, for exact s; its own
    relative precision, or rel_prec if smaller, for windowed s."""
    if s.cap is None:
        return rel_prec if rel_prec is not None else _DEFAULT_REL_PREC
    rel = s.cap - s.val()
    return rel if rel_prec is None else min(rel, rel_prec)


def _min_cap(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class LaurentSeries:
    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs=None, cap=None):
        cleaned = {}
        for e, c in (coeffs or {}).items():
            if type(c) is not int:
                if not isinstance(c, (int, Fraction)):
                    raise TypeError("series coefficients are int or Fraction, "
                                    f"got {type(c).__name__} {c!r}")
                if c.denominator == 1:
                    c = c.numerator
            if c and (cap is None or e < cap):
                cleaned[e] = c
        self.coeffs = cleaned
        self.cap = cap

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero():
        return LaurentSeries({}, None)

    @staticmethod
    def one():
        return LaurentSeries({0: 1}, None)

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

    def coefficient(self, e) -> Fraction:
        if self.cap is not None and e >= self.cap:
            raise PrecisionError(f"coefficient of t^{e} beyond cap {self.cap}")
        return Fraction(self.coeffs.get(e, 0))

    # -- arithmetic ------------------------------------------------------------

    def __neg__(self):
        return LaurentSeries({e: -c for e, c in self.coeffs.items()}, self.cap)

    def __add__(self, other):
        cap = _min_cap(self.cap, other.cap)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentSeries(out, cap)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_known_zero and self.is_exact:
            return LaurentSeries.zero()
        if other.is_known_zero and other.is_exact:
            return LaurentSeries.zero()
        cap = None
        va, vb = self.val_lower_bound(), other.val_lower_bound()
        if self.cap is not None:
            cap = _min_cap(cap, self.cap + vb if vb is not None else None)
        if other.cap is not None:
            cap = _min_cap(cap, other.cap + va if va is not None else None)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if cap is not None and e >= cap:
                    continue
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentSeries(out, cap)

    def scale(self, a):
        if a == 0:
            return LaurentSeries({}, self.cap)
        return LaurentSeries({e: c * a for e, c in self.coeffs.items()}, self.cap)

    def shift(self, n):
        return LaurentSeries({e + n: c for e, c in self.coeffs.items()},
                             None if self.cap is None else self.cap + n)

    def __truediv__(self, other, rel_prec=None):
        """self / other by long division from the lowest term; the quotient's
        window is set out in the module docstring."""
        v = other.val()
        lead = Fraction(other.coeffs[v])
        low = self.val_lower_bound()
        if low is None:
            return LaurentSeries.zero()
        cap = None if self.cap is None else self.cap - v
        if other.cap is not None or len(other.coeffs) > 1:
            cap = _min_cap(cap, low - v + _rel_window(other, rel_prec))
        exact = self.cap is None and other.cap is None
        stop = cap
        if exact:  # far enough to reach a polynomial quotient's top term
            whole = max(self.coeffs) - max(other.coeffs) + 1
            stop = whole if cap is None else max(cap, whole)
        rem, out = dict(self.coeffs), {}
        while rem and min(rem) - v < stop:
            e = min(rem)
            q = rem.pop(e) / lead  # an integral term goes on as an int
            q = out[e - v] = q.numerator if q.denominator == 1 else q
            for f, d in other.coeffs.items():
                if f != v:
                    x = e + f - v
                    rem[x] = rem.get(x, 0) - q * d
                    if not rem[x]:
                        del rem[x]
        return LaurentSeries(out, None if exact and not rem else cap)

    def inverse(self, rel_prec=None):
        """Multiplicative inverse: 1 / self, exact for monomials."""
        return LaurentSeries.one().__truediv__(self, rel_prec)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = LaurentSeries.one()
        for _ in range(n):
            out = out * self
        return out

    def sqrt(self, rel_prec=None):
        """Square root of a series with constant term a nonzero rational square
        (used with 1 + t O); windowed like a division by self."""
        if self.val() != 0:
            raise GenericityError("sqrt implemented for unit series only")
        r0 = _fraction_sqrt(self.coeffs[0])
        rel = _rel_window(self, rel_prec)
        out = {0: r0}
        for e in range(1, rel):
            # coefficient of t^e in out^2 must match self
            acc = sum(out[k] * out[e - k] for k in range(1, e))
            out[e] = (self.coeffs.get(e, 0) - acc) / (2 * r0)
        return LaurentSeries(out, rel)

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
        exps = set(self.coeffs) | set(other.coeffs)
        for e in exps:
            if cap is not None and e >= cap:
                continue
            if self.coeffs.get(e, 0) != other.coeffs.get(e, 0):
                return False
        return True

    def nonneg_val_certified(self) -> bool:
        """True when the series provably has valuation >= 0 (window empty counts
        only if the cap is >= 0 or the series is exactly zero)."""
        if self.coeffs:
            return min(self.coeffs) >= 0
        return self.cap is None or self.cap >= 0

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


def _fraction_sqrt(q: Fraction) -> Fraction:
    from math import isqrt

    if q <= 0:
        raise GenericityError("sqrt of a nonpositive leading coefficient")
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise GenericityError(f"{q} is not a rational square")
    return Fraction(rn, rd)


class LaurentMatrix:
    """A square matrix of series; it never changes, so it keeps its minors
    and its inverse."""

    __slots__ = ("n", "rows", "_minors", "_inverse")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        if not all(len(r) == self.n for r in self.rows):
            raise ValueError("a LaurentMatrix needs a square array of series")
        self._minors = {}
        self._inverse = None

    @staticmethod
    def identity(n):
        return LaurentMatrix([[LaurentSeries.one() if i == j else LaurentSeries.zero()
                               for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        cols = tuple(zip(*other.rows))
        return LaurentMatrix([[_dot(row, col) for col in cols] for row in self.rows])

    def det(self) -> LaurentSeries:
        return self.minor_det(range(self.n), range(self.n))

    def inverse(self):
        """Adjugate over det; exact when the matrix is exact with det a
        monomial.  Built once per matrix, and again only when a windowed
        1/det would take a new default relative precision."""
        prec = _DEFAULT_REL_PREC
        if self._inverse is None or self._inverse[0] not in (None, prec):
            dinv = self.det().inverse()
            n = self.n
            idx = tuple(range(n))
            cof = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    c = self.minor_det(idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:])
                    cof[j][i] = (-c if (i + j) % 2 else c) * dinv
            self._inverse = (None if dinv.is_exact else prec, LaurentMatrix(cof))
        return self._inverse[1]

    def minor_det(self, rows, cols) -> LaurentSeries:
        """The minor on these rows and columns, in the order given."""
        return self._minor(tuple(rows), tuple(cols))

    def _minor(self, rows, cols):
        key = (rows, cols)
        out = self._minors.get(key)
        if out is None:
            if not rows:
                out = LaurentSeries.one()
            elif len(rows) == 1:
                out = self.rows[rows[0]][cols[0]]
            else:
                # expand along the first row, skipping exact zeros
                out = LaurentSeries.zero()
                first, rest = self.rows[rows[0]], rows[1:]
                for k, j in enumerate(cols):
                    a = first[j]
                    if a.is_known_zero and a.is_exact:
                        continue
                    term = a * self._minor(rest, cols[:k] + cols[k + 1:])
                    out = out - term if k % 2 else out + term
            self._minors[key] = out
        return out

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


def _dot(u, v):
    acc = LaurentSeries.zero()
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def vector_val(entries) -> int:
    """Valuation of a vector of series: min over components, certified.

    Raises PrecisionError when an all-unknown component could undercut the
    best known valuation."""
    known = [min(s.coeffs) for s in entries if s.coeffs]
    caps = [s.cap for s in entries if s.cap is not None]
    if not known:
        raise PrecisionError("vector indistinguishable from zero")
    v = min(known)
    if any(c < v for c in caps):
        # a window ending below v could hide a smaller valuation
        raise PrecisionError("vector valuation not certified at current precision")
    return v
