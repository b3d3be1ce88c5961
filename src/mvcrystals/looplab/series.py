"""Truncated Laurent series over exact rationals with precision-window
tracking, and square matrices of them.

A series knows its coefficients on exponents below ``cap``; exponents at or
above the cap are unknown.  ``cap = None`` means the series is known exactly
(a Laurent polynomial).  Addition takes the worse cap; multiplication degrades
caps by the partner's valuation lower bound; inversion of a non-monomial
costs the relative precision of the input (or the module default for exact
inputs).  Valuations are only ever reported below the cap; a series whose
known window is all zero raises :class:`PrecisionError` instead of guessing.
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
        if coeffs:
            for e, c in coeffs.items():
                if c == 0:
                    continue
                if cap is not None and e >= cap:
                    continue
                cleaned[e] = c if isinstance(c, (int, Fraction)) else Fraction(c)
        self.coeffs = cleaned
        self.cap = cap

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero():
        return LaurentSeries({}, None)

    @staticmethod
    def one():
        return LaurentSeries({0: Fraction(1)}, None)

    @staticmethod
    def t_power(n, coeff=1):
        return LaurentSeries({n: Fraction(coeff)}, None)

    @staticmethod
    def from_scalar(a):
        return LaurentSeries({0: Fraction(a)}, None)

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
        return self.coeffs[self.val()]

    def coefficient(self, e):
        if self.cap is not None and e >= self.cap:
            raise PrecisionError(f"coefficient of t^{e} beyond cap {self.cap}")
        return self.coeffs.get(e, Fraction(0))

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

    def inverse(self, rel_prec=None):
        """Multiplicative inverse; exact for monomials, windowed otherwise."""
        v = self.val()
        lead = self.coeffs[v]
        if len(self.coeffs) == 1 and self.is_exact:
            return LaurentSeries({-v: Fraction(1, 1) / lead}, None)
        if self.cap is None:
            rel = rel_prec if rel_prec is not None else _DEFAULT_REL_PREC
        else:
            rel = self.cap - v
            if rel_prec is not None:
                rel = min(rel, rel_prec)
        # u = t^-v * self / lead has constant term 1; invert by recurrence
        u = {e - v: c / lead for e, c in self.coeffs.items()}
        inv = {0: Fraction(1)}
        for e in range(1, rel):
            acc = Fraction(0)
            for k, c in u.items():
                if 0 < k <= e:
                    acc -= c * inv.get(e - k, 0)
            if acc:
                inv[e] = acc
        out = {e - v: c / lead for e, c in inv.items()}
        return LaurentSeries(out, -v + rel)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = LaurentSeries.one()
        for _ in range(n):
            out = out * self
        return out

    def sqrt(self, rel_prec=None):
        """Square root of a series with constant term a nonzero rational square
        (used with 1 + t O); windowed like inverse."""
        if self.val() != 0:
            raise GenericityError("sqrt implemented for unit series only")
        c0 = self.coeffs[0]
        r0 = _fraction_sqrt(c0)
        if self.cap is None:
            rel = rel_prec if rel_prec is not None else _DEFAULT_REL_PREC
        else:
            rel = self.cap
            if rel_prec is not None:
                rel = min(rel, rel_prec)
        out = {0: r0}
        for e in range(1, rel):
            # coefficient of t^e in out^2 must match self
            acc = Fraction(0)
            for k in range(1, e):
                acc += out.get(k, 0) * out.get(e - k, 0)
            target = self.coeffs.get(e, Fraction(0)) - acc
            out[e] = target / (2 * r0)
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
    __slots__ = ("n", "rows")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        if not all(len(r) == self.n for r in self.rows):
            raise ValueError("a LaurentMatrix needs a square array of series")

    @staticmethod
    def identity(n):
        return LaurentMatrix([[LaurentSeries.one() if i == j else LaurentSeries.zero()
                               for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        n = self.n
        return LaurentMatrix([
            [_dot(self.rows[i], [other.rows[k][j] for k in range(n)])
             for j in range(n)]
            for i in range(n)
        ])

    def det(self) -> LaurentSeries:
        return _det([list(r) for r in self.rows])

    def inverse(self):
        """Adjugate over det; exact when the matrix is exact with det a monomial."""
        d = self.det()
        dinv = d.inverse()
        n = self.n
        cof = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [[self.rows[a][b] for b in range(n) if b != j]
                         for a in range(n) if a != i]
                c = _det(minor)
                if (i + j) % 2:
                    c = -c
                cof[j][i] = c * dinv
        return LaurentMatrix(cof)

    def minor_det(self, rows, cols) -> LaurentSeries:
        sub = [[self.rows[i][j] for j in cols] for i in rows]
        return _det(sub)

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


def _det(m) -> LaurentSeries:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    acc = LaurentSeries.zero()
    for j in range(n):
        if m[0][j].is_known_zero and m[0][j].is_exact:
            continue
        minor = [[m[a][b] for b in range(n) if b != j] for a in range(1, n)]
        term = m[0][j] * _det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def vector_val(entries) -> int:
    """Valuation of a vector of series: min over components, certified.

    Raises PrecisionError when an all-unknown component could undercut the
    best known valuation."""
    known = []
    caps = []
    for s in entries:
        if s.coeffs:
            known.append(min(s.coeffs))
            if s.cap is not None:
                caps.append(s.cap)
        elif s.cap is not None:
            caps.append(s.cap)
    if not known:
        raise PrecisionError("vector indistinguishable from zero")
    v = min(known)
    if any(c < v for c in caps):
        # a window ending below v could hide a smaller valuation
        raise PrecisionError("vector valuation not certified at current precision")
    return v
