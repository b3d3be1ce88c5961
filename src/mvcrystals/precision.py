"""The relative precision of series divisions, an int in [1, 256] that
defaults to 32, and the two errors of a division on its input, all without
loading looplab.

The precision is a context variable with one setter, ``set_default_rel_prec``:
a setting holds in the context it is made in.
"""

from contextvars import ContextVar

MAX_REL_PREC = 256


class PrecisionError(ArithmeticError):
    """A valuation was requested but every known coefficient vanishes."""


class GenericityError(RuntimeError):
    """A required pivot/denominator vanished for this particular input."""


_REL_PREC = ContextVar("mvcrystals_rel_prec", default=32)


def default_rel_prec() -> int:
    return _REL_PREC.get()


def set_default_rel_prec(n: int):
    if type(n) is not int or not 1 <= n <= MAX_REL_PREC:
        raise ValueError(f"relative precision must be in [1, {MAX_REL_PREC}] and of "
                         f"type int, got {n!r}")
    _REL_PREC.set(n)
