"""The relative precision of series divisions, an int in [1, 256], its default
(MVCRYSTALS_PREC, else 32, checked when mvcrystals is imported) and the two
errors of a division on its input, all without loading looplab.

The precision is a context variable: a setting holds in the context it is
made in, so code run in a copied context (each CLI command) cannot leak one.
"""

import os
from contextvars import ContextVar

MAX_REL_PREC = 256


class PrecisionError(ArithmeticError):
    """A valuation was requested but every known coefficient vanishes."""


class GenericityError(RuntimeError):
    """A required pivot/denominator vanished for this particular input."""


def check_rel_prec(n: int, what="relative precision") -> int:
    if type(n) is not int or not 1 <= n <= MAX_REL_PREC:
        raise ValueError(f"{what} must be in [1, {MAX_REL_PREC}] and of type int, "
                         f"got {n!r}")
    return n


def _rel_prec_from_env() -> int:
    text = os.environ.get("MVCRYSTALS_PREC", "32")
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"MVCRYSTALS_PREC must be an integer in "
                         f"[1, {MAX_REL_PREC}], got {text!r}") from None
    return check_rel_prec(n, "MVCRYSTALS_PREC")


_REL_PREC = ContextVar("mvcrystals_rel_prec", default=_rel_prec_from_env())


def default_rel_prec() -> int:
    return _REL_PREC.get()


def set_default_rel_prec(n: int):
    _REL_PREC.set(check_rel_prec(n))
