"""Exact truncated Laurent-series matrices for SL_n loop groups, Kamnitzer
valuation formulas, Y~/cell sampling and tropicalized transition maps."""

from mvcrystals.looplab.groups import LoopGroup
from mvcrystals.looplab.sampling import (
    cell_point,
    counterexample_matrix,
    crystal_op_sample,
    lusztig_from_string,
    morier_genoud_check,
    rank_one_identity_check,
    sample_cell,
    sample_ytilde,
    trop_eval,
)
from mvcrystals.looplab.series import (
    GenericityError,
    LaurentMatrix,
    LaurentSeries,
    LoopGroupError,
    PrecisionError,
    default_rel_prec,
    set_default_rel_prec,
)

__all__ = [
    "LoopGroup",
    "LaurentSeries",
    "LaurentMatrix",
    "PrecisionError",
    "GenericityError",
    "LoopGroupError",
    "default_rel_prec",
    "set_default_rel_prec",
    "sample_ytilde",
    "sample_cell",
    "cell_point",
    "crystal_op_sample",
    "rank_one_identity_check",
    "counterexample_matrix",
    "trop_eval",
    "lusztig_from_string",
    "morier_genoud_check",
]
