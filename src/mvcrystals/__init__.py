"""Exact combinatorics of crystals, LS galleries, string cones and
loop-group valuations on the affine Grassmannian (type A matrices)."""

from mvcrystals.affine import build_gallery_type, minimal_word
from mvcrystals.crystal import (
    character,
    crystal_isomorphic,
    expected_character,
    string_parameters,
    validate_axioms,
)
from mvcrystals.gallery import enumerate_ls, minimal_gallery
from mvcrystals.rootdata import Coweight, Root, build_root_datum
from mvcrystals.trails import in_string_cone, string_cone_inequalities

__all__ = [
    "build_root_datum",
    "Root",
    "Coweight",
    "build_gallery_type",
    "minimal_word",
    "minimal_gallery",
    "enumerate_ls",
    "character",
    "expected_character",
    "validate_axioms",
    "crystal_isomorphic",
    "string_parameters",
    "string_cone_inequalities",
    "in_string_cone",
    "LoopGroup",
]
__version__ = "0.1.0"


def __getattr__(name):  # PEP 562: LoopGroup loads looplab on first use only
    if name == "LoopGroup":
        from mvcrystals.looplab import LoopGroup
        return LoopGroup
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
