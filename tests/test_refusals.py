"""One refusal per input condition: every entry point of a condition raises
the one message of the check that owns it, and that message names the datum.

The one exception is a coordinate that is not an int or a Fraction: the vector
type refuses it when a `Coweight` or `Root` is built, before any datum sees
it, so that refusal names the value (the vector and its coordinates) instead.
A vector of the wrong kind, or a value that is no vector, is refused by the
one kind rule (`RootDatum._of_rank`, or `rootdata._coords` where there is no
datum), which names the datum, if any, and the value.  Coweights are checked
by the datum (`RootDatum.lattice_coweight`, `RootDatum.dominant_coweight` and
the one kind and length check behind them); a root by `RootDatum.coroot_of`; the
word's letters and the c, c~, d and ps that go along it are checked by
`RootDatum.per_letter`, letters first; a gallery's colour by
`gallery._colour`, through `RootDatum._node`.  The other refusals that no
module test raises are each raised once at the end, with their own messages."""

import json
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from mvcrystals.affine import build_gallery_type, fundamentalize, minimal_word, \
    simple_affine_reflection
from mvcrystals.cli import main
from mvcrystals.crystal import CrystalError, CrystalGraph, expected_character, \
    string_param_from_c, string_param_from_c_tilde, string_parameters, validate_axioms, \
    weyl_dimension
from mvcrystals.gallery import Gallery, GalleryError, crystal_maps, enumerate_ls, fold_window, \
    gallery_to_dict, min_wall_level, root_e, root_f
from mvcrystals.looplab import LaurentMatrix, LaurentSeries, LoopGroup, cell_point, \
    counterexample_matrix, lusztig_from_string, morier_genoud_check, rank_one_identity_check, \
    sample_ytilde
from mvcrystals.rootdata import Coweight, Root, RootDataError, build_root_datum
from mvcrystals.trails import in_string_cone, string_cone_inequalities
from mvcrystals.verify import run_criterion

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)
G2 = LoopGroup(A2)


def cli(command):
    """The CLI entry point of a coweight: main's refusal, raised again."""
    def run(lam, capsys):
        argv = [command, "--type", "A", "--rank", "2", "--lambda=" + ",".join(map(str, lam.coords))]
        code = main(argv + (["--word", "1,2,1"] if command == "string" else []))
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and err.startswith("error: ") and err.endswith("\n")
        raise RootDataError(err[len("error: "):-1])
    return run


COWEIGHT_ENTRIES = {
    "build_gallery_type": lambda lam, _: build_gallery_type(A2, lam),
    "minimal_word": lambda lam, _: minimal_word(A2, lam),
    "expected_character": lambda lam, _: expected_character(A2, lam),
    "weyl_dimension": lambda lam, _: weyl_dimension(A2, lam),
    "height": lambda lam, _: A2.height(lam),
    "gen_t": lambda lam, _: G2.gen_t(lam),
    "dominant_coweight": lambda lam, _: A2.dominant_coweight(lam),
    "fundamentalize": lambda lam, _: fundamentalize(A2, lam),
    "dominant_conjugate": lambda lam, _: A2.dominant_conjugate(lam),
    "pairing": lambda lam, _: A2.pairing(A2.simple_root(1), lam),
    "dominance_leq-mu": lambda lam, _: A2.dominance_leq(lam, Coweight((1, 1))),
    "dominance_leq-lam": lambda lam, _: A2.dominance_leq(Coweight((0, 0)), lam),
    "validate_axioms": lambda lam, _: validate_axioms(CrystalGraph(
        A2, ("b",), {"b": lam}, {}, {("b", 1): 0, ("b", 2): 0}, {("b", 1): 0, ("b", 2): 0})),
    "morier_genoud_check": lambda lam, _: morier_genoud_check(G2, (1, 2, 1), (0, 0, 0),
                                                              (1, 1, 1), lam),
    "cli-crystal": cli("crystal"),
    "cli-string": cli("string"),
}
LIBRARY_ENTRIES = [e for e in COWEIGHT_ENTRIES if not e.startswith("cli-")]  # the CLI parses ints

# condition -> (a coweight that fails it, the datum's message, the entry
# points that check it)
CONDITIONS = {
    "rank": (Coweight((1, 1, 1)), "coweight coordinates (1, 1, 1) do not have rank 2 for A2",
             list(COWEIGHT_ENTRIES)),
    "dominant": (Coweight((-1, 0)), "(-1, 0) is not dominant for A2",
                 ["build_gallery_type", "minimal_word", "expected_character", "weyl_dimension",
                  "cli-crystal", "cli-string", "dominant_coweight", "morier_genoud_check"]),
    "coroot-lattice": (A2.fundamental_coweight(1), "(2/3, 1/3) is not in the coroot lattice of A2",
                       ["build_gallery_type", "expected_character", "height", "gen_t"]),
}


@pytest.mark.parametrize("condition,entry", [(c, e) for c, (_, _, es) in CONDITIONS.items()
                                             for e in es])
def test_every_coweight_entry_point_raises_the_datums_message(condition, entry, capsys):
    lam, message, _ = CONDITIONS[condition]
    with pytest.raises(RootDataError, match="^" + re.escape(message) + "$"):
        COWEIGHT_ENTRIES[entry](lam, capsys)


@pytest.mark.parametrize("kind", ["Root", "tuple"])
@pytest.mark.parametrize("entry", LIBRARY_ENTRIES)
def test_every_coweight_entry_point_refuses_another_kind(entry, kind, capsys):
    # the one kind rule, before any coordinate is read: a Root or a bare tuple
    # was read as a coweight by some entries and raised AttributeError in others
    value = Root((1, 1)) if kind == "Root" else (1, 1)
    message = f"expected a Coweight for A2, got {value!r}"
    with pytest.raises(TypeError, match="^" + re.escape(message) + "$"):
        COWEIGHT_ENTRIES[entry](value, capsys)


# entry -> (the call, the head of its message, a vector of the other kind)
OTHER_KIND_ENTRIES = {
    "pairing-root": (lambda rt: A2.pairing(rt, Coweight((1, 1))), "expected a Root for A2",
                     Coweight((1, 1))),
    "coroot_of": (A2.coroot_of, "expected a Root for A2", Coweight((1, 1))),
    "WeylElt.act_coweight": (A2.longest_element().act_coweight, "expected a Coweight",
                             Root((1, 1))),
    "AffWeylElt.act_coweight": (simple_affine_reflection(A2, 0).act_coweight,
                                "expected a Coweight", Root((1, 1))),
}


@pytest.mark.parametrize("kind", ["vector", "tuple"])
@pytest.mark.parametrize("entry", list(OTHER_KIND_ENTRIES))
def test_every_other_vector_entry_point_refuses_another_kind(entry, kind):
    # a root entry refuses a coweight; the two act_coweights, which have no
    # datum, refuse a root with the same message without one
    run, head, value = OTHER_KIND_ENTRIES[entry]
    value = value if kind == "vector" else value.coords
    with pytest.raises(TypeError, match="^" + re.escape(f"{head}, got {value!r}") + "$"):
        run(value)


COORDS = "coordinates are int or Fraction, got "
SCALE = "scale factors are int or Fraction, got "


@pytest.mark.parametrize("build,message", [
    (lambda: Coweight((1.0, 1.0)), COORDS + "float 1.0 in Coweight(coords=(1.0, 1.0))"),
    (lambda: Coweight((0.1, 0.2)), COORDS + "float 0.1 in Coweight(coords=(0.1, 0.2))"),
    (lambda: Coweight((True, 1)), COORDS + "bool True in Coweight(coords=(True, 1))"),
    (lambda: Root((1.0, 0)), COORDS + "float 1.0 in Root(coords=(1.0, 0))"),
    (lambda: Coweight((1, 1)).scale(0.5), SCALE + "float 0.5"),
    (lambda: Coweight((1, 1)).scale(True), SCALE + "bool True"),
    (lambda: Coweight(a / 2 for a in (2, 4)), COORDS + "float 1.0 in Coweight(coords=(1.0, 2.0))"),
    (lambda: Coweight(("1", 1)), COORDS + "str '1' in Coweight(coords=('1', 1))"),
    (lambda: Coweight((None, 1)), COORDS + "NoneType None in Coweight(coords=(None, 1))"),
    (lambda: Coweight((Decimal(1), 1)),
     COORDS + "Decimal Decimal('1') in Coweight(coords=(Decimal('1'), 1))"),
    (lambda: Root((True, 0)), COORDS + "bool True in Root(coords=(True, 0))"),
], ids=["float-integral", "float", "bool", "Root-float", "scale-float", "scale-bool",
        "true-division", "str", "None", "Decimal", "Root-bool"])
def test_a_vector_refuses_an_inexact_coordinate_when_built(build, message):
    # before any datum sees it: every entry point that takes a coweight or a
    # root takes one that holds ints and Fractions only; a scale factor is
    # refused before the product, as True * 1 is the int 1
    with pytest.raises(TypeError, match="^" + re.escape(message) + "$"):
        build()


@pytest.mark.parametrize("run,value", [
    (lambda: A2.pairing_coords((1, 0), (0.5, 0)), 1.0),
    (lambda: A2.longest_element().act_point((0.5, 1.0)), -1.0),
    (lambda: simple_affine_reflection(A2, 0).act_point((0.5, 0)), 1.0),
], ids=["pairing_coords", "WeylElt.act_point", "AffWeylElt.act_point"])
def test_the_coordinate_tuple_paths_refuse_an_inexact_value(run, value):
    # the methods that take bare coordinate tuples pass each value they make
    # through the same normalizer, which names the value alone
    with pytest.raises(TypeError, match="^" + re.escape(
            f"coordinates are int or Fraction, got float {value}") + "$"):
        run()


ONE = LaurentSeries.one()


@pytest.mark.parametrize("name,values,run", [
    ("c", (1, 0), lambda c: sample_ytilde(G2, (1, 2, 1), c)),
    ("c~", (1, 0), lambda c: lusztig_from_string(G2, (1, 2, 1), c)),
    ("c~", (1, 0, 0, 1), lambda c: lusztig_from_string(G2, (1, 2, 1), c)),
    ("ps", (ONE, ONE), lambda ps: G2.y_product((1, 2, 1), ps)),
    ("c", (1, 2), lambda c: string_param_from_c(A2, (1, 2, 1), c)),
    ("c", (1, 2, 1, 5), lambda c: string_param_from_c(A2, (1, 2, 1), c)),
    ("c~", (1, 2), lambda c: string_param_from_c_tilde(A2, (1, 2, 1), c)),
    ("c~", (1, 2, 1, 5), lambda c: string_param_from_c_tilde(A2, (1, 2, 1), c)),
    ("c~", (0, 0), lambda c: morier_genoud_check(G2, (1, 2, 1), c, (1, 1, 1), Coweight((1, 1)))),
    ("c~", (0, 0, 0, 9),
     lambda c: morier_genoud_check(G2, (1, 2, 1), c, (1, 1, 1), Coweight((1, 1)))),
    ("d", (1, 1), lambda d: morier_genoud_check(G2, (1, 2, 1), (0, 0, 0), d, Coweight((1, 1)))),
    ("d", (1, 1, 1, 7),
     lambda d: morier_genoud_check(G2, (1, 2, 1), (0, 0, 0), d, Coweight((1, 1)))),
], ids=["sample_ytilde", "lusztig_from_string-short", "lusztig_from_string-long", "y_product",
        "string_param_from_c-short", "string_param_from_c-long",
        "string_param_from_c_tilde-short", "string_param_from_c_tilde-long",
        "morier_genoud_check-c~-short", "morier_genoud_check-c~-long",
        "morier_genoud_check-d-short", "morier_genoud_check-d-long"])
def test_every_per_letter_parameter_raises_the_one_message(name, values, run):
    message = (f"{name} = {values} on word (1, 2, 1) for A2: need one {name} entry per letter; "
               f"the word has 3 letters, {name} has {len(values)} entries")
    with pytest.raises(RootDataError, match="^" + re.escape(message) + "$"):
        run(list(values))


# each with two entries for a word of three letters, so a letter refused
# before the entry count shows
LETTER_ENTRIES = {
    "string_param_from_c": lambda word: string_param_from_c(A2, word, (1, 1)),
    "string_param_from_c_tilde": lambda word: string_param_from_c_tilde(A2, word, (1, 1)),
    "y_product": lambda word: G2.y_product(word, (ONE, ONE)),
}


@pytest.mark.parametrize("entry", list(LETTER_ENTRIES))
@pytest.mark.parametrize("word", [(0, 2, 1), (1, 3, 1), (1.0, 2, 1), (True, 2, 1)],
                         ids=["letter-0", "letter-past-rank", "float-letter", "bool-letter"])
def test_every_per_letter_word_raises_the_one_letter_message(entry, word):
    message = f"word {word} has a letter outside 1..2 for A2"
    with pytest.raises(RootDataError, match="^" + re.escape(message) + "$"):
        LETTER_ENTRIES[entry](word)


@pytest.mark.parametrize("word", [(True, 2, True), (1.0, 2.0, 1.0), ([1], 2, 1), (1, 1, 2)],
                         ids=["bool-letters", "float-letters", "list-letter", "not-reduced"])
def test_factor_y_refuses_a_word_before_and_after_a_kept_peel_plan(word):
    # factor_y keeps one peel plan per checked word of w_0; the first two
    # words compare equal to (1, 2, 1) and hash like it, the third cannot be
    # hashed, and each is refused as before once (1, 2, 1)'s plan is kept
    group = LoopGroup(A2)
    g = group.y_product((1, 2, 1), (ONE, ONE, ONE))
    message = f"{word} is not a reduced word of w_0 for A2 (3 letters in 1..2)"
    with pytest.raises(RootDataError, match="^" + re.escape(message) + "$"):
        group.factor_y(g, word)
    assert group.factor_y(g, (1, 2, 1)) == [ONE, ONE, ONE]
    with pytest.raises(RootDataError, match="^" + re.escape(message) + "$"):
        group.factor_y(g, word)


def test_a_fraction_lattice_coweight_is_read_as_ints():
    # a Coweight stores an integral Fraction as its int, so the gallery type
    # keeps int coordinates and its galleries serialize
    lam = Coweight((Fraction(1), Fraction(1)))
    assert expected_character(A2, lam) == expected_character(A2, Coweight((1, 1)))
    gtype = build_gallery_type(A2, lam)
    assert [type(a) for a in gtype.lam.coords] == [int, int]
    for node in enumerate_ls(gtype).nodes:
        json.dumps(gallery_to_dict(node))


CRYSTAL_21 = enumerate_ls(build_gallery_type(A2, Coweight((2, 1))))
NODE_21 = CRYSTAL_21.nodes[1]  # weight (1, 1)

COLOUR_ENTRIES = {
    "min_wall_level": min_wall_level,
    "crystal_maps": crystal_maps,
    "fold_window": fold_window,
    "root_e": root_e,
    "root_f": root_f,
}


@pytest.mark.parametrize("entry", list(COLOUR_ENTRIES))
@pytest.mark.parametrize("colour", [0, 3, -1, True])
def test_every_colour_entry_raises_the_datums_message(entry, colour):
    assert NODE_21.weight == Coweight((1, 1))
    message = f"colour index {colour} out of range for A2"
    with pytest.raises(RootDataError, match="^" + re.escape(message) + "$"):
        COLOUR_ENTRIES[entry](NODE_21, colour)


GAMMA = build_gallery_type(A2, Coweight((1, 1)))  # its word (0,) has one letter
CRYSTAL_11 = enumerate_ls(GAMMA)

# entry -> (the call, the exception type, its message)
OTHER_REFUSALS = {
    "build_gallery_type-not-minimal": (
        lambda: build_gallery_type(A1, Coweight((1,)), word=(0, 1)), RootDataError,
        "word (0, 1) for lambda = (1) on A1 is not minimal: w_lambda has 1 letters"),
    "Gallery-flip-count": (lambda: Gallery(GAMMA, A2.identity_elt(), (True, True)),
                           GalleryError, "2 flips for a type of length 1"),
    "LaurentMatrix-not-square": (lambda: LaurentMatrix([[ONE, ONE]]), ValueError,
                                 "a LaurentMatrix needs a square array of series"),
    "run_criterion-13": (lambda: run_criterion(13), ValueError, "no criterion 13"),
    "LoopGroup-B2": (lambda: LoopGroup(build_root_datum("B", 2)), RootDataError,
                     "loop-group matrices are realized for type A only"),
    "coroot_of-A3": (lambda: A3.coroot_of(Root((1, 0, 1))), RootDataError,
                     "(1, 0, 1) is not a root of A3"),
    "root_pair-A3": (lambda: LoopGroup(A3).root_pair(Root((1, 0, 1))), RootDataError,
                     "(1, 0, 1) is not a root of A3"),
    "cell_point-all-folds": (
        lambda: cell_point(G2, Gallery(GAMMA, A2.identity_elt(), (False,)), random.Random(1)),
        RootDataError, "cell sampling requires a positively folded gallery"),
    "rank_one_identity_check-SL3": (lambda: rank_one_identity_check(G2, 0, 1, ONE),
                                    RootDataError, "rank-one identity lives in SL_2"),
    "counterexample_matrix-SL3": (lambda: counterexample_matrix(G2), RootDataError,
                                  "the counterexample lives in SL_4"),
    "string_parameters-foreign-node": (
        lambda: string_parameters(CRYSTAL_11, NODE_21, (1, 2, 1)), CrystalError,
        "the node is not in this crystal of A2 with highest weight (1, 1)"),
    "in_string_cone-short-c": (
        lambda: in_string_cone((1, 2), string_cone_inequalities(A2, (1, 2, 1))[0]), ValueError,
        "c = (1, 2) has 2 entries; the string cone's rows have 3"),
    "pairing_row-list": (lambda: A1.pairing_row([1]), TypeError,
                         "expected a tuple of root coordinates for A1, got [1]"),
    "pairing_coords-list": (lambda: A1.pairing_coords([1], (1,)), TypeError,
                            "expected a tuple of root coordinates for A1, got [1]"),
    "morier_genoud_check-not-w0": (
        lambda: morier_genoud_check(G2, (1, 1, 1), (0, 0, 0), (1, 1, 1), Coweight((1, 1))),
        RootDataError, "(1, 1, 1) is not a reduced word of w_0 for A2 (3 letters in 1..2)"),
}


@pytest.mark.parametrize("entry", list(OTHER_REFUSALS))
def test_every_other_refusal_raises_its_message(entry):
    run, error, message = OTHER_REFUSALS[entry]
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        run()
