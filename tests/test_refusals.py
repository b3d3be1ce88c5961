"""One refusal per input condition: every entry point of a condition raises
the one message of the check that owns it, and that message names the datum.

Coweights are checked by the datum (`RootDatum.lattice_coweight`,
`RootDatum.dominant_coweight` and the one length check behind both); the c,
c~ and ps that go along a word are checked by `RootDatum.per_letter`."""

import re

import pytest

from mvcrystals.affine import build_gallery_type, minimal_word
from mvcrystals.cli import main
from mvcrystals.crystal import expected_character, string_param_from_c, \
    string_param_from_c_tilde, weyl_dimension
from mvcrystals.looplab import LaurentSeries, LoopGroup, lusztig_from_string, sample_ytilde
from mvcrystals.rootdata import Coweight, RootDataError, build_root_datum

A2 = build_root_datum("A", 2)
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
    "cli-crystal": cli("crystal"),
    "cli-string": cli("string"),
}

# condition -> (a coweight that fails it, the datum's message, the entry
# points that check it)
CONDITIONS = {
    "rank": (Coweight((1, 1, 1)), "coweight coordinates (1, 1, 1) do not have rank 2 for A2",
             list(COWEIGHT_ENTRIES)),
    "dominant": (Coweight((-1, 0)), "(-1, 0) is not dominant for A2",
                 ["build_gallery_type", "minimal_word", "expected_character", "weyl_dimension",
                  "cli-crystal", "cli-string"]),
    "coroot-lattice": (A2.fundamental_coweight(1), "(2/3, 1/3) is not in the coroot lattice of A2",
                       ["build_gallery_type", "expected_character", "height", "gen_t"]),
}


@pytest.mark.parametrize("condition,entry", [(c, e) for c, (_, _, es) in CONDITIONS.items()
                                             for e in es])
def test_every_coweight_entry_point_raises_the_datums_message(condition, entry, capsys):
    lam, message, _ = CONDITIONS[condition]
    with pytest.raises(RootDataError, match="^" + re.escape(message) + "$"):
        COWEIGHT_ENTRIES[entry](lam, capsys)


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
], ids=["sample_ytilde", "lusztig_from_string-short", "lusztig_from_string-long", "y_product",
        "string_param_from_c-short", "string_param_from_c-long",
        "string_param_from_c_tilde-short", "string_param_from_c_tilde-long"])
def test_every_per_letter_parameter_raises_the_one_message(name, values, run):
    message = (f"{name} = {values} on word (1, 2, 1) for A2: need one {name} entry per letter; "
               f"the word has 3 letters, {name} has {len(values)} entries")
    with pytest.raises(RootDataError, match="^" + re.escape(message) + "$"):
        run(list(values))
