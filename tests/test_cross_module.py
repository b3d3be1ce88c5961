"""Checks that tie the symbolic affine combinatorics to the matrix realization
and the crystal strings to the cone machinery."""

import random
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from mvcrystals import cli, gallery
from mvcrystals.affine import AffineRoot, build_gallery_type
from mvcrystals.crystal import CrystalError, string_parameters
from mvcrystals.gallery import GalleryError, enumerate_ls, stable_string
from mvcrystals.looplab import GenericityError, LaurentMatrix, LaurentSeries, LoopGroup, \
    lusztig_from_string, sample_ytilde
from mvcrystals.looplab.series import default_rel_prec, set_default_rel_prec, vector_val, \
    PrecisionError
from mvcrystals.rootdata import Coweight, RootDataError, build_root_datum
from mvcrystals.trails import in_string_cone, string_cone_inequalities
from reference import act_affine_root
from stabwork import sqrt

A2 = build_root_datum("A", 2)
G2 = LoopGroup(A2)


def test_affine_conjugation_matches_symbolic_action():
    # (t^lam wbar) x_{alpha,n}(a) (t^lam wbar)^{-1} = x_{g(alpha,n)}(+-a)
    # for g = tau_lam w: the matrix conjugation realizes the symbolic action
    rng = random.Random(23)
    roots = [r for r in A2.positive_roots] + [-r for r in A2.positive_roots]
    from mvcrystals.affine import AffWeylElt

    for _ in range(40):
        lam = Coweight((rng.randint(-2, 2), rng.randint(-2, 2)))
        w = rng.choice(A2.weyl_elements())
        g_aff = AffWeylElt(lam.coords, w)
        t, wbar = G2.gen_t(lam), G2.gen_wbar(A2.reduced_word(w))
        beta = AffineRoot(rng.choice(roots), rng.randint(-2, 2))
        a = Fraction(rng.randint(1, 7))
        lhs = t * wbar * G2.gen_x(beta.root, LaurentSeries.t_power(beta.level, a)) * \
            wbar.inverse() * t.inverse()
        img = act_affine_root(g_aff, A2, beta)
        plus = G2.gen_x(img.root, LaurentSeries.t_power(img.level, a))
        minus = G2.gen_x(img.root, LaurentSeries.t_power(img.level, -a))
        assert lhs.equals_exact(plus) or lhs.equals_exact(minus), \
            (lam.coords, beta, img)


THETA = enumerate_ls(build_gallery_type(A2, Coweight((1, 1))))
ONE = LaurentMatrix.identity(3)
# every entry point that takes a reduced word of w_0, as (name, call, error class)
W0_ENTRY_POINTS = [
    ("string_cone_inequalities", lambda w: string_cone_inequalities(A2, w), RootDataError),
    ("sample_ytilde", lambda w: sample_ytilde(G2, w, (0,) * len(w)), RootDataError),
    ("lusztig_from_string", lambda w: lusztig_from_string(G2, w, (0,) * len(w)), RootDataError),
    ("factor_y", lambda w: G2.factor_y(ONE, w), RootDataError),
    ("factor_z", lambda w: G2.factor_z(ONE, w), RootDataError),
    ("string_parameters", lambda w: string_parameters(THETA, THETA.nodes[0], w), CrystalError),
]


@pytest.mark.parametrize("word", [(1, 2), (1, 0, 1), (1, 3, 1), (1, 1, 2), (True, 2, True),
                                  (1.0, 2, 1)],
                         ids=["too-short", "letter-0", "letter-rank+1", "not-reduced",
                              "bool-letter", "float-letter"])
@pytest.mark.parametrize("call,error", [p[1:] for p in W0_ENTRY_POINTS],
                         ids=[p[0] for p in W0_ENTRY_POINTS])
def test_every_w0_entry_point_refuses_a_bad_word_with_one_message(call, error, word):
    # one check on the datum decides, and its one message names the datum
    message = f"{word} is not a reduced word of w_0 for A2 (3 letters in 1..2)"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(word)


def test_stable_string_lies_in_cone():
    # a stabilized B(-infinity) string always satisfies the cone inequalities
    word = (1, 2, 1)
    rows, _ = string_cone_inequalities(A2, word)
    lams = [Coweight((1, 1)), Coweight((2, 2)), Coweight((3, 3))]

    def selector_factory(steps):
        def selector(graph):
            node = graph.lowest_node()
            for i in steps:
                node = graph.e(node, i)
                if node is None:
                    return None
            return node
        return selector

    for steps in [(), (1,), (1, 2), (2, 1, 1), (1, 2, 1)]:
        sp = stable_string(A2, lams, selector_factory(steps), word)
        assert in_string_cone(sp.c, rows), (steps, sp.c)


def test_enumeration_node_cap_guardrail(monkeypatch):
    gtype = build_gallery_type(A2, Coweight((1, 1)))
    monkeypatch.setattr(gallery, "NODE_CAP", 3)
    with pytest.raises(GalleryError):
        enumerate_ls(gtype)


def test_precision_setting_bounds():
    # only an int in [1, 256] is a precision: 2.5 would window a quotient at
    # O(t^2.5), and True and 32.0 compare equal to ints in range
    before = default_rel_prec()
    for bad in (0, 10**6, 2.5, 32.0, True):
        with pytest.raises(ValueError):
            set_default_rel_prec(bad)
    assert default_rel_prec() == before


def test_vector_val_uncertified():
    known = LaurentSeries({3: 1})
    unknown_low_cap = LaurentSeries({}, cap=1)
    with pytest.raises(PrecisionError):
        vector_val([known, unknown_low_cap])
    # a cap above the known valuation certifies the minimum
    assert vector_val([known, LaurentSeries({}, cap=5)]) == 3


@pytest.mark.parametrize("entries,message", [
    # every entry O(t^m) with no known term: nothing to take the minimum of
    ([LaurentSeries({}, cap=4), LaurentSeries({}, cap=-2)], "vector indistinguishable from zero"),
    ([LaurentSeries({}, cap=0)], "vector indistinguishable from zero"),
    # a window that ends below the best known valuation, before or after it
    ([LaurentSeries({}, cap=1), LaurentSeries({3: 1, 4: 2}, cap=6)],
     "vector valuation not certified at current precision"),
    ([LaurentSeries({2: 5}), LaurentSeries({}, cap=7), LaurentSeries({5: 1}, cap=6)], None),
    ([LaurentSeries({2: 5}), LaurentSeries({}, cap=7), LaurentSeries({}, cap=1)],
     "vector valuation not certified at current precision"),
], ids=["all-unknown", "one-unknown", "low-cap-first", "certified", "low-cap-last"])
def test_vector_val_refusals_keep_their_messages(entries, message):
    if message is None:
        assert vector_val(entries) == 2
        return
    with pytest.raises(PrecisionError, match="^" + re.escape(message) + "$"):
        vector_val(entries)


def test_sqrt_requires_rational_square():
    with pytest.raises(GenericityError):
        sqrt(LaurentSeries({0: 2, 1: 1}))
    with pytest.raises(GenericityError):
        sqrt(LaurentSeries({0: -1}))


def _first_dominant(datum, max_height=6):
    import itertools

    best = None
    for coords in itertools.product(range(0, max_height + 1), repeat=datum.rank):
        if sum(coords) == 0 or sum(coords) > max_height:
            continue
        v = Coweight(coords)
        if datum.is_dominant(v):
            if best is None or sum(coords) < sum(best.coords):
                best = v
    return best


@pytest.mark.parametrize("series,rank,coords", [
    ("C", 2, (1, 1)),
    ("C", 3, (1, 1, 1)),
    ("D", 4, (1, 2, 1, 1)),   # theta^vee: dual so8 adjoint, 28 nodes
    ("B", 3, None),
    ("B", 4, None),
    ("C", 4, None),
])
def test_gallery_character_beyond_required_suites(series, rank, coords):
    from mvcrystals.crystal import character, expected_character, validate_axioms

    datum = build_root_datum(series, rank)
    lam = Coweight(coords) if coords else _first_dominant(datum)
    assert lam is not None and datum.is_dominant(lam)
    graph = enumerate_ls(build_gallery_type(datum, lam))
    assert validate_axioms(graph) == []
    assert character(graph) == expected_character(datum, lam)


def readme_block(heading, lang):
    """The first fenced block of this language under this README heading."""
    text = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text()
    return re.search(rf"## {heading}\n\n```{lang}\n(.*?)```", text, re.DOTALL).group(1)


def test_readme_quickstart_block():
    # keep the README's library example honest
    namespace = {}
    exec(compile(readme_block("Library quickstart", "python"), "README.md", "exec"),
         namespace)


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    # keep the README's CLI examples honest: each runs and exits 0
    commands = [shlex.split(line) for line in readme_block("CLI examples", "sh").splitlines()
                if line.startswith("mvcrystals ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
