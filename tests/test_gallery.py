import ast
import hashlib
import json
import re
from itertools import combinations, product

import pytest

from mvcrystals import gallery
from mvcrystals.affine import AffWeylElt, build_gallery_type, identity_aff
from mvcrystals.gallery import (
    Gallery,
    GalleryError,
    _colour,
    crystal_maps,
    crystal_to_dict,
    dimension,
    enumerate_ls,
    fold_window,
    gallery_from_dict,
    gallery_to_dict,
    is_ls,
    is_positively_folded,
    min_wall_level,
    minimal_gallery,
    root_e,
    root_f,
)
from mvcrystals.rootdata import Coweight, RootDatum, WeylElt, build_root_datum
from reference import face_walls, ref_phi_plus, ref_recover_tuple, translation

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
B2 = build_root_datum("B", 2)
G2 = build_root_datum("G", 2)


@pytest.fixture(scope="module")
def a1_type():
    return build_gallery_type(A1, A1.simple_coroot(1), word=(0,))


@pytest.fixture(scope="module")
def a2_theta_type():
    return build_gallery_type(A2, Coweight((1, 1)))


def gal(a1_type, d0_word, flip):
    return Gallery(a1_type, A1.word_to_element(d0_word), (flip,))


def test_weight_examples(a1_type):
    gamma = minimal_gallery(a1_type)
    assert gamma.weight == A1.simple_coroot(1)
    # tuple (s1, s0): weight -alpha^vee
    assert gal(a1_type, (1,), True).weight == -A1.simple_coroot(1)
    # tuple (s1, id): weight 0
    assert gal(a1_type, (1,), False).weight == A1.zero_coweight()


def test_min_wall_level(a1_type):
    gamma = minimal_gallery(a1_type)
    assert min_wall_level(gamma, 1) == 0
    assert min_wall_level(gal(a1_type, (1,), False), 1) == -1
    # lowest gallery of B(alpha^vee): weight -alpha^vee, m = <alpha, w0 lam> = -2
    assert min_wall_level(gal(a1_type, (1,), True), 1) == -2


def test_crystal_maps(a1_type):
    gamma = minimal_gallery(a1_type)
    nu, eps, phi = crystal_maps(gamma, 1)
    assert (eps, phi) == (0, 2)
    nu, eps, phi = crystal_maps(gal(a1_type, (1,), False), 1)
    assert nu == A1.zero_coweight() and eps == 1 and phi == 1
    # phi - eps = <alpha_i, nu> on every A2 theta gallery node
    gt = build_gallery_type(A2, Coweight((1, 1)))
    graph = enumerate_ls(gt)
    for g in graph.nodes:
        for i in (1, 2):
            nu, eps, phi = crystal_maps(g, i)
            assert phi - eps == A2.pairing(A2.simple_root(i), nu)


def test_root_e_examples(a1_type):
    gamma = minimal_gallery(a1_type)
    for i in (1,):
        assert root_e(gamma, i) is None  # m = 0 at the top
    up = root_e(gal(a1_type, (1,), False), 1)
    assert up == gamma  # hand-computed surgery: (s1, id) -> (id, s0)
    assert up.weight == A1.zero_coweight() + A1.simple_coroot(1)


def test_root_f_chain(a1_type):
    gamma = minimal_gallery(a1_type)
    g1 = root_f(gamma, 1)
    assert g1 is not None and g1.weight == A1.zero_coweight()
    assert g1 == gal(a1_type, (1,), False)
    g2 = root_f(g1, 1)
    assert g2 is not None and g2.weight == -A1.simple_coroot(1)
    assert root_f(g2, 1) is None  # phi bound = 2 exhausted
    # partial inverses
    assert root_e(g1, 1) == gamma
    assert root_f(root_e(g1, 1), 1) == g1


def test_positively_folded(a1_type):
    assert is_positively_folded(minimal_gallery(a1_type))
    assert not is_positively_folded(gal(a1_type, (), False))  # (id, id)
    assert is_positively_folded(gal(a1_type, (1,), False))  # (s1, id)


def test_dimension(a1_type):
    gamma = minimal_gallery(a1_type)
    assert dimension(gamma) == len(A1.positive_roots) + 1  # |Phi_+| + p
    assert dimension(gal(a1_type, (1,), False)) == 1
    assert dimension(gal(a1_type, (1,), True)) == 0


def ref_positively_folded(g):
    gaps = ref_phi_plus(g)
    for j in range(1, g.gtype.p + 1):
        if g.prefixes[j - 1] == g.prefixes[j]:  # fold: Delta_{j-1} = Delta_j
            if not gaps[j]:
                return False
    return True


def ref_dimension(g):
    return sum(map(len, ref_phi_plus(g)))


def all_tuples(gtype):
    """Every tuple (delta_0, delta_1, ..., delta_p) of the type, as fresh galleries."""
    for delta0 in gtype.datum.weyl_elements():
        for flips in product((False, True), repeat=gtype.p):
            yield Gallery(gtype, delta0, flips)


FOLD_CASES = [(A1, (2,)), (A2, (1, 1))]


@pytest.mark.parametrize("datum,lam", FOLD_CASES, ids=["A1-(2,)", "A2-(1, 1)"])
def test_fold_list_matches_two_pass_definitions(datum, lam):
    gtype = build_gallery_type(datum, Coweight(lam))
    folded = set()
    for g in all_tuples(gtype):
        assert is_positively_folded(g) == ref_positively_folded(g)
        assert dimension(g) == ref_dimension(g)
        folded.add(is_positively_folded(g))
    assert folded == {False, True}


@pytest.mark.parametrize("datum,lam", FOLD_CASES + [(B2, (2, 2)), (G2, (2, 3))],
                         ids=["A1-(2,)", "A2-(1, 1)", "B2-(2, 2)", "G2-(2, 3)"])
def test_wall_rule_matches_the_faces_on_every_tuple(datum, lam):
    # the walls read off W's tables against the vertex evaluation, on every
    # tuple of the type; B2 and G2 bring marks > 1 and every letter
    gtype = build_gallery_type(datum, Coweight(lam))
    assert 0 in gtype.word
    for g in all_tuples(gtype):
        levels, counts = face_walls(g)
        assert tuple(map(len, g.phi_plus)) == counts, g.sort_key()
        assert dimension(g) == sum(counts), g.sort_key()
        for c, want in levels.items():
            assert _colour(g, c)[0] == want, (g.sort_key(), c)
            assert min_wall_level(g, c) == min(n for n in want if n is not None)


def test_enumeration_adds_no_state_to_the_datum():
    # the galleries own their faces and W's tables have a fixed size: a larger
    # crystal leaves the datum and its Weyl group elements as they were
    datum = RootDatum("A", 2)

    def size():
        held = list(vars(datum).values()) + [getattr(w, name) for w in datum.weyl_elements()
                                             for name in WeylElt.__slots__]
        return sum(len(v) for v in held if isinstance(v, (dict, list, set, tuple)))

    enumerate_ls(build_gallery_type(datum, Coweight((1, 1))))
    small = size()
    enumerate_ls(build_gallery_type(datum, Coweight((3, 3))))
    assert size() == small


def test_is_ls_exhaustive_a1(a1_type):
    tuples = [((), True), ((), False), ((1,), True), ((1,), False)]
    ls = [t for t in tuples if is_ls(gal(a1_type, t[0], t[1]))]
    assert len(ls) == 3
    weights = {gal(a1_type, t[0], t[1]).weight for t in ls}
    assert weights == {A1.simple_coroot(1), A1.zero_coweight(), -A1.simple_coroot(1)}
    assert not is_ls(gal(a1_type, (), False))


def test_enumerate_ls_a1(a1_type):
    graph = enumerate_ls(a1_type)
    assert len(graph.nodes) == 3


def test_enumerate_ls_a2_adjoint(a2_theta_type):
    graph = enumerate_ls(a2_theta_type)
    assert len(graph.nodes) == 8
    from collections import Counter
    ch = Counter(graph.wt[b] for b in graph.nodes)
    assert ch[A2.zero_coweight()] == 2


def test_enumerate_ls_zero():
    gt = build_gallery_type(A2, A2.zero_coweight())
    graph = enumerate_ls(gt)
    assert len(graph.nodes) == 1
    assert not graph.f_map


def test_partial_inverse_property(a2_theta_type):
    graph = enumerate_ls(a2_theta_type)
    for g in graph.nodes:
        for i in (1, 2):
            up = root_e(g, i)
            if up is not None:
                assert root_f(up, i) == g
            down = root_f(g, i)
            if down is not None:
                assert root_e(down, i) == g


def test_eps_phi_are_string_lengths(a2_theta_type):
    graph = enumerate_ls(a2_theta_type)
    for g in graph.nodes:
        for i in (1, 2):
            _, eps, phi = crystal_maps(g, i)
            n, cur = 0, g
            while True:
                up = root_e(cur, i)
                if up is None:
                    break
                cur, n = up, n + 1
            assert n == eps
            n, cur = 0, g
            while True:
                down = root_f(cur, i)
                if down is None:
                    break
                cur, n = down, n + 1
            assert n == phi


def test_ls_dimension_defect(a2_theta_type):
    graph = enumerate_ls(a2_theta_type)
    gamma_dim = dimension(minimal_gallery(a2_theta_type))
    for g in graph.nodes:
        assert gamma_dim - dimension(g) == A2.height(Coweight((1, 1)) - g.weight)


def test_serialization_roundtrip(a2_theta_type):
    graph = enumerate_ls(a2_theta_type)
    for g in graph.nodes:
        data = gallery_to_dict(g)
        back = gallery_from_dict(A2, data)
        assert back == g


@pytest.mark.parametrize("entry", [7, "x", None, True, 1.0])
def test_gallery_from_dict_reads_only_0_and_1_as_flips(a2_theta_type, entry):
    data = gallery_to_dict(minimal_gallery(a2_theta_type))
    data["deltas"][1] = entry
    with pytest.raises(GalleryError, match=rf"^deltas\[1\] = {re.escape(repr(entry))} is not "
                                           r"a flip: delta_1 is 0 or 1$"):
        gallery_from_dict(A2, data)


@pytest.mark.parametrize("key", ["word", "deltas"])
def test_gallery_from_dict_names_a_missing_entry(a2_theta_type, key):
    # a bare KeyError named neither the record nor what it lacks
    data = gallery_to_dict(minimal_gallery(a2_theta_type))
    del data[key]
    with pytest.raises(GalleryError, match=rf"^gallery record has no '{key}' entry$"):
        gallery_from_dict(A2, data)


@pytest.mark.parametrize("key", ["lambda", "word"])
@pytest.mark.parametrize("entry", [1, "11", None, [1, "1"], [1.0, 1]],
                         ids=["int", "str", "none", "str-item", "float-item"])
def test_gallery_from_dict_reads_lambda_and_word_as_integer_lists(a2_theta_type, key, entry):
    # an int raised "TypeError: 'int' object is not iterable", which names no entry
    data = gallery_to_dict(minimal_gallery(a2_theta_type))
    data[key] = entry
    with pytest.raises(GalleryError, match=rf"^{key} = {re.escape(repr(entry))} is not "
                                           r"a list of integers$"):
        gallery_from_dict(A2, data)


@pytest.mark.parametrize("deltas", [[], 5], ids=["empty", "int"])
def test_gallery_from_dict_refuses_deltas_without_delta_0(a2_theta_type, deltas):
    # deltas[0] raised IndexError on [] and TypeError on 5
    data = gallery_to_dict(minimal_gallery(a2_theta_type))
    data["deltas"] = deltas
    with pytest.raises(GalleryError, match=rf"^deltas = {re.escape(repr(deltas))} has no delta_0"):
        gallery_from_dict(A2, data)


@pytest.mark.parametrize("entry", [5, [1, "2"], "12", None])
def test_gallery_from_dict_reads_delta_0_as_a_word(a2_theta_type, entry):
    # 5 raised "TypeError: 'int' object is not iterable" from word_to_element
    data = gallery_to_dict(minimal_gallery(a2_theta_type))
    data["deltas"][0] = entry
    with pytest.raises(GalleryError, match=rf"^deltas\[0\] = {re.escape(repr(entry))} is not "
                                           r"a word: delta_0 is a list of letters in 1\.\.2$"):
        gallery_from_dict(A2, data)


# the reference's tuple recovery, which test_gallery_inheritance checks the
# library's toggle rule against, and its tripwires

def test_recover_tuple_keeps_the_tuple_under_identity_movers(a2_theta_type):
    one = identity_aff(A2)
    for g in enumerate_ls(a2_theta_type).nodes:
        p = g.gtype.p
        for j, k in combinations(range(p + 2), 2):  # every window 0 <= j < k <= p + 1
            assert ref_recover_tuple(g, 1, j, k, one, one) == g


def test_recover_tuple_rejects_translation_on_delta0(a1_type):
    # the window starts at Delta_0 and its mover translates
    gamma = minimal_gallery(a1_type)
    shift = translation(A1, A1.simple_coroot(1))
    with pytest.raises(GalleryError, match="delta_0 has a translation"):
        ref_recover_tuple(gamma, 1, 0, 2, shift, shift)


def test_recover_tuple_rejects_step_outside_w_il(a1_type):
    gamma = minimal_gallery(a1_type)
    shift = translation(A1, A1.simple_coroot(1))
    with pytest.raises(GalleryError, match=r"delta_1 is not in W_\{i_1\}"):
        ref_recover_tuple(gamma, 1, 1, 2, shift, shift)
    # a finite reflection applied from the middle of a longer gallery
    gtype = build_gallery_type(A2, Coweight((2, 2)))
    assert gtype.p == 5
    gamma = minimal_gallery(gtype)
    s1 = AffWeylElt((0, 0), A2.simple_reflection(1))
    with pytest.raises(GalleryError, match=r"delta_2 is not in W_\{i_2\}"):
        ref_recover_tuple(gamma, 1, 2, 6, s1, identity_aff(A2))
    # the tail's mover leaves W_{i_k} at the window's end k = 4
    with pytest.raises(GalleryError, match=r"delta_4 is not in W_\{i_4\}"):
        ref_recover_tuple(gamma, 1, 2, 4, identity_aff(A2), s1)


# sha256 of json.dumps(crystal_to_dict(enumerate_ls(build_gallery_type(...))), sort_keys=True):
# pins node order, edges, eps/phi and dim of the exported crystal byte for byte.
GOLDEN_CRYSTALS = [
    ("A", 2, (3, 5), "1b96868f2449f26939a2b250700ae15920a0deeb585618391f96c4a9d4a09ce3"),
    ("B", 3, (1, 2, 1), "141d2e1ad553057f929f7420b60b2981326612dd4c3907479b1f4c06e06a1fde"),
    ("C", 3, (1, 2, 2), "57b623c5a47c4e4b5772664e140fcb1fca50b1eae2428c09730da979358083dd"),
    ("D", 4, (1, 2, 1, 1), "9c129a43aea3add82030c2ccfbbbd0cffcb5c650624fe53aed617adeab00aa19"),
    ("G", 2, (2, 3), "032837b2b5f817b9352057576766306cea1939aec3ba3f94261d36605d00d9ca"),
    ("D", 5, (1, 2, 2, 1, 1), "3fd5742ffc28c23d4efe15852498c6e18b7687699edfba9d59c6a627b090d0a1"),
]


@pytest.mark.parametrize("series,rank,lam,digest", GOLDEN_CRYSTALS,
                         ids=[f"{s}{r}-{lam}" for s, r, lam, _ in GOLDEN_CRYSTALS])
def test_crystal_export_golden(series, rank, lam, digest):
    datum = build_root_datum(series, rank)
    graph = enumerate_ls(build_gallery_type(datum, Coweight(lam)))
    text = json.dumps(crystal_to_dict(graph), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_flip_count_checked_under_python_O(run_python):
    code = (
        "from mvcrystals.affine import build_gallery_type\n"
        "from mvcrystals.gallery import Gallery, GalleryError\n"
        "from mvcrystals.rootdata import build_root_datum\n"
        "A1 = build_root_datum('A', 1)\n"
        "gt = build_gallery_type(A1, A1.simple_coroot(1), word=(0,))\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    Gallery(gt, A1.identity_elt(), (True, False))\n"
        "except GalleryError as exc:\n"
        "    print('raised:', exc)\n"
    )
    out = run_python(code, "-O")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: 2 flips")


# -- error context: every root-operator error names the datum, the gallery as
# gallery_from_dict reads it, and the colour; each fault is monkeypatched in

def assert_names(exc_info, g, i):
    """The message ends in "(<datum> gallery <dict>, colour <i>)", and the
    dict rebuilds g."""
    datum = g.gtype.datum
    text = str(exc_info.value)
    assert text.endswith(f"({datum.series}{datum.rank} gallery {gallery_to_dict(g)}, colour {i})")
    data = ast.literal_eval(text[text.rindex(" gallery ") + 9:text.rindex(", colour")])
    assert gallery_from_dict(datum, data) == g


def test_weight_error_names_the_gallery(monkeypatch, a1_type):
    gamma = minimal_gallery(a1_type)
    # the surgery's rule replaced by one that returns the parent
    monkeypatch.setattr(gallery, "_surgery", lambda g, i, j, k: g)
    with pytest.raises(GalleryError, match="moved the weight") as exc:
        root_f(gamma, 1)
    assert_names(exc, gamma, 1)


def test_missing_fold_point_error_names_the_gallery(monkeypatch, a1_type):
    g, real = gal(a1_type, (1,), False), gallery._colour
    assert fold_window(g, 1) == (-1, 0, 1)
    monkeypatch.setattr(gallery, "_colour",
                        lambda g, i: ((None,) + real(g, i)[0][1:], real(g, i)[1]))
    with pytest.raises(GalleryError, match=r"^no face at level m\+1 = 0 bounds the window "
                                           r"at level m = -1; gallery is disconnected") as exc:
        root_e(g, 1)
    assert_names(exc, g, 1)


def test_missing_wall_crossing_error_names_the_gallery(monkeypatch, a1_type):
    gamma, real = minimal_gallery(a1_type), gallery._colour
    monkeypatch.setattr(gallery, "_colour", lambda g, i: (
        tuple(None if n == 1 else n for n in real(g, i)[0]), real(g, i)[1]))
    # f's window is e's on the reversed levels, so the two share one message
    with pytest.raises(GalleryError, match=r"^no face at level m\+1 = 1 bounds the window "
                                           r"at level m = 0; gallery is disconnected") as exc:
        root_f(gamma, 1)
    assert_names(exc, gamma, 1)


def test_leaving_the_ls_set_error_names_the_gallery(monkeypatch, a1_type):
    monkeypatch.setattr(gallery, "is_ls", lambda g: False)
    with pytest.raises(GalleryError, match="root_f left the LS set") as exc:
        enumerate_ls(a1_type)
    assert_names(exc, minimal_gallery(a1_type), 1)


def test_node_cap_error_names_the_gallery(monkeypatch, a2_theta_type):
    monkeypatch.setattr(gallery, "NODE_CAP", 2)
    with pytest.raises(GalleryError, match="more than 2 LS nodes") as exc:
        enumerate_ls(a2_theta_type)
    assert_names(exc, minimal_gallery(a2_theta_type), 2)


def test_e_closure_error_names_the_gallery(monkeypatch, a1_type):
    monkeypatch.setattr(gallery, "root_e",
                        lambda g, i, known: Gallery(g.gtype, g.delta0, (False,) * g.gtype.p))
    with pytest.raises(GalleryError, match="not closed under root_e") as exc:
        enumerate_ls(a1_type)
    assert_names(exc, minimal_gallery(a1_type), 1)


def test_e_f_disagreement_error_names_the_gallery(monkeypatch, a1_type):
    monkeypatch.setattr(gallery, "root_e", lambda g, i, known: g)
    with pytest.raises(GalleryError, match="e and f disagree") as exc:
        enumerate_ls(a1_type)
    assert_names(exc, minimal_gallery(a1_type), 1)
