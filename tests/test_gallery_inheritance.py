"""Galleries made by root operators, over the crystals benchmark's lambdas,
the verify suite's and every reduced word of criterion 4: their walls, read
off W's tables, must equal the evaluation at their faces' vertices, their root
operators must equal the reference's face surgery with tuple recovery, and the
reference's recovery tripwire and the weight tripwire must still fire on
galleries two or more root operators away from gamma_lambda."""

from functools import cached_property

import pytest

from mvcrystals import gallery, verify
from mvcrystals.affine import AffWeylElt, build_gallery_type, \
    enumerate_affine_reduced_words, identity_aff, minimal_word, simple_affine_reflection
from mvcrystals.gallery import (
    Gallery,
    GalleryError,
    _colour,
    dimension,
    enumerate_ls,
    fold_window,
    min_wall_level,
    minimal_gallery,
    root_e,
    root_f,
)
from mvcrystals.rootdata import Coweight, build_root_datum
from reference import face_walls, ref_movers, ref_phi_plus, ref_recover_tuple, ref_root_e, \
    ref_root_f

# the lambdas of the crystals benchmark workload
CRYSTAL_LAMBDAS = (
    ("A", 2, (1, 1)), ("A", 2, (2, 2)), ("A", 2, (3, 5)),
    ("A", 3, (1, 1, 1)), ("A", 3, (1, 2, 1)),
    ("A", 4, (1, 1, 1, 1)),
    ("B", 2, (2, 1)), ("B", 2, (2, 2)),
    ("B", 3, (1, 2, 1)),
    ("B", 4, (1, 2, 2, 1)),
    ("C", 2, (1, 2)), ("C", 2, (2, 2)),
    ("C", 3, (1, 1, 1)), ("C", 3, (1, 2, 2)),
    ("C", 4, (1, 1, 1, 1)), ("C", 4, (1, 2, 2, 2)),
    ("D", 4, (1, 2, 1, 1)),
    ("G", 2, (1, 2)), ("G", 2, (2, 3)),
)


def gallery_types():
    for series, rank, lam in CRYSTAL_LAMBDAS:
        yield build_gallery_type(build_root_datum(series, rank), Coweight(lam))
    for datum, lam in verify._suite_entries():
        yield build_gallery_type(datum, lam)


def word_types():
    """Every reduced word of w_lambda that criterion 4 enumerates."""
    a2 = build_root_datum("A", 2)
    for coords in ((1, 1), (2, 2)):
        w = identity_aff(a2)
        for i in minimal_word(a2, Coweight(coords)):
            w = w * simple_affine_reflection(a2, i)
        for word in enumerate_affine_reduced_words(a2, w):
            yield build_gallery_type(a2, Coweight(coords), word=word)


def test_closed_form_dimension_is_the_minimal_gallerys():
    # dim gamma_lambda = |Phi_+| + p, against an evaluation of gamma_lambda
    checked = 0
    for gtype in (*gallery_types(), *word_types()):
        assert gtype.dim_gamma == dimension(minimal_gallery(gtype)), gtype
        checked += 1
    assert checked > len(CRYSTAL_LAMBDAS) + 2


def test_edges_end_at_the_node_objects():
    # an f-edge into a node met before stores that node, not an equal copy
    for gtype in gallery_types():
        graph = enumerate_ls(gtype)
        nodes = {id(node) for node in graph.nodes}
        assert all(id(c) in nodes for c in graph.f_map.values())
        assert all(id(b) in nodes and id(c) in nodes for (b, _), c in graph.e_map.items())


def test_wall_rule_matches_the_faces_on_every_node():
    checked = 0
    for gtype in (*gallery_types(), *word_types()):
        for node in enumerate_ls(gtype).nodes:
            levels, counts = face_walls(node)
            assert node.phi_plus_counts == counts, node
            for c, want in levels.items():
                assert _colour(node, c)[0] == want, (node, c)
                assert min_wall_level(node, c) == min(n for n in want if n is not None)
            checked += 1
    assert checked > 600


def test_phi_plus_is_the_vertex_evaluation_on_every_crystals_node():
    # Gallery.phi_plus reads each facet's wall root off W's tables; the same
    # roots in the same order as at the faces' vertices mean cell_point
    # draws its factors as it did from the vertices
    checked = 0
    for series, rank, lam in CRYSTAL_LAMBDAS:
        gtype = build_gallery_type(build_root_datum(series, rank), Coweight(lam))
        for node in enumerate_ls(gtype).nodes:
            assert node.phi_plus == ref_phi_plus(node), node
            checked += 1
    assert checked == 385  # the traced crystals pass's ls_nodes


def deep_nodes(series, rank, lam):
    """The nodes of B(lam) whose first parent in the enumeration is not
    gamma_lambda: neither gamma_lambda nor one of its f-children."""
    graph = enumerate_ls(build_gallery_type(build_root_datum(series, rank), Coweight(lam)))
    start = graph.nodes[0]
    near = {start} | {graph.f_map[key] for key in graph.f_map if key[0] is start}
    return [node for node in graph.nodes if node not in near]


def test_root_operators_are_the_face_surgery():
    # the toggle rule against the reference's movers and tuple recovery on
    # every (node, colour) of the crystals lambdas and the criteria 1-3 suites
    nodes = applied = 0
    for gtype in gallery_types():
        for node in enumerate_ls(gtype).nodes:
            for i in range(1, gtype.datum.rank + 1):
                for op, ref in ((root_e, ref_root_e), (root_f, ref_root_f)):
                    want = ref(node, i)
                    assert op(node, i) == want, (node, i, op.__name__)
                    applied += want is not None
            nodes += 1
    assert (nodes, applied) == (385 + 164, 1384)


def test_recovery_tripwire_fires_on_inherited_galleries():
    # the reference's recovery: a tail translated by 2 alpha_i^vee leaves
    # W_{i_k} at the window's end
    calls = [(node, i, window) for node in deep_nodes("A", 2, (3, 5)) for i in (1, 2)
             if (window := fold_window(node, i)) is not None and window[2] <= node.gtype.p]
    assert len(calls) > 10
    for node, i, (m, j, k) in calls:
        refl, tail = ref_movers(node.gtype.datum, i, m + 1, 1)
        doubled = AffWeylElt(tuple(2 * a for a in tail.mu), tail.finite)
        with pytest.raises(GalleryError, match=r"is not in W_\{i_"):
            ref_recover_tuple(node, i, j, k, refl, doubled)


def test_weight_tripwire_checks_the_recovered_tuple(monkeypatch):
    # the child's weight comes from its own tuple, not from the rule: a rule
    # that also toggles the last step is caught by the weight alone
    calls = [(node, i) for node in deep_nodes("G", 2, (2, 3)) for i in (1, 2)
             if root_f(node, i) is not None]
    assert len(calls) > 10
    real = gallery._surgery

    def last_step_toggled(g, i, j, k):
        out = real(g, i, j, k)
        return Gallery(out.gtype, out.delta0, out.flips[:-1] + (not out.flips[-1],))

    monkeypatch.setattr(gallery, "_surgery", last_step_toggled)
    for node, i in calls:
        with pytest.raises(GalleryError, match="moved the weight"):
            root_f(node, i)


def test_enumeration_builds_each_nodes_prefixes_once(monkeypatch):
    # a root operator's result equal to a node already found is that node, so
    # the closure checks and the copies of known nodes build no prefixes
    built, real = [], Gallery.__dict__["prefixes"].func
    counted = cached_property(lambda g: built.append(g) or real(g))
    counted.__set_name__(Gallery, "prefixes")
    monkeypatch.setattr(Gallery, "prefixes", counted)
    for datum, lam in verify._suite_entries():
        gtype = build_gallery_type(datum, lam)
        built.clear()
        nodes = enumerate_ls(gtype).nodes
        assert len(built) == len(nodes) and set(built) == set(nodes), (datum, lam)


def test_weight_tripwire_checks_a_known_result(monkeypatch):
    # a rule that sends every root operator off gamma_lambda's children back
    # to gamma_lambda returns a known node, whose weight is still checked
    real = gallery._surgery

    def back_to_gamma(g, i, j, k):
        gamma = minimal_gallery(g.gtype)
        return real(g, i, j, k) if g == gamma else gamma

    monkeypatch.setattr(gallery, "_surgery", back_to_gamma)
    gtype = build_gallery_type(build_root_datum("A", 2), Coweight((1, 1)))
    with pytest.raises(GalleryError, match="moved the weight"):
        enumerate_ls(gtype)
