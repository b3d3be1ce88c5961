"""Galleries made by root operators, over the crystals benchmark's lambdas,
the verify suite's and every reduced word of criterion 4: their walls, read
off W's tables, must equal the evaluation at their faces' vertices, and the
recovery and weight tripwires must still fire on galleries two or more root
operators away from gamma_lambda."""

import pytest

from mvcrystals import gallery, verify
from mvcrystals.affine import AffWeylElt, build_gallery_type, \
    enumerate_affine_reduced_words, identity_aff, minimal_word, simple_affine_reflection
from mvcrystals.gallery import (
    Gallery,
    GalleryError,
    _levels,
    dimension,
    enumerate_ls,
    fold_window,
    min_wall_level,
    minimal_gallery,
    root_e,
    root_f,
)
from mvcrystals.rootdata import Coweight, build_root_datum
from reference import face_walls, ref_phi_plus

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
                assert _levels(node, c) == want, (node, c)
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


def test_recovery_tripwire_fires_on_inherited_galleries(monkeypatch):
    # a tail translated by 2 alpha_i^vee leaves W_{i_k} at the window's end
    calls = [(node, i) for node in deep_nodes("A", 2, (3, 5)) for i in (1, 2)
             if (window := fold_window(node, i)) is not None and window[2] <= node.gtype.p]
    assert len(calls) > 10
    real = gallery._recover_tuple

    def doubled_tail(g, i, j, k, refl, tail):
        return real(g, i, j, k, refl, AffWeylElt(tuple(2 * a for a in tail.mu), tail.finite))

    monkeypatch.setattr(gallery, "_recover_tuple", doubled_tail)
    for node, i in calls:
        with pytest.raises(GalleryError, match=r"is not in W_\{i_"):
            root_e(node, i)


def test_weight_tripwire_checks_the_recovered_tuple(monkeypatch):
    # the child's weight comes from its recovered tuple, not from the movers:
    # a recovery that toggles the last step is caught by the weight alone
    calls = [(node, i) for node in deep_nodes("G", 2, (2, 3)) for i in (1, 2)
             if root_f(node, i) is not None]
    assert len(calls) > 10
    real = gallery._recover_tuple

    def last_step_toggled(g, i, j, k, refl, tail):
        out = real(g, i, j, k, refl, tail)
        return Gallery(out.gtype, out.delta0, out.flips[:-1] + (not out.flips[-1],))

    monkeypatch.setattr(gallery, "_recover_tuple", last_step_toggled)
    for node, i in calls:
        with pytest.raises(GalleryError, match="moved the weight"):
            root_f(node, i)
