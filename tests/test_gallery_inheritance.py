"""A root operator's child reads its alcoves, |Phi_+^aff| counts and wall
levels off its parent outside the reflected window.  They must equal what a
gallery built from the same tuple evaluates from scratch, and the recovery
and weight tripwires must still fire on inherited galleries."""

import pytest

from mvcrystals import gallery, verify
from mvcrystals.affine import build_gallery_type, enumerate_affine_reduced_words, \
    identity_aff, minimal_word, simple_affine_reflection
from mvcrystals.gallery import (
    Gallery,
    GalleryError,
    _levels,
    dimension,
    enumerate_ls,
    fold_window,
    minimal_gallery,
    root_e,
    root_f,
)
from mvcrystals.rootdata import Coweight, build_root_datum

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


def test_inherited_geometry_equals_fresh_geometry(monkeypatch):
    calls = []
    real = gallery.face_vertices
    monkeypatch.setattr(gallery, "face_vertices", lambda *args: calls.append(args) or real(*args))
    enumerated = fresh_calls = 0
    for gtype in gallery_types():
        calls.clear()
        nodes = enumerate_ls(gtype).nodes
        enumerated += len(calls)
        # every node but gamma_lambda was made by root_f from its parent
        assert [node._parent is None for node in nodes] == [True] + [False] * (len(nodes) - 1)
        calls.clear()
        for node in nodes:
            fresh = Gallery(gtype, node.delta0, node.flips)
            assert node.alcoves == fresh.alcoves
            assert node.phi_plus_counts == fresh.phi_plus_counts
            assert sorted(node._wall_levels) == list(range(1, gtype.datum.rank + 1))
            for i, levels in node._wall_levels.items():
                assert levels == _levels(fresh, i), (node, i)
        fresh_calls += len(calls)
    # the whole enumeration, discarded galleries included, evaluates fewer
    # alcoves than the nodes alone would from scratch
    assert 3 * enumerated < 2 * fresh_calls


def inherited_nodes(series, rank, lam):
    """The nodes of B(lam) whose parent was made by a root operator too."""
    nodes = enumerate_ls(build_gallery_type(build_root_datum(series, rank), Coweight(lam))).nodes
    return [node for node in nodes if node._parent and node._parent[0]._parent]


def test_recovery_tripwire_fires_on_inherited_galleries(monkeypatch):
    # a tail translated by 2 alpha_i^vee leaves W_{i_k} at the window's end
    calls = [(node, i) for node in inherited_nodes("A", 2, (3, 5)) for i in (1, 2)
             if (window := fold_window(node, i)) is not None and window[2] <= node.gtype.p]
    assert len(calls) > 10
    real = gallery.translation
    monkeypatch.setattr(gallery, "translation", lambda datum, mu: real(datum, mu.scale(2)))
    for node, i in calls:
        with pytest.raises(GalleryError, match=r"is not in W_\{i_"):
            root_e(node, i)


def test_weight_tripwire_checks_the_recovered_tuple(monkeypatch):
    # the child's weight comes from its recovered tuple, not from the movers:
    # a recovery that toggles the last step is caught by the weight alone
    calls = [(node, i) for node in inherited_nodes("G", 2, (2, 3)) for i in (1, 2)
             if root_f(node, i) is not None]
    assert len(calls) > 10
    real = gallery._recover_tuple

    def last_step_toggled(g, movers, i):
        out = real(g, movers, i)
        return Gallery(out.gtype, out.delta0, out.flips[:-1] + (not out.flips[-1],))

    monkeypatch.setattr(gallery, "_recover_tuple", last_step_toggled)
    for node, i in calls:
        with pytest.raises(GalleryError, match="moved the weight"):
            root_f(node, i)
