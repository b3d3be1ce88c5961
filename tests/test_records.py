"""The record classes of src/ are plain classes: the same fields, equality
and hashes as the frozen dataclasses they replace, and a cold command that
never imports dataclasses (or inspect, which dataclasses pulls in)."""

import pytest

from mvcrystals.affine import AffineRoot, GalleryType, build_gallery_type
from mvcrystals.crystal import CrystalGraph, StringParam
from mvcrystals.gallery import Gallery, minimal_gallery
from mvcrystals.rootdata import Coweight, Root, build_root_datum
from mvcrystals.trails import ITrail
from mvcrystals.verify import CriterionResult

A2 = build_root_datum("A", 2)
GTYPE = build_gallery_type(A2, Coweight((1, 1)))
LAM = GTYPE.lam

# class -> (field names in declared order, field values)
RECORDS = {
    Root: (("coords",), ((1, -1),)),
    Coweight: (("coords",), ((1, 1),)),
    AffineRoot: (("root", "level"), (Root((1, 1)), 2)),
    GalleryType: (("datum", "lam", "word"), (A2, LAM, GTYPE.word)),
    Gallery: (("gtype", "delta0", "flips"),
              (GTYPE, A2.identity_elt(), (True,) * GTYPE.p)),
    CrystalGraph: (("datum", "nodes", "wt", "f_map", "e_map", "eps", "phi"),
                   (A2, ("b",), {"b": LAM}, {}, {}, {("b", 1): 0}, {("b", 1): 0})),
    StringParam: (("word", "c", "c_tilde"), ((1, 2, 1), (0, 1, 0), (1, -1, 0))),
    ITrail: (("word", "weights", "exponents", "d"),
             ((1,), ((1, 0), (0, 1)), (1,), (0,))),
    CriterionResult: (("cid", "name", "passed", "seconds", "details"),
                      (5, "name", True, 0.5, {"k": 1})),
}
# the records that are compared or hashed, each hashing like its dataclass did
HASHED = [Root, Coweight, AffineRoot, GalleryType]


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_positional_fields_keep_their_order(cls):
    names, values = RECORDS[cls]
    rec = cls(*values)
    assert tuple(getattr(rec, n) for n in names) == values
    if cls is not Gallery:  # its cached properties live in the instance dict
        assert not hasattr(rec, "__dict__")


@pytest.mark.parametrize("cls", HASHED, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_with_the_dataclass_hash(cls):
    values = RECORDS[cls][1]
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert len({a, b}) == 1


def test_a_root_never_equals_a_coweight():
    assert Root((1, 0)) != Coweight((1, 0))
    assert Root((1, 0)).__eq__(Coweight((1, 0))) is NotImplemented
    assert AffineRoot(Root((1, 0)), 0).__eq__((Root((1, 0)), 0)) is NotImplemented


def test_vector_repr_names_the_coordinates():
    # error messages print coweights, so the format is part of the output
    assert repr(Coweight((1, 1))) == "Coweight(coords=(1, 1))"
    assert repr(Root((1, -1))) == "Root(coords=(1, -1))"


def test_gallery_hashes_its_tuple():
    g = Gallery(*RECORDS[Gallery][1])
    assert g == minimal_gallery(GTYPE)
    assert hash(g) == hash((g.delta0, g.flips))


def test_keyword_construction():
    names, values = RECORDS[CrystalGraph]
    graph = CrystalGraph(**dict(zip(names, values)))
    assert graph.node_id("b") == 0 and graph.highest_node() == "b"
    first = CriterionResult(cid=1, name="one", passed=True, seconds=0.0)
    second = CriterionResult(cid=2, name="two", passed=False, seconds=0.0)
    assert first.details == {} and first.details is not second.details
    assert first.to_json_dict() == {"criterion": 1, "name": "one", "passed": True,
                                    "details": {}}


def test_crystal_graph_index_is_not_a_parameter():
    # the node index is built from the nodes; a passed one was silently ignored
    names, values = RECORDS[CrystalGraph]
    with pytest.raises(TypeError):
        CrystalGraph(**dict(zip(names, values)), _index={})


def test_a_cold_command_imports_no_dataclasses(run_python):
    code = (
        "import sys\n"
        "from mvcrystals.cli import main\n"
        "for cmd in (['crystal', '--type', 'A', '--rank', '2', '--lambda', '1,1'],\n"
        "            ['cone', '--type', 'A', '--rank', '2', '--word', '1,2,1'],\n"
        "            ['trop', '--rank', '1', '--word', '1', '--ctilde=-2']):\n"
        "    assert main(cmd) == 0\n"
        "import mvcrystals.verify\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
