import pytest

from mvcrystals.affine import build_gallery_type
from mvcrystals.gallery import enumerate_ls, root_e
from mvcrystals.looplab import LoopGroup
from mvcrystals.rootdata import Coweight, build_root_datum
from stabwork import prop_inclusion_coset_check

A2 = build_root_datum("A", 2)
G2 = LoopGroup(A2)


@pytest.mark.parametrize("coords,seed", [((1, 1), 7), ((2, 1), 11)])
def test_inclusion_coset_identity(coords, seed):
    graph = enumerate_ls(build_gallery_type(A2, Coweight(coords)))
    ran = 0
    for node in graph.nodes:
        for i in (1, 2):
            if root_e(node, i) is None:
                continue
            assert prop_inclusion_coset_check(G2, node, i, seed=seed), \
                (coords, graph.node_id(node), i)
            ran += 1
    assert ran > 0
