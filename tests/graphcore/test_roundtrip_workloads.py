"""Property suite: the full compact pipeline is the identity on every
builtin workload.

For each registered (non-xl) workload — scale family size-reduced through
its declared parameters, like the invariant-fuzz suite — the chain

    from_networkx -> save -> load(mmap=True) -> to_networkx

must reproduce the original graph exactly (nodes, edges, labels, node
attributes: ``nx.utils.graphs_equal``), and every representation along
the way must agree on the content digest. The xl family is compact-native
(no nx original to compare against); its size-reduced instances round-trip
through the file format instead.
"""

import networkx as nx
import pytest

from repro import workloads
from repro.graphcore import CompactGraph, load, save

#: Scale workloads at interactive sizes (same generators, smaller n).
_REDUCED = {
    "scale-regular": {"n": 64, "d": 4},
    "scale-power-law": {"n": 64, "attach": 2},
    "scale-forest-stack": {"n_centers": 6, "leaves_per_center": 9, "a": 2},
    "scale-grid": {"rows": 8, "cols": 8},
}

_NX_WORKLOADS = [s.name for s in workloads.specs() if not s.compact]
_XL_WORKLOADS = [s.name for s in workloads.specs() if s.compact]

_XL_REDUCED = {
    "xl-regular": {"n": 256, "d": 8},
    "xl-power-law": {"n": 256, "attach": 3},
    "xl-forest-stack": {"n_centers": 8, "leaves_per_center": 12, "a": 2},
    "xl-grid": {"rows": 16, "cols": 16},
}


class TestRoundTripIsIdentity:
    @pytest.mark.parametrize("name", _NX_WORKLOADS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_nx_workload_round_trips(self, name, seed, tmp_path):
        original = workloads.build(name, _REDUCED.get(name), seed=seed)
        compact = CompactGraph.from_networkx(original)
        path = tmp_path / "w.csrg"
        digest = save(compact, path)
        mapped = load(path, mmap=True)
        assert mapped.digest() == digest == compact.digest()
        restored = mapped.to_networkx()
        assert nx.utils.graphs_equal(restored, original)
        # and the restored graph interns back to the same content address
        assert CompactGraph.from_networkx(restored).digest() == digest

    @pytest.mark.parametrize("name", _XL_WORKLOADS)
    def test_xl_workload_round_trips(self, name, tmp_path):
        compact = workloads.build(name, _XL_REDUCED[name], seed=0)
        path = tmp_path / "w.csrg"
        digest = save(compact, path)
        for mmap in (False, True):
            again = load(path, mmap=mmap)
            assert again.digest() == digest
            assert nx.utils.graphs_equal(again.to_networkx(), compact.to_networkx())

    def test_catalogue_is_complete(self):
        # the suite above covers every registered builtin workload
        assert len(_NX_WORKLOADS) == 22
        assert set(_XL_WORKLOADS) == set(_XL_REDUCED)
