"""Unit tests for the shared cone index building blocks.

The end-to-end backend equivalence lives in
``tests/property/test_differential.py``; these tests pin the individual
pieces — the topological single-pass dominator engine, both
:class:`RegionMatcher` engines against the reference SNCA, and the
extracted region views against the ``region_between`` subgraph builder.
"""

import random

import pytest

from repro.circuits.generators import random_single_output
from repro.dominators import dsu
from repro.dominators.lengauer_tarjan import UNREACHABLE
from repro.dominators.shared import (
    BACKENDS,
    RegionMatcher,
    RegionView,
    SharedConeIndex,
    topo_cone_idoms,
    validate_backend,
)
from repro.dominators.single import circuit_dominator_tree
from repro.errors import ChainConstructionError, CircuitError
from repro.graph import IndexedGraph, NodeType
from repro.graph.circuit import Circuit
from repro.graph.transform import region_between


def _graph(seed, gates=25):
    circuit = random_single_output(4, gates, seed=seed)
    return IndexedGraph.from_circuit(circuit, circuit.outputs[0])


class TestValidateBackend:
    def test_accepts_known(self):
        assert BACKENDS == ("shared", "linear")
        for backend in BACKENDS:
            assert validate_backend(backend) == backend

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            validate_backend("turbo")

    def test_removed_legacy_backend_rejected_everywhere(self):
        from repro.core.algorithm import ChainComputer
        from repro.daemon.service import ServiceConfig
        from repro.incremental import IncrementalEngine
        from repro.service import ExecutorConfig

        graph = _graph(0)
        with pytest.raises(ValueError, match="legacy"):
            validate_backend("legacy")
        with pytest.raises(ValueError, match="legacy"):
            ChainComputer(graph, backend="legacy")
        with pytest.raises(ValueError, match="legacy"):
            ExecutorConfig(backend="legacy")
        with pytest.raises(ValueError, match="legacy"):
            IncrementalEngine(graph, backend="legacy")
        with pytest.raises(ValueError, match="legacy"):
            ServiceConfig(backend="legacy")


class TestTopoConeIdoms:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_full_algorithm_on_cones(self, seed):
        graph = _graph(seed)
        idoms = topo_cone_idoms(graph)
        # from_circuit numbers cones topologically with the root last,
        # so the single-pass engine must engage (a silent None here
        # would mean the fast path never runs in production).
        assert idoms is not None
        assert idoms == circuit_dominator_tree(graph).idom

    def test_none_when_root_not_last(self):
        g = IndexedGraph([[], [0]], root=0)
        assert topo_cone_idoms(g) is None

    def test_none_on_descending_edge(self):
        # 1 -> 0 -> 2 is a fine DAG but not in ascending id order.
        g = IndexedGraph([[2], [0], []], root=2)
        assert topo_cone_idoms(g) is None

    def test_none_when_vertex_misses_root(self):
        # Vertex 1 has no fanout: not a cone, fall back to the full
        # algorithm (which tolerates unreachable vertices).
        g = IndexedGraph([[2], [], []], root=2)
        assert topo_cone_idoms(g) is None


def _reference_vector(region, excl, w_start):
    """Matching vector via the reference SNCA on the region's arrays."""
    idoms = dsu.compute_idoms(
        region.n, region.pred, region.root, pred=region.succ, exclude=excl
    )
    if idoms[w_start] == UNREACHABLE:
        return None
    out = []
    x = w_start
    while x != region.root:
        out.append(x)
        x = idoms[x]
    return out


def _shuffle_region(region, rng):
    """The same region under a random id permutation (breaks topo order)."""
    perm = list(range(region.n))
    rng.shuffle(perm)
    succ = [[] for _ in range(region.n)]
    for v, ws in enumerate(region.succ):
        for w in ws:
            succ[perm[v]].append(perm[w])
    return RegionView(succ, root=perm[region.root]), perm


def _regions_of(graph):
    """Every nontrivial search region along every PI's idom chain."""
    index = SharedConeIndex.for_graph(graph, "lt")
    tree = index.tree
    out = []
    seen = set()
    for u in graph.sources():
        chain = tree.chain(u)
        for start, sink in zip(chain, chain[1:]):
            if (start, sink) in seen:
                continue
            seen.add((start, sink))
            view, _, local_start = index.extract_region(start, sink)
            if view.n > 2:
                out.append((view, local_start))
    return out


class TestRegionMatcher:
    @pytest.mark.parametrize("seed", range(6))
    def test_topo_engine_matches_reference(self, seed):
        for view, local_start in _regions_of(_graph(seed)):
            matcher = RegionMatcher(view)
            assert matcher._topo  # extracted regions keep ascending ids
            self._check_all_queries(view, matcher)

    @pytest.mark.parametrize("seed", range(6))
    def test_snca_fallback_matches_reference(self, seed):
        rng = random.Random(f"shared-region:{seed}")
        for view, _ in _regions_of(_graph(seed)):
            shuffled, _ = _shuffle_region(view, rng)
            matcher = RegionMatcher(shuffled)
            self._check_all_queries(shuffled, matcher)

    @staticmethod
    def _check_all_queries(view, matcher):
        for excl in range(view.n):
            if excl == view.root:
                continue
            for w_start in range(view.n):
                if w_start in (excl, view.root):
                    continue
                expected = _reference_vector(view, excl, w_start)
                if expected is None:
                    with pytest.raises(ChainConstructionError):
                        matcher.matching_vector(excl, w_start)
                else:
                    got = matcher.matching_vector(excl, w_start)
                    assert got == expected, (excl, w_start)


class TestForGraphCache:
    """Regression: the per-graph index cache used to hold a single slot
    keyed only by version, so interleaving two configurations — exactly
    what the differential oracle and mixed service queries do — rebuilt
    the index (tree, scratch arrays and all) on every call."""

    def test_identity_across_interleaved_configs(self):
        graph = _graph(0)
        first_lt = SharedConeIndex.for_graph(graph, "lt")
        first_it = SharedConeIndex.for_graph(graph, "iterative")
        # Interleave the two configurations; both must keep returning
        # the exact same object, not a rebuild.
        for _ in range(3):
            assert SharedConeIndex.for_graph(graph, "lt") is first_lt
            assert (
                SharedConeIndex.for_graph(graph, "iterative") is first_it
            )
        assert first_lt is not first_it

    def test_interleaved_kernels_keys(self):
        pytest.importorskip("numpy")
        graph = _graph(1)
        py = SharedConeIndex.for_graph(graph, "lt", kernels="python")
        np_ = SharedConeIndex.for_graph(graph, "lt", kernels="numpy")
        assert py is not np_
        for _ in range(3):
            assert (
                SharedConeIndex.for_graph(graph, "lt", kernels="python")
                is py
            )
            assert (
                SharedConeIndex.for_graph(graph, "lt", kernels="numpy")
                is np_
            )

    def test_version_bump_drops_whole_cache(self):
        graph = _graph(2)
        stale = SharedConeIndex.for_graph(graph, "lt")
        graph.version += 1
        fresh = SharedConeIndex.for_graph(graph, "lt")
        assert fresh is not stale
        assert SharedConeIndex.for_graph(graph, "lt") is fresh

    def test_tolerates_external_reset(self):
        # bench harnesses cold-start by assigning the legacy None.
        graph = _graph(3)
        first = SharedConeIndex.for_graph(graph, "lt")
        graph._shared_index = None
        second = SharedConeIndex.for_graph(graph, "lt")
        assert second is not first
        assert SharedConeIndex.for_graph(graph, "lt") is second


class TestExtractRegionErrors:
    def test_same_vertex_is_a_distinct_error(self):
        graph = _graph(0)
        index = SharedConeIndex.for_graph(graph, "lt")
        with pytest.raises(CircuitError, match="same vertex"):
            index.extract_region(graph.root, graph.root)

    def test_unreachable_sink_keeps_its_message(self):
        # Two parallel branches: ``g1`` never reaches ``g2``.
        c = Circuit("parallel")
        a, b = c.add_input("a"), c.add_input("b")
        c.add_gate("g1", NodeType.AND, [a, b])
        c.add_gate("g2", NodeType.OR, [b, a])
        c.add_gate("root", NodeType.XOR, ["g1", "g2"])
        c.set_outputs(["root"])
        graph = IndexedGraph.from_circuit(c)
        index = SharedConeIndex.for_graph(graph)
        g1, g2 = graph.index_of("g1"), graph.index_of("g2")
        lo, hi = min(g1, g2), max(g1, g2)
        with pytest.raises(CircuitError, match="not reachable"):
            index.extract_region(lo, hi)


class TestExtractRegion:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_legacy_region_between(self, seed):
        graph = _graph(seed)
        index = SharedConeIndex.for_graph(graph, "lt")
        tree = index.tree
        for u in graph.sources():
            chain = tree.chain(u)
            for start, sink in zip(chain, chain[1:]):
                view, orig_of, local_start = index.extract_region(
                    start, sink
                )
                sub, legacy_orig = region_between(graph, start, sink)
                assert orig_of == legacy_orig
                assert view.n == sub.n
                assert view.root == sub.root
                assert orig_of[local_start] == start
                for v in range(view.n):
                    assert sorted(view.succ[v]) == sorted(sub.succ[v])
                    assert sorted(view.pred[v]) == sorted(sub.pred[v])
