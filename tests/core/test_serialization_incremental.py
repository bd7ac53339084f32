"""Tests for chain serialization and the incremental-cache hook."""

import json

import pytest

from repro.circuits.generators import cascade, random_single_output
from repro.core import ChainComputer, dominator_chain
from repro.errors import ChainConstructionError
from repro.graph import IndexedGraph


def _graph(circuit):
    return IndexedGraph.from_circuit(circuit, circuit.outputs[0])


class TestSerialization:
    def test_roundtrip_through_json(self, fig2_graph):
        from repro.core.chain import DominatorChain

        chain = dominator_chain(fig2_graph, fig2_graph.index_of("u"))
        blob = json.dumps(chain.to_dict())
        restored = DominatorChain.from_dict(json.loads(blob))
        assert restored.target == chain.target
        assert restored.pair_set() == chain.pair_set()
        for v in chain.vertices():
            assert restored.index(v) == chain.index(v)
            assert restored.flag(v) == chain.flag(v)
            assert restored.interval(v) == chain.interval(v)

    def test_tampered_payload_revalidated(self, fig2_graph):
        from repro.core.chain import DominatorChain

        chain = dominator_chain(fig2_graph, fig2_graph.index_of("u"))
        data = chain.to_dict()
        first_vertex = data["pairs"][0]["side1"][0]
        data["intervals"][str(first_vertex)] = [1, 999]
        with pytest.raises(ChainConstructionError):
            DominatorChain.from_dict(data)

    def test_empty_chain_roundtrip(self, fig2_graph):
        from repro.core.chain import DominatorChain

        chain = dominator_chain(fig2_graph, fig2_graph.root)
        restored = DominatorChain.from_dict(chain.to_dict())
        assert not restored


class TestInvalidate:
    def test_eviction_counts(self):
        graph = _graph(cascade(depth=12, num_inputs=4, num_outputs=1))
        computer = ChainComputer(graph)
        for u in graph.sources():
            computer.chain(u)
        before = len(computer.region_cache.pairs_by_start())
        assert before > 0
        chain = computer.chain(graph.sources()[0])
        some_vertex = next(iter(chain.vertices()))
        evicted = computer.invalidate([some_vertex])
        assert evicted >= 1
        assert len(computer.region_cache.pairs_by_start()) == before - evicted

    def test_results_identical_after_invalidate(self):
        graph = _graph(random_single_output(5, 40, seed=21))
        computer = ChainComputer(graph)
        reference = {
            u: computer.chain(u).pair_set() for u in graph.sources()
        }
        computer.invalidate(range(graph.n))  # drop everything
        assert computer.region_cache.pairs_by_start() == {}
        for u in graph.sources():
            assert computer.chain(u).pair_set() == reference[u]

    def test_invalidate_untouched_is_noop(self):
        graph = _graph(cascade(depth=8, num_inputs=4, num_outputs=1))
        computer = ChainComputer(graph)
        for u in graph.sources():
            computer.chain(u)
        assert computer.invalidate([]) == 0
