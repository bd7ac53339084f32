"""Property tests: ``kernels="numpy"`` chains are bit-identical.

The numpy kernels recompute the shared-backend hot path — region
extraction, the size-two cut, matching vectors — over level-order flat
arrays, so the property worth asserting is not "same pair sets" but
*bit identity*: identical pair vectors and identical per-vertex
intervals (via :func:`diff_chains`) against the pure-python path on
both construction backends, plus pair-for-pair agreement with the
baseline algorithm [11].  ``forced_region_threshold(0)`` pushes
every region — however tiny — through the kernels; without it the
fuzzed circuits here would all fall below ``MIN_KERNEL_REGION`` and
the property would silently test nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import diff_chains
from repro.core.algorithm import ChainComputer
from repro.core.baseline import baseline_double_dominators
from repro.dominators.kernels import (
    forced_region_threshold,
    numpy_available,
)
from repro.graph import IndexedGraph, NodeType
from repro.graph.circuit import Circuit

from .strategies import small_circuits

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

_MULTI_INPUT_GATES = [
    NodeType.AND,
    NodeType.OR,
    NodeType.NAND,
    NodeType.NOR,
    NodeType.XOR,
    NodeType.XNOR,
]

#: Every python-path backend the kernels must reproduce bit-for-bit;
#: each is run with the numpy kernels too.
_BACKENDS = ("shared", "linear")


def _assert_kernel_identity(graph):
    kernel = {
        backend: ChainComputer(graph, backend=backend, kernels="numpy")
        for backend in _BACKENDS
    }
    baseline = baseline_double_dominators(graph)
    with forced_region_threshold(0):
        for u in graph.sources():
            chains = {b: c.chain(u) for b, c in kernel.items()}
            for backend, chain in chains.items():
                assert chain.pair_set() == baseline[u], (
                    f"target {u}: numpy/{backend} vs baseline [11]"
                )
            for reference in _BACKENDS:
                expected = ChainComputer(
                    graph, backend=reference, kernels="python"
                ).chain(u)
                for backend, chain in chains.items():
                    divergence = diff_chains(expected, chain)
                    assert divergence is None, (
                        f"target {u}: numpy/{backend} vs "
                        f"python/{reference}: {divergence}"
                    )


class TestKernelEquivalence:
    @given(small_circuits())
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_across_backends(self, circuit):
        for out in circuit.outputs:
            _assert_kernel_identity(IndexedGraph.from_circuit(circuit, out))

    @given(st.integers(2, 5), st.sampled_from(_MULTI_INPUT_GATES))
    def test_single_gate_cone(self, arity, gate):
        # One gate, no interior vertices: the kernel path must agree
        # that every PI's chain is empty, through the same dispatch.
        c = Circuit("one_gate_kernels")
        fanins = [c.add_input(f"i{k}") for k in range(arity)]
        c.add_gate("g", gate, fanins)
        c.set_outputs(["g"])
        graph = IndexedGraph.from_circuit(c)
        computer = ChainComputer(graph, backend="shared", kernels="numpy")
        with forced_region_threshold(0):
            for u in graph.sources():
                assert computer.chain(u).pair_set() == set()
        _assert_kernel_identity(graph)

    def test_straddling_pair_boundaries(self):
        # Two stacked diamonds through single dominator ``s``: one pair
        # per region, straddling the region boundary — the shape where
        # per-region offset bookkeeping goes wrong first.
        c = Circuit("straddle_kernels")
        u = c.add_input("u")
        c.add_gate("a", NodeType.BUF, [u])
        c.add_gate("c", NodeType.NOT, [u])
        c.add_gate("s", NodeType.AND, ["a", "c"])
        c.add_gate("b", NodeType.BUF, ["s"])
        c.add_gate("d", NodeType.NOT, ["s"])
        c.add_gate("root", NodeType.OR, ["b", "d"])
        c.set_outputs(["root"])
        graph = IndexedGraph.from_circuit(c)
        target = graph.index_of("u")
        expected = {
            frozenset({graph.index_of("a"), graph.index_of("c")}),
            frozenset({graph.index_of("b"), graph.index_of("d")}),
        }
        computer = ChainComputer(graph, backend="shared", kernels="numpy")
        with forced_region_threshold(0):
            assert computer.chain(target).pair_set() == expected
        _assert_kernel_identity(graph)
