"""Unit tests for the numpy kernels behind ``kernels="numpy"``.

Each kernel is pinned against its pure-python counterpart on the same
regions: extraction against ``SharedConeIndex.extract_region``, the
flow kernel against :class:`RegionCutSolver`, the bitset matcher
against :class:`RegionMatcher`, and the guarded tree pass against the
plain topological sweep.  End-to-end bit-identity across random
netlists lives in ``tests/property/test_kernel_equivalence.py``; the
checks here are the component-level ones plus the dispatch gates
(region threshold, byte cap, numpy-less fallback).
"""

import pytest

from repro.check import diff_chains
from repro.circuits.generators import mixing_pipeline, random_single_output
from repro.core.algorithm import ChainComputer
from repro.dominators import kernels as kernels_mod
from repro.dominators.kernels import (
    KERNELS,
    KernelConeIndex,
    KernelRegionMatcher,
    counting_vector,
    forced_region_threshold,
    guarded_cone_idoms,
    kernel_expand_region,
    kernel_min_cut,
    numpy_available,
    require_numpy,
    validate_kernels,
)
from repro.dominators.shared import (
    RegionMatcher,
    SharedConeIndex,
    topo_cone_idoms,
)
from repro.errors import (
    ChainConstructionError,
    CircuitError,
    FlowError,
)
from repro.flow.vertex_cut import RegionCutSolver
from repro.graph import IndexedGraph, NodeType
from repro.graph.circuit import Circuit

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


def _graph(seed, gates=25):
    circuit = random_single_output(4, gates, seed=seed)
    return IndexedGraph.from_circuit(circuit, circuit.outputs[0])


def _pipe_graph(stages=3, width=6, seed=3):
    circuit = mixing_pipeline(stages, width, seed=seed)
    return IndexedGraph.from_circuit(circuit, circuit.outputs[0])


def _chain_regions(graph):
    """Every distinct (start, sink) region along every PI's idom chain."""
    index = SharedConeIndex.for_graph(graph, "lt")
    seen = set()
    for u in graph.sources():
        chain = index.tree.chain(u)
        seen.update(zip(chain, chain[1:]))
    return index, sorted(seen)


class TestValidateKernels:
    def test_accepts_known(self):
        for kernels in KERNELS:
            assert validate_kernels(kernels) == kernels

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernels"):
            validate_kernels("cupy")


class TestForcedThreshold:
    def test_overrides_and_restores(self):
        before = kernels_mod.MIN_KERNEL_REGION
        with forced_region_threshold(0):
            assert kernels_mod.MIN_KERNEL_REGION == 0
        assert kernels_mod.MIN_KERNEL_REGION == before

    def test_restores_on_exception(self):
        before = kernels_mod.MIN_KERNEL_REGION
        with pytest.raises(RuntimeError):
            with forced_region_threshold(7):
                raise RuntimeError("boom")
        assert kernels_mod.MIN_KERNEL_REGION == before


class TestNumpyGate:
    def test_available_has_no_gate(self):
        if numpy_available():
            require_numpy()  # must not raise

    def test_require_raises_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels_mod, "_np", None)
        assert not numpy_available()
        with pytest.raises(CircuitError, match="numpy is not installed"):
            require_numpy()
        # The selector itself stays usable for the python fallback.
        assert validate_kernels("python") == "python"

    def test_chain_computer_rejects_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels_mod, "_np", None)
        with pytest.raises(CircuitError, match="numpy is not installed"):
            ChainComputer(_graph(0), kernels="numpy")

    @needs_numpy
    def test_numpy_kernels_need_shared_index(self):
        graph = _graph(0)
        with pytest.raises(ValueError, match="shared cone index"):
            ChainComputer(
                graph,
                backend="shared",
                shared_index=False,
                tree=ChainComputer(graph).tree,
                kernels="numpy",
            )


class TestGuardedConeIdoms:
    # Pure python: these run (and must pass) with or without numpy.

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_topo_sweep(self, seed):
        graph = _graph(seed)
        assert guarded_cone_idoms(graph) == topo_cone_idoms(graph)

    @pytest.mark.parametrize("seed", range(8))
    def test_snca_fallback_same_idoms(self, seed):
        # budget_factor=0 exhausts the budget on the first NCA step, so
        # any graph with a reconvergence goes through the SNCA escape;
        # the idoms must not change (they are unique).
        graph = _graph(seed)
        assert guarded_cone_idoms(graph, budget_factor=0) == (
            topo_cone_idoms(graph)
        )

    def test_none_when_root_not_last(self):
        g = IndexedGraph([[], [0]], root=0)
        assert guarded_cone_idoms(g) is None

    def test_none_on_descending_edge(self):
        g = IndexedGraph([[2], [0], []], root=2)
        assert guarded_cone_idoms(g) is None

    def test_none_when_vertex_misses_root(self):
        g = IndexedGraph([[2], [], []], root=2)
        assert guarded_cone_idoms(g) is None


@needs_numpy
class TestKernelConeIndex:
    @pytest.mark.parametrize("seed", range(6))
    def test_extract_matches_python_members(self, seed):
        graph = _graph(seed)
        index, regions = _chain_regions(graph)
        kindex = KernelConeIndex(graph)
        for start, sink in regions:
            _, orig_of, _ = index.extract_region(start, sink)
            pmem = kindex.extract(start, sink)
            assert pmem is not None
            members = sorted(int(kindex.P[p]) for p in pmem)
            assert members == orig_of, (start, sink)
            assert kindex.window(start, sink) >= len(members)

    def test_extract_matches_on_wide_regions(self):
        graph = _pipe_graph()
        index, regions = _chain_regions(graph)
        kindex = KernelConeIndex(graph)
        assert regions, "pipeline must produce chain regions"
        for start, sink in regions:
            _, orig_of, _ = index.extract_region(start, sink)
            region = kindex.region(start, sink)
            assert region is not None
            assert region.members_sorted() == orig_of

    def test_extract_none_when_sink_unreachable(self):
        # Two parallel branches: input ``a`` never reaches gate ``g2``.
        c = Circuit("parallel")
        a, b = c.add_input("a"), c.add_input("b")
        c.add_gate("g1", NodeType.AND, [a, b])
        c.add_gate("g2", NodeType.OR, [b, a])
        c.add_gate("root", NodeType.XOR, ["g1", "g2"])
        c.set_outputs(["root"])
        graph = IndexedGraph.from_circuit(c)
        kindex = KernelConeIndex(graph)
        g1, g2 = graph.index_of("g1"), graph.index_of("g2")
        lo, hi = min(g1, g2), max(g1, g2)
        assert kindex.extract(lo, hi) is None
        assert kindex.region(lo, hi) is None

    def test_bitset_bytes_formula(self):
        graph = _pipe_graph(stages=2, width=5)
        kindex = KernelConeIndex(graph)
        _, regions = _chain_regions(graph)
        for start, sink in regions:
            region = kindex.region(start, sink)
            if region is None:
                continue
            words = (region.r + 63) // 64
            assert region.bitset_bytes() == (region.r + 1) * words * 8


@needs_numpy
class TestKernelMinCut:
    def _region_pairs(self, graph):
        """(python view + solver inputs, kernel region) per chain region."""
        index, regions = _chain_regions(graph)
        kindex = KernelConeIndex(graph)
        for start, sink in regions:
            view, orig_of, local_start = index.extract_region(start, sink)
            if view.n <= 2:
                continue
            region = kindex.region(start, sink)
            assert region is not None
            yield view, orig_of, local_start, region, start

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_region_cut_solver(self, seed):
        for view, orig_of, local_start, region, start in self._region_pairs(
            _graph(seed)
        ):
            solver = RegionCutSolver(view, limit=3)
            expected = solver.min_cut([local_start])
            flow, cut = kernel_min_cut(region, [region.local_of[start]])
            assert flow == expected.flow
            if expected.cut is None:
                assert cut is None
            else:
                got = sorted(int(region.cone_ids[x]) for x in cut)
                assert got == [orig_of[x] for x in expected.cut]

    def test_matches_on_wide_regions(self):
        count = 0
        for view, orig_of, local_start, region, start in self._region_pairs(
            _pipe_graph()
        ):
            expected = RegionCutSolver(view, limit=3).min_cut([local_start])
            flow, cut = kernel_min_cut(region, [region.local_of[start]])
            assert flow == expected.flow
            if cut is not None:
                got = sorted(int(region.cone_ids[x]) for x in cut)
                assert got == [orig_of[x] for x in expected.cut]
                count += 1
        assert count, "pipeline regions must contain size-two cuts"

    def test_rejects_empty_sources(self):
        graph = _pipe_graph(stages=1, width=4)
        _, regions = _chain_regions(graph)
        region = KernelConeIndex(graph).region(*regions[0])
        with pytest.raises(FlowError, match="at least one source"):
            kernel_min_cut(region, [])

    def test_rejects_root_source(self):
        graph = _pipe_graph(stages=1, width=4)
        _, regions = _chain_regions(graph)
        region = KernelConeIndex(graph).region(*regions[0])
        with pytest.raises(FlowError, match="cannot be a flow source"):
            kernel_min_cut(region, [region.r - 1])


@needs_numpy
class TestKernelMatcher:
    # ``switch`` pins the adaptive matcher to one engine for every
    # query: a huge threshold keeps it on the counting engine, 1
    # graduates every exclusion to the bitset table immediately.
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "switch", [10**9, 1], ids=["counting", "bitset"]
    )
    def test_matches_python_matcher(self, seed, switch):
        graph = _graph(seed)
        index, regions = _chain_regions(graph)
        kindex = KernelConeIndex(graph)
        for start, sink in regions:
            view, orig_of, _ = index.extract_region(start, sink)
            if view.n <= 2:
                continue
            region = kindex.region(start, sink)
            python = RegionMatcher(view)
            kernel = KernelRegionMatcher(region)
            kernel._switch = switch
            for excl in range(view.n - 1):
                for w_start in range(view.n - 1):
                    if w_start == excl:
                        continue
                    try:
                        expected = [
                            orig_of[x]
                            for x in python.matching_vector(excl, w_start)
                        ]
                    except ChainConstructionError:
                        with pytest.raises(ChainConstructionError):
                            kernel.matching_vector(
                                orig_of[excl], orig_of[w_start]
                            )
                        continue
                    got = kernel.matching_vector(
                        orig_of[excl], orig_of[w_start]
                    )
                    # The kernel contract sorts ascending by cone id —
                    # same set, same ids, cache-compatible either way.
                    assert got == sorted(expected), (start, sink)

    @pytest.mark.parametrize("seed", range(4))
    def test_counting_vector_direct(self, seed):
        # The counting engine against the reference matcher in local
        # ids, including the ``None`` contract for unreachable starts.
        graph = _graph(seed)
        index, regions = _chain_regions(graph)
        kindex = KernelConeIndex(graph)
        for start, sink in regions:
            region = kindex.region(start, sink)
            if region is None or region.r <= 2:
                continue
            lptr = region.lptr.tolist()
            lind = region.lind.tolist()
            succ = [lind[lptr[v] : lptr[v + 1]] for v in range(region.r)]
            from repro.dominators.shared import RegionView

            python = RegionMatcher(RegionView(succ, root=region.r - 1))
            for excl in range(region.r - 1):
                for w_start in range(region.r - 1):
                    if w_start == excl:
                        continue
                    got = counting_vector(region, excl, w_start)
                    try:
                        expected = python.matching_vector(excl, w_start)
                    except ChainConstructionError:
                        assert got is None, (excl, w_start)
                        continue
                    assert got == sorted(expected), (excl, w_start)

    def test_counting_vector_collision_proof_modulus(self, monkeypatch):
        # Correctness must not depend on the modulus: with p = 2 almost
        # every vertex becomes a candidate and only the exact
        # verification sweep separates dominators from bystanders.
        graph = _pipe_graph(stages=2, width=4)
        kindex = KernelConeIndex(graph)
        _, regions = _chain_regions(graph)
        checked = 0
        for start, sink in regions:
            region = kindex.region(start, sink)
            if region is None or region.r <= 3:
                continue
            baseline = {}
            for excl in range(region.r - 1):
                for w_start in range(region.r - 1):
                    if w_start != excl:
                        baseline[(excl, w_start)] = counting_vector(
                            region, excl, w_start
                        )
            monkeypatch.setattr(kernels_mod, "_COUNT_PRIME", 2)
            for (excl, w_start), expected in baseline.items():
                assert (
                    counting_vector(region, excl, w_start) == expected
                ), (excl, w_start)
                checked += 1
            monkeypatch.undo()
        assert checked


@needs_numpy
class TestKernelExpansion:
    def test_trivial_region_has_no_pairs(self):
        # A direct start->sink edge region has <= 3 vertices: no two
        # interior vertices, so no pair can exist.
        c = Circuit("tiny")
        a, b = c.add_input("a"), c.add_input("b")
        c.add_gate("g", NodeType.AND, [a, b])
        c.set_outputs(["g"])
        graph = IndexedGraph.from_circuit(c)
        kindex = KernelConeIndex(graph)
        region = kindex.region(graph.index_of("a"), graph.root)
        assert region is not None and region.r <= 3
        assert kernel_expand_region(region, graph.index_of("a")) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_chains_bit_identical_to_python(self, seed):
        graph = _graph(seed, gates=30)
        python = ChainComputer(graph, backend="shared", kernels="python")
        numpy_side = ChainComputer(graph, backend="shared", kernels="numpy")
        with forced_region_threshold(0):
            for u in graph.sources():
                divergence = diff_chains(
                    python.chain(u), numpy_side.chain(u)
                )
                assert divergence is None, f"{u}: {divergence}"

    def test_kernel_dispatch_counts_regions(self):
        from repro.service.metrics import MetricsRegistry

        graph = _pipe_graph(stages=2, width=5)
        metrics = MetricsRegistry()
        computer = ChainComputer(
            graph, backend="shared", kernels="numpy", metrics=metrics
        )
        with forced_region_threshold(0):
            computer.chains_for_sources()
        assert metrics.counter("core.kernel_regions").value > 0

    def test_narrow_region_punts_to_python(self):
        # A deep cascade's merge region spans tens of thousands of
        # levels at ~1.6 vertices each; one numpy call per level loses
        # to the interpreter, so the shape gate must keep the whole
        # cone on the python path (and the chains identical).
        from repro.circuits.generators import cascade
        from repro.service.metrics import MetricsRegistry

        circuit = cascade(800, seed=7)
        graph = IndexedGraph.from_circuit(circuit, circuit.outputs[-1])
        target = graph.index_of("x0")
        metrics = MetricsRegistry()
        computer = ChainComputer(
            graph, backend="shared", kernels="numpy", metrics=metrics
        )
        reference = ChainComputer(graph, backend="shared")
        assert diff_chains(reference.chain(target), computer.chain(target)) is None
        assert metrics.counter("core.kernel_regions").value == 0

    def test_level_span_counts_level_chunks(self):
        graph = _pipe_graph(stages=2, width=5)
        kindex = KernelConeIndex(graph)
        _, regions = _chain_regions(graph)
        for start, sink in regions:
            region = kindex.region(start, sink)
            if region is None:
                continue
            # The pre-extraction estimate covers at least the levels
            # the extracted region actually occupies.
            assert kindex.level_span(start, sink) >= len(region.lbounds) - 1

    def test_byte_cap_keeps_kernels_on_sweep(self, monkeypatch):
        # An over-cap region must stay on the kernel path (extraction,
        # cut) with the matcher pinned to its sweep engine — not punt
        # back to python, and never allocate the packed table.
        from repro.service.metrics import MetricsRegistry

        graph = _pipe_graph(stages=2, width=5)
        monkeypatch.setattr(kernels_mod, "BITSET_BYTE_CAP", 0)
        metrics = MetricsRegistry()
        computer = ChainComputer(
            graph, backend="shared", kernels="numpy", metrics=metrics
        )
        reference = ChainComputer(graph, backend="shared")
        with forced_region_threshold(0):
            for u in graph.sources():
                assert diff_chains(reference.chain(u), computer.chain(u)) is None
        assert metrics.counter("core.kernel_regions").value > 0

    def test_byte_cap_blocks_bitset_graduation(self, monkeypatch):
        graph = _pipe_graph(stages=2, width=5)
        kindex = KernelConeIndex(graph)
        _, regions = _chain_regions(graph)
        region = max(
            (kindex.region(s, k) for s, k in regions),
            key=lambda reg: reg.r if reg is not None else 0,
        )
        start, sink = int(region.cone_ids[0]), int(region.cone_ids[-1])
        interior = [
            int(c)
            for c in region.cone_ids
            if int(c) not in (start, sink)
        ]
        assert len(interior) >= 2
        excl, w_start = interior[0], interior[-1]
        monkeypatch.setattr(kernels_mod, "BITSET_BYTE_CAP", 0)
        matcher = KernelRegionMatcher(region)
        for _ in range(matcher._switch + 2):
            try:
                matcher.matching_vector(excl, w_start)
            except ChainConstructionError:
                pass
        assert matcher._bits is None
        monkeypatch.setattr(kernels_mod, "BITSET_BYTE_CAP", 64 << 20)
        for _ in range(matcher._switch + 2):
            try:
                matcher.matching_vector(excl, w_start)
            except ChainConstructionError:
                pass
        assert matcher._bits is not None

    def test_narrow_window_skips_kernel_index_build(self):
        # Regions narrower than the threshold must be answered without
        # ever constructing the (O(n)-cost) kernel cone index.
        graph = _graph(3)
        computer = ChainComputer(graph, backend="shared", kernels="numpy")
        computer.chains_for_sources()
        assert computer._index._kernel_index is None
