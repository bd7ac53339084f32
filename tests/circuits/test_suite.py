"""Tests for the 30-circuit Table-1 suite registry."""

import pytest

from repro.circuits import (
    QUICK_SUBSET,
    benchmark_names,
    get_benchmark,
    table1_suite,
)
from repro.graph import assert_well_formed


def test_thirty_entries_present():
    names = benchmark_names()
    assert len(names) == 30
    for expected in (
        "C432",
        "C6288",
        "C499",
        "C1355",
        "alu2",
        "des",
        "too_large",
        "x4",
    ):
        assert expected in names


def test_quick_subset_is_subset():
    assert set(QUICK_SUBSET) <= set(benchmark_names())


def test_paper_rows_recorded():
    suite = table1_suite()
    assert suite["C6288"].paper.t1_seconds == pytest.approx(58.89)
    assert suite["too_large"].paper.improvement == pytest.approx(
        614.1, rel=0.01
    )
    # The paper's headline: average improvement ~27.65x.
    mean = sum(e.paper.improvement for e in suite.values()) / 30
    assert mean == pytest.approx(27.65, rel=0.02)


@pytest.mark.parametrize("name", benchmark_names())
def test_every_benchmark_builds_at_small_scale(name):
    circuit = get_benchmark(name, scale=0.25)
    circuit.validate()
    assert circuit.name == name
    assert circuit.outputs


@pytest.mark.parametrize(
    "name", ["alu2", "comp", "C432", "C6288", "cordic", "cmb"]
)
def test_io_counts_near_paper(name):
    """At scale 1.0 the I/O counts track Table 1's in/out columns."""
    entry = table1_suite()[name]
    circuit = entry.circuit(1.0)
    assert abs(len(circuit.inputs) - entry.paper.inputs) <= 2
    assert abs(len(circuit.outputs) - entry.paper.outputs) <= 2


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        get_benchmark("c17_misspelled")


def test_structured_families_well_formed():
    for name in ("C6288", "comp", "C499"):
        assert_well_formed(get_benchmark(name, scale=0.3))


class TestSequentialSuite:
    """The sequential registry: s_shift, s_lfsr, s_alu."""

    def test_registry_names(self):
        from repro.circuits import sequential_names, sequential_suite

        assert sequential_names() == ["s_shift", "s_lfsr", "s_alu"]
        assert set(sequential_suite()) == set(sequential_names())

    @pytest.mark.parametrize("name", ["s_shift", "s_lfsr", "s_alu"])
    def test_every_entry_builds_at_small_scale(self, name):
        from repro.circuits import get_sequential
        from repro.graph.sequential import (
            extract_combinational_core,
            unrolled,
        )

        machine = get_sequential(name, scale=0.25)
        assert machine.name == name
        assert machine.flops
        assert machine.primary_inputs and machine.primary_outputs
        core = extract_combinational_core(machine)
        core.validate()
        assert len(core.outputs) == len(machine.primary_outputs) + len(
            machine.flops
        )
        expanded = unrolled(machine, 3)
        expanded.validate()
        assert len(expanded.outputs) == 3 * len(
            machine.primary_outputs
        ) + len(machine.flops)

    def test_unknown_name_rejected(self):
        from repro.circuits import get_sequential

        with pytest.raises(KeyError, match="nope"):
            get_sequential("nope")

    def test_suite_spans_prefilter_spectrum(self):
        # s_shift: every core cone is pair-free; s_alu: real pairs
        # survive.  Chains and brute force must agree on both ends.
        from repro.circuits import get_sequential
        from repro.core.algorithm import ChainComputer
        from repro.core.bruteforce import all_double_dominators
        from repro.graph import IndexedGraph
        from repro.graph.sequential import extract_combinational_core

        def pair_sets(circuit, out):
            graph = IndexedGraph.from_circuit(circuit, out)
            computer = ChainComputer(graph)
            for u in graph.sources():
                chain_pairs = computer.chain(u).pair_set()
                assert chain_pairs == all_double_dominators(graph, u)
                yield chain_pairs

        shift = extract_combinational_core(get_sequential("s_shift", 0.25))
        assert not any(
            pairs for out in shift.outputs for pairs in pair_sets(shift, out)
        )
        alu = extract_combinational_core(get_sequential("s_alu", 0.25))
        assert any(
            pairs for out in alu.outputs for pairs in pair_sets(alu, out)
        )
