"""The Table-1 benchmark suite: 30 stand-ins for the IWLS'02 circuits.

The paper evaluates on the 30 largest IWLS'02 benchmarks.  Those netlists
are not redistributable inside this repository, so each entry below maps a
benchmark name to a *parametric generator* chosen to match the circuit's
actual function where it is known (C6288 is a 16×16 array multiplier,
C499/C1355 are the 32-bit single-error corrector in XOR/NAND form, C432 a
27-channel interrupt controller, comp a comparator, rot a rotator/shifter,
des Feistel rounds, ...) and a calibrated random reconvergent netlist
where it is not (the apex/i/x/pair/frg2 two-level-synthesis circuits).
Primary input/output counts reproduce Table 1's ``in``/``out`` columns at
``scale=1.0``.

Every entry also records the paper's measured row (single/double dominator
counts, baseline and new runtimes) so the experiment harness can print
paper-vs-measured side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..graph.circuit import Circuit
from ..graph.rewrite import expand_xors
from .generators.alu import magnitude_comparator, simple_alu
from .generators.cascades import cascade
from .generators.des_like import feistel_network
from .generators.ecc import error_corrector
from .generators.encoders import interrupt_controller
from .generators.multipliers import array_multiplier
from .generators.muxtree import barrel_shifter
from .generators.random_dag import random_circuit


@dataclass(frozen=True)
class PaperRow:
    """One row of the paper's Table 1 (the published numbers)."""

    inputs: int
    outputs: int
    single_doms: int
    double_doms: int
    t1_seconds: float  # baseline [11]
    t2_seconds: float  # the paper's algorithm

    @property
    def improvement(self) -> float:
        return self.t1_seconds / self.t2_seconds


@dataclass(frozen=True)
class SuiteEntry:
    """A named benchmark: its generator plus the paper's published row."""

    name: str
    build: Callable[[float], Circuit]
    paper: PaperRow
    family: str

    def circuit(self, scale: float = 1.0) -> Circuit:
        built = self.build(scale)
        built.name = self.name
        return built


def _dim(value: int, scale: float, minimum: int = 2) -> int:
    return max(minimum, int(round(value * scale)))


#: Global shift applied to every random-family generator seed.  The
#: deterministic (structural) generators ignore it — an ALU is an ALU —
#: but the calibrated random netlists resample under a different offset,
#: which is what ``table1 --seed`` uses to probe run-to-run robustness.
_SEED_OFFSET = 0


def set_seed_offset(offset: int) -> None:
    """Shift the seeds of the random-family suite circuits.

    Builders read the offset at build time, so already-created
    :class:`SuiteEntry` records pick it up without cache invalidation.
    """
    global _SEED_OFFSET
    _SEED_OFFSET = int(offset)


def seed_offset() -> int:
    """The currently active random-family seed offset."""
    return _SEED_OFFSET


def _rand(
    inputs: int, gates: int, outputs: int, seed: int
) -> Callable[[float], Circuit]:
    def build(scale: float) -> Circuit:
        return random_circuit(
            num_inputs=_dim(inputs, scale),
            num_gates=_dim(gates, scale, minimum=4),
            num_outputs=_dim(outputs, scale, minimum=1),
            seed=seed + _SEED_OFFSET,
            locality=14,
        )

    return build


def _entries() -> List[SuiteEntry]:
    rows: List[SuiteEntry] = []

    def add(
        name: str,
        build: Callable[[float], Circuit],
        paper: PaperRow,
        family: str,
    ) -> None:
        rows.append(SuiteEntry(name, build, paper, family))

    add(
        "C1355",
        lambda s: expand_xors(
            error_corrector(_dim(32, s, 4), _dim(8, s, 3))
        ),
        PaperRow(41, 32, 6, 10512, 3.5, 0.45),
        "ecc-nand",
    )
    add(
        "C1908",
        lambda s: error_corrector(_dim(24, s, 4), _dim(8, s, 3)),
        PaperRow(33, 25, 636, 5696, 1.5, 0.36),
        "ecc",
    )
    add(
        "C2670",
        _rand(233, 620, 140, seed=2670),
        PaperRow(233, 140, 2091, 410, 1.55, 0.23),
        "random",
    )
    add(
        "C3540",
        lambda s: simple_alu(_dim(23, s, 3), select_bits=4),
        PaperRow(50, 22, 727, 5657, 6.85, 0.42),
        "alu",
    )
    add(
        "C432",
        lambda s: interrupt_controller(_dim(29, s, 4), groups=6),
        PaperRow(36, 7, 195, 2127, 0.3, 0.17),
        "interrupt",
    )
    add(
        "C499",
        lambda s: error_corrector(_dim(32, s, 4), _dim(8, s, 3)),
        PaperRow(41, 32, 960, 9968, 2.3, 0.45),
        "ecc",
    )
    add(
        "C5315",
        _rand(178, 900, 123, seed=5315),
        PaperRow(178, 123, 4093, 11068, 5.5, 0.71),
        "random",
    )
    add(
        "C6288",
        lambda s: array_multiplier(_dim(16, s, 3)),
        PaperRow(32, 32, 480, 3366, 58.89, 0.88),
        "multiplier",
    )
    add(
        "C7552",
        _rand(207, 950, 108, seed=7552),
        PaperRow(207, 108, 4604, 14728, 7.27, 1.16),
        "random",
    )
    add(
        "C880",
        _rand(60, 260, 26, seed=880),
        PaperRow(60, 26, 432, 1309, 0.26, 0.18),
        "random",
    )
    add(
        "alu2",
        lambda s: simple_alu(_dim(4, s, 2), select_bits=2),
        PaperRow(10, 6, 48, 55, 0.81, 0.16),
        "alu",
    )
    add(
        "alu4",
        lambda s: simple_alu(_dim(6, s, 2), select_bits=2),
        PaperRow(14, 8, 77, 214, 3.36, 0.16),
        "alu",
    )
    add(
        "apex5",
        _rand(114, 700, 88, seed=5),
        PaperRow(114, 88, 800, 8107, 3.21, 0.61),
        "random",
    )
    add(
        "apex6",
        _rand(135, 500, 99, seed=6),
        PaperRow(135, 99, 525, 1169, 0.42, 0.24),
        "random",
    )
    add(
        "apex7",
        _rand(49, 180, 37, seed=7),
        PaperRow(49, 37, 140, 476, 0.17, 0.15),
        "random",
    )
    add(
        "cmb",
        _rand(16, 40, 4, seed=16),
        PaperRow(16, 4, 38, 60, 0.16, 0.09),
        "random",
    )
    add(
        "comp",
        lambda s: magnitude_comparator(_dim(16, s, 3)),
        PaperRow(32, 3, 8, 439, 0.16, 0.12),
        "comparator",
    )
    add(
        "cordic",
        lambda s: cascade(
            depth=_dim(18, s, 4), num_inputs=_dim(23, s, 4), num_outputs=2
        ),
        PaperRow(23, 2, 38, 65, 0.12, 0.1),
        "cascade",
    )
    add(
        "des",
        lambda s: feistel_network(
            block_bits=8 * _dim(16, s, 2),
            key_bits=8 * _dim(16, s, 2),
            rounds=3,
            expose_rounds=True,
        ),
        PaperRow(256, 245, 3361, 2349, 8.19, 0.77),
        "feistel",
    )
    add(
        "frg2",
        _rand(143, 740, 139, seed=143),
        PaperRow(143, 139, 1502, 3609, 1.76, 0.44),
        "random",
    )
    add(
        "i8",
        _rand(133, 1000, 81, seed=8),
        PaperRow(133, 81, 2068, 3296, 2.87, 0.5),
        "random",
    )
    add(
        "i9",
        _rand(88, 550, 63, seed=9),
        PaperRow(88, 63, 876, 1827, 0.95, 0.3),
        "random",
    )
    add(
        "i10",
        _rand(257, 1500, 224, seed=10),
        PaperRow(257, 224, 6446, 30608, 16.32, 1.57),
        "random",
    )
    add(
        "pair",
        _rand(173, 1000, 137, seed=173),
        PaperRow(173, 137, 2459, 9196, 1.82, 0.63),
        "random",
    )
    add(
        "rot",
        lambda s: barrel_shifter(
            1 << max(2, int(round(math.log2(128) * s)) if s != 1.0 else 7)
        ),
        PaperRow(135, 107, 1657, 4617, 1.49, 0.38),
        "shifter",
    )
    add(
        "term1",
        _rand(34, 160, 10, seed=34),
        PaperRow(34, 10, 46, 453, 0.31, 0.16),
        "random",
    )
    add(
        "too_large",
        lambda s: cascade(
            depth=_dim(480, s, 8),
            num_inputs=_dim(38, s, 4),
            num_outputs=3,
            seed=99,
        ),
        PaperRow(38, 3, 971, 1467, 423.73, 0.69),
        "cascade",
    )
    add(
        "x1",
        _rand(51, 230, 35, seed=51),
        PaperRow(51, 35, 366, 1297, 0.99, 0.22),
        "random",
    )
    add(
        "x3",
        _rand(135, 540, 99, seed=135),
        PaperRow(135, 99, 495, 1801, 0.68, 0.22),
        "random",
    )
    add(
        "x4",
        _rand(94, 400, 71, seed=94),
        PaperRow(94, 71, 305, 2250, 0.41, 0.18),
        "random",
    )
    return rows


_SUITE: Optional[Dict[str, SuiteEntry]] = None


def table1_suite() -> Dict[str, SuiteEntry]:
    """The full 30-entry registry, keyed by benchmark name."""
    global _SUITE
    if _SUITE is None:
        _SUITE = {entry.name: entry for entry in _entries()}
    return _SUITE


def get_benchmark(name: str, scale: float = 1.0) -> Circuit:
    """Build one suite circuit by its Table-1 name."""
    suite = table1_suite()
    if name not in suite:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {sorted(suite)}"
        )
    return suite[name].circuit(scale)


def benchmark_names() -> List[str]:
    """All 30 benchmark names in the paper's (alphabetical) table order."""
    return list(table1_suite())


#: A small subset with diverse structure, for fast CI/benchmark runs.
QUICK_SUBSET = [
    "alu2",
    "alu4",
    "comp",
    "cordic",
    "cmb",
    "C432",
    "C6288",
    "too_large",
]


# ----------------------------------------------------------------------
# scaling tiers (kernel benchmarks, far beyond Table 1's sizes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalingEntry:
    """One scaling-tier benchmark: a named million-ish-gate build.

    ``tier`` groups entries by cost: ``"mid"`` circuits (tens of
    thousands of gates) are CI material, ``"mega"`` circuits (about a
    million gates each) are the checked-in ``BENCH_scaling.json``
    workload and take minutes per backend on the python path.
    """

    name: str
    tier: str
    build: Callable[[], Circuit]
    approx_gates: int

    def circuit(self) -> Circuit:
        built = self.build()
        built.name = self.name
        return built


_SCALING: Optional[Dict[str, ScalingEntry]] = None


def scaling_suite() -> Dict[str, ScalingEntry]:
    """The scaling-tier registry, keyed by entry name.

    Two families cover the two scaling axes: ``cascade`` is deep and
    narrow (a million tiny regions — tree-pass bound), the
    ``mixing_pipeline`` entries are shallow and wide (regions of
    thousands of vertices — region-work bound, where the numpy kernels
    engage).
    """
    global _SCALING
    if _SCALING is None:
        from .generators.pipeline import mixing_pipeline

        entries = [
            ScalingEntry(
                "pipe_mid",
                "mid",
                lambda: mixing_pipeline(44, 512, seed=7),
                91_000,
            ),
            ScalingEntry(
                "cascade_mega",
                "mega",
                lambda: cascade(250_000, seed=7),
                1_000_000,
            ),
            ScalingEntry(
                "pipe_mega_2k",
                "mega",
                lambda: mixing_pipeline(122, 2048, seed=7),
                1_003_000,
            ),
            ScalingEntry(
                "pipe_mega_4k",
                "mega",
                lambda: mixing_pipeline(61, 4096, seed=7),
                1_007_000,
            ),
            ScalingEntry(
                "pipe_mega_8k",
                "mega",
                lambda: mixing_pipeline(30, 8192, seed=7),
                999_000,
            ),
        ]
        _SCALING = {e.name: e for e in entries}
    return _SCALING


# ----------------------------------------------------------------------
# sequential tier (flip-flop netlists for core/unrolled sweeps)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SequentialEntry:
    """One sequential benchmark: a named parametric state machine.

    ``build(scale)`` returns a
    :class:`~repro.graph.sequential.SequentialCircuit`; sweeps analyze
    either its combinational core or a time-frame unrolling
    (``repro ... --sequential {core,unroll:N}``).
    """

    name: str
    build: Callable[[float], "object"]
    family: str

    def sequential(self, scale: float = 1.0):
        built = self.build(scale)
        built.name = self.name
        built.combinational.name = self.name
        return built


_SEQUENTIAL: Optional[Dict[str, SequentialEntry]] = None


def sequential_suite() -> Dict[str, SequentialEntry]:
    """The sequential registry, keyed by entry name.

    The three families span the pair-density spectrum: ``s_shift``'s
    flop-cut cones are all pair-free (their undirected skeletons are
    trees), ``s_lfsr`` adds fanout-free XOR feedback (still mostly
    pair-free), and ``s_alu`` pipelines reconvergent adder stages whose
    cones carry real pairs.
    """
    global _SEQUENTIAL
    if _SEQUENTIAL is None:
        from .generators.sequential import lfsr, pipelined_alu, shift_register

        entries = [
            SequentialEntry(
                "s_shift",
                lambda s: shift_register(_dim(16, s, 2)),
                "register-chain",
            ),
            SequentialEntry(
                "s_lfsr",
                lambda s: lfsr(_dim(16, s, 4)),
                "lfsr",
            ),
            SequentialEntry(
                "s_alu",
                lambda s: pipelined_alu(
                    width=_dim(8, s, 2), stages=_dim(3, s, 1)
                ),
                "pipeline",
            ),
        ]
        _SEQUENTIAL = {e.name: e for e in entries}
    return _SEQUENTIAL


def sequential_names() -> List[str]:
    """All sequential-suite entry names."""
    return list(sequential_suite())


def get_sequential(name: str, scale: float = 1.0):
    """Build one sequential-suite machine by name."""
    suite = sequential_suite()
    if name not in suite:
        raise KeyError(
            f"unknown sequential benchmark {name!r}; "
            f"choose from {sorted(suite)}"
        )
    return suite[name].sequential(scale)


def scaling_names(tier: Optional[str] = None) -> List[str]:
    """Scaling-entry names, optionally restricted to one tier."""
    return [
        name
        for name, entry in scaling_suite().items()
        if tier is None or entry.tier == tier
    ]


def get_scaling_circuit(name: str) -> Circuit:
    """Build one scaling-tier circuit by name."""
    suite = scaling_suite()
    if name not in suite:
        raise KeyError(
            f"unknown scaling benchmark {name!r}; "
            f"choose from {sorted(suite)}"
        )
    return suite[name].circuit()
