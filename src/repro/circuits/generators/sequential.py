"""Sequential benchmark generators: shift register, LFSR, pipelined ALU.

These return :class:`~repro.graph.sequential.SequentialCircuit` records
rather than plain netlists: flip-flop outputs appear as INPUT nodes of
the embedded combinational circuit (same net name), and ``flops`` maps
each flop output to its data-input net — the shape
:func:`~repro.graph.sequential.extract_combinational_core` and
:func:`~repro.graph.sequential.unrolled` consume.

The three families deliberately span the pair-density spectrum: a
shift register's flop-cut cones are all single wires or buffers (no
cone has a double-vertex dominator), an LFSR adds fanout-free XOR
feedback (still mostly pair-free), and the pipelined ALU carries
reconvergent carry/select logic per stage (real double-dominator
pairs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...graph.circuit import Circuit
from ...graph.node import NodeType
from ...graph.sequential import SequentialCircuit


def shift_register(width: int, name: Optional[str] = None) -> SequentialCircuit:
    """A ``width``-bit serial-in shift register with an inverted tap.

    Stage 0 latches the serial input directly and every later stage
    latches its predecessor's output — the two flop-to-flop shapes the
    time-frame unroller must resolve through previous-frame renames.
    """
    if width < 1:
        raise ValueError("width must be positive")
    circuit_name = name or f"shift{width}"
    comb = Circuit(circuit_name)
    comb.add_input("d")
    for i in range(width):
        comb.add_input(f"q{i}")
    flops: Dict[str, str] = {"q0": "d"}
    for i in range(1, width):
        flops[f"q{i}"] = f"q{i - 1}"
    comb.add_gate("so", NodeType.NOT, [f"q{width - 1}"])
    comb.set_outputs(["so"])
    comb.validate()
    return SequentialCircuit(
        name=circuit_name,
        combinational=comb,
        flops=flops,
        primary_inputs=["d"],
        primary_outputs=["so"],
    )


def lfsr(
    width: int,
    taps: Optional[Sequence[int]] = None,
    name: Optional[str] = None,
) -> SequentialCircuit:
    """A Fibonacci LFSR with a scramble input folded into the feedback.

    ``taps`` are the stage indices XOR-ed into the feedback bit
    (defaults to stage 0, the middle stage and the last stage).  The
    stream output XORs the last stage with the scramble input, so the
    machine has both a primary input and a primary output.
    """
    if width < 2:
        raise ValueError("width must be at least 2")
    if taps is None:
        taps = sorted({0, width // 2, width - 1})
    if not taps or any(t < 0 or t >= width for t in taps):
        raise ValueError(f"taps must be stage indices in [0, {width})")
    circuit_name = name or f"lfsr{width}"
    comb = Circuit(circuit_name)
    comb.add_input("sin")
    for i in range(width):
        comb.add_input(f"q{i}")
    comb.add_gate(
        "fb", NodeType.XOR, [f"q{t}" for t in taps] + ["sin"]
    )
    flops: Dict[str, str] = {"q0": "fb"}
    for i in range(1, width):
        flops[f"q{i}"] = f"q{i - 1}"
    comb.add_gate("stream", NodeType.XOR, [f"q{width - 1}", "sin"])
    comb.set_outputs(["stream"])
    comb.validate()
    return SequentialCircuit(
        name=circuit_name,
        combinational=comb,
        flops=flops,
        primary_inputs=["sin"],
        primary_outputs=["stream"],
    )


def _alu_stage(
    comb: Circuit,
    xs: Sequence[str],
    ys: Sequence[str],
    sel: str,
    prefix: str,
) -> List[str]:
    """One ALU stage: ripple add / bitwise AND, selected per bit.

    The carry chain reconverges with the propagate bits at every sum
    XOR, so each stage contributes genuine double-dominator pairs.
    """
    width = len(xs)
    outs: List[str] = []
    carry = None
    for i in range(width):
        p = comb.add_gate(f"{prefix}_p{i}", NodeType.XOR, [xs[i], ys[i]])
        g = comb.add_gate(f"{prefix}_g{i}", NodeType.AND, [xs[i], ys[i]])
        if carry is None:
            s = p
            carry = g
        else:
            s = comb.add_gate(f"{prefix}_s{i}", NodeType.XOR, [p, carry])
            chain = comb.add_gate(
                f"{prefix}_cc{i}", NodeType.AND, [p, carry]
            )
            carry = comb.add_gate(
                f"{prefix}_c{i}", NodeType.OR, [g, chain]
            )
        outs.append(
            comb.add_gate(f"{prefix}_o{i}", NodeType.MUX, [sel, s, g])
        )
    return outs


def pipelined_alu(
    width: int = 4, stages: int = 2, name: Optional[str] = None
) -> SequentialCircuit:
    """A ``stages``-deep pipelined ALU slice over ``width``-bit operands.

    Stage 0 combines the operand buses; every later stage combines the
    previous stage's register bank with the ``b`` bus again (a typical
    operand-feedthrough pipeline).  A shared ``sel`` input picks between
    the add and AND function in every stage.  The flop-cut cones carry
    the stage adders' reconvergent carry logic, so unlike the register
    chains above these cones are *not* certified by the pre-filter.
    """
    if width < 2:
        raise ValueError("width must be at least 2")
    if stages < 1:
        raise ValueError("stages must be positive")
    circuit_name = name or f"palu{width}x{stages}"
    comb = Circuit(circuit_name)
    a_bus = [comb.add_input(f"a{i}") for i in range(width)]
    b_bus = [comb.add_input(f"b{i}") for i in range(width)]
    sel = comb.add_input("sel")
    for s in range(stages):
        for i in range(width):
            comb.add_input(f"r{s}_{i}")

    flops: Dict[str, str] = {}
    xs = a_bus
    for s in range(stages):
        stage_outs = _alu_stage(comb, xs, b_bus, sel, f"st{s}")
        for i, net in enumerate(stage_outs):
            flops[f"r{s}_{i}"] = net
        xs = [f"r{s}_{i}" for i in range(width)]

    outputs = [
        comb.add_gate(f"y{i}", NodeType.NOT, [xs[i]]) for i in range(width)
    ]
    comb.set_outputs(outputs)
    comb.validate()
    return SequentialCircuit(
        name=circuit_name,
        combinational=comb,
        flops=flops,
        primary_inputs=a_bus + b_bus + [sel],
        primary_outputs=outputs,
    )
