"""The three workloads: inputs made from the seed, one timed pass, checks.

Every workload builds all of its inputs (netlist text, PI samples, the
daemon's request script) in its constructor, before any timing.  A pass
starts again from that text, so no program object or cache carries over
from one pass to the next, and returns the per-operation times plus the
serialized outputs the checks and the pass digest read.  After each op,
outside its timing, a pass calls ``between()``, where the harness takes
its machine-speed samples.

The program is driven through its public entry points at their default
options: no ``backend``, ``kernels``, ``engine`` or ``prefilter``
argument is ever passed, and everything runs in this one process and
thread.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.circuits import suite
from repro.circuits.generators.cascades import cascade
from repro.circuits.generators.pipeline import mixing_pipeline
from repro.core.algorithm import ChainComputer
from repro.daemon.protocol import parse_request
from repro.daemon.service import DaemonService, ServiceConfig
from repro.dominators import shared
from repro.graph.indexed import IndexedGraph
from repro.parsers import bench
from repro.service.executor import ExecutorConfig, ParallelExecutor

from . import checks

clock = time.perf_counter

#: Scratch directory for the daemon's ``.bench`` files, inside the checkout.
WORKDIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".perfbench-work",
)


def _nothing() -> None:
    pass


@dataclass
class PassResult:
    """What one pass measured and served."""

    setup_s: float
    op_seconds: List[float] = field(default_factory=list)
    chains: int = 0
    failed: int = 0
    #: Serialized output of every op, in op order (None for a failed op).
    records: List[object] = field(default_factory=list)


def _fresh_chains(circuit, output: str) -> Tuple[IndexedGraph, Dict]:
    """Chains of every PI of one cone, from a fresh ChainComputer."""
    graph = IndexedGraph.from_circuit(circuit, output)
    computer = ChainComputer(graph)
    return graph, {
        graph.name_of(u): computer.chain(u).to_dict() for u in graph.sources()
    }


# ----------------------------------------------------------------------
# table1-sweep
# ----------------------------------------------------------------------
class Table1Sweep:
    """Every output cone of the 30 Table-1 circuits, as the executor runs it.

    One op is one output cone: the chains of all its primary inputs,
    computed and serialized by ``ParallelExecutor.sweep_circuit`` on its
    in-process path.
    """

    name = "table1-sweep"
    scale = 0.25
    tail_percentile = 97
    #: Cones sampled for the [11] check, and their size limits.
    check_cones = 10
    check_targets = 4
    baseline_max_vertices = 250
    bruteforce_max_vertices = 40

    def __init__(self, seed: int) -> None:
        # The suite's own netlists (seed offset 0).  Resampling the
        # random families with the seed moved the work of a pass by up
        # to 9% between seeds, more than the run-to-run bound allows, so
        # the seed only draws the cones and targets the checks sample.
        self.seed = seed
        self.texts = [
            (name, bench.dumps(entry.circuit(self.scale)))
            for name, entry in suite.table1_suite().items()
        ]

    def run_pass(self, tracer=None, between=_nothing) -> PassResult:
        start = clock()
        circuits = [(name, bench.loads(text, name)) for name, text in self.texts]
        executor = ParallelExecutor(ExecutorConfig())
        result = PassResult(setup_s=clock() - start)
        for name, circuit in circuits:
            for output in circuit.outputs:
                start = clock()
                try:
                    chains = executor.sweep_circuit(
                        circuit, outputs=[output], circuit_key=name
                    )[0].chains
                except Exception:  # noqa: BLE001 - a failed op is counted
                    chains = None
                result.op_seconds.append(clock() - start)
                between()
                if chains is None:
                    result.failed += 1
                else:
                    result.chains += len(chains)
                result.records.append((name, output, chains))
        return result

    def check(self, result: PassResult) -> List[str]:
        rng = random.Random(self.seed)
        texts = dict(self.texts)
        errors: List[str] = []
        candidates = [r for r in result.records if r[2]]
        rng.shuffle(candidates)
        checked = 0
        parsed: Dict[str, object] = {}
        for name, output, chains in candidates:
            if checked == self.check_cones:
                break
            circuit = parsed.get(name) or bench.loads(texts[name], name)
            parsed[name] = circuit
            graph = IndexedGraph.from_circuit(circuit, output)
            if graph.n > self.baseline_max_vertices:
                continue
            checked += 1
            label = f"{name}/{output}"
            served = {graph.index_of(pi): chain for pi, chain in chains.items()}
            if set(served) != set(graph.sources()):
                errors.append(f"{label}: served targets are not the cone's PIs")
                continue
            picked = rng.sample(
                sorted(served), min(self.check_targets, len(served))
            )
            sample = {u: served[u] for u in picked}
            errors += checks.compare_with_baseline(graph, sample, label)
            if graph.n <= self.bruteforce_max_vertices:
                errors += checks.compare_with_bruteforce(graph, sample, label)
        if checked == 0:
            errors.append("no cone small enough for the [11] check")
        return errors


# ----------------------------------------------------------------------
# big-cones
# ----------------------------------------------------------------------
class BigCones:
    """Two large cones: one wide and shallow, one deep and narrow.

    An 11-stage ``mixing_pipeline`` of width 512 (the ``pipe_mid``
    family at a quarter of its depth: 23,519 vertices, regions of about
    1,500) is queried for a stratified sample of its PIs, a 3,000-block
    ``cascade`` (12,012 vertices) for all eight PIs of its main output.
    Each cascade PI feeds every eighth block, so its first search
    region spans most of the cascade.

    One op is one ``ChainComputer.chain(u)`` plus ``to_dict()`` on an
    already-built cone.
    """

    name = "big-cones"
    tail_percentile = 92
    pipe_stages = 11
    pipe_width = 512
    #: Sampled PIs per pipeline stage.  Queried from the last stage to
    #: the first, so each stage's first query expands that stage's
    #: regions and every seed pays the same region work.
    pipe_per_stage = 10
    cascade_depth = 3000
    check_chains = 3
    check_pairs = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        pipe = mixing_pipeline(self.pipe_stages, self.pipe_width, seed=7)
        deep = cascade(self.cascade_depth, seed=7)
        self.texts = [
            ("pipeline", bench.dumps(pipe)),
            ("cascade", bench.dumps(deep)),
        ]
        self.outputs = [pipe.outputs[0], deep.outputs[0]]
        stages: Dict[int, List[str]] = {}
        for pi in pipe.inputs:
            # Inputs are x<j> before the first stage, x<s>_<j> after stage s.
            stage = int(pi[1:].split("_")[0]) if "_" in pi else 0
            stages.setdefault(stage, []).append(pi)
        self.targets = [
            [
                pi
                for stage in sorted(stages, reverse=True)
                for pi in rng.sample(stages[stage], self.pipe_per_stage)
            ],
            list(deep.inputs),
        ]

    def run_pass(self, tracer=None, between=_nothing) -> PassResult:
        start = clock()
        cones = []
        for (name, text), output, targets in zip(
            self.texts, self.outputs, self.targets
        ):
            circuit = bench.loads(text, name)
            graph = shared.cone_graph(circuit, output)
            computer = ChainComputer(graph)
            cones.append((computer, [graph.index_of(t) for t in targets]))
        result = PassResult(setup_s=clock() - start)
        for computer, indices in cones:
            for u in indices:
                start = clock()
                try:
                    chain = computer.chain(u).to_dict()
                except Exception:  # noqa: BLE001 - a failed op is counted
                    chain = None
                result.op_seconds.append(clock() - start)
                between()
                if chain is None:
                    result.failed += 1
                else:
                    result.chains += 1
                result.records.append(chain)
        return result

    def check(self, result: PassResult) -> List[str]:
        rng = random.Random(self.seed + 1)
        errors: List[str] = []
        offset = 0
        for (name, text), output, targets in zip(
            self.texts, self.outputs, self.targets
        ):
            graph = IndexedGraph.from_circuit(bench.loads(text, name), output)
            records = result.records[offset : offset + len(targets)]
            offset += len(targets)
            picked = rng.sample(
                range(len(targets)), min(self.check_chains, len(targets))
            )
            for i in picked:
                u, chain = graph.index_of(targets[i]), records[i]
                if chain is None or chain["target"] != u:
                    errors.append(f"{name}: chain of {targets[i]} missing")
                    continue
                pairs = sorted(tuple(sorted(p)) for p in checks.chain_pairs(chain))
                for pair in rng.sample(pairs, min(self.check_pairs, len(pairs))):
                    errors.append(checks.check_pair(graph, u, pair))
                side1, side2 = checks.chain_sides(chain)
                for v in rng.sample(side1 + side2, min(2, len(side1 + side2))):
                    errors.append(checks.check_matching_vector(graph, u, v, chain))
                errors.append(checks.check_chain_end(graph, u, chain))
            if not any(checks.chain_pairs(c) for c in records if c):
                errors.append(f"{name}: no chain has a pair")
        return [e for e in errors if e]


# ----------------------------------------------------------------------
# daemon-edits
# ----------------------------------------------------------------------
class _Netlist:
    """The benchmark's own copy of a netlist, edited alongside the daemon."""

    def __init__(self, text: str) -> None:
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: Dict[str, Tuple[str, List[str]]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("INPUT("):
                self.inputs.append(line[6:-1])
            elif line.startswith("OUTPUT("):
                self.outputs.append(line[7:-1])
            else:
                name, rhs = (s.strip() for s in line.split("=", 1))
                token, args = rhs[:-1].split("(", 1)
                fanins = [a.strip() for a in args.split(",") if a.strip()]
                self.gates[name] = (token, fanins)

    def __len__(self) -> int:
        return len(self.inputs) + len(self.gates)

    def cone(self, output: str) -> List[str]:
        """Gates of the fanin cone of ``output``, in netlist order."""
        seen = {output}
        stack = [output]
        while stack:
            for f in self.gates.get(stack.pop(), ("", []))[1]:
                if f not in seen:
                    seen.add(f)
                    stack.append(f)
        return [g for g in self.gates if g in seen]

    def text(self, name: str) -> str:
        lines = [f"# {name}"]
        lines += [f"INPUT({pi})" for pi in self.inputs]
        lines += [f"OUTPUT({po})" for po in self.outputs]
        lines += [
            f"{g} = {token}({', '.join(fanins)})"
            for g, (token, fanins) in self.gates.items()
        ]
        return "\n".join(lines) + "\n"


@dataclass
class _Step:
    tenant: int
    output: str
    lines: List[str]
    nodes: int  # netlist size the edit response must report


class DaemonEdits:
    """One closed-loop client, three tenants, an edit-then-requery script.

    Each request goes through ``json.loads`` → ``parse_request`` →
    ``DaemonService.handle`` → ``json.dumps(sort_keys=True)``, as the
    JSONL transport does; sockets and the asyncio thread pool are left
    out.  One op is one step: an ``edit`` request (insert a buffer on a
    cone edge, or remove an earlier one) followed by a ``chain`` request
    for every PI of the edited output, and every ``stats_every``-th
    step a ``stats`` request.
    """

    name = "daemon-edits"
    tail_percentile = 93
    tenants = ("C7552", "C5315", "i9")
    scale = 0.5
    steps = 150
    #: Consecutive steps of one tenant that edit the same output:
    #: insert, remove, insert, remove.
    steps_per_output = 4
    stats_every = 10
    check_steps = 10
    check_targets = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # The tenants' netlists are the suite's own (seed offset 0); the
        # seed draws the edit script, so runs with different seeds load
        # the same circuits and differ in where they edit.
        texts = [
            bench.dumps(suite.table1_suite()[t].circuit(self.scale))
            for t in self.tenants
        ]
        os.makedirs(WORKDIR, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="daemon-", dir=WORKDIR)
        self.paths = []
        for tenant, text in zip(self.tenants, texts):
            path = os.path.join(self.workdir, f"{tenant}.bench")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.paths.append(path)
        self._build_script(random.Random(seed), [_Netlist(t) for t in texts])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:  # another run still uses it
            pass

    # -- the script -----------------------------------------------------
    def _build_script(self, rng: random.Random, nets: List[_Netlist]) -> None:
        live: List[str] = [""] * len(nets)
        schedules = [self._outputs(rng, net, len(nets)) for net in nets]
        counts = [0] * len(nets)
        self.script: List[_Step] = []
        #: step index -> netlist text after that step (for the checks)
        self.snapshots: Dict[int, str] = {}
        last_step = {}
        picks = set(rng.sample(range(self.steps), self.check_steps))
        for k in range(self.steps):
            t = k % len(nets)
            net = nets[t]
            run, j = divmod(counts[t], self.steps_per_output)
            output = schedules[t][run]
            counts[t] += 1
            cone = net.cone(output)
            if j % 2:
                # Remove the buffer the previous step inserted.
                edits = self._remove_buffer(net, live[t], cone)
            else:
                # Insert on an edge into the first, then the second half
                # of the cone's gates (netlist order), so every seed
                # edits near the inputs and near the output alike.
                gates = [g for g in cone if net.gates[g][1]]
                half = len(gates) // 2
                gate = rng.choice(gates[:half] if j == 0 else gates[half:])
                fanin = rng.choice(net.gates[gate][1])
                live[t] = f"pb{t}_{k}"
                edits = self._insert_buffer(net, live[t], fanin, gate)
            tenant = self.tenants[t]
            params = {"circuit": f"@{t}@", "output": output}
            lines = [
                json.dumps(
                    {"v": 1, "op": "edit", "id": f"e{k}", "tenant": tenant,
                     "params": dict(params, edits=edits)}
                ),
                json.dumps(
                    {"v": 1, "op": "chain", "id": f"c{k}", "tenant": tenant,
                     "params": params}
                ),
            ]
            if k % self.stats_every == self.stats_every - 1:
                lines.append(
                    json.dumps({"v": 1, "op": "stats", "id": f"s{k}", "tenant": tenant})
                )
            self.script.append(_Step(t, output, lines, len(net)))
            last_step[t] = k
            if k in picks:
                self.snapshots[k] = net.text(tenant)
        for t, k in last_step.items():
            self.snapshots[k] = nets[t].text(self.tenants[t])

    def _outputs(self, rng: random.Random, net: _Netlist, tenants: int):
        """The outputs one tenant's steps edit, in script order.

        The middle output of each stratum of cone size, the same for
        every seed.  The seed orders all but the first, the middle
        stratum's, which the set-up queries, so set-up does the same
        work whatever the seed.
        """
        runs = -(-self.steps // (tenants * self.steps_per_output))
        ranked = sorted(
            (len(net.cone(o)), o) for o in net.outputs if len(net.cone(o)) >= 3
        )
        picked = [
            ranked[(2 * i + 1) * len(ranked) // (2 * runs)][1]
            for i in range(runs)
        ]
        first = picked.pop(runs // 2)
        rng.shuffle(picked)
        return [first] + picked

    @staticmethod
    def _insert_buffer(net: _Netlist, buffer: str, fanin: str, gate: str):
        token, fanins = net.gates[gate]
        rewired = [buffer if f == fanin else f for f in fanins]
        net.gates[buffer] = ("BUF", [fanin])
        net.gates[gate] = (token, rewired)
        return [
            {"op": "add-gate", "name": buffer, "fanins": [fanin], "type": "buf"},
            {"op": "rewire", "name": gate, "fanins": rewired},
        ]

    @staticmethod
    def _remove_buffer(net: _Netlist, buffer: str, cone: List[str]):
        fanin = net.gates[buffer][1][0]
        consumer = next(g for g in cone if buffer in net.gates[g][1])
        token, fanins = net.gates[consumer]
        rewired = [fanin if f == buffer else f for f in fanins]
        net.gates[consumer] = (token, rewired)
        del net.gates[buffer]
        return [
            {"op": "rewire", "name": consumer, "fanins": rewired},
            {"op": "remove-gate", "name": buffer},
        ]

    # -- one pass -------------------------------------------------------
    def run_pass(self, tracer=None, between=_nothing) -> PassResult:
        request = self._request if tracer is None else self._traced(tracer)
        first = {}
        for step in self.script:
            first.setdefault(step.tenant, step.output)
        start = clock()
        service = DaemonService(
            ServiceConfig(
                tenant_rate=1e9, tenant_burst=1e9, use_shared_memory=False
            )
        )
        try:
            keys = []
            for t, (tenant, path) in enumerate(zip(self.tenants, self.paths)):
                loaded = request(
                    service,
                    json.dumps({"v": 1, "op": "load", "tenant": tenant,
                                "params": {"path": path}}),
                )
                keys.append(loaded["result"]["circuit"])
                request(
                    service,
                    json.dumps({"v": 1, "op": "chain", "tenant": tenant,
                                "params": {"circuit": keys[t],
                                           "output": first[t]}}),
                )
            result = PassResult(setup_s=clock() - start)
            script = []
            for step in self.script:
                lines = step.lines
                for t, key in enumerate(keys):
                    lines = [line.replace(f"@{t}@", key) for line in lines]
                script.append(lines)
            for step, lines in zip(self.script, script):
                start = clock()
                responses = [request(service, line) for line in lines]
                result.op_seconds.append(clock() - start)
                between()
                edit, chain = responses[0], responses[1]
                if all(r.get("ok") for r in responses):
                    result.chains += len(chain["result"]["chains"])
                    result.records.append((edit["result"], chain["result"]))
                else:
                    result.failed += 1
                    result.records.append(None)
        finally:
            service.close()
        return result

    @staticmethod
    def _request(service: DaemonService, line: str) -> dict:
        response = service.handle(parse_request(json.loads(line)))
        json.dumps(response, sort_keys=True)
        return response

    @staticmethod
    def _traced(tracer):
        def request(service: DaemonService, line: str) -> dict:
            with tracer.span("daemon.decode_s"):
                parsed = parse_request(json.loads(line))
            response = service.handle(parsed)
            with tracer.span("daemon.encode_s"):
                json.dumps(response, sort_keys=True)
            return response

        return request

    # -- checks ---------------------------------------------------------
    def check(self, result: PassResult) -> List[str]:
        rng = random.Random(self.seed + 2)
        errors: List[str] = []
        for k, (step, record) in enumerate(zip(self.script, result.records)):
            if record is not None and record[0]["nodes"] != step.nodes:
                errors.append(
                    f"step {k}: daemon reports {record[0]['nodes']} nodes, "
                    f"the edited copy has {step.nodes}"
                )
        for k in sorted(self.snapshots):
            record = result.records[k]
            if record is None:
                continue
            step = self.script[k]
            tenant = self.tenants[step.tenant]
            circuit = bench.loads(self.snapshots[k], tenant)
            graph, fresh = _fresh_chains(circuit, step.output)
            label = f"step {k} {tenant}/{step.output}"
            served = record[1]["chains"]
            errors += checks.same_shapes(served, fresh, label)
            names = rng.sample(sorted(fresh), min(self.check_targets, len(fresh)))
            errors += checks.compare_with_baseline(
                graph, {graph.index_of(n): fresh[n] for n in names}, label
            )
        return errors


WORKLOADS = {w.name: w for w in (Table1Sweep, BigCones, DaemonEdits)}
