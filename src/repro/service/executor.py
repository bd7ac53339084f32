"""The :class:`ParallelExecutor` — worker-pool dominator-chain sweeps.

Each output cone of a circuit is an independent single-root DAG, so the
Table-1 workload parallelises across cones with zero shared state.  The
executor fans per-cone DOMINATORCHAIN jobs across a
:mod:`multiprocessing` pool:

* **chunked dispatch** — cones are grouped into chunks that share one
  pickled copy of their circuit, amortising serialisation over the
  chunk (a circuit with 100 outputs ships once, not 100 times);
* **per-chunk timeouts** — a chunk that exceeds its deadline is
  abandoned in the pool and recomputed in-process, so one pathological
  cone cannot wedge a sweep;
* **graceful fallback** — ``jobs <= 1``, a platform without working
  ``multiprocessing`` primitives, or a pool-level failure all degrade
  to plain in-process execution with identical results;
* **determinism** — results are collected in submission order and the
  per-cone chain dictionaries are bit-identical to what a sequential
  :class:`~repro.core.algorithm.ChainComputer` produces (the property
  suite asserts this pair-for-pair and vector-for-vector).

Workers run their own :class:`~repro.service.metrics.MetricsRegistry`
and return its snapshot with each chunk; the parent folds the snapshots
into its registry, so ``core.chain_seconds`` observed inside workers is
visible in the final export.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.algorithm import ChainComputer
from ..dominators.kernels import validate_kernels
from ..dominators.shared import cone_graph, validate_backend
from ..graph.circuit import Circuit
from ..graph.indexed import IndexedGraph
from .artifacts import ArtifactStore
from .hashing import circuit_fingerprint
from .jobs import Batch
from .metrics import MetricsRegistry

#: One dispatched cone job: output name plus explicit targets (None =
#: every primary input of the cone).
ConeJob = Tuple[str, Optional[Tuple[str, ...]]]


def sequential_cone_chains(
    circuit: Circuit,
    output: str,
    targets: Optional[Sequence[str]] = None,
    metrics: Optional[MetricsRegistry] = None,
    backend: str = "shared",
    kernels: str = "python",
) -> Dict[str, Dict[str, object]]:
    """Chains of one output cone, serialized — the unit of all execution.

    This single code path backs the worker processes, the in-process
    fallback, and the sequential reference in tests, which is what makes
    "parallel == sequential" hold by construction.

    With ``backend="shared"`` the cone itself comes out of the circuit's
    :class:`~repro.dominators.shared.SharedCircuitIndex`, so a sweep over
    *k* outputs converts the string-keyed netlist to int adjacency once
    instead of *k* times.
    """
    if backend == "shared":
        graph = cone_graph(circuit, output)
    else:
        graph = IndexedGraph.from_circuit(circuit, output)
    computer = ChainComputer(
        graph,
        metrics=metrics,
        backend=backend,
        kernels=kernels,
    )
    if targets is None:
        indices = graph.sources()
    else:
        indices = [graph.index_of(t) for t in targets]
    chains: Dict[str, Dict[str, object]] = {}
    for u in indices:
        name = graph.name_of(u)
        chains[name if name is not None else str(u)] = (
            computer.chain(u).to_dict()
        )
    return chains


def pairs_in_chain_dict(chain_dict: Dict[str, object]) -> int:
    """Number of dominator pairs encoded by one serialized chain."""
    intervals = chain_dict["intervals"]
    total = 0
    for pair in chain_dict["pairs"]:  # type: ignore[union-attr]
        for v in pair["side1"]:
            lo, hi = intervals[str(v)]  # type: ignore[index]
            total += hi - lo + 1
    return total


def _process_chunk(payload):
    """Worker entry: compute every cone job of one chunk.

    ``payload`` is ``(circuit, cone_jobs, backend, kernels)``, where the
    circuit slot is either a pickled :class:`Circuit` or a
    :class:`~repro.daemon.shm.CircuitRef` into a published
    shared-memory segment (resolved through the worker-local attach
    cache, so repeated chunks for one circuit version decode it once).
    The return value is
    ``([(output, chains, wall_seconds), ...], metrics_snapshot)``.
    """
    circuit, cone_jobs, backend, kernels = payload
    registry = MetricsRegistry()
    if not isinstance(circuit, Circuit):
        from ..daemon.shm import attach_circuit

        circuit = attach_circuit(circuit)
        registry.inc("executor.shm_attaches")
    results = []
    for output, targets in cone_jobs:
        start = time.perf_counter()
        chains = sequential_cone_chains(
            circuit,
            output,
            targets,
            metrics=registry,
            backend=backend,
            kernels=kernels,
        )
        wall = time.perf_counter() - start
        registry.observe("executor.job_seconds", wall)
        results.append((output, chains, wall))
    return results, registry.snapshot()


def _chunk_entry(payload):
    """Stable pool target that defers to the current ``_process_chunk``.

    The indirection lets tests substitute the chunk body (slow/failing
    workers) via plain module monkeypatching under the fork start
    method.
    """
    return _process_chunk(payload)


@dataclass
class ExecutorConfig:
    """Tuning knobs of one executor.

    Attributes
    ----------
    jobs:
        Worker process count; ``1`` means in-process execution.
        Zero or negative counts are rejected (``ValueError``).
    timeout:
        Per-cone time budget in seconds; a chunk's deadline is
        ``timeout * len(chunk)``.  ``None`` disables timeouts;
        negative budgets are rejected (``ValueError``).
    chunk_size:
        Cones per dispatched chunk; ``None`` picks
        ``ceil(n_cones / (4 * jobs))`` so each worker sees ~4 chunks
        (good balance between pickling overhead and tail latency).
    start_method:
        ``multiprocessing`` start method; ``None`` prefers ``fork``
        where available (cheap on Linux) and falls back to the platform
        default.
    backend:
        Chain-construction backend used by every cone job
        (``"shared"`` default, or ``"linear"``).
    kernels:
        Hot-path implementation selector forwarded to every
        :class:`~repro.core.algorithm.ChainComputer`: ``"python"``
        (default) or ``"numpy"`` (flat-array kernels from
        :mod:`repro.dominators.kernels`; identical chains).
    shared_circuits:
        Publish each circuit to a :mod:`multiprocessing.shared_memory`
        segment once (via :class:`repro.daemon.shm.SharedCircuitPool`)
        and ship workers a tiny ref per chunk instead of pickling the
        netlist into every task payload.  Falls back to pickled
        dispatch when shared memory is unavailable.  Call
        :meth:`ParallelExecutor.close` (or use the executor as a
        context manager) to unlink the segments.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    chunk_size: Optional[int] = None
    start_method: Optional[str] = None
    backend: str = "shared"
    shared_circuits: bool = False
    kernels: str = "python"

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        validate_kernels(self.kernels)
        if self.jobs <= 0:
            raise ValueError(
                f"jobs must be a positive integer, got {self.jobs}"
            )
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(
                f"timeout must be non-negative, got {self.timeout}"
            )
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be a positive integer, got {self.chunk_size}"
            )


@dataclass
class ConeResult:
    """Chains of one cone plus how they were obtained."""

    output: str
    chains: Dict[str, Dict[str, object]]
    wall: float
    source: str  # "parallel" | "inprocess" | "artifact"

    @property
    def num_pairs(self) -> int:
        return sum(pairs_in_chain_dict(c) for c in self.chains.values())


@dataclass
class CircuitSweep:
    """Per-circuit roll-up of one sweep."""

    name: str
    circuit_key: str
    cones: int
    chains: int
    pairs: int
    wall: float
    artifact_hits: int


@dataclass
class SweepReport:
    """Everything a sweep produced, ready for rendering/JSON."""

    circuits: List[CircuitSweep] = field(default_factory=list)
    jobs: int = 1
    total_wall: float = 0.0

    @property
    def total_pairs(self) -> int:
        return sum(c.pairs for c in self.circuits)

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "total_wall": self.total_wall,
            "total_pairs": self.total_pairs,
            "circuits": [
                {
                    "name": c.name,
                    "circuit": c.circuit_key,
                    "cones": c.cones,
                    "chains": c.chains,
                    "pairs": c.pairs,
                    "wall": c.wall,
                    "artifact_hits": c.artifact_hits,
                }
                for c in self.circuits
            ],
        }


class ParallelExecutor:
    """Fans per-cone dominator-chain jobs across a process pool.

    Parameters
    ----------
    config:
        Pool size, timeouts, chunking (see :class:`ExecutorConfig`).
    metrics:
        Registry receiving ``executor.*`` counters, worker-side
        ``core.*`` observations, and (through the store) ``artifacts.*``.
    store:
        Optional :class:`~repro.service.artifacts.ArtifactStore`;
        when present, cones already stored under the circuit's current
        version are served from disk and fresh results are persisted.
    """

    def __init__(
        self,
        config: Optional[ExecutorConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self.config = config or ExecutorConfig()
        self.metrics = metrics or MetricsRegistry()
        self.store = store
        self._shm_pool = None

    def close(self) -> None:
        """Unlink any shared-memory segments this executor published."""
        if self._shm_pool is not None:
            self._shm_pool.close()
            self._shm_pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _shared_payload(self, circuit: Circuit):
        """The circuit slot of chunk payloads: a shm ref, or the circuit.

        Publishing happens once per circuit version; any shared-memory
        failure degrades to pickled dispatch (counted, never fatal).
        """
        if not self.config.shared_circuits:
            return circuit
        from ..daemon.shm import SharedCircuitPool, SharedMemoryUnavailable

        try:
            if self._shm_pool is None:
                self._shm_pool = SharedCircuitPool(self.metrics)
            return self._shm_pool.publish(
                circuit, circuit_fingerprint(circuit)
            )
        except SharedMemoryUnavailable:
            self.metrics.inc("executor.shm_fallbacks")
            return circuit

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def sweep_circuit(
        self,
        circuit: Circuit,
        outputs: Optional[Sequence[str]] = None,
        circuit_key: Optional[str] = None,
        targets_by_output: Optional[Dict[str, Optional[Tuple[str, ...]]]] = None,
    ) -> List[ConeResult]:
        """Chains of every requested cone, in output order.

        ``targets_by_output`` restricts individual cones to explicit
        target lists (the batch-serving path); unlisted cones default to
        all primary inputs.
        """
        cone_names = list(outputs) if outputs is not None else circuit.outputs
        key = circuit_key or circuit_fingerprint(circuit)
        targets_by_output = targets_by_output or {}

        results: Dict[str, ConeResult] = {}
        pending: List[ConeJob] = []
        for output in cone_names:
            targets = targets_by_output.get(output)
            cached = None
            # Only all-target artifacts are stored/served: partial target
            # sets would poison later all-target reads.
            if self.store is not None and targets is None:
                cached = self.store.get(key, output)
            if cached is not None:
                results[output] = ConeResult(output, cached, 0.0, "artifact")
            else:
                pending.append((output, targets))
        self.metrics.inc("executor.jobs_submitted", len(pending))

        for output, chains, wall, source in self._execute(circuit, pending):
            results[output] = ConeResult(output, chains, wall, source)
            targets = targets_by_output.get(output)
            if self.store is not None and targets is None:
                self.store.put(key, output, chains)
        self.metrics.inc("executor.jobs_completed", len(pending))
        return [results[output] for output in cone_names]

    def run_batches(
        self, circuits: Dict[str, Circuit], batches: Sequence[Batch]
    ) -> Dict[Tuple[str, str], ConeResult]:
        """Execute drained :class:`~repro.service.jobs.Batch` records.

        ``circuits`` maps circuit fingerprints to loaded netlists.
        Returns ``{(circuit_key, output): ConeResult}``.
        """
        by_circuit: Dict[str, List[Batch]] = {}
        for batch in batches:
            by_circuit.setdefault(batch.circuit_key, []).append(batch)
        out: Dict[Tuple[str, str], ConeResult] = {}
        for key, group in by_circuit.items():
            circuit = circuits[key]
            cone_results = self.sweep_circuit(
                circuit,
                outputs=[b.output for b in group],
                circuit_key=key,
                targets_by_output={b.output: b.targets for b in group},
            )
            for result in cone_results:
                out[(key, result.output)] = result
        return out

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _execute(self, circuit: Circuit, cone_jobs: List[ConeJob]):
        """Yield ``(output, chains, wall, source)`` in submission order."""
        if not cone_jobs:
            return
        if self.config.jobs <= 1 or len(cone_jobs) == 1:
            yield from self._run_inprocess(circuit, cone_jobs)
            return

        chunks = self._chunk(cone_jobs)
        try:
            context = self._context()
            pool = context.Pool(processes=min(self.config.jobs, len(chunks)))
        except (ImportError, OSError, ValueError):
            # No usable multiprocessing on this platform (e.g. missing
            # POSIX semaphores): serve everything in-process.
            self.metrics.inc("executor.pool_fallbacks")
            yield from self._run_inprocess(circuit, cone_jobs)
            return

        payload_circuit = self._shared_payload(circuit)
        try:
            handles = [
                pool.apply_async(
                    _chunk_entry,
                    (
                        (
                            payload_circuit,
                            chunk,
                            self.config.backend,
                            self.config.kernels,
                        ),
                    ),
                )
                for chunk in chunks
            ]
            self.metrics.inc("executor.chunks", len(chunks))
            for chunk, handle in zip(chunks, handles):
                deadline = (
                    self.config.timeout * len(chunk)
                    if self.config.timeout is not None
                    else None
                )
                try:
                    chunk_results, snapshot = handle.get(deadline)
                except multiprocessing.TimeoutError:
                    self.metrics.inc("executor.timeouts")
                    yield from self._run_inprocess(circuit, chunk)
                    continue
                except Exception:
                    self.metrics.inc("executor.failures")
                    yield from self._run_inprocess(circuit, chunk)
                    continue
                self.metrics.merge_snapshot(snapshot)
                self.metrics.inc("executor.jobs_parallel", len(chunk))
                for output, chains, wall in chunk_results:
                    yield output, chains, wall, "parallel"
        finally:
            pool.terminate()
            pool.join()

    def _run_inprocess(self, circuit: Circuit, cone_jobs: List[ConeJob]):
        for output, targets in cone_jobs:
            start = time.perf_counter()
            chains = sequential_cone_chains(
                circuit,
                output,
                targets,
                metrics=self.metrics,
                backend=self.config.backend,
                kernels=self.config.kernels,
            )
            wall = time.perf_counter() - start
            self.metrics.observe("executor.job_seconds", wall)
            self.metrics.inc("executor.jobs_inprocess")
            yield output, chains, wall, "inprocess"

    def _chunk(self, cone_jobs: List[ConeJob]) -> List[List[ConeJob]]:
        size = self.config.chunk_size
        if size is None:
            size = max(1, -(-len(cone_jobs) // (4 * self.config.jobs)))
        return [
            cone_jobs[i : i + size] for i in range(0, len(cone_jobs), size)
        ]

    def _context(self):
        method = self.config.start_method
        if method is not None:
            return multiprocessing.get_context(method)
        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            return multiprocessing.get_context()


def sweep_suite(
    executor: ParallelExecutor,
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    verbose: bool = False,
) -> SweepReport:
    """Run the executor over the built-in Table-1 circuit suite."""
    import sys

    from ..circuits.suite import table1_suite

    suite = table1_suite()
    selected = list(names) if names else list(suite)
    report = SweepReport(jobs=executor.config.jobs)
    sweep_start = time.perf_counter()
    for name in selected:
        if verbose:
            print(f"  sweeping {name} ...", file=sys.stderr, flush=True)
        circuit = suite[name].circuit(scale)
        key = circuit_fingerprint(circuit)
        start = time.perf_counter()
        cone_results = executor.sweep_circuit(circuit, circuit_key=key)
        wall = time.perf_counter() - start
        report.circuits.append(
            CircuitSweep(
                name=name,
                circuit_key=key,
                cones=len(cone_results),
                chains=sum(len(r.chains) for r in cone_results),
                pairs=sum(r.num_pairs for r in cone_results),
                wall=wall,
                artifact_hits=sum(
                    1 for r in cone_results if r.source == "artifact"
                ),
            )
        )
    report.total_wall = time.perf_counter() - sweep_start
    return report


def sweep_sequential_suite(
    executor: ParallelExecutor,
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    view: Tuple[str, int] = ("core", 0),
    verbose: bool = False,
) -> SweepReport:
    """Run the executor over the built-in sequential circuit suite.

    Each :class:`~repro.circuits.suite.SequentialEntry` is lowered to a
    plain netlist first: ``view=("core", 0)`` analyzes the flop-cut
    combinational core (one cone per primary output and per next-state
    function), ``view=("unroll", N)`` analyzes the ``N``-frame
    time-frame unrolling (per-frame primary outputs plus the final
    next-state cut).  Row names carry the view suffix so reports from
    different views never collide.
    """
    import sys

    from ..circuits.suite import sequential_suite
    from ..graph.sequential import extract_combinational_core, unrolled

    mode, frames = view
    if mode not in ("core", "unroll"):
        raise ValueError(f"unknown sequential view {mode!r}")
    suite = sequential_suite()
    selected = list(names) if names else list(suite)
    report = SweepReport(jobs=executor.config.jobs)
    sweep_start = time.perf_counter()
    for name in selected:
        label = name if mode == "core" else f"{name}:u{frames}"
        if verbose:
            print(f"  sweeping {label} ...", file=sys.stderr, flush=True)
        sequential = suite[name].sequential(scale)
        if mode == "core":
            circuit = extract_combinational_core(sequential)
        else:
            circuit = unrolled(sequential, frames)
        key = circuit_fingerprint(circuit)
        start = time.perf_counter()
        cone_results = executor.sweep_circuit(circuit, circuit_key=key)
        wall = time.perf_counter() - start
        report.circuits.append(
            CircuitSweep(
                name=label,
                circuit_key=key,
                cones=len(cone_results),
                chains=sum(len(r.chains) for r in cone_results),
                pairs=sum(r.num_pairs for r in cone_results),
                wall=wall,
                artifact_hits=sum(
                    1 for r in cone_results if r.source == "artifact"
                ),
            )
        )
    report.total_wall = time.perf_counter() - sweep_start
    return report
