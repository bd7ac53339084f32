"""Span recorder for the traced (``--trace 1``) run.

Wrappers replace a function at the name its caller looks it up under
(a module global or a class attribute), open a span around each call
and count at the same place.  Spans nest: a layer's self time is its
span's duration minus the part covered by its child spans, so the self
times of all layers add up to the traced wall time without double
counting.  A wrapped name that no longer exists is recorded as absent
instead of raising, so the benchmark keeps running when a later change
renames or deletes a function.

Nothing here is installed during an untraced run.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Per-metric self time and counts, accumulated from nested spans."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.absent: List[str] = []
        # Each frame: [start, child_seconds].
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # spans and counts
    # ------------------------------------------------------------------
    def begin(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def end(self, metric: str) -> None:
        start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.seconds[metric] = (
            self.seconds.get(metric, 0.0) + duration - children
        )
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, metric: str, amount: int = 1) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + amount

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        target: str,
        metric: Optional[str],
        counter: Optional[Callable] = None,
    ) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` in a span.

        ``metric`` names the span (``None`` counts without timing);
        ``metric`` may also be a callable ``(args, kwargs) -> name`` to
        split one function's time by its arguments.  ``counter`` is
        called as ``counter(tracer, result, args, kwargs)`` after each
        call.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            raw = (
                owner.__dict__[attr]
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
        except (ImportError, AttributeError, KeyError):
            self.absent.append(target)
            return
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        def traced(*args, **kwargs):
            name = metric(args, kwargs) if callable(metric) else metric
            if name is not None:
                tracer.begin()
            try:
                result = func(*args, **kwargs)
            finally:
                if name is not None:
                    tracer.end(name)
            if counter is not None:
                counter(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._undo.append(lambda: setattr(owner, attr, raw))

    @contextlib.contextmanager
    def span(self, metric: str):
        """Time a block of the benchmark's own code."""
        self.begin()
        try:
            yield
        finally:
            self.end(metric)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _add(metric: str, measure: Callable = lambda result: 1) -> Callable:
    def counter(tracer, result, args, kwargs):
        tracer.count(metric, measure(result))

    return counter


def _count_cone(tracer, result, args, kwargs):
    tracer.count("graph.cones")
    tracer.count("graph.cone_vertices", result.n)


def _count_region(tracer, result, args, kwargs):
    tracer.count("shared.regions")
    tracer.count("shared.region_vertices", len(result[1]))


def _daemon_op(args, kwargs) -> str:
    request = args[1] if len(args) > 1 else kwargs["request"]
    if request.op in ("edit", "chain"):
        return f"daemon.{request.op}_self_s"
    return "daemon.other_self_s"


#: (wrapped name, span metric, counter) for every layer of the chain
#: system, keyed by the layer names of the per-layer metric table.
WRAPPERS = [
    # parsers
    ("repro.parsers.bench:load", "parsers.parse_s", None),
    (
        "repro.parsers.bench:loads",
        "parsers.parse_s",
        _add("parsers.nodes", len),
    ),
    # cone extraction
    (
        "repro.dominators.shared:cone_graph",
        "graph.cone_s",
        _count_cone,
    ),
    (
        "repro.service.executor:cone_graph",
        "graph.cone_s",
        _count_cone,
    ),
    (
        "repro.graph.indexed:IndexedGraph.from_circuit",
        "graph.cone_s",
        _count_cone,
    ),
    # single-vertex dominator trees
    (
        "repro.dominators.shared:topo_cone_idoms",
        "dominators.tree_s",
        _add("dominators.trees"),
    ),
    (
        "repro.dominators.shared:circuit_dominator_tree",
        "dominators.tree_s",
        _add("dominators.trees"),
    ),
    (
        "repro.core.algorithm:circuit_dominator_tree",
        "dominators.tree_s",
        _add("dominators.trees"),
    ),
    (
        "repro.incremental.engine:circuit_dominator_tree",
        "dominators.tree_s",
        _add("dominators.trees"),
    ),
    # region extraction over the shared cone index
    (
        "repro.dominators.shared:SharedConeIndex.extract_region",
        "shared.extract_region_s",
        _count_region,
    ),
    # per-region pair construction
    (
        "repro.flow.vertex_cut:RegionCutSolver.min_cut",
        "flow.min_cut_s",
        _add("flow.min_cuts"),
    ),
    (
        "repro.core.algorithm:expand_pair",
        "core.expand_pair_s",
        _add("core.expand_pairs"),
    ),
    (
        "repro.core.algorithm:region_chain_pairs",
        "linear.region_s",
        _add("linear.regions"),
    ),
    (
        "repro.dominators.kernels:kernel_expand_region",
        "kernels.region_s",
        _add("kernels.regions"),
    ),
    # chain construction, region cache, assembly, serialization
    (
        "repro.core.algorithm:ChainComputer.chain",
        "core.chain_self_s",
        _add("core.chains"),
    ),
    (
        "repro.core.region_cache:RegionCache.lookup",
        None,
        lambda tracer, result, args, kwargs: tracer.count(
            "core.region_cache_hits"
            if result is not None
            else "core.region_cache_misses"
        ),
    ),
    ("repro.core.algorithm:DominatorChain", "core.assemble_s", None),
    ("repro.core.chain:DominatorChain.to_dict", "core.to_dict_s", None),
    # executor cone jobs
    (
        "repro.service.executor:sequential_cone_chains",
        "service.cone_job_self_s",
        _add("service.cone_jobs"),
    ),
    # incremental engine
    (
        "repro.incremental.engine:IncrementalEngine.apply",
        "incremental.apply_s",
        lambda tracer, result, args, kwargs: tracer.count(
            "incremental.edits", len(args) - 1
        ),
    ),
    (
        "repro.incremental.engine:IncrementalEngine.flush",
        "incremental.flush_s",
        None,
    ),
    (
        "repro.incremental.engine:IncrementalEngine.check_certificate",
        "incremental.certificate_s",
        None,
    ),
    (
        "repro.incremental.engine:invalidate_dirty",
        None,
        _add("incremental.regions_invalidated", int),
    ),
    (
        "repro.core.region_cache:RegionCache.invalidate_touching",
        None,
        _add("incremental.regions_invalidated", int),
    ),
    # daemon dispatch
    (
        "repro.daemon.admission:AdmissionController.admit",
        "daemon.admission_s",
        None,
    ),
    (
        "repro.daemon.service:DaemonService.handle",
        _daemon_op,
        _add("daemon.requests"),
    ),
]


def install(tracer: Tracer) -> Tracer:
    """Install every wrapper of :data:`WRAPPERS` on ``tracer``."""
    for target, metric, counter in WRAPPERS:
        tracer.wrap(target, metric, counter)
    return tracer
