"""Shared dominator-tree backend: one array index per circuit version.

A literal chain construction rebuilds graph state from scratch for
every search region and every restricted graph ``C − v``: each
:func:`~repro.graph.transform.region_between` call allocates two fresh
boolean arrays and a brand-new :class:`~repro.graph.indexed.IndexedGraph`
(adjacency copies, name lists, a dict mapping back to original ids), and
each FINDMATCHINGVECTOR call would do the same again via
``remove_vertex`` before running Lengauer–Tarjan on the copy.  Profiling
the Table-1 sweep showed those copies — not the dominator arithmetic —
are where the time goes.

This module replaces the copies with **views over shared arrays**:

* :class:`SharedConeIndex` is built once per ``(graph, version,
  algorithm)`` — cached on the graph itself and invalidated by the
  graph's monotone edit counter — and owns epoch-stamped scratch arrays
  so that extracting a search region is two stack walks over the
  existing adjacency with *zero* per-region allocation proportional to
  the cone;
* :class:`RegionView` is the resulting lightweight region graph — plain
  ``succ``/``pred``/``root`` arrays in region-local ids, duck-compatible
  with ``IndexedGraph`` for every read-only algorithm (max-flow,
  dominators);
* restricted-graph ``C − v`` idom chains never materialize a subgraph at
  all: the exclude-capable algorithms (``lt``, ``dsu``/``snca``) simply
  skip the removed vertex during their DFS, which is equivalent to
  deleting it;
* :class:`SharedCircuitIndex` hoists the netlist→int-id conversion of a
  whole multi-output circuit, so the service sweep extracts each output
  cone from one shared adjacency instead of re-walking the string-keyed
  netlist per output.

Region-local vertex ids are assigned in **ascending original-id order**,
exactly like ``IndexedGraph.subgraph`` — this keeps every downstream
tie-break (the ascending-id ordering of a min-cut pair, the layout of
assembled chains, the member lists stored in ``RegionCache``) identical
between the shared index and per-query ``region_between`` extraction,
and between the shared and linear backends, which is what lets the
differential oracle compare them vector-for-vector.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ChainConstructionError, CircuitError, UnknownNodeError
from ..graph.circuit import Circuit
from ..graph.indexed import IndexedGraph
from . import dsu
from .single import circuit_dominator_tree
from .tree import DominatorTree

#: Valid values of the public ``backend=`` parameter.
#:
#: * ``shared`` — region views over one per-version array index, with
#:   max-flow DOUBLEIDOM and scratch-reusing restricted-idom matching
#:   (this module);
#: * ``linear`` — the follow-up paper's linear-time construction
#:   (:mod:`repro.dominators.linear`): shared region extraction, then
#:   one flow-of-two + residual-SCC pass per region instead of
#:   per-pair max-flow and per-element ``C − v`` idom walks.
BACKENDS = ("shared", "linear")


def validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {list(BACKENDS)}"
        )
    return backend


class RegionView:
    """A search region as plain arrays in region-local vertex ids.

    Duck-compatible with the read-only surface of
    :class:`~repro.graph.indexed.IndexedGraph` (``n``/``succ``/``pred``/
    ``root``/``names``/``name_of``) — enough for the max-flow split
    network and the dominator algorithms, without carrying the edit
    machinery, tombstones or name index of the full class.
    """

    __slots__ = ("n", "succ", "_pred", "root", "names")

    def __init__(
        self,
        succ: List[List[int]],
        pred: Optional[List[List[int]]] = None,
        root: int = 0,
        names: Optional[List[Optional[str]]] = None,
    ):
        self.n = len(succ)
        self.succ = succ
        self._pred = pred
        self.root = root
        self.names = names if names is not None else [None] * self.n

    @property
    def pred(self) -> List[List[int]]:
        """Reverse adjacency, derived from ``succ`` on first access.

        The shared fast paths (the split flow network, the topological
        matcher) only read ``succ``, so regions usually never pay for
        this.
        """
        if self._pred is None:
            pred: List[List[int]] = [[] for _ in range(self.n)]
            for v, ws in enumerate(self.succ):
                for w in ws:
                    pred[w].append(v)
            self._pred = pred
        return self._pred

    def name_of(self, v: int) -> str:
        name = self.names[v]
        return name if name is not None else f"#{v}"

    def edge_count(self) -> int:
        return sum(len(adj) for adj in self.succ)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegionView(n={self.n}, e={self.edge_count()}, root={self.root})"


def matching_compute(algorithm: str) -> Callable:
    """The exclude-capable ``compute_idoms`` used for ``C − v`` chains.

    Matching vectors only need *some* correct idom computation — idoms
    are unique, so every algorithm returns the same answer — which frees
    the shared backend to always use the fastest exclude-capable
    variant: the SNCA/DSU path-compression algorithm
    (:mod:`repro.dominators.dsu`), about twice as fast as Lengauer–
    Tarjan on region-sized graphs.  The ``algorithm`` parameter still
    selects the cone-level dominator tree only.
    """
    del algorithm  # see docstring: shared matching is always SNCA
    return dsu.compute_idoms


def topo_cone_idoms(graph, budget_factor: int = 8) -> Optional[List[int]]:
    """Cone idoms (paper orientation) by one topological sweep.

    Works when vertex ids are a topological order of the cone and every
    vertex reaches the root — the invariants of
    ``IndexedGraph.from_circuit`` — and returns ``None`` whenever either
    is violated (edited graphs, tombstoned vertices), letting the caller
    fall back to a general algorithm.  On a DAG the Cooper–Harvey–
    Kennedy recurrence is exact after a single reverse-topological pass:
    each vertex's idom is the NCA of its successors' already-final
    idoms.  Idoms are unique, so the result equals any other
    algorithm's.

    The sweep's worst case is a deep chain of reconvergent blocks: every
    NCA intersection can walk the whole idom chain below it, and the
    pass degenerates toward O(E·depth) — two minutes at a quarter
    million cascade stages.  The walks are therefore metered against a
    ``budget_factor * edges`` step budget; past it the pass switches to
    the flat-array SNCA of :func:`repro.dominators.dsu.compute_idoms`,
    which is near-linear regardless of depth.
    """
    n = graph.n
    succ = graph.succ
    root = graph.root
    if n == 0 or root != n - 1:
        return None
    # Cheap invariant pre-pass: topological ids + nonempty out-degree
    # below the root together guarantee every vertex reaches the root
    # (induction from high ids down), so the SNCA fallback can start
    # without re-discovering a violation mid-sweep.  ``min(adj) <= v``
    # is one C call per vertex instead of a python loop per edge.
    edges = 0
    for v in range(n - 1):
        adj = succ[v]
        if not adj or min(adj) <= v:
            return None
        edges += len(adj)
    budget = budget_factor * max(edges, 1)
    idom = [0] * n
    idom[root] = root
    for v in range(n - 2, -1, -1):
        a = -1
        for w in succ[v]:
            if a == -1:
                a = w
            elif a != w:
                b = w
                while a != b:
                    if a < b:
                        a = idom[a]
                    else:
                        b = idom[b]
                    budget -= 1
                if budget < 0:
                    # Reversed orientation, exactly as circuit_idoms:
                    # forward reach to the root (verified above) equals
                    # backward reach from it, so no vertex comes back
                    # unreachable and the idoms match the sweep's.
                    return dsu.compute_idoms(
                        n, graph.pred, root, pred=succ
                    )
        idom[v] = a
    return idom


class RegionMatcher:
    """Scratch-reusing FINDMATCHINGVECTOR engine for one search region.

    The pair-expansion loop computes one restricted-graph idom chain per
    chain element — hundreds of calls per region on the Table-1 sweep —
    and each :func:`repro.dominators.dsu.compute_idoms` call allocates
    seven arrays plus the dense idom output that the caller immediately
    re-walks into a short chain.  This class serves the same queries out
    of preallocated epoch-stamped arrays, with two engines:

    * **Topological single pass** (the usual case): when region-local ids
      are a topological order (every edge ascends — guaranteed for
      regions extracted from a ``from_circuit`` cone, whose vertex ids
      are topological), the region is a DAG whose reverse orientation is
      processed root-first in one descending sweep, computing each
      ``idom`` as the nearest common ancestor of the already-final idoms
      of its successors (the Cooper–Harvey–Kennedy recurrence, which
      needs no iteration on acyclic graphs).  No DFS, no semidominators;
      the sweep also stops at ``w_start`` since idoms of
      lower-numbered vertices cannot appear on its chain.
    * **Inlined SNCA fallback**: graphs whose ids are not topological
      (e.g. cones edited in place by the incremental engine) run the
      same semi-NCA computation as :mod:`repro.dominators.dsu` over the
      reused scratch arrays.

    Idoms are unique, so the vectors are identical to what any
    ``compute_idoms(..., exclude=v)`` call would produce, whichever
    engine answers.
    """

    __slots__ = (
        "region",
        "_topo",
        "_epoch",
        "_stamp",
        "_dfn",
        "_vertex",
        "_parent",
        "_semi",
        "_label",
        "_anc",
        "_idom",
        "_iota",
        "_neg",
    )

    def __init__(self, region):
        self.region = region
        n = region.n
        succ = region.succ
        self._topo = region.root == n - 1 and all(
            w > v for v in range(n) for w in succ[v]
        )
        self._epoch = 0
        self._stamp = [0] * n
        self._idom = [0] * n
        if not self._topo:
            self._dfn = [0] * n
            self._vertex = [0] * n
            self._parent = [0] * n
            self._semi = [0] * n
            self._label = [0] * n
            self._anc = [0] * n
            self._iota = list(range(n))
            self._neg = [-1] * n

    def matching_vector(self, excl: int, w_start: int) -> List[int]:
        """Idom chain of ``w_start`` in the region minus ``excl``.

        Returns ``[w_start, idom(w_start), ...]`` up to but excluding the
        region root, in region-local ids — the exact contract of
        :func:`repro.core.matching.find_matching_vector`.
        """
        if not self._topo:
            return self._matching_vector_snca(excl, w_start)
        region = self.region
        succ = region.succ
        root = region.root
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        idom = self._idom
        stamp[root] = epoch
        idom[root] = root
        # Reverse-orientation topological sweep: descending local ids
        # visit every vertex after all its successors, so each NCA
        # intersection runs over final idom values.  A stamped vertex is
        # one that still reaches the root with ``excl`` removed.
        for v in range(region.n - 2, w_start - 1, -1):
            if v == excl:
                continue
            a = -1
            for w in succ[v]:
                if w == excl or stamp[w] != epoch:
                    continue
                if a == -1:
                    a = w
                elif a != w:
                    b = w
                    while a != b:
                        if a < b:
                            a = idom[a]
                        else:
                            b = idom[b]
            if a != -1:
                stamp[v] = epoch
                idom[v] = a
        if stamp[w_start] != epoch:
            raise ChainConstructionError(
                f"partner {w_start} vanished from the region after "
                f"removing {excl}"
            )
        out: List[int] = []
        x = w_start
        while x != root:
            out.append(x)
            x = idom[x]
        return out

    def _matching_vector_snca(self, excl: int, w_start: int) -> List[int]:
        region = self.region
        succ = region.pred  # dominator orientation: root toward leaves
        pred = region.succ
        root = region.root
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        dfn = self._dfn
        vertex = self._vertex
        parent = self._parent

        # Genuine DFS preorder (iterator stack, like repro.dominators.dsu)
        # — the semidominator theory needs a real DFS tree, not just any
        # discovery order.
        stamp[root] = epoch
        dfn[root] = 0
        vertex[0] = root
        parent[0] = 0
        count = 1
        iter_stack = [(0, iter(succ[root]))]
        while iter_stack:
            pv, it = iter_stack[-1]
            advanced = False
            for w in it:
                if w != excl and stamp[w] != epoch:
                    stamp[w] = epoch
                    dfn[w] = count
                    vertex[count] = w
                    parent[count] = pv
                    iter_stack.append((count, iter(succ[w])))
                    count += 1
                    advanced = True
                    break
            if not advanced:
                iter_stack.pop()
        if stamp[w_start] != epoch:
            raise ChainConstructionError(
                f"partner {w_start} vanished from the region after "
                f"removing {excl}"
            )

        r = count
        semi = self._semi
        label = self._label
        anc = self._anc
        semi[:r] = self._iota[:r]
        label[:r] = self._iota[:r]
        anc[:r] = self._neg[:r]
        # Semidominators in DFS-number space with inlined one-array
        # path-compression eval (same recurrence as repro.dominators.dsu).
        for i in range(r - 1, 0, -1):
            w = vertex[i]
            best = semi[i]
            for u in pred[w]:
                if stamp[u] != epoch:
                    continue
                pu = dfn[u]
                a = anc[pu]
                if a != -1 and anc[a] != -1:
                    chain = [pu]
                    x = a
                    while anc[anc[x]] != -1:
                        chain.append(x)
                        x = anc[x]
                    for c in reversed(chain):
                        ca = anc[c]
                        la = label[ca]
                        if semi[la] < semi[label[c]]:
                            label[c] = la
                        anc[c] = anc[ca]
                s = semi[label[pu]]
                if s < best:
                    best = s
            semi[i] = best
            anc[i] = parent[i]
        idom = self._idom
        idom[0] = 0
        for i in range(1, r):
            j = parent[i]
            s = semi[i]
            while j > s:
                j = idom[j]
            idom[i] = j

        out: List[int] = []
        x = dfn[w_start]
        while x:
            out.append(vertex[x])
            x = idom[x]
        return out


class SharedConeIndex:
    """Immutable per-version index of one cone, shared across queries.

    Owns the epoch-stamped scratch arrays that make region extraction
    allocation-free: ``_reach``/``_coreach``/``_local`` are ``int`` stamp
    arrays the size of the cone, validated against a monotone epoch
    counter instead of being cleared between regions.
    """

    __slots__ = (
        "graph",
        "version",
        "algorithm",
        "kernels",
        "_tree",
        "_kernel_index",
        "_epoch",
        "_reach",
        "_coreach",
        "_local",
    )

    def __init__(
        self,
        graph: IndexedGraph,
        algorithm: str = "lt",
        kernels: str = "python",
    ):
        from .kernels import require_numpy, validate_kernels

        validate_kernels(kernels)
        if kernels == "numpy":
            require_numpy()
        self.graph = graph
        self.version = graph.version
        self.algorithm = algorithm
        self.kernels = kernels
        self._tree: Optional[DominatorTree] = None
        self._kernel_index = None
        self._epoch = 0
        self._reach = [0] * graph.n
        self._coreach = [0] * graph.n
        self._local = [0] * graph.n

    @classmethod
    def for_graph(
        cls,
        graph: IndexedGraph,
        algorithm: str = "lt",
        kernels: str = "python",
    ) -> "SharedConeIndex":
        """The cached index of ``graph`` at its current version.

        Indexes are cached per ``(algorithm, kernels)`` key, so
        alternating configurations on the same graph version (the
        oracle's cross-checks, interleaved service queries) reuse both
        indexes instead of rebuilding on every switch.  An edit bumps
        ``graph.version`` and drops the whole cache at once.
        """
        cached = graph._shared_index
        if not isinstance(cached, dict) or cached.get("version") != graph.version:
            cached = {"version": graph.version}
            graph._shared_index = cached
        key = (algorithm, kernels)
        index = cached.get(key)
        if index is None:
            index = cls(graph, algorithm, kernels)
            cached[key] = index
        return index

    @property
    def tree(self) -> DominatorTree:
        """Cone dominator tree, computed once per graph version.

        Uses the single-pass topological sweep when the graph's ids are
        topological (idoms are unique, so the tree is identical to what
        ``self.algorithm`` would build); otherwise defers to the
        configured algorithm.  The sweep meters its NCA walks and
        escapes to SNCA on deep chains (same idoms, bounded worst
        case), so both kernels settings share one tree pass.
        """
        if self._tree is None:
            idoms = topo_cone_idoms(self.graph)
            if idoms is not None:
                self._tree = DominatorTree(idoms, self.graph.root)
            else:
                self._tree = circuit_dominator_tree(
                    self.graph, self.algorithm
                )
        return self._tree

    def kernel_index(self):
        """The cone's :class:`~repro.dominators.kernels.KernelConeIndex`.

        Built lazily on the first region wide enough to clear
        ``MIN_KERNEL_REGION`` — a cone whose chain regions are all
        narrow (the common case for deep, skinny circuits) never pays
        for the level sort or the CSR build.
        """
        self._check_fresh()
        if self._kernel_index is None:
            from .kernels import KernelConeIndex

            self._kernel_index = KernelConeIndex(self.graph)
        return self._kernel_index

    def _check_fresh(self) -> None:
        if self.graph.version != self.version:
            raise CircuitError(
                "shared index is stale: the graph was edited after the "
                "index was built (rebuild via SharedConeIndex.for_graph)"
            )

    def extract_region(self, start: int, sink: int):
        """The search region between ``start`` and ``sink`` as a view.

        Returns ``(view, orig_of, local_start)`` where ``view`` is a
        :class:`RegionView` rooted at ``sink`` and ``orig_of`` maps
        ascending region-local ids back to cone ids — the same contract
        (and the same ordering) as ``region_between`` + ``subgraph``.
        """
        self._check_fresh()
        if start == sink:
            # A vertex trivially reaches itself, but a region needs a
            # path of length >= 1 — report this precisely instead of
            # pretending the sink is unreachable.
            raise CircuitError(
                "region start and sink are the same vertex"
            )
        graph = self.graph
        succ, pred = graph.succ, graph.pred
        self._epoch += 1
        epoch = self._epoch
        reach, coreach = self._reach, self._coreach

        # Forward walk pruned at the sink: paths continuing past ``sink``
        # can never return to it (the graph is a DAG), so expanding the
        # sink's successors only visits vertices the coreach pass would
        # discard anyway.  For chain regions — where ``sink`` dominates
        # ``start`` — this skips the entire downstream cone.
        reach[start] = epoch
        stack = [start]
        while stack:
            v = stack.pop()
            for w in succ[v]:
                if reach[w] != epoch:
                    reach[w] = epoch
                    if w != sink:
                        stack.append(w)
        if reach[sink] != epoch:
            raise CircuitError("sink is not reachable from start")

        # Backward walk restricted to reach-marked vertices: any vertex
        # that reaches ``sink`` *through* reach-marked vertices is itself
        # on a start→sink path, and every suffix of such a path is
        # reach-marked, so the restriction loses nothing.
        coreach[sink] = epoch
        members = [sink]
        stack = [sink]
        while stack:
            v = stack.pop()
            for w in pred[v]:
                if reach[w] == epoch and coreach[w] != epoch:
                    coreach[w] = epoch
                    members.append(w)
                    stack.append(w)
        members.sort()

        local = self._local
        for i, v in enumerate(members):
            local[v] = i
        names = graph.names
        succ_local = [
            [local[w] for w in succ[v] if coreach[w] == epoch]
            for v in members
        ]
        view = RegionView(
            succ_local,
            root=local[sink],
            names=[names[v] for v in members],
        )
        return view, members, local[start]


# ----------------------------------------------------------------------
# whole-circuit index (service layer)
# ----------------------------------------------------------------------
_CIRCUIT_INDEXES: "weakref.WeakKeyDictionary[Circuit, SharedCircuitIndex]" = (
    weakref.WeakKeyDictionary()
)


class SharedCircuitIndex:
    """Int-id adjacency of a whole multi-output netlist, built once.

    ``IndexedGraph.from_circuit`` re-walks the string-keyed netlist (one
    topological sort plus dict lookups per fanin) for every output; a
    service sweep over *k* outputs pays that *k* times.  This index pays
    it once and then extracts each output cone with a single backward
    walk over int arrays, producing an ``IndexedGraph`` identical (same
    vertex order, same names) to what ``from_circuit`` would build.
    """

    __slots__ = ("order", "index", "succ", "pred", "_size")

    def __init__(self, circuit: Circuit):
        self.order: List[str] = list(circuit.topological_order())
        self.index: Dict[str, int] = {
            nm: i for i, nm in enumerate(self.order)
        }
        n = len(self.order)
        self.succ: List[List[int]] = [[] for _ in range(n)]
        self.pred: List[List[int]] = [[] for _ in range(n)]
        for nm in self.order:
            i = self.index[nm]
            for driver in circuit.fanins(nm):
                d = self.index[driver]
                self.succ[d].append(i)
                self.pred[i].append(d)
        self._size = len(circuit)

    @classmethod
    def for_circuit(cls, circuit: Circuit) -> "SharedCircuitIndex":
        cached = _CIRCUIT_INDEXES.get(circuit)
        if cached is not None and cached._size == len(circuit):
            return cached
        index = cls(circuit)
        _CIRCUIT_INDEXES[circuit] = index
        return index

    def cone(self, output: str) -> IndexedGraph:
        """The fanin-cone ``IndexedGraph`` of one output."""
        try:
            root = self.index[output]
        except KeyError:
            raise UnknownNodeError(f"no node named {output!r}") from None
        seen = [False] * len(self.order)
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for d in self.pred[v]:
                if not seen[d]:
                    seen[d] = True
                    stack.append(d)
        # Ascending over a topological numbering == topological order,
        # matching IndexedGraph.from_circuit's vertex ordering exactly.
        members = [v for v in range(len(self.order)) if seen[v]]
        local = {v: i for i, v in enumerate(members)}
        succ = [
            [local[w] for w in self.succ[v] if seen[w]] for v in members
        ]
        return IndexedGraph(
            succ,
            root=local[root],
            names=[self.order[v] for v in members],
        )


def cone_graph(circuit: Circuit, output: Optional[str] = None) -> IndexedGraph:
    """Shared-index replacement for ``IndexedGraph.from_circuit``."""
    if output is None:
        outs = circuit.outputs
        if len(outs) != 1:
            raise CircuitError(
                f"circuit {circuit.name!r} has {len(outs)} outputs; "
                "specify which cone to extract"
            )
        output = outs[0]
    return SharedCircuitIndex.for_circuit(circuit).cone(output)


__all__ = [
    "BACKENDS",
    "RegionMatcher",
    "RegionView",
    "SharedCircuitIndex",
    "SharedConeIndex",
    "cone_graph",
    "matching_compute",
    "topo_cone_idoms",
    "validate_backend",
]
