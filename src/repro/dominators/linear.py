"""Linear-time double-dominator construction (``backend="linear"``).

The paper's original algorithm (and both existing backends) pays, per
search region, one max-flow run per chain *pair* (DOUBLEIDOM) plus one
restricted-graph ``C − v`` dominator computation per chain *element*
(FINDMATCHINGVECTOR) — ``O(chain size × region size)`` in the worst
case.  The authors' follow-up paper ("A Linear-Time Algorithm for
Finding All Double-Vertex Dominators of a Given Vertex", PAPERS.md,
arXiv:1503.04994) shows both are unnecessary: all double-vertex
dominators of the region entry can be read off **one** linear pass over
the region.  This module implements that construction:

1. **Two internally vertex-disjoint entry→sink paths** ``P1``/``P2``
   are found with exactly two augmentation passes over the vertex-split
   region (unit capacity on interior vertices) — ``O(E)``, never more
   augmentations regardless of region connectivity.  Every double
   dominator ``{a, b}`` is a size-two vertex cut, each disjoint path
   must cross it, and a single vertex cannot lie on both paths, so
   ``a`` and ``b`` sit one on each path: the chain's two *sides* are
   subsequences of ``P1`` and ``P2``.
2. **Picard–Queyranne closure analysis** of the residual graph: with a
   flow of two, the size-two cuts are exactly the residual closures
   whose boundary is one saturated split arc per path.  Behind the
   ``k``-th saturated arc of ``P1`` sits the residual strongly
   connected component ``Z_k`` (``Z_0`` holds the entry), and a closure
   can cut ``P1`` at arc ``i`` only if no ``Z_k`` with ``k < i``
   residually reaches ``Z_i`` or beyond.  The needed "highest chain
   index reachable" labels ``z(x)``/``w(x)`` are computed *without*
   condensing components: one multi-source reverse-residual traversal
   per path, seeded from the chain anchors in descending index order,
   labels every node with the highest anchor it reaches — each node is
   visited once, ``O(V + E)`` total.
3. **Prefix maxima + a two-pointer sweep** over the two chains then
   yield, for every cut vertex, the exact *interval* of its partners on
   the opposite path — the matching intervals of Definition 3 — and the
   chain-pair grouping falls out of the interval staircase (a new
   ``{V_1k, V_2k}`` pair starts exactly where consecutive intervals
   stop overlapping).

Everything after the two augmentation passes is plain linear scans, so
one region costs ``O(V + E)`` total — no per-pair flow restarts, no
per-element dominator recomputation.  The output is *bit-identical* to
the shared backend (same pair vectors, same intervals, same chain-pair
grouping and side orientation): the pair set determines the chain
layout — sides are ordered along the paths, pairs are the connected
components of the matching relation, and each pair's side 1 is the side
holding the smaller region-local id of its immediate pair, exactly the
ascending-id tie-break of DOUBLEIDOM — which is what lets the
differential oracle compare the two backends vector-for-vector.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ChainConstructionError

#: ``(side1, side2, intervals)`` in region-local ids — the contract of
#: ``repro.core.algorithm._expand_region`` before orig-id mapping.
LocalRegionPair = Tuple[List[int], List[int], Dict[int, Tuple[int, int]]]


class _StampedArray:
    """An int work array validated by a monotone epoch, grown on demand.

    ``begin(n)`` bumps the epoch and guarantees capacity ``n``; entries
    with ``stamp[x] != epoch`` are logically unset (no O(n) clear
    between uses — the same trick as
    :class:`repro.dominators.shared.SharedConeIndex`'s region scratch).
    """

    __slots__ = ("stamp", "value", "epoch")

    def __init__(self) -> None:
        self.stamp: List[int] = []
        self.value: List[int] = []
        self.epoch = 0

    def begin(self, n: int) -> int:
        """Reserve capacity ``n`` and return the fresh epoch."""
        if len(self.stamp) < n:
            grow = max(n, 2 * len(self.stamp)) - len(self.stamp)
            self.stamp.extend([0] * grow)
            self.value.extend([0] * grow)
        self.epoch += 1
        return self.epoch


class LinearScratch:
    """Reusable scratch of :func:`region_chain_pairs` across regions.

    One cone's chain walks dozens to hundreds of search regions; the
    per-region work arrays of the linear construction (BFS parent
    edges, the flow-decomposition resume pointers, the two residual
    reachability labelings) would otherwise be reallocated for every
    region.  A :class:`ChainComputer <repro.core.algorithm.ChainComputer>`
    with ``backend="linear"`` owns one instance and threads it through
    every expansion; the arrays grow to the largest region seen and are
    epoch-validated, so reuse needs no clearing and cannot leak state
    between regions (the property suite asserts chains are bit-identical
    with and without reuse).

    The split-network adjacency itself (``adj``/``eto``/``ecap``) is the
    region's edge data and is still built per region — only the
    O(region) *work* arrays are pooled here.
    """

    __slots__ = ("work", "zlab", "wlab")

    def __init__(self) -> None:
        self.work = _StampedArray()  # BFS parents, then resume pointers
        self.zlab = _StampedArray()  # P1 reachability labels
        self.wlab = _StampedArray()  # P2 reachability labels


def _augment(adj, eto, ecap, source, target, nnodes, work) -> bool:
    """One BFS augmentation over the split residual graph (unit flow)."""
    epoch = work.begin(nnodes)
    stamp = work.stamp
    parent_edge = work.value
    stamp[source] = epoch
    parent_edge[source] = -2
    queue = [source]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        if x == target:
            break
        for k in adj[x]:
            if ecap[k] > 0:
                y = eto[k]
                if stamp[y] != epoch:
                    stamp[y] = epoch
                    parent_edge[y] = k
                    queue.append(y)
    if stamp[target] != epoch:
        return False
    x = target
    while x != source:
        k = parent_edge[x]
        ecap[k] -= 1
        ecap[k ^ 1] += 1
        x = eto[k ^ 1]
    return True


def _reach_labels(adj, eto, ecap, seeds, nnodes, lab) -> int:
    """Label ``x`` with the highest ``k`` s.t. ``x ⇝ seeds[k]`` residually.

    Seeds are processed in descending index order with one *reverse*
    residual traversal each (following arcs against their residual
    direction reaches exactly the nodes that forward-reach the seed);
    already-labeled nodes stop the walk — they, and everything behind
    them, were claimed by a higher seed — so every node is expanded at
    most once and the whole labeling is ``O(V + E)``.

    Results land in the stamped array ``lab`` (``lab.stamp[x] != epoch``
    means "unreached", the old ``-1``); returns the epoch.
    """
    epoch = lab.begin(nnodes)
    stamp = lab.stamp
    label = lab.value
    for k in range(len(seeds) - 1, -1, -1):
        s = seeds[k]
        if stamp[s] == epoch:
            continue
        stamp[s] = epoch
        label[s] = k
        stack = [s]
        while stack:
            x = stack.pop()
            for e in adj[x]:
                # Arc ``e^1`` runs eto[e] -> x; it is residually usable
                # iff ecap[e^1] > 0, making eto[e] a reverse-neighbor.
                if ecap[e ^ 1] > 0:
                    y = eto[e]
                    if stamp[y] != epoch:
                        stamp[y] = epoch
                        label[y] = k
                        stack.append(y)
    return epoch


def region_chain_pairs(
    region, start: int, scratch: Optional[LinearScratch] = None
) -> List[LocalRegionPair]:
    """All chain pairs of one search region, in chain order.

    Parameters
    ----------
    region:
        The region graph in signal orientation (``succ``/``n``/``root``
        — an :class:`~repro.graph.indexed.IndexedGraph` or
        :class:`~repro.dominators.shared.RegionView`), rooted at the
        region sink.
    start:
        Region-local id of the region entry vertex.
    scratch:
        Optional :class:`LinearScratch` reused across calls (a fresh
        one is created when omitted).  Reuse never changes results —
        only the allocation count.

    Returns
    -------
    list of ``(side1, side2, intervals)``
        One entry per ``{V_1k, V_2k}`` chain pair, in region-local ids
        with pair-local 1-based matching intervals — exactly what the
        shared (max-flow + matching) expansion produces for the same region.
    """
    if scratch is None:
        scratch = LinearScratch()
    n = region.n
    sink = region.root
    succ = region.succ
    if n < 4:
        # Fewer than two interior vertices: no size-two cut can exist.
        return []

    # ------------------------------------------------------------------
    # vertex-split flow network: in(v) = 2v, out(v) = 2v + 1.  Interior
    # split arcs carry capacity 1; graph arcs capacity 2 (the flow
    # value never exceeds two, so 2 behaves as infinity).  Edge layout:
    # split arcs first — forward arc of v is edge 2v, its reverse 2v+1,
    # so ``adj``/``eto`` for that block are pure index patterns and the
    # whole block is built by two comprehensions instead of 4n appends.
    # ------------------------------------------------------------------
    nnodes = 2 * n
    source = 2 * start + 1  # out(start)
    target = 2 * sink  # in(sink)
    adj: List[List[int]] = [[x] for x in range(nnodes)]
    eto: List[int] = [x ^ 1 for x in range(nnodes)]
    m = nnodes
    narcs = 0
    for v in range(n):
        sv = succ[v]
        narcs += len(sv)
        av = adj[2 * v + 1]
        for w in sv:
            iw = 2 * w
            av.append(m)
            adj[iw].append(m + 1)
            eto.append(iw)
            eto.append(2 * v + 1)
            m += 2
    ecap: List[int] = [1, 0] * n + [2, 0] * narcs

    work = scratch.work
    if not (_augment(adj, eto, ecap, source, target, nnodes, work) and
            _augment(adj, eto, ecap, source, target, nnodes, work)):
        # A single interior vertex (or the start→sink edge alone)
        # already separates entry from sink: no pair can be minimal.
        return []

    # ------------------------------------------------------------------
    # flow decomposition into the two disjoint paths.  Interior
    # vertices are collected in path order; a unit routed over a direct
    # start→sink arc contributes an empty interior.  The flow on a
    # forward arc equals its reverse residual cap, so the walk consumes
    # reverse caps directly and restores them afterwards (the label
    # passes need the untouched residual) — the ``used`` list is only
    # as long as the two paths, no per-edge flow array.
    # ------------------------------------------------------------------
    # Per-node resume pointers, O(E) total — stamped reuse of ``work``
    # (the augmentation epochs above are already stale).
    sp_epoch = work.begin(nnodes)
    sp_stamp = work.stamp
    scan_pos = work.value
    used: List[int] = []
    paths: List[List[int]] = []
    for _ in range(2):
        interior: List[int] = []
        x = source
        while x != target:
            pos = scan_pos[x] if sp_stamp[x] == sp_epoch else 0
            edges = adj[x]
            while True:
                k = edges[pos]
                if not k & 1 and ecap[k + 1] > 0:
                    break
                pos += 1
            sp_stamp[x] = sp_epoch
            scan_pos[x] = pos
            ecap[k + 1] -= 1
            used.append(k)
            y = eto[k]
            if y == target:
                break
            # y is in(v) for an interior vertex v: hop straight to
            # out(v), consuming the split arc's flow unit (arc id y).
            interior.append(y >> 1)
            ecap[y + 1] -= 1
            used.append(y)
            x = y + 1
        paths.append(interior)
    for k in used:
        ecap[k + 1] += 1
    p1, p2 = paths
    if not p1 or not p2:
        # A unit crossed a direct start→sink arc: that arc bypasses
        # every interior vertex, so no pair can cover all paths.
        return []

    # ------------------------------------------------------------------
    # closure reachability labels over the residual graph.  Anchor node
    # of Z_k (the component behind P1's k-th saturated split arc) is
    # out(a_k), with Z_0 anchored at out(start); reaching any node of a
    # component is equivalent to reaching its anchor.
    # ------------------------------------------------------------------
    zseeds = [source] + [2 * a + 1 for a in p1]
    wseeds = [source] + [2 * b + 1 for b in p2]
    z_epoch = _reach_labels(adj, eto, ecap, zseeds, nnodes, scratch.zlab)
    w_epoch = _reach_labels(adj, eto, ecap, wseeds, nnodes, scratch.wlab)

    # ------------------------------------------------------------------
    # prefix maxima along both chains: a_i can appear in a cut iff no
    # component before its split arc reaches back to Z_i or beyond (the
    # closure could not exclude it); the floor is the highest
    # opposite-chain index the prefix drags into any closure cut at a_i
    # — a_i's partners must lie strictly above it.
    # ------------------------------------------------------------------
    def _valid(seeds, interior, own, own_epoch, opp, opp_epoch):
        ostamp, olab = own.stamp, own.value
        pstamp, plab = opp.stamp, opp.value
        out = []  # (chain index, vertex, opposite-chain floor)
        s0 = seeds[0]
        mown = olab[s0] if ostamp[s0] == own_epoch else -1
        mopp = plab[s0] if pstamp[s0] == opp_epoch else -1
        for i in range(1, len(seeds)):
            if mown < i:
                out.append((i, interior[i - 1], mopp))
            s = seeds[i]
            if ostamp[s] == own_epoch and olab[s] > mown:
                mown = olab[s]
            if pstamp[s] == opp_epoch and plab[s] > mopp:
                mopp = plab[s]
        return out

    # P1 / P2 cut candidates.
    valid_a = _valid(zseeds, p1, scratch.zlab, z_epoch, scratch.wlab, w_epoch)
    valid_b = _valid(wseeds, p2, scratch.wlab, w_epoch, scratch.zlab, z_epoch)
    if not valid_a or not valid_b:
        return []

    # ------------------------------------------------------------------
    # matching intervals by two pointers: a_i pairs with b_j iff
    # j > floor(a_i) (the closure at a_i already crossed W below j) and
    # floor(b_j) < i (symmetrically).  Both bounds are monotone, so the
    # partners of consecutive candidates form the Definition-3
    # staircase.
    # ------------------------------------------------------------------
    lo_a: List[int] = []
    hi_a: List[int] = []
    lo = 0
    hi = -1
    for i, _va, floor_w in valid_a:
        while lo < len(valid_b) and valid_b[lo][0] <= floor_w:
            lo += 1
        while hi + 1 < len(valid_b) and valid_b[hi + 1][2] < i:
            hi += 1
        if lo > hi:
            raise ChainConstructionError(
                "linear backend: cut candidate without a partner "
                "(internal invariant violation)"
            )
        lo_a.append(lo)
        hi_a.append(hi)
    if lo_a[0] != 0 or hi_a[-1] != len(valid_b) - 1:
        raise ChainConstructionError(
            "linear backend: opposite-side candidates left unmatched "
            "(internal invariant violation)"
        )

    # Inverse intervals over the candidate lists (two more pointers).
    lo_b = [0] * len(valid_b)
    hi_b = [0] * len(valid_b)
    ka = 0
    for l in range(len(valid_b)):
        while hi_a[ka] < l:
            ka += 1
        lo_b[l] = ka
    ka = len(valid_a) - 1
    for l in range(len(valid_b) - 1, -1, -1):
        while lo_a[ka] > l:
            ka -= 1
        hi_b[l] = ka

    # ------------------------------------------------------------------
    # chain-pair grouping: a new {V_1k, V_2k} starts where the interval
    # staircase breaks (no overlap with the previous candidate).
    # ------------------------------------------------------------------
    results: List[LocalRegionPair] = []
    ka = 0
    while ka < len(valid_a):
        kb = ka
        while kb + 1 < len(valid_a) and lo_a[kb + 1] <= hi_a[kb]:
            kb += 1
        if kb + 1 < len(valid_a) and lo_a[kb + 1] != hi_a[kb] + 1:
            raise ChainConstructionError(
                "linear backend: gap in the matching staircase "
                "(internal invariant violation)"
            )
        la, lb = lo_a[ka], hi_a[kb]
        side_a = [valid_a[k][1] for k in range(ka, kb + 1)]
        side_b = [valid_b[l][1] for l in range(la, lb + 1)]
        intervals: Dict[int, Tuple[int, int]] = {}
        for k in range(ka, kb + 1):
            intervals[valid_a[k][1]] = (
                lo_a[k] - la + 1,
                hi_a[k] - la + 1,
            )
        for l in range(la, lb + 1):
            intervals[valid_b[l][1]] = (
                lo_b[l] - ka + 1,
                hi_b[l] - ka + 1,
            )
        # DOUBLEIDOM's deterministic tie-break: the pair's immediate
        # dominator is reported in ascending region-local id order, and
        # its first element opens side 1.
        if side_a[0] < side_b[0]:
            results.append((side_a, side_b, intervals))
        else:
            results.append((side_b, side_a, intervals))
        ka = kb + 1
    return results


__all__ = ["LinearScratch", "region_chain_pairs"]
