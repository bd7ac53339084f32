"""Answer checks made apart from the chain code.

Served chains arrive in their serialized form (``DominatorChain.to_dict``)
and are decoded here, not by the program, so a corrupted dictionary (a
dropped pair, a shifted interval) is judged on what was actually
served.  The references are the restriction algorithm [11]
(``baseline_double_dominators``), brute force and the naive dataflow
dominator algorithm, plus a single-dominator sweep written here.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.baseline import baseline_double_dominators
from repro.core.bruteforce import all_double_dominators, is_double_dominator
from repro.dominators.naive import dominator_sets

Pair = FrozenSet[int]

#: Largest search region handed to the naive (quadratic-space) fixpoint.
NAIVE_MAX_VERTICES = 3000


def chain_sides(chain: Dict[str, object]) -> Tuple[List[int], List[int]]:
    """The two flattened sides ``V_11·V_12·…`` and ``V_21·V_22·…``."""
    side1: List[int] = []
    side2: List[int] = []
    for pair in chain["pairs"]:  # type: ignore[union-attr]
        side1.extend(pair["side1"])
        side2.extend(pair["side2"])
    return side1, side2


def chain_pairs(chain: Dict[str, object]) -> Set[Pair]:
    """Every dominator pair a serialized chain encodes.

    A side-1 vertex's interval ``[lo, hi]`` holds 1-based positions in
    the flattened side 2 (Section 4 of the paper).
    """
    side1, side2 = chain_sides(chain)
    intervals = chain["intervals"]
    pairs: Set[Pair] = set()
    for v in side1:
        lo, hi = intervals[str(v)]  # type: ignore[index]
        for w in side2[lo - 1 : hi]:
            pairs.add(frozenset((v, w)))
    return pairs


def matching_vector(chain: Dict[str, object], v: int) -> Set[int]:
    """The partners ``w`` of chain vertex ``v`` as the chain serves them."""
    side1, side2 = chain_sides(chain)
    lo, hi = chain["intervals"][str(v)]  # type: ignore[index]
    opposite = side2 if v in side1 else side1
    return set(opposite[lo - 1 : hi])


def compare_with_baseline(
    graph, chains: Dict[int, Dict[str, object]], label: str
) -> List[str]:
    """Pairs of every chain in ``chains`` (keyed by target) against [11]."""
    expected = baseline_double_dominators(graph, targets=list(chains))
    errors = []
    for u, chain in chains.items():
        got = chain_pairs(chain)
        if got != expected[u]:
            errors.append(
                f"{label}: target {graph.name_of(u)}: {len(got)} pairs "
                f"served, baseline [11] has {len(expected[u])}"
            )
    return errors


def compare_with_bruteforce(
    graph, chains: Dict[int, Dict[str, object]], label: str
) -> List[str]:
    errors = []
    for u, chain in chains.items():
        got = chain_pairs(chain)
        expected = all_double_dominators(graph, u)
        if got != expected:
            errors.append(
                f"{label}: target {graph.name_of(u)}: {len(got)} pairs "
                f"served, brute force has {len(expected)}"
            )
    return errors


def _paths(graph, a: int, b: int, removed: int = -1) -> Set[int]:
    """Vertices on ``a → b`` paths that avoid ``removed``.

    Cone ids are topological, so such paths never leave ``[a, b]``.
    """
    forward = {a}
    stack = [a]
    while stack:
        v = stack.pop()
        for w in graph.succ[v]:
            if w <= b and w != removed and w not in forward:
                forward.add(w)
                stack.append(w)
    if b not in forward:
        return set()
    on_path = {b}
    stack = [b]
    while stack:
        v = stack.pop()
        for w in graph.pred[v]:
            if w in forward and w not in on_path:
                on_path.add(w)
                stack.append(w)
    return on_path


def _dominators(graph, on_path: Set[int], a: int) -> List[int]:
    """Vertices every ``a → b`` path passes, given the path vertices.

    Among the vertices on ``a → b`` paths, in topological id order, a
    vertex lies on every path exactly when no edge between two of them
    jumps over it.
    """
    doms = []
    reach = a
    for v in sorted(on_path):
        if v != a and reach <= v:
            doms.append(v)
        for w in graph.succ[v]:
            if w in on_path and w > reach:
                reach = w
    return doms


def single_dominators(graph, u: int, removed: int = -1) -> List[int]:
    """Single dominators of ``u`` in ``C − removed``, nearest first."""
    return _dominators(graph, _paths(graph, u, graph.root, removed), u)


def _cell(cuts: List[int], x: int) -> Tuple[int, int]:
    """The consecutive single dominators ``a < x < b`` of the target."""
    return max(c for c in cuts if c < x), min(c for c in cuts if c > x)


def check_matching_vector(
    graph, u: int, v: int, chain: Dict[str, object]
) -> Optional[str]:
    """``v``'s matching vector against the single dominators of ``u`` in ``C − v``.

    ``{v, w}`` dominates ``u`` exactly when ``w`` is a single dominator
    of ``u`` in ``C − v`` but not in ``C``.  Every ``u → root`` path
    passes the single dominators ``a`` (the last one before ``v``, or
    ``u``) and ``b`` (the first one after ``v``) of ``u``, so those
    ``w`` are also the dominators of ``a`` in the region between ``a``
    and ``b`` with ``v`` removed.  Where that region is small enough,
    the naive dataflow fixpoint computes them a second way.
    """
    cuts = [u] + single_dominators(graph, u)
    expected = set(single_dominators(graph, u, removed=v)) - set(cuts)
    served = matching_vector(chain, v)
    if served != expected:
        return (
            f"matching vector of {graph.name_of(v)} for target "
            f"{graph.name_of(u)}: {len(served)} served, {len(expected)} "
            "single dominators of the target in C - v"
        )
    a, b = _cell(cuts, v)
    region = _paths(graph, a, b, removed=v)
    if len(region) > NAIVE_MAX_VERTICES:
        return None
    members = sorted(region)
    local = {x: i for i, x in enumerate(members)}
    fanins = [[local[y] for y in graph.pred[x] if y in region] for x in members]
    doms = dominator_sets(len(members), fanins, local[b])[local[a]]
    naive = {members[i] for i in doms} - {a, b} if doms else set()
    if served != naive:
        return (
            f"matching vector of {graph.name_of(v)} for target "
            f"{graph.name_of(u)}: {len(served)} served, naive dataflow "
            f"gives {len(naive)}"
        )
    return None


def check_chain_end(
    graph, u: int, chain: Dict[str, object], limit: int = 5000
) -> Optional[str]:
    """No vertex after the chain's last pair has a partner.

    The chain must run to its end: every vertex reachable from the last
    pair's last elements (from ``u`` for an empty chain), other than a
    single dominator, must have no partner, that is, must not be left
    with a dominator strictly inside its cell once it is removed.
    Skipped when more than ``limit`` vertices would need a sweep.
    """
    cuts = [u] + single_dominators(graph, u)
    side1, side2 = chain_sides(chain)
    start = {side1[-1], side2[-1]} if side1 else {u}
    after = set()
    stack = list(start)
    while stack:
        v = stack.pop()
        for w in graph.succ[v]:
            if w not in after:
                after.add(w)
                stack.append(w)
    after -= set(cuts) | start
    if len(after) > limit:
        return None
    for x in sorted(after):
        a, b = _cell(cuts, x)
        if _dominators(graph, _paths(graph, a, b, removed=x), a)[:-1]:
            return (
                f"chain of {graph.name_of(u)} stops before "
                f"{graph.name_of(x)}, which has a partner"
            )
    return None


def check_pair(graph, u: int, pair: Sequence[int]) -> Optional[str]:
    v, w = pair
    if is_double_dominator(graph, u, v, w):
        return None
    return (
        f"{{{graph.name_of(v)}, {graph.name_of(w)}}} served for target "
        f"{graph.name_of(u)} is not a double-vertex dominator"
    )


def chain_shape(chain: Dict[str, object]) -> List[Tuple]:
    """A chain with its vertex ids left out.

    For each pair in chain order: the unordered pair of its two vectors,
    each given as the number of partners of every vertex, in vector
    order.  Which vector a construction calls side 1 depends on vertex
    numbering; the partner counts do not.
    """
    intervals = chain["intervals"]
    shape = []
    for pair in chain["pairs"]:  # type: ignore[union-attr]
        sides = [
            tuple(
                intervals[str(x)][1] - intervals[str(x)][0] + 1  # type: ignore[index]
                for x in pair[side]
            )
            for side in ("side1", "side2")
        ]
        shape.append(tuple(sorted(sides)))
    return shape


def same_shapes(
    served: Dict[str, Dict[str, object]],
    fresh: Dict[str, Dict[str, object]],
    label: str,
) -> List[str]:
    """Served chains against fresh ones, target by target, ids aside.

    A long-lived engine numbers the vertices it added after the ones it
    was opened with, so its vertex ids differ from a fresh extraction's
    and the protocol does not carry names.  What must agree is every
    target's number of pairs, vector lengths and partner counts.
    """
    if set(served) != set(fresh):
        return [f"{label}: served targets differ from the cone's PIs"]
    return [
        f"{label}: chain of {name} differs from a fresh computation"
        for name in sorted(served)
        if chain_shape(served[name]) != chain_shape(fresh[name])
    ]
