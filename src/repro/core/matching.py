"""Pair expansion: UPDATECHAIN, FINDMATCHINGVECTOR and ADDVECTOR (Fig. 4).

Given the immediate pair ``{w1, w2}`` found by DOUBLEIDOM inside a search
region, these routines materialize the complete ``{V_1k, V_2k}`` chain
pair.  Elements are processed in position order, each processing step
computing the element's *matching vector* — the idom chain of its first
known partner in the region restricted by removing the element — and
merging it into the opposite side (append-only, with interval bookkeeping
exactly as prescribed for ADDVECTOR).

Processing elements in position order per side is what makes the "start
the walk at index ``min(v)``" rule sound: when a vertex *v* is first
appended during the processing of partner *y*, any earlier partner *z*
(smaller index) would already have been processed and would already have
appended *v* — so *y* is necessarily *v*'s minimum partner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..dominators.lengauer_tarjan import UNREACHABLE
from ..dominators.shared import matching_compute
from ..errors import ChainConstructionError
from ..graph.indexed import IndexedGraph


@dataclass
class ExpandedPair:
    """A fully expanded ``{V_1k, V_2k}`` pair in region-local indices.

    ``intervals`` maps each vertex to its 1-based matching interval on the
    opposite side, local to this pair's vectors.
    """

    side1: List[int]
    side2: List[int]
    intervals: Dict[int, Tuple[int, int]]


def find_matching_vector(
    region: IndexedGraph,
    v: int,
    w_start: int,
    algorithm: str = "lt",
) -> List[int]:
    """FINDMATCHINGVECTOR(v, ...) — partners of *v* from ``w_start`` upward.

    Restricts the region to ``C - v`` (paths through *v* excluded), then
    returns ``[w_start, idom(w_start), idom(idom(w_start)), ...]`` up to
    but excluding the region's local root.  The paper's while-loop of
    repeated SINGLEIDOM calls collapses into one dominator-tree
    computation on the restricted region.

    The restricted graph is never materialized: an exclude-capable
    dominator algorithm simply skips *v* during its DFS over the
    region's own arrays, which is equivalent to deleting it (idoms are
    unique, so which capable algorithm runs does not matter).
    """
    idoms = matching_compute(algorithm)(
        region.n,
        region.pred,
        region.root,
        pred=region.succ,
        exclude=v,
    )
    if idoms[w_start] == UNREACHABLE:
        raise ChainConstructionError(
            f"partner {w_start} vanished from the region after "
            f"removing {v}"
        )
    out: List[int] = []
    x = w_start
    while x != region.root:
        out.append(x)
        x = idoms[x]
        if x < 0:  # pragma: no cover - defensive (reachable w_start
            # implies its whole idom chain is reachable)
            raise ChainConstructionError(
                f"vertex {w_start} cannot reach the region root "
                f"without {v}"
            )
    return out


def expand_pair(
    region: IndexedGraph,
    w1: int,
    w2: int,
    algorithm: str = "lt",
    matcher=None,
) -> ExpandedPair:
    """Grow the immediate pair ``{w1, w2}`` into the full chain pair.

    Implements the inner ``while i <= |V1k| or j <= |V2k|`` loop of the
    main algorithm: alternately process not-yet-processed elements of both
    sides, each processing step merging the element's matching vector into
    the opposite side (ADDVECTOR semantics, append-only).

    ``matcher`` is an optional
    :class:`~repro.dominators.shared.RegionMatcher` bound to ``region``;
    when given, matching vectors come from its scratch-reusing SNCA
    instead of a fresh per-call computation (identical results — idoms
    are unique).
    """
    sides: Tuple[List[int], List[int]] = ([w1], [w2])
    intervals: Dict[int, Tuple[int, int]] = {w1: (1, 1), w2: (1, 1)}
    processed = [0, 0]  # per side, number of elements already expanded

    while processed[0] < len(sides[0]) or processed[1] < len(sides[1]):
        a = 0 if processed[0] < len(sides[0]) else 1
        b = 1 - a
        side_a, side_b = sides[a], sides[b]
        v = side_a[processed[a]]
        pos_v = processed[a] + 1  # 1-based index of v within its side
        processed[a] += 1

        lo = intervals[v][0]
        w_start = side_b[lo - 1]
        if matcher is not None:
            matching = matcher.matching_vector(v, w_start)
        else:
            matching = find_matching_vector(region, v, w_start, algorithm)
        if matching[0] != w_start:
            raise ChainConstructionError(
                "matching vector does not start at the minimum partner"
            )

        for offset, w in enumerate(matching):
            pos_w = lo + offset
            if pos_w <= len(side_b):
                if side_b[pos_w - 1] != w:
                    raise ChainConstructionError(
                        f"matching vector of {v} conflicts with the "
                        f"existing order at position {pos_w} "
                        "(violates Definition 3 property 1)"
                    )
            elif pos_w == len(side_b) + 1:
                side_b.append(w)
            else:
                raise ChainConstructionError(
                    f"matching vector of {v} is not contiguous with "
                    f"side {b + 1}"
                )
            # ADDVECTOR interval rules: widen w's interval to include v.
            if w in intervals:
                lo_w, hi_w = intervals[w]
                intervals[w] = (min(lo_w, pos_v), max(hi_w, pos_v))
            else:
                intervals[w] = (pos_v, pos_v)
        intervals[v] = (lo, lo + len(matching) - 1)

    return ExpandedPair(
        side1=sides[0], side2=sides[1], intervals=intervals
    )
