"""Pass loop, speed gauge, per-op statistics and the result line.

A run replays its workload's fixed script as identical passes until
``--seconds`` is used up (at least :data:`MIN_PASSES`).  Each op's time
is the median of its scaled times across the passes.

Every time is scaled to a fixed reference speed of the machine.  The
2-vCPU KVM guest this was written on changes speed by up to 1.8x for
spells of seconds to minutes, in CPU time as much as in wall time, so a
spell can cover a whole run and neither a minimum nor a median over
passes rides it out.  Between ops, outside their timing, the harness
times a fixed piece of pure-Python graph code (the gauge: breadth-first
searches over a fixed 400-vertex graph with dicts, sets and a sort, the
kind of work the program does) about every :data:`GAUGE_INTERVAL_S`.
Each pass's times are multiplied by ``REFERENCE_GAUGE_S / g``, where
``g`` is the median gauge time of that pass.  The gauge is benchmark
code: a change to the program cannot move it.

On six 30 s table1-sweep runs, the interquartile spread of
``chains_per_s`` was 0.146 with the raw per-op minimum over passes,
0.077 with the minimum of gauge-scaled times, and 0.032 with the median
of gauge-scaled times; that of the median set-up time 0.191 raw and
0.043 scaled.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import time
from typing import Dict, List, Optional

from . import spans

MIN_PASSES = 3
MAX_PASSES = 50

#: Gauge time, in seconds, that the reported times are scaled to: about
#: the gauge's time in a fast spell of the machine this was written on.
REFERENCE_GAUGE_S = 0.0005
#: Least time between two gauge samples.
GAUGE_INTERVAL_S = 0.02

clock = time.perf_counter

with open(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "BENCHMARK.json"),
    encoding="utf-8",
) as _spec:
    SPEC = json.load(_spec)

_rng = random.Random(5)
#: The gauge's fixed graph: 400 vertices, three successors each.
GAUGE_GRAPH = [[_rng.randrange(400) for _ in range(3)] for _ in range(400)]


def gauge_s() -> float:
    """Time of one run of the fixed gauge code: machine speed."""
    start = clock()
    for root in (0, 1):
        depth = {root: 0}
        order = [root]
        for u in order:
            for v in GAUGE_GRAPH[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    order.append(v)
        sorted((d, u) for u, d in depth.items())
    return clock() - start


def calibration_s() -> float:
    """Best of 30 gauge times, printed beside each run's result."""
    return min(gauge_s() for _ in range(30))


class Gauge:
    """Gauge samples taken between ops, at most one per interval."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.seconds = 0.0
        self._next = 0.0

    def tick(self) -> None:
        start = clock()
        if start < self._next:
            return
        self.samples.append(gauge_s())
        self._next = clock()
        self.seconds += self._next - start
        self._next += GAUGE_INTERVAL_S

    def scale(self) -> float:
        """Scale factor of the pass whose samples were taken; resets."""
        factor = REFERENCE_GAUGE_S / statistics.median(self.samples)
        self.samples = []
        return factor


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(workload, seconds: float, trace: bool) -> Dict[str, object]:
    """Measure ``workload`` for ``seconds``; returns the result object."""
    tracer: Optional[spans.Tracer] = None
    if trace:
        tracer = spans.install(spans.Tracer())
    passes = []
    scales = []
    digests = set()
    last = None
    wall = 0.0
    gauge = Gauge()
    deadline = clock() + seconds
    try:
        while True:
            gc.collect()
            gauge.tick()
            start, gauged = clock(), gauge.seconds
            last = workload.run_pass(tracer, gauge.tick)
            elapsed = clock() - start
            # Pass time outside the gauge, for the traced run's remainder.
            wall += elapsed - (gauge.seconds - gauged)
            gauge.tick()
            scales.append(gauge.scale())
            passes.append(last)
            digests.add(_digest(last.records))
            if len(passes) >= MAX_PASSES:
                break
            if len(passes) >= MIN_PASSES and clock() + elapsed > deadline:
                break
            # Only the last pass's outputs are kept for the checks.
            last.records = None
    finally:
        if tracer is not None:
            tracer.uninstall()
    # The process's peak so far: input generation and the passes, not
    # the checks below.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = workload.check(last)
    if len(digests) != 1:
        errors.append(f"passes served {len(digests)} different outputs")

    ops = len(last.op_seconds)
    typical = [
        statistics.median(p.op_seconds[i] * s for p, s in zip(passes, scales))
        for i in range(ops)
    ]
    # Every pass serves the same chains.
    chains_per_s = last.chains / sum(typical)
    if tracer is None:
        values = {
            "setup_s": statistics.median(
                p.setup_s * s for p, s in zip(passes, scales)
            ),
            "chains_per_s": chains_per_s,
            "op_p50_ms": statistics.median(typical) * 1e3,
            "op_tail_ms": percentile(typical, workload.tail_percentile) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = SPEC["end_to_end"]
    else:
        n = len(passes)
        values = {name: t / n for name, t in tracer.seconds.items()}
        values.update((name, c / n) for name, c in tracer.counts.items())
        values["trace.other_s"] = (wall - sum(tracer.seconds.values())) / n
        values["trace.chains_per_s"] = chains_per_s
        wanted = SPEC["per_layer"]
    return {
        "correct": not errors,
        "attempted": ops * len(passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        },
        "_errors": errors,
        "_passes": len(passes),
        "_scale": statistics.median(scales),
        "_absent": tracer.absent if tracer is not None else [],
    }
