"""Steadiness check: two sets of K runs of one workload, spreads and drift.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload big-cones --runs 10

Runs ``perfbench/run.py`` with seeds 1 to K, one after another, never in
parallel, for the run length in ``BENCHMARK.json`` (``--trace 0``), and
does that ``--sets`` times (default 2).  For every set and every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (third minus
first quartile, as a share of the median) against the metric's bound;
then how much worse each later set's median is than the first set's.
A spread or a drift beyond the bound is flagged, as is a share of
failed operations that differs between runs, and the exit code is 1.
Each run's calibration time (the best of 30 runs of the harness's
gauge) and the speed scale the harness applied are printed beside its
figures: when they move with a raw time, the machine changed speed, not
the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_set(spec, workload: str, runs: int, label: str):
    """Run seeds 1..runs once; returns (values per metric, failed shares, ok)."""
    values = {}
    shares = set()
    ok = True
    for seed in range(1, runs + 1):
        command = spec["command"] + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=900
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{label} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        info = lines[-2] if len(lines) > 1 else ""
        shares.add(result["failed"] / result["attempted"])
        ok = ok and result["correct"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(
            f"{label} seed {seed}: {info} correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            + " ".join(f"{k}={v:.6g}" for k, v in row.items()),
            flush=True,
        )
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    return values, shares, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 to give quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    shares = set()
    ok = True
    for s in range(args.sets):
        values, set_shares, set_ok = run_set(
            spec, args.workload, args.runs, f"set {s + 1}"
        )
        sets.append(values)
        shares |= set_shares
        ok = ok and set_ok

    if len(shares) > 1:
        print("FLAG: the share of failed operations differs between runs")
        ok = False
    medians = []
    for s, values in enumerate(sets, 1):
        print(
            f"\nset {s}\n{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
            f"{'spread':>9}{'bound':>8}"
        )
        medians.append({})
        for name, metric in metrics.items():
            series = values.get(name, [])
            if len(series) < 4:
                print(f"{name:<16} too few runs  FLAG")
                ok = False
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            medians[-1][name] = median
            spread = (q3 - q1) / median
            flag = ""
            if spread > metric["bound"]:
                flag = "  FLAG"
                ok = False
            print(
                f"{name:<16}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                f"{spread:>9.3f}{metric['bound']:>8}{flag}"
            )
    for s, later in enumerate(medians[1:], 2):
        print(f"\nset {s} against set 1: change for the worse of the median")
        for name, metric in metrics.items():
            if name not in later or name not in medians[0]:
                continue
            first = medians[0][name]
            worse = (later[name] - first) / first
            if metric["better"] == "higher":
                worse = -worse
            flag = ""
            if worse > metric["bound"]:
                flag = "  FLAG"
                ok = False
            print(f"{name:<16}{worse:>9.3f}{metric['bound']:>8}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
