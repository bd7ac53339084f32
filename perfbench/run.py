"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-sweep --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
passes with span wrappers installed and prints the per-layer metrics.
The last line of standard output is the result object; a line with
the calibration time, the pass count and the median speed scale factor
comes before it, and check failures go to standard error.  The exit
code is 0 when every answer checked out, 1 when one did not, and 2 when
the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [ROOT, src]
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        calibration = harness.calibration_s()
        result = harness.run(workload, args.seconds, bool(args.trace))
    finally:
        if hasattr(workload, "close"):
            workload.close()
    errors = result.pop("_errors")
    passes = result.pop("_passes")
    absent = result.pop("_absent")
    scale = result.pop("_scale")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if absent:
        print(f"absent wrapped names: {', '.join(absent)}", file=sys.stderr)
    print(f"calibration_s={calibration:.6f} passes={passes} scale={scale:.4f}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Identical code must do identical work: pin string hashing (set
    # iteration order) for this process before anything is imported.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
