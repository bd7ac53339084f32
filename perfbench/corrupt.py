"""Show that the answer checks reject a corrupted chain.

Usage, from the root of a checkout::

    python3 perfbench/corrupt.py --workload table1-sweep

Runs one pass of the workload, checks it (which must pass), then drops
the last pair of every served chain and checks again (which must
fail).  Exits 0 when both hold.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import workloads  # noqa: E402


def _drop_last_pair(chains) -> None:
    for chain in chains:
        if chain and chain["pairs"]:
            chain["pairs"].pop()


def _served_chains(workload, records):
    """Every served chain dictionary of one pass's records."""
    for record in records:
        if record is None:
            continue
        if isinstance(workload, workloads.Table1Sweep):
            yield from record[2].values()
        elif isinstance(workload, workloads.BigCones):
            yield record
        else:
            yield from record[1]["chains"].values()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=list(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        result = workload.run_pass()
        clean = workload.check(result)
        _drop_last_pair(_served_chains(workload, result.records))
        corrupted = workload.check(result)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    print(f"checks on the served chains: {len(clean)} failures")
    print(f"checks after dropping a pair per chain: {len(corrupted)} failures")
    for error in corrupted[:3]:
        print(f"  {error}")
    return 0 if not clean and corrupted else 1


if __name__ == "__main__":
    sys.exit(main())
