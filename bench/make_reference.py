"""
Store the data payloads of one pass as the reference for a workload and seed.

    python3 bench/make_reference.py [--seed 1] [WORKLOAD ...]

Run it only on a commit whose outputs are trusted: every later run at that
seed is compared against what it writes (see bench/check.py).
"""

from __future__ import annotations

import argparse

import check
import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("workload", nargs="*", default=list(workloads.BUILDERS))
    args = parser.parse_args()
    for name in args.workload:
        runner = run.Runner(workloads.build(name, args.seed), args.seed)
        runner.reference = None
        runner.verify_sources()
        result = runner.run_pass()
        if result.failed:
            print(f"{name}: not stored, the pass failed: {result.errors}")
            return 1
        print(f"{name}: wrote {check.write_reference(name, args.seed, result.payloads)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
