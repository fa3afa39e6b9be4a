"""Print one workload's set-up time in seconds: the import of nasolve plus the
construction of every problem in the workload, up to the first solve.

run.py starts a fresh interpreter with this script for each sample, so the
import is timed cold each time:

    python3 perfbench/setup_time.py multipoly
"""

import sys
from time import perf_counter

from workloads import build_problems, seeded_order, use_checkout_source


def main() -> int:
    workload = sys.argv[1]
    use_checkout_source()
    t0 = perf_counter()
    import nasolve  # noqa: F401  (the import is what is being timed)

    build_problems(seeded_order(workload, 0))
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
