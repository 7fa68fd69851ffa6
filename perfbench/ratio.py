"""The paper's RM-vs-AD comparison on arch, on identical seeded problems.

    python3 perfbench/ratio.py --seed 1 --seconds 60

Runs ``arch-ad`` for the given time, then ``arch-rm`` on exactly the
problems ``arch-ad`` got through, and prints the AD/RM ratio of
``factorizations_per_solve`` and ``solve_s``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + 3.0 * args.seconds + 120.0
    ad, _, ad_metrics = run.untraced(
        {"workload": "arch-ad", "seed": args.seed, "seconds": args.seconds}, deadline)
    n = len(ad["solves"])
    _, _, rm_metrics = run.untraced(
        {"workload": "arch-rm", "seed": args.seed, "seconds": 3.0 * args.seconds,
         "max_solves": n}, deadline)
    for name in ("factorizations_per_solve", "solve_s"):
        print("%s: AD %.4g / RM %.4g = %.2f over the same %d problems" % (
            name, ad_metrics[name][0], rm_metrics[name][0],
            ad_metrics[name][0] / rm_metrics[name][0], n))


if __name__ == "__main__":
    main()
