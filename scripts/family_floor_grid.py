"""Print the Dehornoy floor over the (sigma_2 sigma_1)^{3m+1} sigma_2^{-2k} grid.

Every row should read m across all k; anything else is a bug worth
keeping a reproduction for.  Exit status 1 if any entry differs.

Usage: python3 scripts/family_floor_grid.py [--max-m 6] [--max-k 10]
"""

from __future__ import annotations

import argparse
import os
import sys

from braidtwist.braid import integer
from braidtwist.families import Ktd, generate
from braidtwist.fdtc import dehornoy_floor


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=integer, default=6)
    parser.add_argument("--max-k", type=integer, default=10)
    args = parser.parse_args()

    ks = range(1, args.max_k + 1)
    print("m\\k " + " ".join(f"{k:>3}" for k in ks))
    mismatches = 0
    for m in range(args.max_m + 1):
        row = []
        for k in ks:
            floor = dehornoy_floor(generate(Ktd(m, k)))
            row.append(floor)
            mismatches += floor != m
        print(f"{m:>3} " + " ".join(f"{f:>3}" for f in row))
    print(f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
