"""Emit a JSON-lines corpus for the twisted family, ready for `braidtwist audit`.

Each line carries the word, the slice-genus upper bound m/2+1 for even m
(used by the question15 predicate), and the expected floor.

Usage: python3 scripts/ktd_corpus.py [--max-m 6] [--max-k 10] | braidtwist audit --json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from braidtwist.braid import integer
from braidtwist.families import Ktd, generate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=integer, default=6)
    parser.add_argument("--max-k", type=integer, default=10)
    args = parser.parse_args()

    for m in range(args.max_m + 1):
        for k in range(1, args.max_k + 1):
            w = generate(Ktd(m, k))
            meta: dict = {"expected_floor": m}
            if m % 2 == 0 and m > 0 and k == 5 * m // 2:
                meta["g4_upper"] = str(Fraction(m, 2) + 1)
            print(json.dumps({"n": w.strands, "word": list(w.letters), "meta": meta}))


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
