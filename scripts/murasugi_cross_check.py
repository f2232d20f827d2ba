"""Cross-check the 3-braid twist closed form against the general engine.

Enumerates all three normal-form classes over a parameter box and
reports agreement counts.  Exit status 1 if any form disagrees.

Usage: python3 scripts/murasugi_cross_check.py [--max-d 2] [--max-a 3] [--max-m 6]
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

from braidtwist.braid import integer
from braidtwist.murasugi import Class1, Class2, Class3, cross_check, fdtc_3braid, to_word


def enumerate_forms(max_d: int, max_a: int, max_m: int):
    ds = range(-max_d, max_d + 1)
    for d in ds:
        for length in (1, 2, 3):
            for a in itertools.product(range(1, max_a + 1), repeat=length):
                yield Class1(d, a)
        for m in range(-max_m, max_m + 1):
            if m != 0:
                yield Class2(d, m)
        for m in (-1, -2, -3):
            yield Class3(d, m)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=integer, default=2)
    parser.add_argument("--max-a", type=integer, default=3)
    parser.add_argument("--max-m", type=integer, default=6)
    args = parser.parse_args()

    start = time.perf_counter()
    total = 0
    disagreements = []
    for form in enumerate_forms(args.max_d, args.max_a, args.max_m):
        total += 1
        if not cross_check(form):
            disagreements.append(form)
    elapsed = time.perf_counter() - start

    print(f"{total} forms checked in {elapsed:.1f}s, {len(disagreements)} disagreements")
    for form in disagreements:
        word = to_word(form)
        print(f"  {form}: closed form {fdtc_3braid(form)}, word {word.letters}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
