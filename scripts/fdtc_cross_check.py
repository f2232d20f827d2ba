"""Cross-check fdtc_exact records on random mixed words against floors.

fdtc_exact proves its value with compares at powers up to 2n - 1 and
derives every other field by arithmetic.  Here each record is checked
from the outside on seeded random words in B_3 to B_8 (mixed signs,
every third one conjugated): floor_of_power must equal
dehornoy_floor(free_reduce(w**power_used)) and floor must equal
dehornoy_floor(w), where dehornoy_floor runs the same Stern-Brocot
descent on that power, stopped at denominator 1, and certifies the
floor with two compares of its own; the interval must be
[floor_of_power, floor_of_power + 1] over power_used, and the value
must be the only rational with denominator <= n in it.  Exit status 1
if any word disagrees.

Usage: python3 scripts/fdtc_cross_check.py [--words 600] [--seed 1]
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from fractions import Fraction

from braidtwist import BraidWord
from braidtwist.braid import free_reduce, integer
from braidtwist.fdtc import dehornoy_floor, fdtc_exact


def mixed_words(count: int, rng: random.Random):
    """Seeded words in B_3 to B_8 of up to 16 letters, every other one
    drawing positive letters three times as often as negative ones (so
    that not nearly every value is 0); every third is conjugated."""
    for i in range(count):
        n = 3 + i % 6
        gens = [g for g in range(1 - n, n) if g]
        pool = gens + [g for g in gens if g > 0] * (2 * (i % 2))
        w = BraidWord(n, rng.choices(pool, k=rng.randint(0, 16)))
        if i % 3 == 2:
            w = w.conjugate_by(BraidWord(n, rng.choices(gens, k=rng.randint(1, 4))))
        yield w


def rationals_between(lo: Fraction, hi: Fraction, n: int) -> set[Fraction]:
    """Every rational with denominator <= n in [lo, hi]."""
    return {
        Fraction(p, q)
        for q in range(1, n + 1)
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--words", type=integer, default=600)
    parser.add_argument("--seed", type=integer, default=1)
    args = parser.parse_args()

    start = time.perf_counter()
    total = 0
    mismatches = []
    for w in mixed_words(args.words, random.Random(args.seed)):
        total += 1
        r = fdtc_exact(w)
        P, f = r.power_used, r.floor_of_power
        want = {
            "floor_of_power": dehornoy_floor(free_reduce(w**P)),
            "floor": dehornoy_floor(w),
            "interval": (Fraction(f, P), Fraction(f + 1, P)),
            "rationals": {r.value},
        }
        got = {
            "floor_of_power": f,
            "floor": r.floor,
            "interval": r.interval,
            "rationals": rationals_between(Fraction(f, P), Fraction(f + 1, P), w.strands),
        }
        for key in want:
            if got[key] != want[key]:
                mismatches.append(f"  B_{w.strands} word {w.letters}: {key} {got[key]} (want {want[key]})")
    elapsed = time.perf_counter() - start

    print(f"{total} mixed words checked in {elapsed:.1f}s, {len(mismatches)} mismatches")
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
