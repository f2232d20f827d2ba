"""Cross-check fdtc_exact on periodic braids against closed forms.

For n = 2..7 and j in [-2n, 2n], each of delta^j and epsilon^j in B_n
(delta = s1 s2 ... s_(n-1), epsilon = s1 delta, so delta^n =
epsilon^(n-1) = Delta^2), conjugated by a seeded random word, must get
value j/n or j/(n-1), and a floor_of_power equal to
dehornoy_floor(free_reduce(w**power_used)), which searches and certifies
the power itself and takes no periodic shortcut.  Exit status 1 if any
word disagrees.

Usage: python3 scripts/periodic_cross_check.py [--max-n 7] [--seed 1]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction

from braidtwist import BraidWord
from braidtwist.braid import free_reduce
from braidtwist.fdtc import dehornoy_floor, fdtc_exact


def periodic_words(max_n: int, rng: random.Random):
    """(name, word, closed-form value) for the conjugated delta^j and epsilon^j."""
    for n in range(2, max_n + 1):
        delta = BraidWord(n, range(1, n))
        epsilon = BraidWord(n, (1,)) * delta
        gens = [g for g in range(1 - n, n) if g]
        for j in range(-2 * n, 2 * n + 1):
            for name, root, order in (("delta", delta, n), ("epsilon", epsilon, n - 1)):
                c = BraidWord(n, rng.choices(gens, k=rng.randint(0, 5)))
                yield f"{name}^{j} in B_{n}", (root**j).conjugate_by(c), Fraction(j, order)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    start = time.perf_counter()
    total = 0
    mismatches = []
    for name, w, want in periodic_words(args.max_n, random.Random(args.seed)):
        total += 1
        r = fdtc_exact(w)
        floor = dehornoy_floor(free_reduce(w**r.power_used)).floor
        if r.value != want or r.floor_of_power != floor:
            mismatches.append(
                f"  {name}, word {w.letters}: value {r.value} (want {want}), "
                f"floor of power {r.power_used} {r.floor_of_power} (want {floor})"
            )
    elapsed = time.perf_counter() - start

    print(f"{total} periodic words checked in {elapsed:.1f}s, {len(mismatches)} mismatches")
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
