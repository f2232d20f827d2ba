"""Reference values that the library does not compute, kept as test oracles.

The syntactic screens are cheap theorems about the twist coefficient BT
that fdtc_exact certifies exactly; the tests check that the engine's
value always lies inside them.  The torus closed forms (tau, Upsilon(1)
and the four-genus of a difference) are checked against each other and
read by acceptance criterion 10.
"""

from __future__ import annotations

import math
from fractions import Fraction

from braidtwist.braid import BraidWord, _conjugate_split


def word_sign_bounds(w: BraidWord) -> tuple[bool, bool]:
    """(BT >= 0 certified, BT <= 0 certified) from letter signs alone.

    A generator index that occurs only positively forces BT >= 0; only
    negatively, BT <= 0.  Indices that never occur certify nothing.
    """
    seen_pos: set[int] = set()
    seen_neg: set[int] = set()
    for g in w.letters:
        (seen_pos if g > 0 else seen_neg).add(abs(g))
    return bool(seen_pos - seen_neg), bool(seen_neg - seen_pos)


def detect_destabilizable(w: BraidWord) -> int | None:
    """+1/-1 when some cyclic rotation exposes a lone sigma_{n-1}^{+1/-1}.

    The word is freely and cyclically reduced first; rotations of the
    result all contain the same letters, so the check is a count: exactly
    one occurrence of index n-1 overall.  Purely syntactic, hence a
    sufficient but not necessary destabilization test.
    """
    _, letters = _conjugate_split(w.letters)
    occurrences = [g for g in letters if abs(g) == w.strands - 1]
    if len(occurrences) == 1:
        return 1 if occurrences[0] > 0 else -1
    return None


def destab_bounds(w: BraidWord) -> tuple[Fraction, Fraction] | None:
    """(0,1) or (-1,0) when the word visibly destabilizes, else None.

    A single positive (negative) occurrence of the top generator after
    free and cyclic reduction traps BT in the unit interval of that sign.
    """
    sign = detect_destabilizable(w)
    if sign is None:
        return None
    return (Fraction(0), Fraction(1)) if sign > 0 else (Fraction(-1), Fraction(0))


def torus_tau(p: int, q: int) -> Fraction:
    """tau of the (p,q) torus knot: (p-1)(q-1)/2."""
    if p < 1 or q < 1:
        raise ValueError(f"torus parameters must be positive, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be coprime, got ({p}, {q})")
    return Fraction((p - 1) * (q - 1), 2)


def upsilon_at_one(family: str, index: int) -> int:
    """Upsilon(1) for the two torus families with known closed forms.

    "T2" with index k is the (2, 2k+1) torus knot, value -k; "T3" with
    index m is the (3, 3m+1) torus knot, value -2m.  Anything else is
    out of scope on purpose.
    """
    if index < 0:
        raise ValueError(f"family index must be nonnegative, got {index}")
    if family == "T2":
        return -index
    if family == "T3":
        return -2 * index
    raise ValueError(f"unknown family {family!r}, expected 'T2' or 'T3'")


def g4_torus_difference(m: int, k: int) -> Fraction:
    """Four-genus of the difference knot T(3,3m+1) # -T(2,2k+1).

    Both tau and upsilon(1) bound the four-genus of a difference from
    below, and for these families one of the two is always sharp.
    """
    if m < 0 or k < 0:
        raise ValueError(f"family indices must be nonnegative, got ({m}, {k})")
    tau_gap = abs(torus_tau(3, 3 * m + 1) - torus_tau(2, 2 * k + 1))
    upsilon_gap = abs(upsilon_at_one("T3", m) - upsilon_at_one("T2", k))
    return Fraction(max(tau_gap, Fraction(upsilon_gap)))
