"""Dehornoy floors and exact fractional Dehn twist coefficients.

The Dehornoy floor of a braid b is the largest integer t with
Delta^(2t) <= b, so full twist powers get their own exponent as floor.
The fractional Dehn twist coefficient BT(b) = lim [b^P]_D / P is
rational with denominator at most the strand count n, and floors
sandwich it: [b^P]_D / P <= BT(b) <= ([b^P]_D + 1) / P.

fdtc_exact finds the power P by doubling.  The floor is a quasimorphism
of defect 1: left invariance and the centrality of Delta^2 give
[b]_D + [c]_D <= [bc]_D <= [b]_D + [c]_D + 1, so the floor of b^(2P) is
twice that of b^P or one more, and one comparison per level decides
which.  The search stops at the first P whose interval holds exactly
one rational with denominator <= n; any two such rationals are at least
1/(n(n-1)) apart (neighbours in the Farey sequence F_n), so the stop
comes by the first power of two above n(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .braid import BraidWord, detect_destabilizable, free_reduce, garside_delta
from .ordering import OrderSign, compare

FLOOR_CONVENTION = "max-t-with-Δ^{2t}⪯β"


@dataclass(frozen=True)
class FloorResult:
    floor: int
    convention: str = FLOOR_CONVENTION


@dataclass(frozen=True)
class FdtcResult:
    """Exact twist coefficient plus the certificate that pinned it."""

    value: Fraction
    power_used: int
    floor_of_power: int
    interval: tuple[Fraction, Fraction]


def dehornoy_floor(w: BraidWord, *, cap: int | None = None) -> FloorResult:
    """Largest t with Delta^(2t) <= the braid of w.

    Exponential bracketing then bisection on the monotone predicate
    compare(w, Delta^(2t)) != LESS.  The bracket is capped at
    2*len(w) + 2: a single letter has floor 0 or -1, so quasimorphism
    additivity keeps |floor| <= 2*len(w) + 1 for any word.
    """
    delta2 = garside_delta(w.strands, squared=True)

    def at_least(t: int) -> bool:
        return compare(w, delta2**t, cap=cap) != OrderSign.LESS

    limit = 2 * len(w) + 2
    # Walk away from 0 in the direction at_least(0) points, doubling, until
    # the predicate flips; `near` is the last t where it still matched t = 0.
    upward = at_least(0)
    near, far = 0, 1 if upward else -1
    while at_least(far) == upward:
        near, far = far, 2 * far
        if abs(far) > limit:
            raise RuntimeError(
                f"floor bracket grew past {limit} for a {len(w)}-letter word (engine bug)"
            )
    lo, hi = (near, far) if upward else (far, near)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_least(mid):
            lo = mid
        else:
            hi = mid
    return FloorResult(floor=lo)


def fdtc_interval(
    w: BraidWord, N: int, *, cap: int | None = None
) -> tuple[Fraction, Fraction]:
    """Closed interval of width 1/N containing the twist coefficient of w.

    Floors sandwich BT (floor <= BT <= floor + 1) and BT is homogeneous,
    so applying the sandwich to w^N and dividing pins BT(w) between
    [w^N]_D / N and ([w^N]_D + 1) / N.
    """
    if N < 1:
        raise ValueError(f"power must be positive, got {N}")
    f = dehornoy_floor(free_reduce(w**N), cap=cap).floor
    return Fraction(f, N), Fraction(f + 1, N)


def fdtc_exact(w: BraidWord, *, cap: int | None = None) -> FdtcResult:
    """Exact fractional Dehn twist coefficient of the braid of w.

    Starts from f = [w]_D at P = 1 and doubles P.  By the defect-1
    quasimorphism bound, [w^(2P)]_D is 2f or 2f + 1, so each level costs
    one comparison of w^(2P) against Delta^(2(2f+1)).  The search stops
    at the first P whose interval [f/P, (f+1)/P] holds exactly one
    rational with denominator <= n; that always happens once P > n(n-1),
    and no unique candidate by then means the engine is broken, not the
    input.  (P = 1 never stops: [f, f+1] holds f, f + 1/2 and f + 1.)

    The returned floor is certified on w^P alone by two fresh
    comparisons, Delta^(2f) <= w^P < Delta^(2f+2), so neither the lemma
    nor any earlier probe is trusted: a single wrong comparison anywhere
    raises RuntimeError instead of returning a value.
    """
    n = w.strands
    delta2 = garside_delta(n, squared=True)

    def at_least(power: BraidWord, t: int) -> bool:
        return compare(power, delta2**t, cap=cap) != OrderSign.LESS

    P, f = 1, dehornoy_floor(free_reduce(w), cap=cap).floor
    lo, hi = Fraction(f), Fraction(f + 1)
    candidates: set[Fraction] = set()  # P = 1 is never unique, so no need to test it
    while len(candidates) != 1:
        if P > n * (n - 1):
            raise RuntimeError(
                f"expected exactly one rational with denominator <= {n} in "
                f"[{lo}, {hi}], found {sorted(candidates)} (engine bug)"
            )
        P *= 2
        power = free_reduce(w**P)
        f = 2 * f + at_least(power, 2 * f + 1)
        lo, hi = Fraction(f, P), Fraction(f + 1, P)
        candidates = {
            Fraction(p, q)
            for q in range(1, n + 1)
            for p in range(math.ceil(lo * q), math.floor(hi * q) + 1)
        }
    if not at_least(power, f) or at_least(power, f + 1):
        raise RuntimeError(
            f"floor {f} of the power {P} failed its certificate (engine bug)"
        )
    return FdtcResult(
        value=candidates.pop(), power_used=P, floor_of_power=f, interval=(lo, hi)
    )


def word_sign_bounds(w: BraidWord) -> tuple[bool, bool]:
    """(BT >= 0 certified, BT <= 0 certified) from letter signs alone.

    A generator index that occurs only positively forces BT >= 0; only
    negatively, BT <= 0.  Indices that never occur certify nothing.
    """
    seen_pos: set[int] = set()
    seen_neg: set[int] = set()
    for g in w.letters:
        (seen_pos if g > 0 else seen_neg).add(abs(g))
    lower_zero = bool(seen_pos - seen_neg)
    upper_zero = bool(seen_neg - seen_pos)
    return lower_zero, upper_zero


def destab_bounds(w: BraidWord) -> tuple[Fraction, Fraction] | None:
    """(0,1) or (-1,0) when the word visibly destabilizes, else None.

    A single positive (negative) occurrence of the top generator after
    free and cyclic reduction traps BT in the unit interval of that sign.
    """
    sign = detect_destabilizable(w)
    if sign is None:
        return None
    if sign > 0:
        return Fraction(0), Fraction(1)
    return Fraction(-1), Fraction(0)
