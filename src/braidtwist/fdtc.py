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

Two engines answer "is Delta^(2t) <= b^P?".  The searches (the
bracket and bisection of the floor, and the doubling probes) run on
Dynnikov coordinates (the dynnikov module): with b = c u c^-1 freely
(u cyclically reduced), one state holds the coordinates of c u^P and
grows from P to 2P by applying u P more times, and a probe copies it
and applies c^-1 and |t| blocks of Delta^(-+2).  Nothing is rewritten,
and no probe re-reads the power.

Every returned value is then certified by handle reduction (the
ordering module): two fresh comparisons Delta^(2f) <= b^P <
Delta^(2f+2) on the final power, so a wrong search answer can only
raise RuntimeError, never return a value.  A handle reduction's cost
depends on where the letters sit, not only on how many there are: on
the words of the fdtc_small_n benchmark, Delta^(-2t) b^P with all the
inverse twists in front takes about 2.5 times as long to reduce as the
same braid with the twists spread through the power.  So each
certificate comparison reduces the spread word

    c (Delta^(-2 k_1) u) (Delta^(-2 k_2) u) ... (Delta^(-2 k_P) u) c^-1,
    k_j = floor(j t / P) - floor((j - 1) t / P),

so the k_j sum to t and each copy of u carries its share of the twists
(positive twist blocks when t < 0).  The word equals Delta^(-2t) b^P
because Delta^2 is central and c^-1 c cancels freely; nothing from the
engine goes into building it.  The step cap (`cap`) bounds these
certificate reductions only; a Dynnikov probe costs O(n (|b| P + |t| n))
integer operations and needs no budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import dynnikov
from .braid import (
    BraidWord,
    _conjugate_split,
    detect_destabilizable,
    free_reduce,
    garside_delta,
)
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


def _twisted_power(w: BraidWord, P: int, t: int) -> BraidWord:
    """A word for Delta^(-2t) w^P with the t full twists spread through
    the P copies of w's cyclically reduced core (see the module notes)."""
    c, u = _conjugate_split(w.letters)
    delta2 = garside_delta(w.strands, squared=True).letters
    inverse = tuple(-g for g in reversed(delta2))
    letters = list(c)
    for j in range(1, P + 1):
        k = j * t // P - (j - 1) * t // P
        letters.extend((inverse if k > 0 else delta2) * abs(k))
        letters.extend(u)
    letters.extend(-g for g in reversed(c))
    return BraidWord(w.strands, tuple(letters))


def _at_least(w: BraidWord, P: int, t: int, *, cap: int | None = None) -> bool:
    """Whether Delta^(2t) <= w^P, by one fresh handle reduction of _twisted_power."""
    return compare(_twisted_power(w, P, t), BraidWord(w.strands), cap=cap) != OrderSign.LESS


class _PowerSearch:
    """Dynnikov probes Delta^(2t) <= w^P on the powers of w, sharing one
    state: the coordinates of c u^P for w = c u c^-1 (see the module
    notes).  Nothing is reduced or rewritten."""

    def __init__(self, w: BraidWord) -> None:
        c, self._u = _conjugate_split(w.letters)
        self._c_inverse = [-g for g in reversed(c)]
        self._twist = garside_delta(w.strands, squared=True).letters
        self._untwist = tuple(-g for g in reversed(self._twist))
        self._state = dynnikov.act(dynnikov.start(w.strands), c + self._u)
        self._length = len(w)
        self.power = 1

    def double(self) -> None:
        """Go from c u^P to c u^(2P) by applying u P more times."""
        for _ in range(self.power):
            dynnikov.act(self._state, self._u)
        self.power *= 2

    def at_least(self, t: int) -> bool:
        """Whether Delta^(2t) <= w^P at the current power P: the sign of
        c u^P c^-1 Delta^(-2t), which is Delta^(-2t) w^P as Delta^2 is central."""
        coords = dynnikov.act(self._state.copy(), self._c_inverse)
        block = self._untwist if t > 0 else self._twist
        for _ in range(abs(t)):
            dynnikov.act(coords, block)
        return dynnikov.sign(coords) >= 0

    def floor(self) -> int:
        """Largest t with at_least(t) at P = 1: exponential bracketing,
        then bisection.  The bracket is capped at 2*len(w) + 2: a single
        letter has floor 0 or -1, so quasimorphism additivity keeps
        |floor| <= 2*len(w) + 1 for any word."""
        limit = 2 * self._length + 2
        # Walk away from 0 in the direction the t = 0 probe points, doubling,
        # until the predicate flips; `near` is the last t where it still matched.
        upward = self.at_least(0)
        near, far = 0, 1 if upward else -1
        while self.at_least(far) == upward:
            near, far = far, 2 * far
            if abs(far) > limit:
                raise RuntimeError(
                    f"floor bracket grew past {limit} for a "
                    f"{self._length}-letter word (engine bug)"
                )
        lo, hi = (near, far) if upward else (far, near)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.at_least(mid):
                lo = mid
            else:
                hi = mid
        return lo


def _certify(w: BraidWord, P: int, f: int, cap: int | None) -> None:
    """Raise unless Delta^(2f) <= w^P < Delta^(2f+2), by two handle reductions."""
    if not _at_least(w, P, f, cap=cap) or _at_least(w, P, f + 1, cap=cap):
        raise RuntimeError(
            f"floor {f} of the power {P} failed its certificate (engine bug)"
        )


def dehornoy_floor(w: BraidWord, *, cap: int | None = None) -> FloorResult:
    """Largest t with Delta^(2t) <= the braid of w.

    A Dynnikov search (_PowerSearch.floor) finds t; two handle-reduction
    comparisons, Delta^(2t) <= w < Delta^(2t+2), certify it, so a wrong
    probe raises RuntimeError instead of returning a value.  cap bounds
    each of those two reductions.
    """
    f = _PowerSearch(w).floor()
    _certify(w, 1, f, cap)
    return FloorResult(floor=f)


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
    one Dynnikov probe of w^(2P) against Delta^(2(2f+1)).  The search stops
    at the first P whose interval [f/P, (f+1)/P] holds exactly one
    rational with denominator <= n; that always happens once P > n(n-1),
    and no unique candidate by then means the engine is broken, not the
    input.  (P = 1 never stops: [f, f+1] holds f, f + 1/2 and f + 1.)

    The floor at P = 1 and the doubling probes come from one Dynnikov
    search (the module notes).  The returned floor is certified on w^P
    alone by two handle-reduction comparisons, Delta^(2f) <= w^P <
    Delta^(2f+2), each its own reduction of the spread word and bounded
    by cap, so neither the lemma nor any probe is trusted: a single
    wrong answer anywhere raises RuntimeError instead of returning a
    value.
    """
    n = w.strands
    search = _PowerSearch(w)
    P, f = 1, search.floor()
    lo, hi = Fraction(f), Fraction(f + 1)
    candidates: set[Fraction] = set()  # P = 1 is never unique, so no need to test it
    while len(candidates) != 1:
        if P > n * (n - 1):
            raise RuntimeError(
                f"expected exactly one rational with denominator <= {n} in "
                f"[{lo}, {hi}], found {sorted(candidates)} (engine bug)"
            )
        search.double()
        P = search.power
        f = 2 * f + search.at_least(2 * f + 1)
        lo, hi = Fraction(f, P), Fraction(f + 1, P)
        candidates = {
            Fraction(p, q)
            for q in range(1, n + 1)
            for p in range(math.ceil(lo * q), math.floor(hi * q) + 1)
        }
    _certify(w, P, f, cap)
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
