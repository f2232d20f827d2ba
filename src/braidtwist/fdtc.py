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

Every returned floor is then certified by handle reduction (the
ordering module): fresh comparisons of the form Delta^(2t) <= b^Q, so a
wrong search answer can only raise RuntimeError, never return a value.
A handle reduction's cost depends on where the letters sit, not only on
how many there are: on the words of the fdtc_small_n benchmark,
Delta^(-2t) b^Q with all the inverse twists in front takes about 2.5
times as long to reduce as the same braid with the twists spread
through the power.  So each certificate comparison reduces the spread
word

    c (Delta^(-2 k_1) u) (Delta^(-2 k_2) u) ... (Delta^(-2 k_Q) u) c^-1,
    k_j = floor(j t / Q) - floor((j - 1) t / Q),

so the k_j sum to t and each copy of u carries its share of the twists
(positive twist blocks when t < 0).  The word equals Delta^(-2t) b^Q
because Delta^2 is central and c^-1 c cancels freely; it is built from
the same split c, u that the search holds, and nothing from the engine
goes into it.

The floor f of a power b^P (P a power of two) is certified on the
smallest powers that prove it.  With Q = P / 2^v2(f) and
Q' = P / 2^v2(f+1), neither below 1 (f = 0 goes to Q = 1), and
a = f Q / P, a' = (f + 1) Q' / P:

    Delta^(2a) <= b^Q    gives   Delta^(2f) <= b^P,
    b^Q' < Delta^(2a')   gives   b^P < Delta^(2f+2),

because the positive and the negative cone are each closed under
products and Delta^2 is central: raise each statement to the power P/Q
or P/Q'.  Soundness rests on that alone.  The defect-1 bound on powers
is needed only for completeness, to know that the smaller statements
hold when the one at P does: [b^P]_D <= (P/Q) [b^Q]_D + P/Q - 1 forces
[b^Q]_D > a - 1, and [b^Q']_D <= [b^P]_D Q'/P < a'.  Were it ever to
fail, the certificate would raise RuntimeError, not return a value.  f
and f + 1 are not both even, so one side stays at P.  The step cap (`cap`)
bounds each certificate reduction; a Dynnikov probe costs
O(n (|b| P + |t| n)) integer operations and needs no budget.
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
    """Exact twist coefficient plus the certificate that pinned it.

    power_used, floor_of_power and interval are the certificate:
    Delta^(2 floor_of_power) <= w^power_used < Delta^(2 floor_of_power + 2).
    floor is the certified Dehornoy floor of w itself (power 1).
    """

    value: Fraction
    power_used: int
    floor_of_power: int
    interval: tuple[Fraction, Fraction]
    floor: int


class _PowerSearch:
    """Dynnikov probes Delta^(2t) <= w^P on the powers of w, sharing one
    state: the coordinates of c u^P for w = c u c^-1 (see the module
    notes).  Nothing is reduced or rewritten.  The split c, u and the
    full twist blocks also build the certificate words (twisted_power)."""

    def __init__(self, w: BraidWord) -> None:
        self.strands = w.strands
        c, self._u = _conjugate_split(w.letters)
        self._c = tuple(c)
        self._c_inverse = tuple(-g for g in reversed(c))
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

    def twisted_power(self, P: int, t: int) -> BraidWord:
        """A word for Delta^(-2t) w^P with the t full twists spread through
        the P copies of the core u (see the module notes)."""
        letters = list(self._c)
        for j in range(1, P + 1):
            k = j * t // P - (j - 1) * t // P
            letters.extend((self._untwist if k > 0 else self._twist) * abs(k))
            letters.extend(self._u)
        letters.extend(self._c_inverse)
        return BraidWord._unchecked(self.strands, tuple(letters))


def _at_least(search: _PowerSearch, P: int, t: int, *, cap: int | None = None) -> bool:
    """Whether Delta^(2t) <= w^P, by one fresh handle reduction of
    search.twisted_power(P, t)."""
    word = search.twisted_power(P, t)
    return compare(word, BraidWord(search.strands), cap=cap) != OrderSign.LESS


def _shrink(P: int, t: int) -> tuple[int, int]:
    """(P / 2^j, t / 2^j) for the largest j with 2^j dividing both, P a
    power of two (so t = 0 gives (1, 0)).  Either side of a floor
    certificate that holds for the returned pair holds for (P, t) too
    (module notes)."""
    while P > 1 and t % 2 == 0:
        P //= 2
        t //= 2
    return P, t


def _certify(
    search: _PowerSearch, floors: list[tuple[int, int]], cap: int | None
) -> None:
    """Raise unless Delta^(2f) <= w^P < Delta^(2f+2) for every (P, f) in floors.

    Each side is proved on the smaller power _shrink gives it, by one
    handle reduction bounded by cap; a side that two floors share is
    reduced once, and two floors that claim opposite answers for the
    same statement raise without any reduction.
    """
    claims: dict[tuple[int, int], bool] = {}
    for P, f in floors:
        for key, holds in ((_shrink(P, f), True), (_shrink(P, f + 1), False)):
            if claims.setdefault(key, holds) != holds:
                raise RuntimeError(
                    f"floor {f} of the power {P} contradicts another floor (engine bug)"
                )
    for (Q, t), holds in claims.items():
        if _at_least(search, Q, t, cap=cap) != holds:
            raise RuntimeError(
                f"Delta^{2 * t} {'<=' if holds else '>'} w^{Q} failed, so a "
                f"floor failed its certificate (engine bug)"
            )


def dehornoy_floor(w: BraidWord, *, cap: int | None = None) -> FloorResult:
    """Largest t with Delta^(2t) <= the braid of w.

    A Dynnikov search (_PowerSearch.floor) finds t; two handle-reduction
    comparisons, Delta^(2t) <= w < Delta^(2t+2), certify it, so a wrong
    probe raises RuntimeError instead of returning a value.  cap bounds
    each of those two reductions.
    """
    search = _PowerSearch(w)
    f = search.floor()
    _certify(search, [(1, f)], cap)
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


def _unique_rational(f: int, P: int, n: int) -> tuple[int, int] | None:
    """(p, q) if [f/P, (f+1)/P] holds exactly one reduced p/q with
    1 <= q <= n, else None.  Integer arithmetic only."""
    found = None
    for q in range(1, n + 1):
        for p in range(-(-f * q // P), (f + 1) * q // P + 1):
            if math.gcd(p, q) == 1:
                if found is not None:
                    return None
                found = (p, q)
    return found


def fdtc_exact(w: BraidWord, *, cap: int | None = None) -> FdtcResult:
    """Exact fractional Dehn twist coefficient of the braid of w.

    Starts from f = [w]_D at P = 1 and doubles P.  By the defect-1
    quasimorphism bound, [w^(2P)]_D is 2f or 2f + 1, so each level costs
    one Dynnikov probe of w^(2P) against Delta^(2(2f+1)).  The search stops
    at the first P whose interval [f/P, (f+1)/P] holds exactly one
    rational with denominator <= n (one integer count per level); that
    always happens once P > n(n-1), and no unique candidate by then means
    the engine is broken, not the input.  (P = 1 never stops: [f, f+1]
    holds f, f + 1/2 and f + 1.)

    The floor at P = 1 and the doubling probes come from one Dynnikov
    search (the module notes).  Handle reduction then certifies both
    floors: [w]_D = f1 by Delta^(2 f1) <= w < Delta^(2 f1 + 2), and
    [w^P]_D = f with each side on the smallest power that proves it
    (module notes), a side that shrinks to the power 1 sharing the P = 1
    comparison: three or four comparisons in all, each a fresh reduction
    bounded by cap.  Their soundness rests only on the cones being closed
    under products, so neither the defect-1 bound nor any probe is
    trusted: a single wrong answer anywhere raises RuntimeError instead
    of returning a value.  The result carries the certified f1 as floor.
    """
    n = w.strands
    search = _PowerSearch(w)
    floor = search.floor()
    P, f = 1, floor
    rational = None  # P = 1 is never unique, so no need to test it
    while rational is None:
        if P > n * (n - 1):
            raise RuntimeError(
                f"expected exactly one rational with denominator <= {n} in "
                f"[{Fraction(f, P)}, {Fraction(f + 1, P)}] (engine bug)"
            )
        search.double()
        P = search.power
        f = 2 * f + search.at_least(2 * f + 1)
        rational = _unique_rational(f, P, n)
    _certify(search, [(1, floor), (P, f)], cap)
    return FdtcResult(
        value=Fraction(*rational),
        power_used=P,
        floor_of_power=f,
        interval=(Fraction(f, P), Fraction(f + 1, P)),
        floor=floor,
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
