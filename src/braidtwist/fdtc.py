"""Dehornoy floors and exact fractional Dehn twist coefficients.

The Dehornoy floor of a braid w is the largest integer t with
Delta^(2t) <= w, so full twist powers get their own exponent as floor.
The fractional Dehn twist coefficient BT(w) = lim [w^P]_D / P is
rational with denominator at most the strand count n.

Cone closure.  The positive and the negative cone are each closed under
products and Delta^2 is central, so Delta^(2g) <= x gives
Delta^(2gk) <= x^k for every k, hence g <= BT(x); and x < Delta^(2g)
gives BT(x) <= g.  With g = [x]_D and [x]_D + 1 this is the sandwich
[x]_D <= BT(x) <= [x]_D + 1.  BT is homogeneous: BT(w^q) = q BT(w).

Search.  Both numbers come from one Stern-Brocot descent on Dynnikov
coordinates (the dynnikov module).  With w = c u c^-1 freely (u
cyclically reduced), one state holds the coordinates of
c u^P Delta^(-2s), s the full twists it carries.  A probe of a/b is the
sign of Delta^(-2a) w^b: it grows the state to b copies of u and a
twists (Delta^2 is central, so where the twists sit does not change the
braid), then applies c^-1 to a copy.  A probe that reads >= 0 puts BT
at or above a/b by cone closure, one that reads < 0 at or below it.
The descent starts at the root 0/1 between the ends -1/0 and 1/0,
probes the mediant a/b of its interval and keeps the half on the side
of BT, while b is at most a limit.  While an end is infinite the
mediants are the integers k/1, and the probe of k/1 reads >= 0 exactly
when Delta^(2k) <= w: the first run is a walk, one full twist per step,
to the interval [t, t + 1] of the floor t = [w]_D.  dehornoy_floor
stops there (limit 1).  fdtc_exact goes on (limit n) until the
mediant's denominator b exceeds n; the two ends are then neighbours in
the Farey sequence F_n, nothing with denominator <= n lies strictly
between them, and one more probe, of that last mediant, picks the end
that BT equals, the winner p/q.  Mediant denominators never decrease,
so the state only grows: a probe applies its new copies of u as one run
of letters, then its change in twists as another, and the last mediant
has n < b <= 2n - 1.  A probe that reads 0 says w^b = Delta^(2a) (the
action is faithful): the descent stops there, with BT = a/b.  A single
letter has floor 0 or -1, so quasimorphism additivity keeps
|[w]_D| <= len(w), and a descent that keeps an end at or beyond
+-(2 len(w) + 1) raises.

Certificate.  Handle reduction (the ordering module) proves each
answer, so a wrong probe can only raise RuntimeError, never return a
value.  One routine makes two compares, for a winner p/q and the other
end a/b of an interval of the descent:

    Delta^(2p) <= w^q   and   w^b < Delta^(2a)     if p/q < a/b,
    w^q < Delta^(2p)    and   Delta^(2a) <= w^b    if a/b < p/q,

an EQUAL compare counting as <=.  By cone closure BT(w) then lies
between p/q and a/b.  The floor takes t/1 and (t + 1)/1, which is the
statement Delta^(2t) <= w < Delta^(2t + 2) itself; it makes these two
compares even when a probe read 0.  BT takes the winner and the last
mediant: |p b - q a| = 1 and q <= n < b, checked by arithmetic, put
every rational strictly between them at denominator >= q + b > n, and
a/b has denominator b > n, so BT = p/q.  If the descent stopped at
w^q = Delta^(2p), the one compare of Delta^(-2p) w^q must come out
EQUAL instead, which proves BT = p/q alone.  Soundness rests only on
cone closure and on the bound that BT has denominator <= n.

Fields by arithmetic.  The sandwich at x = w^P gives
[w^P]_D <= P p/q <= [w^P]_D + 1.  If q does not divide P this fixes
[w^P]_D = floor(P p / q).  If it does, the winner's statement decides,
raised to the power P/q: P p / q if Delta^(2p) <= w^q (an EQUAL compare
included), P p / q - 1 if w^q < Delta^(2p).  The power reported is the
first power of two P >= 2 whose interval [f/P, (f+1)/P] lies strictly
between the neighbours l/m < p/q < r/s of p/q in F_n, so holds no other
rational with denominator <= n: m and s are the largest values <= n
with p m = 1 and p s = -1 (mod q) (n when q = 1), l = (p m - 1)/q and
r = (p s + 1)/q.  Neighbours in F_n are at least 1/(n(n-1)) apart, so
P is the first power of two above n(n-1) at the latest.  The floor of
w is the same arithmetic at P = 1, so fdtc_exact proves it with no
compare of its own.

Certificate words.  A handle reduction's cost depends on where the
letters sit, not only on how many there are: on the words of the
fdtc_small_n benchmark, the certificate words Delta^(-2t) w^Q with all
the inverse twists in front take about 1.9 times as long to reduce as
the same braids with the twists spread through the power, each copy of
u carrying its share.  So each compare reduces c B(k_1) ... B(k_Q) c^-1
over the blocks B(k) = Delta^(-2k) u, with
k_i = floor(i t / Q) - floor((i - 1) t / Q): the balanced (Christoffel)
arrangement of slope t/Q, in which every k_i is floor(t/Q) or
floor(t/Q) + 1.  The full twist is written (s_1 ... s_(n-1))^n, the
Coxeter power that braid._full_twist_from also gives make_positive: the
compares of fdtc_exact on the fdtc_small_n words then take about a
fifth fewer handle reductions than with the Garside word Delta Delta.
Each block is handle-reduced the first time a word of the search asks
for it and kept by k; every compare is at a power Q <= 2n - 1, so a
word is at most 2n - 1 kept blocks of two kinds.  The k_i telescope to
t over the Q copies, so the word equals Delta^(-2t) w^Q by
construction: Delta^2 is central, c^-1 c cancels freely and every
handle reduction is an identity in B_n.  The arrangement changes what a
compare costs, never its answer.  The word is built from the same split
c, u that the search holds, and only the handle reduction engine goes
into it: nothing from the search does.

The step cap (`cap`) is resolved once per call and bounds each block
reduction and each certificate reduction.  A Dynnikov probe applies its
new copies of u, |a - s| blocks of n(n - 1) letters and c^-1, a few
integer operations per letter, and needs no budget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import dynnikov, ordering

# free_reduce, garside_delta and compare are not called here;
# bench/spans.py wraps them under this module's name.
from .braid import (  # noqa: F401
    BraidWord,
    _conjugate_split,
    _full_twist_from,
    detect_destabilizable,
    free_reduce,
    garside_delta,
)
from .ordering import OrderSign, compare  # noqa: F401

FLOOR_CONVENTION = "max-t-with-Δ^{2t}⪯β"


@dataclass(frozen=True)
class FloorResult:
    floor: int
    convention: str = FLOOR_CONVENTION


@dataclass(frozen=True)
class FdtcResult:
    """Exact twist coefficient plus the certificate fields that pin it.

    value is BT(w) = p/q, proved by one or two handle-reduction compares
    at powers up to 2n - 1 (module notes).  power_used, floor_of_power
    and interval follow from it by arithmetic:
    Delta^(2 floor_of_power) <= w^power_used < Delta^(2 floor_of_power + 2),
    and power_used is the first power of two whose interval holds no
    other rational with denominator <= n.  floor is the Dehornoy floor
    of w itself, floor_of_power // power_used.
    """

    value: Fraction
    power_used: int
    floor_of_power: int
    interval: tuple[Fraction, Fraction]
    floor: int


@functools.lru_cache(maxsize=4)
def _full_twists(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The letters of Delta^2 = (s_1 ... s_(n-1))^n and of Delta^-2 on n strands."""
    twist = _full_twist_from(n, 1)
    return twist, tuple(-g for g in reversed(twist))


class _PowerSearch:
    """Dynnikov probes of Delta^(-2a) w^b sharing one state: the
    coordinates of c u^P Delta^(-2s) for w = c u c^-1, P the copies and
    s the twists it holds (see the module notes); a probe reduces and
    rewrites nothing.  The split c, u and the full twists also build the
    certificate words (twisted_power) from the blocks Delta^(-2k) u,
    whose handle-reduced forms are kept by k."""

    def __init__(self, w: BraidWord) -> None:
        self.strands = w.strands
        c, u = _conjugate_split(w.letters)
        self._c = tuple(c)
        self._u = tuple(u)
        self._c_inverse = tuple(-g for g in reversed(c))
        self._twist, self._untwist = _full_twists(w.strands)
        self._state = dynnikov.act(dynnikov.start(w.strands), c + u)
        self._copies = 1
        self._twists = 0
        self._length = len(w)
        self._blocks: dict[int, tuple[int, ...]] = {}

    def _probe(self, a: int, b: int) -> int:
        """+1, 0 or -1 as Delta^(-2a) w^b is >, = or < 1, for b no smaller
        than the copies the state holds: the state takes its new copies of
        u, then its change in twists, and a copy of it gets c^-1."""
        dynnikov.act(self._state, self._u * (b - self._copies))
        block = self._untwist if a > self._twists else self._twist
        dynnikov.act(self._state, block * abs(a - self._twists))
        self._copies, self._twists = b, a
        return dynnikov.sign(dynnikov.act(self._state.copy(), self._c_inverse))

    def descend(self, limit: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The Stern-Brocot descent from 0/1 between -1/0 and 1/0 (module
        notes): probe the mediant a/b of the interval and keep the half on
        the side of BT while b <= limit.  Returns the final ends (lo, hi),
        or (a, b) twice for a probe that read 0.  Raises RuntimeError once
        a kept end reaches +-(2 len(w) + 1), past any floor."""
        bound = 2 * self._length + 1
        lo, hi = (-1, 0), (1, 0)
        a, b = 0, 1  # the mediant of -1/0 and 1/0 is (0, 0), not the root
        while b <= limit:
            sign = self._probe(a, b)
            if sign == 0:
                return (a, b), (a, b)
            if sign > 0:
                lo = (a, b)
            else:
                hi = (a, b)
            if lo[0] >= bound * lo[1] or hi[0] <= -bound * hi[1]:
                raise RuntimeError(
                    f"the floor walk reached {a}/{b} for a {self._length}-letter word "
                    f"(engine bug)"
                )
            a, b = lo[0] + hi[0], lo[1] + hi[1]
        return lo, hi

    def _block(self, k: int, cap: int | None) -> tuple[int, ...]:
        """The letters of B(k) = Delta^(-2k) u handle-reduced (bounded by
        cap), empty or sigma-definite: reduced the first time k is asked
        for and kept for every later word of the search."""
        block = self._blocks.get(k)
        if block is None:
            letters = (self._untwist if k > 0 else self._twist) * abs(k) + self._u
            word = BraidWord._unchecked(self.strands, letters)
            block = self._blocks[k] = ordering.handle_reduce(word, cap=cap).letters
        return block

    def twisted_power(self, P: int, t: int, *, cap: int | None = None) -> BraidWord:
        """A word for Delta^(-2t) w^P: c, the kept blocks B(k_1) ... B(k_P)
        with k_i = floor(i t / P) - floor((i - 1) t / P), then c^-1 (see
        the module notes)."""
        core: list[int] = []
        for i in range(1, P + 1):
            core.extend(self._block(i * t // P - (i - 1) * t // P, cap))
        return BraidWord._unchecked(self.strands, self._c + tuple(core) + self._c_inverse)


def _power_sign(search: _PowerSearch, P: int, t: int, *, cap: int | None = None) -> OrderSign:
    """The order sign of Delta^(-2t) w^P: ordering.order_sign of
    search.twisted_power(P, t), one handle reduction of kept blocks that
    are reduced at most once per search."""
    return ordering.order_sign(search.twisted_power(P, t, cap=cap), cap=cap)


def dehornoy_floor(w: BraidWord, *, cap: int | None = None) -> FloorResult:
    """Largest t with Delta^(2t) <= the braid of w.

    The Dynnikov descent to denominator 1 finds t; two handle-reduction
    compares, Delta^(2t) <= w < Delta^(2t+2), certify it, so a wrong
    probe raises RuntimeError instead of returning a value.  cap bounds
    each of those two reductions and that of each block they are built
    from, B(t) and B(t + 1).
    """
    cap = ordering._effective_cap(cap)
    search = _PowerSearch(w)
    (t, _), _ = search.descend(1)
    _certify(search, (t, 1), (t + 1, 1), cap)
    return FloorResult(floor=t)


def _floor_of_power(P: int, p: int, q: int, below: bool) -> int:
    """[w^P]_D for BT(w) = p/q, below whether Delta^(2p) <= w^q (module notes)."""
    f, rest = divmod(P * p, q)
    return f if rest or below else f - 1


def _isolating_power(p: int, q: int, n: int, below: bool) -> int:
    """The first power of two P >= 2 whose interval [f/P, (f+1)/P],
    f = [w^P]_D, lies strictly between the F_n neighbours of p/q (module notes)."""
    m, s = ((n - x) // q * q + x for x in (pow(p, -1, q), pow(-p, -1, q)))
    l, r = (p * m - 1) // q, (p * s + 1) // q
    P = 2  # P = 1 never isolates: [f, f + 1] holds f, f + 1/2 and f + 1
    f = _floor_of_power(P, p, q, below)
    while f * m <= l * P or (f + 1) * s >= r * P:
        P *= 2
        f = _floor_of_power(P, p, q, below)
    return P


def _certify(search: _PowerSearch, winner, other, cap: int) -> bool:
    """Raise unless handle reduction proves that BT(w) lies between the
    winner p/q and the other end a/b of an interval (module notes):
    Delta^(2p) <= w^q then w^b < Delta^(2a) if p/q < a/b, the reverse if
    a/b < p/q, an EQUAL compare counting as <=.  other None: one compare,
    Delta^(-2p) w^q EQUAL to 1.  Each compare is bounded by cap.  Returns
    whether Delta^(2p) <= w^q, which the compares prove too."""
    p, q = winner
    sign = _power_sign(search, q, p, cap=cap)
    if other is None:
        if sign is not OrderSign.EQUAL:
            raise RuntimeError(
                f"w^{q} = Delta^{2 * p} failed its certificate, so the Dynnikov "
                f"coordinates matched a braid they do not (engine bug)"
            )
        return True
    a, b = other
    lower = p * b < a * q  # the winner is the lower end
    if (sign is not OrderSign.LESS) != lower:
        raise RuntimeError(
            f"Delta^{2 * p} {'<=' if lower else '>'} w^{q} failed its certificate (engine bug)"
        )
    if (_power_sign(search, b, a, cap=cap) is OrderSign.LESS) != lower:
        raise RuntimeError(
            f"Delta^{2 * a} {'>' if lower else '<='} w^{b} failed its certificate (engine bug)"
        )
    return lower


def fdtc_exact(w: BraidWord, *, cap: int | None = None) -> FdtcResult:
    """Exact fractional Dehn twist coefficient of the braid of w.

    A Dynnikov Stern-Brocot descent over the Farey sequence F_n finds
    BT = p/q with q <= n and the last mediant a/b, n < b <= 2n - 1.
    Handle reduction certifies BT = p/q with two compares, Delta^(2p)
    against w^q and Delta^(2a) against w^b, or, if a probe says
    w^q = Delta^(2p), with one compare that must come out EQUAL.  Each
    is bounded by cap, as is the reduction of each full-twist block they
    are built from.  Every other field follows by arithmetic (module notes).
    Soundness rests only on the cones being closed under products and on
    BT having denominator <= n, so no probe is trusted: a single wrong
    answer anywhere raises RuntimeError instead of returning a value.
    """
    cap = ordering._effective_cap(cap)
    n = w.strands
    search = _PowerSearch(w)
    lo, hi = search.descend(n)
    winner, mediant = lo, None
    if lo != hi:  # the last mediant's probe picks the winner
        mediant = a, b = lo[0] + hi[0], lo[1] + hi[1]
        winner = p, q = hi if search._probe(a, b) >= 0 else lo
        if abs(p * b - q * a) != 1 or not q <= n < b:
            raise RuntimeError(
                f"{p}/{q} and {a}/{b} do not isolate a rational with denominator "
                f"<= {n} (engine bug)"
            )
    p, q = winner
    below = _certify(search, winner, mediant, cap)
    P = _isolating_power(p, q, n, below)
    f = _floor_of_power(P, p, q, below)
    return FdtcResult(
        value=Fraction(p, q),
        power_used=P,
        floor_of_power=f,
        interval=(Fraction(f, P), Fraction(f + 1, P)),
        floor=_floor_of_power(1, p, q, below),
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
