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
(u cyclically reduced), one state holds the coordinates of
c u^P Delta^(-2s), s the full twists it carries, and a probe copies it
and applies c^-1 and |t - s| blocks of Delta^(-+2) (Delta^2 is
central, so where the twists sit does not change the braid).  The
state grows from P to 2P by applying u P more times and then enough
blocks to carry s = 2f, f the floor of b^P, so the doubling probe of
2f + 1 applies one block, not |2f + 1|.  Nothing is rewritten, and no
probe re-reads the power.

A periodic braid is caught while the state grows.  By Kerekjarto and
Eilenberg a periodic b is conjugate to a power of delta = s_1 ... s_(n-1)
or of epsilon = s_1 delta, and delta^n = epsilon^(n-1) = Delta^2, so b
is periodic exactly when b^m = Delta^(2k) for some m in {n - 1, n}.
Such an (m, k) must pass two cheap filters: m times the exponent sum
of b is k n (n - 1), which fixes k, and u^m has the identity
permutation.  When the state reaches copy m of u for an (m, k) that
passes, a copy of it with c^-1 applied is compared for equality with
the coordinates of Delta^(2(k - s)), kept per (n, k - s); other words
pay nothing for the check.  The doubling always reaches copy m: an
interval [f/P, (f+1)/P] with P <= n has two endpoints of denominator
<= n, so the search never stops before P > n >= m.  A hit is then
certified by one handle reduction of the Christoffel word for
Delta^(-2k) u^m (below), which must be the empty word: it is trivial
exactly when b^m = c u^m c^-1 is Delta^(2k).  From b^m = Delta^(2k)
alone, [b^P]_D = floor(P k / m) for every P: were
Delta^(2(f+1)) <= b^P or b^P < Delta^(2f) for that f, the m-th power
of Delta^(-2(f+1)) b^P or of Delta^(-2f) b^P would, by cone closure,
give Delta^(2(kP - m(f+1))) >= 1 or Delta^(2(kP - mf)) < 1, against
the choice of f.  So every certificate field follows by arithmetic,
through the same stop rule, with no twisted-power comparison, and the
floors the search found up to the hit must agree with it.

Every returned floor is then certified by handle reduction (the
ordering module): fresh comparisons of the form Delta^(2t) <= b^Q, so a
wrong search answer can only raise RuntimeError, never return a value.
A handle reduction's cost depends on where the letters sit, not only on
how many there are: on the words of the fdtc_small_n benchmark,
Delta^(-2t) b^Q with all the inverse twists in front takes about 2.5
times as long to reduce as the same braid with the twists spread
through the power, each copy of u carrying its share.  So each
certificate comparison reduces c W c^-1, where W is the Christoffel
word of slope t/Q over the blocks B(k) = Delta^(-2k) u, k = floor(t/Q)
and k + 1, built by its standard factorization along the Stern-Brocot
tree.  A piece of slope a/b (a twists over b copies) is a word for
Delta^(-2a) u^b.  The descent toward t/Q starts from the pieces
k/1 = B(k) and (k+1)/1 = B(k+1); the word of a mediant is the word of
its left end followed by that of its right end, so a run of j equal
moves (the runs are the partial quotients of t/Q) replaces the right
end hi by lo^j hi, or the left end lo by lo hi^j.  W is lo hi of the
final interval, whose mediant is t/Q; at Q = 1 it is B(t), and for
g = gcd(t, Q) > 1 it is the word of (t/g, Q/g) repeated g times.

A Christoffel word has few distinct factors, so its pieces repeat, and
each is handle-reduced once per search: every run's new end is reduced
when it is built and kept by its slope, except the last run's, which
goes straight into the comparison; a base block B(k) and the repeated
word of a non-coprime pair are reduced when they fill two or more
places.  A base block that fills one place is left as written, unless
an earlier word of the search has reduced it: there is no repeated work
to save, and reducing a long Delta^2 ahead costs more than it saves (it
made fdtc_exact(BraidWord(200, [1, 2])) about a fifth slower).  For a
periodic braid, u^q = Delta^(2p), the piece of slope p/q reduces to
the empty word and every piece built from it collapses with it.  Each
piece carries its counts (a, b); a concatenation adds them, and a word
whose counts are not (t, Q) raises RuntimeError.  The word then
equals Delta^(-2t) b^Q because Delta^2 is central, c^-1 c cancels
freely and every handle reduction is an identity in B_n; it is built
from the same split c, u that the search holds, and only the handle
reduction engine goes into it: nothing from the search does.

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
and f + 1 are not both even, so one side stays at P.

The certified f also certifies the floor of b itself, with no further
comparison: the same cone closure turns Delta^(2[b]_D) <= b <
Delta^(2[b]_D + 2) into P [b]_D <= f <= P [b]_D + P - 1, so
[b]_D = floor(f / P).  The step cap (`cap`) is resolved once per call
and bounds each piece reduction and each certificate reduction; a
Dynnikov probe costs O(n (|b| P + |t - s| n)) integer operations and
needs no budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import dynnikov, ordering
from .braid import (
    BraidWord,
    _conjugate_split,
    _permutation,
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
    floor is the Dehornoy floor of w itself, floor_of_power // power_used,
    which that certificate proves too (module notes).  For a periodic
    braid, w^m = Delta^(2k) with m in {n - 1, n}, one handle reduction
    proves that identity instead, and every field follows from it by
    arithmetic: value k/m, and floor(P k / m) as the floor of each w^P,
    which cone closure forces (module notes).
    """

    value: Fraction
    power_used: int
    floor_of_power: int
    interval: tuple[Fraction, Fraction]
    floor: int


class _Piece(NamedTuple):
    """A word for Delta^(-2 twists) u^copies (module notes)."""

    letters: tuple[int, ...]
    twists: int
    copies: int


def _join(pieces) -> _Piece:
    """The pieces one after another: the words concatenate, the counts add."""
    letters: list[int] = []
    twists = copies = 0
    for piece in pieces:
        letters.extend(piece.letters)
        twists += piece.twists
        copies += piece.copies
    return _Piece(tuple(letters), twists, copies)


@functools.lru_cache(maxsize=4)
def _full_twists(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The letters of Delta^2 and of Delta^-2 on n strands."""
    twist = garside_delta(n, squared=True).letters
    return twist, tuple(-g for g in reversed(twist))


def _twist_blocks(coords: list[int], n: int, j: int) -> list[int]:
    """Apply Delta^(2j) to the Dynnikov coordinates coords, in place."""
    twist, untwist = _full_twists(n)
    block = twist if j > 0 else untwist
    for _ in range(abs(j)):
        dynnikov.act(coords, block)
    return coords


@functools.lru_cache(maxsize=64)
def _twist_coordinates(n: int, j: int) -> tuple[int, ...]:
    """The Dynnikov coordinates of Delta^(2j) on n strands."""
    return tuple(_twist_blocks(dynnikov.start(n), n, j))


def _central_power_candidates(u: tuple[int, ...], n: int) -> dict[int, int]:
    """{m: k} for each m in {n - 1, n}, m >= 2, that passes two necessary
    conditions for u^m = Delta^(2k): m times the exponent sum of u is
    k n (n - 1), the exponent sum of Delta^(2k), and the permutation of
    u^m is the identity (module notes)."""
    exponent = sum(1 if g > 0 else -1 for g in u)
    moved = max(map(abs, u), default=1) + 1
    candidates = {}
    for m in (n - 1, n):
        k, rest = divmod(m * exponent, n * (n - 1))
        if m >= 2 and not rest:
            images = _permutation(u * m, moved).images
            if images == tuple(range(1, moved + 1)):
                candidates[m] = k
    return candidates


class _PowerSearch:
    """Dynnikov probes Delta^(2t) <= w^P on the powers of w, sharing one
    state: the coordinates of c u^P Delta^(-2s) for w = c u c^-1 and the
    s twists the state carries (see the module notes); a probe reduces
    and rewrites nothing.  Doubling also watches for a central power
    w^m = Delta^(2k) (central_power).  The split c, u and the full twist
    blocks also build the certificate words (core, twisted_power) from
    Christoffel pieces, whose handle-reduced forms are kept by slope."""

    def __init__(self, w: BraidWord) -> None:
        self.strands = w.strands
        c, u = _conjugate_split(w.letters)
        self._c = tuple(c)
        self._u = tuple(u)
        self._c_inverse = tuple(-g for g in reversed(c))
        self._twist, self._untwist = _full_twists(w.strands)
        self._state = dynnikov.act(dynnikov.start(w.strands), c + u)
        self._twists = 0
        self._length = len(w)
        self._pieces: dict[tuple[int, int], _Piece] = {}
        self._candidates = _central_power_candidates(self._u, w.strands)
        self.central_power: tuple[int, int] | None = None
        self.power = 1

    def double(self, twists: int) -> None:
        """Go from c u^P Delta^(-2s) to c u^(2P) Delta^(-2 twists): apply u
        P more times, then the twists.  At a copy count m that passes the
        filters (_central_power_candidates) it stops if the coordinates
        say w^m = Delta^(2k), with central_power = (m, k) and power m."""
        for copies in range(self.power + 1, 2 * self.power + 1):
            dynnikov.act(self._state, self._u)
            if copies in self._candidates:
                k = self._central_twists(copies)
                if k is not None:
                    self.central_power = (copies, k)
                    self.power = copies
                    return
        _twist_blocks(self._state, self.strands, self._twists - twists)
        self._twists = twists
        self.power *= 2

    def _central_twists(self, copies: int) -> int | None:
        """k if the coordinates say w^copies = Delta^(2k), for the one k the
        filters leave: c u^copies Delta^(-2s) c^-1 against those of
        Delta^(2(k - s)), kept per (n, k - s).  Only a handle reduction
        certifies a hit (module notes)."""
        k = self._candidates[copies]
        coords = dynnikov.act(self._state.copy(), self._c_inverse)
        return k if tuple(coords) == _twist_coordinates(self.strands, k - self._twists) else None

    def at_least(self, t: int) -> bool:
        """Whether Delta^(2t) <= w^P at the current power P: the sign of
        c u^P Delta^(-2s) c^-1 Delta^(-2(t - s)), which is Delta^(-2t) w^P
        as Delta^2 is central."""
        coords = dynnikov.act(self._state.copy(), self._c_inverse)
        return dynnikov.sign(_twist_blocks(coords, self.strands, self._twists - t)) >= 0

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

    def _block(self, k: int) -> _Piece:
        """The piece k/1, Delta^(-2k) u: reduced if it is kept, else as written."""
        kept = self._pieces.get((k, 1))
        if kept is not None:
            return kept
        return _Piece((self._untwist if k > 0 else self._twist) * abs(k) + self._u, k, 1)

    def _reduced(self, piece: _Piece, cap: int | None) -> _Piece:
        """piece handle-reduced (bounded by cap), empty or sigma-definite:
        reduced the first time its slope is asked for and kept for every
        later call."""
        key = (piece.twists, piece.copies)
        reduced = self._pieces.get(key)
        if reduced is None:
            word = BraidWord._unchecked(self.strands, piece.letters)
            reduced = _Piece(ordering.handle_reduce(word, cap=cap).letters, *key)
            self._pieces[key] = reduced
        return reduced

    def _christoffel(self, P: int, t: int, cap: int | None) -> _Piece:
        """Delta^(-2t) u^P as the Christoffel word of slope t/P over the
        blocks Delta^(-2k) u, from pieces each reduced at most once per
        search (see the module notes)."""
        g = math.gcd(t, P)
        if g > 1:
            return _join([self._reduced(self._christoffel(P // g, t // g, cap), cap)] * g)
        k, r = divmod(t, P)  # the word holds r blocks B(k + 1) and P - r blocks B(k)
        lo = self._block(k)
        if P == 1:
            return lo
        hi = self._block(k + 1)
        if P - r > 1:
            lo = self._reduced(lo, cap)
        if r > 1:
            hi = self._reduced(hi, cap)
        # Stern-Brocot descent: lo and hi have the slopes a/b < t/P < c/d,
        # and the descent stops when their mediant is t/P.
        a, b, c, d = k, 1, k + 1, 1
        while (a + c, b + d) != (t, P):
            below, above = t * b - P * a, P * c - t * d  # both positive
            if above > below:  # t/P is left of the mediant: hi <- lo^j hi
                j = (above - 1) // below
                c, d = c + j * a, d + j * b
                hi = _join([lo] * j + [hi])
                if (a + c, b + d) != (t, P):  # not the last run
                    hi = self._reduced(hi, cap)
            else:  # lo <- lo hi^j
                j = (below - 1) // above
                a, b = a + j * c, b + j * d
                lo = _join([lo] + [hi] * j)
                if (a + c, b + d) != (t, P):
                    lo = self._reduced(lo, cap)
        return _join((lo, hi))

    def core(self, P: int, t: int, *, cap: int | None = None) -> tuple[int, ...]:
        """The letters of the Christoffel word for Delta^(-2t) u^P; raises
        RuntimeError unless its pieces count t twists over P copies."""
        core = self._christoffel(P, t, cap)
        if (core.twists, core.copies) != (t, P):
            raise RuntimeError(
                f"a certificate word for Delta^{-2 * t} u^{P} counts "
                f"{core.twists} twists over {core.copies} copies (engine bug)"
            )
        return core.letters

    def twisted_power(self, P: int, t: int, *, cap: int | None = None) -> BraidWord:
        """A word for Delta^(-2t) w^P with the t full twists spread through
        the P copies of the core u (see the module notes)."""
        letters = self._c + self.core(P, t, cap=cap) + self._c_inverse
        return BraidWord._unchecked(self.strands, letters)


def _at_least(search: _PowerSearch, P: int, t: int, *, cap: int | None = None) -> bool:
    """Whether Delta^(2t) <= w^P, by one handle reduction of
    search.twisted_power(P, t), whose pieces are reduced at most once
    per search."""
    word = search.twisted_power(P, t, cap=cap)
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


def _certify(search: _PowerSearch, P: int, f: int, cap: int) -> None:
    """Raise unless Delta^(2f) <= w^P < Delta^(2f+2): two comparisons,
    each side on the smaller power _shrink gives it, each bounded by cap.
    """
    for (Q, t), holds in ((_shrink(P, f), True), (_shrink(P, f + 1), False)):
        if _at_least(search, Q, t, cap=cap) != holds:
            raise RuntimeError(
                f"Delta^{2 * t} {'<=' if holds else '>'} w^{Q} failed, so a "
                f"floor failed its certificate (engine bug)"
            )


def _certify_central_power(search: _PowerSearch, m: int, k: int, cap: int) -> None:
    """Raise unless w^m = Delta^(2k): one handle reduction of core(m, k), a
    word for Delta^(-2k) u^m, which is trivial exactly when
    w^m = c u^m c^-1 is Delta^(2k), Delta^2 being central."""
    core = BraidWord._unchecked(search.strands, search.core(m, k, cap=cap))
    if compare(core, BraidWord(search.strands), cap=cap) is not OrderSign.EQUAL:
        raise RuntimeError(
            f"w^{m} = Delta^{2 * k} failed its certificate, so the Dynnikov "
            f"coordinates matched a braid they do not (engine bug)"
        )


def dehornoy_floor(w: BraidWord, *, cap: int | None = None) -> FloorResult:
    """Largest t with Delta^(2t) <= the braid of w.

    A Dynnikov search (_PowerSearch.floor) finds t; two handle-reduction
    comparisons, Delta^(2t) <= w < Delta^(2t+2), certify it, so a wrong
    probe raises RuntimeError instead of returning a value.  cap bounds
    each of those two reductions; at power 1 nothing is reduced ahead.
    """
    cap = ordering._effective_cap(cap)
    search = _PowerSearch(w)
    f = search.floor()
    _certify(search, 1, f, cap)
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
    search (the module notes).  Handle reduction then certifies
    [w^P]_D = f with two comparisons, each side on the smallest power
    that proves it (module notes), each bounded by cap, as is the
    reduction of each piece they are built from.  The floor of w
    follows as f // P, and the search's floor must equal it.

    If the doubling finds w^m = Delta^(2k) (a periodic braid), one
    handle reduction certifies that instead, and every field follows
    from [w^P]_D = floor(P k / m) through the same stop rule; the floor
    the search reached must agree with it (module notes).  Soundness
    rests only on the cones being closed under products, so neither the
    defect-1 bound nor any probe is trusted: a single wrong answer
    anywhere raises RuntimeError instead of returning a value.
    """
    cap = ordering._effective_cap(cap)
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
        search.double(2 * f)
        if search.central_power is not None:
            break
        P = search.power
        f = 2 * f + search.at_least(2 * f + 1)
        rational = _unique_rational(f, P, n)
    if search.central_power is None:
        _certify(search, P, f, cap)
    else:
        # w^m = Delta^(2k) gives [w^P]_D = floor(P k / m) for every P.
        m, k = search.central_power
        _certify_central_power(search, m, k, cap)
        if f != P * k // m:
            raise RuntimeError(
                f"the search put the floor of w^{P} at {f}, but w^{m} = "
                f"Delta^{2 * k} puts it at {P * k // m} (engine bug)"
            )
        while rational is None:
            P *= 2
            f = P * k // m
            rational = _unique_rational(f, P, n)
    if f // P != floor:  # each doubling keeps f in [P floor, P floor + P - 1]
        raise RuntimeError(
            f"the search put the floor of w at {floor}, the certified floor "
            f"{f} of its power {P} at {f // P} (engine bug)"
        )
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
