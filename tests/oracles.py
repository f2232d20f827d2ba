"""Reference values that the library does not compute, kept as test oracles.

The syntactic screens are cheap theorems about the twist coefficient BT
that fdtc_exact certifies exactly; the tests check that the engine's
value always lies inside them.  The torus closed forms (tau, Upsilon(1)
and the four-genus of a difference) are checked against each other and
read by acceptance criterion 10.

The word tools below are used by tests only: the sigma class of a word,
written apart from the engine's own, checks handle reduction's output;
the full twist that begins with any generator is the word fdtc builds
from sigma_1, and make_positive uses it to write w * Delta^(2t) as a
positive word whose genus positive_braid_genus reads off (acceptance
criterion 5).  Only tests feed these tools, so they spend no letter
budget.  format_syllables inverts parse_syllables.
"""

from __future__ import annotations

import math
from fractions import Fraction

from braidtwist.braid import (
    BraidWord,
    _conjugate_split,
    closure_components,
    exponent_counts,
    format_word,
    garside_delta,
)
from braidtwist.ordering import OrderSign, compare
from braidtwist.quasipositive import SyllableWord


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


def syntactic_sigma_class(w: BraidWord) -> tuple[int, int] | None:
    """(i, +1) if the lowest index i occurs only positively, (i, -1) if
    only negatively, None for the empty word or mixed signs at i."""
    if not w.letters:
        return None
    lowest = min(abs(g) for g in w.letters)
    signs = {1 if g > 0 else -1 for g in w.letters if abs(g) == lowest}
    return (lowest, signs.pop()) if len(signs) == 1 else None


def positive_braid_genus(w: BraidWord) -> Fraction:
    """Genus of the closure of a positive braid word whose closure is a knot.

    For such words the Seifert genus, the smooth 4-ball genus, tau and s/2
    all coincide and equal (length - strands + 1) / 2.
    """
    if any(g < 0 for g in w.letters):
        raise ValueError("word is not positive")
    if closure_components(w) != 1:
        raise ValueError("closure is not a knot")
    return Fraction(len(w.letters) - w.strands + 1, 2)


def _full_twist_from(n: int, i: int) -> tuple[int, ...]:
    """The letters of Delta^2 on n strands, beginning with sigma_i.

    The word is (s_i ... s_(n-1) s_1 ... s_(i-1))^n.  Its base is a cyclic
    rotation, hence a conjugate, of s_1 ... s_(n-1), whose n-th power is
    the central Delta^2; so the word is Delta^2 itself, and dropping its
    first letter leaves a positive word for sigma_i^-1 Delta^2.
    """
    return (tuple(range(i, n)) + tuple(range(1, i))) * n


def make_positive(w: BraidWord, t: int) -> BraidWord:
    """An all-positive word equal, as a braid, to w * Delta^(2t).

    Each negative letter sigma_i^-1 absorbs one central full twist: it is
    written as the full twist that begins with sigma_i (_full_twist_from)
    less that first letter, n(n-1) - 1 letters.  The remaining t - l full
    twists are appended; t must cover the negative-letter count l.
    Output length is k - l + t*n*(n-1) for k positive letters.  The
    result is always certified equal to w * (Delta Delta)^t, a target
    built from the Garside word, by an order comparison.
    """
    k, l, _ = exponent_counts(w)
    if t < l:
        raise ValueError(f"need t >= {l} (one full twist per negative letter), got {t}")
    n = w.strands
    length = k - l + t * n * (n - 1)
    letters: list[int] = []
    for g in w.letters:
        if g > 0:
            letters.append(g)
        else:
            letters.extend(_full_twist_from(n, -g)[1:])
    letters.extend(_full_twist_from(n, 1) * (t - l))
    result = BraidWord(n, tuple(letters))
    assert len(result) == length
    target = w * garside_delta(n, squared=True) ** t
    if compare(result, target) is not OrderSign.EQUAL:
        raise RuntimeError("positive rewrite does not equal w * Delta^(2t)")
    return result


def format_syllables(s: SyllableWord) -> str:
    """The 'w | i | +; w | i | -' text that parse_syllables reads back as s."""
    return "; ".join(
        f"{format_word(BraidWord(s.strands, syl.conjugator))} | {syl.generator} | "
        f"{'+' if syl.sign > 0 else '-'}"
        for syl in s.syllables
    )
