"""Braid words in Artin generator notation.

A word on n strands is a sequence of nonzero integers: the letter g > 0
stands for the generator sigma_g and g < 0 for its inverse.  Generator
indices are 1-based, so valid letters satisfy 1 <= |g| <= n-1.

Everything here works at the free-group level; the braid relations only
enter through the rewriting engine in the ordering module, which is also
why make_positive certifies its output with an order comparison instead
of trusting the rewrite.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from fractions import Fraction

# Exact reduced fractions everywhere; no floats in any invariant.
Rational = Fraction


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # type(...) is int also turns away bool, a subclass of int.
        if type(self.strands) is not int:
            raise ValueError(f"strand count must be an integer, got {self.strands!r}")
        if self.strands < 2:
            raise ValueError(f"need at least 2 strands, got {self.strands}")
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        top = self.strands - 1
        for g in self.letters:
            if type(g) is not int or not 1 <= abs(g) <= top:
                raise ValueError(
                    f"letter {g!r} is not a generator of the braid group "
                    f"on {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        """Concatenation; no relations are applied."""
        if self.strands != other.strands:
            raise ValueError(
                f"strand counts differ: {self.strands} vs {other.strands}"
            )
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-g for g in reversed(self.letters)))

    def __pow__(self, k: int) -> "BraidWord":
        if k >= 0:
            return BraidWord(self.strands, self.letters * k)
        return self.inverse() ** (-k)

    def conjugate_by(self, c: "BraidWord") -> "BraidWord":
        """c * self * c^-1."""
        return c * self * c.inverse()

    def identity_like(self) -> "BraidWord":
        return BraidWord(self.strands, ())


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; images[j-1] is the image of j."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"images {self.images} are not a bijection of 1..{n}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Diagram order: apply self first, then other."""
        return Permutation(tuple(other.images[i - 1] for i in self.images))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for j, i in enumerate(self.images, start=1):
            images[i - 1] = j
        return Permutation(tuple(images))

    def cycle_count(self) -> int:
        seen = [False] * len(self.images)
        cycles = 0
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = self.images[j] - 1
        return cycles


_TOKEN = re.compile(r"^s(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated letters into a word on n strands.

    Two token forms are accepted and may be mixed: signed integers
    ("1 2 -2 -1") and the alias form "s1 s2^-1" with an optional integer
    exponent.  The empty string is the identity.
    """
    if n < 2:
        raise ValueError(f"need at least 2 strands, got {n}")
    letters: list[int] = []
    # tolerate the unicode minus that shows up in copied text
    for token in text.replace("−", "-").split():
        match = _TOKEN.match(token)
        if match:
            index = int(match.group(1))
            exponent = int(match.group(2)) if match.group(2) is not None else 1
            if exponent == 0:
                raise ValueError(f"zero exponent in token {token!r}")
            letter = index if exponent > 0 else -index
            letters.extend([letter] * abs(exponent))
            continue
        try:
            letter = int(token)
        except ValueError:
            raise ValueError(f"malformed token {token!r}") from None
        if letter == 0:
            raise ValueError("zero is not a generator letter")
        letters.append(letter)
    return BraidWord(n, tuple(letters))


def format_word(w: BraidWord) -> str:
    """Inverse of parse_word's signed-integer form."""
    return " ".join(str(g) for g in w.letters)


def _free_reduce_letters(letters) -> list[int]:
    out: list[int] = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return out


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain.  Idempotent."""
    return BraidWord(w.strands, tuple(_free_reduce_letters(w.letters)))


@functools.cache
def _delta_letters(n: int) -> tuple[int, ...]:
    letters: list[int] = []
    for top in range(n - 1, 0, -1):
        letters.extend(range(1, top + 1))
    return tuple(letters)


def garside_delta(n: int, *, squared: bool = False) -> BraidWord:
    """The half twist Delta on n strands, or the full twist Delta^2.

    Delta = (s1..s_{n-1})(s1..s_{n-2})...(s1) has length n(n-1)/2; the
    full twist is central and has length n(n-1).
    """
    if n < 2:
        raise ValueError(f"need at least 2 strands, got {n}")
    letters = _delta_letters(n)
    return BraidWord(n, letters + letters if squared else letters)


def exponent_counts(w: BraidWord) -> tuple[int, int, int]:
    """(positive letters, negative letters, exponent sum)."""
    k = sum(1 for g in w.letters if g > 0)
    l = len(w.letters) - k
    return k, l, k - l


def permutation(w: BraidWord) -> Permutation:
    """Underlying permutation: starting position -> ending position.

    Multiplicative in diagram order: permutation(a * b) equals
    permutation(a) * permutation(b).
    """
    n = w.strands
    strand_at = list(range(n + 1))  # strand_at[p] = strand currently at position p
    for g in w.letters:
        i = g if g > 0 else -g
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    images = [0] * (n + 1)
    for p in range(1, n + 1):
        images[strand_at[p]] = p
    return Permutation(tuple(images[1:]))


def closure_components(w: BraidWord) -> int:
    """Number of link components of the closure (cycles of the permutation)."""
    return permutation(w).cycle_count()


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


@functools.cache
def _reduced_word_for(images: tuple[int, ...]) -> tuple[int, ...]:
    """A positive reduced word whose permutation is the given bijection.

    Bubble sort into the target arrangement; each adjacent swap fixes one
    inversion, so the word length equals the inversion count and the word
    is reduced.  Any two reduced words of the same permutation agree as
    positive braids.
    """
    n = len(images)
    final_pos = {strand: images[strand - 1] for strand in range(1, n + 1)}
    arr = list(range(1, n + 1))
    word: list[int] = []
    swapped = True
    while swapped:
        swapped = False
        for p in range(n - 1):
            if final_pos[arr[p]] > final_pos[arr[p + 1]]:
                arr[p], arr[p + 1] = arr[p + 1], arr[p]
                word.append(p + 1)
                swapped = True
    return tuple(word)


@functools.cache
def _positive_words_for_inverses(n: int) -> dict[int, tuple[int, ...]]:
    """For each generator index i, a positive word equal to sigma_i^-1 Delta^2.

    Delta admits a representative word starting with any generator, so
    sigma_i^-1 Delta = F_i is a positive permutation braid; the result is
    F_i followed by a Delta word, of length n(n-1) - 1.
    """
    delta = _delta_letters(n)
    reversal = Permutation(tuple(range(n, 0, -1)))
    table: dict[int, tuple[int, ...]] = {}
    for i in range(1, n):
        swap = list(range(1, n + 1))
        swap[i - 1], swap[i] = swap[i], swap[i - 1]
        quotient = Permutation(tuple(swap)) * reversal
        table[i] = _reduced_word_for(quotient.images) + delta
    return table


def make_positive(w: BraidWord, t: int, *, certify: bool = True) -> BraidWord:
    """An all-positive word equal, as a braid, to w * Delta^(2t).

    Each negative letter absorbs one central full twist; t must cover the
    negative-letter count.  Output length is k - l + t*n*(n-1) for k
    positive and l negative letters.  The result is certified equal to
    the target by an order comparison unless certify is False.
    """
    k, l, _ = exponent_counts(w)
    if t < l:
        raise ValueError(f"need t >= {l} (one full twist per negative letter), got {t}")
    n = w.strands
    table = _positive_words_for_inverses(n)
    letters: list[int] = []
    for g in w.letters:
        if g > 0:
            letters.append(g)
        else:
            letters.extend(table[-g])
    letters.extend(_delta_letters(n) * (2 * (t - l)))
    result = BraidWord(n, tuple(letters))
    assert len(result) == k - l + t * n * (n - 1)
    if certify:
        from . import ordering  # deferred: ordering depends on this module

        target = w * garside_delta(n, squared=True) ** t
        if ordering.compare(result, target) is not ordering.OrderSign.EQUAL:
            raise RuntimeError("positive rewrite does not equal w * Delta^(2t)")
    return result


def detect_destabilizable(w: BraidWord) -> int | None:
    """+1/-1 when some cyclic rotation exposes a lone sigma_{n-1}^{+1/-1}.

    The word is freely and cyclically reduced first; rotations of the
    result all contain the same letters, so the check is a count: exactly
    one occurrence of index n-1 overall.  Purely syntactic, hence a
    sufficient but not necessary destabilization test.
    """
    letters = _free_reduce_letters(w.letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    top = w.strands - 1
    occurrences = [g for g in letters if abs(g) == top]
    if len(occurrences) == 1:
        return 1 if occurrences[0] > 0 else -1
    return None
