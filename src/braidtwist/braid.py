"""Braid words in Artin generator notation.

A word on n strands is a sequence of nonzero integers: the letter g > 0
stands for the generator sigma_g and g < 0 for its inverse.  Generator
indices are 1-based, so valid letters satisfy 1 <= |g| <= n-1.

Everything here works at the free-group level; the braid relations only
enter through the rewriting engine in the ordering module.  This module
imports nothing from the package.
"""

from __future__ import annotations

import dataclasses
import re


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
            try:
                object.__setattr__(self, "letters", tuple(self.letters))
            except TypeError:
                raise ValueError(f"letters must be a sequence, got {self.letters!r}") from None
        top = self.strands - 1
        for g in self.letters:
            if type(g) is not int or not 1 <= abs(g) <= top:
                raise ValueError(
                    f"letter {g!r} is not a generator of the braid group "
                    f"on {self.strands} strands"
                )

    @classmethod
    def _unchecked(cls, strands: int, letters: tuple[int, ...]) -> "BraidWord":
        """A word from letters already known to be generators on ``strands``
        strands, such as those of a validated word; skips __post_init__."""
        w = object.__new__(cls)
        object.__setattr__(w, "strands", strands)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        """Concatenation; no relations are applied."""
        if self.strands != other.strands:
            raise ValueError(
                f"strand counts differ: {self.strands} vs {other.strands}"
            )
        return BraidWord._unchecked(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord._unchecked(self.strands, tuple(-g for g in reversed(self.letters)))

    def __pow__(self, k: int) -> "BraidWord":
        if k >= 0:
            return BraidWord._unchecked(self.strands, self.letters * k)
        return self.inverse() ** (-k)

    def conjugate_by(self, c: "BraidWord") -> "BraidWord":
        """c * self * c^-1."""
        return c * self * c.inverse()


_TOKEN = re.compile(r"^s(\d+)(?:\^(-?\d+))?$", re.ASCII)

# Default budget of handle reductions for one ordering computation, and
# the most letters parse_word expands a text into or a family builds.
DEFAULT_STEP_CAP = 10_000_000


def _plain(text: str) -> bool:
    """False for text that int() and Fraction() read loosely: text with
    non-ASCII digits, "_" separators or surrounding whitespace."""
    return text.isascii() and "_" not in text and text == text.strip()


def integer(text: str) -> int:
    """int(text) for text from outside: an optional sign and ASCII digits,
    nothing else; ValueError otherwise.  Every integer the command line,
    a word, a syllable or an audit input holds is read here."""
    if not _plain(text):
        raise ValueError(f"invalid literal for integer: {text!r}")
    return int(text)


def _check_length(word: str, length: int) -> None:
    """ValueError if the word named would have more than DEFAULT_STEP_CAP
    letters; called before any letter is built."""
    if length > DEFAULT_STEP_CAP:
        raise ValueError(
            f"{word} would have {length} letters, more than {DEFAULT_STEP_CAP}"
        )


def parse_word(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated letters into a word on n strands.

    Two token forms are accepted and may be mixed: signed integers
    ("1 2 -2 -1") and the alias form "s1 s2^-1" with an optional integer
    exponent, written in ASCII digits with no "_" separators.  The empty
    string is the identity.  An alias's generator and the length it
    expands to (at most DEFAULT_STEP_CAP letters in all) are checked
    before it is expanded.
    """
    if n < 2:
        raise ValueError(f"need at least 2 strands, got {n}")
    letters: list[int] = []
    # tolerate the unicode minus that shows up in copied text
    for token in text.replace("−", "-").split():
        match = _TOKEN.match(token)
        if match:
            index = integer(match.group(1))
            exponent = integer(match.group(2)) if match.group(2) is not None else 1
            if exponent == 0:
                raise ValueError(f"zero exponent in token {token!r}")
            letter = index if exponent > 0 else -index
            if not 1 <= index < n:
                raise ValueError(
                    f"letter {letter} is not a generator of the braid group on {n} strands"
                )
            _check_length(f"the word up to token {token!r}", len(letters) + abs(exponent))
            letters.extend([letter] * abs(exponent))
            continue
        try:
            letter = integer(token)
        except ValueError:
            raise ValueError(f"malformed token {token!r}") from None
        if letter == 0:
            raise ValueError("zero is not a generator letter")
        letters.append(letter)
    return BraidWord(n, tuple(letters))


# format_word turns this many letters into strings at a time, so a long
# word holds one slice of letter strings, not one string per letter.
_FORMAT_SLICE = 65_536


def format_word(w: BraidWord) -> str:
    """Inverse of parse_word's signed-integer form."""
    letters = w.letters
    return " ".join(
        " ".join(map(str, letters[i : i + _FORMAT_SLICE]))
        for i in range(0, len(letters), _FORMAT_SLICE)
    )


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
    return BraidWord._unchecked(w.strands, tuple(_free_reduce_letters(w.letters)))


def _conjugate_split(letters) -> tuple[list[int], list[int]]:
    """(c, u) with the free reduction of the letters equal to c u c^-1.

    u is cyclically reduced: its first letter is not the inverse of its
    last, so every power of u is freely reduced as written.
    """
    letters = _free_reduce_letters(letters)
    k = 0
    while len(letters) - 2 * k >= 2 and letters[k] == -letters[-1 - k]:
        k += 1
    return letters[:k], letters[k : len(letters) - k]


def garside_delta(n: int, *, squared: bool = False) -> BraidWord:
    """The half twist Delta on n strands, or the full twist Delta^2.

    Delta = (s1..s_{n-1})(s1..s_{n-2})...(s1) has length n(n-1)/2; the
    full twist is central and has length n(n-1).  ValueError, before any
    letter is built, if that is more than DEFAULT_STEP_CAP.
    """
    if n < 2:
        raise ValueError(f"need at least 2 strands, got {n}")
    name, length = ("Delta^2", n * (n - 1)) if squared else ("Delta", n * (n - 1) // 2)
    _check_length(f"{name} on {n} strands", length)
    letters = tuple(g for top in range(n - 1, 0, -1) for g in range(1, top + 1))
    return BraidWord._unchecked(n, letters + letters if squared else letters)


def exponent_counts(w: BraidWord) -> tuple[int, int, int]:
    """(positive letters, negative letters, exponent sum)."""
    k = sum(1 for g in w.letters if g > 0)
    l = len(w.letters) - k
    return k, l, k - l


def permutation(w: BraidWord) -> tuple[int, ...]:
    """Underlying permutation as its image tuple: entry j - 1 is the
    ending position of the strand that starts at position j.

    Multiplicative in diagram order: the tuple of a * b is that of a
    followed by that of b, (pb[i - 1] for i in pa).
    """
    moved = _moved(w.letters)
    return tuple(moved.get(j, j) for j in range(1, w.strands + 1))


def _moved(letters) -> dict[int, int]:
    """The permutation of the letters on the strands it moves: j maps to
    the ending position of the strand that starts at position j, for each
    j that does not end where it starts.  Only the positions the letters
    touch are traced, so the cost follows the word, not the strand count
    or the highest index."""
    strand_at: dict[int, int] = {}  # strand_at[p] = strand currently at position p
    for g in letters:
        i = g if g > 0 else -g
        strand_at[i], strand_at[i + 1] = strand_at.get(i + 1, i + 1), strand_at.get(i, i)
    return {j: p for p, j in strand_at.items() if j != p}


def closure_components(w: BraidWord) -> int:
    """Number of link components of the closure (cycles of the permutation).

    Every strand the word does not move is a component of its own, so
    only the moved strands are traced (_moved): the cost follows the
    word, not the strand count or the highest index.
    """
    images = _moved(w.letters)
    cycles = w.strands - len(images)
    while images:
        start, j = images.popitem()
        while j != start:
            j = images.pop(j)
        cycles += 1
    return cycles
