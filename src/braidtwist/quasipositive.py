"""Syllable-form braid words and the quasipositivity bounds.

A syllable word is a product of conjugated generators
(w_1 sigma_{i_1} w_1^{-1})^{e_1} ... (w_m sigma_{i_m} w_m^{-1})^{e_m}.
All-positive syllable words are exactly the quasipositive braids; for
those, m bands give chi_4 = n - m for the closure surface and the twist
coefficient is trapped in [0, m-1], which qp_bt_check verifies with
the engine.  A word with a negative band gets no bound here: its exact
twist coefficient is fdtc_exact of the expanded word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .braid import (
    BraidWord,
    _check_length,
    _free_reduce_letters,
    closure_components,
    integer,
    parse_word,
)
from .fdtc import fdtc_exact


@dataclass(frozen=True)
class Syllable:
    """One band: conjugator word, generator index, sign of the band."""

    conjugator: tuple[int, ...]
    generator: int
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "conjugator", tuple(self.conjugator))
        if type(self.generator) is not int or self.generator < 1:
            raise ValueError(f"generator index must be a positive integer, got {self.generator!r}")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class SyllableWord:
    strands: int
    syllables: tuple[Syllable, ...]

    def __post_init__(self):
        # With Syllable's checks, every letter is an int in range, so expand
        # builds its word unchecked.
        object.__setattr__(self, "syllables", tuple(self.syllables))
        if type(self.strands) is not int or self.strands < 2:
            raise ValueError(f"strand count must be an integer >= 2, got {self.strands!r}")
        top = self.strands - 1
        for s in self.syllables:
            if s.generator > top:
                raise ValueError(f"generator {s.generator} invalid for {self.strands} strands")
            for g in s.conjugator:
                if type(g) is not int or not 1 <= abs(g) <= top:
                    raise ValueError(
                        f"conjugator letter {g!r} invalid for {self.strands} strands"
                    )

    def __len__(self) -> int:
        return len(self.syllables)


def expand(s: SyllableWord) -> BraidWord:
    """The plain braid word w_j sigma_{i_j}^{e_j} w_j^{-1} ..., freely reduced."""
    letters: list[int] = []
    for syl in s.syllables:
        letters.extend(syl.conjugator)
        letters.append(syl.sign * syl.generator)
        letters.extend(-g for g in reversed(syl.conjugator))
    return BraidWord._unchecked(s.strands, tuple(_free_reduce_letters(letters)))


def qp_report(s: SyllableWord, word: BraidWord | None = None) -> dict:
    """Bookkeeping bounds read off a syllable word; nothing here reduces words.

    The keys, in order: qp_length (the band count m), chi4, g4, bt_upper,
    all_positive and closure_is_knot.  chi4 = n - m, g4 = (m - n + 1)/2
    and bt_upper = m - 1 hold only for all-positive words (g4 further
    needs a knot closure); they are None when inapplicable.  The exact
    twist coefficient of any syllable word is fdtc_exact of its expansion.
    word, if given, is expand(s), so a caller that needs both expands once.
    """
    n = s.strands
    m = len(s.syllables)
    all_positive = m > 0 and all(syl.sign > 0 for syl in s.syllables)
    knot = closure_components(expand(s) if word is None else word) == 1
    return {
        "qp_length": m,
        "chi4": n - m if all_positive else None,
        "g4": Fraction(m - n + 1, 2) if all_positive and knot else None,
        "bt_upper": m - 1 if all_positive else None,
        "all_positive": all_positive,
        "closure_is_knot": knot,
    }


def qp_bt_check(
    s: SyllableWord, word: BraidWord | None = None, *, cap: int | None = None
) -> tuple[Fraction, bool]:
    """BT of s from the engine, run on word (expand(s) if not given), and
    whether it lies in [0, m-1].

    ValueError before the engine runs unless s is an all-positive syllable
    word on at least 3 strands.  The bound is a theorem for those, so
    False is an engine bug, not a property of the input.  B_2 is excluded:
    BT(sigma_1) = 1/2 there, which already breaks the m = 1 case.
    """
    if s.strands < 3:
        raise ValueError("the syllable bound needs at least 3 strands")
    if not s.syllables:
        raise ValueError("need at least one syllable")
    if any(syl.sign != 1 for syl in s.syllables):
        raise ValueError("the syllable bound needs an all-positive word")
    bt = fdtc_exact(expand(s) if word is None else word, cap=cap).value
    return bt, 0 <= bt <= len(s.syllables) - 1


def parse_syllables(text: str, strands: int) -> SyllableWord:
    """Parse the 'w | i | +; w | i | -' interchange form.

    The letters the word expands to, 2|w| + 1 per syllable, are counted as
    each conjugator is read, and more than DEFAULT_STEP_CAP of them is a
    ValueError before the next syllable is read.
    """
    syllables = []
    letters = 0
    stripped = text.strip()
    if stripped:
        for chunk in stripped.split(";"):
            fields = chunk.split("|")
            if len(fields) != 3:
                raise ValueError(
                    f"syllable {chunk!r} must have three '|'-separated fields"
                )
            conj = parse_word(fields[0], strands).letters
            letters += 2 * len(conj) + 1
            _check_length(f"the syllable word up to syllable {len(syllables) + 1}", letters)
            generator_text = fields[1].strip()
            try:
                generator = integer(generator_text)
            except ValueError:
                raise ValueError(
                    f"generator must be an integer, got {generator_text!r}"
                ) from None
            sign_text = fields[2].strip()
            if sign_text not in ("+", "-"):
                raise ValueError(f"sign must be '+' or '-', got {sign_text!r}")
            sign = 1 if sign_text == "+" else -1
            syllables.append(Syllable(conj, generator, sign))
    return SyllableWord(strands, tuple(syllables))
