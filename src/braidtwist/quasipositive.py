"""Syllable-form braid words and the quasipositivity bounds.

A syllable word is a product of conjugated generators
(w_1 sigma_{i_1} w_1^{-1})^{e_1} ... (w_m sigma_{i_m} w_m^{-1})^{e_m}.
All-positive syllable words are exactly the quasipositive braids; for
those, m bands give chi_4 = n - m for the closure surface and the twist
coefficient is trapped in [0, m-1], which check_qp_bt_bound verifies
with the engine.  A word with a negative band gets no bound here: its
exact twist coefficient is fdtc_exact of the expanded word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .braid import (
    BraidWord,
    _check_length,
    closure_components,
    format_word,
    free_reduce,
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
        if self.generator < 1:
            raise ValueError(f"generator index must be positive, got {self.generator}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class SyllableWord:
    strands: int
    syllables: tuple[Syllable, ...]

    def __post_init__(self):
        object.__setattr__(self, "syllables", tuple(self.syllables))
        if self.strands < 2:
            raise ValueError(f"strand count must be at least 2, got {self.strands}")
        for s in self.syllables:
            if s.generator > self.strands - 1:
                raise ValueError(
                    f"generator {s.generator} invalid for {self.strands} strands"
                )
            for g in s.conjugator:
                if g == 0 or abs(g) > self.strands - 1:
                    raise ValueError(
                        f"conjugator letter {g} invalid for {self.strands} strands"
                    )

    def __len__(self) -> int:
        return len(self.syllables)


@dataclass(frozen=True)
class QpReport:
    """Bookkeeping bounds read off a syllable word without reduction.

    chi4, g4 and bt_upper hold only for all-positive words (g4 further
    needs a knot closure); they are None when inapplicable.  The exact
    twist coefficient of any syllable word is fdtc_exact of its expansion.
    """

    qp_length: int
    chi4: int | None
    g4: Fraction | None
    bt_upper: int | None
    all_positive: bool
    closure_is_knot: bool


def expand(s: SyllableWord) -> BraidWord:
    """The plain braid word w_j sigma_{i_j}^{e_j} w_j^{-1} ..., freely reduced."""
    letters: list[int] = []
    for syl in s.syllables:
        letters.extend(syl.conjugator)
        letters.append(syl.sign * syl.generator)
        letters.extend(-g for g in reversed(syl.conjugator))
    return free_reduce(BraidWord(s.strands, letters))


def qp_report(s: SyllableWord) -> QpReport:
    """Structural bounds for a syllable word; nothing here reduces words."""
    n = s.strands
    m = len(s.syllables)
    all_positive = m > 0 and all(syl.sign > 0 for syl in s.syllables)
    knot = closure_components(expand(s)) == 1
    chi4 = n - m if all_positive else None
    g4 = Fraction(m - n + 1, 2) if all_positive and knot else None
    return QpReport(
        qp_length=m,
        chi4=chi4,
        g4=g4,
        bt_upper=m - 1 if all_positive else None,
        all_positive=all_positive,
        closure_is_knot=knot,
    )


def check_qp_bt_bound(s: SyllableWord, *, cap: int | None = None) -> bool:
    """Verify 0 <= BT <= m-1 on an all-positive syllable word, BT from the
    engine, which runs only once s meets the bound's hypotheses."""
    _check_bound_applies(s)
    return qp_bt_bound_holds(s, fdtc_exact(expand(s), cap=cap).value)


def _check_bound_applies(s: SyllableWord) -> None:
    """ValueError unless s is an all-positive syllable word on at least 3
    strands, the words the bound of qp_bt_bound_holds is a theorem for."""
    if s.strands < 3:
        raise ValueError("the syllable bound needs at least 3 strands")
    if not s.syllables:
        raise ValueError("need at least one syllable")
    if any(syl.sign != 1 for syl in s.syllables):
        raise ValueError("the syllable bound needs an all-positive word")


def qp_bt_bound_holds(s: SyllableWord, bt: Fraction) -> bool:
    """Whether bt, the twist coefficient of s, lies in [0, m-1].

    s must be an all-positive syllable word on at least 3 strands.  The
    bound is a theorem for n >= 3, so False is an engine bug, not a
    property of the input.  B_2 is excluded: BT(sigma_1) = 1/2 there,
    which already breaks the m = 1 case.
    """
    _check_bound_applies(s)
    return 0 <= bt <= len(s.syllables) - 1


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


def format_syllables(s: SyllableWord) -> str:
    return "; ".join(
        f"{format_word(BraidWord(s.strands, syl.conjugator))} | {syl.generator} | "
        f"{'+' if syl.sign > 0 else '-'}"
        for syl in s.syllables
    )
