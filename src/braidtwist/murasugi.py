"""Murasugi normal forms for 3-braids.

Every 3-braid is conjugate to Delta^(2d) followed by one of three tails:
an alternating block sigma_1 sigma_2^(-a_1) ... sigma_1 sigma_2^(-a_n)
with nonnegative exponents, a pure power sigma_2^m, or sigma_1^m
sigma_2^(-1) with m in {-1, -2, -3}.  The twist coefficient and the
quasi-alternating classification both read off the normal-form
parameters directly, which makes the forms an exact oracle for the
handle-reduction pipeline.

This module consumes normal-form parameters as given.  It does not
classify an arbitrary 3-braid word into its class (that needs a
conjugacy solver); arbitrary words go through fdtc_exact instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .braid import BraidWord, _check_length, free_reduce, garside_delta
from .fdtc import fdtc_exact


@dataclass(frozen=True)
class Class1:
    """Delta^(2d) sigma_1 sigma_2^(-a_1) ... sigma_1 sigma_2^(-a_n)."""

    d: int
    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        if not self.a:
            raise ValueError("Class1 exponent list must be nonempty")
        if any(x < 0 for x in self.a):
            raise ValueError(f"Class1 exponents must be nonnegative, got {self.a}")
        if not any(x > 0 for x in self.a):
            raise ValueError("Class1 needs at least one positive exponent")


@dataclass(frozen=True)
class Class2:
    """Delta^(2d) sigma_2^m."""

    d: int
    m: int


@dataclass(frozen=True)
class Class3:
    """Delta^(2d) sigma_1^m sigma_2^(-1) with m in {-1, -2, -3}."""

    d: int
    m: int

    def __post_init__(self):
        if self.m not in (-1, -2, -3):
            raise ValueError(f"Class3 exponent must be -1, -2 or -3, got {self.m}")


Murasugi3Form = Class1 | Class2 | Class3


def to_word(f: Murasugi3Form) -> BraidWord:
    """The literal normal-form word, freely reduced; ValueError, before any
    letter is built, if it would have more than DEFAULT_STEP_CAP letters."""
    # The tail as (letter, repeat count) runs, so its length is known first.
    if isinstance(f, Class1):
        runs = [run for x in f.a for run in ((1, 1), (-2, x))]
    elif isinstance(f, Class2):
        runs = [(2 if f.m > 0 else -2, abs(f.m))]
    elif isinstance(f, Class3):
        runs = [(-1, -f.m), (-2, 1)]
    else:
        raise ValueError(f"not a Murasugi normal form: {f!r}")
    _check_length(f"the {type(f).__name__} word", 6 * abs(f.d) + sum(c for _, c in runs))
    word = BraidWord(3, [g for g, count in runs for _ in range(count)])
    return free_reduce(garside_delta(3, squared=True) ** f.d * word if f.d else word)


def fdtc_3braid(f: Murasugi3Form) -> Fraction:
    """Exact twist coefficient from the normal-form parameters alone."""
    if isinstance(f, (Class1, Class2)):
        return Fraction(f.d)
    if isinstance(f, Class3):
        return f.d - {-1: Fraction(1, 3), -2: Fraction(1, 2), -3: Fraction(2, 3)}[f.m]
    raise ValueError(f"not a Murasugi normal form: {f!r}")


def is_quasi_alternating(f: Murasugi3Form) -> bool:
    """Whether the closure of the form is a quasi-alternating link."""
    if isinstance(f, Class1):
        return f.d in (-1, 0, 1)
    if isinstance(f, Class2):
        return (f.d == 1 and f.m in (-1, -2, -3)) or (f.d == -1 and f.m in (1, 2, 3))
    if isinstance(f, Class3):
        return f.d in (0, 1)
    raise ValueError(f"not a Murasugi normal form: {f!r}")


def cross_check(f: Murasugi3Form, *, cap: int | None = None) -> bool:
    """True iff the engine's fdtc_exact agrees with the closed form."""
    return fdtc_exact(to_word(f), cap=cap).value == fdtc_3braid(f)
