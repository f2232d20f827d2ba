"""Generators for the explicit braid families used as a shared corpus.

Ktd is (sigma_2 sigma_1)^(3m+1) sigma_2^(-2k) in B_3, written with
sigma_2 first on purpose: the floor oracle is tied to the literal word.
BTtau is Delta^(2k) sigma_1^(-1) sigma_2^(-(6k-1)), the family whose
twist coefficient grows while tau and s stay bounded.  Torus{p,q} is
(sigma_1 ... sigma_(p-1))^q, and FullTwists appends Delta^(2t) to an
arbitrary base word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, _check_length, closure_components, garside_delta


@dataclass(frozen=True)
class Ktd:
    m: int
    k: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"Ktd twist count m must be nonnegative, got {self.m}")
        if self.k < 1:
            raise ValueError(f"Ktd tail count k must be positive, got {self.k}")


@dataclass(frozen=True)
class BTtau:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"BTtau index k must be positive, got {self.k}")


@dataclass(frozen=True)
class FullTwists:
    base: BraidWord
    t: int


@dataclass(frozen=True)
class Torus:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"Torus braid needs p >= 2 strands, got {self.p}")
        if self.q < 1:
            raise ValueError(f"Torus power q must be positive, got {self.q}")


FamilySpec = Ktd | BTtau | FullTwists | Torus


def generate(spec: FamilySpec) -> BraidWord:
    """The literal word for a family member; ValueError, before any letter
    is built, if it would have more than DEFAULT_STEP_CAP letters."""
    name = f"the {type(spec).__name__} word"
    if isinstance(spec, Ktd):
        _check_length(name, 6 * spec.m + 2 + 2 * spec.k)
        w = BraidWord(3, [2, 1] * (3 * spec.m + 1) + [-2] * (2 * spec.k))
        if closure_components(w) != 1:
            raise RuntimeError("the Ktd closure is not a knot (engine bug)")
        return w
    if isinstance(spec, BTtau):
        _check_length(name, 12 * spec.k)
        tail = BraidWord(3, [-1] + [-2] * (6 * spec.k - 1))
        return garside_delta(3, squared=True) ** spec.k * tail
    if isinstance(spec, FullTwists):
        n, t = spec.base.strands, spec.t
        _check_length(name, len(spec.base) + abs(t) * n * (n - 1))
        return spec.base * garside_delta(n, squared=True) ** t if t else spec.base
    if isinstance(spec, Torus):
        _check_length(name, (spec.p - 1) * spec.q)
        return BraidWord(spec.p, list(range(1, spec.p)) * spec.q)
    raise ValueError(f"not a family spec: {spec!r}")
