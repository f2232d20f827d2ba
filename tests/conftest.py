import math
from fractions import Fraction

import pytest

import braidtwist.ordering as ordering
from braidtwist.braid import free_reduce
from braidtwist.fdtc import dehornoy_floor


@pytest.fixture(autouse=True)
def _verify_every_reduction(monkeypatch):
    """Check exponent sum and permutation on every handle_reduce call."""
    monkeypatch.setattr(ordering, "VERIFY_REDUCTIONS", True)


@pytest.fixture
def check_fdtc_certificate():
    """Check a reported FDTC certificate from scratch.

    The floor is recomputed by a full floor search on w^power, the
    interval must have width 1/power, it must hold exactly one rational
    with denominator <= n and that rational must be the reported value,
    and the power must be at most 2n(n-1), as the first power of two
    above n(n-1) is.
    """

    def check(w, value, power, floor, lo, hi):
        n = w.strands
        assert dehornoy_floor(free_reduce(w**power)) == floor
        assert (lo, hi) == (Fraction(floor, power), Fraction(floor + 1, power))
        assert hi - lo == Fraction(1, power)
        inside = {
            Fraction(p, q)
            for q in range(1, n + 1)
            for p in range(math.floor(lo * q), math.ceil(hi * q) + 1)
            if lo <= Fraction(p, q) <= hi
        }
        assert inside == {value}
        assert power <= 2 * n * (n - 1)

    return check
