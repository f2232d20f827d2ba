import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidtwist.fdtc as fdtc
from braidtwist import BraidWord, OrderSign, ReductionCapError, compare, garside_delta
from braidtwist.braid import free_reduce
from braidtwist.fdtc import (
    FLOOR_CONVENTION,
    _at_least,
    _PowerSearch,
    _shrink,
    dehornoy_floor,
    destab_bounds,
    fdtc_exact,
    fdtc_interval,
    word_sign_bounds,
)


def random_word(rng, n, length):
    gens = [g for g in range(-(n - 1), n) if g]
    return BraidWord(n, [rng.choice(gens) for _ in range(length)])


# Words whose every search probe and certificate compare gets flipped.
FLIP_WORDS = (
    BraidWord(3, [1, 2]),
    BraidWord(4, [1, 2, -3, 2]),
    BraidWord(5, [4, 3, 2, 1, 1]),
    BraidWord(3, [-1, -1, -2]),
    BraidWord(3, [2, 1] * 7 + [-2] * 6),  # Ktd(2, 3), floor 2
    BraidWord(4, [1, 2, 3] * 5 + [-3, 1, -2]),
    BraidWord(3, [1, -2, 1, 1, -2, 2, -1]),
    BraidWord(3, []),
)


@st.composite
def small_words(draw):
    """Words in B_3 to B_5 of at most 12 letters."""
    n = draw(st.integers(3, 5))
    gens = [g for g in range(-(n - 1), n) if g]
    return BraidWord(n, draw(st.lists(st.sampled_from(gens), max_size=12)))


@st.composite
def conjugated_words(draw):
    """c u c^-1 in B_2 to B_5, the core u empty (a freely trivial word),
    one letter, or up to 6 letters, and c up to 4 letters."""
    n = draw(st.integers(2, 5))
    gens = st.sampled_from([g for g in range(-(n - 1), n) if g])
    core = draw(st.just([]) | st.lists(gens, min_size=1, max_size=1) | st.lists(gens, max_size=6))
    c = draw(st.lists(gens, max_size=4))
    return BraidWord(n, core).conjugate_by(BraidWord(n, c))


class TestTwistedPower:
    @given(conjugated_words())
    @settings(max_examples=30, deadline=None)
    def test_same_braid_and_same_decision(self, w):
        delta2 = garside_delta(w.strands, squared=True)
        search = _PowerSearch(w)
        for P in (1, 2, 4):
            power = free_reduce(w**P)
            floor = dehornoy_floor(power).floor
            for t in range(floor - 3, floor + 4):
                twisted = search.twisted_power(P, t)
                assert compare(twisted, delta2 ** (-t) * power) is OrderSign.EQUAL
                assert _at_least(search, P, t) == (compare(power, delta2**t) is not OrderSign.LESS)

    def test_twists_are_spread_over_the_copies(self):
        search = _PowerSearch(BraidWord(3, [2, 1, -2]))  # c = [2], u = [1]
        inverse = [-1, -2, -1, -1, -2, -1]
        assert list(search.twisted_power(4, 2).letters) == (
            [2, 1] + inverse + [1, 1] + inverse + [1, -2]
        )
        assert list(search.twisted_power(2, -1).letters) == [2, 1, 2, 1, 1, 2, 1, 1, 1, -2]


class TestShrunkPowers:
    def test_shrink(self):
        assert _shrink(8, 12) == (2, 3)
        assert _shrink(8, 9) == (8, 9)
        assert _shrink(8, 0) == (1, 0)
        assert _shrink(4, -8) == (1, -2)
        assert _shrink(1, 6) == (1, 6)

    @given(small_words())
    @settings(max_examples=40, deadline=None)
    def test_smaller_power_decides_the_same(self, w):
        """Delta^(2t) <= w^P exactly when Delta^(2t/2^j) <= w^(P/2^j), on
        both sides of the floor of the smaller power, and both agree with
        a front-loaded comparison of the freely reduced power."""
        delta2 = garside_delta(w.strands, squared=True)
        search = _PowerSearch(w)
        for P in (2, 4, 8):
            power = free_reduce(w**P)
            for j in range(1, P.bit_length()):
                Q = P >> j
                floor = _PowerSearch(free_reduce(w**Q)).floor()
                for s in (floor, floor + 1):
                    t = s << j
                    oracle = compare(power, delta2**t) is not OrderSign.LESS
                    assert _at_least(search, P, t) == _at_least(search, Q, t >> j) == oracle


class TestStepBudget:
    """Deterministic guard on reduction cost: steps, not seconds.

    Both words have floor 8 at power 8.  With the 9 inverse full twists
    all in front of w^8, the certificate's upper compare takes 1,798
    (B_4) and 1,916 (B_5) handle reductions; spread through the power,
    the largest reduction of the whole fdtc_exact run takes 289 and 264.
    """

    CAP = 700
    WORDS = (
        BraidWord(4, [3, 3, 1, 3, 3, 3, 2, 1, 1, 2, 3, 1, 3, 3, 2, 3, 1]),
        BraidWord(5, [1, 2, 3, 3, 4, 4, 3, 3, 3, 3, 4, 1, 2, 3, 4, 1]),
    )

    @pytest.mark.parametrize("w", WORDS, ids=("B4", "B5"))
    def test_fdtc_exact_fits_under_the_cap(self, w):
        r = fdtc_exact(w, cap=self.CAP)
        assert (r.value, r.power_used, r.floor_of_power) == (1, 8, 8)

    @pytest.mark.parametrize("w", WORDS, ids=("B4", "B5"))
    def test_front_loaded_word_exceeds_the_cap(self, w):
        delta2 = garside_delta(w.strands, squared=True)
        with pytest.raises(ReductionCapError):
            compare(free_reduce(w**8), delta2**9, cap=self.CAP)


class TestDehornoyFloor:
    def test_single_generator(self):
        assert dehornoy_floor(BraidWord(3, [1])).floor == 0

    def test_identity(self):
        assert dehornoy_floor(BraidWord(3, [])).floor == 0

    def test_full_twist(self):
        delta2 = garside_delta(3, squared=True)
        assert dehornoy_floor(delta2).floor == 1
        assert dehornoy_floor(delta2.inverse()).floor == -1

    def test_family_members(self):
        for m, k in ((0, 1), (1, 2), (2, 5), (3, 1)):
            w = BraidWord(3, [2, 1] * (3 * m + 1) + [-2] * (2 * k))
            assert dehornoy_floor(w).floor == m

    def test_convention_recorded(self):
        r = dehornoy_floor(BraidWord(3, [1]))
        assert r.convention == FLOOR_CONVENTION

    def test_central_shift(self):
        rng = random.Random(17)
        delta2 = garside_delta(3, squared=True)
        for _ in range(8):
            beta = random_word(rng, 3, 7)
            c = rng.randint(-3, 3)
            shifted = (delta2 ** c) * beta
            assert dehornoy_floor(shifted).floor == c + dehornoy_floor(beta).floor

    @given(small_words())
    @settings(max_examples=25, deadline=None)
    def test_fdtc_exact_reports_the_same_floor(self, w):
        assert fdtc_exact(w).floor == dehornoy_floor(w).floor

    def test_floor_makes_two_compares(self, monkeypatch):
        """The Dynnikov search finds the floor; handle reduction only certifies it."""
        calls = []

        def counting(a, b, *, cap=None):
            calls.append(a)
            return compare(a, b, cap=cap)

        monkeypatch.setattr(fdtc, "compare", counting)
        for w in FLIP_WORDS:
            calls.clear()
            dehornoy_floor(w)
            assert len(calls) == 2


class TestFdtcInterval:
    def test_identity(self):
        assert fdtc_interval(BraidWord(3, []), 4) == (Fraction(0), Fraction(1, 4))

    def test_full_twist_squared_power(self):
        delta2 = garside_delta(3, squared=True)
        assert fdtc_interval(delta2, 2) == (Fraction(1), Fraction(3, 2))
        assert fdtc_interval(delta2 * delta2, 2) == (Fraction(2), Fraction(5, 2))

    def test_cube_root_of_full_twist(self):
        w = BraidWord(3, [1, 2])
        assert fdtc_interval(w, 3) == (Fraction(1, 3), Fraction(2, 3))

    def test_interval_width(self):
        rng = random.Random(23)
        for _ in range(5):
            w = random_word(rng, 3, 6)
            N = rng.randint(1, 5)
            lo, hi = fdtc_interval(w, N)
            assert hi - lo == Fraction(1, N)

    def test_power_must_be_positive(self):
        with pytest.raises(ValueError):
            fdtc_interval(BraidWord(3, [1]), 0)


class TestFdtcExact:
    def test_torus_closed_form(self):
        for p, q in ((3, 2), (3, 4), (4, 3)):
            w = BraidWord(p, list(range(1, p)) * q)
            assert fdtc_exact(w).value == Fraction(q, p)

    def test_negative_three_braids(self):
        cases = (
            ([-1, -2], Fraction(-1, 3)),
            ([-1, -1, -2], Fraction(-1, 2)),
            ([-1, -1, -1, -2], Fraction(-2, 3)),
        )
        for letters, want in cases:
            assert fdtc_exact(BraidWord(3, letters)).value == want

    def test_identity(self):
        assert fdtc_exact(BraidWord(3, [])).value == 0

    def test_certificate_fields(self, check_fdtc_certificate):
        cases = ((3, [-1, -2]), (3, [1, 2]), (3, []), (4, [1, 2, 3] * 2), (5, [1, -2, 3, 4, -1]))
        for n, letters in cases:
            w = BraidWord(n, letters)
            r = fdtc_exact(w)
            check_fdtc_certificate(w, r.value, r.power_used, r.floor_of_power, *r.interval)

    def test_full_twist_shift(self):
        rng = random.Random(29)
        delta2 = garside_delta(3, squared=True)
        for _ in range(5):
            w = random_word(rng, 3, 5)
            assert fdtc_exact(delta2 * w).value == fdtc_exact(w).value + 1

    def test_cap_propagates(self):
        rng = random.Random(31)
        w = random_word(rng, 3, 30)
        with pytest.raises(ReductionCapError):
            fdtc_exact(w, cap=3)

    @given(small_words())
    @settings(max_examples=25, deadline=None)
    def test_value_lies_in_fixed_power_interval(self, w):
        n = w.strands
        lo, hi = fdtc_interval(w, n * n + 1)
        assert lo <= fdtc_exact(w).value <= hi

    @given(small_words())
    @settings(max_examples=25, deadline=None)
    def test_floor_of_doubled_power(self, w):
        for P in (1, 2, 4):
            floor = dehornoy_floor(free_reduce(w**P)).floor
            doubled = dehornoy_floor(free_reduce(w ** (2 * P))).floor
            assert doubled - 2 * floor in (0, 1)

    def test_three_or_four_certificate_compares(self, monkeypatch):
        """The P = 1 floor and the floor f of w^P, each side on its smallest
        power; a side that shrinks to the power 1 is the P = 1 compare."""
        claims = []

        def recording(search, P, t, *, cap=None):
            claims.append((P, t))
            return _at_least(search, P, t, cap=cap)

        monkeypatch.setattr(fdtc, "_at_least", recording)
        for w in FLIP_WORDS:
            claims.clear()
            fdtc_exact(w)
            assert 3 <= len(claims) <= 4
        # Even f: the lower side Delta^(2f) <= w^P is proved at a power below P.
        cases = (
            (BraidWord(3, [1, 2] * 4), [(1, 1), (1, 2), (4, 5), (8, 11)]),  # f = 10 at P = 8
            (BraidWord(3, [2, 1] * 7 + [-2] * 6), [(1, 2), (1, 3), (4, 9)]),  # f = 8 at P = 4
        )
        for w, want in cases:
            claims.clear()
            r = fdtc_exact(w)
            assert r.floor_of_power % 2 == 0
            assert claims == want
            assert (r.power_used, r.floor_of_power) not in claims

    def test_any_flipped_comparison_raises(self, monkeypatch):
        """One wrong answer, Dynnikov search probe or certificate compare,
        must never yield a value from fdtc_exact or dehornoy_floor: each
        is flipped in turn."""
        probe, compare = fdtc._PowerSearch.at_least, fdtc.compare

        def flipping(original, flip, k, seen):
            def wrapper(*args, **kwargs):
                answer = original(*args, **kwargs)
                seen.append(answer)
                return flip(answer) if len(seen) - 1 == k else answer

            return wrapper

        def flip_sign(sign):
            return OrderSign.GREATER if sign is OrderSign.LESS else OrderSign.LESS

        targets = (
            (fdtc._PowerSearch, "at_least", probe, lambda answer: not answer),
            (fdtc, "compare", compare, flip_sign),
        )
        for function, w, (owner, name, original, flip) in itertools.product(
            (fdtc_exact, dehornoy_floor), FLIP_WORDS, targets
        ):
            seen = []
            monkeypatch.setattr(owner, name, flipping(original, flip, -1, seen))
            function(w)
            assert seen
            for k in range(len(seen)):
                monkeypatch.setattr(owner, name, flipping(original, flip, k, []))
                with pytest.raises(RuntimeError):
                    function(w)
            monkeypatch.setattr(owner, name, original)

class TestWordSignBounds:
    def test_mixed_indices_pin_zero(self):
        assert word_sign_bounds(BraidWord(3, [1, -2, 1])) == (True, True)

    def test_positive_word(self):
        delta2 = garside_delta(3, squared=True)
        assert word_sign_bounds(delta2) == (True, False)

    def test_negative_word(self):
        assert word_sign_bounds(BraidWord(3, [-1, -2])) == (False, True)

    def test_consistency_with_exact_value(self):
        rng = random.Random(37)
        for _ in range(10):
            w = random_word(rng, 3, 6)
            lower_zero, upper_zero = word_sign_bounds(w)
            bt = fdtc_exact(w).value
            if lower_zero:
                assert bt >= 0
            if upper_zero:
                assert bt <= 0


class TestDestabBounds:
    def test_positive_stabilization(self):
        assert destab_bounds(BraidWord(3, [1, 1, 2])) == (Fraction(0), Fraction(1))

    def test_negative_stabilization(self):
        assert destab_bounds(BraidWord(3, [1, -2])) == (Fraction(-1), Fraction(0))

    def test_no_single_occurrence(self):
        assert destab_bounds(garside_delta(3, squared=True)) is None

    def test_consistency_with_exact_value(self):
        for letters in ([1, 1, 2], [1, -2], [1, 1, 1, 2], [-1, -2]):
            w = BraidWord(3, letters)
            bounds = destab_bounds(w)
            if bounds is None:
                continue
            lo, hi = bounds
            assert lo <= fdtc_exact(w).value <= hi
