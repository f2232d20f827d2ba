import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidtwist.fdtc as fdtc
import braidtwist.dynnikov as dynnikov
import braidtwist.ordering as ordering
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
from braidtwist.ordering import syntactic_sigma_class


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


# Periodic words, w^m = Delta^(2k): the first four are FLIP_WORDS.
PERIODIC_WORDS = (
    BraidWord(3, [1, 2]),  # delta in B_3
    BraidWord(5, [4, 3, 2, 1, 1]),  # conjugate to epsilon in B_5
    BraidWord(3, [-1, -1, -2]),  # epsilon^-1 in B_3
    BraidWord(3, []),
    BraidWord(3, [1, 2] * 4),  # delta^4, floor 10 at power 8
    BraidWord(4, [1, 2, 3] * 2).conjugate_by(BraidWord(4, [2, -1, 3])),
    BraidWord(5, [1, 1, 2, 3, 4] * 3).conjugate_by(BraidWord(5, [-4, 2])),
    garside_delta(4, squared=True).inverse(),
    BraidWord(2, [1] * 3),
)


@st.composite
def periodic_words(draw):
    """delta^j, epsilon^j or Delta^(2j) in B_2 to B_7, conjugated by up to
    4 letters, with the closed-form value j/n, j/(n-1) or j."""
    n = draw(st.integers(2, 7))
    delta = tuple(range(1, n))
    root, order, bound = draw(
        st.sampled_from(((delta, n, 2 * n), ((1, *delta), n - 1, 2 * n), (delta * n, 1, 2)))
    )
    j = draw(st.integers(-bound, bound))
    gens = [g for g in range(-(n - 1), n) if g]
    c = BraidWord(n, draw(st.lists(st.sampled_from(gens), max_size=4)))
    return (BraidWord(n, root) ** j).conjugate_by(c), Fraction(j, order)


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
    # (P, t) claims: long runs (t = 1, t = P - 1), several runs, negative
    # slopes, non-coprime pairs and P = 1.
    CLAIMS = ((16, 9), (8, 5), (32, 23), (32, 1), (32, 31), (8, -3), (12, 8), (4, 0), (8, 6), (1, 5))

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
        # Larger powers against the Dynnikov engine: long runs (t = 1 and
        # P - 1), non-coprime pairs, and both sides of the floor.
        for P in (8, 32):
            power = free_reduce(w**P)
            floor = _PowerSearch(power).floor()
            for t in {1, P - 1, 2, P // 2, P - 2, floor, floor + 1}:
                target = delta2 ** (-t) * power
                twisted = search.twisted_power(P, t)
                assert dynnikov.order_sign(twisted.inverse() * target) is OrderSign.EQUAL
                assert _at_least(search, P, t) == (dynnikov.order_sign(target) is not OrderSign.LESS)

    def test_core_is_the_balanced_arrangement(self, monkeypatch):
        """Written out with no piece reduced, the core of Delta^(-2t) w^P is
        B(k_1) ... B(k_P), B(k) = Delta^(-2k) u and
        k_j = floor(j t / P) - floor((j - 1) t / P): the Christoffel word of
        slope t/P, with each copy of u carrying its share of the twists."""
        monkeypatch.setattr(_PowerSearch, "_reduced", lambda self, piece, cap: piece)
        search = _PowerSearch(BraidWord(3, [2, 1, -2]))  # c = [2], u = [1]
        twist = (1, 2, 1, 1, 2, 1)
        untwist = tuple(-g for g in reversed(twist))

        def block(k):
            return (untwist if k > 0 else twist) * abs(k) + (1,)

        for P, t in self.CLAIMS:
            ks = [j * t // P - (j - 1) * t // P for j in range(1, P + 1)]
            want = itertools.chain.from_iterable(map(block, ks))
            assert search.twisted_power(P, t).letters == (2, *want, -2)

    def test_twists_are_spread_over_the_copies(self, monkeypatch):
        """Each kept piece a/b comes from one reduction, counts a twists
        over b copies, is the same braid as Delta^(-2a) u^b, and is empty
        or sigma-definite; a block that fills one place stays as written."""
        reductions = []
        reduce = ordering.handle_reduce

        def counting(w, *, cap=None):
            reductions.append(w)
            return reduce(w, cap=cap)

        monkeypatch.setattr(ordering, "handle_reduce", counting)
        u = BraidWord(4, [1, 2, 3, 3, -2])
        search = _PowerSearch(u.conjugate_by(BraidWord(4, [2, -3])))  # c = [2, -3]
        delta2 = garside_delta(4, squared=True)
        single = (delta2.inverse() * u).letters  # B(1), once in the word for (32, 1)
        assert search.twisted_power(32, 1).letters[-2 - len(single) : -2] == single
        assert (1, 1) not in search._pieces
        words = {(P, t): search.twisted_power(P, t) for P, t in self.CLAIMS}
        assert len(reductions) == len(search._pieces)
        assert sum(b > 1 for _, b in search._pieces) >= 5
        for (P, t), word in words.items():
            assert compare(word.conjugate_by(BraidWord(4, [3, -2])), delta2 ** (-t) * u**P) is OrderSign.EQUAL
        for (a, b), piece in search._pieces.items():
            assert (piece.twists, piece.copies) == (a, b)
            kept = BraidWord(4, piece.letters)
            assert compare(kept, delta2 ** (-a) * u**b) is OrderSign.EQUAL
            assert not kept.letters or syntactic_sigma_class(kept) is not None

    def test_periodic_piece_is_empty(self):
        """u^5 = Delta^6 for the torus braid u of T(5, 3), so the piece of
        slope 3/5, built on the way to 39/64, reduces to the empty word."""
        torus = BraidWord(5, [1, 2, 3, 4] * 3)
        search = _PowerSearch(torus.conjugate_by(BraidWord(5, [2, 2, -3])))
        assert not _at_least(search, 64, 39)  # 39/64 > 3/5
        assert search._pieces[3, 5].letters == ()

    def test_piece_with_wrong_counts_raises(self, monkeypatch):
        """A piece whose counts do not add up to (t, P) never reaches a
        comparison."""
        reduced = _PowerSearch._reduced

        def miscounted(self, piece, cap):
            return reduced(self, piece, cap)._replace(twists=piece.twists + 1)

        monkeypatch.setattr(_PowerSearch, "_reduced", miscounted)
        with pytest.raises(RuntimeError):
            _PowerSearch(BraidWord(3, [1, 2])).twisted_power(16, 9)
        with pytest.raises(RuntimeError):
            fdtc_exact(BraidWord(3, [1, 2] * 4))

    def test_cap_bounds_each_block_reduction(self):
        """A cap below the steps one piece's reduction takes raises, even
        though the comparison that needs the piece would fit under it."""
        w = BraidWord(4, [3, 2, 1, 1])  # c empty, u = w
        block = garside_delta(4, squared=True).inverse() * w
        steps = 0
        while True:
            try:
                ordering.handle_reduce(block, cap=steps)
                break
            except ReductionCapError:
                steps += 1
        assert steps > 0
        with pytest.raises(ReductionCapError):
            _PowerSearch(w).twisted_power(2, 2, cap=steps - 1)  # two copies of the block
        reduced = _PowerSearch(w).twisted_power(2, 2, cap=steps)
        assert compare(reduced, BraidWord(4), cap=0) is OrderSign.LESS


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
    the largest reduction of the whole fdtc_exact run takes 179 and 103.
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

    def test_two_certificate_compares(self, monkeypatch):
        """For a word that is not periodic, the floor f of w^P, each side on
        its smallest power; the floor of w is f // P and needs no compare
        of its own."""
        claims = []

        def recording(search, P, t, *, cap=None):
            claims.append((P, t))
            return _at_least(search, P, t, cap=cap)

        monkeypatch.setattr(fdtc, "_at_least", recording)
        for w in FLIP_WORDS:
            if w in PERIODIC_WORDS:
                continue
            claims.clear()
            r = fdtc_exact(w)
            assert len(claims) == 2
            assert r.floor == r.floor_of_power // r.power_used
        # Even f: the lower side Delta^(2f) <= w^P is proved at a power below P.
        cases = (
            (BraidWord(4, [2, 1, 2, 2, 2, 1, 3]), [(2, 1), (8, 5)]),  # f = 4 at P = 8
            (BraidWord(3, [2, 1] * 7 + [-2] * 6), [(1, 2), (4, 9)]),  # f = 8 at P = 4
        )
        for w, want in cases:
            claims.clear()
            r = fdtc_exact(w)
            assert r.floor_of_power % 2 == 0
            assert claims == want
            assert (r.power_used, r.floor_of_power) not in claims

    def test_periodic_words_make_one_equal_compare(self, monkeypatch):
        """w^m = Delta^(2k) is certified by one handle reduction that
        compares EQUAL, and no twisted-power claim is made."""
        claims, signs = [], []

        def recording(search, P, t, *, cap=None):
            claims.append((P, t))
            return _at_least(search, P, t, cap=cap)

        def recording_compare(a, b, *, cap=None):
            signs.append(compare(a, b, cap=cap))
            return signs[-1]

        monkeypatch.setattr(fdtc, "_at_least", recording)
        monkeypatch.setattr(fdtc, "compare", recording_compare)
        for w in PERIODIC_WORDS:
            claims.clear()
            signs.clear()
            r = fdtc_exact(w)
            assert claims == []
            assert signs == [OrderSign.EQUAL]
            assert r.floor == r.floor_of_power // r.power_used

    @given(periodic_words())
    @settings(max_examples=40, deadline=None)
    def test_periodic_path_matches_the_two_sided_path(self, case):
        """Every field for a conjugated delta^j, epsilon^j or Delta^(2j)
        equals the one from the doubling search and two certificates
        with the central-power check switched off, and the value is the
        closed form."""
        w, want = case

        def two_sided(*args):
            raise AssertionError("a periodic word reached the two-sided certificate")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fdtc, "_certify", two_sided)
            r = fdtc_exact(w)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_PowerSearch, "_central_twists", lambda self, copies: None)
            assert fdtc_exact(w) == r
        assert r.value == want

    def test_false_central_power_raises(self, monkeypatch):
        """A Dynnikov hit that is not one (here forced on a pure braid of
        exponent sum 0, which passes both filters), or a true hit with the
        wrong number of twists, fails its handle reduction."""
        central_twists = _PowerSearch._central_twists
        pure = BraidWord(3, [1, 1, -2, -2])
        assert _PowerSearch(pure)._candidates
        assert fdtc_exact(pure).value == 0

        def always(self, copies):
            return self._candidates[copies]

        monkeypatch.setattr(_PowerSearch, "_central_twists", always)
        with pytest.raises(RuntimeError):
            fdtc_exact(pure)
        for shift in (-1, 1):
            def shifted(self, copies, shift=shift):
                k = central_twists(self, copies)
                return None if k is None else k + shift

            monkeypatch.setattr(_PowerSearch, "_central_twists", shifted)
            for w in PERIODIC_WORDS:
                with pytest.raises(RuntimeError):
                    fdtc_exact(w)

    def test_wrong_search_floor_raises(self, monkeypatch):
        """A search floor other than f // P for the certified f of w^P
        never comes back as a value."""
        floor = _PowerSearch.floor
        for w in FLIP_WORDS:
            for shift in (-1, 1):
                monkeypatch.setattr(
                    _PowerSearch, "floor", lambda self, shift=shift: floor(self) + shift
                )
                with pytest.raises(RuntimeError):
                    fdtc_exact(w)

    def test_step_cap_resolved_once_before_the_search(self, monkeypatch):
        """cap is validated before any search work, and the default cap is
        resolved once per call, not once per reduction."""
        def no_search(w):
            raise AssertionError("searched with an invalid cap")

        with monkeypatch.context() as patch:
            patch.setattr(fdtc, "_PowerSearch", no_search)
            for function in (fdtc_exact, dehornoy_floor):
                with pytest.raises(ValueError):
                    function(BraidWord(3, [1, 2]), cap=-1)
        resolved = []
        effective_cap = ordering._effective_cap

        def recording(cap):
            resolved.append(cap)
            return effective_cap(cap)

        monkeypatch.setattr(ordering, "_effective_cap", recording)
        for function in (fdtc_exact, dehornoy_floor):
            resolved.clear()
            function(BraidWord(4, [1, 2, 3, 1, -2]))
            assert resolved.count(None) == 1

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
