import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidtwist import (
    BraidWord,
    OrderSign,
    closure_components,
    compare,
    exponent_counts,
    format_word,
    free_reduce,
    garside_delta,
    parse_word,
    permutation,
)
from braidtwist import braid, fdtc
from braidtwist.braid import _conjugate_split, integer
from oracles import (
    _full_twist_from,
    detect_destabilizable,
    dynnikov_order_sign,
    make_positive,
    positive_braid_genus,
    words,
)


class TestParseFormat:
    def test_plain_letters(self):
        assert parse_word("1 2 -2 -1", 3).letters == (1, 2, -2, -1)

    def test_empty_is_identity(self):
        w = parse_word("", 4)
        assert w.letters == () and w.strands == 4

    @pytest.mark.parametrize("text", ["\u0661 2", "1_0 -2", "s\u0661", "s1^-1_0", "s1_0"])
    def test_loose_digits_are_malformed(self, text):
        with pytest.raises(ValueError, match="malformed token"):
            parse_word(text, 12)

    @given(st.text() | st.text(st.sampled_from("+-0123456789_ \n\u0661\u0663\uff15x")))
    @example("1_0")
    @example(" 1")
    @example("\u0661")
    @example("+\u0663")
    @example("")
    @example("0x1")
    @example("-007")
    @example("5\n")
    @settings(max_examples=300, deadline=None)
    def test_integer_reads_only_a_sign_and_ascii_digits(self, text):
        if re.fullmatch(r"[-+]?[0-9]+", text):
            assert integer(text) == int(text)
        else:
            with pytest.raises(ValueError):
                integer(text)

    def test_out_of_range_generator(self):
        with pytest.raises(ValueError):
            parse_word("3", 3)

    def test_sigma_alias_and_unicode_minus(self):
        assert parse_word("s1^3 −2", 3).letters == (1, 1, 1, -2)

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            BraidWord(3, [1, 0])

    def test_strand_count_too_small(self):
        with pytest.raises(ValueError):
            BraidWord(1, [])

    @pytest.mark.parametrize("n", [1, 0])
    @pytest.mark.parametrize("build", [
        lambda n: parse_word("1", n),
        lambda n: garside_delta(n),
        lambda n: garside_delta(n, squared=True),
    ], ids=("parse_word", "delta", "delta_squared"))
    def test_fewer_than_two_strands_are_refused_first(self, build, n):
        """parse_word refuses the strand count before it reads a token, and
        garside_delta, which builds its word unchecked, before it builds
        one: without that guard garside_delta(1) would be a 1-strand word."""
        with pytest.raises(ValueError, match=f"need at least 2 strands, got {n}"):
            build(n)

    @pytest.mark.parametrize(
        "strands, letters", [("3", (1,)), (3, (1.5,)), (3, (True,)), (True, ()), (3.0, (1,))]
    )
    def test_non_integer_strands_and_letters_rejected(self, strands, letters):
        with pytest.raises(ValueError):
            BraidWord(strands, letters)

    @given(words(max_len=12))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, w):
        assert parse_word(format_word(w), w.strands) == w

    def test_alias_past_the_letter_budget_is_refused(self):
        """An alias token is counted against the letter budget with the
        letters before it, by the one length check every word builder uses."""
        with pytest.raises(
            ValueError,
            match=r"^the word up to token 's1\^10000000' would have 10000001 letters, "
            r"more than 10000000$",
        ):
            parse_word("2 s1^10000000", 3)

    def test_format_word_holds_one_slice_of_letters(self):
        """A 1,000,000-letter word is formatted in at most 8 MiB of peak
        allocation (2.4 MiB of it the output), and into the same text as
        one join of every letter."""
        w = BraidWord(3, [1, -2] * 500_000)
        tracemalloc.start()
        try:
            text = format_word(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert text == " ".join(map(str, w.letters))


class TestAlgebra:
    def test_inverse(self):
        assert BraidWord(3, [1, 2]).inverse().letters == (-2, -1)

    def test_power(self):
        assert (BraidWord(2, [1]) ** 3).letters == (1, 1, 1)

    def test_negative_power(self):
        assert (BraidWord(3, [1, 2]) ** -2).letters == (-2, -1, -2, -1)

    def test_conjugate(self):
        w = BraidWord(3, [2]).conjugate_by(BraidWord(3, [1]))
        assert w.letters == (1, 2, -1)

    def test_mul_strand_mismatch(self):
        with pytest.raises(ValueError):
            BraidWord(3, [1]) * BraidWord(4, [1])

    @given(words(max_len=12))
    @settings(max_examples=60, deadline=None)
    def test_inverse_cancels_freely(self, w):
        assert len(free_reduce(w * w.inverse())) == 0


class TestFreeReduce:
    def test_full_cancellation(self):
        assert free_reduce(BraidWord(3, [1, 2, -2, -1])).letters == ()

    def test_inner_cancellation_cascades(self):
        assert free_reduce(BraidWord(3, [1, -2, 2, 1])).letters == (1, 1)

    def test_fixed_point(self):
        assert free_reduce(BraidWord(3, [1, 2, 1])).letters == (1, 2, 1)

    @given(words(max_len=12))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, w):
        once = free_reduce(w)
        assert free_reduce(once) == once


class TestGarsideDelta:
    def test_three_strands(self):
        assert garside_delta(3).letters == (1, 2, 1)

    def test_two_strands(self):
        assert garside_delta(2).letters == (1,)

    def test_squared_length(self):
        for n in range(2, 7):
            assert len(garside_delta(n, squared=True)) == n * (n - 1)

    def test_full_twist_is_central(self):
        rng = random.Random(7)
        for n in (3, 4):
            delta2 = garside_delta(n, squared=True)
            for _ in range(5):
                beta = BraidWord(
                    n, [rng.choice([g for g in range(-(n - 1), n) if g]) for _ in range(8)]
                )
                left = permutation(delta2 * beta)
                right = permutation(beta * delta2)
                assert left == right


class TestExponentCounts:
    def test_full_twist(self):
        assert exponent_counts(garside_delta(3, squared=True)) == (6, 0, 6)

    def test_balanced_family_word(self):
        w = garside_delta(3, squared=True) * BraidWord(3, [-1] + [-2] * 5)
        assert exponent_counts(w) == (6, 6, 0)

    def test_empty(self):
        assert exponent_counts(BraidWord(3, [])) == (0, 0, 0)


class TestClosureComponents:
    def test_torus_like_knot(self):
        w = BraidWord(3, [2, 1] * 7 + [-2] * 4)
        assert closure_components(w) == 1

    def test_identity_closes_to_unlink(self):
        assert closure_components(BraidWord(3, [])) == 3

    def test_single_generator(self):
        assert closure_components(BraidWord(2, [1])) == 1

    def test_untouched_strands_are_fixed_points(self):
        # Only the strands the word moves are traced; a billion-strand
        # permutation would not fit in memory.
        n = 10**9
        assert closure_components(BraidWord(n, [])) == n
        assert closure_components(BraidWord(n, [1])) == n - 1
        assert closure_components(BraidWord(n, [3, -2, 1, 5])) == n - 4

    def test_cost_follows_the_word_not_the_highest_index(self):
        """One letter at index about 3.4e9: a trace of every position up to
        it would take gigabytes, one of the positions it moves takes bytes."""
        tracemalloc.start()
        try:
            components = closure_components(BraidWord(10**21, [3387215635, -3387215635, 7]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert components == 10**21 - 1
        assert peak < 2**16

    @given(words(max_strands=8, max_len=30))
    @settings(max_examples=100, deadline=None)
    def test_permutation_matches_a_trace_of_every_strand(self, w):
        strand_at = list(range(w.strands + 1))
        for g in w.letters:
            strand_at[abs(g)], strand_at[abs(g) + 1] = strand_at[abs(g) + 1], strand_at[abs(g)]
        images = [0] * (w.strands + 1)
        for p in range(1, w.strands + 1):
            images[strand_at[p]] = p
        assert permutation(w) == tuple(images[1:])

    @given(words(max_len=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_cycles_of_the_permutation(self, w):
        images = permutation(w)
        cycles, seen = 0, set()
        for start in range(1, w.strands + 1):
            if start not in seen:
                cycles += 1
                j = start
                while j not in seen:
                    seen.add(j)
                    j = images[j - 1]
        assert closure_components(w) == cycles


class TestPositiveBraidGenus:
    def test_trefoil(self):
        assert positive_braid_genus(BraidWord(2, [1, 1, 1])) == 1

    def test_torus_3_4(self):
        assert positive_braid_genus(BraidWord(3, [1, 2] * 4)) == 3

    def test_unknot(self):
        assert positive_braid_genus(BraidWord(2, [1])) == 0

    def test_rejects_negative_letters(self):
        with pytest.raises(ValueError):
            positive_braid_genus(BraidWord(3, [1, -2]))

    def test_rejects_links(self):
        with pytest.raises(ValueError):
            positive_braid_genus(BraidWord(3, [1, 1]))


class TestMakePositive:
    def test_absorbs_two_twists(self):
        w = BraidWord(3, [-1, -2])
        out = make_positive(w, 2)
        assert all(g > 0 for g in out.letters)
        assert len(out) == 10
        assert positive_braid_genus(out) == 4

    def test_positive_word_unchanged_at_zero(self):
        w = BraidWord(3, [1, 2, 1])
        assert make_positive(w, 0) == w

    def test_two_strand_cancellation(self):
        out = make_positive(BraidWord(2, [-1]), 1)
        assert out.letters == (1,)

    def test_insufficient_twisting_rejected(self):
        with pytest.raises(ValueError, match="need t >= 2"):
            make_positive(BraidWord(3, [-1, -2]), 1)

    def test_random_words_certified(self):
        rng = random.Random(11)
        for _ in range(6):
            n = rng.choice((3, 4))
            letters = [rng.choice([g for g in range(-(n - 1), n) if g]) for _ in range(6)]
            w = BraidWord(n, letters)
            l = sum(1 for g in w.letters if g < 0)
            out = make_positive(w, l + 1)
            assert all(g > 0 for g in out.letters)

    @given(words(max_strands=6, max_len=8), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_output_is_positive_and_equals_the_target(self, w, extra):
        k, l, _ = exponent_counts(w)
        t = l + extra
        n = w.strands
        out = make_positive(w, t)
        assert all(g > 0 for g in out.letters)
        assert len(out) == k - l + t * n * (n - 1)
        assert compare(out, w * garside_delta(n, squared=True) ** t) is OrderSign.EQUAL


class TestFullTwistFrom:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_is_the_full_twist_beginning_with_each_generator(self, n):
        twist = garside_delta(n, squared=True)
        for i in range(1, n):
            word = BraidWord(n, _full_twist_from(n, i))
            assert word.letters[0] == i and len(word) == n * (n - 1)
            assert compare(word, twist) is OrderSign.EQUAL
            assert dynnikov_order_sign(word * twist.inverse()) is OrderSign.EQUAL
        assert fdtc._full_twists(n)[0] == _full_twist_from(n, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_tail_is_an_inverse_generator_times_the_full_twist(self, n):
        twist = garside_delta(n, squared=True)
        for i in range(1, n):
            tail = BraidWord(n, _full_twist_from(n, i)[1:])
            assert all(g > 0 for g in tail.letters)
            assert compare(tail, BraidWord(n, [-i]) * twist) is OrderSign.EQUAL


    def test_words_are_not_kept_after_the_call(self):
        """Delta and Delta^2 words, and the full twists fdtc builds, are
        built on each call, not cached: a loop over 40 strand counts, about
        14 million letters in all, leaves almost nothing allocated once the
        words are dropped."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in range(300, 340):
                garside_delta(n)
                garside_delta(n, squared=True)
                fdtc._full_twists(n)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20


class TestLetterBudget:
    """Every Delta and Delta^2 word is refused with a ValueError naming
    the strand count and the letter count before it is built, once it
    would have more than DEFAULT_STEP_CAP letters."""

    HUGE = 10**18

    @pytest.mark.parametrize(
        "build, letters",
        [(lambda n: garside_delta(n), HUGE * (HUGE - 1) // 2),
         (lambda n: garside_delta(n, squared=True), HUGE * (HUGE - 1)),
         (lambda n: fdtc._full_twists(n), HUGE * (HUGE - 1))],
        ids=("delta", "delta_squared", "full_twist_from"),
    )
    def test_oversized_strand_count_is_refused(self, build, letters):
        with pytest.raises(ValueError, match=f"on {self.HUGE} strands would have {letters} letters"):
            build(self.HUGE)

    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_garside_delta_counts_every_letter(self, monkeypatch, n):
        for squared in (False, True):
            length = len(garside_delta(n, squared=squared))
            monkeypatch.setattr(braid, "DEFAULT_STEP_CAP", length)
            assert len(garside_delta(n, squared=squared)) == length
            monkeypatch.setattr(braid, "DEFAULT_STEP_CAP", length - 1)
            with pytest.raises(ValueError, match=f"would have {length} letters"):
                garside_delta(n, squared=squared)
            monkeypatch.undo()

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_a_budget_of_one_full_twist(self, monkeypatch, n):
        """With the budget at the n(n-1) letters of Delta^2 on n strands,
        fdtc_exact works on n strands and refuses n + 1 before it starts."""
        monkeypatch.setattr(braid, "DEFAULT_STEP_CAP", n * (n - 1))
        assert fdtc.fdtc_exact(BraidWord(n, [1])).value == 0
        with pytest.raises(ValueError, match=f"Delta\\^2 on {n + 1} strands would have"):
            fdtc.fdtc_exact(BraidWord(n + 1, [1]))


class TestDetectDestabilizable:
    def test_single_positive_top_generator(self):
        assert detect_destabilizable(BraidWord(3, [1, 1, 2])) == 1

    def test_single_negative_top_generator(self):
        assert detect_destabilizable(BraidWord(3, [1, -2])) == -1

    def test_two_occurrences(self):
        assert detect_destabilizable(BraidWord(3, [2, 1, 2])) is None


@given(words(max_len=12), words(max_len=12))
@settings(max_examples=60, deadline=None)
def test_conjugate_split(core, c):
    c = BraidWord(core.strands, [g for g in c.letters if abs(g) < core.strands])
    w = core.conjugate_by(c)
    head, u = _conjugate_split(w.letters)
    assert head + u + [-g for g in reversed(head)] == list(free_reduce(w).letters)
    assert len(u) < 2 or u[0] != -u[-1]


@given(words(max_len=12), words(max_len=12))
@settings(max_examples=60, deadline=None)
def test_permutation_is_a_homomorphism(a, b):
    if a.strands != b.strands:
        b = BraidWord(a.strands, [g for g in b.letters if abs(g) < a.strands])
    pa, pb = permutation(a), permutation(b)
    assert permutation(a * b) == tuple(pb[i - 1] for i in pa)
