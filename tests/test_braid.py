import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidtwist import (
    BraidWord,
    closure_components,
    exponent_counts,
    format_word,
    free_reduce,
    garside_delta,
    make_positive,
    parse_word,
    permutation,
    positive_braid_genus,
)
from braidtwist.braid import detect_destabilizable


@st.composite
def words(draw, min_strands=2, max_strands=5, max_len=12):
    n = draw(st.integers(min_strands, max_strands))
    gens = [g for g in range(-(n - 1), n) if g != 0]
    letters = draw(st.lists(st.sampled_from(gens), max_size=max_len))
    return BraidWord(n, letters)


class TestParseFormat:
    def test_plain_letters(self):
        assert parse_word("1 2 -2 -1", 3).letters == (1, 2, -2, -1)

    def test_empty_is_identity(self):
        w = parse_word("", 4)
        assert w.letters == () and w.strands == 4

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

    @pytest.mark.parametrize(
        "strands, letters", [("3", (1,)), (3, (1.5,)), (3, (True,)), (True, ()), (3.0, (1,))]
    )
    def test_non_integer_strands_and_letters_rejected(self, strands, letters):
        with pytest.raises(ValueError):
            BraidWord(strands, letters)

    @given(words())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, w):
        assert parse_word(format_word(w), w.strands) == w


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

    @given(words())
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

    @given(words())
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
        with pytest.raises(ValueError):
            make_positive(BraidWord(3, [-1, -2]), 1)

    def test_random_words_certified(self):
        rng = random.Random(11)
        for _ in range(6):
            n = rng.choice((3, 4))
            letters = [rng.choice([g for g in range(-(n - 1), n) if g]) for _ in range(6)]
            w = BraidWord(n, letters)
            l = sum(1 for g in w.letters if g < 0)
            out = make_positive(w, l + 1, certify=True)
            assert all(g > 0 for g in out.letters)


class TestDetectDestabilizable:
    def test_single_positive_top_generator(self):
        assert detect_destabilizable(BraidWord(3, [1, 1, 2])) == 1

    def test_single_negative_top_generator(self):
        assert detect_destabilizable(BraidWord(3, [1, -2])) == -1

    def test_two_occurrences(self):
        assert detect_destabilizable(BraidWord(3, [2, 1, 2])) is None


@given(words(), words())
@settings(max_examples=60, deadline=None)
def test_permutation_is_a_homomorphism(a, b):
    if a.strands != b.strands:
        b = BraidWord(a.strands, [g for g in b.letters if abs(g) < a.strands])
    assert permutation(a * b) == permutation(a) * permutation(b)
