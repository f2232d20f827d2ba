import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidtwist import BraidWord, braid
from braidtwist.fdtc import fdtc_exact
from braidtwist.quasipositive import (
    Syllable,
    SyllableWord,
    parse_syllables,
    qp_bt_check,
    qp_report,
)
from oracles import format_syllables


def random_syllable_word(rng, n, m, max_conj=4):
    gens = [g for g in range(-(n - 1), n) if g]
    syllables = []
    for _ in range(m):
        conj = tuple(rng.choice(gens) for _ in range(rng.randint(0, max_conj)))
        syllables.append(Syllable(conj, rng.randint(1, n - 1), 1))
    return SyllableWord(n, tuple(syllables))


@st.composite
def syllable_words(draw):
    """1 to 4 bands on 2 to 5 strands, each conjugated by up to 3 letters
    and positive three times in four."""
    n = draw(st.integers(2, 5))
    gens = st.sampled_from([g for g in range(-(n - 1), n) if g])
    band = st.builds(
        Syllable,
        st.lists(gens, max_size=3).map(tuple),
        st.integers(1, n - 1),
        st.sampled_from((1, 1, 1, -1)),
    )
    return SyllableWord(n, tuple(draw(st.lists(band, min_size=1, max_size=4))))


class TestExpand:
    def test_trivial_conjugator(self):
        s = SyllableWord(3, (Syllable((), 1, 1),))
        assert s.word.letters == (1,)

    def test_conjugated_generator(self):
        s = SyllableWord(3, (Syllable((1,), 2, 1),))
        assert s.word.letters == (1, 2, -1)

    def test_adjacent_syllables_reduce_freely(self):
        s = SyllableWord(3, (Syllable((), 1, 1), Syllable((1,), 2, 1)))
        assert s.word.letters == (1, 1, 2, -1)

    def test_negative_syllable(self):
        s = SyllableWord(3, (Syllable((2,), 1, -1),))
        assert s.word.letters == (2, -1, -2)


class TestValidation:
    def test_generator_out_of_range(self):
        with pytest.raises(ValueError, match="letter 3 is not a generator .* on 3 strands"):
            SyllableWord(3, (Syllable((), 3, 1),))

    def test_conjugator_letter_out_of_range(self):
        with pytest.raises(ValueError, match="letter 3 is not a generator .* on 3 strands"):
            SyllableWord(3, (Syllable((3,), 1, 1),))

    def test_too_few_strands(self):
        with pytest.raises(ValueError, match="need at least 2 strands, got 1"):
            SyllableWord(1, ())

    def test_word_is_made_here_and_not_compared(self):
        s = SyllableWord(3, (Syllable((1,), 2, 1),))
        with pytest.raises(TypeError):
            SyllableWord(3, s.syllables, s.word)
        t = SyllableWord(3, s.syllables)
        object.__setattr__(t, "word", BraidWord(3, []))
        assert s == t and hash(s) == hash(t)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            SyllableWord(3, (Syllable((), 1, 2),))

    @pytest.mark.parametrize("strands, conjugator, generator, sign", [
        (3.0, (), 1, 1), (True, (), 1, 1), (3, (1.0,), 1, 1), (3, (True,), 1, 1),
        (3, (), 1.0, 1), (3, (), "1", 1), (3, (), 1, 1.0),
    ])
    def test_every_letter_is_an_int(self, strands, conjugator, generator, sign):
        """The expansion is built unchecked, so a letter that is not an int
        is refused when the syllable word is built."""
        with pytest.raises(ValueError):
            SyllableWord(strands, (Syllable(conjugator, generator, sign),))


class TestSyllableReport:
    def test_two_positive_bands(self):
        s = SyllableWord(3, (Syllable((), 1, 1), Syllable((), 2, 1)))
        r = qp_report(s)
        assert r["qp_length"] == 2
        assert r["chi4"] == 1
        assert r["g4"] == 0
        assert r["bt_upper"] == 1
        assert r["all_positive"]
        assert r["closure_is_knot"]

    def test_single_band_pins_twist_to_zero(self):
        s = SyllableWord(3, (Syllable((2,), 1, 1),))
        r = qp_report(s)
        assert r["bt_upper"] == 0
        assert fdtc_exact(s.word).value == 0

    def test_mixed_sign_bounds(self):
        """A word with a negative band gets no bound; its exact twist
        coefficient comes from the engine."""
        s = SyllableWord(
            3,
            (
                Syllable((), 1, 1),
                Syllable((1,), 2, 1),
                Syllable((), 2, -1),
            ),
        )
        r = qp_report(s)
        assert not r["all_positive"]
        assert r["chi4"] is None and r["g4"] is None and r["bt_upper"] is None
        assert fdtc_exact(s.word).value == 0

    def test_non_knot_closure_reported(self):
        s = SyllableWord(3, (Syllable((), 1, 1), Syllable((), 1, 1)))
        assert not qp_report(s)["closure_is_knot"]

    @given(syllable_words())
    @example(SyllableWord(2, (Syllable((), 1, 1),)))  # BT(sigma_1) = 1/2 on 2 strands
    @settings(max_examples=60, deadline=None)
    def test_engine_twist_lies_under_every_reported_bound(self, s):
        """Whenever the report gives bt_upper, the engine's BT is in [0, bt_upper]."""
        upper = qp_report(s)["bt_upper"]
        if upper is not None:
            assert 0 <= fdtc_exact(s.word).value <= upper


class TestCheckBound:
    def test_single_band(self):
        s = SyllableWord(3, (Syllable((2, 1), 2, 1),))
        assert qp_bt_check(s)[1]
        assert fdtc_exact(s.word).value == 0

    def test_positive_word_as_bands(self):
        letters = [1, 2, 1, 2]
        s = SyllableWord(3, tuple(Syllable((), g, 1) for g in letters))
        assert qp_bt_check(s)[1]

    def test_random_words_satisfy_bound(self):
        rng = random.Random(41)
        for _ in range(12):
            n = rng.choice((3, 4))
            s = random_syllable_word(rng, n, rng.randint(1, 4))
            assert qp_bt_check(s)[1]

    def test_needs_three_strands(self):
        s = SyllableWord(2, (Syllable((), 1, 1),))
        with pytest.raises(ValueError, match="needs at least 3 strands"):
            qp_bt_check(s)

    def test_needs_positive_bands(self):
        s = SyllableWord(3, (Syllable((), 1, -1),))
        with pytest.raises(ValueError, match="needs an all-positive word"):
            qp_bt_check(s)


class TestTextForm:
    def test_parse(self):
        s = parse_syllables("2 | 1 | +; | 2 | +", 3)
        assert s.syllables == (Syllable((2,), 1, 1), Syllable((), 2, 1))

    def test_parse_negative(self):
        s = parse_syllables("1 -2 | 1 | -", 3)
        assert s.syllables == (Syllable((1, -2), 1, -1),)

    def test_round_trip(self):
        rng = random.Random(43)
        for _ in range(10):
            s = random_syllable_word(rng, 4, 3)
            assert parse_syllables(format_syllables(s), 4) == s

    def test_malformed_field_count(self):
        with pytest.raises(ValueError):
            parse_syllables("1 | 2", 3)

    def test_bad_sign_token(self):
        with pytest.raises(ValueError):
            parse_syllables(" | 1 | x", 3)

    def test_letter_budget_covers_the_whole_expansion(self, monkeypatch):
        """2|w| + 1 letters per syllable, summed over the syllables, are
        counted against the budget before the word is expanded."""
        monkeypatch.setattr(braid, "DEFAULT_STEP_CAP", 100)
        with pytest.raises(ValueError, match="up to syllable 1 would have 121 letters"):
            parse_syllables("s1^60 | 1 | +; s2^60 | 1 | +", 3)
        with pytest.raises(ValueError, match="up to syllable 2 would have 102 letters"):
            parse_syllables("s1^25 | 1 | +; s2^25 | 1 | +", 3)
        s = parse_syllables("s1^24 | 1 | +; s2^25 | 1 | +", 3)
        assert sum(2 * len(syl.conjugator) + 1 for syl in s.syllables) == 100
