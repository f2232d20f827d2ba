import random
from fractions import Fraction

import pytest

import braidtwist.braid as braid
from braidtwist.murasugi import (
    Class1,
    Class2,
    Class3,
    cross_check,
    fdtc_3braid,
    is_quasi_alternating,
    to_word,
)


class TestToWord:
    def test_class1_without_twists(self):
        assert to_word(Class1(0, (1,))).letters == (1, -2)

    def test_class2_with_full_twist(self):
        assert to_word(Class2(1, -2)).letters == (1, 2, 1, 1, 2, 1, -2, -2)

    def test_class3_plain(self):
        assert to_word(Class3(0, -1)).letters == (-1, -2)

    def test_class1_multiple_blocks(self):
        w = to_word(Class1(0, (1, 2)))
        assert w.letters == (1, -2, 1, -2, -2)


class TestLetterBudget:
    """to_word() works out the length of the unreduced word first and
    refuses, with a ValueError, one longer than DEFAULT_STEP_CAP letters."""

    @pytest.mark.parametrize(
        "form", [Class1(1, (2, 0, 1)), Class2(2, 3), Class2(0, -2), Class3(0, -3)], ids=repr
    )
    def test_the_budget_counts_every_letter(self, monkeypatch, form):
        length = len(to_word(form))
        monkeypatch.setattr(braid, "DEFAULT_STEP_CAP", length)
        assert len(to_word(form)) == length
        monkeypatch.setattr(braid, "DEFAULT_STEP_CAP", length - 1)
        with pytest.raises(ValueError, match=f"would have {length} letters"):
            to_word(form)

    @pytest.mark.parametrize(
        "form",
        [Class2(10**18, 1), Class2(-(10**18), 1), Class2(0, 10**18), Class2(0, -(10**18)),
         Class1(0, (1, 10**18)), Class3(10**18, -1)],
        ids=repr,
    )
    def test_oversized_word_is_refused_before_it_is_built(self, form):
        with pytest.raises(ValueError, match="more than 10000000"):
            to_word(form)


class TestValidation:
    def test_class1_needs_a_positive_exponent(self):
        with pytest.raises(ValueError):
            Class1(0, (0, 0))

    def test_class1_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Class1(0, (1, -1))

    def test_class1_rejects_empty(self):
        with pytest.raises(ValueError):
            Class1(0, ())

    def test_class3_exponent_range(self):
        with pytest.raises(ValueError):
            Class3(0, -4)
        with pytest.raises(ValueError):
            Class3(0, 1)


    @pytest.mark.parametrize("function", [to_word, fdtc_3braid, is_quasi_alternating])
    @pytest.mark.parametrize("form", [(0, (1,)), None, braid.BraidWord(3, [1])])
    def test_a_value_that_is_not_a_normal_form_is_refused(self, function, form):
        with pytest.raises(ValueError, match="not a Murasugi normal form"):
            function(form)


class TestFdtcClosedForm:
    def test_class1(self):
        assert fdtc_3braid(Class1(2, (1, 3))) == 2

    def test_class2(self):
        assert fdtc_3braid(Class2(0, 5)) == 0

    def test_class3(self):
        assert fdtc_3braid(Class3(0, -1)) == Fraction(-1, 3)
        assert fdtc_3braid(Class3(0, -2)) == Fraction(-1, 2)
        assert fdtc_3braid(Class3(0, -3)) == Fraction(-2, 3)
        assert fdtc_3braid(Class3(2, -2)) == Fraction(3, 2)


class TestQuasiAlternating:
    def test_class1_window(self):
        assert is_quasi_alternating(Class1(0, (2,)))
        assert is_quasi_alternating(Class1(-1, (1, 1)))
        assert not is_quasi_alternating(Class1(2, (1,)))

    def test_class2_window(self):
        assert is_quasi_alternating(Class2(1, -3))
        assert is_quasi_alternating(Class2(-1, 2))
        assert not is_quasi_alternating(Class2(0, 5))

    def test_class3_window(self):
        assert is_quasi_alternating(Class3(0, -1))
        assert is_quasi_alternating(Class3(1, -2))
        assert not is_quasi_alternating(Class3(2, -1))


class TestCrossCheck:
    def test_spot_values(self):
        assert cross_check(Class3(0, -1))
        assert cross_check(Class1(-1, (1, 1)))

    def test_random_forms(self):
        rng = random.Random(47)
        for _ in range(15):
            cls = rng.randint(1, 3)
            d = rng.randint(-2, 2)
            if cls == 1:
                a = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
                if not any(a):
                    a = a + (1,)
                form = Class1(d, a)
            elif cls == 2:
                form = Class2(d, rng.choice([-5, -2, -1, 1, 3, 6]))
            else:
                form = Class3(d, rng.choice([-1, -2, -3]))
            assert cross_check(form)
