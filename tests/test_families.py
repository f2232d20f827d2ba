import pytest

import braidtwist.braid as braid
import braidtwist.families as families
from braidtwist import BraidWord, closure_components, exponent_counts, garside_delta
from braidtwist.families import BTtau, FullTwists, Ktd, Torus, generate

HUGE = 10**18


class TestKtd:
    def test_word_shape(self):
        w = generate(Ktd(1, 2))
        assert w.letters == tuple([2, 1] * 4 + [-2] * 4)
        assert w.strands == 3

    def test_closure_is_a_knot(self):
        for m in range(4):
            for k in (1, 2, 5):
                assert closure_components(generate(Ktd(m, k))) == 1

    def test_a_closure_that_is_not_a_knot_is_an_engine_fault(self, monkeypatch):
        """The Ktd knot check is an explicit raise, which python -O keeps."""
        monkeypatch.setattr(families, "closure_components", lambda w: 2)
        with pytest.raises(RuntimeError, match=r"\(engine bug\)"):
            generate(Ktd(0, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            Ktd(-1, 1)
        with pytest.raises(ValueError):
            Ktd(0, 0)


class TestBTtau:
    def test_word_shape(self):
        w = generate(BTtau(1))
        delta2 = garside_delta(3, squared=True)
        assert w == delta2 * BraidWord(3, [-1] + [-2] * 5)

    def test_exponent_balance(self):
        for k in (1, 2, 3):
            assert exponent_counts(generate(BTtau(k)))[2] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BTtau(0)


class TestTorus:
    def test_word_shape(self):
        w = generate(Torus(3, 2))
        assert w.letters == (1, 2, 1, 2)
        assert w.strands == 3

    def test_strand_count_follows_p(self):
        assert generate(Torus(5, 1)).strands == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Torus(1, 2)
        with pytest.raises(ValueError):
            Torus(3, 0)


class TestFullTwists:
    def test_appends_central_power(self):
        base = BraidWord(3, [1, -2])
        w = generate(FullTwists(base, 2))
        assert w == base * garside_delta(3, squared=True) ** 2

    def test_negative_twisting(self):
        base = BraidWord(3, [1])
        w = generate(FullTwists(base, -1))
        assert w == base * garside_delta(3, squared=True) ** -1

    def test_zero_twists(self):
        base = BraidWord(4, [1, 3])
        assert generate(FullTwists(base, 0)) == base


class TestLetterBudget:
    """generate() works out a word's length first and refuses, with a
    ValueError, one longer than DEFAULT_STEP_CAP letters."""

    @pytest.mark.parametrize(
        "spec",
        [Ktd(2, 3), BTtau(2), Torus(4, 3), FullTwists(BraidWord(3, [1, -2]), 2),
         FullTwists(BraidWord(4, [3]), -1), FullTwists(BraidWord(3, [1]), 0)],
        ids=repr,
    )
    def test_the_budget_counts_every_letter(self, monkeypatch, spec):
        length = len(generate(spec))
        monkeypatch.setattr(braid, "DEFAULT_STEP_CAP", length)
        assert len(generate(spec)) == length
        monkeypatch.setattr(braid, "DEFAULT_STEP_CAP", length - 1)
        with pytest.raises(ValueError, match=f"would have {length} letters"):
            generate(spec)

    @pytest.mark.parametrize(
        "spec",
        [Torus(2, HUGE), Torus(HUGE, 1), Ktd(HUGE, 1), Ktd(0, HUGE), BTtau(HUGE),
         FullTwists(BraidWord(3, [1]), HUGE), FullTwists(BraidWord(3, [1]), -HUGE),
         FullTwists(BraidWord(HUGE, [1]), 1)],
        ids=repr,
    )
    def test_oversized_word_is_refused_before_it_is_built(self, spec):
        with pytest.raises(ValueError, match="more than 10000000"):
            generate(spec)

    def test_zero_twists_build_no_twist(self):
        base = BraidWord(HUGE, [1])
        assert generate(FullTwists(base, 0)) == base
