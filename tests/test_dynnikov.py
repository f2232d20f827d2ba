"""Differential tests: the Dynnikov engine against handle reduction."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from braidtwist import BraidWord, OrderSign, garside_delta, handle_reduce, order_sign
from braidtwist import dynnikov
from braidtwist.families import Ktd, generate


def random_word(rng, n, length):
    gens = [g for g in range(-(n - 1), n) if g]
    return BraidWord(n, [rng.choice(gens) for _ in range(length)])


def flip(w):
    """sigma_i -> sigma_(n-i), the automorphism conjugation by Delta induces."""
    return BraidWord(w.strands, [(w.strands - abs(g)) * (1 if g > 0 else -1) for g in w.letters])


def agree(w):
    assert dynnikov.order_sign(w) is order_sign(w), w


@st.composite
def sample_words(draw):
    """Mixed, positive, twist-shifted and disguised-identity words in B_2 to B_8."""
    n = draw(st.integers(2, 8))
    gens = [g for g in range(-(n - 1), n) if g]
    a = BraidWord(n, draw(st.lists(st.sampled_from(gens), max_size=14)))
    kind = draw(st.sampled_from(("mixed", "positive", "shifted", "identity")))
    if kind == "positive":
        return BraidWord(n, [abs(g) for g in a.letters])
    if kind == "shifted":
        return garside_delta(n, squared=True) ** draw(st.integers(-2, 2)) * a
    if kind == "identity":
        delta = garside_delta(n)
        return a * delta * flip(a).inverse() * delta.inverse()
    return a


class TestAgainstHandleReduction:
    @given(sample_words())
    @settings(max_examples=300, deadline=None)
    def test_same_sign(self, w):
        agree(w)

    @given(sample_words())
    @settings(max_examples=300, deadline=None)
    def test_reduction_keeps_the_coordinates(self, w):
        """The action is faithful, so equal coordinates prove that
        handle_reduce returned a word for the braid of w."""
        reduced = handle_reduce(w)
        assert dynnikov.act(dynnikov.start(w.strands), reduced.letters) == dynnikov.act(
            dynnikov.start(w.strands), w.letters
        )

    def test_floor_grid_probes(self):
        """Every Ktd(m, k) word of the criterion 1 grid against Delta^(2t), t near m."""
        delta2 = garside_delta(3, squared=True)
        for m in range(7):
            for k in range(1, 11):
                w = generate(Ktd(m, k))
                for t in (m - 1, m, m + 1):
                    agree(delta2 ** (-t) * w)

    def test_order_axiom_corpus(self):
        """The seeded words of criterion 7, as b^-1 a, (c b)^-1 c a and positive words."""
        rng = random.Random(107)
        for _ in range(130):
            n = rng.choice((3, 4, 5))
            a = random_word(rng, n, rng.randint(0, 10))
            b = random_word(rng, n, rng.randint(0, 10))
            c = random_word(rng, n, rng.randint(0, 10))
            for x, y in ((a, b), (b, c), (a, c), (c * a, c * b)):
                agree(y.inverse() * x)
        for _ in range(30):
            n = rng.choice((3, 4, 5))
            agree(BraidWord(n, [rng.randint(1, n - 1) for _ in range(rng.randint(1, 12))]))

    def test_floor_sandwich_corpus(self):
        """The seeded words of criteria 6 and 8 against Delta^(2t) for small t."""
        rng = random.Random(103)
        words = []
        for _ in range(60):
            n = rng.choice((3, 4))
            words += [random_word(rng, n, rng.randint(1, 10)) for _ in range(3)]
            rng.randint(2, 3)
        rng = random.Random(109)
        for _ in range(210):
            n = rng.choice((3, 4))
            words.append(random_word(rng, n, rng.randint(0, 10)))
        for w in words:
            delta2 = garside_delta(w.strands, squared=True)
            for t in range(-2, 3):
                agree(delta2 ** (-t) * w)


class TestCoordinates:
    def test_start(self):
        assert dynnikov.start(3) == [0, 1, 0, 1, 0, 1]
        assert dynnikov.sign(dynnikov.start(3)) == 0

    def test_sigma1_in_b3(self):
        # (a, b, a', b') = (0, 1, 0, 1): c = a - b- - a' + b'+ = 1, so
        # (a + b+ + (b'+ - c)+, b' - c+, a' + b'- + (b- + c)-, b + c+) = (1, 0, 0, 2)
        assert dynnikov.act(dynnikov.start(3), [1]) == [1, 0, 0, 2, 0, 1]

    def test_sigma1_inverse_in_b3(self):
        # d = a + b- - a' - b'+ = -1, so
        # (a - b+ - (b'+ + d)+, b' + d-, a' - b'- - (b- - d)-, b - d-) = (-1, 0, 0, 2)
        assert dynnikov.act(dynnikov.start(3), [-1]) == [-1, 0, 0, 2, 0, 1]

    def test_letter_then_inverse_returns_to_start(self):
        for g in (1, -1, 2, -2):
            assert dynnikov.act(dynnikov.start(3), [g, -g]) == dynnikov.start(3)

    def test_signs(self):
        assert dynnikov.order_sign(BraidWord(3, [1])) is OrderSign.GREATER
        assert dynnikov.order_sign(BraidWord(3, [-1])) is OrderSign.LESS
        assert dynnikov.order_sign(BraidWord(3, [2, -1])) is OrderSign.LESS
        assert dynnikov.order_sign(BraidWord(3, [])) is OrderSign.EQUAL
        assert dynnikov.order_sign(BraidWord(3, [1, 2, 1, -2, -1, -2])) is OrderSign.EQUAL
