import ast
import hashlib
import pathlib
import random

import pytest
from hypothesis import given, settings

import braidtwist
import braidtwist.dynnikov as dynnikov
import braidtwist.ordering as ordering
from braidtwist import (
    BraidWord,
    OrderSign,
    ReductionCapError,
    compare,
    garside_delta,
    handle_reduce,
    order_sign,
    permutation,
)
from braidtwist.braid import _free_reduce_letters, exponent_counts
from braidtwist.fdtc import fdtc_exact
from braidtwist.ordering import DEFAULT_STEP_CAP
from oracles import random_word, syntactic_sigma_class, words


class TestSigmaClass:
    def test_negative_main_generator(self):
        assert ordering._definite(BraidWord(3, [-1, 2]).letters) is True

    def test_positive_main_generator(self):
        assert ordering._definite(BraidWord(3, [1, 1, 2, -2]).letters) is True

    def test_mixed_lowest_index(self):
        assert ordering._definite(BraidWord(3, [1, -1]).letters) is False

    def test_empty(self):
        assert ordering._definite(BraidWord(3, []).letters) is True

    def test_only_the_lowest_index_counts(self):
        assert ordering._definite(BraidWord(4, [2, 3, -3]).letters) is True
        assert ordering._definite(BraidWord(4, [3, 2, -2]).letters) is False


class TestHandleReduce:
    def test_braid_relation_step(self):
        out = handle_reduce(BraidWord(3, [1, 2, -1]))
        assert out.letters == (-2, 1, 2)

    def test_free_cancellation(self):
        assert handle_reduce(BraidWord(3, [1, -1])).letters == ()

    def test_commutator_is_sigma_negative(self):
        out = handle_reduce(BraidWord(3, [-1, -2, 1, 2]))
        index, sign = syntactic_sigma_class(out)
        assert (index, sign) == (1, -1)

    @given(words(max_len=10))
    @settings(max_examples=80, deadline=None)
    def test_result_is_sigma_definite_or_empty(self, w):
        out = handle_reduce(w)
        if len(out) == 0:
            return
        assert syntactic_sigma_class(out) is not None

    @given(words(max_len=10))
    @settings(max_examples=80, deadline=None)
    def test_preserves_exponent_sum_and_permutation(self, w):
        out = handle_reduce(w)
        assert exponent_counts(out)[2] == exponent_counts(w)[2]
        assert permutation(out) == permutation(w)

    def test_at_most_one_sweep_and_one_classification_each(self, monkeypatch):
        """A reduction sweeps once, or not at all when the freely reduced
        word is already empty or sigma-definite, and classifies the freely
        reduced word and, after a sweep, the swept word, each once;
        order_sign classifies nothing more."""
        sweeps, classified = [], []
        scan, definite = ordering._scan_once, ordering._definite
        monkeypatch.setattr(ordering, "_scan_once", lambda *args: sweeps.append(args[0]) or scan(*args))
        monkeypatch.setattr(ordering, "_definite", lambda word: classified.append(word) or definite(word))
        rng = random.Random(41)
        for _ in range(60):
            w = random_word(rng, rng.randint(2, 6), rng.randint(0, 30))
            sweeps.clear()
            classified.clear()
            order_sign(w)
            free = _free_reduce_letters(w.letters)
            if definite(free):
                assert sweeps == [] and classified == [free]
            else:
                assert len(sweeps) == 1 and len(classified) == 2

    def test_unfinished_sweep_raises(self, monkeypatch):
        """A swept word that is neither empty nor sigma-definite never
        leaves handle_reduce."""
        monkeypatch.setattr(ordering, "_scan_once", lambda letters, cap: (letters, 0))
        with pytest.raises(RuntimeError, match="sigma-definite"):
            handle_reduce(BraidWord(3, [1, 2, -1]))
        assert handle_reduce(BraidWord(3, [1, -2])).letters == (1, -2)

    def test_letter_beyond_the_strands_raises(self, monkeypatch):
        """A reduction that writes index n on n strands raises at the
        strand check, before the verify checks see it."""
        monkeypatch.setattr(ordering, "_reduce_core", lambda letters, cap: [3])
        with pytest.raises(RuntimeError, match="beyond the strands"):
            handle_reduce(BraidWord(3, [2]))

    def test_verify_traces_only_the_strands_the_words_move(self, monkeypatch):
        """The verify check traces the strands the words move, not the
        strand count, and still sees a changed permutation high up."""
        traced = []
        trace = ordering._moved

        def spy(letters):
            traced.append(trace(letters))
            return traced[-1]

        monkeypatch.setattr(ordering, "_moved", spy)
        handle_reduce(BraidWord(200, [1, 2, -1]))
        assert traced == [{1: 3, 3: 1}, {1: 3, 3: 1}]
        monkeypatch.setattr(ordering, "_reduce_core", lambda letters, cap: [10**9 + 1])
        with pytest.raises(RuntimeError, match="permutation"):
            handle_reduce(BraidWord(10**12, [10**9]))
        assert traced[-2:] == [{10**9: 10**9 + 1, 10**9 + 1: 10**9},
                               {10**9 + 1: 10**9 + 2, 10**9 + 2: 10**9 + 1}]


class TestSweep:
    DIGEST = "31e6a658c873bcdea7443ab4ad0765e67b24e784810c7640a012a5b8cf29b3a4"

    @staticmethod
    def sweep_words():
        """504 seeded words in B_3 to B_10: mixed words of up to 40 letters,
        and every third one Delta^-2 followed by up to 12 positive letters."""
        rng = random.Random(2008)
        for i in range(504):
            n = 3 + i % 8
            gens = [g for g in range(1 - n, n) if g]
            letters = rng.choices(gens, k=rng.randint(0, 40))
            if i % 3 == 2:
                untwist = garside_delta(n, squared=True).inverse().letters
                letters = [*untwist, *rng.choices(range(1, n), k=rng.randint(1, 12))]
            yield _free_reduce_letters(letters)

    def test_sweep_is_pinned(self):
        """One sweep of each word gives the same letters and reductions as
        the sweep before the persistent stack.  DIGEST is the sha256 of
        repr([(tuple(letters), reductions, steps), ...]) over sweep_words(),
        captured from that earlier sweep, which copied the stack entries
        each push displaced into a tuple per letter and counted steps
        apart from reductions; the two counts were always equal."""
        records = []
        for letters in self.sweep_words():
            out, reductions = ordering._scan_once(letters, DEFAULT_STEP_CAP)
            records.append((tuple(out), reductions, reductions))
        assert sum(r for _, r, _ in records) == 2301
        assert hashlib.sha256(repr(records).encode()).hexdigest() == self.DIGEST

    def test_sweep_and_reduction_keep_the_braid(self):
        """One sweep of each word, and handle_reduce of it, give the
        Dynnikov coordinates of the input: the action is faithful, so both
        outputs are words for the input braid."""
        for letters in self.sweep_words():
            n = max(map(abs, letters), default=1) + 1
            coordinates = dynnikov.act(dynnikov.start(n), letters)
            swept = ordering._scan_once(letters, DEFAULT_STEP_CAP)[0]
            reduced = handle_reduce(BraidWord(n, letters)).letters
            for out in (swept, reduced):
                assert dynnikov.act(dynnikov.start(n), out) == coordinates


class TestOrderSign:
    def test_positive_words_are_greater(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.choice((3, 4, 5))
            length = rng.randint(1, 10)
            w = BraidWord(n, [rng.randint(1, n - 1) for _ in range(length)])
            assert order_sign(w) is OrderSign.GREATER

    def test_empty_is_equal(self):
        assert order_sign(BraidWord(4, [])) is OrderSign.EQUAL

    def test_sigma_negative_word(self):
        assert order_sign(BraidWord(3, [-1, 2])) is OrderSign.LESS

    def test_machine_tokens(self):
        assert OrderSign.LESS.value == "LT"
        assert OrderSign.EQUAL.value == "EQ"
        assert OrderSign.GREATER.value == "GT"

    @given(words(max_len=10))
    @settings(max_examples=60, deadline=None)
    def test_word_times_inverse_is_equal(self, w):
        assert order_sign(w * w.inverse()) is OrderSign.EQUAL

    @given(words(max_len=10))
    @settings(max_examples=60, deadline=None)
    def test_sign_flips_under_inverse(self, w):
        flips = {
            OrderSign.LESS: OrderSign.GREATER,
            OrderSign.EQUAL: OrderSign.EQUAL,
            OrderSign.GREATER: OrderSign.LESS,
        }
        assert order_sign(w.inverse()) is flips[order_sign(w)]


class TestCompare:
    def test_full_twist_beats_identity(self):
        delta2 = garside_delta(3, squared=True)
        assert compare(delta2, BraidWord(3, [])) is OrderSign.GREATER

    def test_generator_order(self):
        a = BraidWord(3, [1, 2])
        b = BraidWord(3, [2, 1])
        assert compare(a, b) is OrderSign.LESS
        assert compare(b, a) is OrderSign.GREATER

    def test_full_twist_is_central(self):
        rng = random.Random(5)
        for n in (3, 4):
            delta2 = garside_delta(n, squared=True)
            for _ in range(5):
                beta = random_word(rng, n, 8)
                assert compare(delta2 * beta, beta * delta2) is OrderSign.EQUAL

    def test_strand_mismatch(self):
        with pytest.raises(ValueError, match="strand counts differ"):
            compare(BraidWord(3, [1]), BraidWord(4, [1]))

    def test_left_invariance_sample(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.choice((3, 4))
            a, b, c = (random_word(rng, n, 6) for _ in range(3))
            assert compare(a, b) is compare(c * a, c * b)


class TestStepCap:
    def test_cap_error_is_a_domain_error_not_an_engine_fault(self):
        """A run over the step cap refuses the input, as a word over the
        letter budget is refused: a ValueError, never the RuntimeError
        that means an engine bug."""
        assert issubclass(ReductionCapError, ValueError)
        assert not issubclass(ReductionCapError, RuntimeError)
        with pytest.raises(ReductionCapError, match="exceeded the 2-step cap"):
            with pytest.raises(RuntimeError):
                fdtc_exact(BraidWord(3, [1, -2] * 8), cap=2)

    def test_kwarg_cap_raises(self):
        rng = random.Random(1)
        w = random_word(rng, 4, 40)
        with pytest.raises(ReductionCapError):
            handle_reduce(w, cap=1)

    def test_cap_admits_exactly_that_many_reductions(self):
        """A word whose sweep takes r handle reductions reduces under a cap
        of r and raises under r - 1."""
        w = random_word(random.Random(1), 4, 40)
        letters = _free_reduce_letters(w.letters)
        assert not ordering._definite(letters)  # the word needs a sweep
        r = ordering._scan_once(letters, DEFAULT_STEP_CAP)[1]
        assert r > 1
        handle_reduce(w, cap=r)
        with pytest.raises(ReductionCapError):
            handle_reduce(w, cap=r - 1)


def test_every_runtime_error_is_an_engine_bug():
    """The library holds no assert, which python -O would strip, and every
    RuntimeError it raises says "(engine bug)", so a caught RuntimeError
    is always an engine fault and never a refused input."""
    raises = 0
    for path in sorted(pathlib.Path(braidtwist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), f"assert in {path.name}:{node.lineno}"
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = ast.unparse(node.exc)
                if exc.startswith("RuntimeError"):
                    raises += 1
                    assert "(engine bug)" in exc, f"{path.name}:{node.lineno}"
    assert raises
