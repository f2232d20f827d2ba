import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidtwist.cli as cli
import braidtwist.fdtc as fdtc
import braidtwist.dynnikov as dynnikov
import braidtwist.ordering as ordering
from braidtwist import BraidWord, OrderSign, ReductionCapError, compare, garside_delta
from braidtwist.braid import free_reduce
from braidtwist.fdtc import (
    FLOOR_CONVENTION,
    _full_twists,
    _power_sign,
    _PowerSearch,
    dehornoy_floor,
    fdtc_exact,
)
from oracles import destab_bounds, syntactic_sigma_class, word_sign_bounds


def random_word(rng, n, length):
    gens = [g for g in range(-(n - 1), n) if g]
    return BraidWord(n, [rng.choice(gens) for _ in range(length)])


def at_least(search, P, t, *, cap=None):
    """Whether Delta^(2t) <= w^P, by one certificate compare."""
    return _power_sign(search, P, t, cap=cap) is not OrderSign.LESS


def fdtc_interval(w, N, *, cap=None):
    """The fixed-power oracle: the closed interval of width 1/N holding
    BT(w).  Floors sandwich BT (floor <= BT <= floor + 1) and BT is
    homogeneous, so the floor of w^N pins BT(w) between [w^N]_D / N and
    ([w^N]_D + 1) / N."""
    if N < 1:
        raise ValueError(f"power must be positive, got {N}")
    f = dehornoy_floor(free_reduce(w**N), cap=cap)
    return Fraction(f, N), Fraction(f + 1, N)


def _unique_rational(f, P, n):
    """(p, q) if [f/P, (f+1)/P] holds exactly one reduced p/q with
    1 <= q <= n, else None, by listing every candidate."""
    found = None
    for q in range(1, n + 1):
        for p in range(-(-f * q // P), (f + 1) * q // P + 1):
            if math.gcd(p, q) == 1:
                if found is not None:
                    return None
                found = (p, q)
    return found


def recording_claims(monkeypatch):
    """Record the (power, twists) of every certificate compare fdtc_exact makes."""
    claims = []

    def recording(search, P, t, *, cap=None):
        claims.append((P, t))
        return _power_sign(search, P, t, cap=cap)

    monkeypatch.setattr(fdtc, "_power_sign", recording)
    return claims


def recording_probes(monkeypatch):
    """Record the (a, b) and the sign of every Dynnikov probe."""
    probes, probe = [], _PowerSearch._probe

    def recording(search, a, b):
        probes.append((a, b, probe(search, a, b)))
        return probes[-1][2]

    monkeypatch.setattr(_PowerSearch, "_probe", recording)
    return probes


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
            floor = dehornoy_floor(power)
            for t in range(floor - 3, floor + 4):
                twisted = search.twisted_power(P, t)
                assert compare(twisted, delta2 ** (-t) * power) is OrderSign.EQUAL
                assert at_least(search, P, t) == (compare(power, delta2**t) is not OrderSign.LESS)
        # Larger powers against the Dynnikov engine: long runs (t = 1 and
        # P - 1), non-coprime pairs, and both sides of the floor.
        for P in (8, 32):
            power = free_reduce(w**P)
            (floor, _), _ = _PowerSearch(power).descend(1)
            for t in {1, P - 1, 2, P // 2, P - 2, floor, floor + 1}:
                target = delta2 ** (-t) * power
                twisted = search.twisted_power(P, t)
                assert dynnikov.order_sign(twisted.inverse() * target) is OrderSign.EQUAL
                assert at_least(search, P, t) == (dynnikov.order_sign(target) is not OrderSign.LESS)

    def test_core_is_the_balanced_arrangement(self):
        """The core of Delta^(-2t) w^P is the kept blocks B(k_1) ... B(k_P),
        B(k) = Delta^(-2k) u and k_j = floor(j t / P) - floor((j - 1) t / P):
        the Christoffel word of slope t/P, with each copy of u carrying its
        share of the twists."""
        search = _PowerSearch(BraidWord(3, [2, 1, -2]))  # c = [2], u = [1]
        for P, t in self.CLAIMS:
            word = search.twisted_power(P, t)
            ks = [j * t // P - (j - 1) * t // P for j in range(1, P + 1)]
            assert sum(ks) == t and set(ks) <= {t // P, t // P + 1}
            want = itertools.chain.from_iterable(search._blocks[k] for k in ks)
            assert word.letters == (2, *want, -2)

    def test_each_block_is_reduced_once_and_kept(self, monkeypatch):
        """Each kept block B(k) comes from one handle_reduce call per search,
        of Delta^(-2k) u as written, and is the same braid as it, empty or
        sigma-definite; the words built from the blocks are the braids
        Delta^(-2t) w^P."""
        reductions = []
        reduce = ordering.handle_reduce

        def counting(w, *, cap=None):
            reductions.append(w.letters)
            return reduce(w, cap=cap)

        monkeypatch.setattr(ordering, "handle_reduce", counting)
        u = BraidWord(4, [1, 2, 3, 3, -2])
        search = _PowerSearch(u.conjugate_by(BraidWord(4, [2, -3])))  # c = [2, -3]
        twist, untwist = _full_twists(4)
        words = {(P, t): search.twisted_power(P, t) for P, t in self.CLAIMS}
        assert sorted(search._blocks) == [-1, 0, 1, 5]
        assert sorted(reductions) == sorted(
            (untwist if k > 0 else twist) * abs(k) + u.letters for k in search._blocks
        )
        monkeypatch.setattr(ordering, "handle_reduce", reduce)
        delta2 = garside_delta(4, squared=True)
        for k, letters in search._blocks.items():
            kept = BraidWord(4, letters)
            assert compare(kept, delta2 ** (-k) * u) is OrderSign.EQUAL
            assert not kept.letters or syntactic_sigma_class(kept) is not None
        for (P, t), word in words.items():
            assert compare(word.conjugate_by(BraidWord(4, [3, -2])), delta2 ** (-t) * u**P) is OrderSign.EQUAL

    def test_cap_bounds_each_block_reduction(self):
        """A cap below the steps one block's reduction takes raises, even
        though the comparison that needs the block would fit under it."""
        w = BraidWord(4, [3, 2, 1, 1])  # c empty, u = w
        block = BraidWord(4, _full_twists(4)[1] + w.letters)
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
                (floor, _), _ = _PowerSearch(free_reduce(w**Q)).descend(1)
                for s in (floor, floor + 1):
                    t = s << j
                    oracle = compare(power, delta2**t) is not OrderSign.LESS
                    assert at_least(search, P, t) == at_least(search, Q, t >> j) == oracle


class TestStepBudget:
    """Deterministic guard on reduction cost: steps, not seconds.

    Both words have BT = 1 and floor 8 at power 8.  With the 9 inverse
    full twists all in front of w^8, the compare Delta^18 against w^8
    takes 1,798 (B_4) and 1,916 (B_5) handle reductions; the largest
    single reduction of a whole fdtc_exact run, whose compares are at
    powers up to 2n - 1 with the twists spread through the power, takes
    68 and 45.
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


class TestLetterBudget:
    """The full twist on 10^18 strands is refused before it is built."""

    @pytest.mark.parametrize("compute", [dehornoy_floor, fdtc_exact], ids=("floor", "fdtc"))
    def test_oversized_strand_count_is_refused(self, compute):
        with pytest.raises(ValueError, match="on 1000000000000000000 strands"):
            compute(BraidWord(10**18, [1]))


class TestDehornoyFloor:
    def test_single_generator(self):
        assert dehornoy_floor(BraidWord(3, [1])) == 0

    def test_identity(self):
        assert dehornoy_floor(BraidWord(3, [])) == 0

    def test_full_twist(self):
        delta2 = garside_delta(3, squared=True)
        assert dehornoy_floor(delta2) == 1
        assert dehornoy_floor(delta2.inverse()) == -1

    def test_family_members(self):
        for m, k in ((0, 1), (1, 2), (2, 5), (3, 1)):
            w = BraidWord(3, [2, 1] * (3 * m + 1) + [-2] * (2 * k))
            assert dehornoy_floor(w) == m

    def test_convention_recorded(self, capsys):
        assert cli.run(["floor", "--strands", "3", "--json", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["convention"] == FLOOR_CONVENTION

    def test_central_shift(self):
        rng = random.Random(17)
        delta2 = garside_delta(3, squared=True)
        for _ in range(8):
            beta = random_word(rng, 3, 7)
            c = rng.randint(-3, 3)
            shifted = (delta2 ** c) * beta
            assert dehornoy_floor(shifted) == c + dehornoy_floor(beta)

    @given(small_words())
    @settings(max_examples=25, deadline=None)
    def test_fdtc_exact_reports_the_same_floor(self, w):
        assert fdtc_exact(w).floor == dehornoy_floor(w)

    def test_runaway_floor_walk_raises(self, monkeypatch):
        """A descent whose walk never turns stops at 2 len(w) + 1 with
        RuntimeError: its last probe is +-(2 len(w) + 1)/1."""
        w = BraidWord(3, [1, 2])
        for sign in (1, -1):
            probes = []
            monkeypatch.setattr(
                _PowerSearch, "_probe",
                lambda self, a, b, sign=sign, probes=probes: probes.append((a, b)) or sign,
            )
            with pytest.raises(RuntimeError, match="walk"):
                dehornoy_floor(w)
            assert probes[-1] == (sign * (2 * len(w) + 1), 1)

    def test_floor_makes_two_compares(self, monkeypatch):
        """The Dynnikov search finds the floor; handle reduction only certifies it."""
        calls = []

        order_sign = ordering.order_sign

        def counting(w, *, cap=None):
            calls.append(w)
            return order_sign(w, cap=cap)

        monkeypatch.setattr(ordering, "order_sign", counting)
        for w in FLIP_WORDS:
            calls.clear()
            dehornoy_floor(w)
            assert len(calls) == 2

    @given(small_words() | periodic_words().map(lambda case: case[0]))
    @settings(max_examples=40, deadline=None)
    def test_floor_probes_begin_the_fdtc_probes(self, w):
        """One descent serves both: the floor stops it at denominator 1,
        and fdtc_exact goes on from there."""
        with pytest.MonkeyPatch.context() as patch:
            probes = recording_probes(patch)
            dehornoy_floor(w)
            floor_probes = probes[:]
            probes.clear()
            fdtc_exact(w)
        assert floor_probes and probes[: len(floor_probes)] == floor_probes

    @given(periodic_words().filter(lambda case: case[1].denominator == 1))
    @settings(max_examples=30, deadline=None)
    def test_central_power_stops_the_descent(self, case):
        """For a conjugated Delta^(2j) the descent of either function stops
        at the probe of j/1, the only one that reads 0, and the floor still
        makes its two compares, Delta^(2j) <= w and w < Delta^(2j + 2)."""
        w, j = case[0], int(case[1])
        with pytest.MonkeyPatch.context() as patch:
            probes, claims = recording_probes(patch), recording_claims(patch)
            for function in (dehornoy_floor, fdtc_exact):
                probes.clear()
                function(w)
                assert probes[-1] == (j, 1, 0) and all(sign for *_, sign in probes[:-1])
            claims.clear()
            assert dehornoy_floor(w) == j
            assert claims == [(1, j), (1, j + 1)]


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
        with pytest.raises(ValueError, match="power must be positive"):
            fdtc_interval(BraidWord(3, [1]), 0)


class TestIsolatingPower:
    def test_neighbours_match_the_listing(self):
        """The power read off the F_n neighbours of p/q is the first power
        of two P >= 2 at which listing every rational with denominator
        <= n in [f/P, (f+1)/P] finds p/q alone, for every reduced p/q with
        |p| <= 3q, n = 2..8 and both statements of the winner."""
        for n in range(2, 9):
            for q in range(1, n + 1):
                for p in range(-3 * q, 3 * q + 1):
                    if math.gcd(p, q) != 1:
                        continue
                    for below in (True, False):
                        P = 2
                        while (found := _unique_rational(
                            fdtc._floor_of_power(P, p, q, below), P, n
                        )) is None:
                            P *= 2
                        assert found == (p, q)
                        assert fdtc._isolating_power(p, q, n, below) == P


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
            floor = dehornoy_floor(free_reduce(w**P))
            doubled = dehornoy_floor(free_reduce(w ** (2 * P)))
            assert doubled - 2 * floor in (0, 1)

    def test_two_certificate_compares(self, monkeypatch):
        """A word that is not periodic makes exactly two compares: its
        value p/q at power q <= n, then the last mediant a/b of the search
        at n < b <= 2n - 1, a Farey neighbour pair (|p b - q a| = 1).  The
        floor of w needs no compare of its own."""
        claims = recording_claims(monkeypatch)
        for w in FLIP_WORDS:
            if w in PERIODIC_WORDS:
                continue
            claims.clear()
            r = fdtc_exact(w)
            n = w.strands
            assert len(claims) == 2
            (q, p), (b, a) = claims
            assert Fraction(p, q) == r.value and q <= n < b <= 2 * n - 1
            assert abs(p * b - q * a) == 1
            assert r.floor == r.floor_of_power // r.power_used
        cases = (
            (BraidWord(4, [2, 1, 2, 2, 2, 1, 3]), [(2, 1), (5, 3)]),  # 1/2, from below 3/5
            (BraidWord(3, [2, 1] * 7 + [-2] * 6), [(1, 2), (4, 9)]),  # 2, from below 9/4
            (BraidWord(4, [1, 2, 3] * 5 + [-3, 1, -2]), [(1, 1), (5, 6)]),  # 1
            (BraidWord(5, [2, 1, 3, 4, 4, 2]), [(3, 1), (7, 2)]),  # 1/3, from above 2/7
        )
        for w, want in cases:
            claims.clear()
            fdtc_exact(w)
            assert claims == want

    def test_periodic_words_make_one_equal_compare(self, monkeypatch):
        """w^q = Delta^(2p) is certified by one handle reduction, of
        Delta^(-2p) w^q at the value p/q, that compares EQUAL."""
        claims, signs = recording_claims(monkeypatch), []
        order_sign = ordering.order_sign

        def recording_sign(w, *, cap=None):
            signs.append(order_sign(w, cap=cap))
            return signs[-1]

        monkeypatch.setattr(ordering, "order_sign", recording_sign)
        for w in PERIODIC_WORDS:
            claims.clear()
            signs.clear()
            r = fdtc_exact(w)
            assert signs == [OrderSign.EQUAL]
            (q, p), = claims
            assert Fraction(p, q) == r.value and q <= w.strands
            assert r.floor == r.floor_of_power // r.power_used

    @given(periodic_words())
    @settings(max_examples=40, deadline=None)
    def test_periodic_path_matches_the_two_sided_path(self, case):
        """Every field for a conjugated delta^j, epsilon^j or Delta^(2j)
        equals the one from the two-sided certificate, reached with the
        equality shortcut switched off (a probe that reads 0 is taken as
        +1), and the value is the closed form."""
        w, want = case
        with pytest.MonkeyPatch.context() as patch:
            claims = recording_claims(patch)
            r = fdtc_exact(w)
            assert len(claims) == 1
        probe = _PowerSearch._probe
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_PowerSearch, "_probe", lambda self, a, b: probe(self, a, b) or 1)
            claims = recording_claims(patch)
            assert fdtc_exact(w) == r
            assert len(claims) == 2
        assert r.value == want

    def test_false_central_power_raises(self, monkeypatch):
        """A probe forced to read 0 (w^b = Delta^(2a)) in the descent of a
        word that is not periodic, or a true hit reported with its twists
        shifted, fails its handle reduction."""
        probe, descend = _PowerSearch._probe, _PowerSearch.descend

        def forcing(k):
            calls = []

            def forced(self, a, b):
                calls.append(b)
                return 0 if len(calls) - 1 == k else probe(self, a, b)

            return forced

        for w in FLIP_WORDS:
            if w in PERIODIC_WORDS:
                continue
            seen = []
            monkeypatch.setattr(_PowerSearch, "_probe", lambda self, a, b: seen.append(b) or probe(self, a, b))
            fdtc_exact(w)
            assert seen
            for k in range(len(seen)):
                monkeypatch.setattr(_PowerSearch, "_probe", forcing(k))
                with pytest.raises(RuntimeError):
                    fdtc_exact(w)
        monkeypatch.setattr(_PowerSearch, "_probe", probe)
        for shift in (-1, 1):
            def shifted(self, limit, shift=shift):
                lo, hi = descend(self, limit)
                return (lo, hi) if lo != hi else ((lo[0] + shift, lo[1]),) * 2

            monkeypatch.setattr(_PowerSearch, "descend", shifted)
            for w in PERIODIC_WORDS:
                with pytest.raises(RuntimeError):
                    fdtc_exact(w)

    def test_mediant_must_be_a_farey_neighbour(self, monkeypatch):
        """A last mediant that does not isolate the winner p/q among the
        rationals with denominator <= n raises before any value, although
        both compares would hold: the ends doubled make the mediant
        (2a, 2b), the statement of (a, b) but with |p 2b - q 2a| = 2, and a
        descent cut off at n // 2 leaves a mediant of denominator <= n."""
        descend = _PowerSearch.descend
        moves = (
            lambda self, limit: tuple((2 * a, 2 * b) for a, b in descend(self, limit)),
            lambda self, limit: descend(self, limit // 2),
        )
        for move in moves:
            monkeypatch.setattr(_PowerSearch, "descend", move)
            for w in FLIP_WORDS:
                if w in PERIODIC_WORDS:
                    continue
                with pytest.raises(RuntimeError, match="isolate"):
                    fdtc_exact(w)

    def test_wrong_search_floor_raises(self, monkeypatch):
        """A descent whose interval is shifted by +-1, and so whose floor is
        wrong, never comes back as a value from either function."""
        descend = _PowerSearch.descend
        for w in FLIP_WORDS:
            for shift in (-1, 1):
                monkeypatch.setattr(
                    _PowerSearch,
                    "descend",
                    lambda self, limit, shift=shift: tuple(
                        (a + shift * b, b) for a, b in descend(self, limit)
                    ),
                )
                for function in (fdtc_exact, dehornoy_floor):
                    with pytest.raises(RuntimeError):
                        function(w)

    def test_step_cap_resolved_once_before_the_search(self, monkeypatch):
        """cap is validated before any search work, and the default cap is
        resolved once per call, not once per reduction."""
        def no_search(w):
            raise AssertionError("searched with an invalid cap")

        with monkeypatch.context() as patch:
            patch.setattr(fdtc, "_PowerSearch", no_search)
            for function in (fdtc_exact, dehornoy_floor):
                with pytest.raises(ValueError, match="step cap must be nonnegative"):
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
        """One wrong answer, Dynnikov probe or certificate compare, must
        never yield a value from fdtc_exact or dehornoy_floor: each is
        flipped in turn (a probe that reads >= 0 then reads -1)."""
        probe, order_sign = fdtc._PowerSearch._probe, ordering.order_sign

        def flipping(original, flip, k, seen):
            def wrapper(*args, **kwargs):
                answer = original(*args, **kwargs)
                seen.append(answer)
                return flip(answer) if len(seen) - 1 == k else answer

            return wrapper

        def flip_sign(sign):
            return OrderSign.GREATER if sign is OrderSign.LESS else OrderSign.LESS

        targets = (
            (fdtc._PowerSearch, "_probe", probe, lambda sign: -1 if sign >= 0 else 1),
            (ordering, "order_sign", order_sign, flip_sign),
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
        for _ in range(30):
            w = random_word(rng, rng.choice((3, 4)), 6)
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
        rng = random.Random(39)
        words = [BraidWord(3, letters) for letters in ([1, 1, 2], [1, -2], [1, 1, 1, 2], [-1, -2])]
        for _ in range(30):
            n = rng.choice((3, 4))
            w = random_word(rng, n - 1, rng.randint(0, 6))  # the top generator goes in once
            top = rng.choice((n - 1, 1 - n))
            words.append(BraidWord(n, w.letters + (top,) + random_word(rng, n - 1, 3).letters))
        checked = 0
        for w in words:
            bounds = destab_bounds(w)
            if bounds is None:
                continue
            lo, hi = bounds
            assert lo <= fdtc_exact(w).value <= hi, w
            checked += 1
        assert checked >= 30
