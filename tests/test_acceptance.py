"""End-to-end checks: each test prints one ACCEPTANCE PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; budgets
with stated wall-clock limits are asserted with time.perf_counter.
"""

import itertools
import random
import time
from fractions import Fraction

from braidtwist import (
    BraidWord,
    OrderSign,
    compare,
    garside_delta,
    handle_reduce,
    order_sign,
    permutation,
)
from braidtwist.braid import closure_components, exponent_counts
from braidtwist.families import BTtau, Ktd, Torus, generate
from braidtwist.fdtc import dehornoy_floor, fdtc_exact
from braidtwist.genus_bounds import audit_bounds, tau_s_bounds
from braidtwist.murasugi import Class1, Class2, Class3, cross_check
from braidtwist.quasipositive import (
    Syllable,
    SyllableWord,
    qp_bt_check,
    qp_report,
)
from oracles import g4_torus_difference, make_positive, positive_braid_genus


def random_word(rng, n, length):
    gens = [g for g in range(-(n - 1), n) if g]
    return BraidWord(n, [rng.choice(gens) for _ in range(length)])


def random_knot_word(rng, n, max_len):
    while True:
        w = random_word(rng, n, rng.randint(1, max_len))
        if closure_components(w) == 1:
            return w


def test_criterion_01_family_floor_grid():
    start = time.perf_counter()
    checked = 0
    for m in range(7):
        for k in range(1, 11):
            w = generate(Ktd(m, k))
            assert dehornoy_floor(w) == m, (m, k)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(
        f"\nACCEPTANCE PASS: criterion 1 — floor equals m on the {checked}-word "
        f"family grid ({elapsed:.2f}s)"
    )


def test_criterion_02_exact_fdtc_closed_forms():
    start = time.perf_counter()
    for p, q in ((3, 2), (3, 4), (3, 5), (4, 3), (5, 2)):
        got = fdtc_exact(generate(Torus(p, q))).value
        assert got == Fraction(q, p), (p, q, got)
    for letters, want in (
        ([-1, -2], Fraction(-1, 3)),
        ([-1, -1, -2], Fraction(-1, 2)),
        ([-1, -1, -1, -2], Fraction(-2, 3)),
    ):
        got = fdtc_exact(BraidWord(3, letters)).value
        assert got == want, (letters, got)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(
        f"\nACCEPTANCE PASS: criterion 2 — torus and negative 3-braid twist "
        f"coefficients match closed forms ({elapsed:.2f}s)"
    )


def test_criterion_03_murasugi_cross_check_grid():
    start = time.perf_counter()
    forms = []
    # Every tuple from {1, 2, 3} of length 1 to 3, then (4,).
    a_tuples = [
        a for length in (1, 2, 3) for a in itertools.product((1, 2, 3), repeat=length)
    ] + [(4,)]
    for d in range(-2, 3):
        forms.extend(Class1(d, a) for a in a_tuples)
        forms.extend(Class2(d, m) for m in range(-6, 7) if m != 0)
        forms.extend(Class3(d, m) for m in (-1, -2, -3))
    assert len(forms) == 275
    for form in forms:
        assert cross_check(form), form
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"\nACCEPTANCE PASS: criterion 3 — engine agrees with the 3-braid "
        f"closed form on {len(forms)} normal forms ({elapsed:.2f}s)"
    )


def test_criterion_04_balanced_family_windows():
    start = time.perf_counter()
    for k in (1, 2, 3):
        w = generate(BTtau(k))
        bt = fdtc_exact(w).value
        assert k - 1 <= bt <= k, (k, bt)
        b = tau_s_bounds(w)
        assert b["tau"] == (-1, 1), k
        assert b["s"] == (-2, 2), k
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(
        f"\nACCEPTANCE PASS: criterion 4 — twist lies in [k-1, k] with "
        f"tau in [-1,1] and s in [-2,2] for k=1,2,3 ({elapsed:.2f}s)"
    )


def test_criterion_05_positive_resolution_asymptotics():
    rng = random.Random(101)
    checked = 0
    for _ in range(10):
        m = rng.choice((3, 4))
        beta = random_knot_word(rng, m, 8)
        k, l, _ = exponent_counts(beta)
        for t in range(l, l + 4):
            pos = make_positive(beta, t)
            want = Fraction(k + (m - 1) * m * t - l - m + 1, 2)
            assert positive_braid_genus(pos) == want, (beta, t)
            checked += 1
    print(
        f"\nACCEPTANCE PASS: criterion 5 — positive resolutions hit the "
        f"genus asymptotic on {checked} (base, twist) pairs"
    )


def test_criterion_06_fdtc_property_suite():
    rng = random.Random(103)
    delta2 = {n: garside_delta(n, squared=True) for n in (3, 4)}
    instances = 0
    for _ in range(60):
        n = rng.choice((3, 4))
        a = random_word(rng, n, rng.randint(1, 10))
        b = random_word(rng, n, rng.randint(1, 10))
        c = random_word(rng, n, rng.randint(1, 10))
        bt_a = fdtc_exact(a).value
        bt_b = fdtc_exact(b).value
        defect = fdtc_exact(a * b).value - bt_a - bt_b
        assert abs(defect) <= 1, (a, b, defect)
        instances += 1
        j = rng.randint(2, 3)
        assert fdtc_exact(a ** j).value == j * bt_a, (a, j)
        instances += 1
        assert fdtc_exact(delta2[n] * a).value == bt_a + 1, a
        instances += 1
        assert fdtc_exact(a.conjugate_by(c)).value == bt_a, (a, c)
        instances += 1
    assert instances >= 200
    print(
        f"\nACCEPTANCE PASS: criterion 6 — quasimorphism, homogeneity, "
        f"full-twist shift and conjugacy invariance on {instances} instances"
    )


def test_criterion_07_order_axioms():
    rng = random.Random(107)
    comparisons = 0
    opposite = {
        OrderSign.LESS: OrderSign.GREATER,
        OrderSign.EQUAL: OrderSign.EQUAL,
        OrderSign.GREATER: OrderSign.LESS,
    }
    rank = {OrderSign.LESS: -1, OrderSign.EQUAL: 0, OrderSign.GREATER: 1}
    for _ in range(130):
        n = rng.choice((3, 4, 5))
        a = random_word(rng, n, rng.randint(0, 10))
        b = random_word(rng, n, rng.randint(0, 10))
        c = random_word(rng, n, rng.randint(0, 10))
        ab = compare(a, b)
        assert compare(b, a) is opposite[ab]
        assert compare(c * a, c * b) is ab
        bc = compare(b, c)
        ac = compare(a, c)
        comparisons += 4
        if rank[ab] <= 0 and rank[bc] <= 0:
            assert rank[ac] <= 0, (a, b, c)
        if rank[ab] >= 0 and rank[bc] >= 0:
            assert rank[ac] >= 0, (a, b, c)
    for _ in range(30):
        n = rng.choice((3, 4, 5))
        w = BraidWord(n, [rng.randint(1, n - 1) for _ in range(rng.randint(1, 12))])
        assert order_sign(w) is OrderSign.GREATER
        comparisons += 1
        out = handle_reduce(w)
        assert exponent_counts(out)[2] == exponent_counts(w)[2]
        assert permutation(out) == permutation(w)
    assert comparisons >= 500
    print(
        f"\nACCEPTANCE PASS: criterion 7 — order axioms hold over "
        f"{comparisons} comparisons with verified reductions"
    )


def test_criterion_08_floor_sandwich():
    rng = random.Random(109)
    checked = 0
    for _ in range(210):
        n = rng.choice((3, 4))
        w = random_word(rng, n, rng.randint(0, 10))
        f = dehornoy_floor(w)
        bt = fdtc_exact(w).value
        assert f <= bt <= f + 1, (w, f, bt)
        checked += 1
    print(
        f"\nACCEPTANCE PASS: criterion 8 — floor <= BT <= floor+1 on "
        f"{checked} random words"
    )


def test_criterion_09_quasipositive_bounds():
    rng = random.Random(113)
    checked = 0
    for _ in range(120):
        n = rng.choice((3, 4))
        m = rng.randint(1, 4)
        gens = [g for g in range(-(n - 1), n) if g]
        syllables = tuple(
            Syllable(
                tuple(rng.choice(gens) for _ in range(rng.randint(0, 4))),
                rng.randint(1, n - 1),
                1,
            )
            for _ in range(m)
        )
        s = SyllableWord(n, syllables)
        assert qp_bt_check(s)[1], s
        r = qp_report(s)
        if r["closure_is_knot"]:
            bt = fdtc_exact(s.word).value
            assert bt <= 2 * r["g4"] + n - 2, s
        checked += 1
    assert checked >= 100
    print(
        f"\nACCEPTANCE PASS: criterion 9 — band-count and slice-genus twist "
        f"bounds hold on {checked} random quasipositive words"
    )


def test_criterion_10_slice_difference_and_audit():
    for m in (2, 4, 6, 8, 10):
        assert g4_torus_difference(m, 5 * m // 2) == Fraction(m, 2), m
    for m in (2, 4):
        w = generate(Ktd(m, 5 * m // 2))
        record = audit_bounds(w, g4_upper=Fraction(m, 2) + 1)
        (entry,) = record["predicates"]
        assert entry["predicate"] == "question15"
        assert entry["status"] == "pass", (m, entry)
        assert record["floor"] == m
    print(
        "\nACCEPTANCE PASS: criterion 10 — slice difference equals m/2 and "
        "the twist bound audit passes on the witness family"
    )


def test_criterion_11_performance_smoke(check_fdtc_certificate):
    rng = random.Random(127)
    a = random_word(rng, 10, 1000)
    b = random_word(rng, 10, 1000)
    start = time.perf_counter()
    compare(a, b)
    compare_time = time.perf_counter() - start
    assert compare_time < 2, compare_time

    w = random_word(rng, 3, 30)
    start = time.perf_counter()
    r = fdtc_exact(w)
    fdtc_time = time.perf_counter() - start
    assert fdtc_time < 30, fdtc_time
    check_fdtc_certificate(w, r.value, r.power_used, r.floor_of_power, *r.interval)
    print(
        f"\nACCEPTANCE PASS: criterion 11 — 1000-letter comparison in "
        f"{compare_time:.3f}s, 30-letter exact twist in {fdtc_time:.3f}s"
    )
