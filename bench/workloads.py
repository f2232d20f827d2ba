"""The three seeded workloads: input generation, timed calls and oracles.

Each workload turns a seeded random.Random into a list of units (one
compare pair, one FDTC word, or one corpus file), times the library call
for a unit in a closed loop (the caller waits for each result), and
checks every output against an oracle computed without the engine.  The
library only ever sees the generated words or corpus files.
"""

from __future__ import annotations

import io
import json
import statistics
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path


class Op:
    """One library operation: its class, latency (None if it never returned) and output.

    The output is kept only until the oracle has run.  `rejected` is set
    for audit lines that returned a record, `heap_peak` (bytes) only while
    tracemalloc is tracing.
    """

    __slots__ = ("cls", "seconds", "value", "error", "ok", "known_defect", "rejected", "heap_peak")

    def __init__(self, cls: str, seconds, value=None, error: str | None = None, heap_peak=None) -> None:
        self.cls = cls
        self.seconds = seconds
        self.value = value
        self.error = error
        self.ok = False
        self.known_defect = False
        self.rejected = None
        self.heap_peak = heap_peak


def _heap_mark() -> int | None:
    """Start a new heap-peak window and return the heap size; None unless tracing."""
    if not tracemalloc.is_tracing():
        return None
    tracemalloc.reset_peak()
    return tracemalloc.get_traced_memory()[0]


def _heap_peak(mark: int | None) -> int | None:
    """Peak heap since `mark` was taken, above the heap size at that time."""
    return None if mark is None else tracemalloc.get_traced_memory()[1] - mark


def _timed_call(cls: str, fn, *args) -> Op:
    clock = time.perf_counter
    mark = _heap_mark()
    start = clock()
    try:
        value = fn(*args)
    except Exception as exc:  # a raised operation is a failed one, not a crash of the run
        return Op(cls, None, error=f"{type(exc).__name__}: {exc}")
    return Op(cls, clock() - start, value, heap_peak=_heap_peak(mark))


def _mixed_word(lib, rng, n: int, length: int):
    gens = [g for g in range(-(n - 1), n) if g]
    return lib.braid.BraidWord(n, tuple(rng.choices(gens, k=length)))


def _distribution(values) -> dict:
    values = sorted(values)
    return {"min": values[0], "median": statistics.median(values),
            "mean": statistics.fmean(values), "max": values[-1]}


def _shares(labels) -> dict:
    labels = list(labels)
    return {k: labels.count(k) / len(labels) for k in sorted(set(labels))}


def _murasugi_word(lib, rng):
    """A Murasugi normal-form 3-braid (class 1 or 3, |d| <= 2) and its closed-form FDTC."""
    m = lib.murasugi
    while True:
        d = rng.randint(-2, 2)
        if rng.random() < 0.7:
            a = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
            if not any(a):
                continue
            form = m.Class1(d, a)
        else:
            form = m.Class3(d, rng.choice((-1, -2, -3)))
        return m.to_word(form), m.fdtc_3braid(form)


class Workload:
    name = ""

    def sample_check(self, lib, units) -> list[str]:
        """Problems found by oracles too costly to run on every output."""
        return []


class CompareLong(Workload):
    """compare(a, b) on uniformly random mixed words in B_10.

    Lengths follow the fixed cycle 1000, 1000, 1000, 2000 so every run has
    the same length mix; only the letters depend on the seed.
    """

    name = "compare_long"
    STRANDS = 10
    LENGTHS = (1000, 1000, 1000, 2000)
    PAIRS = 200
    MEMORY_UNITS = 4
    SAMPLED = 4  # pairs that get the antisymmetry and left-invariance checks

    def generate(self, lib, rng, workdir: Path) -> list:
        units = []
        for i in range(self.PAIRS):
            length = self.LENGTHS[i % len(self.LENGTHS)]
            units.append((_mixed_word(lib, rng, self.STRANDS, length),
                          _mixed_word(lib, rng, self.STRANDS, length)))
        return units

    def properties(self, units) -> dict:
        return {"strands": {str(self.STRANDS): 1.0},
                "letters": _distribution(len(a) for a, _ in units),
                "length_shares": _shares(str(len(a)) for a, _ in units),
                "class_shares": {"mixed": 1.0}}

    def run_unit(self, lib, unit, tracer) -> list[Op]:
        a, b = unit
        if tracer is not None:
            tracer.op += 1
        return [_timed_call(f"mixed_{len(a)}", lib.ordering.compare, a, b)]

    def check(self, lib, unit, ops: list[Op]) -> None:
        for op in ops:
            op.ok = op.error is None and isinstance(op.value, lib.ordering.OrderSign)

    def sample_check(self, lib, units) -> list[str]:
        """Antisymmetry and left invariance on the first sampled pairs.

        Left invariance multiplies by the half twist written two ways, the
        standard word and its reversal: multiplying both sides by the same
        word would cancel under free reduction and test nothing.
        """
        sign = lib.ordering.OrderSign
        reverse = {sign.LESS: sign.GREATER, sign.EQUAL: sign.EQUAL, sign.GREATER: sign.LESS}
        delta = lib.braid.garside_delta(self.STRANDS)
        atled = lib.braid.BraidWord(self.STRANDS, delta.letters[::-1])
        problems = []
        for i, (a, b) in enumerate(units[: self.SAMPLED]):
            ab = lib.ordering.compare(a, b)
            if lib.ordering.compare(b, a) is not reverse[ab]:
                problems.append(f"pair {i}: compare(b, a) is not the reverse of {ab.value}")
            if lib.ordering.compare(delta * a, atled * b) is not ab:
                problems.append(f"pair {i}: left multiplication by Delta changed {ab.value}")
        return problems


class FdtcSmallN(Workload):
    """fdtc_exact(w) on short words in B_3 to B_5.

    The class and strand count follow a fixed cycle, and each positive
    (strand count) slot steps through the lengths 10..20 in turn, so every
    run has the same mix; the seed picks the letters, the torus powers,
    the Murasugi forms and the conjugators.  Conjugates of closed-form
    braids have an exact expected value; random positive words are
    checked against their certificate.
    """

    name = "fdtc_small_n"
    CYCLE = (("positive", 3), ("positive", 4), ("positive", 5), ("positive", 3), ("positive", 4),
             ("conj_torus", 3), ("conj_torus", 4), ("conj_torus", 5), ("conj_murasugi", 3),
             ("conj_torus", 5))
    POSITIVE_LENGTHS = range(10, 21)
    UNITS = 2200
    MEMORY_UNITS = 10  # one turn of the cycle
    SAMPLED = 5  # positive words that get the rotation check

    def generate(self, lib, rng, workdir: Path) -> list:
        units = []
        positives = {n: 0 for n in (3, 4, 5)}
        for i in range(self.UNITS):
            cls, n = self.CYCLE[i % len(self.CYCLE)]
            if cls == "positive":
                length = self.POSITIVE_LENGTHS[positives[n] % len(self.POSITIVE_LENGTHS)]
                positives[n] += 1
                word = lib.braid.BraidWord(n, tuple(rng.choices(range(1, n), k=length)))
                expected = None
            else:
                if cls == "conj_torus":
                    q = rng.randint(1, 2 * n)
                    beta = lib.families.generate(lib.families.Torus(n, q))
                    expected = Fraction(q, n)
                else:
                    beta, expected = _murasugi_word(lib, rng)
                word = beta.conjugate_by(_mixed_word(lib, rng, n, rng.randint(4, 8)))
            units.append((cls, word, expected))
        return units

    def properties(self, units) -> dict:
        return {"strands": _shares(str(w.strands) for _, w, _ in units),
                "letters": _distribution(len(w) for _, w, _ in units),
                "class_shares": _shares(cls for cls, _, _ in units)}

    def run_unit(self, lib, unit, tracer) -> list[Op]:
        cls, word, _ = unit
        if tracer is not None:
            tracer.op += 1
        return [_timed_call(f"{cls}_{word.strands}", lib.fdtc.fdtc_exact, word)]

    def check(self, lib, unit, ops: list[Op]) -> None:
        cls, word, expected = unit
        for op in ops:
            r = op.value
            if op.error is not None:
                continue
            certified = r.interval == (Fraction(r.floor_of_power, r.power_used),
                                       Fraction(r.floor_of_power + 1, r.power_used))
            if expected is not None:
                op.ok = certified and r.value == expected
            else:
                op.ok = (certified and r.interval[0] <= r.value <= r.interval[1]
                         and r.value.denominator <= word.strands and r.value >= 0)

    def sample_check(self, lib, units) -> list[str]:
        """FDTC is a conjugacy invariant: compare the first positive words with a cyclic rotation.

        Only `value >= 0` in the per-operation oracle can catch a wrong
        floor on a positive word; its other checks hold by construction.
        """
        problems = []
        positives = [(i, w) for i, (cls, w, _) in enumerate(units) if cls == "positive"]
        for i, word in positives[: self.SAMPLED]:
            shift = 1 + i % (len(word) - 1)
            rotated = lib.braid.BraidWord(word.strands, word.letters[shift:] + word.letters[:shift])
            value, again = lib.fdtc.fdtc_exact(word).value, lib.fdtc.fdtc_exact(rotated).value
            if value != again:
                problems.append(f"word {i}: fdtc {value} changed to {again} under rotation by {shift}")
        return problems


class _LineClock(io.TextIOBase):
    """Stdout stand-in that timestamps every completed output line.

    While tracemalloc is tracing, each line also carries the heap peak
    since the previous line, as `_timed_call` records it for one call.
    """

    def __init__(self, tracer) -> None:
        self.lines: list[tuple[float, str, int | None]] = []
        self._pending = ""
        self._tracer = tracer
        self._mark = _heap_mark()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._pending += text
        if "\n" in text:
            now = time.perf_counter()
            peak = _heap_peak(self._mark)
            *done, self._pending = self._pending.split("\n")
            self.lines.extend((now, line, peak) for line in done)
            self._mark = _heap_mark()
            if self._tracer is not None:
                self._tracer.op += len(done)
        return len(text)


# Lines that today's CLI aborts on with a TypeError instead of rejecting
# them (ROADMAP item 4).  They close every corpus file, so each pass times
# all earlier lines and then counts these two as failed; once the CLI
# rejects them cleanly they pass their oracle and ok_share rises.
KNOWN_DEFECT_LINES = ('{"n": "3", "word": [1]}', '{"n": 3, "word": [1.5]}')


class AuditCorpus(Workload):
    """In-process `braidtwist audit --json FILE` over seeded corpus files.

    Every file holds the same mix of short 3-braid lines in a seeded order,
    then the two known-defect lines.  One unit is one file; its operations
    are its lines, each timed from the previous output line to its own.
    """

    name = "audit_corpus"
    MIX = (["ktd"] * 12 + ["murasugi"] * 10 + ["slice"] * 2 + ["torus"] * 6
           + ["bttau"] * 4 + ["bad_json"] * 2 + ["bad_letter"] * 2 + ["missing_key"] * 2)
    FILES = 48
    MEMORY_UNITS = 3
    TORUS_Q = (2, 4, 5, 7, 8)

    def _line(self, lib, rng, kind: str) -> tuple[dict | str, tuple]:
        """(JSON object or raw text, expectation) for one corpus line."""
        fam, mur = lib.families, lib.murasugi
        if kind == "ktd":
            m, k = rng.randint(0, 4), rng.randint(1, 8)
            w = fam.generate(fam.Ktd(m, k))
            meta = {"expected_floor": m}
            if m % 2 == 0 and m > 0 and k == 5 * m // 2:
                meta["g4_upper"] = str(Fraction(m, 2) + 1)  # as in scripts/ktd_corpus.py
            predicates = {"question15"} if "g4_upper" in meta else set()
            return {"n": 3, "word": list(w.letters), "meta": meta}, ("floor", m, predicates)
        if kind == "murasugi":
            while True:
                w, value = _murasugi_word(lib, rng)
                if lib.braid.closure_components(w) == 1:
                    break
            return ({"n": 3, "word": list(w.letters), "meta": {"expected_fdtc": str(value)}},
                    ("fdtc", value, set()))
        if kind == "slice":
            # The unknot sigma1 sigma2^-1 and the amphichiral figure-eight
            # (sigma1 sigma2^-1)^2 have finite concordance order, so slice3 runs.
            form = mur.Class1(0, rng.choice(((1,), (1, 1))))
            w = mur.to_word(form).conjugate_by(_mixed_word(lib, rng, 3, rng.randint(2, 5)))
            meta = {"finite_concordance_order": True, "expected_fdtc": "0"}
            return {"n": 3, "word": list(w.letters), "meta": meta}, ("fdtc", Fraction(0), {"slice3"})
        if kind == "torus":
            q = rng.choice(self.TORUS_Q)
            w = fam.generate(fam.Torus(3, q))
            genus = q - 1  # T(3, q): g3 = g4 = (3-1)(q-1)/2
            meta = {"g3": genus, "g4": genus, "qp_length": len(w),
                    "finite_concordance_order": False, "expected_fdtc": str(Fraction(q, 3))}
            return ({"n": 3, "word": list(w.letters), "meta": meta},
                    ("fdtc", Fraction(q, 3), {"ito", "question15", "slice3", "qp"}))
        if kind == "bttau":
            k = rng.randint(1, 2)
            w = fam.generate(fam.BTtau(k))
            # The closed braid's Seifert surface has genus (letters - strands + 1)/2.
            meta = {"g4_upper": str(Fraction(len(w) - 2, 2))}
            return {"n": 3, "word": list(w.letters), "meta": meta}, ("bttau", k, {"question15"})
        if kind == "bad_json":
            w = _mixed_word(lib, rng, 3, rng.randint(3, 8))
            return json.dumps({"n": 3, "word": list(w.letters)})[:-2], ("reject",)
        if kind == "bad_letter":
            letters = list(_mixed_word(lib, rng, 3, rng.randint(3, 8)).letters)
            letters.insert(rng.randrange(len(letters) + 1), rng.choice((3, -3, 4, -5)))
            return {"n": 3, "word": letters}, ("reject",)
        if kind == "missing_key":
            w = _mixed_word(lib, rng, 3, rng.randint(3, 8))
            return rng.choice(({"n": 3}, {"word": list(w.letters)})), ("reject",)
        raise ValueError(f"unknown corpus line kind {kind!r}")

    def generate(self, lib, rng, workdir: Path) -> list:
        units = []
        for f in range(self.FILES):
            kinds = list(self.MIX)
            rng.shuffle(kinds)
            texts, expectations = [], []
            for kind in kinds:
                line, expected = self._line(lib, rng, kind)
                texts.append(line if isinstance(line, str) else json.dumps(line))
                expectations.append((kind, expected))
            for text in KNOWN_DEFECT_LINES:
                texts.append(text)
                expectations.append(("known_defect", ("reject",)))
            path = workdir / f"corpus-{f:02d}.jsonl"
            path.write_text("\n".join(texts) + "\n", encoding="utf-8")
            units.append((str(path), expectations, texts))
        return units

    def properties(self, units) -> dict:
        kinds = [kind for _, expectations, _ in units for kind, _ in expectations]
        lengths = [len(json.loads(t)["word"]) for _, exp, texts in units
                   for (kind, _), t in zip(exp, texts) if kind in ("ktd", "murasugi", "slice", "torus", "bttau")]
        shares = _shares(kinds)
        shares["rejected_line"] = sum(shares.get(k, 0.0) for k in ("bad_json", "bad_letter", "missing_key"))
        return {"strands": {"3": 1.0}, "letters": _distribution(lengths),
                "lines_per_file": len(kinds) // len(units), "class_shares": shares}

    def run_unit(self, lib, unit, tracer) -> list[Op]:
        path, expectations, _ = unit
        out = _LineClock(tracer)
        call = lib.cli.run if tracer is None else (lambda argv: tracer.span("cli.run", lib.cli.run, argv))
        start = time.perf_counter()
        raised = None
        try:
            with redirect_stdout(out):
                call(["audit", "--json", path])
        except Exception as exc:  # the known-defect lines end the pass here
            raised = f"{type(exc).__name__}: {exc}"
        ops = [Op(kind, None, error=raised) for kind, _ in expectations]
        previous = start
        for stamp, text, peak in out.lines:
            record = json.loads(text)
            if "line" in record:
                op = ops[record["line"] - 1]
                op.seconds, op.value, op.error, op.heap_peak = stamp - previous, record, None, peak
            previous = stamp
        return ops

    def check(self, lib, unit, ops: list[Op]) -> None:
        _, expectations, _ = unit
        for op, (kind, expected) in zip(ops, expectations):
            op.known_defect = kind == "known_defect"
            record = op.value
            if record is None:
                continue
            op.rejected = "error" in record
            if expected[0] == "reject":
                op.ok = "error" in record
                continue
            if "error" in record:
                continue
            what, value, predicates = expected
            ok = all(check["matched"] for check in record.get("expected", {}).values())
            ok = ok and {p["predicate"] for p in record["predicates"]} == predicates
            if what == "floor":
                ok = ok and record["floor"] == value
            elif what == "fdtc":
                ok = ok and Fraction(record["fdtc"]) == value
            else:  # BTtau k has its twist coefficient in [k-1, k]
                ok = ok and value - 1 <= Fraction(record["fdtc"]) <= value
            op.ok = ok


WORKLOADS = {w.name: w for w in (CompareLong(), FdtcSmallN(), AuditCorpus())}
