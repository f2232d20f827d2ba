import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidtwist.cli as cli
import braidtwist.genus_bounds as genus_bounds
import braidtwist.quasipositive as quasipositive
from braidtwist import BraidWord, format_word
from braidtwist.braid import integer
from braidtwist.fdtc import FLOOR_CONVENTION, dehornoy_floor, fdtc_exact
from braidtwist.genus_bounds import audit_bounds, tau_s_bounds
from braidtwist.cli import run


def lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def count_calls(monkeypatch, name, *modules):
    """The list that every call of the function name through the modules
    appends its arguments to."""
    calls = []
    for module in modules:
        def spy(*args, original=getattr(module, name), **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


class TestWordCommands:
    def test_parse_canonicalizes(self, capsys):
        assert run(["parse", "--strands", "3", "s1^3 −2"]) == 0
        assert lines(capsys) == ["1 1 1 -2"]

    def test_parse_json(self, capsys):
        assert run(["parse", "--strands", "3", "--json", "1 2"]) == 0
        record = json.loads(lines(capsys)[0])
        assert record["letters"] == [1, 2]
        assert record["strands"] == 3
        assert record["closure_components"] == 1

    def test_sign_token(self, capsys):
        assert run(["sign", "--strands", "3", "1 -2 1"]) == 0
        assert lines(capsys) == ["GT"]

    def test_compare_tokens(self, capsys):
        assert run(["compare", "--strands", "3", "1 2", "2 1"]) == 0
        assert run(["compare", "--strands", "3", "2 1", "1 2"]) == 0
        assert run(["compare", "--strands", "3", "1", "1"]) == 0
        assert lines(capsys) == ["LT", "GT", "EQ"]

    def test_floor(self, capsys):
        assert run(["floor", "--strands", "3", "1 2 1 1 2 1"]) == 0
        assert lines(capsys) == ["1"]

    def test_fdtc_text_with_certificate(self, capsys, check_fdtc_certificate):
        assert run(["fdtc", "--strands", "3", "-1 -2"]) == 0
        value, certificate = lines(capsys)
        assert value == "-1/3"
        assert certificate.startswith("certificate ")
        payload = json.loads(certificate.removeprefix("certificate "))
        check_fdtc_certificate(
            BraidWord(3, [-1, -2]), Fraction(value), payload["N"], payload["floor"],
            Fraction(payload["lo"]), Fraction(payload["hi"]),
        )

    def test_fdtc_json(self, capsys, check_fdtc_certificate):
        assert run(["fdtc", "--strands", "3", "--json", "-1 -2"]) == 0
        record = json.loads(lines(capsys)[0])
        assert Fraction(record["value"]) == Fraction(-1, 3)
        cert = record["certificate"]
        check_fdtc_certificate(
            BraidWord(3, [-1, -2]), Fraction(record["value"]), cert["N"], cert["floor"],
            Fraction(cert["lo"]), Fraction(cert["hi"]),
        )


class TestFamilyComposition:
    def test_family_word_feeds_floor(self, capsys):
        assert run(["family", "ktd", "3", "2"]) == 0
        word = lines(capsys)[0]
        assert run(["floor", "--strands", "3", word]) == 0
        assert lines(capsys) == ["3"]

    def test_fulltwists_needs_strands(self, capsys):
        assert run(["family", "fulltwists", "2", "1 -2"]) == 2

    def test_fulltwists(self, capsys):
        assert run(["family", "fulltwists", "--strands", "3", "1", "-1"]) == 0
        assert lines(capsys) == ["-1 1 2 1 1 2 1"]

    def test_torus_json(self, capsys):
        assert run(["family", "torus", "3", "2", "--json"]) == 0
        record = json.loads(lines(capsys)[0])
        assert record["letters"] == [1, 2, 1, 2]


class TestMurasugiCommand:
    def test_text_output(self, capsys):
        assert run(["murasugi", "--class", "3", "--d", "0", "--m", "-2"]) == 0
        out = lines(capsys)
        assert out[0] == "-1 -1 -2"
        assert out[1] == "fdtc -1/2"

    def test_json_with_cross_check(self, capsys):
        assert run(
            ["murasugi", "--class", "1", "--d", "1", "--a", "1", "2", "--json", "--cross-check"]
        ) == 0
        record = json.loads(lines(capsys)[0])
        assert record["fdtc"] == "1"
        assert record["quasi_alternating"] is True
        assert record["cross_check"] is True

    def test_class1_requires_exponents(self, capsys):
        assert run(["murasugi", "--class", "1", "--d", "0"]) == 1
        assert "needs --a" in capsys.readouterr().err

    @pytest.mark.parametrize("cls", ["2", "3"])
    def test_class2_and_class3_require_m(self, capsys, cls):
        assert run(["murasugi", "--class", cls, "--d", "0", "--a", "1"]) == 1
        assert f"error: class {cls} needs --m" in capsys.readouterr().err


class TestQpCommand:
    def test_json_report(self, capsys):
        assert run(["qp", "--strands", "3", "--json", "--check", "2 | 1 | +; | 2 | +"]) == 0
        record = json.loads(lines(capsys)[0])
        assert record["qp_length"] == 2
        assert record["bt_upper"] == 1
        assert Fraction(record["fdtc"]) == Fraction(1, 3)
        assert record["bound_check"] is True

    def test_malformed_syllables(self, capsys):
        assert run(["qp", "--strands", "3", "1 | 2"]) == 1

    def test_generator_beyond_the_strands(self, capsys):
        """The syllable word's letters are checked by BraidWord's rule."""
        assert run(["qp", "--strands", "3", " | 3 | +"]) == 1
        err = capsys.readouterr().err
        assert "letter 3 is not a generator of the braid group on 3 strands" in err
        assert "Traceback" not in err

    def test_check_computes_the_twist_coefficient_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "fdtc_exact", cli, quasipositive)
        assert run(["qp", "--strands", "3", "--check", "2 | 1 | +; | 2 | +"]) == 0
        assert lines(capsys)[-2:] == ["fdtc: 1/3", "bound_check: True"]
        assert len(calls) == 1

    @pytest.mark.parametrize("check", [[], ["--check"]])
    def test_syllables_are_expanded_once(self, capsys, monkeypatch, check):
        """The report, its expanded field and the engine share one expansion,
        freely reduced once, when the syllable word is made."""
        calls = count_calls(monkeypatch, "_free_reduce_letters", quasipositive)
        assert run(["qp", "--strands", "3", "--json", *check, "2 | 1 | +; | 2 | +"]) == 0
        assert json.loads(lines(capsys)[0])["expanded"] == "2 1"
        assert len(calls) == 1

    @pytest.mark.parametrize("strands, syllables, error", [
        ("2", " | 1 | +", "at least 3 strands"),
        ("3", "", "at least one syllable"),
        ("3", " | 1 | +; | 2 | -", "all-positive"),
    ])
    def test_check_refuses_before_the_engine_runs(self, capsys, monkeypatch, strands,
                                                  syllables, error):
        calls = count_calls(monkeypatch, "fdtc_exact", cli, quasipositive)
        assert run(["qp", "--strands", strands, "--check", "--", syllables]) == 1
        assert error in capsys.readouterr().err
        with pytest.raises(ValueError, match=error):
            quasipositive.qp_bt_check(quasipositive.parse_syllables(syllables, int(strands)))
        assert calls == []


class TestBoundsCommand:
    def test_json_with_predicates(self, capsys):
        code = run(
            ["bounds", "--strands", "3", "--json", "--g4-upper", "1", "--qp-length", "2", "1 2 1 2"]
        )
        assert code == 0
        record = json.loads(lines(capsys)[0])
        assert record["knot"] is True
        assert record["tau"] == ["1", "3"]
        assert Fraction(record["fdtc"]) == Fraction(2, 3)
        statuses = {e["predicate"]: e["status"] for e in record["predicates"]}
        assert statuses == {"question15": "pass", "qp": "pass"}

    def test_link_without_genus_data(self, capsys):
        assert run(["bounds", "--strands", "3", "--json", "1 1"]) == 0
        record = json.loads(lines(capsys)[0])
        assert record["knot"] is False
        assert "tau" not in record

    def test_link_with_genus_data_is_an_error(self, capsys):
        assert run(["bounds", "--strands", "3", "--g3", "1", "1 1"]) == 1

    @pytest.mark.parametrize("word, fdtc", [("1 2 1 2", "2/3"), ("1 1", "0")],
                             ids=["knot", "link"])
    def test_one_twist_coefficient_per_closure(self, capsys, monkeypatch, word, fdtc):
        calls = count_calls(monkeypatch, "fdtc_exact", cli, genus_bounds)
        assert run(["bounds", "--strands", "3", "--json", word]) == 0
        assert json.loads(lines(capsys)[0])["fdtc"] == fdtc
        assert len(calls) == 1


KNOT, LINK = BraidWord(3, [1, 2] * 4), BraidWord(3, [1, 1])
BANDS = quasipositive.parse_syllables("2 | 1 | +; | 2 | +", 3)


@pytest.mark.parametrize("argv, record", [
    (["floor", "--strands", "3", "1 2 1 2 1 2 1 2"],
     lambda: {"floor": dehornoy_floor(KNOT), "convention": FLOOR_CONVENTION}),
    (["bounds", "--strands", "3", "--g3", "3", "--g4", "3", "1 2 1 2 1 2 1 2"],
     lambda: {"strands": 3, "knot": True, **tau_s_bounds(KNOT),
              **audit_bounds(KNOT, g3="3", g4="3")}),
    (["bounds", "--strands", "3", "1 1"],
     lambda: {"strands": 3, "knot": False, "floor": fdtc_exact(LINK).floor,
              "fdtc": fdtc_exact(LINK).value}),
    (["qp", "--strands", "3", "2 | 1 | +; | 2 | +"],
     lambda: {"strands": 3, **quasipositive.qp_report(BANDS),
              "expanded": format_word(BANDS.word)}),
    (["qp", "--strands", "3", "--check", "2 | 1 | +; | 2 | +"],
     lambda: {"strands": 3, **quasipositive.qp_report(BANDS),
              "expanded": format_word(BANDS.word),
              **dict(zip(("fdtc", "bound_check"), quasipositive.qp_bt_check(BANDS)))}),
], ids=["floor", "bounds_knot", "bounds_link", "qp", "qp_check"])
def test_report_is_the_library_record(capsys, argv, record):
    """--json prints the library's values, key for key and in key order."""
    assert run([*argv[:-1], "--json", argv[-1]]) == 0
    printed = json.loads(capsys.readouterr().out)
    want = json.loads(json.dumps(record(), default=cli._fraction_text))
    assert list(printed.items()) == list(want.items())
    if printed.get("knot") is False:
        assert "tau" not in printed and "s" not in printed


class TestAuditCommand:
    def corpus(self, tmp_path, text):
        path = tmp_path / "corpus.jsonl"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path, capsys):
        path = self.corpus(
            tmp_path,
            '{"n": 3, "word": [1, 2, 1, 2], "meta": {"qp_length": 2, "expected_fdtc": "2/3"}}\n'
            "garbage\n"
            '{"n": 3, "word": [1, -2], "meta": {"finite_concordance_order": true}}\n',
        )
        assert run(["audit", "--json", path]) == 1
        out = [json.loads(line) for line in lines(capsys)]
        assert [r.get("line") for r in out[:-1]] == [1, 2, 3]
        assert out[0]["predicates"][0]["predicate"] == "qp"
        assert out[0]["expected"]["fdtc"]["matched"] is True
        assert "error" in out[1]
        assert out[2]["predicates"][0]["predicate"] == "slice3"
        summary = out[-1]["summary"]
        assert summary["entries"] == 3 and summary["errors"] == 1

    def test_repeated_runs_give_identical_output(self, tmp_path, capsys):
        """The parser is built once per process: a run prints the same the
        second time, and no option of one run leaks into the next."""
        path = self.corpus(
            tmp_path,
            '{"n": 3, "word": [1, 2, 1, 2], "meta": {"qp_length": 2, "finite_concordance_order": true}}\n',
        )
        commands = (["audit", "--json", "--predicates", "qp", path], ["audit", "--json", path])
        outputs = []
        for argv in commands * 2:
            code = run(argv)
            outputs.append((code, capsys.readouterr()))
        assert outputs[:2] == outputs[2:]
        assert outputs[0] != outputs[1]

    def test_wrongly_typed_lines_are_error_records(self, tmp_path, capsys):
        bad = [
            '{"n": "3", "word": [1]}',
            '{"n": 3, "word": [1.5]}',
            '{"n": 3, "word": 5}',
            '{"n": 3, "word": null}',
        ] + [
            f'{{"n": 3, "word": [1, 2], "meta": {{"{key}": {value}}}}}'
            for key in ("qp_length", "expected_floor")
            for value in ("[1]", "{}", "1.5", "true", "null")
        ] + [
            f'{{"n": 3, "word": [1, -2], "meta": {{"finite_concordance_order": {value}}}}}'
            for value in ('"false"', '"true"', "0", "1", '""', "[]")
        ]
        good = '{"n": 3, "word": [1, 2], "meta": {"expected_fdtc": "1/3"}}'
        path = self.corpus(tmp_path, "\n".join(bad + [good]) + "\n")
        assert run(["audit", "--json", path]) == 1
        out = [json.loads(line) for line in lines(capsys)]
        assert [r.get("line") for r in out[:-1]] == list(range(1, len(bad) + 2))
        assert all("error" in r for r in out[: len(bad)])
        assert out[len(bad)]["expected"]["fdtc"]["matched"] is True
        summary = out[-1]["summary"]
        assert summary["entries"] == len(bad) + 1 and summary["errors"] == len(bad)

    def test_finite_concordance_order_null_is_not_supplied(self, tmp_path, capsys):
        path = self.corpus(
            tmp_path,
            '{"n": 3, "word": [1, -2], "meta": {"finite_concordance_order": null}}\n'
            '{"n": 3, "word": [1, -2], "meta": {"finite_concordance_order": false}}\n',
        )
        assert run(["audit", "--json", path]) == 0
        out = [json.loads(line) for line in lines(capsys)]
        assert out[0]["predicates"] == []
        assert [p["status"] for p in out[1]["predicates"]] == ["skipped"]

    @pytest.mark.parametrize("meta, no_meta", [
        ("null", True), ("{}", True), ("[]", True), ('""', True),
        ("false", False), ("0", False), ("true", False), ("1", False), ('"x"', False),
        ("[1]", False),
    ])
    def test_meta_is_an_object_or_an_empty_value(self, tmp_path, capsys, meta, no_meta):
        """null, {}, [] and "" are no meta, read by value, not truthiness;
        any other value that is not an object is an error record."""
        path = self.corpus(tmp_path, '{"n": 3, "word": [1, 2]}\n'
                                     f'{{"n": 3, "word": [1, 2], "meta": {meta}}}\n')
        assert run(["audit", "--json", path]) == (0 if no_meta else 1)
        without, given = [json.loads(line) for line in lines(capsys)[:2]]
        if no_meta:
            assert given == {**without, "line": 2}
        else:
            assert given == {"line": 2, "error": "meta must be a JSON object"}

    @pytest.mark.parametrize("value", ["false", 1, 1.5, True, "1_0", " 1 ", "\u0661", "1/0",
                                       -1, 0, 0.1])
    @pytest.mark.parametrize("key", list(genus_bounds.INPUTS))
    def test_library_and_corpus_read_inputs_alike(self, capsys, monkeypatch, key, value):
        """A value passed to audit_bounds and the same value in corpus meta
        give the same record or the same error message."""
        line = {"n": 3, "word": [1, -2], "meta": {key: value}}
        stdin = io.TextIOWrapper(io.BytesIO(json.dumps(line).encode() + b"\n"))
        monkeypatch.setattr("sys.stdin", stdin)
        run(["audit", "--json"])
        from_corpus = json.loads(lines(capsys)[0])
        try:
            record = genus_bounds.audit_bounds(BraidWord(3, [1, -2]), **{key: value})
        except ValueError as e:
            assert from_corpus == {"line": 1, "error": str(e)}
            return
        assert from_corpus == {"line": 1, **json.loads(json.dumps(record, default=str)),
                               "word": [1, -2]}
        if value == 0.1:
            (entry,) = from_corpus["predicates"]
            assert entry[key.removesuffix("_upper")] == "1/10"

    def test_huge_strand_count_is_an_error_record(self, tmp_path, capsys):
        path = self.corpus(tmp_path, '{"n": 1000000000, "word": [1]}\n')
        assert run(["audit", "--json", path]) == 1
        out = [json.loads(line) for line in lines(capsys)]
        assert out[0] == {"line": 1, "error": "closure is not a knot"}

    def test_record_too_long_to_print_is_an_error_record(self, tmp_path, capsys):
        """A g4 of 4,300 nines is read, but question15's bound 2*g4 + n - 2
        has more digits than Python prints as text: that line is an error
        record, and the next line and the summary still print."""
        nines = json.dumps({"n": 3, "word": [1, 2], "meta": {"g4": "9" * 4300}})
        path = self.corpus(tmp_path, nines + '\n{"n": 3, "word": [1, 2]}\n')
        assert run(["audit", "--json", path]) == 1
        out = [json.loads(line) for line in lines(capsys)]
        assert len(out) == 3
        assert out[0]["line"] == 1 and "integer string conversion" in out[0]["error"]
        assert out[1] == {"line": 2, "strands": 3, "floor": 0, "fdtc": "1/3", "predicates": [],
                          "word": [1, 2]}
        assert out[2]["summary"]["errors"] == 1 and out[2]["summary"]["pass"] == 0

    def test_out_of_range_input_is_refused_whatever_the_predicates(self, tmp_path, capsys):
        """A band count below 1 is an error record even when qp does not run."""
        path = self.corpus(
            tmp_path, '{"n": 3, "word": [1, 2], "meta": {"g3": 1, "qp_length": 0}}\n'
        )
        assert run(["audit", "--json", "--predicates", "ito", path]) == 1
        out = [json.loads(line) for line in lines(capsys)]
        assert out[0] == {"line": 1,
                          "error": "qp_length must be a positive band count, got 0"}

    def test_clean_corpus_exits_zero(self, tmp_path, capsys):
        path = self.corpus(tmp_path, '{"n": 3, "word": [1, 2], "meta": {"qp_length": 2}}\n')
        assert run(["audit", path]) == 0
        assert "1 pass" in lines(capsys)[-1]

    def test_predicate_failure_is_a_finding_not_an_error(self, tmp_path, capsys):
        path = self.corpus(
            tmp_path, '{"n": 3, "word": [1, 2, 1, 2, 1, 2, 1, 2], "meta": {"g4": 0}}\n'
        )
        assert run(["audit", "--json", path]) == 0
        out = [json.loads(line) for line in lines(capsys)]
        assert out[0]["predicates"][0]["status"] == "counterexample-candidate"
        assert out[-1]["summary"]["counterexample-candidate"] == 1

    def test_expected_mismatch_counted(self, tmp_path, capsys):
        path = self.corpus(
            tmp_path, '{"n": 3, "word": [1, 2], "meta": {"expected_floor": 5}}\n'
        )
        assert run(["audit", "--json", path]) == 0
        out = [json.loads(line) for line in lines(capsys)]
        assert out[0]["expected"]["floor"]["matched"] is False
        assert out[-1]["summary"]["mismatches"] == 1

    def test_empty_corpus(self, tmp_path, capsys):
        path = self.corpus(tmp_path, "")
        assert run(["audit", path]) == 0

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.TextIOWrapper(io.BytesIO(b'{"n": 3, "word": [1, -2], "meta": {}}\n'))
        )
        assert run(["audit", "--json"]) == 0
        out = [json.loads(line) for line in lines(capsys)]
        assert out[0]["predicates"] == []

    def test_missing_file(self, capsys):
        assert run(["audit", "/no/such/corpus.jsonl"]) == 1
        assert "error" in capsys.readouterr().err

    GOOD = b'{"n": 3, "word": [1, 2], "meta": {"expected_fdtc": "1/3"}}'
    # name -> (corpus bytes, exit code).  A line ends at "\n" only and is
    # skipped only if it holds nothing but ASCII whitespace.
    PARITY_CASES = {
        "lf": (GOOD + b"\n" + GOOD + b"\n", 0),
        "crlf": (GOOD + b"\r\n" + GOOD + b"\r\n", 0),
        "stray_cr": (b'{"n": 3,\r "word": [1, 2]}\n', 0),
        "cr_separated": (GOOD + b"\r" + GOOD + b"\r" + GOOD + b"\n", 1),
        "no_final_newline": (GOOD + b"\n" + GOOD, 0),
        "blank": (b"\n" + GOOD + b"\n\n", 0),
        "ascii_whitespace": (b" \t\r\n" + GOOD + b"\n\x0b\x0c\n", 0),
        "nbsp": (GOOD + b"\n\xc2\xa0\n" + GOOD + b"\n", 1),
        "not_utf8": (GOOD + b"\n\xff\n" + GOOD + b"\n", 1),
        "utf8_bom": (b"\xef\xbb\xbf" + GOOD + b"\n" + GOOD + b"\n", 1),
    }

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("name", sorted(PARITY_CASES))
    def test_file_and_stdin_read_alike(self, tmp_path, name, flags):
        """`audit FILE` and `audit < FILE`, each through main() in a fresh
        process, print the same bytes and exit alike."""
        data, code = self.PARITY_CASES[name]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(data)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        argv = [sys.executable, "-m", "braidtwist.cli", "audit", *flags]
        via_file = subprocess.run(argv + [str(corpus)], capture_output=True, env=env, timeout=120)
        with corpus.open("rb") as stdin:
            via_stdin = subprocess.run(argv, stdin=stdin, capture_output=True, env=env,
                                       timeout=120)
        assert via_file.stdout == via_stdin.stdout
        assert via_file.returncode == via_stdin.returncode == code
        assert via_file.stderr == via_stdin.stderr == b""

    @pytest.mark.parametrize(
        "via, io_encoding",
        [("file", None), ("stdin", "utf-8:strict"), ("stdin", "latin-1")],
    )
    def test_line_that_is_not_utf8_is_an_error_record(self, tmp_path, via, io_encoding):
        """A line holding a byte that is not UTF-8 becomes that line's error
        record and the audit goes on, from a file or from stdin, whatever
        encoding the process gives stdin."""
        good = b'{"n": 3, "word": [1, 2], "meta": {"expected_fdtc": "1/3"}}\n'
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(good + b"\xff\n" + good)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        env.pop("PYTHONIOENCODING", None)
        if io_encoding is not None:
            env["PYTHONIOENCODING"] = io_encoding
        argv = [sys.executable, "-m", "braidtwist.cli", "audit", "--json"]
        if via == "file":
            result = subprocess.run(argv + [str(corpus)], capture_output=True, env=env, timeout=120)
        else:
            result = subprocess.run(argv, input=corpus.read_bytes(), capture_output=True,
                                    env=env, timeout=120)
        assert result.returncode == 1 and result.stderr == b""
        out = [json.loads(line) for line in result.stdout.decode("ascii").splitlines()]
        assert out[1] == {
            "line": 2,
            "error": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        }
        assert [r["expected"]["fdtc"]["matched"] for r in (out[0], out[2])] == [True, True]
        assert out[3]["summary"]["entries"] == 3 and out[3]["summary"]["errors"] == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
META_KEYS = ("g3", "g4", "g4_upper", "finite_concordance_order", "qp_length",
             "expected_floor", "expected_fdtc")
audit_lines = st.fixed_dictionaries(
    {
        "n": st.integers(2, 4) | st.integers(min_value=5) | json_values,
        "word": st.lists(st.integers(-3, 3) | json_values, max_size=6) | json_values,
    },
    optional={"meta": st.dictionaries(st.sampled_from(META_KEYS), json_values) | json_values},
)


class TestAuditFuzz:
    @settings(max_examples=150, deadline=None)
    @example([{"n": 3, "word": 5}])
    @example([{"n": 3, "word": [1, 2], "meta": {"qp_length": [1]}}])
    @example([{"n": 1000000000, "word": [1]}])
    @example([{"n": 1004327203549560832000, "word": [3387215635]}])
    @given(st.lists(audit_lines, min_size=1, max_size=3))
    def test_every_line_gives_a_record_or_an_error(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["audit", "--json", str(path)])
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert code in (0, 1)
        assert [r["line"] for r in records[:-1]] == list(range(1, len(entries) + 1))
        assert all(("error" in r) != ("predicates" in r) for r in records[:-1])
        assert records[-1]["summary"]["entries"] == len(entries)
        assert code == (1 if records[-1]["summary"]["errors"] else 0)


# Word and syllable text: signed integers, aliases with small exponents
# or with exponents past the letter bound, and arbitrary short junk.
exponents = st.integers(-4, 4) | st.integers(min_value=10**7) | st.integers(max_value=-(10**7))
alias_tokens = st.builds(
    lambda index, exponent: f"s{index}" if exponent is None else f"s{index}^{exponent}",
    st.integers(0, 7) | st.integers(min_value=10**6),
    st.none() | exponents,
)
word_texts = st.lists(
    st.integers(-7, 7).map(str) | alias_tokens | st.text(max_size=4), max_size=6
).map(" ".join)
syllable_texts = st.lists(
    st.builds(
        lambda word, generator, sign: f"{word} | {generator} | {sign}",
        st.lists(st.integers(-5, 5).map(str) | alias_tokens, max_size=3).map(" ".join),
        st.integers(-1, 6).map(str) | st.text(max_size=3),
        st.sampled_from(("+", "-")) | st.text(max_size=2),
    )
    | st.text(max_size=8),
    max_size=3,
).map("; ".join)


class TestTextFuzz:
    """parse_word and parse_syllables through the CLI: no traceback, exit 0, 1 or 2."""

    @staticmethod
    def run_quietly(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        return code, err.getvalue()

    @settings(max_examples=150, deadline=None)
    @example("sign", 3, "s1^1000000000000")
    @example("floor", 3, "s1^-1000000000000")
    @example("sign", 3, "s5^1000000000000")
    @given(st.sampled_from(("sign", "floor")), st.integers(2, 6), word_texts)
    def test_word_text(self, command, strands, text):
        self.run_quietly([command, "--strands", str(strands), "--", text])

    @settings(max_examples=100, deadline=None)
    @example(False, 3, "s1^1000000000000 | 1 | +")
    @given(st.booleans(), st.integers(2, 5), syllable_texts)
    def test_syllable_text(self, check, strands, text):
        argv = ["qp", "--strands", str(strands)] + ["--check"] * check + ["--", text]
        self.run_quietly(argv)

    def test_huge_exponent_is_rejected_before_expanding(self):
        code, err = self.run_quietly(["sign", "--strands", "3", "s1^1000000000000"])
        assert code == 1
        assert "s1^1000000000000" in err


# Each integer argument of the command line, its value written "{}".  The
# --strands and --cap of add_common are one argument each, shared by
# seven commands.
INTEGER_ARGUMENTS = {
    "strands": ["sign", "--strands", "{}", "1"],
    "cap": ["sign", "--strands", "3", "--cap", "{}", "1"],
    "murasugi_class": ["murasugi", "--class", "{}", "--d", "0", "--m", "1"],
    "murasugi_d": ["murasugi", "--class", "2", "--d", "{}", "--m", "1"],
    "murasugi_a": ["murasugi", "--class", "1", "--d", "0", "--a", "1", "{}"],
    "murasugi_m": ["murasugi", "--class", "2", "--d", "0", "--m", "{}"],
    "murasugi_cap": ["murasugi", "--class", "2", "--d", "0", "--m", "1", "--cap", "{}"],
    "ktd_m": ["family", "ktd", "{}", "1"],
    "ktd_k": ["family", "ktd", "1", "{}"],
    "bttau_k": ["family", "bttau", "{}"],
    "torus_p": ["family", "torus", "{}", "2"],
    "torus_q": ["family", "torus", "2", "{}"],
    "fulltwists_t": ["family", "fulltwists", "{}", "1", "--strands", "3"],
    "fulltwists_strands": ["family", "fulltwists", "1", "1", "--strands", "{}"],
    "audit_cap": ["audit", "--cap", "{}", "-"],
}


class TestIntegerArguments:
    @pytest.mark.parametrize("value", ["1_0", "\u0661"])
    @pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
    def test_loose_integer_is_a_usage_error(self, capsys, name, value):
        argv = [arg.replace("{}", value) for arg in INTEGER_ARGUMENTS[name]]
        assert run(argv) == 2
        assert f"invalid integer value: '{value}'" in capsys.readouterr().err

    def test_every_integer_argument_uses_the_reader(self):
        """No argument is read with int(), and the ones read with integer()
        have the destinations of INTEGER_ARGUMENTS."""
        parsers, integers = [cli._build_parser()], set()
        while parsers:
            for action in parsers.pop()._actions:
                assert action.type is not int
                if action.type is integer:
                    integers.add(action.dest)
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        assert integers == {"strands", "cap", "cls", "d", "a", "m", "k", "p", "q", "t"}


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["floor", "1 2"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["conjugate", "--strands", "3", "1"]) == 2

    def test_unknown_predicate_is_usage(self, capsys):
        assert run(["audit", "--predicates", "genus", "-"]) == 2

    def test_domain_error(self, capsys):
        assert run(["floor", "--strands", "3", "1 5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_cap_exceeded(self, capsys):
        word = "1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2 1 -2"
        assert run(["fdtc", "--strands", "3", "--cap", "2", word]) == 1
        assert "cap" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_missing_corpus_file(self, tmp_path, capsys):
        assert run(["audit", str(tmp_path / "missing.jsonl")]) == 1
        assert "No such file" in capsys.readouterr().err

    def test_closed_stdin(self, capsys, monkeypatch):
        """With stdin closed, as `audit <&-` leaves it (sys.stdin is None),
        audit prints one error line and exits 1."""
        monkeypatch.setattr("sys.stdin", None)
        assert run(["audit"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_text_only_stdin(self, capsys, monkeypatch):
        """A stdin with no byte buffer is refused like a closed one: the
        corpus is read as bytes only."""
        monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 3, "word": [1, 2]}\n'))
        assert run(["audit"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_output_cut_short(self, tmp_path):
        """A reader that leaves after one line, as `| head -n 1` does, sees
        `audit` end quietly: exit status 0 and nothing on stderr.  The
        output is larger than a pipe buffer and unbuffered, so the command
        is still writing when the reader leaves."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"n": 3, "word": [1, 2], "meta": {"g3": 1}}\n' * 3000, encoding="utf-8")
        src = Path(__file__).parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
        process = subprocess.Popen(
            [sys.executable, "-m", "braidtwist.cli", "audit", "--json", str(corpus)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert process.stdout.readline()
        process.stdout.close()
        _, stderr = process.communicate(timeout=120)
        assert stderr.decode() == "" and process.returncode == 0
