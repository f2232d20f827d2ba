import io
import json
from fractions import Fraction

from braidtwist import BraidWord
from braidtwist.cli import run


def lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


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

    def test_wrongly_typed_lines_are_error_records(self, tmp_path, capsys):
        path = self.corpus(
            tmp_path,
            '{"n": "3", "word": [1]}\n'
            '{"n": 3, "word": [1.5]}\n'
            '{"n": 3, "word": [1, 2], "meta": {"expected_fdtc": "1/3"}}\n',
        )
        assert run(["audit", "--json", path]) == 1
        out = [json.loads(line) for line in lines(capsys)]
        assert [r.get("line") for r in out[:-1]] == [1, 2, 3]
        assert "error" in out[0] and "error" in out[1]
        assert out[2]["expected"]["fdtc"]["matched"] is True
        assert out[-1]["summary"]["entries"] == 3 and out[-1]["summary"]["errors"] == 2

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
            "sys.stdin", io.StringIO('{"n": 3, "word": [1, -2], "meta": {}}\n')
        )
        assert run(["audit", "--json"]) == 0
        out = [json.loads(line) for line in lines(capsys)]
        assert out[0]["predicates"] == []

    def test_missing_file(self, capsys):
        assert run(["audit", "/no/such/corpus.jsonl"]) == 1
        assert "error" in capsys.readouterr().err


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
