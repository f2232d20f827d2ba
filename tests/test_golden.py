"""Golden CLI outputs, compared byte for byte.

The cases are every README example (among them the audit of the `Ktd`
corpus tests/golden/ktd_corpus.jsonl), an audit file that covers every
meta key and value type, the `bounds` flags, the `qp` report and rejected
integer text, each in text and `--json` form.
The expected exit codes, stdout and stderr are in tests/golden/outputs.json.
After an intended output change, rewrite that file with

    PYTHONPATH=src python3 tests/test_golden.py

and review its diff.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from braidtwist import OrderSign
from braidtwist.cli import run

GOLDEN = Path(__file__).parent / "golden"
OUTPUTS = GOLDEN / "outputs.json"
KTD_CORPUS = (GOLDEN / "ktd_corpus.jsonl").read_text(encoding="utf-8")
META_CORPUS = (GOLDEN / "meta.jsonl").read_text(encoding="utf-8")
KTD_3_2 = "2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 -2 -2 -2 -2"
KNOT = "1 2 1 2 1 2 1 2"

# name -> (argv, corpus text or None).  "{corpus}" in argv is replaced by
# the path of a file holding the corpus; a corpus without that placeholder
# is fed on stdin.
CASES: dict[str, tuple[list[str], str | None]] = {}


def _case(name: str, argv: list[str], corpus: str | None = None, json_too: bool = True) -> None:
    CASES[name] = (argv, corpus)
    if json_too:
        CASES[name + "_json"] = (argv + ["--json"], corpus)


# README examples.
_case("readme_sign", ["sign", "--strands", "3", "1 -2 1"])
_case("readme_compare", ["compare", "--strands", "3", "1 2", "2 1"])
_case("readme_floor", ["floor", "--strands", "3", "1 2 1 1 2 1"])
_case("readme_fdtc", ["fdtc", "--strands", "3", "-1 -2"])
_case("readme_family_ktd", ["family", "ktd", "3", "2"])
_case("readme_floor_of_ktd", ["floor", "--strands", "3", KTD_3_2])
_case("readme_murasugi", ["murasugi", "--class", "3", "--d", "0", "--m", "-2", "--cross-check"])
_case("readme_qp_check", ["qp", "--strands", "3", "2 | 1 | +; | 2 | +", "--check"])
_case("readme_bounds", ["bounds", "--strands", "3", "1 2 1 2", "--g4-upper", "1",
                        "--qp-length", "2"])
_case("readme_ktd_audit", ["audit"], KTD_CORPUS)

# Audit over every meta key and value type, malformed lines included.
_case("audit_meta", ["audit", "{corpus}"], META_CORPUS)
_case("audit_meta_qp_ito", ["audit", "{corpus}", "--predicates", "qp,ito"], META_CORPUS)
_case("audit_meta_slice3_question15", ["audit", "{corpus}", "--predicates", "slice3,question15"],
      META_CORPUS)
_case("audit_meta_ito_twice", ["audit", "{corpus}", "--predicates", "ito,ito"], META_CORPUS,
      json_too=False)

# Lines that ended the whole audit with a traceback, whose integer meta
# values were silently truncated, or whose finite_concordance_order was read
# by truthiness; each is followed by a good line.
_GOOD_LINE = '{"n": 3, "word": [1, 2], "meta": {"expected_fdtc": "1/3"}}\n'
for _name, _line in {
    "word_int": '{"n": 3, "word": 5}',
    "word_null": '{"n": 3, "word": null}',
    "qp_length_list": '{"n": 3, "word": [1, 2], "meta": {"qp_length": [1]}}',
    "qp_length_object": '{"n": 3, "word": [1, 2], "meta": {"qp_length": {}}}',
    "qp_length_null": '{"n": 3, "word": [1, 2], "meta": {"qp_length": null}}',
    "qp_length_fraction": '{"n": 3, "word": [1, 2], "meta": {"qp_length": 1.5}}',
    "qp_length_true": '{"n": 3, "word": [1, 2], "meta": {"qp_length": true}}',
    "qp_length_infinite": '{"n": 3, "word": [1, 2], "meta": {"qp_length": Infinity}}',
    "expected_floor_list": '{"n": 3, "word": [1, 2], "meta": {"expected_floor": [1]}}',
    "expected_floor_null": '{"n": 3, "word": [1, 2], "meta": {"expected_floor": null}}',
    "expected_floor_fraction": '{"n": 3, "word": [1, 2], "meta": {"expected_floor": 0.5}}',
    "expected_floor_true": '{"n": 3, "word": [1, 2], "meta": {"expected_floor": true}}',
    "g3_zero_denominator": '{"n": 3, "word": [1, 2], "meta": {"g3": "1/0"}}',
    "expected_fdtc_zero_denominator": '{"n": 3, "word": [1, 2], "meta": {"expected_fdtc": "1/0"}}',
    "finite_concordance_order_string": '{"n": 3, "word": [1, -2], "meta": {"finite_concordance_order": "false"}}',
    "finite_concordance_order_number": '{"n": 3, "word": [1, -2], "meta": {"finite_concordance_order": 1}}',
    "qp_length_underscore": '{"n": 3, "word": [1, 2], "meta": {"qp_length": "1_0"}}',
    "expected_floor_padded": '{"n": 3, "word": [1, 2], "meta": {"expected_floor": " 0 "}}',
    "g4_non_ascii_digit": '{"n": 3, "word": [1, 2], "meta": {"g4": "\\u0661"}}',
    "deep_nesting": "[" * 100000,
    "huge_index": '{"n": 1004327203549560832000, "word": [3387215635]}',
    "g3_exponent": '{"n": 3, "word": [1, 2], "meta": {"g3": "1e10000000"}}',
    # Numbers longer than Python reads as text: refused by the digit limit,
    # and not echoed.
    "qp_length_5000_digits":
        f'{{"n": 3, "word": [1, 2], "meta": {{"qp_length": "{"9" * 5000}"}}}}',
    "expected_fdtc_5000_digits":
        f'{{"n": 3, "word": [1, 2], "meta": {{"expected_fdtc": "{"9" * 5000}"}}}}',
    "expected_floor_5000_digits":
        f'{{"n": 3, "word": [1, 2], "meta": {{"expected_floor": "-{"9" * 5000}"}}}}',
    "json_integer_5000_digits": f'{{"n": 3, "word": [1, 2], "meta": {{"g3": {"9" * 5000}}}}}',
}.items():
    _case(f"audit_{_name}", ["audit", "{corpus}"], _line + "\n" + _GOOD_LINE)

# A genus of 4,300 nines, whose question15 bound 2*g4 + n - 2 is too long
# to print: one error record for line 1 in text and JSON alike.
_NINES = "9" * 4300
_case("audit_g4_oversized", ["audit", "{corpus}"],
      f'{{"n": 3, "word": [1, 2], "meta": {{"g4": "{_NINES}"}}}}\n{{"n": 3, "word": [1, 2]}}\n')

# A CR inside a line is JSON whitespace: one record, not two error records.
_case("audit_stray_cr", ["audit", "{corpus}"], '{"n": 3,\r "word": [1, 2]}\n')

# bounds: each flag, an explicit predicate order, links and input errors.
_case("bounds_g3", ["bounds", "--strands", "3", KNOT, "--g3", "3"])
_case("bounds_g4", ["bounds", "--strands", "3", KNOT, "--g4", "0"])
_case("bounds_g4_upper", ["bounds", "--strands", "3", KNOT, "--g4-upper", "5/2"])
_case("bounds_finite_concordance_order", ["bounds", "--strands", "3", "1 -2",
                                          "--finite-concordance-order"])
_case("bounds_qp_length", ["bounds", "--strands", "3", KNOT, "--qp-length", "8"])
_case("bounds_all_inputs_explicit_order",
      ["bounds", "--strands", "3", KNOT, "--g3", "3", "--g4", "3", "--g4-upper", "4",
       "--finite-concordance-order", "--qp-length", "8",
       "--predicates", "qp,slice3,question15,ito"])
_case("bounds_predicate_subset", ["bounds", "--strands", "3", KNOT, "--g3", "3",
                                  "--qp-length", "8", "--predicates", "qp"])
_case("bounds_empty_predicates", ["bounds", "--strands", "3", KNOT, "--g3", "3",
                                  "--predicates", ""])
_case("bounds_four_strands", ["bounds", "--strands", "4", "1 2 3 1 2 3",
                              "--finite-concordance-order", "--g4-upper", "1"])
_case("bounds_missing_inputs", ["bounds", "--strands", "3", KNOT, "--predicates", "qp,ito"])
_case("bounds_qp_length_zero", ["bounds", "--strands", "3", KNOT, "--qp-length", "0"])
_case("bounds_bad_g3", ["bounds", "--strands", "3", KNOT, "--g3", "abc"])
_case("bounds_g3_zero_denominator", ["bounds", "--strands", "3", KNOT, "--g3", "1/0"])
_case("bounds_negative_g4", ["bounds", "--strands", "3", "1 2", "--g4=-5"])
# Numbers that int() and Fraction() would read loosely.
_case("bounds_qp_length_underscore", ["bounds", "--strands", "3", KNOT, "--qp-length", "1_0"])
_case("bounds_g3_padded", ["bounds", "--strands", "3", KNOT, "--g3", " 3 "])
_case("bounds_g4_non_ascii_digit", ["bounds", "--strands", "3", KNOT, "--g4", "\u0661"])
# An exponent, which Fraction() would read by computing 10**10000000.
_case("bounds_g3_exponent", ["bounds", "--strands", "3", KNOT, "--g3", "1e10000000"])
_case("bounds_g4_oversized", ["bounds", "--strands", "3", KNOT, "--g4", _NINES])
_case("bounds_g4_5000_digits", ["bounds", "--strands", "3", KNOT, "--g4", "9" * 5000])
_case("bounds_qp_length_5000_digits", ["bounds", "--strands", "3", KNOT, "--qp-length",
                                       "9" * 5000])
_case("bounds_link", ["bounds", "--strands", "3", "1 1"])
_case("bounds_link_with_g3", ["bounds", "--strands", "3", "1 1", "--g3", "1"])
_case("bounds_link_with_predicates", ["bounds", "--strands", "3", "1 1", "--predicates", ""])
_case("bounds_destabilizable", ["bounds", "--strands", "3", "1 2 -1 2"])

# Word tokens that int() and the regex digit class would read loosely.
_case("sign_non_ascii_digit", ["sign", "--strands", "3", "\u0661 2"])
_case("parse_underscore", ["parse", "--strands", "12", "1_0 -2"])
_case("parse_alias_non_ascii_digit", ["parse", "--strands", "3", "s\u0661 s2"])

# Integer text that int() would read loosely: a usage error for an option
# or positional, an input error for a syllable's generator field.
_case("sign_strands_underscore", ["sign", "--strands", "1_0", "1 2"])
_case("sign_cap_padded", ["sign", "--strands", "3", "--cap", " 5", "1 2"])
_case("murasugi_class_non_ascii_digit",
      ["murasugi", "--class", "\u0661", "--d", "\u0660", "--a", "1", "2"])
_case("family_torus_non_ascii_digit", ["family", "torus", "\u0663", "2"])
_case("qp_non_ascii_generator", ["qp", "--strands", "3", " | \u0661 | +"])
# A family word past the letter budget, refused before it is built.
_case("family_torus_oversized", ["family", "torus", "2", "1000000000000000000"])
# A full twist past the letter budget, refused before it is built.
_case("floor_strands_oversized", ["floor", "--strands", "1000000000000000000", "1"])
_case("fdtc_strands_oversized", ["fdtc", "--strands", "1000000000000000000", "1"])
# A negative step cap, refused before any search work.
_case("fdtc_cap_negative", ["fdtc", "--strands", "3", "--cap", "-1", "1 2"])
# A line over the step cap is that line's error record; the next is audited.
_case("audit_over_cap", ["audit", "{corpus}", "--cap", "2"],
      '{"n": 3, "word": [1, -2, 1, -2, 1, -2, 1, -2, 1, -2]}\n{"n": 3, "word": [1, 2]}\n')

# qp, with and without --check.
_case("qp", ["qp", "--strands", "3", "2 | 1 | +; | 2 | +"])
_case("qp_mixed", ["qp", "--strands", "3", " | 1 | +; 1 | 2 | +; | 2 | -"])
_case("qp_mixed_check", ["qp", "--strands", "3", " | 1 | +; 1 | 2 | +; | 2 | -", "--check"])
_case("qp_link_check", ["qp", "--strands", "4", " | 1 | +; | 3 | +", "--check"])
_case("qp_two_strands_check", ["qp", "--strands", "2", " | 1 | +", "--check"])
_case("qp_empty_check", ["qp", "--strands", "3", "", "--check"])
_case("qp_bad_generator", ["qp", "--strands", "3", "2 | x | +"])


def run_case(argv: list[str], corpus: str | None, workdir: Path) -> dict:
    """Exit code, stdout and stderr of one CLI run, split into lines."""
    stdin = sys.stdin
    if corpus is not None:
        path = workdir / "corpus.jsonl"
        path.write_bytes(corpus.encode("utf-8"))
        argv = [str(path) if arg == "{corpus}" else arg for arg in argv]
        sys.stdin = io.TextIOWrapper(io.BytesIO(corpus.encode("utf-8")))
    out, err = io.StringIO(), io.StringIO()
    try:
        # A usage error's text is wrapped to the terminal width; pin it.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return {
        "code": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


def _expected() -> dict:
    return json.loads(OUTPUTS.read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    argv, corpus = CASES[name]
    assert run_case(argv, corpus, tmp_path) == _expected()[name]


def test_readme_library_snippet():
    """The README's python block runs line by line, and each expression
    line's value has the type and value of its comment, read as Python."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    checked = 0
    for line in snippet.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if isinstance(ast.parse(code).body[0], ast.Expr):
            want = eval(comment, {"Fraction": Fraction, "OrderSign": OrderSign})
            value = eval(code, namespace)
            assert (type(value), value) == (type(want), want), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 3


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {
            name: run_case(argv, corpus, Path(tmp)) for name, (argv, corpus) in sorted(CASES.items())
        }
    OUTPUTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {OUTPUTS}")
