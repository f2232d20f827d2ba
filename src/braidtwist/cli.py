"""Command-line front end and the JSON-lines corpus auditor.

Exit codes: 0 success, 1 domain error (bad word, bad parameters, cap
exceeded, audit entries that failed to process), 2 usage error.  A
reader that closes stdout early, as `| head` does, ends a command
quietly with exit code 0.
Every result is printed by one function, `_emit`: each command builds
its report once, and its text from the same values.  Under --json the
report is printed as one JSON object per result; `audit` emits
JSON-lines, one record per corpus entry, in input order, then a
summary.  Rationals are serialized as exact fraction strings ("2/3",
"-1/2", "3") and round-trip through Fraction().
`audit` reads its corpus, a file or stdin alike, as bytes split at "\n"
only, decodes each line as strict UTF-8 and skips lines of ASCII
whitespace.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from .braid import (
    BraidWord,
    closure_components,
    exponent_counts,
    format_word,
    integer,
    parse_word,
)
from .fdtc import FLOOR_CONVENTION, dehornoy_floor, fdtc_exact
from .families import BTtau, FullTwists, Ktd, Torus, generate
from .genus_bounds import (
    INPUTS,
    PREDICATES,
    _number,
    audit_bounds,
    tau_s_bounds,
)
from .murasugi import (
    Class1,
    Class2,
    Class3,
    cross_check,
    fdtc_3braid,
    is_quasi_alternating,
    to_word,
)
from .ordering import compare, order_sign
from .quasipositive import parse_syllables, qp_bt_check, qp_report


def _fraction_text(value) -> str:
    """json.dumps hook: a Fraction as its text, anything else unencodable."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(args, report: dict, text: str) -> str:
    """One result as printed: the report as a JSON object under --json, else the text."""
    return json.dumps(report, default=_fraction_text) if args.json else text


def _emit(args, report: dict, text: str) -> None:
    print(_render(args, report, text))


def _cmd_parse(args) -> None:
    w = parse_word(args.word, args.strands)
    text = format_word(w)
    report = {
        "strands": w.strands,
        "letters": list(w.letters),
        "text": text,
        "length": len(w),
        "exponent_sum": exponent_counts(w)[2],
        "closure_components": closure_components(w),
    }
    _emit(args, report, text)


def _cmd_sign(args) -> None:
    sign = order_sign(parse_word(args.word, args.strands), cap=args.cap).value
    _emit(args, {"sign": sign}, sign)


def _cmd_compare(args) -> None:
    a = parse_word(args.left, args.strands)
    b = parse_word(args.right, args.strands)
    comparison = compare(a, b, cap=args.cap).value
    _emit(args, {"comparison": comparison}, comparison)


def _cmd_floor(args) -> None:
    floor = dehornoy_floor(parse_word(args.word, args.strands), cap=args.cap)
    _emit(args, {"floor": floor, "convention": FLOOR_CONVENTION}, str(floor))


def _cmd_fdtc(args) -> None:
    r = fdtc_exact(parse_word(args.word, args.strands), cap=args.cap)
    certificate = {
        "N": r.power_used,
        "floor": r.floor_of_power,
        "lo": str(r.interval[0]),
        "hi": str(r.interval[1]),
    }
    _emit(args, {"value": str(r.value), "certificate": certificate},
          f"{r.value}\ncertificate {json.dumps(certificate)}")


def _cmd_bounds(args) -> None:
    w = parse_word(args.word, args.strands)
    components = closure_components(w)
    report: dict = {"strands": w.strands, "knot": components == 1}
    if components == 1:
        report.update(tau_s_bounds(w))
        lines = [f"{key} in [{report[key][0]}, {report[key][1]}]" for key in ("tau", "s")]
    else:
        lines = [f"closure has {components} components; tau/s bounds need a knot"]
    inputs = {key: getattr(args, key) for key in INPUTS if getattr(args, key) is not None}
    # Adds floor, fdtc and predicates; strands is already there.
    report.update(audit_bounds(w, predicates=args.predicates, cap=args.cap, **inputs))
    lines += [f"floor {report['floor']}", f"fdtc {report['fdtc']}"]
    for entry in report["predicates"]:
        detail = {k: str(v) for k, v in entry.items() if k not in ("predicate", "status")}
        lines.append(f"{entry['predicate']}: {entry['status']} {json.dumps(detail)}")
    _emit(args, report, "\n".join(lines))


def _cmd_qp(args) -> None:
    s = parse_syllables(args.syllables, args.strands)
    report = {"strands": s.strands, **qp_report(s), "expanded": format_word(s.word)}
    if args.check:
        report["fdtc"], report["bound_check"] = qp_bt_check(s, cap=args.cap)
    _emit(args, report, "\n".join(f"{key}: {value}" for key, value in report.items()))


def _cmd_murasugi(args) -> None:
    if args.cls == 1:
        if args.a is None:
            raise ValueError("class 1 needs --a exponents")
        form = Class1(args.d, tuple(args.a))
        shape = {"a": list(form.a)}
    else:
        if args.m is None:
            raise ValueError(f"class {args.cls} needs --m")
        form = (Class2 if args.cls == 2 else Class3)(args.d, args.m)
        shape = {"m": form.m}
    w = to_word(form)
    report = {
        "class": args.cls,
        "d": args.d,
        "text": format_word(w),
        "letters": list(w.letters),
        "fdtc": fdtc_3braid(form),
        "quasi_alternating": is_quasi_alternating(form),
        **shape,
    }
    lines = [
        report["text"],
        f"fdtc {report['fdtc']}",
        f"quasi-alternating: {'yes' if report['quasi_alternating'] else 'no'}",
    ]
    if args.cross_check:
        report["cross_check"] = cross_check(form, cap=args.cap)
        lines.append(f"cross-check: {'agree' if report['cross_check'] else 'DISAGREE'}")
    _emit(args, report, "\n".join(lines))


def _cmd_family(args) -> None:
    w = generate(args.spec(args))
    text = format_word(w)
    _emit(args, {"family": args.name, "strands": w.strands, "text": text,
                 "letters": list(w.letters)}, text)


def _audit_one(entry: dict, predicates, cap) -> dict:
    if not isinstance(entry, dict):
        raise ValueError("corpus entry must be a JSON object")
    try:
        n = entry["n"]
        letters = entry["word"]
    except KeyError as missing:
        raise ValueError(f"corpus entry lacks required key {missing}") from None
    w = BraidWord(n, letters)
    meta = entry.get("meta")
    meta = {} if meta in (None, [], "") else meta  # null or an empty value is no meta
    if not isinstance(meta, dict):
        raise ValueError("meta must be a JSON object")
    # Read before the engine runs, as audit_bounds reads its inputs.
    expected = {key: _number(f"expected_{key}", meta[f"expected_{key}"], integral=key == "floor")
                for key in ("floor", "fdtc") if f"expected_{key}" in meta}
    inputs = {key: meta[key] for key in INPUTS if key in meta}  # other keys are ignored
    record = audit_bounds(w, predicates=predicates, cap=cap, **inputs)
    record["word"] = list(w.letters)
    if expected:
        record["expected"] = {key: {"want": want, "matched": record[key] == want}
                              for key, want in expected.items()}
    return record


def _entry(line: bytes):
    """The JSON value of one corpus line.  A line that is not UTF-8 fails
    here, alone, with the first byte that is not; so does a line that
    nests too deeply or holds an integer too long for int() to read."""
    text = line.decode("utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refused a literal, as it does past sys.get_int_max_str_digits()
        raise ValueError(
            f"a JSON integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _cmd_audit(args) -> int:
    stdin = getattr(sys.stdin, "buffer", None)  # None if `<&-` closed stdin, or text-only
    if args.corpus != "-":
        source = open(args.corpus, "rb")
    elif stdin is None:
        raise OSError("standard input is closed or not a byte stream; name a corpus file")
    else:
        source = contextlib.nullcontext(stdin)  # stdin stays open
    counts = {"entries": 0, "errors": 0, "pass": 0, "fail": 0,
              "counterexample-candidate": 0, "skipped": 0, "mismatches": 0}
    with source as stream:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            counts["entries"] += 1
            try:
                record = {"line": lineno, **_audit_one(_entry(line), args.predicates, args.cap)}
                parts = [f"floor={record['floor']}", f"fdtc={record['fdtc']}"]
                parts += [f"{p['predicate']}:{p['status']}" for p in record["predicates"]]
                parts += [
                    f"expected_{key}:{'ok' if check['matched'] else 'MISMATCH'}"
                    for key, check in record.get("expected", {}).items()
                ]
                # Rendered before it counts: a number too long to print as
                # text makes this line an error record, not the audit's end.
                rendered = _render(args, record, f"line {lineno}: " + " ".join(parts))
            except ValueError as e:
                counts["errors"] += 1
                _emit(args, {"line": lineno, "error": str(e)}, f"line {lineno}: error: {e}")
                continue
            for entry_result in record["predicates"]:
                counts[entry_result["status"]] += 1
            for check in record.get("expected", {}).values():
                if not check["matched"]:
                    counts["mismatches"] += 1
            print(rendered)
    _emit(args, {"summary": counts}, (
        f"audited {counts['entries']} entries: {counts['pass']} pass, "
        f"{counts['fail']} fail, {counts['counterexample-candidate']} "
        f"counterexample-candidate, {counts['skipped']} skipped, "
        f"{counts['mismatches']} expectation mismatches, {counts['errors']} errors"
    ))
    return 1 if counts["errors"] else 0


def _predicate_list(text: str) -> list[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    for name in names:
        if name not in PREDICATES:
            raise argparse.ArgumentTypeError(
                f"unknown predicate {name!r}, choose from {', '.join(PREDICATES)}"
            )
    return names


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidtwist",
        description="Dehornoy order, floors, and fractional Dehn twist coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, strands="number of strands", cap=True):
        """--strands (if it has help text), --json and --cap (if cap), in that order."""
        if strands:
            p.add_argument("--strands", type=integer, required=True, help=strands)
        p.add_argument("--json", action="store_true", help="emit JSON")
        if cap:
            p.add_argument("--cap", type=integer, default=None, help="handle reduction step cap")

    for name, func, help_text, *positionals in (
        ("parse", _cmd_parse, "validate a word and echo its canonical text", "word"),
        ("sign", _cmd_sign, "order sign of a word against the identity", "word"),
        ("compare", _cmd_compare, "order two words: LT, EQ or GT", "left", "right"),
        ("floor", _cmd_floor, "Dehornoy floor", "word"),
        ("fdtc", _cmd_fdtc, "exact fractional Dehn twist coefficient", "word"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=func)

    p = sub.add_parser("bounds", help="floor and exact FDTC of any closure; "
                       "tau/s windows and bound predicates of a knot")
    add_common(p)
    p.add_argument("word")
    p.add_argument("--g3", default=None, help="known Seifert genus of the closure")
    p.add_argument("--g4", default=None, help="known smooth four-genus")
    p.add_argument("--g4-upper", dest="g4_upper", default=None, help="upper bound for g4")
    p.add_argument(
        "--finite-concordance-order",
        action="store_true",
        default=None,
        help="closure has finite concordance order",
    )
    p.add_argument("--qp-length", dest="qp_length", default=None,
                   help="band count of a known quasipositive form")
    p.add_argument("--predicates", type=_predicate_list, default=None,
                   help=f"comma-separated subset of {','.join(PREDICATES)}")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("qp", help="syllable-form report and quasipositive bounds")
    add_common(p)
    p.add_argument("syllables", help="semicolon-separated 'conjugator | generator | sign'")
    p.add_argument("--check", action="store_true",
                   help="also verify the twist bound with the engine")
    p.set_defaults(func=_cmd_qp)

    p = sub.add_parser("murasugi", help="3-braid normal forms")
    p.add_argument("--class", dest="cls", type=integer, choices=(1, 2, 3), required=True)
    p.add_argument("--d", type=integer, required=True, help="full twist exponent")
    p.add_argument("--a", type=integer, nargs="+", default=None, help="class 1 exponents")
    p.add_argument("--m", type=integer, default=None, help="class 2/3 exponent")
    p.add_argument("--cross-check", dest="cross_check", action="store_true",
                   help="verify the closed form against the engine")
    add_common(p, strands=None)
    p.set_defaults(func=_cmd_murasugi)

    p = sub.add_parser("family", help="emit a word from a named family")
    fam = p.add_subparsers(dest="name", required=True)
    # Each family sets the spec it builds from its arguments.
    for name, help_text, positionals, spec in (
        ("ktd", "3-braid torus words with negative twist tails", ("m", "k"),
         lambda a: Ktd(a.m, a.k)),
        ("bttau", "full twists against a negative tail", ("k",), lambda a: BTtau(a.k)),
        ("torus", "(p,q) torus braids", ("p", "q"), lambda a: Torus(a.p, a.q)),
    ):
        f = fam.add_parser(name, help=help_text)
        for positional in positionals:
            f.add_argument(positional, type=integer)
        add_common(f, strands=None, cap=False)
        f.set_defaults(func=_cmd_family, spec=spec)
    f = fam.add_parser("fulltwists", help="a base word times a power of the full twist")
    f.add_argument("t", type=integer)
    f.add_argument("word")
    add_common(f, strands="strand count for the base word", cap=False)
    f.set_defaults(func=_cmd_family,
                   spec=lambda a: FullTwists(parse_word(a.word, a.strands), a.t))

    p = sub.add_parser("audit", help="run bound predicates over a JSON-lines corpus")
    p.add_argument("corpus", nargs="?", default="-",
                   help="corpus file, or - for stdin (default)")
    p.add_argument("--predicates", type=_predicate_list, default=None)
    add_common(p, strands=None)
    p.set_defaults(func=_cmd_audit)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args) or 0
    except BrokenPipeError:  # not an input error: main() ends quietly
        raise
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
