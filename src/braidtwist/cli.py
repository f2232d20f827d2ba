"""Command-line front end and the JSON-lines corpus auditor.

Exit codes: 0 success, 1 domain error (bad word, bad parameters, cap
exceeded, audit entries that failed to process), 2 usage error.  A
reader that closes stdout early, as `| head` does, ends a command
quietly with exit code 0.
Machine-facing output uses one JSON object per result; `audit` emits
JSON-lines, one record per corpus entry, in input order.  Rationals are
serialized as exact fraction strings ("2/3", "-1/2", "3") and round-trip
through Fraction().
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

from .braid import (
    BraidWord,
    _plain,
    closure_components,
    exponent_counts,
    format_word,
    integer,
    parse_word,
)
from .fdtc import (
    dehornoy_floor,
    destab_bounds,
    fdtc_exact,
    word_sign_bounds,
)
from .families import BTtau, FullTwists, Ktd, Torus, generate
from .genus_bounds import PREDICATES, audit_bounds, tau_s_bounds
from .murasugi import (
    Class1,
    Class2,
    Class3,
    cross_check,
    fdtc_3braid,
    is_quasi_alternating,
    to_word,
)
from .ordering import ReductionCapError, compare, order_sign
from .quasipositive import expand, parse_syllables, qp_bt_bound_holds, qp_report


def _fraction_text(value) -> str:
    """json.dumps hook: a Fraction as its text, anything else unencodable."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _print_json(obj) -> None:
    print(json.dumps(obj, default=_fraction_text))


def _cmd_parse(args) -> int:
    w = parse_word(args.word, args.strands)
    if args.json:
        k, l, e = exponent_counts(w)
        _print_json(
            {
                "strands": w.strands,
                "letters": list(w.letters),
                "text": format_word(w),
                "length": len(w),
                "exponent_sum": e,
                "closure_components": closure_components(w),
            }
        )
    else:
        print(format_word(w))
    return 0


def _cmd_sign(args) -> int:
    w = parse_word(args.word, args.strands)
    result = order_sign(w, cap=args.cap)
    if args.json:
        _print_json({"sign": result.value})
    else:
        print(result.value)
    return 0


def _cmd_compare(args) -> int:
    a = parse_word(args.left, args.strands)
    b = parse_word(args.right, args.strands)
    result = compare(a, b, cap=args.cap)
    if args.json:
        _print_json({"comparison": result.value})
    else:
        print(result.value)
    return 0


def _cmd_floor(args) -> int:
    w = parse_word(args.word, args.strands)
    result = dehornoy_floor(w, cap=args.cap)
    if args.json:
        _print_json({"floor": result.floor, "convention": result.convention})
    else:
        print(result.floor)
    return 0


def _cmd_fdtc(args) -> int:
    w = parse_word(args.word, args.strands)
    r = fdtc_exact(w, cap=args.cap)
    certificate = {
        "N": r.power_used,
        "floor": r.floor_of_power,
        "lo": str(r.interval[0]),
        "hi": str(r.interval[1]),
    }
    if args.json:
        _print_json({"value": str(r.value), "certificate": certificate})
    else:
        print(r.value)
        print(f"certificate {json.dumps(certificate)}")
    return 0


def _cmd_bounds(args) -> int:
    w = parse_word(args.word, args.strands)
    knot = closure_components(w) == 1
    lower_zero, upper_zero = word_sign_bounds(w)
    destab = destab_bounds(w)
    report: dict = {
        "strands": w.strands,
        "knot": knot,
        "bt_lower_zero": lower_zero,
        "bt_upper_zero": upper_zero,
        "destab": list(destab) if destab is not None else None,
    }
    audit_kwargs = _audit_kwargs({k: v for k, v in vars(args).items() if v is not None})
    if knot:
        b = tau_s_bounds(w)
        report["tau"] = [b.tau_lo, b.tau_hi]
        report["s"] = [b.s_lo, b.s_hi]
        # Adds floor, fdtc and predicates; strands is already there.
        report.update(audit_bounds(w, predicates=args.predicates, cap=args.cap, **audit_kwargs))
    elif audit_kwargs or args.predicates is not None:
        raise ValueError("genus and concordance predicates need a knot closure")
    if args.json:
        _print_json(report)
        return 0
    if knot:
        print(f"tau in [{report['tau'][0]}, {report['tau'][1]}]")
        print(f"s in [{report['s'][0]}, {report['s'][1]}]")
        print(f"floor {report['floor']}")
        print(f"fdtc {report['fdtc']}")
    else:
        print(f"closure has {closure_components(w)} components; tau/s bounds need a knot")
    certs = []
    if lower_zero:
        certs.append("BT >= 0")
    if upper_zero:
        certs.append("BT <= 0")
    print(f"sign bounds: {' and '.join(certs) if certs else 'none'}")
    if destab is not None:
        print(f"destabilization bounds: [{destab[0]}, {destab[1]}]")
    else:
        print("destabilization bounds: none detected")
    for entry in report.get("predicates", ()):
        detail = {
            k: str(v) for k, v in entry.items() if k not in ("predicate", "status")
        }
        print(f"{entry['predicate']}: {entry['status']} {json.dumps(detail)}")
    return 0


def _cmd_qp(args) -> int:
    s = parse_syllables(args.syllables, args.strands)
    r = qp_report(s)
    word = expand(s)
    report = {"strands": s.strands, **dataclasses.asdict(r), "expanded": format_word(word)}
    if args.check:
        report["fdtc"] = fdtc_exact(word, cap=args.cap).value
        report["bound_check"] = qp_bt_bound_holds(s, report["fdtc"])
    if args.json:
        _print_json(report)
        return 0
    for key, value in report.items():
        if isinstance(value, tuple):
            value = f"[{', '.join(str(v) for v in value)}]"
        print(f"{key}: {value}")
    return 0


def _cmd_murasugi(args) -> int:
    if args.cls == 1:
        if args.a is None:
            raise ValueError("class 1 needs --a exponents")
        form = Class1(args.d, tuple(args.a))
    elif args.cls == 2:
        if args.m is None:
            raise ValueError("class 2 needs --m")
        form = Class2(args.d, args.m)
    else:
        if args.m is None:
            raise ValueError("class 3 needs --m")
        form = Class3(args.d, args.m)
    w = to_word(form)
    report = {
        "class": args.cls,
        "d": args.d,
        "text": format_word(w),
        "letters": list(w.letters),
        "fdtc": fdtc_3braid(form),
        "quasi_alternating": is_quasi_alternating(form),
    }
    if args.cls == 1:
        report["a"] = list(form.a)
    else:
        report["m"] = form.m
    if args.cross_check:
        report["cross_check"] = cross_check(form, cap=args.cap)
    if args.json:
        _print_json(report)
        return 0
    print(report["text"])
    print(f"fdtc {report['fdtc']}")
    print(f"quasi-alternating: {'yes' if report['quasi_alternating'] else 'no'}")
    if args.cross_check:
        print(f"cross-check: {'agree' if report['cross_check'] else 'DISAGREE'}")
    return 0


def _cmd_family(args) -> int:
    name = args.name
    if name == "ktd":
        spec = Ktd(args.m, args.k)
    elif name == "bttau":
        spec = BTtau(args.k)
    elif name == "torus":
        spec = Torus(args.p, args.q)
    else:
        base = parse_word(args.word, args.strands)
        spec = FullTwists(base, args.t)
    w = generate(spec)
    if args.json:
        _print_json(
            {
                "family": name,
                "strands": w.strands,
                "text": format_word(w),
                "letters": list(w.letters),
            }
        )
    else:
        print(format_word(w))
    return 0


def _fraction(key: str, value) -> Fraction:
    if type(value) is not str or _plain(value):
        try:
            return Fraction(str(value))
        except ZeroDivisionError:
            raise ValueError(f"{key} has a zero denominator: {value!r}") from None
        except ValueError:
            pass
    raise ValueError(f"{key} must be a rational number, got {json.dumps(value)}")


def _integer(key: str, value) -> int:
    # int() alone would truncate 1.5 and true to 1, and raise TypeError on null or [1].
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    if type(value) is str:
        try:
            return integer(value)
        except ValueError:
            pass
    raise ValueError(f"{key} must be an integer, got {json.dumps(value)}")


def _boolean(key: str, value) -> bool | None:
    # Truthiness would read the string "false" as yes; null means not supplied.
    if value is None or type(value) is bool:
        return value
    raise ValueError(f"{key} must be true, false or null, got {json.dumps(value)}")


# The audit_bounds inputs, in the order they are read (so the first bad one
# is the one reported), each with its reader.
_AUDIT_INPUTS = {
    "g3": _fraction,
    "g4": _fraction,
    "g4_upper": _fraction,
    "finite_concordance_order": _boolean,
    "qp_length": _integer,
}


def _audit_kwargs(supplied) -> dict:
    """audit_bounds keyword arguments from the bounds options that were given
    or from a corpus line's meta object; keys that are not inputs are ignored.
    """
    return {
        key: read(key, supplied[key]) for key, read in _AUDIT_INPUTS.items() if key in supplied
    }


def _audit_one(entry: dict, predicates, cap) -> dict:
    if not isinstance(entry, dict):
        raise ValueError("corpus entry must be a JSON object")
    try:
        n = entry["n"]
        letters = entry["word"]
    except KeyError as missing:
        raise ValueError(f"corpus entry lacks required key {missing}") from None
    w = BraidWord(n, letters)
    meta = entry.get("meta") or {}
    if not isinstance(meta, dict):
        raise ValueError("meta must be a JSON object")
    record = audit_bounds(w, predicates=predicates, cap=cap, **_audit_kwargs(meta))
    record["word"] = list(w.letters)
    expected = {}
    for key, read in (("floor", _integer), ("fdtc", _fraction)):
        if f"expected_{key}" in meta:
            want = read(f"expected_{key}", meta[f"expected_{key}"])
            expected[key] = {"want": want, "matched": record[key] == want}
    if expected:
        record["expected"] = expected
    return record


def _cmd_audit(args) -> int:
    stream = sys.stdin if args.corpus == "-" else open(args.corpus, encoding="utf-8")
    counts = {"entries": 0, "errors": 0, "pass": 0, "fail": 0,
              "counterexample-candidate": 0, "skipped": 0, "mismatches": 0}
    try:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            counts["entries"] += 1
            try:
                entry = json.loads(line)
                record = _audit_one(entry, args.predicates, args.cap)
            except (ValueError, ReductionCapError) as e:
                counts["errors"] += 1
                if args.json:
                    _print_json({"line": lineno, "error": str(e)})
                else:
                    print(f"line {lineno}: error: {e}")
                continue
            record = {"line": lineno, **record}
            for entry_result in record["predicates"]:
                counts[entry_result["status"]] += 1
            for check in record.get("expected", {}).values():
                if not check["matched"]:
                    counts["mismatches"] += 1
            if args.json:
                _print_json(record)
            else:
                parts = [f"floor={record['floor']}", f"fdtc={record['fdtc']}"]
                parts += [f"{p['predicate']}:{p['status']}" for p in record["predicates"]]
                parts += [
                    f"expected_{key}:{'ok' if check['matched'] else 'MISMATCH'}"
                    for key, check in record.get("expected", {}).items()
                ]
                print(f"line {lineno}: " + " ".join(parts))
    finally:
        if stream is not sys.stdin:
            stream.close()
    summary = {"summary": counts}
    if args.json:
        _print_json(summary)
    else:
        print(
            f"audited {counts['entries']} entries: {counts['pass']} pass, "
            f"{counts['fail']} fail, {counts['counterexample-candidate']} "
            f"counterexample-candidate, {counts['skipped']} skipped, "
            f"{counts['mismatches']} expectation mismatches, {counts['errors']} errors"
        )
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

    def add_common(p):
        p.add_argument("--strands", type=integer, required=True, help="number of strands")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument(
            "--cap", type=integer, default=None, help="handle reduction step cap"
        )

    p = sub.add_parser("parse", help="validate a word and echo its canonical text")
    add_common(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("sign", help="order sign of a word against the identity")
    add_common(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("compare", help="order two words: LT, EQ or GT")
    add_common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("floor", help="Dehornoy floor")
    add_common(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_floor)

    p = sub.add_parser("fdtc", help="exact fractional Dehn twist coefficient")
    add_common(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_fdtc)

    p = sub.add_parser("bounds", help="tau/s windows, sign and destabilization bounds")
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
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=integer, default=None)
    p.set_defaults(func=_cmd_murasugi)

    p = sub.add_parser("family", help="emit a word from a named family")
    fam = p.add_subparsers(dest="name", required=True)

    f = fam.add_parser("ktd", help="3-braid torus words with negative twist tails")
    f.add_argument("m", type=integer)
    f.add_argument("k", type=integer)
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=_cmd_family)

    f = fam.add_parser("bttau", help="full twists against a negative tail")
    f.add_argument("k", type=integer)
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=_cmd_family)

    f = fam.add_parser("torus", help="(p,q) torus braids")
    f.add_argument("p", type=integer)
    f.add_argument("q", type=integer)
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=_cmd_family)

    f = fam.add_parser("fulltwists", help="a base word times a power of the full twist")
    f.add_argument("t", type=integer)
    f.add_argument("word")
    f.add_argument("--strands", type=integer, required=True,
                   help="strand count for the base word")
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=_cmd_family)

    p = sub.add_parser("audit", help="run bound predicates over a JSON-lines corpus")
    p.add_argument("corpus", nargs="?", default="-",
                   help="corpus file, or - for stdin (default)")
    p.add_argument("--predicates", type=_predicate_list, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=integer, default=None)
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
        return args.func(args)
    except BrokenPipeError:  # not an input error: main() ends quietly
        raise
    except (ReductionCapError, ValueError, OSError) as e:
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
