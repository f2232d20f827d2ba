"""Concordance-invariant bounds and the audit predicates built on them.

tau_s_bounds reads off the writhe-based windows {"tau": (lo, hi),
"s": (2*lo, 2*hi)} of a knot presented as a braid closure.  Every
g3/g4 an audit reads is caller-supplied ground truth, never invented here.

audit_bounds evaluates the floor and twist-coefficient inequalities a
braid closure is expected to satisfy.  They are rows of one table, which
names each predicate's inputs and the function that turns the inputs,
the floor and BT into a verdict; PREDICATES lists the rows in table
order:

  ito         |floor| < (4*g3 - 2)/(n + 2) + 3/2  and  |BT| <= g3 + 2
  question15  |BT| <= 2*g4 + n - 2   (open question: failures are
              counterexample candidates, not errors)
  slice3      |BT| <= 1 for 3-braids whose closure has finite
              concordance order
  qp          0 <= BT <= m - 1 for quasipositive words of m bands on 3
              or more strands, plus the question15 form when g4 is supplied

INPUTS, a second table, names the five inputs the predicates read (g3,
g4, g4_upper, finite_concordance_order, qp_length), each with its
reader, which holds the whole check of a value: a genus must be a
rational >= 0 and qp_length an integer >= 1.  audit_bounds reads every
value through it, whether a library caller supplies it or the CLI
passes a bounds flag or corpus meta.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, NamedTuple

from .braid import BraidWord, _plain, closure_components, exponent_counts, integer
# dehornoy_floor is not called here; bench/spans.py wraps it under this module's name.
from .fdtc import dehornoy_floor, fdtc_exact  # noqa: F401
from .quasipositive import _bt_upper


def tau_s_bounds(w: BraidWord) -> dict:
    """Windows for tau and s of the closure knot, from the word as written.

    With k positive letters, l negative letters, and n strands:
    lo = (k-l-n+1)/2 <= tau <= hi = (k-l+n-1)/2, and s is sandwiched by
    twice those ends: {"tau": (lo, hi), "s": (2*lo, 2*hi)}, each end a
    Fraction, the windows `braidtwist bounds` prints.  The bounds depend
    on the chosen word, not just the closure: a wasteful word widens
    nothing but shifts the window.
    """
    if closure_components(w) != 1:
        raise ValueError("closure is not a knot")
    k, l, _ = exponent_counts(w)
    n = w.strands
    lo, hi = Fraction(k - l - n + 1, 2), Fraction(k - l + n - 1, 2)
    return {"tau": (lo, hi), "s": (2 * lo, 2 * hi)}


def _fraction(key: str, value) -> Fraction:
    # Fraction() would read "1e10000000" by computing 10**10000000.
    if type(value) is not str or (_plain(value) and "e" not in value.lower()):
        try:
            return Fraction(str(value))
        except ZeroDivisionError:
            raise ValueError(f"{key} has a zero denominator: {value!r}") from None
        except ValueError:
            pass
    raise ValueError(f"{key} must be a rational number, got {json.dumps(value, default=repr)}")


def _integer(key: str, value) -> int:
    # int() alone would truncate 1.5 and true to 1, and raise TypeError on null or [1].
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    if type(value) is str:
        try:
            return integer(value)
        except ValueError:
            pass
    raise ValueError(f"{key} must be an integer, got {json.dumps(value, default=repr)}")


def _boolean(key: str, value) -> bool | None:
    # Truthiness would read the string "false" as yes; null means not supplied.
    if value is None or type(value) is bool:
        return value
    raise ValueError(
        f"{key} must be true, false or null, got {json.dumps(value, default=repr)}"
    )


def _genus(key: str, value) -> Fraction:
    genus = _fraction(key, value)
    if genus < 0:
        raise ValueError(f"{key} must be nonnegative, got {genus}")
    return genus


def _band_count(key: str, value) -> int:
    m = _integer(key, value)
    if m < 1:
        raise ValueError(f"{key} must be a positive band count, got {m}")
    return m


# The audit inputs, in the order they are read (so the first bad one is the
# one reported), each with its reader.
INPUTS = {
    "g3": _genus,
    "g4": _genus,
    "g4_upper": _genus,
    "finite_concordance_order": _boolean,
    "qp_length": _band_count,
}


def read_inputs(supplied: dict) -> dict:
    """Every INPUTS key, its value in supplied read by its reader, or None
    if supplied lacks it; other keys of supplied are ignored."""
    return {
        key: read(key, supplied[key]) if key in supplied else None
        for key, read in INPUTS.items()
    }


def _ito(values: dict, n: int, floor: int, bt: Fraction) -> tuple[str, dict]:
    g3 = values["g3"]
    floor_bound = (4 * g3 - 2) / (n + 2) + Fraction(3, 2)
    bt_bound = g3 + 2
    ok = abs(floor) < floor_bound and abs(bt) <= bt_bound
    return ("pass" if ok else "fail"), {"g3": g3, "floor_bound": floor_bound, "bt_bound": bt_bound}


def _question15(values: dict, n: int, floor: int, bt: Fraction) -> tuple[str, dict]:
    g4_is_upper = values["g4"] is None
    g4 = values["g4_upper"] if g4_is_upper else values["g4"]
    bound = 2 * g4 + n - 2
    status = "pass" if abs(bt) <= bound else "counterexample-candidate"
    return status, {"g4": g4, "g4_is_upper": g4_is_upper, "bound": bound}


def _slice3(values: dict, n: int, floor: int, bt: Fraction) -> tuple[str, dict]:
    if n != 3:
        return "skipped", {"reason": "needs a 3-braid"}
    if not values["finite_concordance_order"]:
        return "skipped", {"reason": "closure not flagged as finite concordance order"}
    return ("pass" if abs(bt) <= 1 else "fail"), {"bound": Fraction(1)}


def _qp(values: dict, n: int, floor: int, bt: Fraction) -> tuple[str, dict]:
    m = values["qp_length"]
    upper = _bt_upper(n, m)
    if upper is None:
        return "skipped", {"reason": "needs at least 3 strands"}
    ok = 0 <= bt <= upper
    details = {"qp_length": m, "bound": Fraction(upper)}
    if values["g4"] is not None:
        details["genus_bound"] = 2 * values["g4"] + n - 2
        ok = ok and bt <= details["genus_bound"]
    return ("pass" if ok else "fail"), details


class _Predicate(NamedTuple):
    # Any one of these audit_bounds arguments makes the predicate applicable.
    inputs: tuple[str, ...]
    # (inputs, strands, floor, BT) -> (status, details of the record entry).
    evaluate: Callable[[dict, int, int, Fraction], tuple[str, dict]]


_TABLE = {
    "ito": _Predicate(("g3",), _ito),
    "question15": _Predicate(("g4", "g4_upper"), _question15),
    "slice3": _Predicate(("finite_concordance_order",), _slice3),
    "qp": _Predicate(("qp_length",), _qp),
}
PREDICATES = tuple(_TABLE)


def audit_bounds(
    w: BraidWord,
    *,
    predicates: list[str] | tuple[str, ...] | None = None,
    cap: int | None = None,
    **inputs,
) -> dict:
    """Evaluate the bound predicates against the floor and BT of one fdtc_exact call.

    The inputs are INPUTS keywords, each read by its reader before
    anything else is checked, so the values accepted are those that
    `braidtwist audit` accepts in corpus meta.  None is an error except
    for finite_concordance_order, where it means not supplied.  Genus
    values are caller-provided ground truth; a negative one, or a
    qp_length below 1, is refused whatever predicates requests.
    With predicates=None, every predicate whose inputs were supplied is
    evaluated; explicitly requesting one without its inputs is an error.
    Every input is validated before the floor and BT are computed.
    question15 failures are flagged counterexample-candidate rather than
    fail: the bound is an open question, and a braid violating it is a
    discovery to report, not a broken invariant.
    """
    unknown = sorted(inputs.keys() - INPUTS.keys())
    if unknown:
        raise TypeError(f"audit_bounds() got an unexpected keyword argument {unknown[0]!r}")
    values = read_inputs(inputs)
    if closure_components(w) != 1:
        raise ValueError("closure is not a knot")
    supplied = [
        name for name, p in _TABLE.items() if any(values[k] is not None for k in p.inputs)
    ]
    requested = supplied if predicates is None else list(predicates)
    for name in requested:
        if name not in _TABLE:
            raise ValueError(f"unknown predicate {name!r}")
    # Table order, not request order: the first missing input reported for
    # a request does not depend on how the request lists its predicates.
    for name, p in _TABLE.items():
        if name in requested and name not in supplied:
            raise ValueError(f"predicate {name!r} needs {' or '.join(p.inputs)}")

    n = w.strands
    result = fdtc_exact(w, cap=cap)  # one search: BT and the certified floor
    floor, bt = result.floor, result.value
    record: dict = {
        "strands": n,
        "floor": floor,
        "fdtc": bt,
        "predicates": [],
    }
    for name in requested:
        status, details = _TABLE[name].evaluate(values, n, floor, bt)
        record["predicates"].append({"predicate": name, "status": status, **details})
    return record
