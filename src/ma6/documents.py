"""JSON interchange for forms, fields, and reports.

A form document looks like::

    {"version": 1, "scalar": "exact", "grade": 3,
     "coefficients": {"123": "1", "456": "3/4"}}

Index strings use digits 1..6 in strictly increasing order over the basis
(q1, q2, q3, p1, p2, p3).  Exact mode stores scalars as rational strings
("3/4"); float mode stores JSON numbers.  Field documents replace each
scalar by a polynomial: a map from comma-separated exponent vectors to
rationals, e.g. {"0,1,0,0,2,0": "-3"} for −3·q2·p2², each exponent at most
MAX_EXPONENT.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from .exterior import COMBS, DIM, ExactComplex, KForm, POS, dim_grade

VERSION = 1

# the largest exponent in a field document: a polynomial is evaluated with
# one product per unit of exponent, so an unbounded one could run for good
MAX_EXPONENT = 100


class DocumentError(ValueError):
    """Malformed input document."""


def _check_exponent(v):
    """Reject a rational string, like "1.5e-7", whose exponent expands it to
    more digits than sys.get_int_max_str_digits(), the limit that Python
    already applies to a plain digit string (0, no limit, rejects none)."""
    limit = sys.get_int_max_str_digits()
    mantissa, e, exp = v.strip().replace("_", "").lower().partition("e")
    sign = -1 if exp[:1] == "-" else 1
    digits = exp[1:] if exp[:1] in ("+", "-") else exp
    if not (limit and e and digits.isdecimal()):
        return  # no exponent, or a string that Fraction rejects
    digits = digits.lstrip("0")
    head, _, tail = mantissa.lstrip("+-").lstrip("0").partition(".")
    # the value is mantissa·10^shift: 10^|shift| has |shift| + 1 digits, and
    # the numerator or the denominator at most |shift| + len(mantissa)
    if len(digits) > len(str(limit)) \
            or max(len(head + tail), 1) + abs(sign * int(digits or "0") - len(tail)) > limit:
        raise DocumentError(f"rational {v!r} expands to more than {limit} digits")


def _parse_scalar(v, mode):
    if mode == "exact":
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            raise DocumentError(f"exact mode needs rational strings, got {v!r}")
        if isinstance(v, str):
            _check_exponent(v)
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise DocumentError(f"bad rational {v!r}") from e
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DocumentError(f"float mode needs numbers, got {v!r}")
    try:
        v = float(v)
    except OverflowError as e:
        raise DocumentError(f"float mode number too large for a float: {e}") from e
    if not math.isfinite(v):
        raise DocumentError(f"float mode needs finite numbers, got {v!r}")
    return v


def _emit_scalar(v, mode):
    if mode == "exact":
        return _rational_text(Fraction(v))
    return float(v)


def _rational_text(v):
    """str(v) of a Fraction, or DocumentError when its numerator or its
    denominator has more digits than sys.get_int_max_str_digits()."""
    try:
        return str(v)
    except ValueError as e:
        raise DocumentError(f"a rational of the report is too long to print: {e}") from e


def _parse_index(key, grade):
    if not (isinstance(key, str) and key.isdigit() and len(key) == grade):
        raise DocumentError(f"bad index string {key!r} for grade {grade}")
    idx = tuple(int(c) for c in key)
    if any(not 1 <= i <= DIM for i in idx) or list(idx) != sorted(set(idx)):
        raise DocumentError(f"index {key!r} must be strictly increasing digits 1..6")
    return idx


_KEYS = {"version", "scalar", "grade", "coefficients"}


def _check_header(doc, what):
    """The keys, the version and the grade of a form or field document;
    returns the grade."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be an object")
    extra = set(doc) - _KEYS
    if extra:
        raise DocumentError(f"unknown keys in {what}: {sorted(extra)}")
    version = doc.get("version", VERSION)
    if type(version) is not int or version != VERSION:
        raise DocumentError(f"unsupported version {version!r}")
    grade = doc.get("grade")
    if type(grade) is not int or not 0 <= grade <= DIM:
        raise DocumentError(f"grade must be 0..6, got {grade!r}")
    return grade


def parse_form(doc):
    """FormDocument -> KForm."""
    grade = _check_header(doc, "form document")
    mode = doc.get("scalar", "exact")
    if mode not in ("exact", "float"):
        raise DocumentError(f"scalar mode must be 'exact' or 'float', got {mode!r}")
    coeffs = [Fraction(0) if mode == "exact" else 0.0] * dim_grade(grade)
    cmap = doc.get("coefficients", {})
    if not isinstance(cmap, dict):
        raise DocumentError("coefficients must be an object")
    for key, v in cmap.items():
        idx = _parse_index(key, grade)
        coeffs[POS[grade][idx]] = _parse_scalar(v, mode)
    return KForm(grade, coeffs)


def serialize_form(form, mode=None):
    """KForm -> FormDocument (only nonzero coefficients are emitted)."""
    if mode is None:
        mode = "float" if any(isinstance(c, (float, complex)) for c in form.coeffs) \
            else "exact"
    cmap = {}
    for idx, c in zip(COMBS[form.grade], form.coeffs):
        if c != 0:
            cmap["".join(map(str, idx))] = _emit_scalar(c, mode)
    return {"version": VERSION, "scalar": mode, "grade": form.grade,
            "coefficients": cmap}


def _parse_poly(pmap):
    from .poly import Poly

    if not isinstance(pmap, dict):
        raise DocumentError("polynomial must be an object")
    terms = {}
    for key, v in pmap.items():
        parts = key.split(",")
        if len(parts) != DIM:
            raise DocumentError(f"exponent vector {key!r} needs 6 entries")
        try:
            exps = tuple(int(p) for p in parts)
        except ValueError as e:
            raise DocumentError(f"bad exponent vector {key!r}") from e
        if any(not 0 <= e <= MAX_EXPONENT for e in exps):
            raise DocumentError(f"exponents in {key!r} must be 0..{MAX_EXPONENT}")
        terms[exps] = _parse_scalar(v, "exact")
    return Poly(terms)


def _emit_poly(p):
    return {",".join(map(str, e)): str(c) for e, c in sorted(p.terms.items())}


def parse_field(doc):
    """Field document (polynomial coefficients) -> FormField."""
    from .fields import FormField
    from .poly import Poly

    grade = _check_header(doc, "field document")
    mode = doc.get("scalar", "exact")
    if mode != "exact":
        raise DocumentError(f"field documents hold rational polynomials, got scalar {mode!r}")
    coeffs = [Poly({})] * dim_grade(grade)
    cmap = doc.get("coefficients", {})
    if not isinstance(cmap, dict):
        raise DocumentError("coefficients must be an object")
    for key, v in cmap.items():
        idx = _parse_index(key, grade)
        coeffs[POS[grade][idx]] = _parse_poly(v)
    return FormField(grade, coeffs)


def serialize_field(fld):
    from .poly import Poly

    if not fld.is_polynomial():
        raise DocumentError("only polynomial fields serialize")
    cmap = {}
    for idx, c in zip(COMBS[fld.grade], fld.coeffs):
        p = c if isinstance(c, Poly) else Poly.const(c)
        if not p.is_zero():
            cmap["".join(map(str, idx))] = _emit_poly(p)
    return {"version": VERSION, "scalar": "exact", "grade": fld.grade,
            "coefficients": cmap}


def is_field_document(doc):
    """Heuristic: coefficient values that are objects denote polynomials."""
    cmap = doc.get("coefficients") if isinstance(doc, dict) else None
    return isinstance(cmap, dict) and any(isinstance(v, dict) for v in cmap.values())


def _jsonable(v):
    """Convert report values (Fractions, KForms, tuples...) to JSON types."""
    if isinstance(v, Fraction):
        return _rational_text(v)
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, (int, float, str)):
        return v
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, ExactComplex):
        return {"re": _rational_text(v.re), "im": _rational_text(v.im)}
    if isinstance(v, KForm):
        return serialize_form(v)
    if hasattr(v, "_asdict"):  # a report, a NamedTuple: by field name
        return _jsonable(v._asdict())
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if hasattr(v, "__dict__"):
        return {k: _jsonable(x) for k, x in vars(v).items()}
    return str(v)


def dump_report(report, fp=None):
    """Serialize a report dict deterministically (sorted keys)."""
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    if fp is not None:
        fp.write(text + "\n")
    return text
