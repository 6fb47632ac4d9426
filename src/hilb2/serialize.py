"""JSON class documents.

A class document is ``{"n": int, "basis": tag, "terms": [...]}`` with one
record ``{"family": "A"|"A'"|"B"|"B'"|"C", "i": int, "j": int, "coeff": "p"
or "p/q"}`` per term.  Coefficients travel as exact rational strings, never
as floats.  ``parse_class(emit_class(X)) == X`` for every canonical class;
emission is deterministic (canonical term order).
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Union

from .chow import BasisId, BasisSymbol, Family, GradedClass, as_member, is_int
from .errors import ParseError


def basis_tag(X: GradedClass) -> str:
    """The first of MS, ES, BB containing every term family, else "mixed"."""
    fams = X.families()
    for basis in (BasisId.MS, BasisId.ES, BasisId.BB):
        if fams <= set(basis.families):
            return basis.value
    return "mixed"


def symbol_to_doc(sym: BasisSymbol) -> dict:
    return {"family": sym.family.value, "i": sym.i, "j": sym.j}


# The class-document schema's coefficient pattern.  ``[0-9]`` refuses
# non-ASCII digits, and ``fullmatch`` refuses a trailing newline.
_RATIONAL = re.compile(r"-?([0-9]+)(?:/([1-9][0-9]*))?")


def _parse_rational(value) -> Fraction:
    if not isinstance(value, str):  # the schema asks for a string, never a JSON number
        raise ParseError(f"coefficient {value!r} is not an exact rational string")
    match = _RATIONAL.fullmatch(value)
    if match is None:
        raise ParseError(f"bad rational string {value!r}")
    # Python's cap on str -> int conversion; interpreters before 3.10.7 have none.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = max(map(len, match.groups("")))
    if limit and digits > limit:
        raise ParseError(
            f"coefficient has a {digits}-digit part, over Python's limit of {limit}"
            " digits for converting a string to int"
        )
    return Fraction(value)


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply to decode") from None


def _require_int(doc: dict, key: str, what: str) -> int:
    if key not in doc:
        raise ParseError(f"{what} is missing field {key!r}")
    value = doc[key]
    if not is_int(value):
        raise ParseError(f"{what} field {key!r} must be an integer, got {value!r}")
    return value


def parse_symbol(source: Union[str, dict], n: int) -> BasisSymbol:
    """Read ``{"family": ..., "i": ..., "j": ...}`` (dict or JSON text)."""
    doc = _load_json(source) if isinstance(source, str) else source
    if not isinstance(doc, dict):
        raise ParseError(f"symbol document must be an object, got {doc!r}")
    family = as_member(Family, doc.get("family"), ParseError, "family")
    i = _require_int(doc, "i", "symbol document")
    j = _require_int(doc, "j", "symbol document")
    return BasisSymbol(family, i, j, n)  # InvalidIndex propagates


def emit_class(X: GradedClass) -> dict:
    """Class document for X, with terms in canonical order."""
    return {
        "n": X.n,
        "basis": basis_tag(X),
        "terms": [
            {**symbol_to_doc(sym), "coeff": str(c)} for sym, c in X.items()
        ],
    }


def class_to_json(X: GradedClass) -> str:
    return json.dumps(emit_class(X))


def parse_class(source: Union[str, dict]) -> GradedClass:
    """Read a class document (dict or JSON text) back into a GradedClass."""
    doc = _load_json(source) if isinstance(source, str) else source
    if not isinstance(doc, dict):
        raise ParseError(f"class document must be an object, got {doc!r}")
    n = _require_int(doc, "n", "class document")
    terms_doc = doc.get("terms")
    if not isinstance(terms_doc, list):
        raise ParseError("class document is missing the list field 'terms'")
    terms = []
    for record in terms_doc:
        if not isinstance(record, dict):
            raise ParseError(f"term record must be an object, got {record!r}")
        if "coeff" not in record:
            raise ParseError(f"term record {record!r} is missing field 'coeff'")
        sym = parse_symbol(record, n)
        terms.append((sym, _parse_rational(record["coeff"])))
    return GradedClass(n, terms)
