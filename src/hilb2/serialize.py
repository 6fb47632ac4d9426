"""JSON class documents.

A class document is ``{"n": int, "basis": tag, "terms": [...]}`` with one
record ``{"family": "A"|"A'"|"B"|"B'"|"C", "i": int, "j": int, "coeff": "p"
or "p/q"}`` per term.  Coefficients travel as exact rational strings, never
as floats.  ``parse_class(emit_class(X)) == X`` for every canonical class;
emission is deterministic (canonical term order).  :func:`parse_class` accepts
what ``schemas/class_document.schema.json`` accepts, and :func:`parse_symbol`
what ``$defs/symbol`` of ``schemas/cli_output.schema.json`` accepts, but for
integral floats (``2.0``): ``json`` reads ``2.0000000000000001`` as ``2.0`` too.
"""

from __future__ import annotations

import json

from .chow import (BasisId, BasisSymbol, Family, GradedClass, as_member, as_rational, digit_limit,
                   is_int, require_int, require_type, shown)
from .errors import InvalidInput, ParseError


def basis_tag(X: GradedClass) -> str:
    """The first of MS, ES, BB containing every term family, else "mixed"."""
    fams = X.families()
    for basis in (BasisId.MS, BasisId.ES, BasisId.BB):
        if fams <= set(basis.families):
            return basis.value
    return "mixed"


def symbol_to_doc(sym: BasisSymbol) -> dict:
    return {"family": sym.family.value, "i": sym.i, "j": sym.j}


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply to decode") from None
    except ValueError:  # the one other error of decoding text: an integer over the digit limit
        raise ParseError(
            f"invalid JSON: a number has more digits than Python's limit of"
            f" {digit_limit()} for converting a string to int"
        ) from None


# The keys the schemas allow in a class document, a symbol document and a term.
_CLASS_KEYS = frozenset(("n", "basis", "terms"))
_SYMBOL_KEYS = frozenset(("family", "i", "j"))
_TERM_KEYS = _SYMBOL_KEYS | {"coeff"}


def _require_object(doc, known: frozenset, what: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be an object, got {shown(doc)}")
    if not doc.keys() <= known:
        unknown = next(k for k in doc if k not in known)
        raise ParseError(f"{what} has unknown field {shown(unknown)}")


def _require_int(doc: dict, key: str, what: str) -> int:
    if key not in doc:
        raise ParseError(f"{what} is missing field {key!r}")
    value = doc[key]
    if not is_int(value):
        raise ParseError(f"{what} field {key!r} must be an integer, got {shown(value)}")
    return value


def _read_symbol(doc: dict, n: int) -> BasisSymbol:
    """The symbol of a document whose keys its caller has checked."""
    family = as_member(Family, doc.get("family"), ParseError, "family")
    i = _require_int(doc, "i", "symbol document")
    j = _require_int(doc, "j", "symbol document")
    return BasisSymbol(family, i, j, n)  # InvalidIndex propagates


def parse_symbol(source: str | dict, n: int) -> BasisSymbol:
    """Read ``{"family": ..., "i": ..., "j": ...}`` (dict or JSON text)."""
    doc = _load_json(source) if isinstance(source, str) else source
    _require_object(doc, _SYMBOL_KEYS, "symbol document")
    return _read_symbol(doc, n)


def emit_class(X: GradedClass) -> dict:
    """Class document for X, with terms in canonical order.  A coefficient that Python's
    digit limit keeps from being written raises ``InvalidInput``."""
    require_type(X, GradedClass, "emit_class")
    limit, terms = digit_limit(), []
    for sym, c in X.items():  # a part over 3 * limit bits may be over it; 10 ** limit decides
        if limit and c.numerator.bit_length() + c.denominator.bit_length() > 3 * limit:
            if max(abs(c.numerator), c.denominator) >= 10 ** limit:
                raise InvalidInput(f"emit_class cannot write {shown(c)} of {shown(sym)}: "
                                   f"over Python's limit of {limit} digits for int to text")
        terms.append({**symbol_to_doc(sym), "coeff": str(c)})
    return {"n": X.n, "basis": basis_tag(X), "terms": terms}


def parse_class(source: str | dict) -> GradedClass:
    """Read a class document (dict or JSON text) back into a GradedClass."""
    doc = _load_json(source) if isinstance(source, str) else source
    _require_object(doc, _CLASS_KEYS, "class document")
    n = _require_int(doc, "n", "class document")
    require_int(n, "class document field 'n'", 1, error=ParseError)  # before any term is read
    if doc.get("basis", "MS") not in ("BB", "ES", "MS", "mixed"):
        raise ParseError(f"class document field 'basis' is not a basis tag: {shown(doc['basis'])}")
    terms_doc = doc.get("terms")
    if not isinstance(terms_doc, list):
        raise ParseError("class document is missing the list field 'terms'")
    terms = []
    for record in terms_doc:
        _require_object(record, _TERM_KEYS, "term record")
        if "coeff" not in record:
            raise ParseError(f"term record {record!r} is missing field 'coeff'")
        sym, coeff = _read_symbol(record, n), record["coeff"]
        if not isinstance(coeff, str):  # the schema asks for a string, never a JSON number
            raise ParseError(f"coefficient {shown(coeff)} is not an exact rational string")
        terms.append((sym, as_rational(coeff, ParseError)))
    return GradedClass(n, terms)
