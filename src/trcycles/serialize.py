"""Exact file formats: curve specs, correlator tables, tensors, reports.

All rationals travel as strings ("-3/7"); documents are canonical JSON
(sorted keys, fixed separators, trailing newline) so that identical data
produces byte-identical files.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .curves import CurveData, GlobalCurve, RationalFunction, validate_local_curve


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def write_out(doc, out: str | None) -> None:
    """Write ``doc`` to the file ``out``, or to stdout when ``out`` is None
    or "-": a str as it is, any other document as canonical JSON, which
    ``json.dump`` writes chunk by chunk instead of joining it first.  The
    file is opened only here, once the document is complete."""
    if out is None or out == "-":
        _write(doc, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            _write(doc, fh)


def _write(doc, fh) -> None:
    if isinstance(doc, str):
        fh.write(doc)
    else:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def scalar_to_str(field, value) -> str:
    return str(field.as_fraction(value))


def str_to_fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def curve_hash(curve: CurveData) -> str:
    # CPython's own SHA-256 module, imported on first use: hashlib would
    # load OpenSSL's libcrypto into every compute and verify; all three
    # give the same digest
    try:
        from _sha2 import sha256            # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256      # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(dump_curve_spec(curve).encode()).hexdigest()


# -- curve specs --------------------------------------------------------------

def dump_curve_spec(curve: CurveData) -> str:
    return canonical_json(curve.canonical_dict())


def _integer(value, what: str) -> int:
    """A JSON integer; floats, bools and strings are parse errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _rational(value, what: str) -> Fraction:
    """A JSON string or integer, exactly; a float (already rounded by the
    JSON reader), bool, null, array or object is a parse error."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"{what} must be a string or an integer, "
                         f"got {value!r}")
    return str_to_fraction(value)


def _need(obj: dict, key: str, what: str):
    """``obj[key]``; a missing key is a parse error naming it."""
    if key not in obj:
        raise ValueError(f"{what} needs {key!r}")
    return obj[key]


class _Repeated(dict):
    """A JSON object that names ``key`` more than once (last value kept)."""

    __slots__ = ("key",)


def _object(pairs):
    """``object_pairs_hook``: the object, marked when a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj = _Repeated(pairs)
        obj.key = next(key for i, key in enumerate(keys) if key in keys[:i])
    return obj


def _json(value, kind, what: str, named: str | None = None):
    """``value`` when it is a JSON array (``kind`` list) or object (dict)
    that names no key twice; anything else is a parse error.  ``named``:
    the object's name in the repeated-key message (default ``what``)."""
    if not isinstance(value, kind):
        name = "an array" if kind is list else "an object"
        raise ValueError(f"{what} must be {name}, got {value!r}")
    if type(value) is _Repeated:
        raise ValueError(f"{named or what} repeats the key {value.key!r}")
    return value


def _time_index(key: str, label: str) -> int:
    """A time key, only as a canonical decimal integer ("3", not "03",
    "3_0" or " 3", which ``int`` would fold into other indices)."""
    try:
        k = int(key)
    except ValueError:
        k = None
    if k is None or str(k) != key:
        raise ValueError(f"point {label!r}: time key {key!r} is not a "
                         f"decimal integer")
    return k


def parse_curve_spec(text: str):
    """Parse a curve-spec document; returns CurveData or GlobalCurve."""
    doc = json.loads(text, object_pairs_hook=_object)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("curve spec must be an object with a 'kind' field")
    kind = _json(doc, dict, "the curve spec")["kind"]
    if kind == "local":
        points = []
        for p in _json(doc.get("points", []), list, "points"):
            p = _json(p, dict, "a point")
            label = str(_need(p, "label", "a point"))
            order = _integer(_need(p, "order", "a point"), "point order")
            times = {_time_index(k, label):
                     _rational(v, f"point {label!r}: time t_{k}")
                     for k, v in _json(p.get("times", {}), dict, "times",
                                       f"point {label!r}: times").items()}
            points.append((label, order, times))
        # a list of (key, value) pairs, so that a repeated entry meets
        # the symmetry check and is not overwritten
        phi = []
        for entry in _json(doc.get("phi", []), list, "phi"):
            a, b, v = _json(entry, list, "a phi entry")
            (al, ak), (bl, bk) = (_json(i, list, "a phi index")
                                  for i in (a, b))
            phi.append((((str(al), _integer(ak, "phi index")),
                         (str(bl), _integer(bk, "phi index"))),
                        _rational(v, "a phi value")))
        return validate_local_curve(points, phi=phi,
                                    n_max=doc.get("n_max"))
    if kind == "global":
        def rf(key):
            spec = _json(_need(doc, key, "a global curve"), dict, key)
            num = tuple(_rational(c, f"{key} num coefficient") for c in
                        _json(_need(spec, "num", key), list, f"{key} num"))
            den = tuple(_rational(c, f"{key} den coefficient") for c in
                        _json(spec.get("den", ["1"]), list, f"{key} den"))
            return RationalFunction(num, den)
        decls = []
        declared = _need(doc, "declared_ramification", "a global curve")
        for d in _json(declared, list, "declared_ramification"):
            a, r = _json(d, list, "a declared ramification")
            decls.append((_rational(a, "declared ramification coordinate"),
                          _integer(r, "declared ramification order")))
        return GlobalCurve(x=rf("x"), y=rf("y"),
                           declared_ramification=tuple(decls))
    raise ValueError(f"unknown curve kind {kind!r}")


# -- correlator tables ---------------------------------------------------------

def _omega_document(table, chash: str) -> dict:
    fld = table.field
    entries = []
    for (g, n) in sorted(table.tables):
        for key in sorted(table.entries(g, n)):
            entries.append({
                "g": g, "n": n,
                "indices": [[lb, k] for lb, k in key],
                "value": scalar_to_str(fld, table.entries(g, n)[key]),
            })
    return {"version": 1, "curve_hash": chash,
            "chi_max": table.chi_max, "entries": entries}


def _tensor_document(tensors) -> dict:
    """{name: [{"indices", "value"}]} for A, B, C, D in sorted key order;
    D's key is one index, written as a one-element index list."""
    fld = tensors.table.field
    doc = {}
    for name in "ABCD":
        tab = getattr(tensors, name)
        doc[name] = [{"indices": [list(i) for i in
                                  ((key,) if name == "D" else key)],
                      "value": scalar_to_str(fld, tab[key])}
                     for key in sorted(tab)]
    return doc


def results_document(table, tensors=None, fg: dict | None = None) -> dict:
    """The compute output: the table, its curve hash, tensors and scalars."""
    fld = table.field
    chash = curve_hash(table.curve)
    doc = {"version": 1, "curve_hash": chash,
           "omega": _omega_document(table, chash)}
    if tensors is not None:
        doc["airy_tensors"] = _tensor_document(tensors)
    if fg:
        doc["F"] = {str(g): scalar_to_str(fld, v) for g, v in fg.items()}
    return doc


def format_table(table) -> str:
    """Human-readable aligned table of the correlator tensors."""
    fld = table.field
    rows = []
    for (g, n) in sorted(table.tables):
        for key in sorted(table.entries(g, n)):
            idx = " ".join(f"({lb},{k})" for lb, k in key)
            rows.append((f"F[{g},{n}]", idx,
                         scalar_to_str(fld, table.entries(g, n)[key])))
    if not rows:
        return "(empty table)\n"
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    lines = [f"{r[0]:<{w0}}  {r[1]:<{w1}}  {r[2]}" for r in rows]
    return "\n".join(lines) + "\n"
