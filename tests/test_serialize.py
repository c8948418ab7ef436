import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from trcycles import CurveData, GlobalCurve, localize_global_curve
from trcycles.serialize import (
    canonical_json,
    curve_hash,
    dump_curve_spec,
    format_table,
    parse_curve_spec,
    results_document,
)

DATA = Path(__file__).parent / "data"


def test_curve_spec_roundtrip_bit_exact():
    for name in ("airy.json", "two_point.json", "r3.json"):
        text = (DATA / name).read_text()
        curve = parse_curve_spec(text)
        assert isinstance(curve, CurveData)
        assert dump_curve_spec(curve) == text
        # idempotent: dump(parse(dump(parse(text)))) fixed point
        again = parse_curve_spec(dump_curve_spec(curve))
        assert dump_curve_spec(again) == text


def test_global_spec_parses():
    g = parse_curve_spec((DATA / "airy_global.json").read_text())
    assert isinstance(g, GlobalCurve)
    loc = localize_global_curve(g, 8)
    assert loc.times("0") == {3: Fraction(1)}


def test_localized_equals_local_spec():
    g = parse_curve_spec((DATA / "airy_global.json").read_text())
    loc = localize_global_curve(g, 8)
    from trcycles import validate_local_curve
    ref = validate_local_curve([("0", 2, {3: 1})])
    assert dump_curve_spec(loc) == dump_curve_spec(ref)


def _data_curves():
    """Every tests/data curve, a global one localized at n_max 14."""
    for path in sorted(DATA.glob("*.json")):
        curve = parse_curve_spec(path.read_text())
        if isinstance(curve, GlobalCurve):
            curve = localize_global_curve(curve, 14)
        yield path.name, curve


# the one SHA-256 module left importable; curve_hash tries _sha2 (CPython
# 3.12+), then _sha256 (3.10-3.11), then hashlib
SHA_MODULES = ("_sha2", "_sha256", "hashlib")


@pytest.mark.parametrize("source", SHA_MODULES)
def test_curve_hash_is_sha256_on_each_import_path(monkeypatch, source):
    if source != "hashlib":
        pytest.importorskip(source)
    expected = {name: hashlib.sha256(canonical_json(
        curve.canonical_dict()).encode()).hexdigest()
        for name, curve in _data_curves()}
    assert "cubic_global.json" in expected and len(expected) == 5
    for name in SHA_MODULES:
        if name != source:
            monkeypatch.setitem(sys.modules, name, None)
    assert {name: curve_hash(curve)
            for name, curve in _data_curves()} == expected


def test_results_document(airy_curve, airy_table):
    doc = canonical_json(results_document(airy_table))
    parsed = json.loads(doc)
    assert parsed["curve_hash"] == curve_hash(airy_curve)
    entries = parsed["omega"]["entries"]
    found = [e for e in entries
             if e["g"] == 1 and e["n"] == 1]
    assert found and found[0]["value"] == "1/24"
    # determinism: byte-identical on recomputation
    assert canonical_json(results_document(airy_table)) == doc


def test_format_table(airy_table):
    text = format_table(airy_table)
    assert "F[1,1]" in text and "1/24" in text


def test_parse_errors():
    with pytest.raises((ValueError, KeyError)):
        parse_curve_spec("{}")
    with pytest.raises(json.JSONDecodeError):
        parse_curve_spec("{not json")
