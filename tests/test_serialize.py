import json
from fractions import Fraction
from pathlib import Path

import pytest

from trcycles import CurveData, GlobalCurve, localize_global_curve
from trcycles.serialize import (
    curve_hash,
    dump_curve_spec,
    dump_omega_table,
    dump_results,
    format_table,
    parse_curve_spec,
    parse_omega_table,
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


def test_omega_table_roundtrip(airy_curve, airy_table):
    text = dump_omega_table(airy_table, curve_hash(airy_curve))
    back = parse_omega_table(text, airy_curve)
    assert back.tables == airy_table.tables
    assert dump_omega_table(back, curve_hash(airy_curve)) == text


def test_results_document(airy_curve, airy_table):
    doc = dump_results(airy_table)
    parsed = json.loads(doc)
    assert parsed["curve_hash"] == curve_hash(airy_curve)
    entries = parsed["omega"]["entries"]
    found = [e for e in entries
             if e["g"] == 1 and e["n"] == 1]
    assert found and found[0]["value"] == "1/24"
    # determinism: byte-identical on recomputation
    assert dump_results(airy_table) == doc


def test_format_table(airy_table):
    text = format_table(airy_table)
    assert "F[1,1]" in text and "1/24" in text


def test_parse_errors():
    with pytest.raises((ValueError, KeyError)):
        parse_curve_spec("{}")
    with pytest.raises(json.JSONDecodeError):
        parse_curve_spec("{not json")
