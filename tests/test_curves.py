from fractions import Fraction

import pytest

from trcycles import (
    GlobalCurve,
    RationalFunction,
    localize_global_curve,
    scale_curve,
    validate_local_curve,
)
from trcycles.errors import (
    BadDeclarationError,
    DegenerateCurveError,
    InadmissibleTimesError,
    NonGenericRamificationError,
    NotARamificationPointError,
)


def test_airy_validates(airy_curve):
    assert airy_curve.order("1") == 2
    assert airy_curve.times("1") == {3: Fraction(1)}
    assert airy_curve.is_purely_local


def test_admissibility_errors():
    with pytest.raises(NonGenericRamificationError):
        validate_local_curve([("1", 2, {3: 0, 5: 1})])
    with pytest.raises(InadmissibleTimesError):
        validate_local_curve([("1", 2, {1: 1, 3: 1})])
    with pytest.raises(NotARamificationPointError):
        validate_local_curve([("1", 1, {2: 1})])


def test_scale_roundtrip(airy_curve):
    doubled = scale_curve(airy_curve, 2)
    assert doubled.times("1") == {3: Fraction(2)}
    back = scale_curve(doubled, Fraction(1, 2))
    assert back.times("1") == airy_curve.times("1")
    with pytest.raises(DegenerateCurveError):
        scale_curve(airy_curve, 0)


def _airy_global(half=True):
    lead = Fraction(1, 2) if half else Fraction(1)
    return GlobalCurve(x=RationalFunction((0, 0, lead)),
                       y=RationalFunction((0, 1)),
                       declared_ramification=((0, 2),))


def test_localize_airy_half():
    loc = localize_global_curve(_airy_global(half=True), 8)
    assert loc.times("0") == {3: Fraction(1)}
    assert not loc.phi
    assert loc.n_max is None   # exact: identity uniformizer, polynomial data


def test_localize_airy_plain():
    loc = localize_global_curve(_airy_global(half=False), 8)
    assert loc.times("0") == {3: Fraction(2)}


def test_localize_matches_local_representative():
    loc = localize_global_curve(_airy_global(), 8)
    ref = validate_local_curve([("0", 2, {3: 1})])
    assert loc.canonical_dict() == ref.canonical_dict()


def test_localize_cubic():
    g = GlobalCurve(x=RationalFunction((0, -1, 0, Fraction(1, 3))),
                    y=RationalFunction((0, 1)),
                    declared_ramification=((1, 2), (-1, 2)))
    loc = localize_global_curve(g, 8)
    assert loc.times("1")[3] == Fraction(2)
    assert 1 not in loc.times("1") and 2 not in loc.times("1")
    assert loc.times("1")[5] == Fraction(5, 36)
    assert loc.times("-1")[3] == Fraction(-2)
    # the kernel's analytic part couples the two points
    cross = [key for key in loc.phi if key[0][0] != key[1][0]]
    assert cross
    assert loc.phi_row("1", ("-1", 1))[1] == Fraction(1, 4)


def test_localize_bad_declarations():
    with pytest.raises(BadDeclarationError):
        localize_global_curve(
            GlobalCurve(RationalFunction((0, 0, 1)), RationalFunction((0, 1)),
                        ((1, 2),)), 6)
    with pytest.raises(BadDeclarationError):
        localize_global_curve(
            GlobalCurve(RationalFunction((0, 0, 0, 1)),
                        RationalFunction((0, 1)), ((0, 2),)), 6)


def test_phi_symmetry_storage():
    c = validate_local_curve(
        [("a", 2, {3: 1}), ("b", 2, {3: 1})],
        phi={(("a", 1), ("b", 2)): Fraction(1, 4)})
    assert c.phi == {(("a", 1), ("b", 2)): Fraction(1, 4)}
    assert c.phi_row("a", ("b", 2)) == {1: Fraction(1, 4)}
    assert c.phi_row("b", ("a", 1)) == {2: Fraction(1, 4)}


def test_time_keys_folding_into_one_index_are_rejected():
    # {"3": 1, "03": 5} used to read as t_3 = 5
    with pytest.raises(BadDeclarationError, match="name an index twice"):
        validate_local_curve([("1", 2, {"3": 1, "03": 5})])
    with pytest.raises(BadDeclarationError, match="name an index twice"):
        validate_local_curve([("1", 2, {3: 1, "3": 1})])


def test_repeated_phi_pair_must_agree():
    # a list of (key, value) pairs may repeat a key, with one value only
    key = (("a", 1), ("b", 2))
    pts = [("a", 2, {3: 1}), ("b", 2, {3: 1})]
    c = validate_local_curve(pts, phi=[(key, Fraction(1, 4)),
                                       (key, Fraction(2, 8))])
    assert c.phi == {key: Fraction(1, 4)}
    with pytest.raises(BadDeclarationError, match="not symmetric"):
        validate_local_curve(pts, phi=[(key, Fraction(1, 4)), (key, 1)])


def test_record_classes_keep_their_defaults():
    # the records are plain __slots__ classes: a RationalFunction without
    # den is a polynomial
    assert RationalFunction((0, 1)).den == (Fraction(1),)
    g = GlobalCurve(RationalFunction((0, 0, 1)), RationalFunction((0, 1)),
                    ((0, 2),))
    assert (g.x.num, g.y.num, g.declared_ramification) == \
        ((0, 0, 1), (0, 1), ((0, 2),))
    with pytest.raises(AttributeError):
        g.z = 1         # __slots__: no stray attributes
