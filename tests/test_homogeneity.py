"""The graded homogeneity check of ``trcycles verify`` against the sampled
three-lambda reference, on planted engine bugs and across curve shapes."""

from fractions import Fraction
from pathlib import Path

import pytest

from oracles import three_lambda_homogeneity
from trcycles import (
    OmegaTable,
    compute_omega_table,
    localize_global_curve,
    recursion,
    validate_local_curve,
)
from trcycles.cli import _verify_homogeneity
from trcycles.serialize import parse_curve_spec
from trcycles.series import FORM, LaurentSeries

def _cubic_global(n_max):
    text = (Path(__file__).parent / "data" / "cubic_global.json").read_text()
    return localize_global_curve(parse_curve_spec(text), n_max)


def graded_verdict(curve, chi):
    """The graded verdict, and the table that verify's other checks read."""
    got = []
    table = _verify_homogeneity(curve, chi,
                                lambda name, ok, details="": got.append(ok))
    return got == [True], table


def in_order(table):
    """Every (g,n) block and entry of a table, in insertion order."""
    return [(gn, list(tab.items())) for gn, tab in table.tables.items()]


# -- planted bugs ------------------------------------------------------------

def extra_denominator(monkeypatch):
    """Terms with two factors get one more 1/(y - sigma* y) dz."""
    contract = OmegaTable.kernel_contract

    def planted(self, label, js, factors, k0_max=None):
        if len(factors) == 2:
            r = self.curve.order(label)
            order = r * (len(js) + 1) - 2 - sum(f.lo for f in factors)
            dz = LaurentSeries.monomial(self.field, 0, weight=FORM)
            extra = self.denom_inv(label, js[0], order).mul(dz)
            factors = list(factors) + [extra]
        return contract(self, label, js, factors, k0_max)
    monkeypatch.setattr(OmegaTable, "kernel_contract", planted)


def bridge_times_time(monkeypatch):
    """The two-slot bridge picks up a factor of the point's first time
    (a weight bug even where that time is 1 and the table is unchanged)."""
    bridge = OmegaTable.bridge

    def planted(self, label, jp, jq):
        t = min(self.curve.times(label).items())[1]
        return bridge(self, label, jp, jq).scale(t)
    monkeypatch.setattr(OmegaTable, "bridge", planted)


def inhomogeneous_denominator(monkeypatch):
    """y - sigma* y + z^(v+1) dz: a term of lambda-degree zero."""
    difference = OmegaTable._difference

    def planted(self, label, j):
        d = difference(self, label, j)
        return d + LaurentSeries.monomial(self.field, d.lo + 1,
                                          weight=FORM, hi=d.hi)
    monkeypatch.setattr(OmegaTable, "_difference", planted)


def leg_wrong_rotation(monkeypatch):
    """Each contracted leg is rotated once too far: not a weight bug."""
    leg = OmegaTable.leg

    def planted(self, label, k_spec, j):
        return leg(self, label, k_spec, j + 1)
    monkeypatch.setattr(OmegaTable, "leg", planted)


BUGS = {
    "extra-denominator": (extra_denominator, False),
    "bridge-times-time": (bridge_times_time, False),
    "inhomogeneous-denominator": (inhomogeneous_denominator, False),
    "leg-wrong-rotation": (leg_wrong_rotation, True),
}

CURVES = {
    "airy-chi3": (lambda: validate_local_curve([("1", 2, {3: 1})]), 3),
    "two-point-chi4": (lambda: validate_local_curve([
        ("1", 2, {3: 2, 5: Fraction(1, 3)}), ("-1", 2, {3: 2})]), 4),
    "r3-chi3": (lambda: validate_local_curve([("0", 3, {4: 1})]), 3),
    "cubic-14-chi1": (lambda: _cubic_global(14), 1),
}


@pytest.mark.parametrize("curve_id", CURVES)
@pytest.mark.parametrize("bug", BUGS)
def test_graded_check_agrees_with_three_lambda_oracle(monkeypatch, bug,
                                                      curve_id):
    plant, homogeneous = BUGS[bug]
    make, chi = CURVES[curve_id]
    curve = make()
    plant(monkeypatch)
    graded, table = graded_verdict(curve, chi)
    plain = compute_omega_table(curve, chi)
    sampled, _ = three_lambda_homogeneity(curve, plain, chi)
    assert graded == sampled == homogeneous
    # read off the graded fill or filled again, it is the plain table
    assert in_order(table) == in_order(plain)


@pytest.mark.parametrize("make, chi", [
    (lambda: validate_local_curve([("0", 4, {5: 1})]), 3),
    (lambda: validate_local_curve([("0", 5, {6: 1})]), 2),
    (lambda: validate_local_curve([("0", 3, {4: 1, 5: Fraction(1, 2)})]),
     3),
    (lambda: validate_local_curve([("a", 2, {3: 1}), ("b", 3, {4: 1})]), 3),
    (lambda: _cubic_global(14), 2),
], ids=["r4-chi3", "r5-chi2", "r3-mixed-chi3", "ab23-chi3", "cubic-14-chi2"])
def test_graded_check_passes_across_curve_shapes(make, chi):
    assert graded_verdict(make(), chi)[0]


@pytest.mark.parametrize("make, chi", [
    (lambda: validate_local_curve([("1", 2, {3: 1})]), 3),
    (lambda: validate_local_curve([("1", 2, {3: 2, 5: Fraction(1, 3)}),
                                   ("-1", 2, {3: 2})]), 5),
    (lambda: validate_local_curve([("0", 3, {4: 1})]), 4),
    (lambda: validate_local_curve([("0", 4, {5: 1})]), 3),
    (lambda: validate_local_curve([("0", 5, {6: 1})]), 2),
    (lambda: validate_local_curve([("0", 3, {4: 1, 5: Fraction(1, 2)})]),
     3),
    (lambda: validate_local_curve([("a", 2, {3: 1}), ("b", 3, {4: 1})]), 3),
    (lambda: validate_local_curve([("1", 2, {3: 1, 4: Fraction(1, 2),
                                             5: Fraction(1, 3)})]), 4),
    (lambda: _cubic_global(14), 1),
    (lambda: _cubic_global(24), 2),
], ids=["airy-chi3", "two-point-chi5", "r3-chi4", "r4-chi3", "r5-chi2",
        "r3-mixed-chi3", "ab23-chi3", "parity-broken-chi4", "cubic-14-chi1",
        "cubic-24-chi2"])
def test_table_read_off_the_graded_fill_is_the_plain_table(monkeypatch,
                                                          make, chi):
    curve = make()
    plain = compute_omega_table(curve, chi)
    fills = []
    monkeypatch.setattr(recursion, "compute_omega_table",
                        lambda *args: fills.append(args) or
                        compute_omega_table(*args))
    homogeneous, table = graded_verdict(curve, chi)
    # one fill, over the graded ring
    assert homogeneous and len(fills) == 1 and fills[0][0] is not curve
    assert table.curve is curve and table.chi_max == chi
    assert in_order(table) == in_order(plain)
