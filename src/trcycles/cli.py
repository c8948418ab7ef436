"""Command-line surface.

    trcycles compute  --curve FILE [--chi-max N] [--n-max N] [--out FILE]
                      [--format F]
    trcycles verify   --curve FILE [--chi-max N] [--hbar-max N]
                      [--deg-max N] [--n-max N] [--perturb T,IDX,DELTA]
                      [--results FILE] [--out FILE]
    trcycles localize --curve FILE [--n-max N] [--out FILE]

--n-max (the localization precision) applies to a global curve only.  A
command accepts only the options listed for it.  ``verify`` reports named
checks; on a purely local one-point curve ``insertion-operator`` is the
linear loop equation of the whole table.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 parse
error (a malformed file or value, or an option the command does not take),
3 admissibility error, 4 precision error.  Failures also emit one
machine-readable JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

# recursion, cycles, tensors and wavefunction are imported inside the
# functions that run them: each call is a fresh interpreter, so a command
# compiles only the modules it uses (tests/test_imports.py pins the sets)
from .curves import CurveData, GlobalCurve, RamPoint, localize_global_curve
from .errors import AdmissibilityError, PrecisionError, TrcyclesError
from .serialize import (
    canonical_json,
    curve_hash,
    format_table,
    parse_curve_spec,
    results_document,
    str_to_fraction,
    write_out,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_ADMISSIBILITY = 3
EXIT_PRECISION = 4


def _error_record(code: str, exit_code: int, message: str) -> int:
    record = {"error": {"code": code, "exit": exit_code, "message": message}}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return exit_code


def _read_spec(path: str, n_max: int | None):
    """The parsed curve file; --n-max is refused for a local curve."""
    with open(path, "r", encoding="utf-8") as fh:
        parsed = parse_curve_spec(fh.read())
    if n_max is not None and isinstance(parsed, CurveData):
        raise ValueError("--n-max applies only to a global curve")
    return parsed


def _load_curve(path: str, n_max: int | None, chi_max: int):
    if chi_max < 1:
        raise ValueError("chi_max must be >= 1")
    parsed = _read_spec(path, n_max)
    if isinstance(parsed, GlobalCurve):
        if n_max is None:
            n_max = 6 * ((chi_max + 1) // 2 + 1) + 2 * (chi_max + 4)
        return localize_global_curve(parsed, n_max)
    return parsed


def _all_simple(curve) -> bool:
    return all(curve.order(lb) == 2 for lb in curve.labels)


def _results(table, tensors) -> dict:
    """The compute output: table, tensors and the genus scalars."""
    from .recursion import compute_Fg
    chi_max = table.chi_max
    fg = {g: compute_Fg(table, g)
          for g in range(2, (chi_max + 1) // 2 + 1) if 2 * g - 1 <= chi_max}
    return results_document(table, tensors, fg)


def cmd_compute(args) -> int:
    from .recursion import compute_omega_table
    curve = _load_curve(args.curve, args.n_max, args.chi_max)
    if _all_simple(curve):
        # the curve gives the tensors (F[0,3], F[1,1], kernel residues) and
        # they give every level by contraction, so both formats fail alike
        from .tensors import compute_airy_tensors, tensor_recursion
        tensors = compute_airy_tensors(compute_omega_table(curve, 1),
                                       args.chi_max)
        table = tensor_recursion(tensors)
    else:
        table, tensors = compute_omega_table(curve, args.chi_max), None
    write_out(format_table(table) if args.format == "table" else
              _results(table, tensors), args.out)
    return EXIT_OK


# compiled (and cached) by re on first use, not at import
_PERTURB = r"([^,()]*),(.*),([^,()]*)"
_INDEX_PAIR = r"\(\s*([^(),]+?)\s*,\s*([^(),]+?)\s*\)"


def _parse_perturb(text: str):
    """TENSOR,INDEX,DELTA e.g.  D,(1,3),+1  or  A,((1,1),(1,1),(1,5)),-2/3

    INDEX is one (label,k) pair or a parenthesized list of them; labels
    are free text without commas or parentheses.  D keeps the first pair;
    A, B and C take three.
    """
    m = re.fullmatch(_PERTURB, text)
    if m is None:
        raise ValueError("perturbation must be TENSOR,INDEX,DELTA")
    name, idx_text, delta = (part.strip() for part in m.groups())
    if name not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown perturbation tensor {name!r}")
    pairs = [(lb, int(k)) for lb, k in re.findall(_INDEX_PAIR, idx_text)]
    if not pairs or re.sub(_INDEX_PAIR, "", idx_text).strip(" (),"):
        raise ValueError(f"malformed perturbation index {idx_text!r}")
    if name != "D" and len(pairs) != 3:
        raise ValueError(f"tensor {name} needs 3 index pairs, "
                         f"got {len(pairs)}")
    return (name, tuple(pairs[:1] if name == "D" else pairs),
            str_to_fraction(delta))


def cmd_verify(args) -> int:
    # below these the PDE checks expand no order that the tensors enter,
    # and pass on any input
    if args.hbar_max < 1:
        raise ValueError(f"--hbar-max must be >= 1, got {args.hbar_max}")
    if args.deg_max < 0:
        raise ValueError(f"--deg-max must be >= 0, got {args.deg_max}")
    perturb = _parse_perturb(args.perturb) if args.perturb else None
    curve = _load_curve(args.curve, args.n_max, args.chi_max)
    if perturb and not _all_simple(curve):
        raise ValueError("perturbation needs a simple curve")
    for lb, k in perturb[1] if perturb else ():
        if lb not in curve.labels or k < 1:
            raise ValueError(f"perturbation index ({lb},{k}) is not a "
                             f"local-cycle index of the curve")
    checks = []

    def check(name, ok, details=""):
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "details": str(details)})
        return ok

    # invariance checks on the correlator table
    table = _verify_homogeneity(curve, args.chi_max, check)
    _verify_dilaton(table, check)
    _verify_zero_residue(table, check)
    _verify_pole_bound(table, check)
    _verify_cycle_algebra(curve, check)

    tensors = None
    if _all_simple(curve):
        from .tensors import (
            compute_airy_tensors,
            tensor_recursion,
            verify_quadratic_pde,
        )
        tensors = compute_airy_tensors(table)
        used = tensors if perturb is None else \
            tensors.copy_with_perturbation(*perturb)
        diff = _first_mismatch(table, tensor_recursion(used))
        check("engine-equivalence", not diff,
              f"first difference: {diff}" if diff
              else "residue recursion vs tensor recursion")
        rep = verify_quadratic_pde(used, args.hbar_max, args.deg_max)
        check("quadratic-pde", rep.ok,
              f"first nonzero: {rep.first_nonzero()}" if not rep.ok
              else f"orders {rep.checked_orders}")
    if curve.is_purely_local:
        from .tensors import verify_higher_pde
        from .wavefunction import hirota_insertion_check
        reph = verify_higher_pde(table, args.hbar_max)
        check("higher-pde", reph.ok,
              f"first nonzero: {reph.first_nonzero()}" if not reph.ok
              else f"orders {reph.checked_orders}")
        if len(curve.labels) == 1:
            check("insertion-operator", not hirota_insertion_check(table))

    if args.results:
        with open(args.results, "rb") as fh:
            stored = fh.read()
        own = canonical_json(_results(table, tensors)).encode("utf-8")
        check("results-roundtrip", stored == own,
              "stored results equal recomputation")

    report = {"version": 1, "curve_hash": curve_hash(curve),
              "checks": checks}
    write_out(report, args.out)
    ok = all(c["status"] == "pass" for c in checks)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _verify_homogeneity(curve, chi_max, check):
    """F[g,n](lambda t) = lambda^(2-2g-n) F[g,n](t), for every lambda;
    returns the table the other checks read.

    The table is filled over Laurent polynomials in lambda (HPoly, lambda
    in the hbar slot): every time t becomes t*lambda, phi stays in degree
    0, and each denominator y - sigma* y leads with lambda*c, so it
    inverts exactly (else ArithmeticError).  lambda = 1 is then a ring map
    through the fill, so each plain entry is its graded entry summed over
    the lambda orders, homogeneous or not; the check reports the first
    graded entry that is not one monomial lambda^(2-2g-n) c.  Only when
    the graded fill raises is the plain table filled on its own.
    """
    from .recursion import OmegaTable, compute_omega_table
    from .wavefunction import HPoly, HPolyRing
    ring = HPolyRing(curve.field, (None, None))
    graded = CurveData(
        field=ring,
        points={label: RamPoint(label, pt.order,
                                {k: HPoly({1: {(): t}})
                                 for k, t in pt.times.items()})
                for label, pt in curve.points.items()},
        phi={key: ring.coerce(v) for key, v in curve.phi.items()},
        n_max=curve.n_max)
    try:
        gtab = compute_omega_table(graded, chi_max)
    except ArithmeticError as exc:
        check("homogeneity", False, f"not monomial in lambda: {exc}")
        return compute_omega_table(curve, chi_max)
    table = OmegaTable(curve, chi_max)
    bad = []
    for (g, n), gt in gtab.tables.items():
        for key, v in gt.items():
            value = sum((p[()] for p in v.values()), curve.field.zero())
            if value:
                table.set_entry(g, n, key, value)
            if list(v) != [2 - 2 * g - n]:
                bad.append((g, n, key))
    detail = "(g,n)=({},{}), {}".format(*min(bad)) if bad else ""
    check("homogeneity", not detail, detail)
    return table


def _first_mismatch(table, other) -> str:
    """The first (g,n) and key where the two tables differ; else ""."""
    for g, n in sorted(set(table.tables) | set(other.tables)):
        tab, ot = table.entries(g, n), other.entries(g, n)
        for key in sorted(set(tab) | set(ot)):
            if tab.get(key) != ot.get(key):
                return f"(g,n)=({g},{n}), {key}"
    return ""


def _verify_dilaton(table, check):
    from .recursion import _dilaton_sum
    # factor 2g-2+n under the implemented cycle-pairing orientation (the
    # defining intersection formula fixes the dual of the primary form up
    # to the same global sign recorded for the pairing table)
    for (g, n), tab in sorted(table.tables.items()):
        if 2 - 2 * g - n >= 0 or 2 * g - 2 + n + 1 > table.chi_max:
            continue
        for key, v in tab.items():
            total = _dilaton_sum(table, g, key)
            if total != (2 * g - 2 + n) * v:
                return check("dilaton", False, f"(g,n)=({g},{n}) {key}: "
                             f"{total} vs {(2*g-2+n)*v}")
    check("dilaton", True)


def _verify_zero_residue(table, check):
    ok = True
    for (g, n) in table.tables:
        if n == 1:
            for label in table.curve.labels:
                w = table.table_block(label, g, 1, (0,)).get(())
                if w is not None and w.residue():
                    ok = False
    check("zero-residue", ok)


def _verify_pole_bound(table, check):
    curve = table.curve
    name = "pole-bound" if _all_simple(curve) else \
        "pole-bound(simple points; higher orders reported only)"
    measured = {}
    for (g, n), tab in sorted(table.tables.items()):
        for key in tab:
            for lb, k in key:
                measured[(g, n, lb)] = max(measured.get((g, n, lb), 0), k)
                if curve.order(lb) == 2 and k > 6 * g - 4 + 2 * n:
                    return check(name, False,
                                 f"(g,n)=({g},{n}) index {k} at {lb}")
    check(name, True, str(sorted(measured.items())[:6]))


def _verify_cycle_algebra(curve, check):
    from .cycles import LocalForm, bhat, chat_polar, gamma, intersection
    from .series import FORM, LaurentSeries
    from .tensors import compute_Uk
    fld = curve.field
    ok = True
    label = curve.labels[0]
    # right inverse on a polar test form, projection, antisymmetry
    w = LocalForm(curve, {label: LaurentSeries(
        fld, {-3: 2, -5: fld.coerce(Fraction(1, 3))}, weight=FORM)})
    try:
        c = chat_polar(w, curve)
        ok = ok and (bhat(c, curve) - w).is_zero()
    except TrcyclesError:
        ok = curve.is_purely_local is False
    g1 = gamma(curve, label, 1)
    g2 = gamma(curve, label, 2)
    ok = ok and intersection(g1, g2, curve) == \
        -1 * intersection(g2, g1, curve)
    ok = ok and intersection(g1, g2, curve) == 0
    ok = ok and intersection(gamma(curve, label, 2),
                             gamma(curve, label, -2), curve) == -2
    ok = ok and compute_Uk(4) == {(4,): 1, (2, 2): 3}
    check("cycle-algebra", ok)


def cmd_localize(args) -> int:
    curve = _read_spec(args.curve, args.n_max)
    if isinstance(curve, GlobalCurve):
        curve = localize_global_curve(
            curve, 12 if args.n_max is None else args.n_max)
    write_out(curve.canonical_dict(), args.out)
    return EXIT_OK


_OPTIONS = {
    "curve": {"required": True, "help": "curve-spec file"},
    "chi-max": {"type": int, "default": 3},
    "hbar-max": {"type": int, "default": 3},
    "deg-max": {"type": int, "default": 3},
    "n-max": {"type": int},
    "out": {},
    "format": {"choices": ("json", "table"), "default": "json"},
    "perturb": {"help": "TENSOR,INDEX,DELTA negative control"},
    "results": {"help": "previously computed results file to re-check"},
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which ``main`` reports as one JSON
    parse record (exit 2) like every other parse error."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="trcycles",
        description="Exact correlator recursion and annihilation-operator "
                    "checks for spectral curves in local-cycle coordinates")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, options in (
            ("compute", cmd_compute, "curve chi-max n-max out format"),
            ("verify", cmd_verify, "curve chi-max hbar-max deg-max n-max "
                                   "perturb results out"),
            ("localize", cmd_localize, "curve n-max out")):
        p = sub.add_parser(name)
        for opt in options.split():
            p.add_argument("--" + opt, **_OPTIONS[opt])
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (json.JSONDecodeError, ValueError, KeyError, OSError) as exc:
        return _error_record("parse", EXIT_PARSE, str(exc))
    except AdmissibilityError as exc:
        return _error_record(exc.code, EXIT_ADMISSIBILITY, str(exc))
    except PrecisionError as exc:
        return _error_record(exc.code, EXIT_PRECISION, str(exc))
    except TrcyclesError as exc:
        return _error_record(exc.code, EXIT_VERIFY_FAILED, str(exc))


if __name__ == "__main__":
    sys.exit(main())
