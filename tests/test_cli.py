import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from test_homogeneity import (
    bridge_times_time,
    extra_denominator,
    inhomogeneous_denominator,
    leg_wrong_rotation,
)
from test_wavefunction import drop_kernel_class
from trcycles import cli, recursion, tensors
from trcycles.cli import _parse_perturb, main
from trcycles.serialize import canonical_json
from trcycles.series import FORM, LaurentSeries

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main(list(argv))


def test_compute_airy(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = run("compute", "--curve", str(DATA / "airy.json"),
               "--chi-max", "3", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    rows = [e for e in doc["omega"]["entries"] if e["g"] == 1 and e["n"] == 1]
    assert rows[0]["value"] == "1/24"
    assert "airy_tensors" in doc and "F" in doc
    assert doc["F"]["2"] == "0"


def test_compute_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("compute", "--curve", str(DATA / "airy.json"),
                   "--chi-max", "2", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("points, cancelling, chi", [
    ([("1", 2, {"3": "1", "5": "1/3"})], {"1": {"4": "1/2"}}, 4),
    ([("1", 2, {"3": "1"}), ("-1", 2, {"3": "2"})],
     {"1": {"4": "1/2"}, "-1": {"4": "-1/3"}}, 4),
    ([("0", 3, {"4": "1"})], {"0": {"6": "1/2"}}, 4),
    ([("0", 4, {"5": "1"})], {"0": {"8": "-2"}}, 3),
    ([("0", 5, {"6": "1"})], {"0": {"10": "1/2"}}, 2),
    ([("a", 2, {"3": "1"}), ("b", 3, {"4": "1", "5": "1/2"})],
     {"a": {"4": "1", "6": "2"}, "b": {"6": "1/3"}}, 3),
], ids=["r2", "r2-two-point", "r3", "r4", "r5", "r2-r3"])
def test_cancelling_times_change_only_the_curve_hash(tmp_path, points,
                                                     cancelling, chi):
    # a time t_k with r | k cancels in y - sigma* y, the only way a purely
    # local curve enters the kernel: table, tensors and F_g stay the same
    docs = []
    for extra in ({}, cancelling):
        spec = {"kind": "local", "version": 1, "phi": [], "n_max": None,
                "points": [{"label": label, "order": order,
                            "times": {**times, **extra.get(label, {})}}
                           for label, order, times in points]}
        curve = tmp_path / f"curve{len(docs)}.json"
        curve.write_text(json.dumps(spec))
        out = tmp_path / f"res{len(docs)}.json"
        assert run("compute", "--curve", str(curve), "--chi-max", str(chi),
                   "--out", str(out)) == 0
        text = out.read_text()
        docs.append((json.loads(text)["curve_hash"], text))
    (plain_hash, plain), (moved_hash, moved) = docs
    assert plain_hash != moved_hash
    assert plain.count(plain_hash) == 2
    assert plain.replace(plain_hash, moved_hash) == moved


GOLDEN = [
    (("compute", "two_point.json", "--chi-max", "5"),
     "ee041242130bd4759869c4cf8f1d5f44cef6c4dabb3500a87cbf488417a2415f"),
    (("compute", "r3.json", "--chi-max", "3"),
     "ee9af25d1dc175e9a047bb844daa5b4b7ffacb303efe3ea3882e1061037d5cc0"),
    (("compute", "cubic_global.json", "--n-max", "14", "--chi-max", "1"),
     "39f06557ef4cef72fc905782ffb884adbb47978c96429fd136f04e05c49b6018"),
    (("compute", "r3.json", "--chi-max", "4"),
     "216fc131671ea6fa48d57edd9dba2545e4ba349e664e5c2833eb6c66e357d2b5"),
    (("verify", "r3.json", "--chi-max", "3", "--hbar-max", "3"),
     "62db49f816617f9858e47bb9bd3e72c7e5fd6567cdd8e7610e1336ab06d54648"),
    (("verify", "two_point.json", "--chi-max", "5", "--hbar-max", "4",
      "--deg-max", "4"),
     "889d7f66ca8267fa88a16f151d1ad7f2d4ddc44be1009c806940d3dadf925333"),
    # the check set perfbench runs on the global cubic; quadratic-pde
    # reports the window it reads, "orders (1, 2)" at chi 1
    (("verify", "cubic_global.json", "--n-max", "14", "--chi-max", "1"),
     "e2e3ac3e7460bc6bdff25c4387122711db040c776f19589d3d3818c4a580ad5d"),
]
GOLDEN_IDS = ["compute-two-point-chi5", "compute-r3-chi3",
              "compute-cubic-n14-chi1", "compute-r3-chi4", "verify-r3-chi3",
              "verify-two-point-chi5", "verify-cubic-n14-chi1"]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=GOLDEN_IDS)
def test_golden_stdout(capsys, argv, digest):
    # byte identity of the CLI output; the first three are the perfbench
    # compute pins
    command, curve, *rest = argv
    assert run(command, "--curve", str(DATA / curve), *rest) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", ["compute-two-point-chi5",
                                  "compute-cubic-n14-chi1", "verify-r3-chi3"])
def test_out_file_equals_golden_stdout(tmp_path, capsys, case):
    # --out FILE gets the very bytes the golden stdout pins
    (command, curve, *rest), digest = GOLDEN[GOLDEN_IDS.index(case)]
    out = tmp_path / "out.json"
    assert run(command, "--curve", str(DATA / curve), *rest,
               "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_compute_table_format(capsys):
    assert run("compute", "--curve", str(DATA / "airy.json"),
               "--chi-max", "2", "--format", "table") == 0
    text = capsys.readouterr().out
    assert "F[1,1]" in text


def test_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("compute", "--curve", str(bad)) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]["exit"] == 2


def test_admissibility_error(tmp_path, capsys):
    spec = {"kind": "local", "version": 1, "phi": [], "n_max": None,
            "points": [{"label": "1", "order": 2, "times": {"3": "0",
                                                            "5": "1"}}]}
    f = tmp_path / "bad_curve.json"
    f.write_text(json.dumps(spec))
    out = tmp_path / "out.json"
    assert run("compute", "--curve", str(f), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]["exit"] == 3
    assert not out.exists()


def test_verify_airy_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run("verify", "--curve", str(DATA / "airy.json"),
               "--chi-max", "3", "--hbar-max", "3", "--deg-max", "3",
               "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert all(c["status"] == "pass" for c in report["checks"])
    names = {c["name"] for c in report["checks"]}
    assert {"homogeneity", "dilaton", "engine-equivalence",
            "quadratic-pde", "higher-pde"} <= names


def test_verify_perturbation_negative_control(tmp_path):
    out = tmp_path / "report.json"
    code = run("verify", "--curve", str(DATA / "airy.json"),
               "--chi-max", "3", "--hbar-max", "3", "--deg-max", "3",
               "--perturb", "D,(1,3),+1", "--out", str(out))
    assert code == 1
    report = json.loads(out.read_text())
    failing = {c["name"] for c in report["checks"]
               if c["status"] == "fail"}
    assert "quadratic-pde" in failing
    detail = [c for c in report["checks"]
              if c["name"] == "quadratic-pde"][0]["details"]
    assert ", 1, " in detail   # residual located at hbar order one


def test_verify_perturbation_needs_a_simple_curve(tmp_path, capsys,
                                                  monkeypatch):
    # the tensors it perturbs exist only at simple points: refused as a
    # parse error before any fill, with no report written
    def refuse(*args, **kwargs):
        pytest.fail("the table was built before --perturb was refused")
    monkeypatch.setattr(recursion, "compute_omega_table", refuse)
    out = tmp_path / "report.json"
    code = run("verify", "--curve", str(DATA / "r3.json"),
               "--perturb", "D,(0,4),+1", "--out", str(out))
    assert code == 2
    assert _error(capsys) == {"code": "parse", "exit": 2,
                              "message": "perturbation needs a simple curve"}
    assert not out.exists()


def test_verify_c_perturbation_breaks_the_tensor_recursion(tmp_path):
    out = tmp_path / "report.json"
    code = run("verify", "--curve", str(DATA / "two_point.json"),
               "--chi-max", "3", "--perturb", "C,((1,5),(1,1),(1,1)),+1",
               "--out", str(out))
    assert code == 1
    failing = {c["name"]: c["details"]
               for c in json.loads(out.read_text())["checks"]
               if c["status"] == "fail"}
    assert set(failing) == {"engine-equivalence", "quadratic-pde"}
    # the rebuild reads (1,5) as distinguished index first at genus 2
    assert failing["engine-equivalence"] == \
        "first difference: (g,n)=(2,1), (('1', 5),)"


@pytest.mark.parametrize("perturb, first", [
    ("D,(1,2),+1", "(('1', 2), 1, (), Fraction(-1, 1))"),
    ("D,(1,99),+1", "(('1', 99), 1, (), Fraction(-1, 1))"),
    ("A,((1,2),(1,2),(1,2)),+1",
     "(('1', 2), 1, ((('1', 2), 2),), Fraction(-1, 4))"),
], ids=["D-2", "D-99", "A-222"])
def test_verify_perturbation_on_a_row_no_entry_names(tmp_path, perturb,
                                                     first):
    # no stored entry, C row or B row names (1,2) or (1,99) on the Airy
    # curve: the annihilation is still checked at these rows
    out = tmp_path / "report.json"
    code = run("verify", "--curve", str(DATA / "airy.json"),
               "--chi-max", "3", "--hbar-max", "3", "--deg-max", "3",
               "--perturb", perturb, "--out", str(out))
    assert code == 1
    failing = {c["name"]: c["details"]
               for c in json.loads(out.read_text())["checks"]
               if c["status"] == "fail"}
    assert set(failing) == {"engine-equivalence", "quadratic-pde"}
    assert failing["quadratic-pde"] == f"first nonzero: {first}"


def test_verify_even_index_c_perturbation_breaks_the_tensor_recursion(
        tmp_path):
    # the two-point curve has odd indices only; an even C row still feeds
    # the contraction as soon as its e, e' meet stored entries
    out = tmp_path / "report.json"
    code = run("verify", "--curve", str(DATA / "two_point.json"),
               "--chi-max", "3", "--perturb", "C,((1,2),(1,1),(1,1)),+1",
               "--out", str(out))
    assert code == 1
    checks = {c["name"]: c["status"]
              for c in json.loads(out.read_text())["checks"]}
    assert checks["engine-equivalence"] == "fail"


def non_monomial_denominator(monkeypatch):
    """y - sigma* y + z^v dz: the leading coefficient is lambda*c + 1."""
    difference = recursion.OmegaTable._difference

    def planted(self, label, j):
        d = difference(self, label, j)
        return d + LaurentSeries.monomial(self.field, d.lo, weight=FORM,
                                          hi=d.hi)
    monkeypatch.setattr(recursion.OmegaTable, "_difference", planted)


def test_verify_non_monomial_denominator_fails_homogeneity(
        tmp_path, capsys, monkeypatch):
    # a leading coefficient lambda*c + 1 cannot be inverted over the
    # graded ring: the check fails, and nothing escapes as a traceback
    non_monomial_denominator(monkeypatch)
    out = tmp_path / "report.json"
    code = run("verify", "--curve", str(DATA / "airy.json"),
               "--chi-max", "2", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == ""
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["homogeneity"]["status"] == "fail"
    assert checks["homogeneity"]["details"].startswith(
        "not monomial in lambda")


@pytest.mark.parametrize("curve, chi, bug, code, fills", [
    ("airy.json", 3, None, 0, 1),
    ("two_point.json", 4, None, 0, 1),
    ("r3.json", 3, None, 0, 1),
    # the plain table is the graded one at lambda = 1, homogeneous or not
    ("airy.json", 3, extra_denominator, 4, 1),
    ("airy.json", 3, bridge_times_time, 1, 1),
    ("airy.json", 3, inhomogeneous_denominator, 1, 1),
    ("airy.json", 3, leg_wrong_rotation, 1, 1),
    # the graded fill raises, so the plain table is filled on its own
    ("airy.json", 2, non_monomial_denominator, 1, 2),
])
def test_verify_fills_one_table_unless_the_graded_fill_fails(
        tmp_path, monkeypatch, curve, chi, bug, code, fills):
    if bug is not None:
        bug(monkeypatch)
    calls = []
    fill = recursion.compute_omega_table
    monkeypatch.setattr(recursion, "compute_omega_table",
                        lambda *args: calls.append(args) or fill(*args))
    assert run("verify", "--curve", str(DATA / curve), "--chi-max",
               str(chi), "--out", str(tmp_path / "r.json")) == code
    assert len(calls) == fills


def test_verify_insertion_operator_fails_on_a_dropped_term_class(
        tmp_path, monkeypatch):
    drop_kernel_class(monkeypatch, 2, 2)
    out = tmp_path / "report.json"
    assert run("verify", "--curve", str(DATA / "r3.json"), "--chi-max", "3",
               "--out", str(out)) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["insertion-operator"] == {
        "name": "insertion-operator", "status": "fail", "details": ""}


def _airy_statuses(tmp_path):
    """verify on the Airy curve at chi 3: the exit code and each check's
    status."""
    out = tmp_path / "report.json"
    code = run("verify", "--curve", str(DATA / "airy.json"),
               "--chi-max", "3", "--out", str(out))
    return code, {c["name"]: c["status"]
                  for c in json.loads(out.read_text())["checks"]}


def _one_check_reads(monkeypatch, name, change):
    """Make the check ``cli.<name>`` alone read ``change(table)``, a copy of
    the table with one entry changed."""
    original = getattr(cli, name)

    def moved(table, *args):
        copy = recursion.OmegaTable(table.curve, table.chi_max)
        for (g, n), tab in table.tables.items():
            for key, v in tab.items():
                copy.set_entry(g, n, key, v)
        change(copy)
        return original(copy, *args)
    monkeypatch.setattr(cli, name, moved)


def _fails_only(tmp_path, name):
    code, statuses = _airy_statuses(tmp_path)
    assert code == 1 and statuses[name] == "fail"
    assert all(s == "pass" for n, s in statuses.items() if n != name)
    assert len(statuses) == 9


def test_verify_dilaton_fails_on_a_moved_entry(tmp_path, monkeypatch):
    assert _airy_statuses(tmp_path) == (0, dict.fromkeys(
        ["homogeneity", "dilaton", "zero-residue", "pole-bound",
         "cycle-algebra", "engine-equivalence", "quadratic-pde",
         "higher-pde", "insertion-operator"], "pass"))
    # t_3 F[1,2][(1,3),(1,3)] is the dilaton sum of F[1,1][(1,3)]
    key = (("1", 3), ("1", 3))
    _one_check_reads(monkeypatch, "_verify_dilaton", lambda table: (
        table.set_entry(1, 2, key, table.get(1, 2, key) + 1)))
    _fails_only(tmp_path, "dilaton")
    # the first failing entry is named: F[1,1] reads the moved F[1,2]
    # entry, before F[1,2] itself does
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    detail = [c["details"] for c in checks if c["name"] == "dilaton"][0]
    assert detail.startswith("(g,n)=(1,1)")


def test_verify_pole_bound_fails_above_the_bound(tmp_path, monkeypatch):
    # 9 > 6g - 4 + 2n = 8 at (g,n) = (1,3), a level no dilaton sum reads
    _one_check_reads(monkeypatch, "_verify_pole_bound", lambda table: (
        table.set_entry(1, 3, (("1", 1), ("1", 1), ("1", 9)), 1)))
    _fails_only(tmp_path, "pole-bound")


def test_verify_cycle_algebra_fails_on_a_wrong_uk(tmp_path, monkeypatch):
    monkeypatch.setattr(tensors, "compute_Uk", lambda k: {(k,): 1})
    _fails_only(tmp_path, "cycle-algebra")


def test_verify_results_roundtrip(tmp_path):
    res = tmp_path / "res.json"
    assert run("compute", "--curve", str(DATA / "airy.json"),
               "--chi-max", "3", "--out", str(res)) == 0

    def recheck(data: bytes):
        stored = tmp_path / "stored.json"
        stored.write_bytes(data)
        rep = tmp_path / "rep.json"
        code = run("verify", "--curve", str(DATA / "airy.json"),
                   "--chi-max", "3", "--hbar-max", "3", "--deg-max", "3",
                   "--results", str(stored), "--out", str(rep))
        report = json.loads(rep.read_text())
        rr = [c["status"] for c in report["checks"]
              if c["name"] == "results-roundtrip"]
        return code, rr

    data = res.read_bytes()
    assert recheck(data) == (0, ["pass"])
    # the check compares bytes: one changed value, the same document
    # indented otherwise, and a file that is not JSON or not UTF-8 all
    # fail it
    doc = json.loads(data)
    entry = doc["omega"]["entries"][0]
    entry["value"] = str(Fraction(entry["value"]) + 1)
    changed = (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
    assert changed != data
    assert recheck(changed) == (1, ["fail"])
    reindented = json.dumps(json.loads(data), sort_keys=True, indent=2)
    assert json.loads(reindented) == json.loads(data)
    assert recheck((reindented + "\n").encode()) == (1, ["fail"])
    assert recheck(data[:-2]) == (1, ["fail"])
    assert recheck(b"\xff" + data) == (1, ["fail"])


def _simple_spec(tmp_path, points):
    """A purely local curve file with a simple point per (label, times)."""
    spec = {"kind": "local", "version": 1, "phi": [], "n_max": None,
            "points": [{"label": label, "order": 2,
                        "times": {str(k): str(t) for k, t in times.items()}}
                       for label, times in points]}
    f = tmp_path / "simple.json"
    f.write_text(json.dumps(spec))
    return f


def _random_simple_points(seed):
    """One point at even seeds, two at odd ones; every point has t3, an
    even time t4, and t5, t6 at random."""
    rng = random.Random(seed)

    def rat():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    return [(label, {3: rat(), 4: rat(),
                     **{k: rat() for k in (5, 6) if rng.random() < 0.6}})
            for label in ["1", "-1"][:1 + seed % 2]]


@pytest.mark.parametrize("curve, n_max, chi", [
    ("airy.json", None, 6),
    ("two_point.json", None, 6),
    ([("1", {3: 1, 4: Fraction(1, 2), 5: Fraction(1, 3)})], None, 4),
    ("cubic_global.json", 32, 3),
    ("airy_global.json", 24, 3),
    *[(_random_simple_points(seed), None, 4) for seed in range(4)],
], ids=["airy-chi6", "two-point-chi6", "t345-chi4", "cubic-n32-chi3",
        "airy-global-n24-chi3", "random0", "random1", "random2", "random3"])
def test_compute_equals_the_residue_route(tmp_path, capsys, curve, n_max,
                                          chi):
    # at simple points compute fills chi 1 by residues and contracts the
    # rest from the tensors; its document must be the residue fill's and
    # that fill's tensors', byte for byte
    path = DATA / curve if isinstance(curve, str) else \
        _simple_spec(tmp_path, curve)
    extra = ("--n-max", str(n_max)) if n_max else ()
    assert run("compute", "--curve", str(path), "--chi-max", str(chi),
               *extra) == 0
    table = recursion.compute_omega_table(
        cli._load_curve(str(path), n_max, chi), chi)
    assert capsys.readouterr().out == canonical_json(
        cli._results(table, tensors.compute_airy_tensors(table)))


@pytest.mark.parametrize("curve, chi", [("two_point.json", "5"),
                                        ("cubic_global.json", "2")])
def test_verify_rechecks_the_compute_output(tmp_path, curve, chi):
    # compute's tensor route against verify's residue route
    res, rep = tmp_path / "res.json", tmp_path / "rep.json"
    assert run("compute", "--curve", str(DATA / curve), "--chi-max", chi,
               "--out", str(res)) == 0
    assert run("verify", "--curve", str(DATA / curve), "--chi-max", chi,
               "--results", str(res), "--out", str(rep)) == 0
    checks = {c["name"]: c["status"]
              for c in json.loads(rep.read_text())["checks"]}
    assert checks["results-roundtrip"] == "pass"


@pytest.mark.parametrize("curve, chi, fills, products", [
    ("two_point.json", "5", [1], [4, 200]),
    ("r3.json", "3", [3], [196, 0]),
], ids=["two-point-chi5", "r3-chi3"])
def test_compute_fills_chi_one_at_simple_points(monkeypatch, capsys, curve,
                                                chi, fills, products):
    # kernel products inside the residue fill and outside it (the
    # tensors'); all-simple curves fill chi 1 only, and the tensor
    # recursion takes no residue
    got, count, phase = [], [0, 0], [1]
    contract = recursion.OmegaTable.kernel_contract
    fill = recursion.compute_omega_table

    def counted(self, *args, **kwargs):
        count[phase[0]] += 1
        return contract(self, *args, **kwargs)

    def filled(curve, chi_max):
        got.append(chi_max)
        phase[0] = 0
        try:
            return fill(curve, chi_max)
        finally:
            phase[0] = 1

    monkeypatch.setattr(recursion.OmegaTable, "kernel_contract", counted)
    monkeypatch.setattr(recursion, "compute_omega_table", filled)
    assert run("compute", "--curve", str(DATA / curve), "--chi-max",
               chi) == 0
    assert (got, count) == (fills, products)


def test_localize_command(tmp_path):
    out = tmp_path / "local.json"
    assert run("localize", "--curve", str(DATA / "airy_global.json"),
               "--n-max", "8", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "local"
    assert doc["points"][0]["times"] == {"3": "1"}


def test_localize_cubic(tmp_path):
    out = tmp_path / "cubic_local.json"
    assert run("localize", "--curve", str(DATA / "cubic_global.json"),
               "--n-max", "8", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    pts = {p["label"]: p for p in doc["points"]}
    assert pts["1"]["times"]["3"] == "2"
    assert doc["phi"]


def test_precision_exit_code(tmp_path, capsys):
    # explicit under-truncation of a kernel-coupled curve fails loudly
    code = run("verify", "--curve", str(DATA / "cubic_global.json"),
               "--n-max", "4", "--chi-max", "3", "--out",
               str(tmp_path / "r.json"))
    assert code == 4
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]["exit"] == 4


@pytest.mark.parametrize("command, n_max, chi, message", [
    ("compute", "8", "2", "insufficient truncation in the Airy tensors at "
     "point '1': coefficient of z^-2 outside valid window [-8, -3]"),
    ("compute", "10", "3", "insufficient truncation in the Airy tensors at "
     "point '1': coefficient of z^-2 outside valid window [-10, -3]"),
    ("compute", "22", "3", "insufficient truncation in the Airy tensors at "
     "point '1': coefficient of z^-2 outside valid window [-22, -3]"),
    ("verify", "4", "3", "insufficient truncation at (g,n)=(1,1), point "
     "'1': coefficient of z^-2 outside valid window [-4, -3]"),
], ids=["compute-n8-chi2", "compute-n10-chi3", "compute-n22-chi3",
        "verify-n4-chi3"])
def test_precision_error_record(tmp_path, capsys, command, n_max, chi,
                                message):
    # the whole record, so a change in which product fails first shows
    out = tmp_path / "out.json"
    assert run(command, "--curve", str(DATA / "cubic_global.json"),
               "--n-max", n_max, "--chi-max", chi, "--out", str(out)) == 4
    assert _error(capsys) == {"code": "precision", "exit": 4,
                              "message": message}
    assert not out.exists()


@pytest.mark.parametrize("chi, boundary", [(1, 13), (2, 17), (3, 25)])
def test_compute_precision_boundary_of_global_cubic(tmp_path, capsys, chi,
                                                    boundary):
    # the smallest n_max at which compute (the chi-1 fill and the tensors)
    # holds; one below it is a precision failure
    out = tmp_path / "res.json"
    for n_max, code in ((boundary - 1, 4), (boundary, 0)):
        assert run("compute", "--curve", str(DATA / "cubic_global.json"),
                   "--n-max", str(n_max), "--chi-max", str(chi),
                   "--out", str(out)) == code
    assert _error(capsys)["exit"] == 4
    assert json.loads(out.read_text())["omega"]["chi_max"] == chi


@pytest.mark.parametrize("command, curve, chi", [
    ("compute", "two_point.json", "0"), ("compute", "r3.json", "0"),
    ("compute", "cubic_global.json", "0"),
    ("compute", "cubic_global.json", "-5"),
    ("verify", "cubic_global.json", "0"),
    ("verify", "cubic_global.json", "-5"),
], ids=["two_point.json", "r3.json", "compute-cubic_global.json-0",
        "compute-cubic_global.json--5", "verify-cubic_global.json-0",
        "verify-cubic_global.json--5"])
def test_compute_chi_max_below_one_is_a_parse_error(capsys, monkeypatch,
                                                    command, curve, chi):
    # refused before the curve is localized (a global curve would derive
    # its n_max from chi_max) or any table is filled
    def refuse(*args, **kwargs):
        pytest.fail("the curve was localized before chi_max was checked")
    monkeypatch.setattr(cli, "localize_global_curve", refuse)
    assert run(command, "--curve", str(DATA / curve), "--chi-max",
               chi) == 2
    assert _error(capsys)["message"] == "chi_max must be >= 1"


def test_verify_order_four_curve(tmp_path):
    spec = {"kind": "local", "version": 1, "phi": [], "n_max": None,
            "points": [{"label": "0", "order": 4, "times": {"5": "1"}}]}
    curve = tmp_path / "r4.json"
    curve.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    assert run("verify", "--curve", str(curve), "--chi-max", "2",
               "--out", str(out)) == 0
    checks = {c["name"]: c["status"]
              for c in json.loads(out.read_text())["checks"]}
    assert checks["higher-pde"] == "pass"


@pytest.mark.parametrize("text, expected", [
    ("D,(1,3),+1", ("D", (("1", 3),), Fraction(1))),
    ("A,((1,1),(1,1),(1,5)),-2/3",
     ("A", (("1", 1), ("1", 1), ("1", 5)), Fraction(-2, 3))),
    ("B,((a,1),(a,3),(a,1)),1/2",
     ("B", (("a", 1), ("a", 3), ("a", 1)), Fraction(1, 2))),
    ("C,((1/2,1),( -1 ,3),(x y,5)),-1",
     ("C", (("1/2", 1), ("-1", 3), ("x y", 5)), Fraction(-1))),
    ("D,((1,3)),2", ("D", (("1", 3),), Fraction(2))),
])
def test_parse_perturb(text, expected):
    assert _parse_perturb(text) == expected


@pytest.mark.parametrize("text", ["D,,1", "D,(1,),1", "D,(1,3),1,2"])
def test_malformed_perturbation_is_a_parse_error(tmp_path, capsys, text):
    out = tmp_path / "r.json"
    code = run("verify", "--curve", str(DATA / "airy.json"),
               "--chi-max", "1", "--perturb", text, "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"]["exit"] == 2
    assert not out.exists()


def test_malformed_perturbation_fails_before_the_table(tmp_path, capsys,
                                                       monkeypatch):
    # a malformed index, an unknown tensor, A or C with two pairs, a
    # label that is not on the curve, k < 1, and a curve with a point of
    # order 3, which has no tensors to perturb
    def refuse(*args, **kwargs):
        pytest.fail("the table was built before --perturb was checked")
    monkeypatch.setattr(recursion, "compute_omega_table", refuse)
    for curve, perturb in [
            ("airy.json", "D,(1,),1"), ("airy.json", "Q,(1,3),1"),
            ("airy.json", "A,((1,1),(1,1)),1"),
            ("airy.json", "C,((1,5),(1,1)),1"), ("airy.json", "D,(9,3),1"),
            ("airy.json", "D,(1,-3),1"), ("r3.json", "D,(0,4),1")]:
        code = run("verify", "--curve", str(DATA / curve),
                   "--perturb", perturb, "--out", str(tmp_path / "r.json"))
        assert code == 2, perturb
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"]["exit"] == 2
        assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("window", [
    ("--hbar-max", "0"), ("--hbar-max", "-1"), ("--deg-max", "-1"),
], ids=["hbar-0", "hbar-minus-1", "deg-minus-1"])
def test_empty_verify_window_is_refused(tmp_path, capsys, monkeypatch,
                                        window):
    # below hbar 1 or degree 0 no order the tensors enter is expanded,
    # and a perturbed D passed quadratic-pde or higher-pde there
    def refuse(*args, **kwargs):
        pytest.fail("the table was built before the window was checked")
    monkeypatch.setattr(recursion, "compute_omega_table", refuse)
    out = tmp_path / "r.json"
    code = run("verify", "--curve", str(DATA / "two_point.json"),
               "--chi-max", "3", "--perturb", "D,(1,3),+1", *window,
               "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"]["exit"] == 2
    assert window[0] in err[0]
    assert not out.exists()


def test_smallest_verify_window_sees_a_perturbed_d(tmp_path):
    out = tmp_path / "r.json"
    code = run("verify", "--curve", str(DATA / "two_point.json"),
               "--chi-max", "3", "--perturb", "D,(1,3),+1",
               "--hbar-max", "1", "--deg-max", "0", "--out", str(out))
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["quadratic-pde"]["status"] == "fail"
    assert ", 1, " in checks["quadratic-pde"]["details"]


def test_quadratic_pde_reports_the_window_it_reads(tmp_path):
    # a chi 2 table holds orders up to 2 and degrees up to 3, whatever
    # larger window is asked for
    out = tmp_path / "r.json"
    assert run("verify", "--curve", str(DATA / "airy.json"), "--chi-max",
               "2", "--hbar-max", "6", "--deg-max", "6",
               "--out", str(out)) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["quadratic-pde"]["details"] == "orders (2, 3)"


def test_dilaton_reads_a_missing_level_as_zero(tmp_path, monkeypatch):
    # x = z^3/3 + z^4/4, y = z + z^2: a point of order 3 and a simple one,
    # so no tensor or operator check reads F[1,2].  With that level
    # dropped from the fill, the dilaton equation of F[1,1] still sees it
    spec = {"kind": "global", "version": 1,
            "declared_ramification": [["0", 3], ["-1", 2]],
            "x": {"num": ["0", "0", "0", "1/3", "1/4"], "den": ["1"]},
            "y": {"num": ["0", "1", "1"], "den": ["1"]}}
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(spec))
    row = recursion._point_row
    monkeypatch.setattr(
        recursion, "_point_row", lambda table, label, g, n:
        {} if (g, n) == (1, 1) else row(table, label, g, n))
    out = tmp_path / "r.json"
    assert run("verify", "--curve", str(curve), "--n-max", "12",
               "--chi-max", "2", "--out", str(out)) == 1
    failing = {c["name"]: c["details"]
               for c in json.loads(out.read_text())["checks"]
               if c["status"] == "fail"}
    assert list(failing) == ["dilaton"]
    assert failing["dilaton"].startswith("(g,n)=(1,1) (('-1', 1),): ")


def test_localize_n_max_zero_is_rejected(tmp_path, capsys):
    code = run("localize", "--curve", str(DATA / "cubic_global.json"),
               "--n-max", "0", "--out", str(tmp_path / "local.json"))
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == {
        "code": "bad-declaration", "exit": 3,
        "message": "n_max must be at least 3"}


@pytest.mark.parametrize("den", [["0"], []])
@pytest.mark.parametrize("command", ["localize", "compute", "verify"])
def test_zero_denominator_is_rejected(tmp_path, capsys, den, command):
    spec = json.loads((DATA / "cubic_global.json").read_text())
    spec["x"]["den"] = den
    f = tmp_path / "zero_den.json"
    f.write_text(json.dumps(spec))
    assert run(command, "--curve", str(f)) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == {
        "code": "bad-declaration", "exit": 3,
        "message": "x and y need a nonzero denominator"}


def test_compute_global_curve_at_default_chi(tmp_path):
    # the default chi_max 3 derives n_max 32 for a global curve
    out = tmp_path / "res.json"
    assert run("compute", "--curve", str(DATA / "cubic_global.json"),
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["omega"]["chi_max"] == 3
    assert doc["curve_hash"] == ("c9cac0bb4bfd9fa25482460539cc78d4"
                                 "449676d8b32b91b28ac6d570effb3742")
    assert any(e["g"] == 1 and e["n"] == 2 for e in doc["omega"]["entries"])


def _error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])["error"]


@pytest.mark.parametrize("command", ["localize", "compute", "verify"])
def test_n_max_on_a_local_curve_is_a_parse_error(tmp_path, capsys, command):
    # --n-max is the localization precision; a local curve has none
    out = tmp_path / "out.json"
    assert run(command, "--curve", str(DATA / "two_point.json"),
               "--n-max", "5", "--out", str(out)) == 2
    assert _error(capsys) == {
        "code": "parse", "exit": 2,
        "message": "--n-max applies only to a global curve"}
    assert not out.exists()


def _local_spec(tmp_path, order=2, times=None, phi=(), n_max=None):
    spec = {"kind": "local", "version": 1, "phi": list(phi), "n_max": n_max,
            "points": [{"label": "1", "order": order,
                        "times": times or {"3": "1"}}]}
    f = tmp_path / "local.json"
    f.write_text(json.dumps(spec))
    return str(f)


@pytest.mark.parametrize("order, shown", [(3.7, "3.7"), (True, "True"),
                                          ("2", "'2'")])
def test_non_integer_point_order_is_a_parse_error(tmp_path, capsys, order,
                                                  shown):
    # 3.7 used to be truncated to 3, and true read as order 1
    f = _local_spec(tmp_path, order=order, times={"4": "1"})
    assert run("localize", "--curve", f) == 2
    assert _error(capsys) == {
        "code": "parse", "exit": 2,
        "message": f"point order must be an integer, got {shown}"}


def test_non_integer_phi_index_is_a_parse_error(tmp_path, capsys):
    f = _local_spec(tmp_path, phi=[[["1", 1.0], ["1", 1], "1/2"]])
    assert run("compute", "--curve", f) == 2
    assert _error(capsys)["message"] == \
        "phi index must be an integer, got 1.0"


@pytest.mark.parametrize("order", [2.0, False])
def test_non_integer_declared_order_is_a_parse_error(tmp_path, capsys, order):
    spec = json.loads((DATA / "cubic_global.json").read_text())
    spec["declared_ramification"][0][1] = order
    f = tmp_path / "global.json"
    f.write_text(json.dumps(spec))
    assert run("localize", "--curve", str(f)) == 2
    assert _error(capsys) == {
        "code": "parse", "exit": 2,
        "message": f"declared ramification order must be an integer,"
                   f" got {order!r}"}


@pytest.mark.parametrize("n_max", ["x", 2.9, True])
@pytest.mark.parametrize("command", ["localize", "compute"])
def test_non_integer_n_max_is_rejected(tmp_path, capsys, n_max, command):
    # "x" used to end compute in a TypeError and 2.9 was echoed
    f = _local_spec(tmp_path, n_max=n_max)
    assert run(command, "--curve", f) == 3
    assert _error(capsys) == {
        "code": "bad-declaration", "exit": 3,
        "message": f"n_max must be null or an integer, got {n_max!r}"}


@pytest.mark.parametrize("phi, n_max, message", [
    ([], 4, "point '1': time t_7 above n_max = 4"),
    ([[["1", 2], ["1", 5], "1/2"]], 6, "point '1': time t_7 above n_max = 6"),
    ([[["1", 2], ["1", 9], "1/2"]], 8,
     "phi index (('1', 2), ('1', 9)) above n_max = 8"),
])
def test_index_above_n_max_is_a_declaration_error(tmp_path, capsys, phi,
                                                  n_max, message):
    # it used to reach the engine and exit 2 as a window-ceiling "parse"
    f = _local_spec(tmp_path, times={"3": "1", "7": "1"}, phi=phi,
                    n_max=n_max)
    assert run("compute", "--curve", f, "--chi-max", "1") == 3
    assert _error(capsys) == {"code": "bad-declaration", "exit": 3,
                              "message": message}


@pytest.mark.parametrize("text, message", [
    ('"times": {"3": "1", "3": "5"}', "point '1': times repeats the key '3'"),
    ('"times": {"3": "1", "03": "5"}',
     "point '1': time key '03' is not a decimal integer"),
    ('"times": {"3": "1", "3_0": "5"}',
     "point '1': time key '3_0' is not a decimal integer"),
    ('"times": {"3": "1", "x3": "5"}',
     "point '1': time key 'x3' is not a decimal integer"),
    ('"times": {"3": "1"}, "label": "2"', "a point repeats the key 'label'"),
], ids=["repeated", "leading-zero", "underscore", "not-a-number",
        "repeated-label"])
def test_time_keys_name_one_index_each(tmp_path, capsys, text, message):
    # the first three used to read t_3 = 5 and exit 0, and "x3" was
    # reported as int()'s bare message
    f = tmp_path / "curve.json"
    f.write_text('{"kind": "local", "points": [{"label": "1", "order": 2, '
                 + text + '}]}')
    assert run("localize", "--curve", str(f)) == 2
    assert _error(capsys) == {"code": "parse", "exit": 2, "message": message}


def test_repeated_top_level_key_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "curve.json"
    f.write_text('{"kind": "local", "kind": "global", "points": []}')
    assert run("localize", "--curve", str(f)) == 2
    assert _error(capsys) == {"code": "parse", "exit": 2,
                              "message": "the curve spec repeats the key "
                                         "'kind'"}


@pytest.mark.parametrize("second", [[["1", 1], ["1", 2], "2"],
                                    [["1", 2], ["1", 1], "2"],
                                    [["1", 1], ["1", 2], "0"]],
                         ids=["same-orientation", "swapped", "zero"])
def test_phi_repeated_with_another_value(tmp_path, capsys, second):
    # the same orientation used to overwrite the first value (exit 0)
    f = _local_spec(tmp_path, phi=[[["1", 1], ["1", 2], "1"], second])
    assert run("localize", "--curve", f) == 3
    assert _error(capsys) == {
        "code": "bad-declaration", "exit": 3,
        "message": f"phi not symmetric at (('1', 1), ('1', 2)): 1 vs "
                   f"{second[2]}"}


@pytest.mark.parametrize("second", [[["1", 1], ["1", 2], "1"],
                                    [["1", 2], ["1", 1], "2/2"]],
                         ids=["same-orientation", "swapped"])
def test_phi_repeated_with_the_same_value(tmp_path, capsys, second):
    outputs = []
    for phi in ([[["1", 1], ["1", 2], "1"]],
                [[["1", 1], ["1", 2], "1"], second]):
        assert run("localize", "--curve", _local_spec(tmp_path, phi=phi)) \
            == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_default_n_max_covers_the_times(tmp_path, capsys):
    # with phi through index 5 and a time t_7 the default n_max is 7; it
    # was 5, below t_7, so that compute exited 2 on the window ceiling
    f = _local_spec(tmp_path, times={"3": "1", "7": "1"},
                    phi=[[["1", 2], ["1", 5], "1/2"]])
    assert run("localize", "--curve", f) == 0
    assert json.loads(capsys.readouterr().out)["n_max"] == 7


def test_constant_x_is_named(tmp_path, capsys):
    spec = json.loads((DATA / "cubic_global.json").read_text())
    spec["x"] = {"num": ["2", "2"], "den": ["1", "1"]}
    f = tmp_path / "constant.json"
    f.write_text(json.dumps(spec))
    assert run("localize", "--curve", str(f)) == 3
    assert _error(capsys) == {
        "code": "bad-declaration", "exit": 3,
        "message": "x is constant: x - x(1) vanishes identically"}


def _spec_with(path, *keys_and_value):
    """A copy of a data file with one nested value replaced."""
    spec = json.loads((DATA / path).read_text())
    *keys, last, value = keys_and_value
    node = spec
    for key in keys:
        node = node[key]
    node[last] = value
    return spec


@pytest.mark.parametrize("spec, message", [
    (_spec_with("two_point.json", "phi", [5]),
     "a phi entry must be an array, got 5"),
    (_spec_with("two_point.json", "phi", [[5, ["1", 1], "1/2"]]),
     "a phi index must be an array, got 5"),
    (_spec_with("two_point.json", "phi", {}), "phi must be an array, got {}"),
    (_spec_with("two_point.json", "points", 1, 7),
     "a point must be an object, got 7"),
    (_spec_with("two_point.json", "points", "0"),
     "points must be an array, got '0'"),
    (_spec_with("two_point.json", "points", 0, "times", ["4"]),
     "times must be an object, got ['4']"),
    (_spec_with("cubic_global.json", "x", 5), "x must be an object, got 5"),
    (_spec_with("cubic_global.json", "y", "num", "0001"),
     "y num must be an array, got '0001'"),
    (_spec_with("cubic_global.json", "x", "den", "1"),
     "x den must be an array, got '1'"),
    (_spec_with("cubic_global.json", "declared_ramification", {}),
     "declared_ramification must be an array, got {}"),
    (_spec_with("cubic_global.json", "declared_ramification", 0, "1"),
     "a declared ramification must be an array, got '1'"),
], ids=["phi-entry-int", "phi-index-int", "phi-object", "point-int",
        "points-string", "times-list", "x-int", "num-string", "den-string",
        "declared-object", "declared-entry-string"])
def test_malformed_curve_spec_is_a_parse_error(tmp_path, capsys, spec,
                                               message):
    # these ended in a TypeError or AttributeError traceback (exit 1), and
    # a num "0001" was read as the list [0, 0, 0, 1]
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(spec))
    assert run("compute", "--curve", str(f)) == 2
    assert _error(capsys) == {"code": "parse", "exit": 2, "message": message}


@pytest.mark.parametrize("case", ["time", "phi", "num", "den", "coordinate",
                                  "perturb"])
def test_zero_denominator_rational_is_a_parse_error(tmp_path, capsys, case):
    # "1/0" used to escape as a ZeroDivisionError traceback with exit 1
    command, extra = "compute", ()
    if case == "time":
        f = _local_spec(tmp_path, times={"3": "1", "5": "1/0"})
    elif case == "phi":
        f = _local_spec(tmp_path, phi=[[["1", 1], ["1", 1], "1/0"]])
    elif case == "perturb":
        f = str(DATA / "airy.json")
        command, extra = "verify", ("--perturb", "D,(1,3),1/0")
    else:
        spec = json.loads((DATA / "cubic_global.json").read_text())
        if case == "coordinate":
            spec["declared_ramification"][0][0] = "1/0"
        else:
            spec["x"][case][0] = "1/0"
        f = tmp_path / "global.json"
        f.write_text(json.dumps(spec))
    assert run(command, "--curve", str(f), *extra) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {
        "code": "parse", "exit": 2, "message": "zero denominator in '1/0'"}


def _with_rational(tmp_path, slot, value):
    """A curve file with one rational slot set to a raw JSON value."""
    if slot == "time":
        spec = _spec_with("two_point.json", "points", 1, "times", "5", value)
    elif slot == "phi":
        spec = _spec_with("two_point.json", "phi", [[["1", 1], ["1", 1],
                                                     value]])
    elif slot == "coordinate":
        spec = _spec_with("cubic_global.json", "declared_ramification", 1, 0,
                          value)
    else:
        spec = _spec_with("cubic_global.json", "x", slot, 0, value)
    f = tmp_path / "curve.json"
    f.write_text(json.dumps(spec))
    return str(f)


RATIONAL_SLOTS = {"time": "point '1': time t_5", "phi": "a phi value",
                  "num": "x num coefficient", "den": "x den coefficient",
                  "coordinate": "declared ramification coordinate"}


@pytest.mark.parametrize("value", [0.12345678901234567890, 1.0, True, None,
                                   [1], {"1": 1}],
                         ids=["float", "integral-float", "bool", "null",
                              "array", "object"])
@pytest.mark.parametrize("slot", sorted(RATIONAL_SLOTS))
def test_rational_slot_takes_only_strings_and_integers(tmp_path, capsys,
                                                       slot, value):
    # a float time used to be rounded silently (0.123... read as
    # 1543209862654321/12500000000000000) and a num 1.0 was accepted
    f = _with_rational(tmp_path, slot, value)
    assert run("localize", "--curve", f) == 2
    assert _error(capsys) == {
        "code": "parse", "exit": 2,
        "message": f"{RATIONAL_SLOTS[slot]} must be a string or an integer,"
                   f" got {value!r}"}


@pytest.mark.parametrize("slot", sorted(RATIONAL_SLOTS))
def test_rational_slot_integer_reads_as_its_string(tmp_path, capsys, slot):
    outputs = []
    for value in (-1, "-1"):
        assert run("localize", "--curve",
                   _with_rational(tmp_path, slot, value)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("path, keys, message", [
    ("two_point.json", ("points", 0, "label"), "a point needs 'label'"),
    ("two_point.json", ("points", 1, "order"), "a point needs 'order'"),
    ("cubic_global.json", ("x",), "a global curve needs 'x'"),
    ("cubic_global.json", ("y",), "a global curve needs 'y'"),
    ("cubic_global.json", ("declared_ramification",),
     "a global curve needs 'declared_ramification'"),
    ("cubic_global.json", ("y", "num"), "y needs 'num'"),
], ids=["label", "order", "x", "y", "declared", "num"])
def test_missing_key_is_named(tmp_path, capsys, path, keys, message):
    # the message used to be the bare KeyError text, e.g. "'label'"
    spec = json.loads((DATA / path).read_text())
    *parents, last = keys
    node = spec
    for key in parents:
        node = node[key]
    del node[last]
    f = tmp_path / "missing.json"
    f.write_text(json.dumps(spec))
    assert run("compute", "--curve", str(f)) == 2
    assert _error(capsys) == {"code": "parse", "exit": 2, "message": message}


@pytest.mark.parametrize("argv", [
    # options another command reads used to be accepted and ignored
    ("compute", "--perturb", "D,(1,3),+1", "--results", "missing.json"),
    ("compute", "--hbar-max", "2"),
    ("localize", "--chi-max", "9"),
    ("localize", "--format", "table"),
    # argparse errors used to print usage text but no record
    ("compute", "--chi-max", "x"),
    ("verify", "--format", "table"),
])
def test_option_errors_are_one_parse_record(capsys, argv):
    command, *rest = argv
    assert run(command, "--curve", str(DATA / "airy.json"), *rest) == 2
    err = _error(capsys)
    assert (err["code"], err["exit"]) == ("parse", 2)
    assert err["message"].startswith("trcycles")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run("localize", "--help")
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "--n-max" in usage and "--chi-max" not in usage
