"""The fixed workloads: curves, operations, seeds and correctness gates.

Every workload runs the same pipeline on one curve file, each operation in
a fresh interpreter: ``trcycles localize`` (a real localization for a global
curve, the parse/validate/canonical-dump pass-through for a local one),
then ``trcycles compute`` and ``trcycles verify`` on the localized file.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

DEFAULT_SEED = 0

# Nonzero values drawn for non-default seeds: +-p/q with 1 <= p, q <= 3.
SMALL_RATIONALS = sorted({s * Fraction(p, q) for s in (1, -1)
                          for p in (1, 2, 3) for q in (1, 2, 3)})


def _local(points):
    return {"kind": "local", "n_max": None, "phi": [], "version": 1,
            "points": [{"label": label, "order": order,
                        "times": {str(k): str(v) for k, v in times.items()}}
                       for label, order, times in points]}


def _two_point(draw):
    # default: tests/data/two_point.json
    a, b, c = draw(Fraction(2), Fraction(2), Fraction(1, 3))
    return _local([("-1", 2, {3: a}), ("1", 2, {3: b, 5: c})])


def _r3(draw):
    # default: tests/data/r3.json
    (t,) = draw(Fraction(1))
    return _local([("0", 3, {4: t})])


def _cubic(draw):
    # default: tests/data/cubic_global.json, x = -z + z^3/3, y = z.
    # Scaling x by c and y by d multiplies every local time by c*d and
    # leaves the uniformizers and the kernel's analytic part unchanged.
    c, d = draw(Fraction(1), Fraction(1))
    return {"kind": "global", "version": 1,
            "declared_ramification": [["1", 2], ["-1", 2]],
            "x": {"den": ["1"], "num": [str(v) for v in
                                        (0, -c, 0, c / 3)]},
            "y": {"den": ["1"], "num": ["0", str(d)]}}


WORKLOADS = {
    "two-point-simple": {
        "curve": _two_point,
        "localize": [], "localize_repeat": 4,
        "compute": ["--chi-max", "5"], "compute_repeat": 2,
        "verify": ["--chi-max", "5", "--hbar-max", "4", "--deg-max", "4"],
        "verify_repeat": 1,
        "chi_max": 5,
        "levels": [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 1), (1, 2),
                   (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (2, 3), (3, 1)],
        "checks": ["cycle-algebra", "dilaton", "engine-equivalence",
                   "higher-pde", "homogeneity", "pole-bound",
                   "quadratic-pde", "zero-residue"],
        "localized": ({"-1": (2, [3]), "1": (2, [3, 5])}, 0),
        "pinned": {
            "localized": "7e14ffd070710c1d37d0a9eb0b2efa6c"
                         "bb9fd8c7dda460f6b910f0f7b0fb7ee7",
            "compute": "ee041242130bd4759869c4cf8f1d5f44"
                       "cef6c4dabb3500a87cbf488417a2415f",
        },
    },
    "r3-cyclotomic": {
        "curve": _r3,
        "localize": [], "localize_repeat": 4,
        "compute": ["--chi-max", "3"], "compute_repeat": 2,
        "verify": ["--chi-max", "3", "--hbar-max", "3"], "verify_repeat": 1,
        "chi_max": 3,
        "levels": [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3)],
        "checks": ["cycle-algebra", "dilaton", "higher-pde", "homogeneity",
                   "insertion-operator",
                   "pole-bound(simple points; higher orders reported only)",
                   "zero-residue"],
        "localized": ({"0": (3, [4])}, 0),
        "pinned": {
            "localized": "cb8bda9816d72fea83a6859e1ed2e0da"
                         "daa3735b2d619b6fe04085a5f38f0961",
            "compute": "ee9af25d1dc175e9a047bb844daa5b4b"
                       "7ffacb303efe3ea3882e1061037d5cc0",
        },
    },
    "global-cubic": {
        "curve": _cubic,
        "localize": ["--n-max", "14"], "localize_repeat": 1,
        "compute": ["--chi-max", "1"], "compute_repeat": 3,
        "verify": ["--chi-max", "1"], "verify_repeat": 3,
        "chi_max": 1,
        "levels": [(0, 3), (1, 1)],
        "checks": ["cycle-algebra", "dilaton", "engine-equivalence",
                   "homogeneity", "pole-bound", "quadratic-pde",
                   "zero-residue"],
        "localized": ({"-1": (2, [3, 5, 7, 9, 11, 13]),
                       "1": (2, [3, 5, 7, 9, 11, 13])}, 406),
        "pinned": {
            "localized": "399f5fc787625595b08075544ccf8417"
                         "198b820a8a02a01a9a0b607c4260763f",
            "compute": "39f06557ef4cef72fc905782ffb884ad"
                       "bb47978c96429fd136f04e05c49b6018",
        },
    },
}

OPS = ("localize", "compute", "verify")


def curve_document(name: str, seed: int) -> dict:
    """The workload's input curve; the default seed gives the checked-in
    file, any other seed draws every nonzero value from SMALL_RATIONALS."""
    if seed == DEFAULT_SEED:
        def draw(*defaults):
            return defaults
    else:
        rng = random.Random(f"{name}:{seed}")

        def draw(*defaults):
            return tuple(rng.choice(SMALL_RATIONALS) for _ in defaults)
    return WORKLOADS[name]["curve"](draw)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _structure(curve: dict):
    """(label -> (order, time support), number of phi entries)."""
    return ({p["label"]: (p["order"], sorted(int(k) for k in p["times"]))
             for p in curve["points"]}, len(curve["phi"]))


def check_output(name: str, seed: int, op: str, out_path: str,
                 localized_path: str) -> str | None:
    """None when the operation's output passes its gate, else the reason."""
    spec = WORKLOADS[name]
    try:
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    if op == "localize":
        if seed == DEFAULT_SEED:
            got = sha256_file(out_path)
            if got != spec["pinned"]["localized"]:
                return f"localized curve sha256 {got} != pinned"
        if doc.get("kind") != "local":
            return "localize did not produce a local curve"
        if _structure(doc) != spec["localized"]:
            return f"localized curve structure {_structure(doc)} differs"
        return None
    if op == "compute":
        if seed == DEFAULT_SEED:
            got = sha256_file(out_path)
            if got != spec["pinned"]["compute"]:
                return f"compute output sha256 {got} != pinned"
        if doc.get("curve_hash") != sha256_file(localized_path):
            return "compute output names another curve"
        levels = sorted({(e["g"], e["n"]) for e in doc["omega"]["entries"]})
        if levels != [tuple(gn) for gn in spec["levels"]]:
            return f"compute output levels {levels} differ"
        return None
    checks = doc.get("checks", [])
    failed = [c["name"] for c in checks if c.get("status") != "pass"]
    if failed:
        return f"verify checks failed: {failed}"
    names = sorted(c["name"] for c in checks)
    if names != spec["checks"]:
        return f"verify ran checks {names}, expected {spec['checks']}"
    return None
