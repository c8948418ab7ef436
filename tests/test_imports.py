"""What ``import trcycles`` and each CLI command load, and the public API.

Each command runs in a fresh interpreter, so an eager import that creeps
back into the package or the CLI changes the pinned module set.  Of the
standard library, no command loads ``dataclasses`` or ``inspect``, and none,
compute and verify (which hash the curve) included, loads ``hashlib`` and
with it OpenSSL: the curve hash takes CPython's built-in SHA-256.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trcycles

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).parent / "data"

# the public names of each submodule, as the package exported them eagerly
API = {
    "curves": ["CurveData", "GlobalCurve", "RamPoint", "RationalFunction",
               "localize_global_curve", "scale_curve",
               "validate_local_curve"],
    "cycles": ["LocalCycle", "LocalForm", "bcycle", "bhat", "chat_polar",
               "eta_pairing", "gamma", "intersection", "pair_cycle_form"],
    "errors": ["AdmissibilityError", "FieldExtensionError", "NotInRangeError",
               "PairingError", "PrecisionError", "ResidueObstructionError",
               "TrcyclesError", "UnsupportedError"],
    "recursion": ["OmegaTable", "compute_Fg", "compute_omega_table"],
    "scalars": ["Cyclo", "ScalarField"],
    "series": ["FORM", "FUNCTION", "LaurentSeries", "series_mul"],
    "tensors": ["AiryTensors", "ResidualReport", "compute_Uk",
                "compute_airy_tensors", "tensor_recursion",
                "verify_higher_pde", "verify_quadratic_pde"],
    "wavefunction": ["assemble_logZ", "hirota_insertion_check"],
}

LOCALIZE = ["cli", "curves", "errors", "scalars", "serialize", "series"]
RESIDUE = LOCALIZE + ["cycles", "recursion"]
EVERY = RESIDUE + ["tensors", "wavefunction"]


# standard-library modules that no command needs (hashlib and _hashlib
# load OpenSSL)
UNUSED = {"dataclasses", "inspect", "hashlib", "_hashlib"}


def added(code):
    """The sorted modules that running code afresh adds to ``sys.modules``;
    those the host's ``site`` loaded before it are not counted."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code +
             "\nnew = sorted(set(sys.modules) - before)"
             "\nimport json\nprint(json.dumps(new))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def loaded(code):
    """The sorted trcycles modules loaded after running code afresh."""
    return [m for m in added(code) if m.startswith("trcycles")]


def modules(*names):
    return sorted(["trcycles"] + [f"trcycles.{m}" for m in names])


@pytest.mark.parametrize("argv, expected", [
    (None, modules()),
    (["localize", "--curve", "two_point.json"], modules(*LOCALIZE)),
    (["localize", "--curve", "cubic_global.json", "--n-max", "8"],
     modules(*LOCALIZE)),
    (["compute", "--curve", "r3.json", "--chi-max", "2"], modules(*RESIDUE)),
    (["compute", "--curve", "two_point.json", "--chi-max", "2"],
     modules(*EVERY)),
    (["verify", "--curve", "r3.json"], modules(*EVERY)),
], ids=["import", "localize-local", "localize-global", "compute-r3",
        "compute-two-point", "verify-r3"])
def test_modules_each_command_loads(tmp_path, argv, expected):
    code = "import trcycles"
    if argv is not None:
        argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        argv += ["--out", str(tmp_path / "out")]
        code += ("\nfrom trcycles.cli import main"
                 f"\nassert main({argv!r}) == 0")
    new = added(code)
    assert [m for m in new if m.startswith("trcycles")] == expected
    assert not UNUSED & set(new)


@pytest.mark.parametrize("curve", ["r3.json", "cubic_global.json"])
def test_parsing_a_curve_loads_no_hashing(curve):
    new = added("from trcycles.serialize import parse_curve_spec\n"
                f"parse_curve_spec(open({str(DATA / curve)!r}).read())")
    assert "trcycles.serialize" in new
    assert not UNUSED & set(new)


def test_submodules_still_import_by_name():
    assert loaded("from trcycles import cli, recursion\n"
                  "import trcycles\n"
                  "assert trcycles.series.__name__ == 'trcycles.series'") \
        == modules(*RESIDUE)


def test_public_api_is_unchanged():
    names = sorted(list(API) + [n for ns in API.values() for n in ns])
    assert len(names) == 42 + 8     # the names and their submodules
    assert sorted(trcycles.__all__) == names
    assert set(names) <= set(dir(trcycles))
    for module, exported in API.items():
        home = getattr(trcycles, module)
        assert home.__name__ == f"trcycles.{module}"
        for name in exported:
            assert getattr(trcycles, name) is getattr(home, name)
    namespace = {}
    exec("from trcycles import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == names
    with pytest.raises(AttributeError):
        trcycles.no_such_name


def test_readme_lists_every_public_name():
    # a public name stays only if README documents it; the "Python API"
    # section runs to the next heading
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in trcycles.__all__
               if name not in API and f"`{name}`" not in section]
    assert not missing
