"""Exact correlator recursion on spectral curves in local-cycle
coordinates, with quantum Airy tensors and annihilation-operator checks.

The package loads lazily (PEP 562): ``import trcycles`` compiles only this
file, and each public name, or submodule, imports its home module on first
access.  A command-line call thus loads only the modules it runs.
"""

import importlib

_EXPORTS = {
    "curves": ("CurveData", "GlobalCurve", "RamPoint", "RationalFunction",
               "localize_global_curve", "scale_curve",
               "validate_local_curve"),
    "cycles": ("LocalCycle", "LocalForm", "bcycle", "bhat", "chat_polar",
               "eta_pairing", "gamma", "intersection", "pair_cycle_form"),
    "errors": ("AdmissibilityError", "FieldExtensionError", "NotInRangeError",
               "PairingError", "PrecisionError", "ResidueObstructionError",
               "TrcyclesError", "UnsupportedError"),
    "recursion": ("OmegaTable", "compute_Fg", "compute_omega_table"),
    "scalars": ("Cyclo", "ScalarField"),
    "series": ("FORM", "FUNCTION", "LaurentSeries", "series_mul"),
    "tensors": ("AiryTensors", "ResidualReport", "compute_airy_tensors",
                "compute_Uk", "tensor_recursion", "verify_higher_pde",
                "verify_quadratic_pde"),
    "wavefunction": ("assemble_logZ", "hirota_insertion_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
