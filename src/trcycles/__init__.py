"""Exact correlator recursion on spectral curves in local-cycle
coordinates, with quantum Airy tensors and annihilation-operator checks.
"""

from .curves import (
    CurveData,
    GlobalCurve,
    RamPoint,
    RationalFunction,
    localize_global_curve,
    scale_curve,
    validate_local_curve,
)
from .cycles import (
    LocalCycle,
    LocalForm,
    bcycle,
    bhat,
    chat_polar,
    eta_pairing,
    gamma,
    intersection,
    pair_cycle_form,
)
from .errors import (
    AdmissibilityError,
    FieldExtensionError,
    NotInRangeError,
    PairingError,
    PrecisionError,
    ResidueObstructionError,
    TrcyclesError,
    UnsupportedError,
)
from .recursion import (
    DiagonalB,
    OmegaTable,
    PairProduct,
    compute_Fg,
    compute_omega_table,
    k2_apply,
    kk_apply,
)
from .scalars import Cyclo, ScalarField
from .series import (
    FORM,
    FUNCTION,
    LaurentSeries,
    series_mul,
)
from .tensors import (
    AiryTensors,
    ResidualReport,
    UOperator,
    compute_airy_tensors,
    compute_Uk,
    tensor_recursion,
    verify_higher_pde,
    verify_quadratic_pde,
)
from .wavefunction import (
    LogZ,
    assemble_logZ,
    assemble_logZprime,
    hirota_insertion_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
