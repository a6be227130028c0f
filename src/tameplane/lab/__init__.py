"""Desk-scale verification suites: exact matrix logs, p-group central
series, digit scans, and generator relations.  The brute-force oracles
that cross-check them (enumeration of the p-groups, power sums, cyclic
modules, the matrix exponential) live in the tests, in ``tests/oracles.py``."""

from types import ModuleType as _ModuleType

from .digits import DigitViolation, digit_lemma_scan, digits, rotated_value
from .pgroup import DEFAULT_WORK_BOUND, PGroup, pgroup_nilpotency_index
from .relations import (
    addswap_linear,
    halving_homothety,
    relations_report,
    square_shear,
)
from .report import CheckRecord, Report
from .unipotent import (
    LogScalingResult,
    RationalMatrix,
    cyclotomic,
    euler_phi,
    is_unipotent,
    log_scaling_check,
    quasi_unipotent_order,
    unipotent_log,
)

# every name imported above; the submodules those imports bind here are left out
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
