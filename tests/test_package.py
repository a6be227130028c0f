"""Package-wide checks: every module's doctests, and every exported name."""

import doctest
import importlib
import pkgutil
import types

import pytest

import tameplane

MODULES = sorted(m.name for m in pkgutil.walk_packages(tameplane.__path__, "tameplane."))


@pytest.mark.parametrize("name", ["tameplane", *MODULES])
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


@pytest.mark.parametrize("name", ["tameplane", "tameplane.lab"])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# the exports as they were listed by hand before __all__ was derived from
# the imports; a name added to an import list is meant to be exported
EXPORTED = {
    "tameplane": {
        "QQ", "PrimeField", "RationalFunctionField", "field_from_spec", "NEG_INF", "Poly1",
        "Poly2", "PolyMat2", "ProjPoint", "AffineAuto", "ElemAuto", "NotAnAutomorphism",
        "PlaneAuto", "as_affine", "as_elementary", "classify", "compose_all", "AmalgamWord",
        "borel_escape_witness", "in_borel", "invert",
        "normal_form", "shear_decompose", "shear_recompose", "vdk_factor", "word_from_json",
        "word_of_atoms", "word_to_json", "NotInMatrixGroup", "PingPongResult",
        "ShearFactor", "from_matrix", "line_matrix", "matrix_factor", "matrix_recompose",
        "matrix_reduced_word", "pingpong_check", "to_matrix", "ParseError", "field_spec",
        "format_auto", "format_poly1", "format_poly2", "format_polymat", "format_scalar",
        "parse_auto", "parse_poly1", "parse_poly2", "parse_polymat", "parse_scalar",
    },
    "tameplane.lab": {
        "CheckRecord", "DEFAULT_WORK_BOUND", "DigitViolation", "LogScalingResult", "PGroup",
        "RationalMatrix", "Report", "addswap_linear", "cyclotomic", "digit_lemma_scan",
        "digits", "euler_phi", "halving_homothety", "is_unipotent", "log_scaling_check",
        "pgroup_nilpotency_index", "quasi_unipotent_order", "relations_report",
        "rotated_value", "square_shear", "unipotent_log",
    },
}


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_derived_exports_are_the_imported_names(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == EXPORTED[name]
    assert not [n for n in module.__all__ if isinstance(getattr(module, n), types.ModuleType)]
