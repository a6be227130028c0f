"""Exact computation with polynomial automorphisms of the affine plane.

The package factors tame automorphisms into elementary and affine pieces,
normalizes the resulting words, realizes the origin-preserving subgroup with
identity differential inside a group of polynomial matrices, and carries a
small lab of group-theoretic consistency checks built on the same exact
arithmetic.
"""

from types import ModuleType as _ModuleType

from .scalars import QQ, PrimeField
from .ratfunc import RationalFunctionField, field_from_spec, field_spec
from .poly import NEG_INF, Poly1, Poly2
from .linear import PolyMat2, ProjPoint
from .automorphisms import (
    AffineAuto,
    ElemAuto,
    NotAnAutomorphism,
    PlaneAuto,
    as_affine,
    as_elementary,
    classify,
    compose_all,
)
from .amalgam import (
    AmalgamWord,
    borel_escape_witness,
    in_borel,
    invert,
    normal_form,
    shear_decompose,
    shear_recompose,
    vdk_factor,
    word_from_json,
    word_of_atoms,
    word_to_json,
)
from .matrixrep import (
    NotInMatrixGroup,
    PingPongResult,
    ShearFactor,
    from_matrix,
    line_matrix,
    matrix_factor,
    matrix_recompose,
    matrix_reduced_word,
    pingpong_check,
    to_matrix,
)
from .textio import (
    ParseError,
    format_auto,
    format_poly1,
    format_poly2,
    format_polymat,
    format_scalar,
    parse_auto,
    parse_poly1,
    parse_poly2,
    parse_polymat,
    parse_scalar,
)

# every name imported above; the submodules those imports bind here are left out
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
