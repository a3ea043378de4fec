"""Orbit functions of the rank-two exceptional root system.

Four families of Weyl-group orbit sums of exponentials (symmetric,
antisymmetric, and the two hybrid sign characters), their continuous
and discrete orthogonality, Fourier-style transforms on fundamental
domain grids, symbolic product decompositions, character expansions,
and the arithmetic of conjugacy classes of elements of finite order.

The transforms, and with them numpy, load on first use: ``g2fun.forward``,
``from g2fun import transforms`` and ``from g2fun import *`` import them,
plain ``import g2fun`` does not.
"""

import importlib

from .algebra import (
    OrbitSum,
    char_expansion_matrix,
    evaluate_sum,
    expand_char_in_C,
    expand_product,
    invert_char_matrix,
    product_check,
    target_family,
)
from .arith import (
    FiniteOrderElement,
    RationalTable,
    enumerate_efo,
    is_rational,
    power_class,
    rational_classes,
    rational_table,
    search_integer_points,
)
from .lattice import (
    Grid,
    Spectrum,
    SpectrumEntry,
    c_weight,
    grid_points,
    grid_size,
    grid_to_json,
    spectrum,
)
from .orbitfn import (
    WALLS,
    CHARACTER_VARIANTS,
    FunctionValue,
    SingularPointError,
    boundary_parity,
    character,
    dimension,
    evaluate,
    evaluate_real,
    sample_values,
)
from .rootsys import (
    C,
    FAMILIES,
    Family,
    KacPoint,
    Point,
    S,
    SL,
    SS,
    SignedWeight,
    Weight,
    dominantize,
    fold_to_F,
    height,
    is_admissible,
    kac_point,
    signed_orbit,
    weyl_orbit,
)
__version__ = "0.1.0"

__all__ = [
    "C",
    "CHARACTER_VARIANTS",
    "WALLS",
    "CoefficientVector",
    "FAMILIES",
    "Family",
    "FiniteOrderElement",
    "FunctionValue",
    "Grid",
    "KacPoint",
    "kac_point",
    "OrbitSum",
    "Point",
    "RationalTable",
    "S",
    "SL",
    "SS",
    "SampledField",
    "SignedWeight",
    "SingularPointError",
    "Spectrum",
    "SpectrumEntry",
    "Weight",
    "basis_matrix",
    "boundary_parity",
    "char_expansion_matrix",
    "character",
    "coefficients_from_csv",
    "coefficients_from_json",
    "coefficients_to_csv",
    "coefficients_to_json",
    "continuous_inner",
    "dimension",
    "discrete_inner",
    "dominantize",
    "enumerate_efo",
    "evaluate",
    "evaluate_real",
    "evaluate_sum",
    "expand_char_in_C",
    "expand_product",
    "field_from_csv",
    "field_from_json",
    "field_to_csv",
    "field_to_json",
    "fold_to_F",
    "forward",
    "c_weight",
    "grid_points",
    "grid_size",
    "grid_to_json",
    "height",
    "inverse",
    "invert_char_matrix",
    "is_admissible",
    "is_rational",
    "norm_constants",
    "power_class",
    "product_check",
    "rational_classes",
    "rational_table",
    "sample_on_grid",
    "sample_values",
    "search_integer_points",
    "signed_orbit",
    "spectrum",
    "support_mask",
    "target_family",
    "weyl_orbit",
]


def __getattr__(name: str):
    # Every exported name not bound above is served by .transforms.
    if name == "transforms" or name in __all__:
        transforms = importlib.import_module(".transforms", __name__)
        return transforms if name == "transforms" else getattr(transforms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
