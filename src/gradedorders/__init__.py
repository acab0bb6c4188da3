"""Exact-arithmetic toolkit for strongly graded orders over Z and Z[i].

The package builds tiled orders from exponent matrices, grades them by
finite groups (via Picard-group elements or crossed-product data), and
decides whether the resulting order is hereditary.  Every decision is
made with exact integer/Gaussian arithmetic; an independent structure-
constant oracle cross-checks the verdicts over residue fields.
"""

from .base_rings import (
    ZZ,
    ZI,
    BaseRing,
    FractionalIdealR,
    GaussianInt,
    KElem,
    MaximalIdeal,
    maximal_ideals_above,
)
from .tiled import (
    ExponentMatrix,
    GlobalTiledOrder,
    hereditary_staircase,
    is_hereditary_global,
    is_hereditary_local,
    radical,
)
from .groups import FiniteGroup, cyclic_group, symmetric_group
from .graded import (
    CrossedProductDatum,
    GradedOrder,
    construct_crossed_product,
    construct_from_pic,
    graded_order,
    inner_classification,
    validate_strong_grading,
)
from .pic import picent_global, picent_local
from .semiprime import main_hereditary_verdict
from .oracle import flatten, hereditary_oracle, oracle_report, radical_mod_m

__all__ = [
    "ZZ",
    "ZI",
    "BaseRing",
    "FractionalIdealR",
    "GaussianInt",
    "KElem",
    "MaximalIdeal",
    "maximal_ideals_above",
    "ExponentMatrix",
    "GlobalTiledOrder",
    "hereditary_staircase",
    "is_hereditary_global",
    "is_hereditary_local",
    "radical",
    "FiniteGroup",
    "cyclic_group",
    "symmetric_group",
    "CrossedProductDatum",
    "GradedOrder",
    "construct_crossed_product",
    "construct_from_pic",
    "graded_order",
    "inner_classification",
    "validate_strong_grading",
    "picent_global",
    "picent_local",
    "main_hereditary_verdict",
    "flatten",
    "hereditary_oracle",
    "oracle_report",
    "radical_mod_m",
]
