"""Exact closed forms for infinite Catalan sums indexed by trees and meanders."""

from .algebra import (
    H1,
    H2,
    ONE,
    SQRT_1_4T,
    ZERO,
    AlgebraElement,
    Laurent,
    PiPoly,
    catalan_gf,
    hypergeom_hk,
)
from .engine import Engine
from .series import brute_force_decorated, catalan, series_expand
from .trees import (
    DecoratedTree,
    PlainTree,
    canonical_decorate,
    canonical_key,
    parse_decorated,
    parse_plain,
    swap_colors,
)

__all__ = [
    "AlgebraElement",
    "DecoratedTree",
    "Engine",
    "H1",
    "H2",
    "Laurent",
    "ONE",
    "PiPoly",
    "PlainTree",
    "SQRT_1_4T",
    "ZERO",
    "brute_force_decorated",
    "canonical_decorate",
    "canonical_key",
    "catalan",
    "catalan_gf",
    "hypergeom_hk",
    "parse_decorated",
    "parse_plain",
    "series_expand",
    "swap_colors",
]
