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
from .engine import Engine, base_sum, height_zero_sum
from .series import (
    TruncatedSeries,
    brute_force_decorated,
    brute_force_edge,
    catalan,
    generator_series,
    series_expand,
)
from .trees import (
    DecoratedTree,
    PlainTree,
    canonical_decorate,
    canonical_key,
    classify_fringe,
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
    "TruncatedSeries",
    "ZERO",
    "base_sum",
    "brute_force_decorated",
    "brute_force_edge",
    "canonical_decorate",
    "canonical_key",
    "catalan",
    "catalan_gf",
    "classify_fringe",
    "generator_series",
    "height_zero_sum",
    "hypergeom_hk",
    "parse_decorated",
    "parse_plain",
    "series_expand",
    "swap_colors",
]
