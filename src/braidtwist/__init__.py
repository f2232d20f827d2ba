"""Braid words, the Dehornoy order, and fractional Dehn twist coefficients."""

from .braid import (
    BraidWord,
    closure_components,
    exponent_counts,
    format_word,
    free_reduce,
    garside_delta,
    parse_word,
    permutation,
)
from .ordering import (
    OrderSign,
    ReductionCapError,
    compare,
    handle_reduce,
    order_sign,
)

__all__ = [
    "BraidWord",
    "OrderSign",
    "ReductionCapError",
    "closure_components",
    "compare",
    "exponent_counts",
    "format_word",
    "free_reduce",
    "garside_delta",
    "handle_reduce",
    "order_sign",
    "parse_word",
    "permutation",
]
