"""Self-dual (generalized) quasi-cyclic binary codes: constructions,
exact counting formulas, censuses and Gilbert-Varshamov-type existence
bounds over GF(2)/GF(4)/GF(16).

Importing the package loads none of its modules: each name below, and each
submodule, is imported on first use (PEP 562), so a one-shot `sdgqc`
command loads only the modules it calls.
"""

import sys

__version__ = "0.1.0"

_SUBMODULES = ("fields", "codes", "constructions", "mass", "bounds", "census")

#: each exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("Field", "GF2", "GF4", "GF16", "ALPHA", "OMEGA", "field_for"),
        "fields",
    ),
    **dict.fromkeys(
        ("EUCLIDEAN", "HERMITIAN", "EnumerationBudgetExceeded", "LinearCode", "extended_hamming_code", "load",
         "loads"),
        "codes",
    ),
    **dict.fromkeys(
        ("block_rotate", "crt_components", "cubic_code", "cubic_map", "deinterleave", "direct_sum",
         "direct_sum_gqc", "interleave", "is_gqc_invariant", "quintic_code", "quintic_map", "section_shift"),
        "constructions",
    ),
    "count_words_by_type": "bounds",
    "sample_self_dual": "census",
}

__all__ = [*_EXPORTS, *_SUBMODULES]


def _submodule(name: str):
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name in _EXPORTS:
        # read from the module on every access, not cached here: a name
        # rebound in its module (a tracer's wrapper, say) is seen as it is
        return getattr(_submodule(_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
