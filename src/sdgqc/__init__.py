"""Self-dual (generalized) quasi-cyclic binary codes: constructions,
exact counting formulas, censuses and Gilbert-Varshamov-type existence
bounds over GF(2)/GF(4)/GF(16)."""

from .fields import Field, GF2, GF4, GF16, ALPHA, OMEGA, field_for, expand_binary, compose_binary
from .codes import (
    EUCLIDEAN,
    HERMITIAN,
    EnumerationBudgetExceeded,
    LinearCode,
    extended_hamming_code,
    load,
    loads,
)
from .constructions import (
    block_rotate,
    crt_components,
    cubic_code,
    cubic_map,
    deinterleave,
    direct_sum,
    direct_sum_gqc,
    interleave,
    is_gqc_invariant,
    quintic_code,
    quintic_map,
    section_shift,
)
from .bounds import count_words_by_type
from .census import sample_self_dual
from . import bounds, mass
from . import census as census

__version__ = "0.1.0"
