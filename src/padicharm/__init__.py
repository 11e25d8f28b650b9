"""Exact p-adic valuations of multiple harmonic sums H(n, k), the digit
trees that organize them, and a verifier for the claims they satisfy."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .core import (
    ArgumentError,
    EngineDisagreement,
    PrecisionError,
    SizeCapError,
    StructureConstants,
    a_p_set,
    bp_count,
    cp,
    free_p,
    is_prime,
    pi_p_mod,
    structure_constants,
    to_digits,
    vp,
    vp_factorial,
    vp_int,
)
from .expansion import (
    ExpansionVerdict,
    h_p_mod,
    h_prime_mod,
    recip_esym,
    recip_power_sum,
    vp_H_expansion,
)
from .report import CheckReport
from .tree import (
    ChildStats,
    PTree,
    build_tree,
    f_sequence,
)
from .valuation import (
    exact_H,
    exact_H_table,
    stirling,
    stirling_mod,
    vp_H,
    vp_H_sweep,
)

# the names imported above, not the submodules that importing them binds
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
