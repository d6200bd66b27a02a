"""Exact-arithmetic lab for trace forms on square roots of inverse differents.

Finite abelian groups with exact characters, cyclotomic fields over the
rationals, group algebras with involution and character transform, the
centered Stickelberger pairing and its transpose, Gaussian-period fields with
HNF ideal arithmetic, resolvends, and unimodular G-form witness searches.
Everything is computed over Z and Q (Fractions); there is no floating point
in any mathematical path.

The certification suites load on first use: `Report`, `SuiteConfig`,
`run_suite` and `sieve_conductors` are served from `gform_lab.suites` by the
module `__getattr__` (PEP 562), so `import gform_lab` loads only the
library's objects.
"""

from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupElement,
    character_value_exponent,
    enumerate_elements,
    galois_twist,
)
from .cyclotomic import (
    CyclotomicNumber,
    compatible_root,
    cyclotomic_polynomial,
    trace_to_subfield,
)
from .group_ring import (
    FourierVector,
    GroupRingElement,
    NotInvertible,
    SelfDualityClass,
    class_membership,
    fourier,
    fourier_inverse,
    invert_by_linear_solve,
    is_integral_unit,
    try_invert,
)
from .stickelberger import (
    DualLatticeElement,
    EquivariantMap,
    StickelbergerVector,
    det_kernel_basis,
    equivariance_check,
    image_selfdual_check,
    integrality_check,
    pairing_char,
    stickelberger_map,
    transpose_value,
    upsilon,
)
from .number_fields import (
    FractionalIdeal,
    HomToG,
    PeriodField,
    build_field,
    compose_fields,
    different,
    dual_lattice,
    prime_above,
    sqrt_inverse_different,
    trace_gram,
)
from .resolvends import (
    AlgebraElement,
    FactorizationResult,
    ReducedResolvend,
    inverse_resolvend,
    is_normal_basis_generator,
    is_self_dual,
    product_resolvend,
    reduced_resolvend,
    resolvend,
    resolvend_pairing_identity,
    stickelberger_factorization_check,
)
from .gforms import (
    GForm,
    IsometryResult,
    IsometryWitness,
    find_self_dual_generator,
    gform_from_A,
    is_self_dual_generator,
    isometry_equivalence,
    standard_form,
    verify_inverse_law,
    verify_weak_multiplicativity,
    witness_element,
)

__version__ = "0.1.0"

_SUITE_NAMES = frozenset({"Report", "SuiteConfig", "run_suite", "sieve_conductors"})


def __getattr__(name: str):
    if name in _SUITE_NAMES:
        from . import suites

        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUITE_NAMES)
