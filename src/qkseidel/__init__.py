"""Exact Seidel product formulas in equivariant quantum K-theory of flag varieties.

The engine computes in the extended K-theoretic Peterson module: Schubert
classes localize to single basis elements over a monomial denominator, the
Seidel product is verified there, and the result is transported to the quantum
K-ring of G/B and pushed forward to G/P.

Entry points:

    build_root_system(type_label, rank)   root datum and Weyl group
    seidel_element / seidel_datum         v[i] and its certified package
    verify_seidel_theorem                 the localized product identity
    seidel_product                        Q^{beta} O^{v[i]w} in QK_T(G/B)
    seidel_product_parabolic              the pushed-forward product on G/P
    sweeps                                exhaustive verification batteries
"""
from .errors import SizeLimitError, UnsupportedProductError, VerificationError
from .peterson import (
    LocalizedClass,
    PetersonElement,
    ell,
    mult_by_ell_sigma,
    mult_by_translation,
    o_class,
    q_class,
    seidel_class,
    star_s,
    star_w,
    verify_seidel_theorem,
)
from .qk import (
    QKElement,
    left_action,
    parabolic_data,
    pushforward,
    seidel_product,
    seidel_product_parabolic,
    verify_phi_compatibility,
    verify_pushforward_commutes,
)
from .rootsys import build_root_system, special_nodes, weyl_from_word
from .seidel import (
    quantum_exponent,
    seidel_datum,
    seidel_element,
    verify_group_lemma,
    verify_key_lemma,
)

__all__ = [
    "LocalizedClass",
    "PetersonElement",
    "QKElement",
    "SizeLimitError",
    "UnsupportedProductError",
    "VerificationError",
    "build_root_system",
    "ell",
    "left_action",
    "mult_by_ell_sigma",
    "mult_by_translation",
    "o_class",
    "parabolic_data",
    "pushforward",
    "q_class",
    "quantum_exponent",
    "seidel_class",
    "seidel_datum",
    "seidel_element",
    "seidel_product",
    "seidel_product_parabolic",
    "special_nodes",
    "star_s",
    "star_w",
    "verify_group_lemma",
    "verify_key_lemma",
    "verify_phi_compatibility",
    "verify_pushforward_commutes",
    "verify_seidel_theorem",
    "weyl_from_word",
]
__version__ = "0.1.0"
