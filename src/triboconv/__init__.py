"""Exact-arithmetic derivation and verification of Tribonacci convolution
identities over the cubic field Q[x]/(x^3 - x^2 - x - 1)."""

from .field import (
    FieldElement,
    RootInterval,
    ZeroAtRoot,
    ZeroElement,
    c_element,
    cofactor_element,
    inverse,
    norm,
    sign_at_real_root,
    trace,
)
from .sequences import InitTriple, ScaledSeq, TriboSeq, binet_check, egf_rational_term, normalize_egf
from .convolution import (
    ConstantSeq,
    IndexTooSmall,
    WeightedSeq,
    prop1_lhs,
    prop2_rhs,
    series_T,
    series_check_derivatives,
)
from .symmetric_identities import coeffs, rhs, verify_sym_identity
from .derivation import (
    CPower,
    CofactorPower,
    PairSumSqPower,
    PowerFamily,
    SumCofactorConst,
    SumCofactorSqConst,
    conjecture_check,
    derive,
    derive_paper_recursive,
    derive_table,
    family_element,
    replicate_paper_table,
)
from .identity_catalog import (
    RangeTooLarge,
    UnknownIdentity,
    VerifyReport,
    identity_ids,
    verify,
    verify_all,
)

__version__ = "0.1.0"
