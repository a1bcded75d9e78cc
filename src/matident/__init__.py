"""Exact engine for graded polynomial identities of matrix algebras.

Elementary gradings of M_n are induced by an n-tuple of group elements.
This package evaluates polynomials on generic matrices, decides graded
identities exactly, enumerates monomial identities, and produces
machine-checkable rewrite and membership certificates.
"""

from .commpoly import RATIONALS, Poly, PrimeField, Rationals, YVar, parse_field
from .freealg import (
    FreePoly,
    GVar,
    format_polynomial,
    format_word,
    multihomogeneous_components,
    parse_polynomial,
    parse_word,
)
from .generic import (
    DistinctTupleError,
    evaluate,
    is_graded_identity,
    word_product_closed,
)
from .grading import Grading, grading_from_config
from .groups import (
    CayleyGroup,
    CyclicGroup,
    Group,
    IntegerGroup,
    ProductGroup,
    group_from_config,
    validate_cayley,
)
from .monomials import (
    enumerate_monomial_identities,
    length_bounds,
    shortest_monomial_identity,
)
from .rewrite import (
    EquivalenceCertificate,
    MembershipCertificate,
    NonIdentityWitness,
    RewriteStep,
    apply_step,
    certify_membership,
    check_equivalence_certificate,
    check_membership_certificate,
    derive_equivalence,
)

__version__ = "0.1.0"
