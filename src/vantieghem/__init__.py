"""Vantieghem's primality criterion over repunit moduli (b**p - 1)/(b - 1).

Evaluates the product (b + 1)(b**2 + 1)...(b**(p-1) + 1) mod the repunit
modulus by three independent routes (a direct product, a coset-structured
telescoping product, and a closed form over the divisors of p), builds and validates the underlying coset
decomposition, verifies the cyclotomic root-product identity (by Newton's
identities over the power sums of the roots, each reduced by one integer
remainder mod the m-th cyclotomic polynomial at Y = 2**W), and ships slow
brute-force oracles for cross-validation.
"""

from .cosets import CosetDecomposition, VerificationReport, decompose, verify_partition
from .criterion import (
    Path,
    SweepEntry,
    SweepReport,
    TestReport,
    Verdict,
    coset_partial_products,
    evaluate,
    product_closed,
    product_naive,
    product_structured,
    run_test,
    sweep,
    telescope_check,
)
from .cyclotomic import IntPolynomial, cyclotomic_poly, verify_lemma
from .errors import DomainError, NotDivisible, PathUnavailable
from .modmath import RepunitModulus, build_modulus, fold_reduce_pow2, mult_order
from .oracle import is_prime_trial, product_bruteforce

__version__ = "0.1.0"

__all__ = [
    "CosetDecomposition",
    "DomainError",
    "IntPolynomial",
    "NotDivisible",
    "Path",
    "PathUnavailable",
    "RepunitModulus",
    "SweepEntry",
    "SweepReport",
    "TestReport",
    "Verdict",
    "VerificationReport",
    "build_modulus",
    "coset_partial_products",
    "cyclotomic_poly",
    "decompose",
    "evaluate",
    "fold_reduce_pow2",
    "is_prime_trial",
    "mult_order",
    "product_bruteforce",
    "product_closed",
    "product_naive",
    "product_structured",
    "run_test",
    "sweep",
    "telescope_check",
    "verify_lemma",
    "verify_partition",
]
