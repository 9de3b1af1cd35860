"""wzkit: exact verification of hypergeometric binomial-sum identities.

The pieces, bottom up: exact scalars (``exactnum``), multivariate
polynomial and rational-function algebra (``symalg``), proper
hypergeometric terms (``hyperterm``), WZ-certificate verification and
order-J discovery (``wzengine``/``gosper``), the identity registry and
its brute-force oracle (``identities``), exhaustive involution checking
(``involution``), and the DSL/CLI surface (``dsl``, ``reports``,
``cli``).
"""

from .exactnum import Rational, UnsupportedArgumentError, binomial, rat_arith
from .hyperterm import (HyperTerm, SupportBound, absorb_rational,
                        shift_quotient, support_bounds, term_eval)
from .identities import (IdentityCase, Loop, SumBound, boundary_gap,
                         check_identity, corollary_derivations, eval_sum,
                         lemma_boundary_flat, lemma_boundary_stepped,
                         registry, thm3_difference)
from .involution import (InvolutionReport, Word, WordModel, check_involution,
                         enum_words, scan_involution, sigma, weight)
from .symalg import (LinearForm, MissingVariableError, MultiPoly, PoleError,
                     RationalFunction, poly_eval, rf_arith, rf_equal,
                     rf_shift)
from .wzengine import (CertCheck, ProofReport, WZProblem,
                       discover_certificate, mutation_check,
                       prove_constant_sum, summed_recurrence_check,
                       telescope_prefix_check, verify_certificate)

__version__ = "0.1.0"

__all__ = [
    "Rational", "UnsupportedArgumentError", "binomial", "rat_arith",
    "LinearForm", "MultiPoly", "RationalFunction", "PoleError",
    "MissingVariableError", "poly_eval", "rf_arith", "rf_equal", "rf_shift",
    "HyperTerm", "SupportBound", "term_eval", "shift_quotient",
    "support_bounds", "absorb_rational",
    "WZProblem", "CertCheck", "ProofReport", "verify_certificate",
    "telescope_prefix_check", "summed_recurrence_check", "prove_constant_sum",
    "discover_certificate", "mutation_check",
    "IdentityCase", "SumBound", "Loop", "eval_sum",
    "check_identity", "lemma_boundary_flat", "lemma_boundary_stepped",
    "thm3_difference", "boundary_gap", "corollary_derivations", "registry",
    "Word", "WordModel", "InvolutionReport", "weight", "scan_involution",
    "sigma", "enum_words", "check_involution",
    "__version__",
]
