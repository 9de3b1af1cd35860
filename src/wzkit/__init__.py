"""wzkit: exact verification of hypergeometric binomial-sum identities.

The pieces, bottom up: exact scalars (``exactnum``), multivariate
polynomial and rational-function algebra (``symalg``), proper
hypergeometric terms (``hyperterm``), WZ-certificate verification and
order-J discovery (``wzengine``/``gosper``), the identity registry and
its brute-force oracle (``identities``), exhaustive involution checking
(``involution``), and the DSL/CLI surface (``dsl``, ``reports``,
``cli``).

Every record class of wzkit is a named tuple (``collections.namedtuple``
or ``typing.NamedTuple``) or a plain class with ``__slots__`` or a short
``__init__``; no module uses ``@dataclass``.  Each start of wzkit,
every command and every spawned ``--jobs`` worker, imports every module
and so defines every class.  On Python 3.11.7 and 2 vCPUs, importing
the dataclass module (which loads ``inspect``, ``ast`` and ``dis``)
took 6.3 ms in a fresh interpreter, and a frozen dataclass of four
fields took 780 us to define against 158 us for a ``typing.NamedTuple``.
An instance of the named tuple builds, compares and hashes faster (279
against 425 ns, 295 against 586 ns, 38 against 137 ns); an attribute
read is slower (20 against 9 ns).

A named tuple also takes every tuple operation: ``+``, ``*`` by an
int, ordering, ``len`` and unpacking.  So the two algebraic values,
``LinearForm`` and ``HyperTerm``, whose ``+`` and ``*`` mean something
else, are immutable slotted classes that define their own equality,
hashing and pickling: no tuple operation applies to them, and an
attribute read takes 11 ns.  Records that code mutates in place
(``InvolutionReport``, ``SpecDocument``) are plain classes.  The other
records are named tuples, with a tuple's equality, hashing and pickling,
except that a record that is the outcome of one run or one build
(``CertCheck``, ``ProofReport``, ``Registry``) is equal only to itself.
"""

import os

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


def read_data(name: str) -> str:
    """The text of the bundled file ``data/<name>``.

    Read through the package's loader, as ``pkgutil.get_data`` does, so
    it works for file and zip installs; neither ``pkgutil`` nor
    ``importlib.resources`` is imported, and from Python 3.12 on those
    load ``inspect``.
    """
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __spec__.loader.get_data(path).decode("utf-8")


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
