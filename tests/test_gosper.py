from collections import Counter
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_formula_references import (ref_discover_certificate, ref_divmod, ref_gcd,
                                     ref_gosper_normal, ref_monic, ref_shift_candidates)

from wzkit import wzengine
from wzkit.exactnum import UnsupportedArgumentError
from wzkit.gosper import UPoly, affine_dispersion, degree_bound, gosper_normal, nullspace
from wzkit.hyperterm import HyperTerm
from wzkit.identities import registry
from wzkit.symalg import LinearForm, MultiPoly, RationalFunction, rf_equal
from wzkit.wzengine import affine_factors, discover_certificate, verify_certificate


def up(var, *fracs):
    return UPoly(var, [RationalFunction.const(Fraction(c)) for c in fracs])


def test_upoly_divmod_and_gcd():
    a = up("k", -1, 0, 1)      # k^2 - 1
    b = up("k", 1, 1)          # k + 1
    q, r = ref_divmod(a, b)
    assert r.is_zero()
    assert q.coeffs[1].as_fraction() == 1 and q.coeffs[0].as_fraction() == -1
    g = ref_gcd(a, up("k", 2, 2))   # gcd(k^2-1, 2k+2) = k+1 (monic)
    assert g.degree == 1
    assert g.coeffs[0].as_fraction() == 1 and g.coeffs[1].as_fraction() == 1


def test_upoly_shift():
    p = up("k", 0, 0, 1)       # k^2
    s = p.shifted(1)           # (k+1)^2
    assert [c.as_fraction() for c in s.coeffs] == [1, 2, 1]
    assert [c.as_fraction() for c in s.shifted(-1).coeffs] == [0, 0, 1]


def test_shift_candidates_integer_gap():
    # k+3 vs k: shifting by 3 aligns the roots
    a = up("k", 3, 1)
    b = up("k", 0, 1)
    assert ref_shift_candidates(a, b) == [3]


def test_shift_candidates_reject_symbolic_gap():
    # k+n+2 vs k+1: the gap n+1 is not a fixed integer
    n = RationalFunction.var("n")
    a = UPoly("k", [n + RationalFunction.const(2), RationalFunction.const(1)])
    b = up("k", 1, 1)
    assert ref_shift_candidates(a, b) == []


# the factors k + 3 and k of r = k + 3 and s = k
_K3_OVER_K = ((LinearForm.make({"k": 1}, 3),), (LinearForm.var("k"),))


def test_gosper_normal_builds_c_part():
    # r/s = (k+3)/k = (k+3)(k+2)(k+1) / ((k+2)(k+1)k): A = B = 1, C cubic
    a, b, c = gosper_normal(up("k", 3, 1), up("k", 0, 1), _K3_OVER_K)
    assert a.degree == 0 and b.degree == 0
    assert c.degree == 3
    # check r/s == Z*A/B * C(k+1)/C(k) pointwise
    for kv in (1, 2, 5, 9):
        zab = a.to_rf().eval({"k": kv}) / b.to_rf().eval({"k": kv})
        cc = c.to_rf().eval({"k": kv + 1}) / c.to_rf().eval({"k": kv})
        assert zab * cc == Fraction(kv + 3, kv)


def test_gosper_normal_gcd_condition():
    # after normalization gcd(A(k), B(k+g)) = 1 for g = 0..8
    a, b, _ = gosper_normal(up("k", 3, 1), up("k", 0, 1), _K3_OVER_K)
    for g in range(0, 9):
        assert ref_gcd(a, b.shifted(g)).degree <= 0


def test_degree_bound_simple():
    # x(k+1) - x(k) = k  has solution of degree 2 (sum of integers)
    a = up("k", 1)
    b = up("k", 1)
    assert degree_bound(a, b, 1) == 2


def test_degree_bound_no_solution():
    # leading coefficients differ: bound K - max(N, M) goes negative
    a = up("k", 0, 0, -1)
    b = up("k", 0, 0, 1)
    assert degree_bound(a, b, 0) is None


def test_nullspace_small_system():
    c = RationalFunction.const
    matrix = [[c(1), c(2), c(3)], [c(2), c(4), c(6)]]
    basis = nullspace(matrix)
    assert len(basis) == 2
    for vec in basis:
        for row in matrix:
            acc = RationalFunction.const(0)
            for a, x in zip(row, vec):
                acc = acc + a * x
            assert acc.is_zero()


# ---------------------------------------------------------------------------
# discovery through the engine


def test_discover_thm1_order1_matches_corrected():
    reg = registry()
    base = reg.problem("thm1", "corrected")
    found = discover_certificate(base.term, "n", "k", 1)
    assert found is not None
    assert verify_certificate(found).status
    assert rf_equal(found.coeffs[0], RationalFunction.const(-1))
    assert rf_equal(found.coeffs[1], RationalFunction.const(1))
    assert rf_equal(found.certificate, base.certificate)


def test_discover_thm1_sign_variant_irrelevant():
    # the literal-sign summand discovers the same pair
    reg = registry()
    lit = reg.problem("thm1", "literal")
    found = discover_certificate(lit.term, "n", "k", 1)
    assert found is not None
    assert rf_equal(found.certificate, reg.problem("thm1", "corrected").certificate)


def test_discover_thm2_order1_matches_printed():
    reg = registry()
    base = reg.problem("thm2")
    found = discover_certificate(base.term, "n", "k", 1)
    assert found is not None
    assert verify_certificate(found).status
    assert rf_equal(found.coeffs[0], RationalFunction.const(-1))
    assert rf_equal(found.certificate, base.certificate)


def test_discover_thm1_order0_no_solution():
    base = registry().problem("thm1", "corrected")
    assert discover_certificate(base.term, "n", "k", 0) is None


def test_discover_thm2_order0_no_solution():
    base = registry().problem("thm2")
    assert discover_certificate(base.term, "n", "k", 0) is None


# ---------------------------------------------------------------------------
# the normal form from affine factors against the resultant and Euclid


class _Captured(Exception):
    pass


def discovery_inputs(term, shift_var, sum_var, order):
    """The (r, s, factors) that discovery hands to ``gosper_normal``."""
    seen = []

    def capture(*args):
        seen.append(args)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wzengine, "gosper_normal", capture)
        with pytest.raises(_Captured):
            discover_certificate(term, shift_var, sum_var, order)
    return seen[0]


def factored_normal_form(r, s, factors):
    """``gosper_normal`` from the factors, asserted equal to the resultant and Euclid path.

    The shifts and (Z*A, B, C) are equal, coefficient by coefficient and in str.
    """
    assert affine_dispersion(*factors, r.var) == ref_shift_candidates(ref_monic(r), ref_monic(s))
    normal = gosper_normal(r, s, factors)
    for got, want in zip(normal, ref_gosper_normal(r, s)):
        assert str(got) == str(want)
        assert len(got.coeffs) == len(want.coeffs)
        assert all(x == y for x, y in zip(got.coeffs, want.coeffs))
    return normal


def _registry_summands():
    reg = registry()
    for case in reg.cases.values():
        for loop in case.loops:
            yield case.summand, case.param, loop.var
    for p in reg.problems.values():
        yield p.term, p.shift_var, p.sum_var


def test_factored_normal_form_matches_reference_on_registry():
    shifted = 0
    for term, shift_var, sum_var in _registry_summands():
        for order in (0, 1):
            r, s, factors = discovery_inputs(term, shift_var, sum_var, order)
            factored_normal_form(r, s, factors)
            shifted += bool(affine_dispersion(*factors, sum_var))
    assert shifted >= 10


def lf(const=0, **coeffs):
    return LinearForm.make(coeffs, const)


# binomials affine in n and k, with a sign, a power and a prefactor free of
# k; r and s of one to max_factors factors in k keep the reference's
# resultants small
_tops = st.builds(lambda n, k, c: lf(c, n=n, k=k), st.integers(0, 2), st.integers(-1, 2),
                  st.integers(0, 3))
_bottoms = st.builds(lambda n, k, c: lf(c, n=n, k=k), st.integers(-1, 1), st.integers(-1, 2),
                     st.integers(-1, 1)) | st.integers(1, 3).map(lf)


def _affine_terms(max_binomials: int, max_factors: int):
    return st.builds(
        lambda sign, power, binomials, den: HyperTerm.build(
            ("n", "k"), sign_exp=sign, powers=[(4, power)], binomials=binomials,
            prefactor=RationalFunction(MultiPoly.const(1), den.to_poly())),
        st.builds(lambda n, k: lf(n=n, k=k), st.integers(0, 1), st.integers(0, 1)),
        st.builds(lambda k: lf(k=k), st.integers(-1, 1)),
        st.lists(st.tuples(_tops, _bottoms), min_size=1, max_size=max_binomials),
        st.builds(lambda n, c: lf(c, n=n), st.integers(0, 2), st.integers(1, 3))).filter(
            lambda t: 0 < max(map(len, affine_factors(t, "n", "k", 1))) <= max_factors)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_affine_terms(2, 4), st.integers(0, 1))
def test_factored_normal_form_matches_reference_on_hypothesis_terms(term, order):
    factored_normal_form(*discovery_inputs(term, "n", "k", order))


def test_factored_normal_form_builds_c_part():
    # binom(k + 3, 2): r/s = (k+4)/(k+2), so C = (k+2)(k+3) and A = B = 1
    term = HyperTerm.build(("n", "k"), binomials=[(lf(3, k=1), lf(2))])
    r, s, factors = discovery_inputs(term, "n", "k", 0)
    assert affine_dispersion(*factors, "k") == [2]
    a, b, c = factored_normal_form(r, s, factors)
    assert (a.degree, b.degree) == (0, 0)
    assert str(c) == "(6)*k^0 + (5)*k^1 + (1)*k^2"


# certificates found at order 1 by the resultant and Euclid path, when its
# slice points were the integers base + 7*i + 1 (38 s and 94 s then)
_TIMES_2K1_CERT = (
    "(-16*k^3*n^2 - 32*k^3*n - 12*k^3 + 4*k*n^2 + 8*k*n + 3*k) / (8*k^2*n^3 + 24*k^2*n^2"
    " + 18*k^2*n + 4*k^2 - 8*k*n^4 - 28*k*n^3 - 30*k*n^2 - 13*k*n - 2*k - 4*n^4 - 16*n^3"
    " - 21*n^2 - 11*n - 2)")
_OVER_K1_CERT = (
    "(-2*k^3*n^4 - 14*k^3*n^3 - 36*k^3*n^2 - 40*k^3*n - 16*k^3 - 5*k^2*n^4 - 35*k^2*n^3"
    " - 90*k^2*n^2 - 100*k^2*n - 40*k^2 - 4*k*n^4 - 28*k*n^3 - 72*k*n^2 - 80*k*n - 32*k"
    " - n^4 - 7*n^3 - 18*n^2 - 20*n - 8) / (k^2*n^5 + 10*k^2*n^4 + 40*k^2*n^3"
    " + 80*k^2*n^2 + 80*k^2*n + 32*k^2 - k*n^6 - 10*k*n^5 - 40*k*n^4 - 80*k*n^3"
    " - 80*k*n^2 - 32*k*n - n^6 - 11*n^5 - 50*n^4 - 120*n^3 - 160*n^2 - 112*n - 32)")


@pytest.mark.parametrize("num, den, certificate, coeffs", [
    (lf(1, k=2), lf(1), _TIMES_2K1_CERT, ["(-2*n - 5) / (2*n + 1)", "1"]),
    (lf(1), lf(1, k=1), _OVER_K1_CERT, ["(-n^2 - 2*n - 1) / (n^2 + 4*n + 4)", "1"]),
], ids=["times_2k_plus_1", "over_k_plus_1"])
def test_order_one_discovery_with_a_prefactor_in_k(num, den, certificate, coeffs):
    # thm1's corrected summand times (2k + 1) and times 1/(k + 1): the
    # numerator goes into the polynomial part, so r and s gain no factor
    # from it, and the denominator's form L = k + 1 joins r at n and n + 1
    # and s as L(k + 1), as a binomial step factor does
    base = registry().problem("thm1", "corrected").term
    term = base.absorb(RationalFunction(num.to_poly(), den.to_poly()))
    forms = [den] * 2 if den.coeff("k") else []
    r_forms, s_forms = affine_factors(term, "n", "k", 1)
    base_r, base_s = affine_factors(base, "n", "k", 1)
    assert Counter(r_forms) - Counter(base_r) == Counter(forms)
    assert Counter(s_forms) - Counter(base_s) == Counter(f.shifted("k", 1) for f in forms)
    assert discover_certificate(term, "n", "k", 0) is None
    problem = discover_certificate(term, "n", "k", 1)
    assert str(problem.certificate) == certificate
    assert [str(c) for c in problem.coeffs] == coeffs


# ---------------------------------------------------------------------------
# a prefactor in k: its numerator in the polynomial part, its form in r and s


# terms of one binomial times one form affine in k, in the numerator or in
# the denominator; at order 1 the form below adds two factors to r and two
# to s, so its terms start from fewer.  The reference's resultants grow with
# every factor, and on a numerator and a denominator form both they do not
# finish
_k_forms = st.builds(lambda k, n, c: lf(c, n=n, k=k), st.integers(1, 2), st.integers(0, 1),
                     st.integers(1, 3))
_k_prefactor_terms = st.booleans().flatmap(lambda below: st.builds(
    lambda term, form: term.absorb(
        RationalFunction(MultiPoly.const(1), form.to_poly()) if below
        else RationalFunction(form.to_poly())),
    _affine_terms(1, 2 if below else 3), _k_forms))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_k_prefactor_terms)
def test_discovery_with_a_prefactor_in_k_matches_reference(term):
    for order in (0, 1):
        got = discover_certificate(term, "n", "k", order)
        want = ref_discover_certificate(term, "n", "k", order)
        assert (got is None) == (want is None), (str(term), order)
        if got is not None:
            assert rf_equal(got.certificate, want.certificate)
            assert all(map(rf_equal, got.coeffs, want.coeffs))


def _digest(problem) -> tuple[str, list[str]]:
    return sha256(str(problem.certificate).encode()).hexdigest()[:16], [
        str(c) for c in problem.coeffs]


# at order 1 the resultant and Euclid path took 28 s and 63 s on thm2 and
# thm1 times (k^2 + 1), finding the same certificates, and did not finish
# thm2 times (k+2)/(k+1) in 15 min (2 vCPUs); each certificate is pinned by
# the first 16 hex digits of the SHA-256 of its str
@pytest.mark.parametrize("ident, num, den, digest, coeffs", [
    ("thm1", lf(2, k=1).to_poly(), lf(1, k=1).to_poly(), "0f8263b8d4783780",
     ["(-2*n^4 - 12*n^3 - 27*n^2 - 26*n - 9) / (2*n^4 + 12*n^3 + 27*n^2 + 28*n + 12)", "1"]),
    ("thm2", lf(2, k=1).to_poly(), lf(1, k=1).to_poly(), "96ca01b9a0ff1091",
     ["(-2*n^3 - 12*n^2 - 23*n - 13) / (2*n^3 + 12*n^2 + 23*n + 15)", "1"]),
    ("thm1", MultiPoly.var("k") ** 2 + MultiPoly.const(1), MultiPoly.const(1), "414522f87f006e4a",
     ["(-4*n^4 - 32*n^3 - 86*n^2 - 88*n - 45) / (4*n^4 + 16*n^3 + 14*n^2 - 4*n + 15)", "1"]),
    ("thm2", MultiPoly.var("k") ** 2 + MultiPoly.const(1), MultiPoly.const(1), "49a5eb5b7d46d056",
     ["(-4*n^4 - 40*n^3 - 150*n^2 - 250*n - 171) / (4*n^4 + 24*n^3 + 54*n^2 + 54*n + 35)",
      "1"]),
], ids=["thm1_times_k2_over_k1", "thm2_times_k2_over_k1", "thm1_times_k_squared_plus_1",
        "thm2_times_k_squared_plus_1"])
def test_order_one_discovery_where_the_reference_is_slow(ident, num, den, digest, coeffs):
    term = registry().problem(ident).term.absorb(RationalFunction(num, den))
    assert discover_certificate(term, "n", "k", 0) is None
    assert _digest(discover_certificate(term, "n", "k", 1)) == (digest, coeffs)


@pytest.mark.parametrize("den", [
    lf(1, k=1).to_poly() * lf(2, k=1).to_poly(),
    MultiPoly.var("n") * MultiPoly.var("k") + MultiPoly.const(1),
    MultiPoly.var("k") ** 2], ids=["degree_two", "k_coefficient_n", "k_squared"])
def test_prefactor_denominator_not_one_affine_form_is_refused(den):
    # the whole denominator is named: thm2's summand has 1/(2n + 3) already
    term = registry().problem("thm2").term.absorb(RationalFunction(MultiPoly.const(1), den))
    named = term.prefactor.den
    assert str(named) == str(den * lf(3, n=2).to_poly())
    with pytest.raises(UnsupportedArgumentError) as exc:
        discover_certificate(term, "n", "k", 1)
    assert str(exc.value) == (f"prefactor denominator {named} is not one form affine in k "
                              "times a factor free of k")
