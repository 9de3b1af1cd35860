from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzkit import wzengine
from wzkit.hyperterm import HyperTerm
from wzkit.identities import registry
from wzkit.symalg import LinearForm, RationalFunction, rf_equal
from wzkit.wzengine import (RowStore, WZProblem, mutation_check, pointwise_witness,
                            prove_constant_sum, summed_recurrence_check,
                            summed_recurrence_value, telescope_prefix_check,
                            verify_certificate)


def lf(const=0, **coeffs):
    return LinearForm.make(coeffs, const)


def P(lform):
    return lform.to_poly()


def const_coeffs(*values):
    return tuple(RationalFunction.const(v) for v in values)


def literal_sign_corrected_pair() -> WZProblem:
    """Corrected recurrence/certificate on the literal-sign summand.

    Certificate validity is invariant under the global sign of F, so
    this variant pins the exact intermediate values quoted for the
    corrected pair (F(2,1) = 16/3, G(2,1) = 2, ...).
    """
    reg = registry()
    return WZProblem(
        problem_id="thm1_literal_sign_corrected_pair",
        term=reg.problem("thm1", "literal").term,
        shift_var="n", sum_var="k",
        coeffs=const_coeffs(-1, 1),
        certificate=reg.problem("thm1", "corrected").certificate,
        base_case=(0, Fraction(-1)),
    )


# ---------------------------------------------------------------------------
# certificate verification


def test_thm2_printed_pair_passes():
    assert verify_certificate(registry().problem("thm2")).status


def test_thm1_corrected_pair_passes():
    assert verify_certificate(registry().problem("thm1", "corrected")).status


def test_thm1_corrected_pair_numeric_witness():
    p = literal_sign_corrected_pair()
    assert verify_certificate(p).status
    F = p.term
    lhs = F.eval({"n": 3, "k": 1}) - F.eval({"n": 2, "k": 1})
    assert F.eval({"n": 3, "k": 1}) == -10
    assert F.eval({"n": 2, "k": 1}) == Fraction(16, 3)
    assert lhs == Fraction(-46, 3)
    g = F.absorb(p.certificate)
    assert g.eval({"n": 2, "k": 2}) - g.eval({"n": 2, "k": 1}) == Fraction(-46, 3)


def test_thm1_literal_pair_fails():
    check = verify_certificate(registry().problem("thm1", "literal"))
    assert not check.status
    assert not check.residual.is_zero()


def test_thm1_literal_residual_is_the_documented_mismatch():
    # residual == [ -k(2n+3) - (2(n+1)(n+2) - k) ] / ((n+1-k)(n+2))
    check = verify_certificate(registry().problem("thm1", "literal"))
    num = (-(P(lf(k=1)) * P(lf(3, n=2)))
           - ((P(lf(1, n=1)) * P(lf(2, n=1))).scaled(2) - P(lf(k=1))))
    expected = RationalFunction(num, P(lf(1, n=1, k=-1)) * P(lf(2, n=1)))
    assert rf_equal(check.residual, expected)


def test_thm1_literal_pointwise_witness():
    lit = registry().problem("thm1", "literal")
    w = pointwise_witness(lit, 0, 5)
    assert w is not None
    nv, kv, lhs, rhs = w
    assert lhs != rhs
    # the specific mismatch at n=2, k=1: lhs -14/3 vs 46/3
    F = lit.term
    lhs2 = F.eval({"n": 3, "k": 1}) + F.eval({"n": 2, "k": 1})
    g = F.absorb(lit.certificate)
    rhs2 = g.eval({"n": 2, "k": 2}) - g.eval({"n": 2, "k": 1})
    assert lhs2 == Fraction(-14, 3)
    assert rhs2 == Fraction(46, 3)


def test_thm3_reformulated_pair_passes():
    check = verify_certificate(registry().problem("thm3"))
    assert check.status
    assert check.residual.is_zero()


def test_boundary_fields():
    check = verify_certificate(registry().problem("thm1", "corrected"))
    assert check.lower_boundary_ok  # numerator divisible by k, G(n,0) = 0
    assert [b.direction for b in check.upper_bounds] == ["upper"]
    assert str(check.upper_bounds[0].bound) == "n"


# ---------------------------------------------------------------------------
# telescoping prefix checks


def test_telescope_thm2_exact_values():
    p = registry().problem("thm2")
    F = p.term
    assert F.eval({"n": 2, "k": 1}) == Fraction(24, 7)
    assert F.eval({"n": 1, "k": 1}) == Fraction(-12, 5)
    g = F.absorb(p.certificate)
    assert g.eval({"n": 1, "k": 2}) == Fraction(192, 35)
    assert g.eval({"n": 1, "k": 1}) == Fraction(-12, 35)
    assert g.eval({"n": 1, "k": 0}) == 0
    lhs = sum(F.eval({"n": 2, "k": kv}) - F.eval({"n": 1, "k": kv})
              for kv in (0, 1))
    assert lhs == g.eval({"n": 1, "k": 2}) - g.eval({"n": 1, "k": 0})
    assert telescope_prefix_check(p, 1)


def test_telescope_thm1_corrected_exact_values():
    p = literal_sign_corrected_pair()
    F = p.term
    assert F.eval({"n": 2, "k": 0}) == -1
    assert F.eval({"n": 3, "k": 0}) == 1
    assert p.certificate.eval({"n": 2, "k": 1}) == Fraction(3, 8)
    g = F.absorb(p.certificate)
    assert (F.eval({"n": 3, "k": 0}) - F.eval({"n": 2, "k": 0})
            == g.eval({"n": 2, "k": 1}) - g.eval({"n": 2, "k": 0}) == 2)
    assert telescope_prefix_check(p, 2)


def test_telescope_empty_prefix_trivially_passes():
    # at n=0 the only pole-free prefix of the thm1 problem is the empty one
    p = registry().problem("thm1", "corrected")
    assert p.certificate.eval({"n": 0, "k": 0}) == 0  # R(n,0) = 0
    assert telescope_prefix_check(p, 0)


def test_telescope_ranges():
    reg = registry()
    for key, lo in (("thm1", 0), ("thm2", -1)):
        p = reg.problem(key, "corrected")
        assert all(telescope_prefix_check(p, nv) for nv in range(lo, 16))


def test_telescope_thm3_grid():
    p = registry().problem("thm3")
    assert all(telescope_prefix_check(p, nv, extra={"m": mv}, kappa_cap=16)
               for nv in range(0, 8) for mv in range(2, 8))


# ---------------------------------------------------------------------------
# summed recurrence checks


def test_summed_thm1_corrected():
    p = registry().problem("thm1", "corrected")
    assert all(summed_recurrence_check(p, nv) for nv in range(0, 51))


def test_summed_thm2_from_minus_one():
    p = registry().problem("thm2")
    assert all(summed_recurrence_check(p, nv) for nv in range(-1, 51))


def test_summed_detects_wrong_coefficients():
    good = registry().problem("thm2")
    bad = WZProblem(
        problem_id="thm2_wrong_coeffs", term=good.term, shift_var="n",
        sum_var="k", coeffs=const_coeffs(1, 1), certificate=good.certificate)
    assert summed_recurrence_value(bad, 0) == 2  # S(1) + S(0)
    assert not summed_recurrence_check(bad, 0)


def test_summed_requires_finite_support():
    with pytest.raises(ValueError):
        summed_recurrence_check(registry().problem("thm3"), 3)


# ---------------------------------------------------------------------------
# proof assembly


def test_prove_thm1_corrected():
    rep = prove_constant_sum(registry().problem("thm1", "corrected"), (0, 40))
    assert rep.failed_stage is None
    assert rep.conclusion == "S(n) = 1 for n in [0, 40]"
    assert rep.base_ok and rep.upper_boundary_ok and rep.cert.lower_boundary_ok


def test_prove_thm2():
    rep = prove_constant_sum(registry().problem("thm2"), (-1, 40))
    assert rep.failed_stage is None
    assert rep.conclusion == "S(n) = 1 for n in [-1, 40]"


def test_prove_thm1_literal_flags_erratum():
    p = registry().problem("thm1", "literal")
    rep = prove_constant_sum(p, (0, 10))
    assert rep.failed_stage == "certificate"
    assert rep.conclusion is None
    assert rep.errata  # names the failing printed pair
    assert rep.base_actual == -1 and rep.base_ok is False


def test_prove_never_concludes_on_base_failure():
    good = registry().problem("thm2")
    wrong_base = WZProblem(
        problem_id="thm2_bad_base", term=good.term, shift_var="n", sum_var="k",
        coeffs=good.coeffs, certificate=good.certificate,
        base_case=(0, Fraction(7)))
    rep = prove_constant_sum(wrong_base, (0, 5))
    assert rep.failed_stage == "base-case"
    assert rep.conclusion is None


def test_prove_never_concludes_with_surviving_mutants(monkeypatch):
    real = wzengine.mutation_check

    def two_survive(*args, **kwargs):
        flags = real(*args, **kwargs)
        flags[18] = flags[19] = False
        return flags

    monkeypatch.setattr(wzengine, "mutation_check", two_survive)
    rep = prove_constant_sum(registry().problem("thm1"), (0, 3))
    assert rep.survivors == [18, 19]
    assert rep.failed_stage is None
    assert rep.conclusion is None


def test_prove_never_concludes_on_telescope_mismatch(monkeypatch):
    monkeypatch.setattr(wzengine, "telescope_first_mismatch",
                        lambda p, n, extra=None, kappa_cap=48, rows=None:
                        (0, Fraction(n), Fraction(0)) if n == 2 else None)
    rep = prove_constant_sum(registry().problem("thm1"), (0, 3))
    assert rep.telescope == [(2, 2, 0)]
    assert rep.failed_stage is None
    assert rep.conclusion is None


def _over_common_factor(p: WZProblem, factor) -> WZProblem:
    """``p`` with R's numerator and denominator both times ``factor``: R off its zeros."""
    r = p.certificate
    return p._replace(certificate=RationalFunction(r.num * factor, r.den * factor))


def test_prove_fails_lower_boundary_on_a_pole_of_r_at_k_zero():
    # R * k / k: G(n, 0) is no longer an honest finite * 0
    p = _over_common_factor(registry().problem("thm1", "corrected"), P(lf(k=1)))
    rep = prove_constant_sum(p, (0, 3))
    assert rep.cert.status and not rep.cert.lower_boundary_ok
    assert rep.failed_stage == "lower-boundary" and rep.conclusion is None


def test_prove_fails_upper_boundary_on_a_pole_of_r_past_the_support():
    # F(n + j, k) vanishes past k = n + 1, and R * (n + 2 - k) / (n + 2 - k)
    # has a pole at k = n + 2 for every n
    p = _over_common_factor(registry().problem("thm1", "corrected"), P(lf(2, n=1, k=-1)))
    rep = prove_constant_sum(p, (0, 3))
    assert rep.cert.status and rep.cert.lower_boundary_ok
    assert not rep.upper_boundary_ok
    assert rep.failed_stage == "upper-boundary" and rep.conclusion is None


@pytest.mark.parametrize("first_break,witness_n", [(8, 8), (9, None)])
def test_prove_scans_the_witness_window_exactly(first_break, witness_n):
    # a_1 = 1 + n(n - 1)...(n - first_break + 1) keeps thm1's corrected
    # recurrence below n = first_break and breaks it there; the witness scan
    # covers n = 0..8 of [0, 20], the first WITNESS_WINDOW = 9
    p = registry().problem("thm1", "corrected")
    breaks = P(lf(1))
    for i in range(first_break):
        breaks = breaks * P(lf(-i, n=1))
    q = p._replace(coeffs=(p.coeffs[0], p.coeffs[1] + RationalFunction(breaks)))
    rep = prove_constant_sum(q, (0, 20))
    assert not rep.cert.status and rep.failed_stage == "certificate"
    assert pointwise_witness(q, 0, first_break - 1) is None
    if witness_n is None:
        assert rep.witness is None
    else:
        assert rep.witness == pointwise_witness(q, 0, 20) and rep.witness[0] == witness_n


# ---------------------------------------------------------------------------
# mutation sensitivity


@pytest.mark.parametrize("key,mode", [("thm2", "corrected"),
                                      ("thm1", "corrected"),
                                      ("thm3", "corrected")])
def test_mutations_all_fail(key, mode):
    p = registry().problem(key, mode)
    assert verify_certificate(p).status
    results = mutation_check(p, count=20, seed=20240517)
    assert len(results) == 20
    assert all(results)


def test_mutation_determinism():
    p = registry().problem("thm2")
    assert mutation_check(p, count=8, seed=3) == mutation_check(p, count=8, seed=3)


def test_verify_forms_the_shift_quotients_once(monkeypatch):
    # the certificate check and every mutant read one q_n and one q_k;
    # _replace() makes a problem on which nothing is formed yet
    calls = []
    real = HyperTerm.shift_quotient

    def counted(term, var):
        calls.append(var)
        return real(term, var)

    monkeypatch.setattr(HyperTerm, "shift_quotient", counted)
    rep = prove_constant_sum(registry().problem("thm1")._replace(), (0, 3))
    assert rep.conclusion is not None and not rep.survivors
    assert sorted(calls) == ["k", "n"]
    calls.clear()
    assert all(mutation_check(registry().problem("thm2")._replace(), count=8, seed=3))
    assert sorted(calls) == ["k", "n"]


# ---------------------------------------------------------------------------
# rows shared across a window


def _pole_and_falling_top() -> WZProblem:
    """F = binom(n - k + 2, k) / (k - 3), R = k / (k - 7): poles in k and a top falling in k."""
    term = HyperTerm.build(("n", "k"), binomials=((lf(2, n=1, k=-1), lf(k=1)),),
                           prefactor=RationalFunction(P(lf(1)), P(lf(-3, k=1))))
    return WZProblem("pole_and_falling_top", term, "n", "k", const_coeffs(-1, 1),
                     RationalFunction(P(lf(k=1)), P(lf(-7, k=1))))


_STORE_PROBLEMS = [*(registry().problems[key] for key in sorted(registry().problems)),
                   _pole_and_falling_top()]
# (n offset, lo, hi, G rather than F): a row of n - 1..n + 2, so requests
# hit, miss, replace a kept row and drop the rows below n - order
_spans = st.tuples(st.integers(-1, 2), st.integers(-3, 8), st.integers(-4, 26), st.booleans())


def _error(exc):
    return None if exc is None else (type(exc), str(exc))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(_STORE_PROBLEMS))), st.integers(-4, 12),
       st.lists(_spans, min_size=1, max_size=10))
def test_row_store_serves_what_eval_line_gives(index, n, requests):
    # n <= -2 meets negative binomial tops; thm1's G and the last problem have poles in k
    p = _STORE_PROBLEMS[index]
    extra = {"m": 3} if "m" in p.term.variables else {}
    rows = RowStore(p, extra)
    for dn, lo, hi, g in requests:
        term = p.companion if g else p.term
        values, error = term.eval_line(dict(extra, n=n + dn), "k", lo, hi)
        got_values, got_error = rows.row(n + dn, lo, hi, g=g)
        assert got_values == values and _error(got_error) == _error(error)


def test_row_store_evaluates_a_row_on_its_first_request(monkeypatch):
    # R = 1, so G's rows are F's; no upper bound in k, so the margin is order = 1
    p = registry().problem("thm3")
    rows = RowStore(p, {"m": 4})
    calls = []
    real = HyperTerm.eval_line
    monkeypatch.setattr(HyperTerm, "eval_line",
                        lambda self, *args: calls.append(args[2:]) or real(self, *args))
    rows.row(5, 0, 30)
    assert calls == [(0, 31)]
    for lo, hi, g in ((3, 12, True), (0, 31, False), (31, 31, True), (0, 0, False)):
        rows.row(5, lo, hi, g=g)
    assert calls == [(0, 31)]  # each cut from the kept row
    rows.row(5, 2, 32, g=True)  # past it: afresh, with the margin
    assert calls == [(0, 31), (2, 33)]
    rows.row(7, 0, 0)  # a miss, which drops the rows below 7 - order
    rows.row(5, 2, 32)
    assert calls == [(0, 31), (2, 33), (0, 1), (2, 33)]


def _slope_two() -> WZProblem:
    """F = binom(2n + 1, k) * sign(k): the upper support bound k <= 2n + 1 rises by 2."""
    term = HyperTerm.build(("n", "k"), sign_exp=lf(k=1),
                           binomials=((lf(1, n=2), lf(k=1)),))
    return WZProblem("slope_two", term, "n", "k", const_coeffs(1, 1),
                     RationalFunction.const(0))


def _store_evaluations(monkeypatch):
    """Each ``eval_line`` call, as (store or None, term's id, point); a store makes it in ``row``."""
    calls, inside = [], []
    real_row, real_line = RowStore.row, HyperTerm.eval_line

    def row(store, *args, **kwargs):
        inside.append(store)
        try:
            return real_row(store, *args, **kwargs)
        finally:
            inside.pop()

    def eval_line(term, point, *args):
        calls.append((inside[-1] if inside else None, id(term), tuple(sorted(point.items()))))
        return real_line(term, point, *args)

    monkeypatch.setattr(RowStore, "row", row)
    monkeypatch.setattr(HyperTerm, "eval_line", eval_line)
    return calls


@pytest.mark.parametrize("key,rng,count", [("wz_thm1_corrected", (0, 60), 125),
                                           ("wz_thm2", (-1, 60), 126),
                                           ("wz_thm3", (0, 30), 288)])
def test_verify_evaluates_each_row_once_per_stage(monkeypatch, key, rng, count):
    # a row is an n, F or G, and a grid point; each stage reads one store
    calls = _store_evaluations(monkeypatch)
    rep = prove_constant_sum(registry().problems[key], rng)
    assert rep.failed_stage is None and not rep.telescope
    stored = [call for call in calls if call[0] is not None]
    assert len(stored) == len(set(stored))
    assert len(calls) == count


def test_summed_stage_evaluates_each_row_once_on_a_steeper_support(monkeypatch):
    # F(n', .)'s span grows by 2 a step in n, so its first row needs a margin of 2
    p = _slope_two()
    calls = _store_evaluations(monkeypatch)
    rows = RowStore(p)
    assert all(summed_recurrence_value(p, n, rows=rows) == 0 for n in range(40))
    assert len(calls) == len(set(calls)) == 41
