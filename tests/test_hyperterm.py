from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzkit.exactnum import UnsupportedArgumentError
from wzkit.hyperterm import (HyperTerm, absorb_rational, shift_quotient,
                             support_bounds, term_eval)
from wzkit.identities import registry
from wzkit.symalg import (LinearForm, MultiPoly, PoleError, RationalFunction,
                          rf_equal)


def lf(const=0, **coeffs):
    return LinearForm.make(coeffs, const)


def P(lform):
    return lform.to_poly()


def RF(num, den=None):
    num = num if isinstance(num, MultiPoly) else P(num)
    den = None if den is None else (den if isinstance(den, MultiPoly) else P(den))
    return RationalFunction(num, den)


def t1():
    """(-1)^(n+k) binom(n+k+1, 2k+1) 2^(2k), the thm1 oracle summand."""
    return registry().case("thm1").summand


def t2():
    return registry().case("thm2").summand


def corrected_r1():
    return RF(P(lf(k=1)) * P(lf(1, k=2)),
              P(lf(1, n=1, k=-1)) * P(lf(2, n=1)))


def oracle_t1(nv, kv):
    """Independent factorial-based evaluation of the thm1 summand."""
    a, b = nv + kv + 1, 2 * kv + 1
    if b < 0 or b > a:
        binom = 0
    else:
        binom = factorial(a) // (factorial(b) * factorial(a - b))
    return (-1) ** (nv + kv) * binom * 4**kv


# ---------------------------------------------------------------------------
# evaluation


def test_eval_thm1_summand():
    assert term_eval(t1(), {"n": 1, "k": 0}) == -2
    assert term_eval(t1(), {"n": 1, "k": 1}) == 4
    assert sum(term_eval(t1(), {"n": 1, "k": kv}) for kv in (0, 1)) == 2  # = n+1


def test_eval_out_of_range_binomial():
    assert term_eval(t1(), {"n": 2, "k": 5}) == 0


def test_eval_thm2_degenerate_base():
    assert term_eval(t2(), {"n": -1, "k": 0}) == 1


def test_eval_negative_top_rejected():
    with pytest.raises(UnsupportedArgumentError):
        term_eval(t1(), {"n": -2, "k": 0})


def test_eval_matches_factorial_oracle():
    for nv in range(0, 9):
        for kv in range(0, 12):
            assert term_eval(t1(), {"n": nv, "k": kv}) == oracle_t1(nv, kv)


def test_eval_multiplicative_over_factors():
    # splitting the factor lists across two terms multiplies the values
    full = t1()
    part_a = HyperTerm.build(("n", "k"), sign_exp=full.sign_exp,
                             binomials=full.binomials)
    part_b = HyperTerm.build(("n", "k"), powers=full.powers,
                             prefactor=full.prefactor)
    for nv in range(0, 6):
        for kv in range(0, 8):
            pt = {"n": nv, "k": kv}
            assert term_eval(full, pt) == term_eval(part_a, pt) * term_eval(part_b, pt)


# ---------------------------------------------------------------------------
# shift quotients


def test_shift_quotient_thm1_in_k():
    q = shift_quotient(t1(), "k")
    num = (P(lf(2, n=1, k=1)) * P(lf(n=1, k=-1))).scaled(-4)
    den = P(lf(3, k=2)) * P(lf(2, k=2))
    assert rf_equal(q, RationalFunction(num, den))


def test_shift_quotient_thm1_in_n():
    q = shift_quotient(t1(), "n")
    assert rf_equal(q, RF(-P(lf(2, n=1, k=1)), P(lf(1, n=1, k=-1))))


def test_shift_quotient_constant_in_var():
    plain = HyperTerm.build(("n", "k"), binomials=((lf(1, n=1), lf(2)),))
    assert rf_equal(shift_quotient(plain, "k"), RationalFunction.const(1))


def test_shift_quotient_factorial_oracle():
    q = shift_quotient(t1(), "k")
    checked = 0
    for nv in range(0, 8):
        for kv in range(0, 8):
            if oracle_t1(nv, kv) == 0 or nv == kv:
                continue
            expected = Fraction(oracle_t1(nv, kv + 1), oracle_t1(nv, kv))
            assert q.eval({"n": nv, "k": kv}) == expected
            checked += 1
    assert checked >= 20


def test_quotient_consistency_all_registry_terms():
    reg = registry()
    for cid in reg.oracle_ids():
        term = reg.case(cid).summand
        for var in term.variables:
            q = shift_quotient(term, var)
            for pt in _grid(term.variables):
                try:
                    v0 = term_eval(term, pt)
                except (PoleError, UnsupportedArgumentError):
                    continue
                if v0 == 0:
                    continue
                try:
                    ratio = q.eval(pt)
                except PoleError:
                    continue
                shifted = dict(pt)
                shifted[var] += 1
                try:
                    v1 = term_eval(term, shifted)
                except (PoleError, UnsupportedArgumentError):
                    continue
                assert v1 == v0 * ratio, (cid, var, pt)


def _grid(variables):
    if len(variables) == 2:
        return [{variables[0]: a, variables[1]: b}
                for a in range(0, 7) for b in range(0, 7)]
    return [{variables[0]: a, variables[1]: b, variables[2]: c}
            for a in range(0, 5) for b in range(0, 5) for c in range(0, 5)]


def test_shift_quotient_large_coefficient():
    # coefficient 4 in the shifted argument goes through the same formula
    term = HyperTerm.build(("n", "k"), binomials=((lf(1, n=1, k=4), lf(k=2)),))

    def direct(nv, kv):
        from math import comb
        a, b = nv + 4 * kv + 1, 2 * kv
        return comb(a, b) if 0 <= b <= a else 0

    q = shift_quotient(term, "k")
    for nv in range(0, 7):
        for kv in range(0, 5):
            if direct(nv, kv):
                assert q.eval({"n": nv, "k": kv}) == Fraction(
                    direct(nv, kv + 1), direct(nv, kv))


# ---------------------------------------------------------------------------
# support bounds


def test_support_bounds_thm1():
    bounds = support_bounds(t1(), "k")
    uppers = [b for b in bounds if b.direction == "upper"]
    lowers = [b for b in bounds if b.direction == "lower"]
    assert [str(b.bound) for b in uppers] == ["n"]
    assert [str(b.bound) for b in lowers] == ["0"]
    for nv in range(0, 11):
        assert term_eval(t1(), {"n": nv, "k": nv + 1}) == 0
        assert term_eval(t1(), {"n": nv, "k": nv}) != 0


def test_support_bounds_thm2():
    uppers = [b for b in support_bounds(t2(), "k") if b.direction == "upper"]
    assert [str(b.bound) for b in uppers] == ["n + 1"]


def test_support_bounds_no_binomials():
    bare = HyperTerm.build(("n",), powers=((2, lf(n=1)),))
    assert support_bounds(bare, "n") == []


def test_support_bounds_sound_everywhere():
    reg = registry()
    for cid in reg.oracle_ids():
        term = reg.case(cid).summand
        for var in term.variables:
            for bound in support_bounds(term, var):
                others = [v for v in term.variables if v != var]
                for pt in _grid(("x",) + tuple(others))[:200]:
                    point = {v: pt[v] for v in others}
                    edge = bound.bound.eval(point)
                    for off in range(1, 6):
                        point[var] = edge + off if bound.direction == "upper" \
                            else edge - off
                        try:
                            assert term_eval(term, point) == 0, (cid, var, bound)
                        except (UnsupportedArgumentError, PoleError):
                            pass


@pytest.mark.parametrize("c", [-3, -2, 2, 3])
def test_support_bounds_exact_for_large_coefficients(c):
    # a binomial with bottom c*k + d, and one with top c*k + d + 10: each
    # bound is the brute-force last (upper) or first (lower) nonzero k, and
    # where nothing is nonzero the bounds cross
    ks = range(-40, 41)
    for top_t in range(0, 9):
        for d in range(-4, 5):
            for top, bottom, count in ((lf(top_t), lf(d, k=c), 2),
                                       (lf(d + 10, k=c), lf(top_t), 1)):
                term = HyperTerm.build(("k",), binomials=((top, bottom),))
                bounds = support_bounds(term, "k")
                assert len(bounds) == count
                uppers = [b.bound.const for b in bounds if b.direction == "upper"]
                lowers = [b.bound.const for b in bounds if b.direction == "lower"]
                nonzero = [k for k in ks
                           if 0 <= bottom.eval({"k": k}) <= top.eval({"k": k})]
                case = (str(top), str(bottom))
                if nonzero:
                    assert all(u == nonzero[-1] for u in uppers), case
                    assert all(lo == nonzero[0] for lo in lowers), case
                else:
                    assert max(lowers) > min(uppers), case


# ---------------------------------------------------------------------------
# absorb


def test_absorb_corrected_certificate_value():
    # G = R*F at (2,1) with the literal-sign summand: (3/8) * (16/3) = 2
    f_literal = registry().problem("thm1", "literal").term
    g = absorb_rational(f_literal, corrected_r1())
    assert term_eval(g, {"n": 2, "k": 1}) == 2


def test_absorb_one_is_identity():
    f = t1()
    g = absorb_rational(f, RationalFunction.const(1))
    assert g.binomials == f.binomials and g.powers == f.powers
    assert g.sign_exp == f.sign_exp
    assert rf_equal(g.prefactor, f.prefactor)
    for kv in range(0, 5):
        assert term_eval(g, {"n": 3, "k": kv}) == term_eval(f, {"n": 3, "k": kv})


def test_absorb_pole_beats_zero_binomial():
    # at (2,3) the binomial vanishes *and* R has a pole: pole must win
    g = absorb_rational(t1(), corrected_r1())
    assert term_eval(t1(), {"n": 2, "k": 3}) == 0
    with pytest.raises(PoleError):
        term_eval(g, {"n": 2, "k": 3})


# ---------------------------------------------------------------------------
# products


def _value_or_error(term, point):
    try:
        return term_eval(term, point)
    except (PoleError, UnsupportedArgumentError) as exc:
        return type(exc)


def _product_value(a, b, point):
    """a(point) * b(point), or the error the product must raise: a pole wins."""
    va, vb = _value_or_error(a, point), _value_or_error(b, point)
    for err in (PoleError, UnsupportedArgumentError):
        if err in (va, vb):
            return err
    return va * vb


_forms = st.builds(lambda c, n, k: lf(c, n=n, k=k), st.integers(-3, 3),
                   st.integers(-2, 2), st.integers(-2, 2))
_terms = st.builds(
    lambda sign, powers, binomials, num, den: HyperTerm.build(
        ("n", "k"), sign_exp=sign, powers=powers, binomials=binomials,
        prefactor=RF(num, den)),
    _forms,
    st.lists(st.tuples(st.sampled_from((2, 3, 4)), _forms), max_size=3),
    st.lists(st.tuples(_forms, _forms), max_size=2),
    _forms.filter(lambda f: f.coeffs or f.const),
    _forms.filter(lambda f: f.coeffs or f.const))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_terms, _terms, st.integers(-3, 6), st.integers(-3, 6))
def test_product_value_is_product_of_values(a, b, nv, kv):
    point = {"n": nv, "k": kv}
    want = _product_value(a, b, point)
    if isinstance(want, type):
        with pytest.raises(want):
            term_eval(a * b, point)
    else:
        assert term_eval(a * b, point) == want


def test_product_of_registry_summands():
    reg = registry()
    terms = [reg.case(cid).summand for cid in reg.oracle_ids()]
    terms += [p.term for p in reg.problems.values()]
    points = [{"n": a, "k": b, "m": c, "j": 1, "l": a}
              for a in range(0, 4) for b in range(0, 4) for c in range(0, 3)]
    for a in terms:
        for b in terms:
            prod = a * b
            assert prod.variables == a.variables + tuple(
                v for v in b.variables if v not in a.variables)
            for pt in points:
                want = _product_value(a, b, pt)
                if isinstance(want, type):
                    with pytest.raises(want):
                        term_eval(prod, pt)
                else:
                    assert term_eval(prod, pt) == want, (a, b, pt)


def test_product_canonical_form():
    a = HyperTerm.build(("n", "k"), sign_exp=lf(1, n=1, k=3),
                        powers=[(4, lf(k=1)), (2, lf(-1, n=2))],
                        binomials=[(lf(n=1), lf(k=1))], prefactor=RF(lf(n=1)))
    b = HyperTerm.build(("k", "m"), sign_exp=lf(3, n=-1, m=1),
                        powers=[(2, lf(1, n=-2)), (3, lf(m=1))],
                        binomials=[(lf(m=1), lf(k=1))], prefactor=RF(lf(1), lf(2)))
    p = a * b
    assert p.sign_exp == lf(0, k=1, m=1)  # n + 3k + 1 - n + m + 3, mod 2
    assert p.powers == ((3, lf(m=1)), (4, lf(k=1)))  # 2^(2n-1) * 2^(1-2n) = 1
    assert p.binomials == ((lf(n=1), lf(k=1)), (lf(m=1), lf(k=1)))
    assert rf_equal(p.prefactor, RF(lf(n=1), lf(2)))
    assert p.variables == ("n", "k", "m")
    one = HyperTerm.build(("n", "k"))
    assert (one * t1()).prefactor.num == t1().prefactor.num
    assert one * t1() == t1()  # the registry summands are in canonical form


# ---------------------------------------------------------------------------
# rows along a line


def _eval_row(term, point, var, lo, hi):
    """``eval`` at var = lo..hi up to the first raise, and what it raised."""
    values = []
    for kv in range(lo, hi + 1):
        try:
            values.append(term.eval(dict(point, **{var: kv})))
        except (PoleError, UnsupportedArgumentError) as exc:
            return values, (type(exc), str(exc))
    return values, None


def _same_row(term, point, var, lo, hi):
    row, error = term.eval_line(point, var, lo, hi)
    want_values, want_error = _eval_row(term, point, var, lo, hi)
    assert [Fraction(num, den) for num, den in row] == want_values, (str(term), lo, hi)
    assert (error if error is None else (type(error), str(error))) == want_error
    return row, error


_LINE_CASES = {
    # (sign, powers, binomials, prefactor num, prefactor den), point, lo, hi
    "negative top": ((lf(), (), [(lf(n=1, k=1), lf(k=1))], P(lf(1)), P(lf(1))),
                     {"n": -3}, 0, 6),
    "top decreasing in k": ((lf(k=1), (), [(lf(5, k=-1), lf(2))], P(lf(1)), P(lf(1))),
                            {"n": 0}, 0, 9),
    "top decreasing by 2": ((lf(), (), [(lf(n=1, k=-2), lf(1, k=-1))], P(lf(1)), P(lf(1))),
                            {"n": 7}, -2, 8),
    "prefactor pole": ((lf(), (), [(lf(n=1), lf(k=1))], P(lf(n=1)), P(lf(-3, k=1))),
                       {"n": 6}, 0, 6),
    "pole and negative top at one k": ((lf(), (), [(lf(2, k=-1), lf())], P(lf(1)),
                                    P(lf(-3, k=1))), {"n": 0}, 0, 6),
    "quadratic prefactor": ((lf(), (), [], P(lf(1, k=2)) * P(lf(-1, n=1, k=1)),
                             P(lf(7, k=1)) * P(lf(1, k=2))), {"n": 3}, -6, 6),
    "negative power exponent": ((lf(1), [(2, lf(-3, k=1)), (3, lf(n=1, k=-1))], [],
                                 P(lf(1)), P(lf(1))), {"n": 1}, 0, 6),
    "k-free binomial": ((lf(n=1), (), [(lf(n=1), lf(2)), (lf(n=1, k=1), lf(k=1))],
                         P(lf(1)), P(lf(1))), {"n": 5}, 0, 5),
    "k-free zero binomial": ((lf(), (), [(lf(n=1), lf(7))], P(lf(1)), P(lf(n=1))),
                             {"n": 5}, 0, 3),
    "zero at both ends": ((lf(k=1), [(4, lf(k=1))], [(lf(6), lf(k=1))], P(lf(1)),
                           P(lf(1))), {"n": 0}, -3, 9),
    "empty range": ((lf(), (), [(lf(n=1), lf(k=1))], P(lf(1)), P(lf(n=1))),
                    {"n": -1}, 3, 2),
}


@pytest.mark.parametrize("case", sorted(_LINE_CASES))
def test_eval_line_matches_eval_on_edge_cases(case):
    (sign, powers, binomials, num, den), point, lo, hi = _LINE_CASES[case]
    term = HyperTerm.build(("n", "k"), sign_exp=sign, powers=powers,
                           binomials=binomials, prefactor=RF(num, den))
    row, error = _same_row(term, point, "k", lo, hi)
    stops = {"negative top": 0, "top decreasing in k": 6, "top decreasing by 2": 6,
             "prefactor pole": 3, "pole and negative top at one k": 3}
    assert len(row) == stops.get(case, max(hi - lo + 1, 0))
    assert (error is None) == (case not in stops)


def test_eval_line_registry_summands():
    reg = registry()
    for t, var in ((t1(), "k"), (t2(), "k"), (t1(), "n"),
                   (reg.problem("thm3").term, "k"), (reg.problem("thm1").term, "n")):
        for nv in range(-3, 8):
            point = {v: nv if v != "m" else 4 for v in t.variables if v != var}
            _same_row(t, point, var, -2, 12)


def _products(forms):
    return st.lists(forms, min_size=1, max_size=2).map(
        lambda fs: P(fs[0]) * P(fs[1]) if len(fs) == 2 else P(fs[0]))


_nonzero_forms = _forms.filter(lambda f: f.coeffs or f.const)
_row_terms = st.builds(
    lambda sign, powers, binomials, num, den: HyperTerm.build(
        ("n", "k"), sign_exp=sign, powers=powers, binomials=binomials,
        prefactor=RF(num, den)),
    _forms,
    st.lists(st.tuples(st.sampled_from((2, 3, 4)), _forms), max_size=2),
    st.lists(st.tuples(_forms, _forms), max_size=3),
    _products(_nonzero_forms), _products(_nonzero_forms))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_row_terms, st.sampled_from("nk"), st.integers(-4, 6), st.integers(-4, 4),
       st.integers(-1, 10))
def test_eval_line_matches_eval(term, var, other, lo, length):
    point = {"n" if var == "k" else "k": other}
    _same_row(term, point, var, lo, lo + length - 1)
