from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzkit.symalg import (LinearForm, MissingVariableError, MultiPoly,
                          PoleError, RationalFunction, poly_eval, rf_arith,
                          rf_equal, rf_shift)


def lf(const=0, **coeffs):
    return LinearForm.make(coeffs, const)


def P(lform: LinearForm) -> MultiPoly:
    return lform.to_poly()


def RF(num, den=None) -> RationalFunction:
    num = num if isinstance(num, MultiPoly) else P(num)
    den = None if den is None else (den if isinstance(den, MultiPoly) else P(den))
    return RationalFunction(num, den)


n, k = MultiPoly.var("n"), MultiPoly.var("k")
one = MultiPoly.const(1)


# ---------------------------------------------------------------------------
# polynomial evaluation


def test_poly_eval_examples():
    assert poly_eval(n * n + n, {"n": 3}) == 12
    assert poly_eval(n.scaled(2) + MultiPoly.const(3), {"n": -1}) == 1
    assert poly_eval(k * (k.scaled(2) + one), {"k": 0}) == 0


def test_poly_eval_missing_variable():
    with pytest.raises(MissingVariableError):
        poly_eval(n + k, {"n": 1})


def test_poly_canonical_representation():
    # unused variables are dropped, so equal polynomials are identical
    p = (n + k) - k
    assert p.vars == ("n",)
    assert p == n
    assert hash(p) == hash(n)


# ---------------------------------------------------------------------------
# rational-function arithmetic


def test_rf_mul_inverse():
    f = RF(one, lf(2, n=1))  # 1/(n+2)
    g = RF(lf(2, n=1))       # n+2
    assert rf_equal(rf_arith(f, "*", g), RationalFunction.const(1))


def test_rf_sub_self_is_zero():
    r = RF(P(lf(k=1)) * P(lf(1, k=2)), P(lf(1, n=1, k=-1)) * P(lf(2, n=1)))
    assert rf_arith(r, "-", r).is_zero()


def _certificate_sum_sides():
    # lhs: 2(n+k+2)/(n+2) + k(2k+1)/((n+1-k)(n+2))
    a = RF(P(lf(2, n=1, k=1)).scaled(2), P(lf(2, n=1)))
    b = RF(P(lf(k=1)) * P(lf(1, k=2)), P(lf(1, n=1, k=-1)) * P(lf(2, n=1)))
    total = rf_arith(a, "+", b)
    # expected: (2(n+1)(n+2) - k)/((n+1-k)(n+2))
    num = (P(lf(1, n=1)) * P(lf(2, n=1))).scaled(2) - P(lf(k=1))
    expected = RF(num, P(lf(1, n=1, k=-1)) * P(lf(2, n=1)))
    return total, expected


def test_rf_add_cross_multiplied_example():
    total, expected = _certificate_sum_sides()
    assert rf_equal(total, expected)


def test_rf_add_example_pointwise_oracle():
    # independent route: exact evaluation at integer points off the poles
    total, expected = _certificate_sum_sides()
    checked = 0
    for nv in range(-6, 7):
        for kv in range(-6, 7):
            if (nv + 1 - kv) == 0 or (nv + 2) == 0:
                continue
            pt = {"n": nv, "k": kv}
            direct = (Fraction(2 * (nv + kv + 2), nv + 2)
                      + Fraction(kv * (2 * kv + 1), (nv + 1 - kv) * (nv + 2)))
            assert total.eval(pt) == direct == expected.eval(pt)
            checked += 1
    assert checked >= 50


def test_rf_equal_examples():
    x = MultiPoly.var("x")
    assert rf_equal(RationalFunction(x, x), RationalFunction.const(1))
    assert not rf_equal(RF(one, lf(1, n=1, k=-1)), RF(one, lf(n=1, k=-1)))


def test_rf_equal_mismatched_certificate_sides():
    # the failing literal-pair comparison: -k(2n+3)/((n+1-k)(n+2)) vs the sum
    total, _ = _certificate_sum_sides()
    lhs = RF(-(P(lf(k=1)) * P(lf(3, n=2))), P(lf(1, n=1, k=-1)) * P(lf(2, n=1)))
    assert not rf_equal(lhs, total)


def test_rf_division_by_zero_function():
    with pytest.raises(ZeroDivisionError):
        rf_arith(RationalFunction.const(1), "/", RationalFunction.const(0))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(one, MultiPoly.zero())


def test_rf_eval_pole():
    f = RF(one, lf(1, n=1, k=-1))
    with pytest.raises(PoleError):
        f.eval({"n": 2, "k": 3})


# ---------------------------------------------------------------------------
# shifts


def test_rf_shift_examples():
    r = RF(P(lf(k=1)) * P(lf(1, k=2)), P(lf(1, n=1, k=-1)) * P(lf(2, n=1)))
    shifted = rf_shift(r, "k", 1)
    expected = RF(P(lf(1, k=1)) * P(lf(3, k=2)), P(lf(n=1, k=-1)) * P(lf(2, n=1)))
    assert rf_equal(shifted, expected)
    assert rf_equal(rf_shift(RF(one, lf(1, n=1)), "n", 1), RF(one, lf(2, n=1)))


def test_rf_shift_composition():
    r = RF(P(lf(k=1)) * P(lf(1, k=2)), P(lf(1, n=1, k=-1)) * P(lf(2, n=1)))
    assert rf_equal(rf_shift(rf_shift(r, "k", 1), "k", 1), rf_shift(r, "k", 2))


def test_rf_shift_distributes_over_arith():
    a = RF(lf(2, n=1, k=1), lf(2, n=1))
    b = RF(P(lf(k=1)), P(lf(1, n=1, k=-1)))
    for op in "+-*/":
        lhs = rf_shift(rf_arith(a, op, b), "k", 1)
        rhs = rf_arith(rf_shift(a, "k", 1), op, rf_shift(b, "k", 1))
        assert rf_equal(lhs, rhs)


def test_rf_equal_is_equivalence():
    base = RF(P(lf(k=1)), P(lf(1, n=1)))
    pad1 = RF(P(lf(k=1)) * P(lf(2, n=1)), P(lf(1, n=1)) * P(lf(2, n=1)))
    pad2 = RF(P(lf(k=1)) * P(lf(5, k=3)), P(lf(1, n=1)) * P(lf(5, k=3)))
    assert rf_equal(base, base)
    assert rf_equal(base, pad1) and rf_equal(pad1, base)
    assert rf_equal(pad1, pad2) and rf_equal(base, pad2)  # transitivity


def test_rf_equal_implies_pointwise():
    total, expected = _certificate_sum_sides()
    assert rf_equal(total, expected)
    pts = 0
    for nv in range(0, 12):
        for kv in range(0, 12):
            if nv + 1 - kv == 0:
                continue
            pt = {"n": nv, "k": kv}
            assert total.eval(pt) == expected.eval(pt)
            pts += 1
    assert pts >= 50


# ---------------------------------------------------------------------------
# normalization invariants


def test_rf_normalization():
    r = RationalFunction(n.scaled(Fraction(1, 2)), (n * n).scaled(Fraction(-3, 4)))
    # integer contents, coprime, positive leading denominator coefficient
    assert all(c.denominator == 1 for c in r.num.terms.values())
    assert all(c.denominator == 1 for c in r.den.terms.values())
    assert r.den.lead()[1] > 0
    assert rf_equal(r, RF(n.scaled(-2), (n * n).scaled(3)))


def test_rf_zero_normal_form():
    z = RationalFunction(MultiPoly.zero(), n + one)
    assert z.is_zero()
    assert z.den == one


# ---------------------------------------------------------------------------
# property tests on random small polynomials


coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exps, coeffs, max_size=4).map(
    lambda d: MultiPoly(("k", "n"), d))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_poly_mul_commutes_and_shift_homomorphism(p, q):
    assert p * q == q * p
    assert (p * q).shifted("n", 1) == p.shifted("n", 1) * q.shifted("n", 1)
    assert (p + q).shifted("k", -2) == p.shifted("k", -2) + q.shifted("k", -2)


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_divexact_roundtrip(p, q):
    if p.is_zero() or q.is_zero():
        return
    assert (p * q).divexact(q) == p


_fraction_polys = st.dictionaries(
    exps, st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=4).map(
    lambda d: MultiPoly(("k", "n"), d))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fraction_polys, st.sampled_from("kn"), st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-1, 8))
def test_line_values_match_eval_ratio(p, var, other, lo, length):
    point = {"n" if var == "k" else "k": other}
    values, den = p.line_values(point, var, lo, lo + length - 1)
    assert len(values) == max(length, 0)
    for x, v in zip(range(lo, lo + length), values):
        num, den_at = p.eval_ratio(dict(point, **{var: x}))
        assert den == den_at and v == num


def test_line_values_missing_variable():
    with pytest.raises(MissingVariableError, match="'n'"):
        (n * k).line_values({}, "k", 0, 3)
    assert (n * k).line_values({"n": 2, "k": 99}, "k", 0, 3) == ([0, 2, 4, 6], 1)
