"""Differential tests of ``symalg`` against sympy on random inputs.

sympy is an independent implementation of the same exact algebra:
polynomial products and evaluation, and rational-function arithmetic,
shifts and evaluation, must agree with it.  The module is skipped when
sympy is not installed; wzkit itself never imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzkit.symalg import MultiPoly, PoleError, RationalFunction, rf_arith

sympy = pytest.importorskip("sympy")

K, N = sympy.symbols("k n")
SYMBOLS = {"k": K, "n": N}


def to_sympy(p: MultiPoly):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, q in zip(p.vars, e):
            term *= SYMBOLS[v] ** q
        expr += term
    return expr


def rf_to_sympy(f: RationalFunction):
    return to_sympy(f.num) / to_sympy(f.den)


def sympy_value(expr, point) -> Fraction:
    value = sympy.Rational(expr.subs({SYMBOLS[v]: sympy.Rational(x.numerator, x.denominator)
                                      for v, x in point.items()}))
    return Fraction(int(value.p), int(value.q))


coeffs = st.integers(-5, 5).map(Fraction) | st.fractions(
    min_value=-5, max_value=5, max_denominator=7)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exps, coeffs, max_size=4).map(lambda d: MultiPoly(("k", "n"), d))
nonzero_polys = polys.filter(lambda p: not p.is_zero())
rfs = st.builds(RationalFunction, polys, nonzero_polys)
values = st.integers(-6, 6).map(Fraction) | st.fractions(
    min_value=-6, max_value=6, max_denominator=5)
points = st.fixed_dictionaries({"k": values, "n": values})
int_points = st.fixed_dictionaries({"k": st.integers(-6, 6), "n": st.integers(-6, 6)})


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_poly_product_matches_sympy(p, q):
    assert sympy.expand(to_sympy(p * q) - to_sympy(p) * to_sympy(q)) == 0


@settings(max_examples=60, deadline=None)
@given(polys, points | int_points)
def test_poly_eval_matches_sympy(p, point):
    assert p.eval(point) == sympy_value(to_sympy(p), point)


@settings(max_examples=40, deadline=None)
@given(rfs, rfs, st.sampled_from("+-*/"))
def test_rf_arithmetic_matches_sympy(f, g, op):
    if op == "/" and g.is_zero():
        return
    want = {"+": sympy.Add, "-": lambda a, b: a - b, "*": sympy.Mul,
            "/": lambda a, b: a / b}[op](rf_to_sympy(f), rf_to_sympy(g))
    assert sympy.cancel(rf_to_sympy(rf_arith(f, op, g)) - want) == 0


@settings(max_examples=60, deadline=None)
@given(rfs, points | int_points)
def test_rf_eval_matches_sympy(f, point):
    den = sympy_value(to_sympy(f.den), point)
    if den == 0:
        with pytest.raises(PoleError):
            f.eval(point)
    else:
        assert f.eval(point) == sympy_value(to_sympy(f.num), point) / den


@settings(max_examples=40, deadline=None)
@given(rfs, st.sampled_from("kn"), st.integers(-3, 3))
def test_rf_shift_matches_sympy(f, var, offset):
    sym = SYMBOLS[var]
    want = rf_to_sympy(f).subs(sym, sym + offset)
    assert sympy.cancel(rf_to_sympy(f.shifted(var, offset)) - want) == 0
