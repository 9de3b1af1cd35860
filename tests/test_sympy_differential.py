"""Differential tests of ``symalg`` against sympy on random inputs.

sympy is an independent implementation of the same exact algebra:
polynomial products and evaluation; rational-function arithmetic,
shifts and evaluation; and the integer shifts that make two polynomials
share a factor, read from affine factors, must agree with it.  So must
the Gosper reference of ``test_formula_references``, which the
affine-factor normal form is tested against: its division with
remainder and gcds of univariate polynomials, its fraction-free
determinants and its shifts from the resultant.  The module is skipped
when sympy is not installed; wzkit itself never imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_formula_references import _det_bareiss, ref_divmod, ref_gcd, ref_shift_candidates

from wzkit.gosper import UPoly, affine_dispersion
from wzkit.symalg import (LinearForm, MultiPoly, PoleError, RationalFunction, _upoly_gcd,
                          rf_arith)

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


def is_zero(expr) -> bool:
    """Whether a rational expression is identically 0: its numerator over a
    common denominator expands to 0.  ``sympy.cancel`` alone can leave an
    unevaluated constant, such as -1/2 + 1/2 for
    (k^2 n^2 + 2 k^2 n + k^2)/(2 k^2) - (n + 1)^2/2 (sympy 1.14)."""
    return sympy.expand(sympy.fraction(sympy.together(expr))[0]) == 0


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
    assert is_zero(rf_to_sympy(rf_arith(f, op, g)) - want)


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
    assert is_zero(rf_to_sympy(f.shifted(var, offset)) - want)


# ---------------------------------------------------------------------------
# univariate polynomials, determinants and shift candidates of the Gosper reference

QQ_N = sympy.QQ.frac_field(N)
n_polys = st.dictionaries(st.tuples(st.integers(0, 2)), coeffs, max_size=3).map(
    lambda d: MultiPoly(("n",), d))
const_rfs = coeffs.map(RationalFunction.const)
n_rfs = const_rfs | st.builds(RationalFunction, n_polys,
                              n_polys.filter(lambda p: not p.is_zero()))


def upolys(coeff_rfs, max_degree=3):
    return st.lists(coeff_rfs, max_size=max_degree + 1).map(lambda cs: UPoly("k", cs))


def upoly_to_sympy(p: UPoly):
    expr = sum((rf_to_sympy(c) * K**i for i, c in enumerate(p.coeffs)), sympy.Integer(0))
    return sympy.Poly(expr, K, domain=QQ_N)


@settings(max_examples=40, deadline=None)
@given(upolys(n_rfs), upolys(n_rfs).filter(lambda p: not p.is_zero()))
def test_upoly_divmod_matches_sympy(a, b):
    q, r = ref_divmod(a, b)
    want_q, want_r = upoly_to_sympy(a).div(upoly_to_sympy(b))
    assert upoly_to_sympy(q) == want_q
    assert upoly_to_sympy(r) == want_r


@settings(max_examples=40, deadline=None)
@given(upolys(n_rfs, 2), upolys(n_rfs, 2), upolys(const_rfs, 2))
def test_upoly_gcd_matches_sympy(a, b, common):
    a, b = a * common, b * common  # a nontrivial gcd more often than not
    got = ref_gcd(a, b)
    want = upoly_to_sympy(a).gcd(upoly_to_sympy(b))
    assert upoly_to_sympy(got) == (want.monic() if not want.is_zero else want)


k_polys = st.dictionaries(st.tuples(st.integers(0, 4)), coeffs, max_size=4).map(
    lambda d: MultiPoly(("k",), d))


@settings(max_examples=60, deadline=None)
@given(k_polys, k_polys, k_polys)
def test_upoly_gcd_of_multipolys_matches_sympy(a, b, common):
    a, b = a * common, b * common
    got = to_sympy(_upoly_gcd(a, b, "k"))
    want = sympy.Poly(to_sympy(a), K, domain=sympy.QQ).gcd(
        sympy.Poly(to_sympy(b), K, domain=sympy.QQ))
    assert sympy.Poly(got, K, domain=sympy.QQ) == (want.monic() if not want.is_zero else want)


small_polys = st.dictionaries(exps, st.integers(-3, 3).map(Fraction) | coeffs,
                              max_size=3).map(lambda d: MultiPoly(("k", "n"), d))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda size: st.lists(st.lists(small_polys, min_size=size, max_size=size),
                          min_size=size, max_size=size)))
def test_det_bareiss_matches_sympy(mat):
    want = sympy.Matrix(len(mat), len(mat),
                        [to_sympy(p) for row in mat for p in row]).det(method="berkowitz")
    assert sympy.expand(to_sympy(_det_bareiss(mat)) - want) == 0


# a root r + s*n with r a small rational and s in {0, 1}
roots = st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=2),
                  st.integers(0, 1))


def from_roots(rs) -> UPoly:
    p = UPoly.one("k")
    for r, s in rs:
        root = RationalFunction.const(r) + RationalFunction.var("n") * RationalFunction.const(s)
        p = p * UPoly("k", [-root, RationalFunction.const(1)])
    return p


def root_forms(rs) -> tuple[LinearForm, ...]:
    """The factors k - (r + s*n) of ``from_roots(rs)`` as integer affine forms."""
    return tuple(LinearForm.make({"k": r.denominator, "n": -s * r.denominator}, -r.numerator)
                 for r, s in rs)


def sympy_shifts(a: UPoly, b: UPoly) -> list[int]:
    """Integers g >= 0 where a(k) and b(k+g) share a factor for every n."""
    h = sympy.Symbol("h")
    ea, eb = upoly_to_sympy(a).as_expr(), upoly_to_sympy(b).as_expr()
    res = sympy.numer(sympy.together(sympy.resultant(ea, eb.subs(K, K + h), K)))
    # g must be a root of every coefficient in n
    common = sympy.gcd_list(sympy.Poly(res, N).all_coeffs())
    return sorted(int(g) for g in sympy.Poly(common, h).ground_roots()
                  if g.is_integer and g >= 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(roots, min_size=1, max_size=3), st.lists(roots, min_size=1, max_size=2))
def test_shift_candidates_match_sympy_integer_roots(ra, rb):
    # the resultant's shifts and those read from the affine factors
    a, b = from_roots(ra), from_roots(rb)
    want = sympy_shifts(a, b)
    assert ref_shift_candidates(a, b) == want
    assert affine_dispersion(root_forms(ra), root_forms(rb), "k") == want


def test_shift_candidates_match_sympy_on_parametric_roots():
    # roots n+3 against n and n+5: only the shift 2 aligns a pair for every n
    ra, rb = [(Fraction(3), 1)], [(Fraction(0), 1), (Fraction(5), 1), (Fraction(4), 0)]
    a, b = from_roots(ra), from_roots(rb)
    assert ref_shift_candidates(a, b) == sympy_shifts(a, b) == [2]
    assert affine_dispersion(root_forms(ra), root_forms(rb), "k") == [2]
