"""Each formula of the WZ stack against the longer copy it replaced.

``HyperTerm.shift_quotient`` is built from ``hyperterm.step_factors``,
and ``wzengine.mutate_problem`` draws its sites from one list over R,
a_0, ..., a_J.  The longer code each replaced is the reference here:
the ``rise``/``rise_inv`` closures and the four-branch mutation.  Both
must give structurally equal results (the same polynomials with their
terms in the same order, not only equal rational functions) on every
registry term and problem and on hypothesis inputs, and the same mutant
sequence for every seed.

Gosper's normal form by the resultant and Euclid, which ``wzkit`` no
longer has, is the reference for the one it reads from affine factors.
Every shift g is a root of the coefficient, in h, of each parameter
monomial of Res_k(a(k), b(k+h)) (each (k+h)^j expanded by hand, the
determinant by fraction-free Bareiss).  ``ref_shift_candidates`` takes
the one with the smallest Cauchy bound, scans its integer roots in
``Fraction`` arithmetic up to that bound (raising where the bound passes
its limit) and confirms each by a Euclidean gcd; ``ref_gosper_normal``
divides those gcds out, and ``ref_discover_certificate`` is discovery
with the whole term in r/s and that normal form.  ``test_gosper``
compares ``gosper_normal`` and discovery with them, and
``test_sympy_differential`` compares the reference's division, gcds,
determinants and shifts with sympy.

``wzengine.mutation_check`` refutes a mutant by its residual's exact
value at one point and decides symbolically only what that point cannot
refute; its flags must equal per-mutant ``verify_certificate`` on
hypothesis problems and on two built so that some mutant's residual
vanishes at the point without vanishing, or meets a pole there.

The numeric checks of ``wzengine`` read rows of ``HyperTerm.eval_line``
and compare the telescope one k at a time.  The per-point evaluator
they replaced, ``_recurrence_side`` over ``HyperTerm.eval`` with
``Fraction`` prefix sums, is kept here with its four consumers; both
must give equal results, or raise the same exception with the same
message, on every registry problem and 40 seeded mutants of each.  The
same holds for the summed and prefix lists of ``prove_constant_sum``,
whose stages share rows across n, against the per-n references.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzkit.gosper import UPoly
from wzkit.hyperterm import HyperTerm
from wzkit.identities import registry
from wzkit.symalg import LinearForm, MultiPoly, RationalFunction
from wzkit import wzengine
from wzkit.wzengine import WZProblem, _k_range, discover_certificate, mutate_problem

# ---------------------------------------------------------------------------
# the replaced copies


def ref_shift_quotient(term: HyperTerm, var: str) -> RationalFunction:
    """t(var+1)/t(var) with each binomial's rising products written out."""
    num = MultiPoly.const(1)
    den = MultiPoly.const(1)

    def rise(base: LinearForm, m: int) -> None:
        nonlocal num, den
        if m >= 0:
            for i in range(m):
                num = num * (base + i).to_poly()
        else:
            for i in range(1, -m + 1):
                den = den * (base - i).to_poly()

    def rise_inv(base: LinearForm, m: int) -> None:
        nonlocal num, den
        num, den = den, num
        rise(base, m)
        num, den = den, num

    if term.sign_exp.coeff(var) % 2:
        num = -num
    for base, exp in term.powers:
        c = exp.coeff(var)
        if c >= 0:
            num = num.scaled(base**c)
        else:
            den = den.scaled(base**-c)
    for top, bottom in term.binomials:
        p = top.coeff(var)
        q = bottom.coeff(var)
        rise(top + 1, p)
        rise_inv(bottom + 1, q)
        rise_inv(top - bottom + 1, p - q)
    if term.prefactor.is_zero():
        raise ValueError("zero prefactor has no shift quotient")
    quotient = RationalFunction(num, den)
    if not term.prefactor.is_const():
        quotient = quotient * (term.prefactor.shifted(var, 1) / term.prefactor)
    return quotient


_H = "_h"  # the resultant's shift indeterminate


def _det_bareiss(mat: list[list[MultiPoly]]) -> MultiPoly:
    """Fraction-free determinant; every division is exact by Bareiss' theorem."""
    n = len(mat)
    if n == 0:
        return MultiPoly.const(1)
    m = [row[:] for row in mat]
    prev = MultiPoly.const(1)
    sign = 1
    for i in range(n - 1):
        if m[i][i].is_zero():
            for r in range(i + 1, n):
                if not m[r][i].is_zero():
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero()
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[i][i] * m[r][c] - m[r][i] * m[i][c]).divexact(prev)
            m[r][i] = MultiPoly.zero()
        prev = m[i][i]
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def _clear_denominators(p: UPoly) -> list[MultiPoly]:
    """Coefficients of ``p`` scaled to polynomials (common denominator dropped)."""
    den = MultiPoly.const(1)
    for c in p.coeffs:
        den = den * c.den
    return [c.num * den.divexact(c.den) for c in p.coeffs]


def ref_resultant_shifted(a: UPoly, b: UPoly) -> MultiPoly:
    """Res_k(a(k), b(k+h)) with each (k+h)^j expanded by hand."""
    ca = _clear_denominators(a)
    cb = _clear_denominators(b)
    da, db = len(ca) - 1, len(cb) - 1
    h = MultiPoly.var(_H)
    kh_pow: list[dict[int, MultiPoly]] = [{0: MultiPoly.const(1)}]
    for j in range(1, db + 1):
        prev = kh_pow[-1]
        cur: dict[int, MultiPoly] = {}
        for deg_k, coeff in prev.items():  # multiply by (k + h)
            cur[deg_k + 1] = cur.get(deg_k + 1, MultiPoly.zero()) + coeff
            cur[deg_k] = cur.get(deg_k, MultiPoly.zero()) + coeff * h
        kh_pow.append(cur)
    cbh = [MultiPoly.zero() for _ in range(db + 1)]
    for j, coeff in enumerate(cb):
        for deg_k, kc in kh_pow[j].items():
            cbh[deg_k] = cbh[deg_k] + coeff * kc
    n = da + db
    rows: list[list[MultiPoly]] = []
    for i in range(db):
        row = [MultiPoly.zero()] * n
        for j, c in enumerate(reversed(ca)):
            row[i + j] = c
        rows.append(row)
    for i in range(da):
        row = [MultiPoly.zero()] * n
        for j, c in enumerate(reversed(cbh)):
            row[i + j] = c
        rows.append(row)
    return _det_bareiss(rows)


def ref_monic(p: UPoly) -> UPoly:
    return p.scale(RationalFunction.const(1) / p.lc)


def ref_divmod(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly]:
    """Quotient and remainder of ``a`` by ``b`` over the coefficient field."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [RationalFunction.const(0)] * max(0, a.degree - b.degree + 1)
    r = list(a.coeffs)

    def deg(cs):
        while cs and cs[-1].is_zero():
            cs.pop()
        return len(cs) - 1

    while deg(r) >= b.degree:
        d = len(r) - 1
        t = (r[-1] / b.lc).reduced()
        q[d - b.degree] = t
        for i, c in enumerate(b.coeffs):
            r[d - b.degree + i] = (r[d - b.degree + i] - t * c).reduced()
    return UPoly(a.var, q), UPoly(a.var, r)


def ref_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a) if not a.is_zero() else a


def _cauchy_bound(coeffs: dict[int, int | Fraction]) -> Fraction:
    """1 + max |c_i / c_lead|: every root of the polynomial is below it in absolute value."""
    lead = abs(coeffs[max(coeffs)])
    return 1 + max(Fraction(abs(c)) / lead for c in coeffs.values())


def _shift_polynomial(a: UPoly, b: UPoly) -> dict[int, int | Fraction]:
    """Power -> coefficient of a nonzero polynomial in h whose roots include every shift.

    Res_k(a(k), b(k+h)) vanishes at a shift g for all values of the
    parameters, so g is a root of the coefficient, a polynomial in h, of
    each monomial in the parameters; the one with the smallest Cauchy
    bound is returned.
    """
    res = ref_resultant_shifted(a, b)
    if res.is_zero():
        raise ValueError("degenerate resultant (inputs share a factor for all shifts)")
    at = res.vars.index(_H) if _H in res.vars else None
    by_monomial: dict[tuple[int, ...], dict[int, int | Fraction]] = {}
    for e, c in res.terms.items():
        if at is None:
            by_monomial.setdefault(e, {})[0] = c
        else:
            by_monomial.setdefault(e[:at] + e[at + 1:], {})[e[at]] = c
    return min(by_monomial.values(), key=_cauchy_bound)


def ref_shift_candidates(a: UPoly, b: UPoly, limit: int = 100_000) -> list[int]:
    """Nonnegative integers ``g`` with ``gcd(a(k), b(k+g))`` nontrivial.

    The candidates are the integer roots of ``_shift_polynomial`` below
    its Cauchy bound, found with ``Fraction`` arithmetic and each
    confirmed by Euclid's gcd; a bound above ``limit`` raises instead of
    cutting the scan short.
    """
    if a.degree < 1 or b.degree < 1:
        return []
    coeffs = _shift_polynomial(a, b)
    cauchy = _cauchy_bound(coeffs)
    if cauchy > limit:
        raise ValueError(f"the Cauchy bound {cauchy} passes the scan limit {limit}")
    return [g for g in range(int(cauchy) + 2)
            if sum(c * g**e for e, c in coeffs.items()) == 0
            and ref_gcd(a, b.shifted(g)).degree > 0]


def _polynomial_coeffs(p: UPoly) -> UPoly:
    """``p`` with each coefficient that is a polynomial written as one.

    ``reduced`` cancels only univariate gcds, so over two or more
    parameters ``ref_monic`` and Euclid leave coefficients such as
    (k + n + 3) / (k + n + 3); written as polynomials they match the
    expanded factors of ``gosper_normal`` term for term.
    """
    out = []
    for c in p.coeffs:
        try:
            out.append(RationalFunction(c.num.divexact(c.den)))
        except ValueError:  # not a polynomial
            out.append(c)
    return UPoly(p.var, out)


def _exact_quotient(a: UPoly, b: UPoly) -> UPoly:
    q, r = ref_divmod(a, b)
    if not r.is_zero():
        raise ValueError("division is not exact")
    return q


def ref_gosper_normal(r: UPoly, s: UPoly) -> tuple[UPoly, UPoly, UPoly]:
    """``gosper_normal(r, s, factors)`` from ``ref_shift_candidates`` and Euclid's gcds."""
    z = (r.lc / s.lc).reduced()
    a, b, c = ref_monic(r), ref_monic(s), UPoly.one(r.var)
    for g in ref_shift_candidates(a, b):
        d = ref_gcd(a, b.shifted(g))
        if d.degree > 0:
            a = _exact_quotient(a, d)
            b = _exact_quotient(b, d.shifted(-g))
            for j in range(1, g + 1):
                c = c * d.shifted(-j)
    a, b, c = map(_polynomial_coeffs, (a, b, c))
    return a.scale(z), b, c


def ref_discover_certificate(term: HyperTerm, shift_var: str, sum_var: str,
                             order: int) -> WZProblem | None:
    """``discover_certificate`` with the whole term in r/s and the normal form by Euclid.

    The prefactor stays in H even where it involves k, as if N = D = 1,
    so r and s carry its shift quotients and ``ref_gosper_normal`` finds
    their shifts from the resultant.
    """
    one = MultiPoly.const(1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wzengine, "_split_prefactor", lambda t, var: (t, one, one))
        mp.setattr(wzengine, "gosper_normal", lambda r, s, factors: ref_gosper_normal(r, s))
        return discover_certificate(term, shift_var, sum_var, order)


def _ref_mutation_sites(p: WZProblem):
    sites = []
    for part, poly in (("cert_num", p.certificate.num), ("cert_den", p.certificate.den)):
        for exp in poly.terms:
            sites.append((part, -1, exp))
    for j, a in enumerate(p.coeffs):
        for part, poly in (("coeff_num", a.num), ("coeff_den", a.den)):
            for exp in poly.terms:
                sites.append((part, j, exp))
    return sites


def _ref_perturb(poly: MultiPoly, exp, delta: int) -> MultiPoly:
    terms = dict(poly.terms)
    terms[exp] = terms.get(exp, Fraction(0)) + delta
    return MultiPoly(poly.vars, terms)


def ref_mutate_problem(p: WZProblem, rng: random.Random) -> WZProblem:
    """One +-1 perturbation, one branch per kind of site."""
    sites = _ref_mutation_sites(p)
    while True:
        part, j, exp = rng.choice(sites)
        delta = rng.choice((1, -1))
        try:
            if part == "cert_num":
                cert = RationalFunction(_ref_perturb(p.certificate.num, exp, delta),
                                        p.certificate.den)
                return p._replace(certificate=cert)
            if part == "cert_den":
                cert = RationalFunction(p.certificate.num,
                                        _ref_perturb(p.certificate.den, exp, delta))
                return p._replace(certificate=cert)
            coeffs = list(p.coeffs)
            a = coeffs[j]
            if part == "coeff_num":
                coeffs[j] = RationalFunction(_ref_perturb(a.num, exp, delta), a.den)
            else:
                coeffs[j] = RationalFunction(a.num, _ref_perturb(a.den, exp, delta))
            return p._replace(coeffs=tuple(coeffs))
        except ZeroDivisionError:
            continue


# ---------------------------------------------------------------------------
# structural comparison


def _poly(p: MultiPoly):
    """Variables and terms in their stored order."""
    return p.vars, list(p.terms.items())


def _rf(f: RationalFunction):
    return _poly(f.num), _poly(f.den)


def _registry_terms() -> list[HyperTerm]:
    """Every term definition, summand and closed-form part of the registry."""
    reg = registry()
    terms = [d.term for _, doc in reg.documents for d in doc.terms.values()]
    for case in reg.cases.values():
        terms += [case.summand, *case.rhs]
    return terms


# ---------------------------------------------------------------------------
# shift quotients


def _same_quotient(term: HyperTerm, var: str):
    try:
        want = _rf(ref_shift_quotient(term, var))
    except ValueError:
        with pytest.raises(ValueError):
            term.shift_quotient(var)
        return
    assert _rf(term.shift_quotient(var)) == want, (str(term), var)


def test_shift_quotient_matches_reference_on_registry_terms():
    pairs = 0
    for term in _registry_terms():
        for var in term.variables:
            _same_quotient(term, var)
            pairs += 1
    assert pairs >= 40


def lf(const=0, **coeffs):
    return LinearForm.make(coeffs, const)


_forms = st.builds(lambda c, n, k, m: lf(c, n=n, k=k, m=m), st.integers(-4, 4),
                   st.integers(-3, 3), st.integers(-3, 3), st.integers(-1, 1))
_terms = st.builds(
    lambda sign, powers, binomials, num, den: HyperTerm.build(
        ("n", "k", "m"), sign_exp=sign, powers=powers, binomials=binomials,
        prefactor=RationalFunction(num.to_poly(), den.to_poly())),
    _forms,
    st.lists(st.tuples(st.sampled_from((2, 3, 5)), _forms), max_size=2),
    st.lists(st.tuples(_forms, _forms), max_size=3),
    _forms.filter(lambda f: f.coeffs or f.const),
    _forms.filter(lambda f: f.coeffs or f.const))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_terms, st.sampled_from(("n", "k", "m")))
def test_shift_quotient_matches_reference_on_hypothesis_terms(term, var):
    _same_quotient(term, var)


# ---------------------------------------------------------------------------
# the Gosper reference


def test_shift_candidates_reference_refuses_a_bound_past_its_limit():
    # k + 20 against k: the slice h - 20 has Cauchy bound 21
    a = UPoly("k", [RationalFunction.const(20), RationalFunction.const(1)])
    b = UPoly("k", [RationalFunction.const(0), RationalFunction.const(1)])
    assert ref_shift_candidates(a, b, limit=21) == [20]
    with pytest.raises(ValueError, match="the Cauchy bound 21 passes the scan limit 20"):
        ref_shift_candidates(a, b, limit=20)


# ---------------------------------------------------------------------------
# mutants


def _mutant(p: WZProblem):
    return _rf(p.certificate), [_rf(a) for a in p.coeffs]


def _same_mutants(p: WZProblem, seeds, count: int = 20):
    for seed in seeds:
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for i in range(count):
            got, want = mutate_problem(p, got_rng), ref_mutate_problem(p, want_rng)
            assert got.term is p.term and _mutant(got) == _mutant(want), (seed, i)
        assert got_rng.getstate() == want_rng.getstate(), seed


@pytest.mark.parametrize("key", sorted(registry().problems))
def test_mutants_match_reference_on_registry_problems(key):
    _same_mutants(registry().problems[key], range(30))


def _rfs_in(variables):
    polys = st.builds(
        lambda cs: sum((MultiPoly.var(v) ** e * MultiPoly.const(c) for v, e, c in cs),
                       MultiPoly.zero()),
        st.lists(st.tuples(st.sampled_from(variables), st.integers(0, 2),
                           st.integers(-3, 3)), max_size=3))
    # a denominator of 1 or -1 has a site whose perturbation zeroes it
    return st.builds(RationalFunction, polys.filter(lambda p: not p.is_zero()),
                     st.one_of(st.just(MultiPoly.const(1)),
                               polys.filter(lambda p: not p.is_zero())))


_problems = st.builds(
    lambda coeffs, cert: WZProblem("random", HyperTerm.build(("n", "k")), "n", "k",
                                   tuple(coeffs), cert),
    st.lists(_rfs_in(("n",)), min_size=1, max_size=3),
    _rfs_in(("n", "k")))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_problems, st.integers(0, 10**6))
def test_mutants_match_reference_on_hypothesis_problems(p, seed):
    _same_mutants(p, [seed], count=10)


def _verified_flags(p: WZProblem, count: int, seed: int) -> list[bool]:
    rng = random.Random(seed)
    return [not wzengine.verify_certificate(mutate_problem(p, rng)).status
            for _ in range(count)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_problems, st.integers(0, 10**6))
def test_mutation_check_matches_verification_on_hypothesis_problems(p, seed):
    assert wzengine.mutation_check(p, 10, seed) == _verified_flags(p, 10, seed)


def _at_point_problem(coeffs, cert) -> WZProblem:
    """F = 1 in n and k; each a_j and R a polynomial over a polynomial in n."""
    def rf(num, den):  # (c1, c0) stands for c1*n + c0
        return RationalFunction(*(MultiPoly.var("n").scaled(c1) + MultiPoly.const(c0)
                                  for c1, c0 in (num, den)))

    return WZProblem("at_point", HyperTerm.build(("n", "k")), "n", "k",
                     tuple(rf(*c) for c in coeffs), rf(*cert))


_N_PT = wzengine.EVAL_POINT[0]  # the value of n where mutation_check evaluates
# a_0 = n - n_pt, a_1 = n_pt - n and R = 0: a mutant of a_0's denominator
# (1 -> 2) leaves (n - n_pt)/2 - (n - n_pt), which is 0 at the point only
_ZERO_AT_POINT = _at_point_problem((((1, -_N_PT), (0, 1)), ((-1, _N_PT), (0, 1))),
                                   ((0, 0), (0, 1)))
# a_0 = -1, a_1 = 1 and R = 1/(n - n_pt): a mutant of R's numerator still
# verifies, as R does not involve k, and has a pole at the point
_POLE_AT_POINT = _at_point_problem((((0, -1), (0, 1)), ((0, 1), (0, 1))),
                                   ((0, 1), (1, -_N_PT)))


@pytest.mark.parametrize("kind", ["zero", "pole"])
def test_mutation_check_decides_what_the_point_cannot_refute(kind):
    p = {"zero": _ZERO_AT_POINT, "pole": _POLE_AT_POINT}[kind]
    point = dict(zip(("n", "k"), wzengine.EVAL_POINT))
    met = 0
    for seed in range(10):
        flags = wzengine.mutation_check(p, 20, seed)
        assert flags == _verified_flags(p, 20, seed), seed
        rng = random.Random(seed)
        for flag in flags:
            mutant = mutate_problem(p, rng)
            if kind == "zero":  # a residual that vanishes at the point only
                residual = wzengine.verify_certificate(mutant).residual
                met += flag and residual.eval(point) == 0
            else:  # a surviving mutant whose R has a pole at the point
                met += not flag and mutant.certificate.den.eval(point) == 0
    assert met


# ---------------------------------------------------------------------------
# the numeric layer


def ref_recurrence_side(p: WZProblem, point):
    """k -> sum_j a_j(n) F(n+j, k) at the n and free variables of ``point``."""
    n = point[p.shift_var]
    shifted = [(a.eval(point), dict(point, **{p.shift_var: n + j}))
               for j, a in enumerate(p.coeffs)]

    def side(k: int) -> Fraction:
        total = Fraction(0)
        for a, pt in shifted:
            pt[p.sum_var] = k
            total += a * p.term.eval(pt)
        return total

    return side


def ref_summed_recurrence_value(p: WZProblem, n: int, extra=None) -> Fraction:
    base = dict(extra or {})
    base[p.shift_var] = n
    low, high = _k_range(p, base, p.order)
    side = ref_recurrence_side(p, base)
    return sum(map(side, range(low, high + 1)), Fraction(0))


def ref_telescope_first_mismatch(p: WZProblem, n: int, extra=None, kappa_cap: int = 48):
    base = dict(extra or {})
    base[p.shift_var] = n
    _, u = _k_range(p, base, bounded=False)
    limit = kappa_cap if u is None else max(u + p.order + 2, 0)
    first_pole = None
    for k in range(limit + 2):
        if p.certificate.den.eval(dict(base, **{p.sum_var: k})) == 0:
            first_pole = k
            break
    kappa_max = limit if first_pole is None else first_pole - 2
    g_term = p.term.absorb(p.certificate)
    if kappa_max >= -1:
        g_low = g_term.eval(dict(base, **{p.sum_var: 0}))
    side = ref_recurrence_side(p, base)
    lhs = Fraction(0)
    for kappa in range(-1, kappa_max + 1):
        if kappa >= 0:
            lhs += side(kappa)
        rhs = g_term.eval(dict(base, **{p.sum_var: kappa + 1})) - g_low
        if lhs != rhs:
            return kappa, lhs, rhs
    return None


def ref_pointwise_witness(p: WZProblem, n_lo: int, n_hi: int):
    if set(p.term.variables) - {p.shift_var, p.sum_var}:
        return None
    g_term = p.term.absorb(p.certificate)
    for n in range(n_lo, n_hi + 1):
        base = {p.shift_var: n}
        _, u = _k_range(p, base, bounded=False)
        hi = (u if u is not None else n + 2) + p.order + 1
        side = ref_recurrence_side(p, base)
        for k in range(hi + 1):
            den_here = p.certificate.den.eval(dict(base, **{p.sum_var: k}))
            den_next = p.certificate.den.eval(dict(base, **{p.sum_var: k + 1}))
            if den_here == 0 or den_next == 0:
                continue
            lhs = side(k)
            rhs = (g_term.eval(dict(base, **{p.sum_var: k + 1}))
                   - g_term.eval(dict(base, **{p.sum_var: k})))
            if lhs != rhs:
                return n, k, lhs, rhs
    return None


def ref_sum_over_support(p: WZProblem, n: int, extra=None) -> Fraction:
    pt = dict(extra or {})
    pt[p.shift_var] = n
    low, high = _k_range(p, pt)
    return sum((p.term.eval(dict(pt, **{p.sum_var: k})) for k in range(low, high + 1)),
               Fraction(0))


def _outcome(fn, *args):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, KeyError) as exc:
        return type(exc), str(exc)


_NUMERIC_NS = range(-3, 13)  # n = -2 and -3 meet negative binomial tops
_EXTRA_GRID = {"m": (2, 5, 10)}  # thm3's term keeps m free


def _extras(p: WZProblem):
    free = [v for v in p.term.variables if v not in (p.shift_var, p.sum_var)]
    if not free:
        return [None]
    (v,) = free
    return [{v: x} for x in _EXTRA_GRID[v]]


@pytest.mark.parametrize("key", sorted(registry().problems))
def test_numeric_layer_matches_reference_on_registry_problems(key):
    p = registry().problems[key]
    rng = random.Random(1709)
    checked = 0
    for q in [p] + [mutate_problem(p, rng) for _ in range(40)]:
        for extra in _extras(q):
            for n in _NUMERIC_NS:
                for ref, new in ((ref_telescope_first_mismatch,
                                  wzengine.telescope_first_mismatch),
                                 (ref_summed_recurrence_value,
                                  wzengine.summed_recurrence_value),
                                 (ref_sum_over_support, wzengine.sum_over_support)):
                    want = _outcome(ref, q, n, extra)
                    assert _outcome(new, q, n, extra) == want, (q, ref.__name__, n, extra)
                    checked += 1
        for n_lo in _NUMERIC_NS:
            want = _outcome(ref_pointwise_witness, q, n_lo, 12)
            assert _outcome(wzengine.pointwise_witness, q, n_lo, 12) == want, (q, n_lo)
    assert checked == 41 * len(_NUMERIC_NS) * 3 * len(_extras(p))


def test_pointwise_witness_raises_as_reference_where_r_names_a_free_variable():
    # a_0 = 1/n has a pole at n = 0, and R = k/m names m, which the term
    # lacks: at n = 0 the pole is met first, at n = 1 the missing m
    n = MultiPoly.var("n")
    p = WZProblem("free_r", HyperTerm.build(("n", "k")), "n", "k",
                  (RationalFunction(MultiPoly.const(1), n), RationalFunction.const(1)),
                  RationalFunction(MultiPoly.var("k"), MultiPoly.var("m")))
    for n_lo in (0, 1):
        want = _outcome(ref_pointwise_witness, p, n_lo, 3)
        assert _outcome(wzengine.pointwise_witness, p, n_lo, 3) == want
        assert want[0].__name__ == ("PoleError", "MissingVariableError")[n_lo]


# ---------------------------------------------------------------------------
# the stages of prove_constant_sum, on rows shared across each window


def ref_stage_lists(p: WZProblem, rng):
    """``prove_constant_sum``'s summed and telescope lists from the per-n references."""
    lo, hi = rng
    summed = []
    if p.base_case is not None:
        ref_sum_over_support(p, p.base_case[0])
        summed = [(n, value) for n in range(lo, hi + 1)
                  if (value := ref_summed_recurrence_value(p, n)) != 0]
    free = [v for v in p.term.variables if v not in (p.shift_var, p.sum_var)]
    telescope = []
    for values in product(wzengine.EXTRA_VAR_GRID, repeat=len(free)):
        for n in range(lo, min(hi + 1, lo + wzengine.TELESCOPE_WINDOW)):
            bad = ref_telescope_first_mismatch(p, n, dict(zip(free, values)))
            if bad is not None:
                telescope.append((n, bad[1], bad[2]))
    return summed, telescope


def _stage_lists(p: WZProblem, rng):
    rep = wzengine.prove_constant_sum(p, rng)
    return rep.summed, rep.telescope


# each range crosses the prefix window; the second starts below the support,
# where the first negative binomial top ends the run with the same message
_STAGE_RANGES = {"wz_thm1_corrected": ((0, 60), (-3, 2)),
                 "wz_thm1_literal": ((0, 40), (-2, 2)),
                 "wz_thm2": ((-1, 60), (-5, 40)),
                 "wz_thm3": ((0, 33), (-5, 33))}


def test_stage_ranges_cover_the_registry():
    assert set(_STAGE_RANGES) == set(registry().problems)
    assert all(hi - lo >= wzengine.TELESCOPE_WINDOW
               for ranges in _STAGE_RANGES.values() for lo, hi in ranges[:1])


@pytest.mark.parametrize("key", sorted(registry().problems))
def test_proof_stages_match_reference_on_registry_problems(key, monkeypatch):
    # every certificate passes, so that the mutants' stages run too
    real = wzengine.verify_certificate
    monkeypatch.setattr(wzengine, "verify_certificate", lambda p: real(p)._replace(status=True))
    monkeypatch.setattr(wzengine, "mutation_check", lambda p, count, seed: [])
    p = registry().problems[key]
    rng = random.Random(2203)
    for i, q in enumerate([p] + [mutate_problem(p, rng) for _ in range(40)]):
        if i:  # the mutants on three points of the grid
            monkeypatch.setattr(wzengine, "EXTRA_VAR_GRID", (2, 5, 10))
        for stage_range in _STAGE_RANGES[key]:
            want = _outcome(ref_stage_lists, q, stage_range)
            assert _outcome(_stage_lists, q, stage_range) == want, (q, stage_range)
