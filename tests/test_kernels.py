"""Integer kernels against the ``Fraction`` code they replaced.

Each fast path of ``symalg``, ``hyperterm`` and ``wzengine`` keeps its
naive reference here, one ``Fraction`` per operation, and a test
compares the two: polynomial and rational-function evaluation at integer
and ``Fraction`` points, polynomial products, the coefficients of every
``symalg`` operation (an ``int`` where integral) and the normalization
by integer lcm and gcd against the ratio of contents, hypergeometric
term evaluation at integer points (the only points a term is defined
on), and the mutation check, which refutes a mutant at one exact point
and decides symbolically, from the term's shift quotients shared across
mutants, only what that point cannot refute.  The ``Fraction`` root scan
of Gosper's shifts, which ``wzkit`` no longer has, is part of the Gosper
reference in ``test_formula_references``.

The Pascal-line walk of ``identities`` keeps its naive form here too:
one generic binomial ratio step and one weight multiply per point, and
every n of the range scanned for every line.  ``values`` must equal it
exactly on every declared check range and on the edge shapes of
``test_identities``.  The per-line term recurrence of the walk is
compared with ``binomial`` on its own, with and without a first-term
factor, and the walk's choice to fold a line's weight into that factor
is checked pair by pair: no plan folds where two pairs of a line have
different signs or power exponents.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzkit import identities, wzengine
from wzkit.exactnum import UnsupportedArgumentError, binomial
from wzkit.hyperterm import HyperTerm, line_terms, step_factors
from wzkit.identities import _VALUES, _line_plan, _loop_pair, registry
from wzkit.symalg import (LinearForm, MissingVariableError, MultiPoly,
                          PoleError, RationalFunction)
from wzkit.wzengine import (WZProblem, mutate_problem, mutation_check,
                            verify_certificate)

# ---------------------------------------------------------------------------
# the Fraction references


def ref_poly_eval(p: MultiPoly, point) -> Fraction:
    for v in p.vars:
        if v not in point:
            raise MissingVariableError(f"no value for variable {v!r}")
    vals = [Fraction(point[v]) for v in p.vars]
    total = Fraction(0)
    for e, c in p.terms.items():
        t = c
        for x, q in zip(vals, e):
            if q:
                t *= x**q
        total += t
    return total


def ref_rf_eval(f: RationalFunction, point) -> Fraction:
    d = ref_poly_eval(f.den, point)
    if d == 0:
        raise PoleError(f"denominator {f.den} vanishes at {dict(point)}")
    return ref_poly_eval(f.num, point) / d


def ref_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    vs, ta, tb = MultiPoly._align(p, q)
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return MultiPoly(vs, out)


def ref_add(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    vs, ta, tb = MultiPoly._align(p, q)
    out = {e: Fraction(c) for e, c in ta.items()}
    for e, c in tb.items():
        out[e] = out.get(e, Fraction(0)) + c
    return MultiPoly(vs, out)


def ref_scaled(p: MultiPoly, c) -> MultiPoly:
    return MultiPoly(p.vars, {e: Fraction(v) * c for e, v in p.terms.items()})


def ref_content(p: MultiPoly) -> Fraction:
    num, den = 0, 1
    for c in map(Fraction, p.terms.values()):
        num, den = gcd(num, c.numerator), lcm(den, c.denominator)
    return Fraction(num, den)


def ref_normalize(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """The parts of ``RationalFunction(num, den)`` by the ratio of contents."""
    if num.is_zero():
        return MultiPoly.zero(), MultiPoly.const(1)
    cn, cd = ref_content(num), ref_content(den)
    ratio = cn / cd  # num/den = ratio * primitive(num)/primitive(den)
    num, den = ref_scaled(num, ratio.numerator / cn), ref_scaled(den, ratio.denominator / cd)
    if den.lead()[1] < 0:
        num, den = ref_scaled(num, -1), ref_scaled(den, -1)
    return num, den


def is_canonical(p: MultiPoly) -> bool:
    """Each coefficient is an ``int``, or a ``Fraction`` that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def ref_term_eval(t: HyperTerm, point) -> Fraction:
    pref_den = ref_poly_eval(t.prefactor.den, point)
    if pref_den == 0:
        raise PoleError(
            f"prefactor denominator {t.prefactor.den} vanishes at {dict(point)}")
    tops = [(top.eval(point), bottom.eval(point)) for top, bottom in t.binomials]
    for tv, _ in tops:
        if tv < 0:
            raise UnsupportedArgumentError(f"binomial top {tv} < 0 at {dict(point)}")
    value = Fraction(ref_poly_eval(t.prefactor.num, point), pref_den)
    if t.sign_exp.eval(point) % 2:
        value = -value
    for base, exp in t.powers:
        value *= Fraction(base) ** exp.eval(point)
    for tv, bv in tops:
        c = binomial(tv, bv)
        if c == 0:
            return Fraction(0)
        value *= c
    return value


def ref_binom_step(top: int, bottom: int, dp: int, dq: int, value: int) -> int:
    """binomial(top+dp, bottom+dq) from value = binomial(top, bottom)."""
    if value == 0:
        return binomial(top + dp, bottom + dq)
    num = den = 1
    if dp >= 0:
        for i in range(dp):
            num *= top + 1 + i
    else:
        for i in range(1, -dp + 1):
            den *= top + 1 - i
    if dq >= 0:
        for i in range(dq):
            den *= bottom + 1 + i
    else:
        for i in range(1, -dq + 1):
            num *= bottom + 1 - i
    dd = dp - dq
    base = top - bottom + 1
    if dd >= 0:
        for i in range(dd):
            den *= base + i
    else:
        for i in range(1, -dd + 1):
            num *= base - i
    if num == 0:
        return 0
    if den == 0:
        return binomial(top + dp, bottom + dq)
    return value * num // den


def ref_line_sums(case, plan, ns: list[int]) -> dict[int, Fraction]:
    """The line walk with a generic step per point, scanning every n per line."""
    outer, _ = _loop_pair(case)
    bounds = {}
    for n in ns:
        pt = {case.param: n}
        bounds[n] = (outer.lower.eval(pt), outer.upper.eval(pt))
    gn, ga, _, g0 = plan.line
    ends = [gn * n + ga * a + g0 for n, (alo, ahi) in bounds.items()
            if alo <= ahi for a in (alo, ahi)]
    acc = dict.fromkeys(ns, 0)
    rest = dict.fromkeys(ns, 0)
    xn, xa, _, x0 = plan.index
    (lhalf, (ln, la, _, l0)), (uhalf, (un, ua, _, u0)) = (plan.inner_lower,
                                                           plan.inner_upper)
    sn, sa, sb, s0 = plan.sign
    by_top, slope = plan.by_top, plan.slope
    bad = None
    for c in range(min(ends, default=0), max(ends, default=-1) + 1):
        pairs = []
        for n, (alo, ahi) in bounds.items():
            r = c - gn * n - g0
            if ga:
                a, rem = divmod(r, ga)
                if rem or a < alo or a > ahi:
                    continue
                outs = (a,)
            elif r:
                continue
            else:
                outs = range(alo, ahi + 1)
            for a in outs:
                blo = ln * n + la * a + l0
                bhi = un * n + ua * a + u0
                if lhalf:
                    blo //= 2
                if uhalf:
                    bhi //= 2
                if bhi < blo:
                    continue
                i0 = xn * n + xa * a + x0
                jlo, jhi = blo + i0, bhi + i0
                low_top = jlo if by_top else min(slope * jlo, slope * jhi) + c
                if low_top < 0:
                    if bad is None or (n, low_top) < bad:
                        bad = (n, low_top)
                    continue
                pairs.append((n, a, i0, jlo, jhi))
        if not pairs:
            continue
        start = min(p[3] for p in pairs)
        end = max(p[4] for p in pairs)
        if by_top:
            constraints = ((slope, c), (1 - slope, -c))
        else:
            constraints = ((1, 0), (slope - 1, c))
        for u, v in constraints:
            if u > 0:
                start = max(start, -(v // u))
            elif u < 0:
                end = min(end, v // -u)
            elif v < 0:
                end = start - 1
        if end < start:
            continue
        if by_top:
            top, bot, dt, db = start, slope * start + c, 1, slope
        else:
            top, bot, dt, db = slope * start + c, start, slope, 1
        value = binomial(top, bot)
        weight = 1
        prefix = [0, value]
        for _ in range(end - start):
            value = ref_binom_step(top, bot, dt, db, value)
            top, bot = top + dt, bot + db
            weight *= plan.weight_step
            prefix.append(prefix[-1] + value * weight)
        for n, a, i0, jlo, jhi in pairs:
            lo_j = jlo if jlo > start else start
            hi_j = jhi if jhi < end else end
            if hi_j < lo_j:
                continue
            seg = prefix[hi_j - start + 1] - prefix[lo_j - start]
            if not seg:
                continue
            b0 = start - i0
            if (sn * n + sa * a + sb * b0 + s0) % 2:
                seg = -seg
            den = 1
            for base, (en, ea, eb, e0) in plan.powers:
                e = en * n + ea * a + eb * b0 + e0
                if e >= 0:
                    seg *= base**e
                else:
                    den *= base**-e
            if den == 1:
                acc[n] += seg
            else:
                rest[n] += Fraction(seg, den)
    if bad is not None:
        raise UnsupportedArgumentError(
            f"binomial top must be >= 0, got {bad[1]} at {case.param}={bad[0]}")
    pref = case.summand.prefactor.as_fraction()
    return {n: pref * (acc[n] + rest[n]) for n in ns}


def ref_values(case, lo: int, hi: int) -> list[Fraction]:
    sums = ref_line_sums(case, _line_plan(case), list(range(lo, hi + 1)))
    return [sums[n] for n in range(lo, hi + 1)]


def outcome(fn, *args):
    """The value, or the type and message of the exception raised."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError, KeyError) as exc:
        return type(exc), str(exc)
    assert all(type(v) is Fraction for v in (value if type(value) is list else [value]))
    return value


# ---------------------------------------------------------------------------
# strategies


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
int_coeffs = st.integers(-4, 4).map(Fraction)


def polys_over(vs, coeffs):
    exps = st.tuples(*[st.integers(0, 3)] * len(vs))
    return st.dictionaries(exps, coeffs, max_size=4).map(lambda d: MultiPoly(vs, d))


def polys(coeffs):
    return st.sampled_from([("k",), ("n",), ("k", "n")]).flatmap(
        lambda vs: polys_over(vs, coeffs))


any_polys = polys(int_coeffs) | polys(small_fracs)
nonzero_polys = any_polys.filter(lambda p: not p.is_zero())
int_points = st.fixed_dictionaries({"k": st.integers(-5, 5), "n": st.integers(-5, 5)})
values = st.integers(-5, 5) | small_fracs
points = int_points | st.fixed_dictionaries({"k": values, "n": values})
forms = st.builds(lambda c, a, b: LinearForm.make({"k": a, "n": b}, c),
                  st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))
terms = st.builds(
    lambda sign, powers, binoms, num, den: HyperTerm.build(
        ("k", "n"), sign_exp=sign, powers=powers, binomials=binoms,
        prefactor=RationalFunction(num, den)),
    forms,
    st.lists(st.tuples(st.integers(2, 4), forms), max_size=2),
    st.lists(st.tuples(forms, forms), max_size=2),
    any_polys, nonzero_polys)


# ---------------------------------------------------------------------------
# polynomial and rational-function kernels


@settings(max_examples=200, deadline=None)
@given(any_polys, points)
def test_poly_eval_matches_reference(p, point):
    assert outcome(p.eval, point) == ref_poly_eval(p, point)
    assert outcome(p.eval, point) == ref_poly_eval(p, point)  # cached coefficients


@settings(max_examples=50, deadline=None)
@given(any_polys)
def test_poly_eval_missing_variable_matches_reference(p):
    point = {"m": 1}
    assert outcome(p.eval, point) == outcome(ref_poly_eval, p, point)


@settings(max_examples=200, deadline=None)
@given(any_polys, nonzero_polys, points)
def test_rf_eval_matches_reference(num, den, point):
    f = RationalFunction(num, den)
    assert outcome(f.eval, point) == outcome(ref_rf_eval, f, point)


def test_rf_eval_pole_matches_reference():
    k, n = MultiPoly.var("k"), MultiPoly.var("n")
    f = RationalFunction(k, k - n)
    for point in ({"k": 2, "n": 2}, {"k": Fraction(1, 2), "n": Fraction(1, 2)}):
        got = outcome(f.eval, point)
        assert got[0] is PoleError
        assert got == outcome(ref_rf_eval, f, point)


@settings(max_examples=200, deadline=None)
@given(any_polys, any_polys)
def test_mul_matches_fraction_loop(p, q):
    prod = p * q
    assert prod == ref_mul(p, q)
    assert is_canonical(prod)


def test_mul_int_and_fraction_paths_agree():
    k, n = MultiPoly.var("k"), MultiPoly.var("n")
    integral = (k + n).scaled(3) * (k - MultiPoly.const(2))
    half = (k + n).scaled(Fraction(1, 2))
    for p, q in ((integral, integral), (integral, half), (half, half)):
        assert p * q == ref_mul(p, q) == q * p


def _rf_parts(f: RationalFunction) -> tuple[MultiPoly, MultiPoly]:
    assert is_canonical(f.num) and is_canonical(f.den)
    return f.num, f.den


@settings(max_examples=200, deadline=None)
@given(any_polys, any_polys, nonzero_polys, nonzero_polys, small_fracs | st.integers(-6, 6),
       st.integers(0, 3), st.integers(-3, 3), int_points)
def test_coefficients_stay_canonical_and_match_fraction_reference(p, q, d, e, c, power,
                                                                  offset, point):
    ref_pow = MultiPoly.const(Fraction(1))
    for _ in range(power):
        ref_pow = ref_mul(ref_pow, p)
    ops = {
        "+": (p + q, ref_add(p, q)),
        "-": (p - q, ref_add(p, ref_scaled(q, -1))),
        "*": (p * q, ref_mul(p, q)),
        "**": (p**power, ref_pow),
        "scaled": (p.scaled(c), ref_scaled(p, c)),
        "divexact": ((p * d).divexact(d), p),
    }
    for name, (got, want) in ops.items():
        assert is_canonical(got), name
        assert got == want, name
    if p.is_const():
        assert type(p.as_fraction()) is Fraction
    shifted = {"k": point["k"] + offset, "n": point["n"]}
    repl = MultiPoly.var("n").scaled(2) + MultiPoly.const(offset)
    for got, at in ((p.shifted("k", offset), shifted),
                    (p.subst("k", repl), {"k": 2 * point["n"] + offset, "n": point["n"]})):
        assert is_canonical(got)
        assert got.eval(point) == ref_poly_eval(p, at)

    # normalization, the field operations and reduced() against the content ratio
    f, g = RationalFunction(p, d), RationalFunction(q, e)
    assert _rf_parts(f) == ref_normalize(p, d)
    assert _rf_parts(RationalFunction(q, d.scaled(c or 1))) == ref_normalize(q, ref_scaled(d, c or 1))
    raw = {
        "+": (f + g, ref_add(ref_mul(f.num, g.den), ref_mul(g.num, f.den)), ref_mul(f.den, g.den)),
        "-": (f - g, ref_add(ref_mul(f.num, g.den), ref_scaled(ref_mul(g.num, f.den), -1)),
              ref_mul(f.den, g.den)),
        "*": (f * g, ref_mul(f.num, g.num), ref_mul(f.den, g.den)),
        "scaled": (f.scaled(c), ref_scaled(f.num, c), f.den),
    }
    if not g.is_zero():
        raw["/"] = (f / g, ref_mul(f.num, g.den), ref_mul(f.den, g.num))
    for name, (got, num, den) in raw.items():
        assert _rf_parts(got) == ref_normalize(num, den), name
    for got in (f.reduced(), f.shifted("k", offset), f.subst("k", repl)):
        assert _rf_parts(got) == ref_normalize(got.num, got.den)
    assert f.reduced() == f


# ---------------------------------------------------------------------------
# hypergeometric terms


@settings(max_examples=300, deadline=None)
@given(terms, int_points)
def test_term_eval_matches_reference(t, point):
    assert outcome(t.eval, point) == outcome(ref_term_eval, t, point)


def _lf(const=0, **coeffs):
    return LinearForm.make(coeffs, const)


@pytest.mark.parametrize("term,point,expected", [
    # 2^(k-n) with k < n puts the power in the denominator
    (HyperTerm.build(("k", "n"), powers=((2, _lf(k=1, n=-1)),)),
     {"k": 1, "n": 4}, Fraction(1, 8)),
    # binom(n, k) is zero past the top
    (HyperTerm.build(("k", "n"), binomials=((_lf(n=1), _lf(k=1)),)),
     {"k": 5, "n": 3}, Fraction(0)),
    # a pole of the prefactor wins over a zero binomial
    (HyperTerm.build(("k", "n"), binomials=((_lf(n=1), _lf(k=1)),),
                     prefactor=RationalFunction(MultiPoly.const(1), _lf(1, n=1).to_poly())),
     {"k": 5, "n": -1}, PoleError),
    # a negative binomial top is refused
    (HyperTerm.build(("k", "n"), binomials=((_lf(n=1), _lf(k=1)),)),
     {"k": 0, "n": -2}, UnsupportedArgumentError),
])
def test_term_eval_edge_cases_match_reference(term, point, expected):
    got = outcome(term.eval, point)
    assert got == outcome(ref_term_eval, term, point)
    assert (got[0] if isinstance(got, tuple) else got) == expected


def test_registry_summands_match_reference():
    for case in registry().cases.values():
        t = case.summand
        extra = {v: 3 for v in t.variables}
        for n in range(0, 6):
            for k in range(-1, 8):
                point = dict(extra, **{case.param: n, case.loops[-1].var: k})
                assert outcome(t.eval, point) == outcome(ref_term_eval, t, point)


# ---------------------------------------------------------------------------
# mutation check with shared shift quotients


def _constant_problem() -> WZProblem:
    """F = 1, F(n+1, k) - F(n, k) = 0 with R = 0: a mutant of R's
    denominator (1 -> 2) still verifies, a mutant of a coefficient does not."""
    return WZProblem("constant", HyperTerm.build(("n", "k")), "n", "k",
                     (RationalFunction.const(-1), RationalFunction.const(1)),
                     RationalFunction.const(0))


@pytest.mark.parametrize("key", ["thm1", "thm2", "thm3", "constant"])
def test_mutation_check_matches_per_mutant_verification(key):
    p = _constant_problem() if key == "constant" else registry().problem(key)
    flags = []
    for seed in range(10):
        rng = random.Random(seed)
        expected = [not verify_certificate(mutate_problem(p, rng)).status
                    for _ in range(20)]
        assert mutation_check(p, count=20, seed=seed) == expected, seed
        flags += expected
    # the registry certificates kill every mutant; the constant problem
    # has survivors too, so a check that flags everything fails here
    assert all(flags) == (key != "constant") and any(flags)


@pytest.mark.parametrize("key", [*sorted(registry().problems), "constant"])
def test_mutation_check_decides_symbolically_only_what_the_point_cannot(key, monkeypatch):
    # every registry mutant is refuted at wzengine.EVAL_POINT; the constant
    # problem's survivors have the value 0 there, so they, and only they,
    # reach the symbolic residual
    p = _constant_problem() if key == "constant" else registry().problems[key]
    real, reached = wzengine._residual, []
    monkeypatch.setattr(wzengine, "_residual",
                        lambda *args: reached.append(args[0]) or real(*args))
    survivors = 0
    for seed in range(10):
        survivors += mutation_check(p, count=20, seed=seed).count(False)
    assert len(reached) == (survivors if key == "constant" else 0)
    assert (survivors > 0) == (key == "constant")


# ---------------------------------------------------------------------------
# the Pascal-line walk


def _line_point(by_top: bool, slope: int, c: int, j: int) -> tuple[int, int]:
    """(top, bottom) at index j of line c."""
    return (j, slope * j + c) if by_top else (slope * j + c, j)


@pytest.mark.parametrize("by_top", [True, False])
@pytest.mark.parametrize("slope", range(-3, 4))
def test_line_terms_match_binomial(by_top, slope):
    dt, db = (1, slope) if by_top else (slope, 1)
    factors = step_factors(dt, db)
    lines = 0
    for c in range(-7, 8):
        support = [j for j in range(-12, 13)
                   if 0 <= _line_point(by_top, slope, c, j)[1]
                   <= _line_point(by_top, slope, c, j)[0]]
        if not support:
            continue
        lines += 1
        # the support along a line is one interval, and no factor of D
        # vanishes at a step inside it
        assert support == list(range(support[0], support[-1] + 1)), c
        for j in support[:-1]:
            top, bottom = _line_point(by_top, slope, c, j)
            assert all(p * top + q * bottom + r >= 1 for p, q, r in factors[1]), (c, j)
        for start in support:
            top, bottom = _line_point(by_top, slope, c, start)
            for steps in sorted({0, 1, support[-1] - start}):
                if start + steps > support[-1]:
                    continue
                for weight in (1, -1, 2, -4):
                    want = [binomial(*_line_point(by_top, slope, c, start + i)) * weight**i
                            for i in range(steps + 1)]
                    got = line_terms(top, dt, bottom, db, 0, steps, weight, factors)
                    assert got == (0, want), (c, start, steps, weight)
                    for factor in (1, -1, 3, -8, 2**70):
                        got = line_terms(top, dt, bottom, db, 0, steps, weight, factors, factor)
                        assert got == (0, [v * factor for v in want]), (c, start, steps, factor)
        # eval_line leaves the factor out: its row is the plain binomials
        t0, b0 = _line_point(by_top, slope, c, 0)
        term = HyperTerm.build(("j",), binomials=((LinearForm.make({"j": dt}, t0),
                                                   LinearForm.make({"j": db}, b0)),))
        lo, hi = support[0], support[-1]
        row, error = term.eval_line({}, "j", lo, hi)
        assert error is None
        assert row == [(binomial(*_line_point(by_top, slope, c, j)), 1)
                       for j in range(lo, hi + 1)], c
        assert [v for v, _ in row] == line_terms(t0, dt, b0, db, lo, hi, 1, factors)[1]
    assert lines >= 5


def test_step_factors_match_generic_step():
    # binom(t+dt, b+db) * D = binom(t, b) * N on a grid of the support
    for dt in range(-3, 4):
        for db in range(-3, 4):
            num, den = step_factors(dt, db)
            for t in range(0, 9):
                for b in range(0, t + 1):
                    if not 0 <= b + db <= t + dt:
                        continue
                    n = d = 1
                    for p, q, r in num:
                        n *= p * t + q * b + r
                    for p, q, r in den:
                        d *= p * t + q * b + r
                    assert d >= 1
                    assert binomial(t + dt, b + db) * d == binomial(t, b) * n
                    assert ref_binom_step(t, b, dt, db, binomial(t, b)) == \
                        binomial(t + dt, b + db)


def _declared_ranges(reg) -> dict[str, tuple[int, int]]:
    """Every registry sum's check range, as ``wzkit all`` reads it."""
    ranges = {c.target: c.range for (kind, _), c in reg.checks.items() if kind == "oracle"}
    # sum_difference reads thm3_eq6 one n past its lemma range; the
    # boundary lemmas read the stepped sum on their own range
    ranges["thm3_eq6"] = (1, 301)
    ranges["boundary_stepped_case"] = (1, 200)
    return ranges


def test_values_match_naive_walk_on_declared_ranges():
    reg = registry()
    ranges = _declared_ranges(reg)
    assert sorted(ranges) == reg.oracle_ids()
    for cid, (lo, hi) in ranges.items():
        case = reg.case(cid)
        _VALUES.clear()
        assert identities.values(case, lo, hi) == ref_values(case, lo, hi), cid


def _line_weights(case, plan, lo: int, hi: int) -> dict[int, set]:
    """Per line, the (sign parity, power exponents) of every (n, outer) pair at index j = 0.

    Read from the summand's own forms, pair by pair: the weight at any
    fixed j of a line is one value exactly when the weight where the
    line's walk starts is.
    """
    outer, inner = _loop_pair(case)
    t = case.summand
    gn, ga, _, g0 = plan.line
    xn, xa, _, x0 = plan.index
    lines: dict[int, set] = {}
    for n in range(lo, hi + 1):
        pt = {case.param: n}
        for a in range(outer.lower.eval(pt), outer.upper.eval(pt) + 1):
            point = {case.param: n, outer.var: a, inner.var: -(xn * n + xa * a + x0)}
            weight = (t.sign_exp.eval(point) % 2, tuple(e.eval(point) for _, e in t.powers))
            lines.setdefault(gn * n + ga * a + g0, set()).add(weight)
    return lines


def test_fold_only_where_every_line_has_one_weight():
    from test_identities import _VARYING, _spec_cases

    reg = registry()
    shapes = [(reg.case(cid), rng) for cid, rng in _declared_ranges(reg).items()]
    shapes += [(case, (case.valid_from, case.valid_from + 15))
               for case in _spec_cases().values()]
    folded, varying = set(), set()
    for case, (lo, hi) in shapes:
        plan = _line_plan(case)
        if plan is None:
            continue
        if any(len(w) > 1 for w in _line_weights(case, plan, lo, hi).values()):
            varying.add(case.case_id)
            assert not plan.fold, case.case_id
        if plan.fold:
            folded.add(case.case_id)
    assert folded == set(reg.oracle_ids()) - {"thm3_printed"} | {
        "slope_two", "negative_top_column", "single_below_support",
        "single_negative_power", "single_slope_two", "single_negative_top"}
    assert {"thm3_printed", *_VARYING} <= varying


def test_values_match_naive_walk_on_edge_shapes():
    from test_identities import _spec_cases

    walked = 0
    for cid, case in _spec_cases().items():
        if _line_plan(case) is None:
            continue
        walked += 1
        for lo, hi in ((case.valid_from, case.valid_from + 15),
                       (case.valid_from + 3, case.valid_from + 9)):
            _VALUES.clear()
            assert outcome(identities.values, case, lo, hi) == outcome(ref_values, case, lo, hi), cid
    assert walked == 12
