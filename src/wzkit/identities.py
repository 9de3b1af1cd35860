"""Identity registry, exact summation oracle, and the boundary lemmas.

An ``IdentityCase`` is a (possibly doubly) indexed sum of a proper
hypergeometric term over affine or floored-half bounds, equated to a
closed form: a sum of ``HyperTerm``s in the parameter with no binomial,
such as ``n + 1`` or ``2n + 5/2 - (n + 1/2)(-1)^n - 3*4^n``.  The oracle
evaluates sums exactly (big integers and ``Fraction`` only) and checks
the closed form by direct equality over a range of the parameter.

Summation.  ``values(case, lo, hi)`` is the primitive every consumer
reads (the range oracle, the lemmas, the corollary derivations), and no
sum is computed any other way.  It memoizes each sum per (case value,
n), so a ``--spec`` overlay that redefines an id never reads another
definition's numbers.  There are two paths.

The line walk evaluates a sum with one binomial and a constant
prefactor for the whole range in one pass; a single sum is taken as a
double sum whose outer loop runs over one point.  Re-indexed by the
binomial argument whose coefficient in the inner variable is 1, every
inner sum is a contiguous segment of one lattice line of Pascal's
triangle (a row, a column, or a slope-2 line such as thm1's and cor5's),
scaled by a sign and power factor that does not depend on the inner
variable.  The lines are walked one at a time, in ascending order, and
each visits only the n whose outer range reaches it.  A line's weighted
terms come from ``hyperterm.line_terms`` (one ``binomial`` call and an
exact integer recurrence), every (n, outer) pair that lands on the line
is answered by a difference of two prefix sums, and the line is then
dropped.  Every bundled sum takes this path.  When the linear forms show
that the sign's parity and every power exponent, taken where the line's
walk starts, are the same for every (n, outer) pair of a line (all the
bundled sums but ``thm3_printed``, whose sign (-1)^(m+k) flips between
neighbouring pairs), that weight is folded into the line's first term
once; a pair then costs one prefix difference and one add.  The fold is
exact: the weight is an integer common to every pair's segment, so
multiplying the terms by it gives the same integers as multiplying
each segment.  A line whose weight has a negative exponent keeps the
per-pair weighting.

``eval_sum`` is the uncached term-by-term reference: the literal nested
sum of ``HyperTerm.eval`` values.  The test suite checks the line walk
against it, and ``values`` falls back to it per n for the shapes the
walk does not take (several binomials, a non-constant prefactor, no
unit coefficient, a power exponent that falls along the inner
variable).  Both paths raise at the same inputs: a negative binomial top
inside the summation region (naming the smallest such n), and n below
``valid_from``.

The registry is built by ``build_registry`` from parsed DSL documents:
the bundled files under ``data/``, then any ``--spec`` overlay.  Each
definition brings its own facts (errata, base case, public-id aliases)
as DSL clauses, and a later document replaces earlier definitions,
aliases and check ranges.  The lemmas in ``LEMMAS`` compare registry
sums with closed forms too: the stepped boundary sum, whose binomial
top steps by floor(m/2), is written in ``lemmas.wz`` with a one-point
inner loop j = floor(m/2), since binomial arguments are affine.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd
from typing import Callable, Mapping, NamedTuple, Sequence

from .exactnum import UnsupportedArgumentError
from .hyperterm import HyperTerm, line_span, line_terms, step_factors
from .symalg import LinearForm
from .wzengine import WZProblem


class UnknownIdentityError(KeyError):
    """No registry entry under the requested id/mode."""

    def __str__(self) -> str:  # KeyError would print only the quoted id
        return f"unknown id {self.args[0]!r}"


class RangeError(ValueError):
    """A parameter below the ``valid_from`` of the identity asked for."""


# ---------------------------------------------------------------------------
# case types


class SumBound(NamedTuple):
    kind: str  # "affine" | "floored-half"
    form: LinearForm

    def eval(self, point: Mapping[str, int]) -> int:
        v = self.form.eval(point)
        return v // 2 if self.kind == "floored-half" else v


class Loop(NamedTuple):
    var: str
    lower: SumBound
    upper: SumBound


class IdentityCase(NamedTuple):
    case_id: str
    param: str
    loops: tuple[Loop, ...]  # outermost first, 1 or 2
    summand: HyperTerm
    rhs: tuple[HyperTerm, ...]  # the closed form: a sum of terms in ``param``
    valid_from: int
    errata: tuple[str, ...] = ()

    def rhs_value(self, n: int) -> Fraction:
        """The closed form at ``param = n``: the sum of its parts' values."""
        return sum((part.eval({self.param: n}) for part in self.rhs), Fraction(0))


# ---------------------------------------------------------------------------
# exact summation


def _nested_sum(t: HyperTerm, point: Mapping[str, int],
                loops: tuple[Loop, ...]) -> Fraction:
    """Sum of ``t`` over ``loops`` (outermost first), with ``point`` fixed."""
    if not loops:
        return t.eval(point)
    loop, rest = loops[0], loops[1:]
    total = Fraction(0)
    for v in range(loop.lower.eval(point), loop.upper.eval(point) + 1):
        total += _nested_sum(t, {**point, loop.var: v}, rest)
    return total


def eval_sum(case: IdentityCase, n: int) -> Fraction:
    """Exact nested sum at parameter value ``n``, term by term (empty ranges give 0).

    The plain definition: every ``HyperTerm.eval`` value of the summation
    region, added up.  It is the reference the line walk is tested
    against, and the per-n fallback of ``values`` for the shapes the walk
    does not take.
    """
    if n < case.valid_from:
        raise RangeError(
            f"{case.case_id} is asserted for {case.param} >= {case.valid_from}, got {n}")
    return _nested_sum(case.summand, {case.param: n}, case.loops)


# ---------------------------------------------------------------------------
# range evaluation: Pascal-line prefix sums shared across n
#
# Each line is clipped to the support and walked by ``line_terms``.  The
# lines are swept in ascending order with the set of n whose outer range
# covers the current line, so no line scans the whole range of n.


class _LinePlan(NamedTuple):
    """How the summand of a sum lies along lines of Pascal's triangle.

    Affine forms are coefficient tuples over (param, outer, inner, 1); a
    single sum's outer loop is ``_loop_pair``'s one-point loop.
    Along a line the index j is the binomial argument with inner
    coefficient 1 (the top when ``by_top``, else the bottom) and the
    other argument is ``slope*j + c``, where c = ``line`` at (n, outer).
    One step of j moves (top, bottom) by (1, slope) when ``by_top``, else
    by (slope, 1): the step shape whose ``step_factors`` give the term
    recurrence, the same on every line of the sum.
    """

    by_top: bool
    slope: int
    line: tuple[int, ...]
    index: tuple[int, ...]
    inner_lower: tuple[bool, tuple[int, ...]]  # (floored-half, form)
    inner_upper: tuple[bool, tuple[int, ...]]
    sign: tuple[int, ...]
    powers: tuple[tuple[int, tuple[int, ...]], ...]
    weight_step: int  # summand ratio for one step of j at fixed (n, outer)
    fold: bool  # the sign parity and every power exponent are constant along each line

    def weight(self, n: int, a: int, b: int) -> tuple[int, int]:
        """Sign times powers at (n, outer, inner) = (n, a, b), as (num, den) ints."""
        sn, sa, sb, s0 = self.sign
        num, den = -1 if (sn * n + sa * a + sb * b + s0) % 2 else 1, 1
        for base, (en, ea, eb, e0) in self.powers:
            e = en * n + ea * a + eb * b + e0
            if e >= 0:
                num *= base**e
            else:
                den *= base**-e
        return num, den


def _loop_pair(case: IdentityCase) -> tuple[Loop, Loop]:
    """(outer, inner) loops; a single sum's outer loop runs over one point."""
    if len(case.loops) == 2:
        return case.loops
    point = SumBound("affine", LinearForm.const_form(0))
    return Loop("", point, point), case.loops[0]  # "" is never a DSL name


def _line_plan(case: IdentityCase) -> _LinePlan | None:
    """The line-walk plan of ``case``, or None when it needs per-n summation."""
    t = case.summand
    if len(t.binomials) != 1 or not t.prefactor.is_const():
        return None
    outer, inner = _loop_pair(case)
    names = (case.param, outer.var, inner.var)

    def coeffs(form: LinearForm) -> tuple[int, ...] | None:
        if not set(form.variables) <= set(names):
            return None
        return tuple(form.coeff(v) for v in names) + (form.const,)

    top, bottom = t.binomials[0]
    p, q = top.coeff(inner.var), bottom.coeff(inner.var)
    if p == 1:
        index, other, slope = top, bottom, q
    elif q == 1:
        index, other, slope = bottom, top, p
    else:
        return None
    forms = [coeffs(f) for f in (other - index.scaled(slope), index,
                                 inner.lower.form, inner.upper.form, t.sign_exp)]
    powers = [(base, coeffs(exp)) for base, exp in t.powers]
    if (None in forms or any(e is None or e[2] < 0 for _, e in powers)
            or forms[2][2] or forms[3][2]):
        return None
    weight_step = -1 if forms[4][2] % 2 else 1
    for base, e in powers:
        weight_step *= base ** e[2]
    # The pairs (n, a) of line c solve gn*n + ga*a = c - g0, so neighbours
    # differ by (ga, -gn)/g.  A weight form at the inner value b = start - i0,
    # where the line's walk starts, is A*n + B*a + (terms of c and start);
    # it moves by (A*ga - B*gn)/g per step, and by A and B when every (n, a)
    # lies on the one line c = g0.
    (gn, ga, _, _), (xn, xa, _, _) = forms[0], forms[1]
    g = gcd(gn, ga)

    def moves(f: tuple[int, ...]) -> tuple[int, ...]:
        a, b = f[0] - f[2] * xn, f[1] - f[2] * xa
        return ((a * ga - b * gn) // g,) if g else (a, b)

    fold = (all(d % 2 == 0 for d in moves(forms[4]))
            and not any(d for _, e in powers for d in moves(e)))
    return _LinePlan(
        by_top=p == 1, slope=slope, line=forms[0], index=forms[1],
        inner_lower=(inner.lower.kind == "floored-half", forms[2]),
        inner_upper=(inner.upper.kind == "floored-half", forms[3]),
        sign=forms[4], powers=tuple(powers), weight_step=weight_step, fold=fold)


def _line_sums(case: IdentityCase, plan: _LinePlan, ns: list[int]
               ) -> dict[int, Fraction]:
    """Exact sums of ``case`` at every n in ``ns`` by walking Pascal lines.

    The outer range [alo, ahi] of each n covers an interval of line
    indices c = gn*n + ga*a + g0.  The intervals are sorted once, and as c
    ascends a line visits only the n whose interval covers it (the
    active n); lines no n reaches are skipped.  Each line's terms come
    from ``line_terms`` over the part of the line where the binomial is
    nonzero; its prefix sums answer every (n, outer) pair on it, and then
    the line is dropped.

    A pair's segment of the line is weighted by the sign and powers at the
    inner value where the line's walk starts.  When the plan folds, that
    weight is one value for every pair of the line (``_line_plan`` proves
    it from the linear forms), so it is computed once, from the line's
    first pair, and passed to ``line_terms`` as the first-term factor;
    each pair then costs one prefix difference and one add.  The fold is
    exact because the terms are the same integers the per-pair product
    would give.  A line whose weight has a negative exponent is not an
    integer factor, and keeps the per-pair weighting, as does every line
    of a plan that does not fold.

    A negative binomial top raises ``UnsupportedArgumentError`` after the
    walk, naming the smallest n where one lies in the summation region.
    """
    outer, _ = _loop_pair(case)
    gn, ga, _, g0 = plan.line
    spans = []  # (first line, last line, n, alo, ahi, line at outer 0)
    for n in ns:
        pt = {case.param: n}
        alo, ahi = outer.lower.eval(pt), outer.upper.eval(pt)
        if alo <= ahi:
            line0 = gn * n + g0
            first, last = sorted((line0 + ga * alo, line0 + ga * ahi))
            spans.append((first, last, n, alo, ahi, line0))
    spans.sort(reverse=True)  # the next span to open is spans[-1]
    acc = dict.fromkeys(ns, 0)
    rest = dict.fromkeys(ns, 0)  # terms with a negative power exponent
    xn, xa, _, x0 = plan.index
    (lhalf, (ln, la, _, l0)), (uhalf, (un, ua, _, u0)) = (plan.inner_lower,
                                                           plan.inner_upper)
    by_top, slope = plan.by_top, plan.slope
    dt, db = (1, slope) if by_top else (slope, 1)
    factors = step_factors(dt, db)
    bad = None  # (n, top) for the smallest n with a negative top
    active: list[tuple] = []
    next_c = 0
    while True:
        active = [s for s in active if s[1] >= next_c]
        if not active:
            if not spans:
                break
            next_c = spans[-1][0]
        while spans and spans[-1][0] <= next_c:
            active.append(spans.pop())
        c, next_c = next_c, next_c + 1
        # every (n, outer, j-segment) whose inner sum lies on line c
        pairs = []
        for _, _, n, alo, ahi, line0 in active:
            if ga:
                a, rem = divmod(c - line0, ga)
                if rem:
                    continue
                outs = (a,)
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
        # line c has (top, bottom) = (j, slope*j + c) or (slope*j + c, j)
        t0, b0 = (0, c) if by_top else (c, 0)
        start, end = line_span(t0, dt, b0, db, min(p[3] for p in pairs),
                               max(p[4] for p in pairs))
        if end < start:
            continue
        # the weight at j = start, one value for every pair when the plan folds
        folded = False
        if plan.fold:
            n, a, i0 = pairs[0][:3]
            first, den = plan.weight(n, a, start - i0)
            folded = den == 1
        _, terms = line_terms(t0, dt, b0, db, start, end, plan.weight_step, factors,
                              first if folded else 1)
        prefix = list(accumulate(terms, initial=0))
        for n, a, i0, jlo, jhi in pairs:
            lo_j = jlo if jlo > start else start
            hi_j = jhi if jhi < end else end
            if hi_j < lo_j:
                continue
            seg = prefix[hi_j - start + 1] - prefix[lo_j - start]
            if not seg:
                continue
            if folded:
                acc[n] += seg
                continue
            num, den = plan.weight(n, a, start - i0)  # b = start - i0 is where j = start
            if den == 1:
                acc[n] += seg * num
            else:
                rest[n] += Fraction(seg * num, den)
    if bad is not None:
        raise UnsupportedArgumentError(
            f"binomial top must be >= 0, got {bad[1]} at {case.param}={bad[0]}")
    pref = case.summand.prefactor.as_fraction()
    return {n: pref * (acc[n] + rest[n]) for n in ns}


#: exact sums per (value key of a case, n); see ``values``
_VALUES: dict[tuple, dict[int, Fraction]] = {}


def _value_key(case: IdentityCase) -> tuple:
    """Everything the sums of ``case`` depend on (not its id, rhs or errata)."""
    t = case.summand
    return (case.param, case.loops, t.sign_exp, t.powers, t.binomials,
            t.prefactor.num, t.prefactor.den)


def values(case: IdentityCase, lo: int, hi: int) -> list[Fraction]:
    """Exact sums of ``case`` at n = lo..hi, memoized per (case value, n).

    The n not in the memo are summed together: by one sweep of the line
    walk (``_line_sums``) when ``_line_plan`` gives a plan, else by one
    ``eval_sum`` per n.  Raises like ``eval_sum``: ``RangeError`` below
    ``valid_from`` and ``UnsupportedArgumentError`` for a negative
    binomial top.
    """
    if lo < case.valid_from:
        raise RangeError(
            f"{case.case_id} is asserted for {case.param} >= {case.valid_from}, got {lo}")
    memo = _VALUES.setdefault(_value_key(case), {})
    todo = [n for n in range(lo, hi + 1) if n not in memo]
    if todo:
        plan = _line_plan(case)
        if plan is None:
            for n in todo:
                memo[n] = eval_sum(case, n)
        else:
            memo.update(_line_sums(case, plan, todo))
    return [memo[n] for n in range(lo, hi + 1)]


def check_identity(case: IdentityCase, lo: int, hi: int
                   ) -> list[tuple[int, Fraction, Fraction]]:
    """All (n, lhs, rhs) where the sum disagrees with the closed form."""
    failures = []
    for n, lhs in enumerate(values(case, lo, hi), lo):
        rhs = case.rhs_value(n)
        if lhs != rhs:
            failures.append((n, lhs, rhs))
    return failures


# ---------------------------------------------------------------------------
# lemmas: registry sums against closed forms


def _closed_form(cid: str):
    """The lemma that registry sum ``cid`` equals its DSL closed form."""
    def lemma(reg: Registry, lo: int, hi: int) -> list[tuple[Fraction, Fraction]]:
        case = reg.case(cid)
        return [(s, case.rhs_value(n)) for n, s in enumerate(values(case, lo, hi), lo)]
    return lemma


def _boundary_gap(reg: Registry, lo: int, hi: int) -> list[tuple[Fraction, Fraction]]:
    stepped = values(reg.case("boundary_stepped_case"), lo, hi)
    flat = values(reg.case("boundary_flat_case"), lo, hi)
    return [(s - f, Fraction(2 * (n + 1) - 3 * 4**n))
            for n, s, f in zip(range(lo, hi + 1), stepped, flat)]


def boundary_gap(n: int) -> Fraction:
    """Stepped-top minus flat-top boundary sums; it equals 2(n+1) - 3*4^n.

    Telescoping thm3_eq6's double sum S(n) one step in n leaves these two
    boundary sums, and the one-line bookkeeping would make their
    difference S(n+1) - S(n) = 2(n+1).  The missing 3*4^n is exactly the
    two terms that S(n+1) gains when m's range grows from 2n to 2n+2:
    4^n at (m, k) = (2n+1, n-1) and 2*4^n at (2n+2, n).  The lemma report
    pins the value 2(n+1) - 3*4^n; ``thm3_difference`` checks the
    difference of the sums directly.
    """
    ((gap, _),) = _boundary_gap(registry(), n, n)
    return gap


def _sum_difference(reg: Registry, lo: int, hi: int
                    ) -> list[tuple[Fraction, Fraction]]:
    s = values(reg.case("thm3_eq6"), lo, hi + 1)
    return [(s[i + 1] - s[i], Fraction(2 * (n + 1)))
            for i, n in enumerate(range(lo, hi + 1))]


#: the lemmas: name -> (registry, lo, hi) -> [(lhs, rhs) at n = lo..hi]
LEMMAS: dict[str, Callable[[Registry, int, int], list[tuple[Fraction, Fraction]]]] = {
    "boundary_flat": _closed_form("boundary_flat_case"),
    "boundary_stepped": _closed_form("boundary_stepped_case"),
    "sum_difference": _sum_difference,
    "boundary_gap": _boundary_gap,
}


def _lemma_holds(name: str, n: int) -> bool:
    ((lhs, rhs),) = LEMMAS[name](registry(), n, n)
    return lhs == rhs


def lemma_boundary_flat(n: int) -> bool:
    """Closed form of the flat-top boundary sum, exact equality."""
    return _lemma_holds("boundary_flat", n)


def lemma_boundary_stepped(n: int) -> bool:
    """Closed form of the stepped-top boundary sum, exact equality."""
    return _lemma_holds("boundary_stepped", n)


def thm3_difference(n: int) -> bool:
    """S(n+1) - S(n) = 2(n+1) for the reversed-order thm3 sum."""
    return _lemma_holds("sum_difference", n)


# ---------------------------------------------------------------------------
# derivation cross-checks for the corollaries


#: the n range [0, DERIVATION_LIMIT] that ``corollary_derivations`` checks
DERIVATION_LIMIT = 40


def corollary_derivations(limit: int = DERIVATION_LIMIT, reg: Registry | None = None
                          ) -> dict[str, list[int]]:
    """Re-derive each corollary from theorem oracle values; list mismatches.

    Recipes: cor1 = thm1 + thm3; cor2 = 2*(thm3 + cor1); cor3 is cor1 at
    2n+1; cor4 is cor1 at 2n; cor5 sums thm1 values at odd parameters.
    The cases come from ``reg`` (default: the bundled registry).
    """
    reg = reg or registry()
    tops = {"thm1": 4 * limit + 1, "thm3_eq6": limit, "cor1": 2 * limit + 1,
            "cor2": limit, "cor3": limit, "cor4": limit, "cor5": limit}
    vals: dict[str, list[Fraction]] = {}
    for cid, top in tops.items():
        case = reg.case(cid)
        # below valid_from a sum counts as 0
        low = min(max(case.valid_from, 0), top + 1)
        vals[cid] = [Fraction(0)] * low + values(case, low, top)
    thm1, thm3, cor1 = vals["thm1"], vals["thm3_eq6"], vals["cor1"]

    fails: dict[str, list[int]] = {f"cor{i}": [] for i in range(1, 6)}
    odd_thm1 = Fraction(0)  # sum of thm1(2k+1) for k = 0..2n
    for n in range(0, limit + 1):
        odd_thm1 += thm1[4 * n + 1] + (thm1[4 * n - 1] if n else 0)
        if cor1[n] != thm1[n] + thm3[n]:
            fails["cor1"].append(n)
        if vals["cor2"][n] != 2 * (thm3[n] + cor1[n]):
            fails["cor2"].append(n)
        if vals["cor3"][n] != cor1[2 * n + 1]:
            fails["cor3"].append(n)
        if vals["cor4"][n] != cor1[2 * n]:
            fails["cor4"].append(n)
        if vals["cor5"][n] != odd_thm1:
            fails["cor5"].append(n)
    return fails


# ---------------------------------------------------------------------------
# registry


#: the bundled documents, in the paper's order
BUNDLED = ("thm1.wz", "thm2.wz", "thm3.wz", "corollaries.wz", "lemmas.wz",
           "involutions.wz")


class Registry(NamedTuple):
    documents: tuple  # (name, SpecDocument) pairs, in the order applied
    cases: dict[str, IdentityCase]
    problems: dict[str, WZProblem]
    #: (kind, public id, mode) -> definition name; kind is "sum" or "recurrence"
    aliases: dict[tuple[str, str, str], str]
    #: (check kind, target) -> CheckDef, in declaration order
    checks: dict[tuple[str, str], object]

    # each build is its own registry: equal only to itself
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def case(self, ident: str, mode: str = "corrected") -> IdentityCase:
        key = self.aliases.get(("sum", ident, mode), ident)
        if key not in self.cases:
            raise UnknownIdentityError(ident)
        return self.cases[key]

    def problem(self, ident: str, mode: str = "corrected") -> WZProblem:
        key = self.aliases.get(("recurrence", ident, mode), ident)
        if key not in self.problems:
            raise UnknownIdentityError(ident)
        return self.problems[key]

    def mode_of(self, kind: str, name: str, mode: str) -> str:
        """``literal`` for a definition aliased only in literal mode, else ``mode``."""
        modes = {m for (k, _, m), target in self.aliases.items()
                 if k == kind and target == name}
        return "literal" if modes == {"literal"} else mode

    def oracle_ids(self) -> list[str]:
        return sorted(self.cases)


def build_registry(documents: Sequence[tuple[str, object]]) -> Registry:
    """Fold parsed (name, SpecDocument) pairs in order into one registry."""
    cases: dict[str, IdentityCase] = {}
    problems: dict[str, WZProblem] = {}
    aliases: dict[tuple[str, str, str], str] = {}
    checks: dict[tuple[str, str], object] = {}
    for _, doc in documents:
        cases.update((d.name, d.case) for d in doc.sums.values())
        problems.update((d.name, d.problem) for d in doc.recurrences.values())
        for kind, defs in (("sum", doc.sums), ("recurrence", doc.recurrences)):
            for d in defs.values():
                for ident, mode in d.aliases:
                    for m in (mode,) if mode else ("literal", "corrected"):
                        aliases[(kind, ident, m)] = d.name
        checks.update(((c.kind, c.target), c) for c in doc.checks)
    return Registry(tuple(documents), cases, problems, aliases, checks)


@lru_cache(maxsize=1)
def registry() -> Registry:
    """The registry of the bundled DSL files (parsed once)."""
    from . import dsl, read_data  # deferred: dsl imports this module's types

    return build_registry([(name, dsl.parse_document(read_data(name)))
                           for name in BUNDLED])
