"""Certificate verification, telescoping cross-checks, and discovery.

A problem packages a proper term F, recurrence coefficients a_j in the
shift variable, and a certificate R.  The claim is

    sum_j a_j(n) F(n+j, k)  =  G(n, k+1) - G(n, k),     G = R * F,

and dividing by F(n, k) turns it into a rational-function identity in
the shift quotients, decided exactly by cross-multiplication:

    sum_j a_j q_j  -  ( R(n, k+1) q_k - R(n, k) )  ==  0,

with q_j the j-fold shift quotient in n and q_k the shift quotient in k.

Verification is two-layered on purpose.  The formal identity above says
nothing pointwise at poles of R, and both constant-sum problems here
have R's pole sitting exactly one past the support of F (where F = 0,
so G is a 0*inf form).  The summed check therefore re-derives
``sum_k sum_j a_j F(n+j,k) = 0`` for each concrete n by direct exact
summation over the full support, never forming R*F at a pole; and the
prefix check exercises the telescoped form G(n,kappa+1) - G(n,0) on
every pole-free prefix.  Symbolic identity + per-n summation together
give the rigor the printed one-line telescoping argument skips.  The
mutants that show the check is sensitive need less: a residual whose
exact value at one point, where none of its denominators vanishes, is
nonzero is not the zero function.  So one exact evaluation at
``EVAL_POINT`` refutes a mutant, and the symbolic decider runs only for
a mutant that point does not refute.  The certificate itself, and the
one discovery returns, are always decided symbolically.

The numeric layer reads rows along k (``HyperTerm.eval_line``), which
``_recurrence_side`` combines into rows of sum_j a_j(n) F(n+j, k).  The
prefix check runs pointwise, side(k) = G(n,k+1) - G(n,k) in integers:
while every earlier prefix holds, the prefix sum to kappa is
G(n,kappa) - G(n,0) + side(kappa), so the first failing k is the first
failing prefix.  A row stops where a point evaluation would raise, and a
check raises that exception only when its order of evaluation gets there.
``_k_range`` refuses a term unbounded above in k.

Neighbouring n read the same rows: F(n+1, .) is side's j = 1 row at n and
its j = 0 row at n + 1, and G = F when R = 1.  So the summed stage, the
prefix stage at each grid point and the witness scan each read one
``RowStore``.  It evaluates a row once, on its first request, over a span
that the problem's own support bounds make wide enough for every later
read of the stage, cuts each request from it (``hyperterm.slice_row``),
and drops the rows the stage has passed.  Every entry is its own point's
value, and a cut carries the row's exception only when the row stopped
inside it.  A request the row does not hold is evaluated afresh, so the
store changes speed, never results.  G = R*F is formed once per problem
(``WZProblem.companion``), as are the support bounds and the shift
quotients (``WZProblem.quotients``), which the certificate check and
every mutant of ``verify`` read.

``prove_constant_sum`` runs each stage of ``verify`` once.  A failed
certificate gets the pointwise witness on the first ``WITNESS_WINDOW`` n
of the range.  A verified one gets, with a base case, the boundaries and
the summed recurrence on the whole range; the prefix check on the first
``TELESCOPE_WINDOW`` n at each point of ``EXTRA_VAR_GRID``, where every
variable besides n and k takes each value of the grid; and ``MUTANTS``
seeded mutants, each refuted by one exact evaluation of its residual or,
where that point does not refute it, by the symbolic decider.  A base
case is summed either way.

Discovery is parameterized Gosper: t(k) = sum_j sigma_j F(n+j,k) with
unknown sigma has k-quotient (p(k+1)/p(k)) * (r(k)/s(k)) where p is
sigma-linear; Gosper-normalizing r/s and solving

    Z A(k) x(k+1) - B(k-1) x(k) = C(k) p(k)

as a homogeneous linear system over the rational-function field in the
sigma_j and the coefficients of x yields G = (B(k-1) x(k) / C(k)) * u(k)
and hence R.  The returned problem always re-passes verify_certificate.

Every factor of r and s that involves k is a form affine in k
(``affine_factors``), so the shifts of the normal form are read from
their roots and A, B and C are expanded from them; no polynomial gcd is
computed.  For that, F is split as (N/D) * H, H the sign, powers and
binomials (*A=B*, Petkovsek-Wilf-Zeilberger 1996, ch. 5): N goes whole
into the polynomial part p, and D, which must be one form L affine in k
times a factor free of k, adds L to r and L(k+1) to s as a binomial step
factor does.  A prefactor free of k stays in H, with N = D = 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm, prod
from typing import Callable, Mapping, NamedTuple

from .exactnum import UnsupportedArgumentError
from .gosper import UPoly, degree_bound, gosper_normal, nullspace
from .hyperterm import HyperTerm, Row, SupportBound, slice_row
from .symalg import (LinearForm, MissingVariableError, MultiPoly, PoleError,
                     RationalFunction)


class _WZProblemFields(NamedTuple):
    problem_id: str
    term: HyperTerm
    shift_var: str
    sum_var: str
    coeffs: tuple[RationalFunction, ...]
    certificate: RationalFunction
    base_case: tuple[int, Fraction] | None = None
    errata: tuple[str, ...] = ()


class WZProblem(_WZProblemFields):
    """A term, a recurrence sum_j a_j F(n+j, k), and a certificate R.

    Equal and hashed by its fields.  Declared without ``__slots__``, so an
    instance has the ``__dict__`` that holds its cached properties;
    ``_replace`` gives a problem on which nothing is formed yet.
    """

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def support(self) -> tuple[SupportBound, ...]:
        """The term's support bounds in the summation variable, found once per problem."""
        return tuple(self.term.support_bounds(self.sum_var))

    @cached_property
    def quotients(self) -> tuple[tuple[RationalFunction, ...], RationalFunction]:
        """The term's q_0..q_J in the shift variable and q_k, formed once per problem."""
        return (tuple(shift_quotients(self.term, self.shift_var, self.order)),
                self.term.shift_quotient(self.sum_var))

    @cached_property
    def companion(self) -> HyperTerm:
        """G = R * F with absorb semantics, formed once per problem; F itself when R = 1."""
        return self.term.absorb(self.certificate)


class CertCheck(NamedTuple):
    status: bool
    residual: RationalFunction
    lower_boundary_ok: bool
    upper_bounds: tuple[SupportBound, ...]

    # a check is one run's outcome: equal only to itself
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class ProofReport(NamedTuple):
    problem_id: str
    cert: CertCheck
    upper_boundary_ok: bool
    base_ok: bool | None
    base_actual: Fraction | None
    summed: list[tuple[int, Fraction]]  # (n, nonzero summed recurrence)
    telescope: list[tuple[int, Fraction, Fraction]]  # (n, prefix sum, G difference)
    witness: tuple[int, int, Fraction, Fraction] | None
    survivors: list[int]  # mutants whose certificate still verifies
    failed_stage: str | None
    conclusion: str | None
    errata: tuple[str, ...]

    # a report is one run's outcome: equal only to itself
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


# the grid, windows (counts of n from the start of the range) and mutants
# of prove_constant_sum; see the module docstring
EXTRA_VAR_GRID = range(2, 11)
WITNESS_WINDOW = 9
TELESCOPE_WINDOW = 31
MUTANTS = 20
# the values of n, k and then each free variable at which ``mutation_check``
# evaluates a mutant's residual: distinct, and away from the small integers
# where the bundled terms' and certificates' factors vanish
EVAL_POINT = (29, 17, 41, 53, 67)


# ---------------------------------------------------------------------------
# symbolic layer


def shift_quotients(term: HyperTerm, var: str, order: int) -> list[RationalFunction]:
    """q_j = t(var+j) / t(var) for j = 0..order, as rational functions."""
    q1 = term.shift_quotient(var)
    out = [RationalFunction.const(1)]
    for j in range(order):
        out.append(out[-1] * q1.shifted(var, j))
    return out


def _residual(p: WZProblem, qs: tuple[RationalFunction, ...],
              qk: RationalFunction) -> RationalFunction:
    """sum_j a_j q_j - (R(n, k+1) q_k - R(n, k)), given the term's quotients."""
    residual = RationalFunction.const(0)
    for a, q in zip(p.coeffs, qs):
        residual = residual + a * q
    r = p.certificate
    return residual - (r.shifted(p.sum_var, 1) * qk - r)


def verify_certificate(p: WZProblem) -> CertCheck:
    """Decide the certificate identity exactly; no numerics involved."""
    residual = _residual(p, *p.quotients)
    r = p.certificate
    num_low = r.num.subst_int(p.sum_var, 0)
    den_low = r.den.subst_int(p.sum_var, 0)
    lower_ok = num_low.is_zero() and not den_low.is_zero()
    uppers = tuple(b for b in p.support if b.direction == "upper")
    return CertCheck(
        status=residual.is_zero(),
        residual=residual,
        lower_boundary_ok=lower_ok,
        upper_bounds=uppers,
    )


# ---------------------------------------------------------------------------
# numeric layers


def require_upper_support(p: WZProblem) -> None:
    """Refuse a term with no finite upper support in k: a sum over the support needs one."""
    if not any(b.direction == "upper" for b in p.support):
        raise UnsupportedArgumentError(
            f"term {p.term} of {p.problem_id} has no finite upper support "
            f"in {p.sum_var}")


def _k_range(p: WZProblem, point: Mapping[str, int], shifts: int = 0,
             bounded: bool = True) -> tuple[int, int | None]:
    """(low, high) of k where some F(n+j, k), j = 0..shifts, can be nonzero.

    A missing lower bound counts as 0.  With no upper bound the term is
    refused, or gives (0, None) when not ``bounded``; either way before a
    lower bound, which may name a free variable, is read.
    """
    if bounded:
        require_upper_support(p)
    uppers = [b.bound for b in p.support if b.direction == "upper"]
    if not uppers:
        return 0, None
    n = point[p.shift_var]
    pts = [dict(point, **{p.shift_var: n + j}) for j in range(shifts + 1)]
    high = max(min(u.eval(pt) for u in uppers) for pt in pts)
    lowers = [b.bound for b in p.support if b.direction == "lower"]
    low = min(max((lo.eval(pt) for lo in lowers), default=0) for pt in pts)
    return low, high


class RowStore:
    """Rows along k of F and of G = R*F at one point of the grid, kept between requests.

    A row is evaluated on its first request, F(n', .) over lo..hi + order*s
    with s the largest slope in n of F's upper support bounds (1 when there
    is none, 0 when none rises).  A stage reads F(n', .) at each n from
    n' - order to n', over a span whose end moves by at most s a step, so
    that first row holds the later reads.  A G row that is not F's is read
    only at its own n and is evaluated over lo..hi alone.  A request the
    kept row holds is cut from it by ``slice_row``; any other is evaluated
    afresh, replaces the kept row and drops the rows below n - order, since
    every stage reads n in ascending order.  Every entry is its point's own
    value, so the store changes speed, never results.
    """

    def __init__(self, p: WZProblem, point: Mapping[str, int] | None = None):
        self._p = p
        self._point = dict(point or {})  # the grid point; each row sets n
        slopes = [b.bound.coeff(p.shift_var) for b in p.support if b.direction == "upper"]
        self._margin = p.order * max(max(slopes, default=1), 0)
        self._rows: dict[tuple[bool, int], tuple[Row, int, int]] = {}  # row, first, last

    def row(self, n: int, lo: int, hi: int, g: bool = False) -> Row:
        if hi < lo:
            return [], None
        p = self._p
        key = g and p.companion is not p.term, n
        kept = self._rows.get(key)
        if kept is not None and (cut := slice_row(*kept, lo, hi)) is not None:
            return cut
        for old in [old for old in self._rows if old[1] < n - p.order]:
            del self._rows[old]
        last = hi if key[0] else hi + self._margin
        term = p.companion if key[0] else p.term
        row = term.eval_line(dict(self._point, **{p.shift_var: n}), p.sum_var, lo, last)
        self._rows[key] = row, lo, last
        return slice_row(row, lo, last, lo, hi)


def _recurrence_side(p: WZProblem, point: Mapping[str, int],
                     rows: RowStore | None = None) -> Callable[[int, int], Row]:
    """(lo, hi) -> the row of sum_j a_j(n) F(n+j, k) at ``point``; a_j(n) evaluated once.

    The F rows come from ``rows``, a store at ``point``'s grid point.  The
    row ends with the shortest F(n+j, .) row, with the least such j's exception.
    """
    n = point[p.shift_var]
    coeffs = [(c.numerator, c.denominator) for c in (a.eval(point) for a in p.coeffs)]
    rows = rows or RowStore(p, point)

    def side(lo: int, hi: int) -> Row:
        rows_j = [rows.row(n + j, lo, hi) for j in range(len(coeffs))]
        out, *rest = ([(an * fn, ad * fd) for fn, fd in values]
                      for (an, ad), (values, _) in zip(coeffs, rows_j))
        for col in rest:
            out = [(sn * d + cn * sd, sd * d) for (sn, sd), (cn, d) in zip(out, col)]
        return out, next(err for values, err in rows_j if len(values) == len(out))

    return side


def _row_sum(row: Row) -> Fraction:
    """The sum of a whole row, with one ``Fraction`` per distinct denominator."""
    values, error = row
    if error is not None:
        raise error
    by_den: dict[int, int] = {}
    for num, den in values:
        by_den[den] = by_den.get(den, 0) + num
    return sum((Fraction(num, den) for den, num in by_den.items()), Fraction(0))


def _first_bad_step(side: Row, g: Row) -> int | None:
    """The first i with side[i] != g[i+1] - g[i], or None; raises as side(i), G(i+1) would."""
    (values, side_error), (gs, g_error) = side, g
    for i, (sn, sd) in enumerate(values):
        if i + 1 >= len(gs):
            raise g_error
        (gn, gd), (hn, hd) = gs[i], gs[i + 1]
        if sn * gd * hd != sd * (hn * gd - gn * hd):
            return i
    if side_error is not None:
        raise side_error
    return None


def summed_recurrence_value(p: WZProblem, n: int,
                            extra: Mapping[str, int] | None = None, *,
                            rows: RowStore | None = None) -> Fraction:
    """sum_k sum_j a_j(n) F(n+j, k) over the full support (should be 0).

    Never forms R*F, so certificate poles inside or at the edge of the
    support are irrelevant here.  Requires every shifted term to have a
    finite upper support bound in the summation variable.  ``rows``, a
    store at ``extra`` that the stage reads for every n, serves the F rows.
    """
    base = dict(extra or {})
    base[p.shift_var] = n
    low, high = _k_range(p, base, p.order)
    return _row_sum(_recurrence_side(p, base, rows)(low, high))


def summed_recurrence_check(p: WZProblem, n: int,
                            extra: Mapping[str, int] | None = None) -> bool:
    return summed_recurrence_value(p, n, extra) == 0


def _last_prefix(p: WZProblem, base: Mapping[str, int], kappa_cap: int = 48) -> int:
    """The last kappa whose prefix ``telescope_first_mismatch`` checks at ``base``.

    It is kappa_cap when F has no upper bound u in k, and else u + order + 1,
    one past the support of every F(n+j, .) when u grows by at most one a
    step in n, as every bundled term's does: each further prefix adds
    side(kappa) = 0 on the left and G(n, kappa+1) - G(n, kappa) = 0 - 0 on
    the right.  A zero of R's denominator at z stops it at z - 2.
    """
    _, u = _k_range(p, base, bounded=False)
    limit = kappa_cap if u is None else max(u + p.order + 1, 0)
    dens, _ = p.certificate.den.line_values(base, p.sum_var, 0, limit + 1)
    return limit if all(dens) else dens.index(0) - 2


def telescope_first_mismatch(p: WZProblem, n: int,
                             extra: Mapping[str, int] | None = None,
                             kappa_cap: int = 48, *,
                             rows: RowStore | None = None
                             ) -> tuple[int, Fraction, Fraction] | None:
    """First prefix where the telescoped form disagrees, or None.

    Checks sum_{k=0}^{kappa} sum_j a_j F(n+j,k) = G(n,kappa+1) - G(n,0)
    over every pole-free prefix up to ``_last_prefix``: kappa+1 stays
    strictly below the first zero of R's denominator in the summation
    variable, one k at a time (see the module docstring).  G values use
    absorb semantics, so a pole inside the checked region raises rather
    than being silently defined away: G(n,0) first, then side(kappa), then
    G(n,kappa+1).  ``rows``, a store at ``extra`` that the stage reads for
    every n, serves the F and G rows.
    """
    base = dict(extra or {})
    base[p.shift_var] = n
    rows = rows or RowStore(p, base)
    kappa_max = _last_prefix(p, base, kappa_cap)
    g_row = rows.row(n, 0, kappa_max + 1, g=True)
    g = g_row[0]
    if kappa_max >= -1 and not g:  # G(n, 0) can be a pole, which must raise
        raise g_row[1]
    side = _recurrence_side(p, base, rows)(0, kappa_max)
    kappa = _first_bad_step(side, g_row)
    if kappa is None:
        return None
    g_low = Fraction(*g[0])
    return (kappa, Fraction(*g[kappa]) - g_low + Fraction(*side[0][kappa]),
            Fraction(*g[kappa + 1]) - g_low)


def telescope_prefix_check(p: WZProblem, n: int,
                           extra: Mapping[str, int] | None = None,
                           kappa_cap: int = 48) -> bool:
    return telescope_first_mismatch(p, n, extra, kappa_cap) is None


def _witness_runs(p: WZProblem, n: int) -> list[tuple[int, int]]:
    """The runs lo..last of k that ``pointwise_witness`` scans at n.

    Each run ends two before a zero of R's denominator, so that k + 1 is
    off it too.
    """
    base = {p.shift_var: n}
    _, u = _k_range(p, base, bounded=False)
    hi = (u if u is not None else n + 2) + p.order + 1
    dens, _ = p.certificate.den.line_values(base, p.sum_var, 0, hi + 1)
    poles = [k for k, d in enumerate(dens) if d == 0]
    return [(lo, last) for lo, last in zip([0] + [z + 1 for z in poles],
                                            [z - 2 for z in poles] + [hi]) if lo <= last]


def pointwise_witness(p: WZProblem, n_lo: int, n_hi: int
                      ) -> tuple[int, int, Fraction, Fraction] | None:
    """First integer point where the pointwise recurrence breaks.

    Scans pole-free (n, k) with k+1 inside the pole-free zone and
    returns (n, k, recurrence side, telescoped side) for the first
    mismatch; None when the recurrence holds on the whole grid.  Only
    problems whose term has no leftover symbolic variables are scanned.
    Each run of k between two zeros of R's denominator is one row, read
    from one store for the whole scan.
    """
    if _free_vars(p):
        return None
    rows = RowStore(p)
    for n in range(n_lo, n_hi + 1):
        side = _recurrence_side(p, {p.shift_var: n}, rows)
        for lo, last in _witness_runs(p, n):
            # off R's poles G(n, k) raises only where F(n, k), met first by side(k), does
            row, g_row = side(lo, last), rows.row(n, lo, last + 1, g=True)
            i = _first_bad_step(row, g_row)
            if i is not None:
                g = g_row[0]
                return n, lo + i, Fraction(*row[0][i]), Fraction(*g[i + 1]) - Fraction(*g[i])
    return None


def sum_over_support(p: WZProblem, n: int,
                     extra: Mapping[str, int] | None = None) -> Fraction:
    """S(n) = sum_k F(n, k) over the term's support."""
    pt = dict(extra or {})
    pt[p.shift_var] = n
    return _row_sum(p.term.eval_line(pt, p.sum_var, *_k_range(p, pt)))


# ---------------------------------------------------------------------------
# proof assembly


def _upper_boundary_ok(p: WZProblem, cert: CertCheck) -> bool:
    """Terms vanish beyond a linear bound and R is finite just past it.

    The combined bound over the shifted terms F(n+j, .) is the base
    bound pushed by the shifts; R's denominator substituted at
    (bound + 1) must not vanish identically, which makes
    G(n, bound + 1) an honest finite * 0 = 0.  F itself vanishes at
    combined + 1, since the push is step * order >= 0.
    """
    if not cert.upper_bounds:
        return False
    bound = cert.upper_bounds[0].bound
    step = bound.coeff(p.shift_var)
    combined = bound.shifted(p.shift_var, p.order) if step > 0 else bound
    past = (combined + 1).to_poly()
    return not p.certificate.den.subst(p.sum_var, past).is_zero()


def _free_vars(p: WZProblem) -> list[str]:
    return [v for v in p.term.variables if v not in (p.shift_var, p.sum_var)]


def check_problem(p: WZProblem) -> None:
    """Refuse a base case that a sum of F over all k at one n cannot check."""
    if p.base_case is not None:
        require_upper_support(p)
        if free := _free_vars(p):
            raise UnsupportedArgumentError(
                f"term {p.term} of {p.problem_id} has free variable {', '.join(free)}: "
                f"its base case sums over {p.sum_var} alone")


def prove_constant_sum(p: WZProblem, rng: tuple[int, int], seed: int = 0) -> ProofReport:
    """Run each stage of the proof over ``rng`` of n once (see the module docstring)."""
    check_problem(p)
    lo, hi = rng
    cert = verify_certificate(p)
    upper_ok = _upper_boundary_ok(p, cert)
    witness = (None if cert.status
               else pointwise_witness(p, lo, min(hi, lo + WITNESS_WINDOW - 1)))
    base_ok = base_actual = None
    if p.base_case is not None:
        base_n, base_val = p.base_case
        base_actual = sum_over_support(p, base_n)
        base_ok = base_actual == base_val
    summed, telescope, survivors = [], [], []
    if cert.status:
        if p.base_case is not None:
            rows = RowStore(p)
            summed = [(n, value) for n in range(lo, hi + 1)
                      if (value := summed_recurrence_value(p, n, rows=rows)) != 0]
        free = _free_vars(p)
        window = range(lo, min(hi + 1, lo + TELESCOPE_WINDOW))
        for values in product(EXTRA_VAR_GRID, repeat=len(free)):
            extra = dict(zip(free, values))
            rows = RowStore(p, extra)
            for n in window:
                bad = telescope_first_mismatch(p, n, extra=extra, rows=rows)
                if bad is not None:
                    telescope.append((n, bad[1], bad[2]))
        survivors = [i for i, killed in enumerate(mutation_check(p, MUTANTS, seed))
                     if not killed]
    stages = [("certificate", cert.status)]
    if p.base_case is not None:
        stages += [("lower-boundary", cert.lower_boundary_ok),
                   ("upper-boundary", upper_ok),
                   ("base-case", base_ok),
                   ("summed-recurrence", not summed)]
    failed = next((stage for stage, ok in stages if not ok), None)
    conclusion = None
    if failed is None and p.base_case is not None and not telescope and not survivors:
        conclusion = (f"S({p.shift_var}) = {p.base_case[1]} for "
                      f"{p.shift_var} in [{lo}, {hi}]")
    return ProofReport(p.problem_id, cert, upper_ok, base_ok, base_actual, summed,
                       telescope, witness, survivors, failed, conclusion, p.errata)


# ---------------------------------------------------------------------------
# mutation sensitivity


def mutate_problem(p: WZProblem, rng: random.Random) -> WZProblem:
    """One random +-1 perturbation of an integer constant in R or the coefficients.

    A site is a term of the numerator or denominator of one of R, a_0,
    ..., a_J, in that order.  Re-samples if the perturbation would make
    a denominator identically zero (such a mutant is not a well-formed
    problem at all).
    """
    rfs = (p.certificate,) + p.coeffs
    sites = [(i, part, exp) for i, f in enumerate(rfs)
             for part, poly in enumerate((f.num, f.den)) for exp in poly.terms]
    while True:
        i, part, exp = rng.choice(sites)
        delta = rng.choice((1, -1))
        polys = [rfs[i].num, rfs[i].den]
        terms = dict(polys[part].terms)
        terms[exp] += delta
        polys[part] = MultiPoly(polys[part].vars, terms)
        try:
            mutant = rfs[:i] + (RationalFunction(*polys),) + rfs[i + 1:]
        except ZeroDivisionError:
            continue
        return p._replace(certificate=mutant[0], coeffs=mutant[1:])


def _refuted_at(p: WZProblem, point: Mapping[str, int],
                at: tuple[list[Fraction], Fraction] | None) -> bool:
    """True when ``_residual`` of ``p`` has a nonzero value at ``point``.

    ``at`` holds the term's q_0..q_J and q_k at ``point``.  The value is
    taken only where every denominator of R and of the a_j is nonzero, so
    True proves the residual is not the zero function.  False proves
    nothing: the value is 0, or a pole or a variable ``point`` lacks
    stopped it.
    """
    if at is None:
        return False
    qs, qk = at
    r, k = p.certificate, p.sum_var
    try:
        value = sum((a.eval(point) * q for a, q in zip(p.coeffs, qs)), Fraction(0))
        return value != r.eval(dict(point, **{k: point[k] + 1})) * qk - r.eval(point)
    except (PoleError, MissingVariableError):
        return False


def _quotients_at(p: WZProblem, point: Mapping[str, int]
                  ) -> tuple[list[Fraction], Fraction] | None:
    """The term's q_0..q_J and q_k at ``point``, or None where one has a pole there."""
    qs, qk = p.quotients
    try:
        return [q.eval(point) for q in qs], qk.eval(point)
    except (PoleError, MissingVariableError):
        return None


def mutation_check(p: WZProblem, count: int = MUTANTS, seed: int = 0) -> list[bool]:
    """Returns one flag per mutant: True means the mutant certificate fails.

    A flag is ``not verify_certificate(mutant).status``.  One exact
    evaluation refutes a mutant: its residual's value at ``EVAL_POINT``,
    from the term's quotients evaluated there once, is nonzero
    (``_refuted_at``).  Only a mutant the point does not refute has its
    symbolic residual decided by ``is_zero()``.  Mutants share the term,
    so every one reads ``p.quotients``, which ``verify_certificate(p)``
    formed already when it ran first.
    """
    rng = random.Random(seed)
    point = dict(zip((p.shift_var, p.sum_var, *_free_vars(p)), EVAL_POINT))
    at = _quotients_at(p, point)
    flags = []
    for _ in range(count):
        mutant = mutate_problem(p, rng)
        flags.append(_refuted_at(mutant, point, at)
                     or not _residual(mutant, *p.quotients).is_zero())
    return flags


# ---------------------------------------------------------------------------
# discovery (parameterized Gosper)

_ONE = MultiPoly.const(1)


def _split_prefactor(term: HyperTerm, sum_var: str) -> tuple[HyperTerm, MultiPoly, MultiPoly]:
    """(H, N, D) with F = (N/D) * H; (F, 1, 1) when the prefactor is free of k."""
    pref = term.prefactor
    if sum_var not in pref.variables:
        return term, _ONE, _ONE
    return term._replace(prefactor=RationalFunction.const(1)), pref.num, pref.den


def _denominator_forms(term: HyperTerm, sum_var: str) -> tuple[LinearForm, ...]:
    """The form L of the prefactor denominator D = u * L, u free of k; () for D free of k.

    D = lc * k + e has that shape exactly when e / lc is of total degree
    at most 1, and L is k + e / lc with integer coefficients; any other
    denominator in k raises ``UnsupportedArgumentError``.
    """
    den = term.prefactor.den
    cm = den.coeff_map(sum_var)
    if max(cm) == 0:
        return ()
    try:
        rest = cm.get(0, MultiPoly.zero()).divexact(cm[1]) if max(cm) == 1 else None
    except ValueError:  # not exact
        rest = None
    if rest is None or any(sum(e) > 1 for e in rest.terms):
        raise UnsupportedArgumentError(
            f"prefactor denominator {den} is not one form affine in {sum_var} "
            f"times a factor free of {sum_var}")
    scale = lcm(*(Fraction(c).denominator for c in rest.terms.values()))
    terms = rest.scaled(scale).terms
    coeffs = {rest.vars[e.index(1)]: c for e, c in terms.items() if any(e)}
    return (LinearForm.make({sum_var: scale, **coeffs}, terms.get((0,) * len(rest.vars), 0)),)


def affine_factors(term: HyperTerm, shift_var: str, sum_var: str, order: int
                   ) -> tuple[tuple[LinearForm, ...], tuple[LinearForm, ...]]:
    """The factors involving k of discovery's r and s, as forms affine in k.

    With F = (N/D) * H, r = q_k.num * beta and s = q_k.den * beta(k+1):
    q_k = H(k+1)/H(k) has the binomial forms of ``shift_factors``, and
    beta, the product over j <= order of q_j's denominator times
    D(n+j, k), has the binomial denominator forms of q_n shifted by i in
    n for each i < j, and the form L(n+j, k) of ``_denominator_forms``.
    """
    _, num, den = term.shift_factors(sum_var)
    den_n = [f for f in term.shift_factors(shift_var)[2] if f.coeff(sum_var)]
    beta = tuple(f.shifted(shift_var, i) for j in range(order + 1) for i in range(j)
                 for f in den_n)
    beta += tuple(f.shifted(shift_var, j) for j in range(order + 1)
                  for f in _denominator_forms(term, sum_var))
    return num + beta, den + tuple(f.shifted(sum_var, 1) for f in beta)


def discover_certificate(term: HyperTerm, shift_var: str, sum_var: str,
                         order: int,
                         problem_id: str = "discovered") -> WZProblem | None:
    """Find (a_0..a_J, R) of the given order, or None if provably none exists.

    The result is normalized so the leading coefficient a_J is 1 and is
    re-verified through ``verify_certificate`` before being returned.
    Raises ``UnsupportedArgumentError`` for a prefactor denominator in k
    that ``_denominator_forms`` refuses.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    factors = affine_factors(term, shift_var, sum_var, order)
    h, num, den = _split_prefactor(term, sum_var)
    rhos = shift_quotients(h, shift_var, order)
    # sum_j sigma_j F(n+j, k) = H(n, k) * sum_j sigma_j alpha_j / beta
    dens = [rho.den * den.shifted(shift_var, j) for j, rho in enumerate(rhos)]
    beta = prod(dens, start=_ONE)
    alphas = [rho.num * num.shifted(shift_var, j)
              * prod((d for i, d in enumerate(dens) if i != j), start=_ONE)
              for j, rho in enumerate(rhos)]

    qk = h.shift_quotient(sum_var)
    r_up = UPoly.from_multipoly(qk.num * beta, sum_var)
    s_up = UPoly.from_multipoly(qk.den * beta.shifted(sum_var, 1), sum_var)
    a_np, b_np, c_np = gosper_normal(r_up, s_up, factors)
    b_down = b_np.shifted(-1)
    rhs_degree = c_np.degree + max(alpha.degree(sum_var) for alpha in alphas)
    d = degree_bound(a_np, b_down, rhs_degree)
    if d is None:
        return None

    # multipliers of each unknown inside A x(k+1) - B(k-1) x(k) - C p(k)
    x_shift = UPoly(sum_var, [RationalFunction.const(1), RationalFunction.const(1)])
    multipliers: list[UPoly] = []
    kp_shift = UPoly.one(sum_var)
    for j in range(d + 1):
        multipliers.append(a_np * kp_shift - b_down * UPoly.monomial(sum_var, j))
        kp_shift = kp_shift * x_shift
    for alpha in alphas:
        part = c_np * UPoly.from_multipoly(alpha, sum_var)
        multipliers.append(UPoly(sum_var, [(-c) for c in part.coeffs]))

    n_rows = max(m.degree for m in multipliers) + 1
    matrix = [[m.coeff(i) for m in multipliers] for i in range(n_rows)]
    basis = nullspace(matrix)
    sigma_at = d + 1
    chosen = None
    for vec in basis:
        if not vec[sigma_at + order].is_zero():
            chosen = vec
            break
    if chosen is None:
        for vec in basis:
            if any(not vec[sigma_at + j].is_zero() for j in range(order + 1)):
                chosen = vec
                break
    if chosen is None:
        return None
    lead = next(vec_c for vec_c in reversed(chosen[sigma_at:]) if not vec_c.is_zero())
    chosen = [(c / lead).reduced() for c in chosen]

    x_up = UPoly(sum_var, chosen[:sigma_at])
    sigmas = tuple(chosen[sigma_at + j] for j in range(order + 1))
    # R = B(k-1) x(k) / (C(k) * N(n, k) * prod_{j >= 1} dens_j), as G = R * F
    r_cert = ((b_down * x_up).to_rf() / (c_np.to_rf() * RationalFunction.from_poly(
        prod(dens[1:], start=_ONE) * num))).reduced()
    problem = WZProblem(problem_id, term, shift_var, sum_var, sigmas, r_cert)
    if not verify_certificate(problem).status:
        raise RuntimeError(
            f"internal error: discovered certificate for {problem_id} failed re-verification")
    return problem
