"""Proper hypergeometric terms: the summands of every registry identity.

A term is a product of a sign factor ``(-1)^L``, integer-base powers
``b^L`` with ``b >= 2``, binomials ``binom(T, B)`` with affine integer
arguments, and a rational-function prefactor.  This normal form covers
every summand handled here and makes the unit-shift quotient
``t(var+1)/t(var)`` a closed-form rational function.  Each binomial
contributes binom(T+p, B+q) / binom(T, B), a ratio of products of affine
factors for any integer shift coefficients p and q, so arguments like
``2k+1`` that shift by 2 need no special case.  ``step_factors``
is the one statement of this ratio, for ``HyperTerm.shift_quotient`` and
``line_terms``: the integer walk of a binomial along a line, which
``HyperTerm.eval_line`` and the Pascal-line sums of ``identities`` share.
Its optional first-term factor carries through the walk exactly; the
Pascal-line sums fold a weight common to a whole line into it, and
``eval_line`` leaves it at 1.

Pole semantics are strict: evaluating a term whose prefactor denominator
vanishes raises ``PoleError`` even if some binomial factor is zero.
0 * infinity is an error here, never 0 -- certificates routinely have a
pole sitting exactly where the bare term vanishes, and silently defining
the product would paper over exactly the subtlety worth reporting.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Mapping

from .exactnum import UnsupportedArgumentError, binomial
from .symalg import LinearForm, MultiPoly, PoleError, RationalFunction

_ONE = RationalFunction.const(1)


def _is_one(r: RationalFunction) -> bool:
    return r.num == _ONE.num and r.den == _ONE.den


def step_factors(dt: int, db: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The affine factors (N, D) of binom(t+dt, b+db) / binom(t, b).

    Each factor (p, q, r) stands for p*t + q*b + r, and N and D are the
    products of their factors.  The ratio is (t+dt)!/t! * b!/(b+db)! *
    (t-b)!/(t-b+dt-db)!, so binom(t+dt, b+db) * D = binom(t, b) * N
    whenever both binomials lie in the support 0 <= b <= t.  There every
    factor of D is at least 1: it is t - i with t - i > t + dt >= 0, or
    b + i or t - b + i with i >= 1.
    """
    num: list[tuple[int, int, int]] = []
    den: list[tuple[int, int, int]] = []
    # x -> x + d multiplies x! by (x+1)...(x+d), or divides it by x(x-1)...(x+d+1)
    for (p, q), d, over, under in (((1, 0), dt, num, den), ((0, 1), db, den, num),
                                   ((1, -1), dt - db, den, num)):
        if d >= 0:
            over.extend((p, q, i) for i in range(1, d + 1))
        else:
            under.extend((p, q, -i) for i in range(-d))
    return tuple(num), tuple(den)


def line_span(t0: int, dt: int, b0: int, db: int, lo: int, hi: int) -> tuple[int, int]:
    """The part of lo..hi where binom(t0 + j*dt, b0 + j*db) is nonzero, given tops >= 0.

    That is where the bottom and the top minus the bottom, each affine in
    j, are >= 0: one interval, returned as (first, last), empty when
    last < first.
    """
    for u, v in ((db, b0), (dt - db, t0 - b0)):  # u*j + v >= 0
        if u > 0:
            lo = max(lo, -(v // u))
        elif u < 0:
            hi = min(hi, v // -u)
        elif v < 0:
            hi = lo - 1
    return lo, hi


def line_terms(t0: int, dt: int, b0: int, db: int, lo: int, hi: int, weight_step: int,
               factors, first_factor: int = 1) -> tuple[int, list[int]]:
    """binom(t0 + j*dt, b0 + j*db) * first_factor * weight_step**i at j = first + i.

    The terms cover the ``line_span`` of lo..hi, and ``first`` is its
    first point.  Returns (first, terms).  One ``binomial`` call times
    ``first_factor`` gives the first term, and each later one is
    term * weight_step * N // D, with ``factors`` = ``step_factors(dt,
    db)`` at the previous point.  The division is exact for any integer
    ``first_factor``: D divides binom * N at every step inside the span.
    """
    lo, hi = line_span(t0, dt, b0, db, lo, hi)
    if hi < lo:
        return lo, []
    top, bottom, steps = t0 + dt * lo, b0 + db * lo, hi - lo
    cols = []
    for first, fs in zip((weight_step, 1), factors):
        col = [first] * steps
        for p, q, r in fs:  # affine in i: its values along the line are a range
            x, dx = p * top + q * bottom + r, p * dt + q * db
            if dx:
                col = [v * y for v, y in zip(col, range(x, x + dx * steps, dx))]
            elif x != 1:
                col = [v * x for v in col]
        cols.append(col)
    term = binomial(top, bottom) * first_factor
    terms = [term]
    for num, den in zip(*cols):
        term = term * num // den
        terms.append(term)
    return lo, terms


#: values along a line as (num, den) ints, and the exception that ended it early
Row = tuple[list[tuple[int, int]], Exception | None]


def slice_row(row: Row, first: int, last: int, lo: int, hi: int) -> Row | None:
    """The row over lo..hi cut from ``row``, the row over first..last; None if it is not there.

    Every entry of a row is its point's own value, so the row over lo..hi
    is entries lo - first to hi - first, provided first <= lo, hi <= last
    and the row did not stop before lo.  It ends with the row's exception
    when the row stopped inside lo..hi, and with None otherwise.
    """
    if hi < lo:
        return [], None
    values, error = row
    stop = first + len(values)  # the first point not in the row
    if lo < first or hi > last or lo > stop:
        return None
    return values[lo - first:hi - first + 1], error if stop <= hi else None


#: Vanishing bound: the term is exactly 0 at integer points beyond it.
#: ``direction == "upper"`` means ``t = 0`` whenever ``var > bound``;
#: ``"lower"`` means ``t = 0`` whenever ``var < bound``.  ``bound`` is a
#: ``LinearForm`` in the remaining variables.
SupportBound = namedtuple("SupportBound", ("var", "direction", "bound"))


class HyperTerm:
    """Sign * powers * binomials * prefactor, all exponents affine.

    Immutable; a slotted class rather than a named tuple (see the wzkit
    package docstring): ``*`` of two terms is their product, and a term
    is never repeated, joined, ordered or iterated as a tuple.
    """

    __slots__ = ("sign_exp", "powers", "binomials", "prefactor", "variables")
    sign_exp: LinearForm
    powers: tuple[tuple[int, LinearForm], ...]
    binomials: tuple[tuple[LinearForm, LinearForm], ...]  # (top, bottom)
    prefactor: RationalFunction
    variables: tuple[str, ...]

    def __init__(self, sign_exp: LinearForm, powers: tuple[tuple[int, LinearForm], ...],
                 binomials: tuple[tuple[LinearForm, LinearForm], ...],
                 prefactor: RationalFunction, variables: tuple[str, ...]) -> None:
        for setter, value in zip(_SETTERS, (sign_exp, powers, binomials, prefactor, variables)):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"HyperTerm is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return (self.sign_exp, self.powers, self.binomials, self.prefactor, self.variables)

    def __reduce__(self):
        return HyperTerm, self._key()

    def __eq__(self, other):
        if other.__class__ is not HyperTerm:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "HyperTerm(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._key())) + ")"

    def _replace(self, **changes) -> "HyperTerm":
        """A copy with the named fields changed, as on wzkit's named-tuple records."""
        return HyperTerm(**dict(zip(self.__slots__, self._key()), **changes))

    @staticmethod
    def build(variables, sign_exp=None, powers=(), binomials=(),
              prefactor=None) -> "HyperTerm":
        return HyperTerm(
            sign_exp=sign_exp or LinearForm.make(),
            powers=tuple((int(b), e) for b, e in powers),
            binomials=tuple(binomials),
            prefactor=prefactor or _ONE,
            variables=tuple(variables),
        )

    # -- evaluation -----------------------------------------------------

    def eval(self, point: Mapping[str, int]) -> Fraction:
        """Exact value at an integer point.

        The value is accumulated as an integer numerator and
        denominator: the prefactor's two integer ratios, the sign,
        ``base**e`` (into the denominator for ``e < 0``) and the
        binomials; one ``Fraction`` is built at the end.  Raises
        ``PoleError`` if the prefactor denominator vanishes (checked
        before any zero binomial can short-circuit) and
        ``UnsupportedArgumentError`` for a negative binomial top.
        """
        pref = self.prefactor
        dv, dd = pref.den.eval_ratio(point)
        if dv == 0:
            raise PoleError(
                f"prefactor denominator {pref.den} vanishes at {dict(point)}")
        tops = [(t.eval(point), b.eval(point)) for t, b in self.binomials]
        for tv, _ in tops:
            if tv < 0:
                raise UnsupportedArgumentError(
                    f"binomial top {tv} < 0 at {dict(point)}")
        nv, nd = pref.num.eval_ratio(point)
        num, den = nv * dd, nd * dv
        if self.sign_exp.eval(point) % 2:
            num = -num
        for base, exp in self.powers:
            e = exp.eval(point)
            if e >= 0:
                num *= base**e
            else:
                den *= base**-e
        for tv, bv in tops:
            c = binomial(tv, bv)
            if c == 0:
                return Fraction(0)
            num *= c
        return Fraction(num, den)

    def eval_line(self, point: Mapping[str, int], var: str, lo: int, hi: int) -> Row:
        """``eval`` at ``point`` with ``var`` = lo..hi, as unreduced (num, den) pairs.

        The row ends before the first ``var`` where ``eval`` raises, with
        that exception.  The prefactor is restricted to the line once, and
        each binomial is walked by ``line_terms`` where it is nonzero.
        """
        if hi < lo:
            return [], None
        at0 = dict(point, **{var: 0})
        nums, nd = self.prefactor.num.line_values(point, var, lo, hi)
        dens, dd = self.prefactor.den.line_values(point, var, lo, hi)
        lines = [(t.eval(at0), t.coeff(var), b.eval(at0), b.coeff(var))
                 for t, b in self.binomials]
        # the last var before a vanishing denominator or a negative top
        end = hi if all(dens) else lo + dens.index(0) - 1
        for t0, dt, _, _ in lines:
            if dt < 0:  # a top falling in var is negative past t0 // -dt
                end = min(end, t0 // -dt)
            elif t0 + dt * lo < 0:
                end = lo - 1
        end = max(end, lo - 1)
        error = None
        if end < hi:
            try:
                self.eval(dict(point, **{var: end + 1}))
            except (PoleError, UnsupportedArgumentError) as exc:
                error = exc
        ks = range(lo, end + 1)
        nums, dens = [v * dd for v in nums[:len(ks)]], [v * nd for v in dens[:len(ks)]]
        for base, exp in ((-1, self.sign_exp), *self.powers):  # (-1)^-e = (-1)^e
            e0, de = exp.eval(at0), exp.coeff(var)
            es = [e0 + de * k for k in ks]
            nums = [v * base**e if e > 0 else v for v, e in zip(nums, es)]
            dens = [v * base**-e if e < 0 else v for v, e in zip(dens, es)]
        for t0, dt, b0, db in lines:
            first, walk = line_terms(t0, dt, b0, db, lo, end, 1, step_factors(dt, db))
            col = [0] * (first - lo) + walk + [0] * (end - first - len(walk) + 1)
            nums = [v * c for v, c in zip(nums, col)]
        return list(zip(nums, dens)), error

    # -- shift quotient ---------------------------------------------------

    def shift_factors(self, var: str
                      ) -> tuple[Fraction, tuple[LinearForm, ...], tuple[LinearForm, ...]]:
        """``(u, N, D)``: t(var+1)/t(var) is u * prod(N) / prod(D) times the prefactor's ratio.

        The unit ``u`` comes from the sign and the powers; N and D are the
        affine forms of the binomials' ``step_factors``, each involving
        ``var`` with a nonzero coefficient.
        """
        unit = Fraction(-1 if self.sign_exp.coeff(var) % 2 else 1)
        for base, exp in self.powers:
            unit *= Fraction(base) ** exp.coeff(var)
        num: list[LinearForm] = []
        den: list[LinearForm] = []
        for top, bottom in self.binomials:
            for out, fs in zip((num, den), step_factors(top.coeff(var), bottom.coeff(var))):
                out.extend(top.scaled(p) + bottom.scaled(q) + r for p, q, r in fs)
        return unit, tuple(num), tuple(den)

    def shift_quotient(self, var: str) -> RationalFunction:
        """Formal quotient ``t(var+1)/t(var)`` as a rational function."""
        unit, nfs, dfs = self.shift_factors(var)
        num = MultiPoly.const(unit.numerator)
        den = MultiPoly.const(unit.denominator)
        for f in nfs:
            num = num * f.to_poly()
        for f in dfs:
            den = den * f.to_poly()
        if self.prefactor.is_zero():
            raise ValueError("zero prefactor has no shift quotient")
        quotient = RationalFunction(num, den)
        if not self.prefactor.is_const():  # a constant prefactor cancels
            quotient = quotient * (self.prefactor.shifted(var, 1) / self.prefactor)
        return quotient

    # -- support analysis ---------------------------------------------------

    def support_bounds(self, var: str) -> list[SupportBound]:
        """Vanish-beyond bounds in ``var`` derived from each binomial.

        A binomial kills the term where ``bottom - top > 0`` or
        ``bottom < 0``.  Each condition is solved as a linear inequality
        in ``var`` when the coefficient permits an exact integer
        solution: always for coefficient +-1, and for larger
        coefficients when the rest of the form is constant.
        """
        out: list[SupportBound] = []
        for top, bottom in self.binomials:
            for form, strict_gt in ((bottom - top, True), (bottom, False)):
                c = form.coeff(var)
                if c == 0:
                    continue
                rest = LinearForm(
                    tuple((v, k) for v, k in form.coeffs if v != var), form.const)
                # vanish where c*var + rest > 0   (strict_gt)
                #          or  c*var + rest < 0   (not strict_gt)
                if not strict_gt:
                    c, rest = -c, -rest  # c*var + rest < 0  <=>  -c*var - rest > 0
                if c > 0:
                    # var >= ceil((1 - rest)/c): beyond an upper bound
                    if c == 1:
                        out.append(SupportBound(var, "upper", -rest))
                    elif rest.is_const():
                        bound = -((1 - rest.const) // -c) - 1  # ceil div, minus one
                        out.append(SupportBound(var, "upper", LinearForm.const_form(bound)))
                else:
                    # var <= floor((rest - 1)/(-c)): below a lower bound
                    if c == -1:
                        out.append(SupportBound(var, "lower", rest))
                    elif rest.is_const():
                        bound = (rest.const - 1) // (-c) + 1
                        out.append(SupportBound(var, "lower", LinearForm.const_form(bound)))
        return out

    # -- combination -----------------------------------------------------------

    def absorb(self, r: RationalFunction) -> "HyperTerm":
        """Multiply the prefactor by ``r`` (how a companion G = R*F is built).

        Evaluation of the result at a pole of ``r`` raises ``PoleError``
        even where a binomial vanishes; see the module docstring.  R = 1
        gives the term itself.
        """
        return self if _is_one(r) else self._replace(prefactor=self.prefactor * r)

    def __mul__(self, other: "HyperTerm") -> "HyperTerm":
        """The product, in canonical form.

        Sign exponents add, with coefficients and constant reduced mod 2;
        powers of one base merge, sorted by base, and a zero exponent
        drops out; binomials concatenate; prefactors multiply.  Variables
        are ``self``'s followed by ``other``'s new ones.
        """
        sign = self.sign_exp + other.sign_exp
        pa, pb = self.prefactor, other.prefactor
        exps: dict[int, LinearForm] = {}
        for base, exp in self.powers + other.powers:
            exps[base] = exps[base] + exp if base in exps else exp
        return HyperTerm(
            sign_exp=LinearForm.make({v: c % 2 for v, c in sign.coeffs}, sign.const % 2),
            powers=tuple((b, e) for b, e in sorted(exps.items()) if e.coeffs or e.const),
            binomials=self.binomials + other.binomials,
            prefactor=pb if _is_one(pa) else pa if _is_one(pb) else pa * pb,
            variables=self.variables + tuple(
                v for v in other.variables if v not in self.variables),
        )

    def __str__(self) -> str:
        """The term in DSL syntax, which parses back to an equal term."""
        parts: list[str] = []
        if self.sign_exp.coeffs or self.sign_exp.const:
            parts.append(f"sign({self.sign_exp})")
        for base, exp in self.powers:
            parts.append(f"pow({base}, {exp})")
        for top, bottom in self.binomials:
            parts.append(f"binom({top}, {bottom})")
        num, den = self.prefactor.num, self.prefactor.den
        if num != _ONE.num or not parts:
            parts.append(f"({num})")
        s = " * ".join(parts)
        return s if den == _ONE.den else f"{s} / ({den})"


# the slots' own setters, which __setattr__ refuses after __init__
_SETTERS = tuple(getattr(HyperTerm, name).__set__ for name in HyperTerm.__slots__)


def term_eval(t: HyperTerm, point: Mapping[str, int]) -> Fraction:
    return t.eval(point)


def shift_quotient(t: HyperTerm, var: str) -> RationalFunction:
    return t.shift_quotient(var)


def support_bounds(t: HyperTerm, var: str) -> list[SupportBound]:
    return t.support_bounds(var)


def absorb_rational(t: HyperTerm, r: RationalFunction) -> HyperTerm:
    return t.absorb(r)
