"""Proper hypergeometric terms: the summands of every registry identity.

A term is a product of a sign factor ``(-1)^L``, integer-base powers
``b^L`` with ``b >= 2``, binomials ``binom(T, B)`` with affine integer
arguments, and a rational-function prefactor.  This normal form covers
every summand handled here and makes the unit-shift quotient
``t(var+1)/t(var)`` a closed-form rational function: each binomial
contributes a ratio of rising products,

    binom(T+p, B+q) / binom(T, B)
        = Rise(T+1, p) / (Rise(B+1, q) * Rise(T-B+1, p-q)),

    Rise(x, m) = prod_{i=0}^{m-1} (x+i)          for m >= 0,
                 1 / prod_{i=1}^{-m} (x-i)       for m < 0,

valid for any integer shift coefficients, so no special cases are
needed even for arguments like ``2k+1`` that shift by 2.

Pole semantics are strict: evaluating a term whose prefactor denominator
vanishes raises ``PoleError`` even if some binomial factor is zero.
0 * infinity is an error here, never 0 -- certificates routinely have a
pole sitting exactly where the bare term vanishes, and silently defining
the product would paper over exactly the subtlety worth reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from .exactnum import UnsupportedArgumentError, binomial
from .symalg import LinearForm, MultiPoly, PoleError, RationalFunction

_ONE = RationalFunction.const(1)


def _is_one(r: RationalFunction) -> bool:
    return r.num == _ONE.num and r.den == _ONE.den


@dataclass(frozen=True)
class SupportBound:
    """Vanishing bound: the term is exactly 0 at integer points beyond it.

    ``direction == "upper"`` means ``t = 0`` whenever ``var > bound``;
    ``"lower"`` means ``t = 0`` whenever ``var < bound``.  ``bound`` is a
    linear form in the remaining variables.
    """

    var: str
    direction: str  # "upper" | "lower"
    bound: LinearForm


@dataclass(frozen=True)
class HyperTerm:
    """Sign * powers * binomials * prefactor, all exponents affine."""

    sign_exp: LinearForm
    powers: tuple[tuple[int, LinearForm], ...]
    binomials: tuple[tuple[LinearForm, LinearForm], ...]  # (top, bottom)
    prefactor: RationalFunction
    variables: tuple[str, ...]

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

    # -- shift quotient ---------------------------------------------------

    def shift_quotient(self, var: str) -> RationalFunction:
        """Formal quotient ``t(var+1)/t(var)`` as a rational function."""
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

        if self.sign_exp.coeff(var) % 2:
            num = -num
        for base, exp in self.powers:
            c = exp.coeff(var)
            if c >= 0:
                num = num.scaled(base**c)
            else:
                den = den.scaled(base**-c)
        for top, bottom in self.binomials:
            p = top.coeff(var)
            q = bottom.coeff(var)
            rise(top + 1, p)
            rise_inv(bottom + 1, q)
            rise_inv(top - bottom + 1, p - q)
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
        even where a binomial vanishes; see the module docstring.
        """
        return replace(self, prefactor=self.prefactor * r)

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
        parts = []
        if self.sign_exp.coeffs or self.sign_exp.const:
            parts.append(f"(-1)^({self.sign_exp})")
        for base, exp in self.powers:
            parts.append(f"{base}^({exp})")
        for top, bottom in self.binomials:
            parts.append(f"binom({top}, {bottom})")
        if not (self.prefactor.num == MultiPoly.const(1)
                and self.prefactor.den == MultiPoly.const(1)):
            parts.append(f"[{self.prefactor}]")
        return " * ".join(parts) if parts else "1"


def term_eval(t: HyperTerm, point: Mapping[str, int]) -> Fraction:
    return t.eval(point)


def shift_quotient(t: HyperTerm, var: str) -> RationalFunction:
    return t.shift_quotient(var)


def support_bounds(t: HyperTerm, var: str) -> list[SupportBound]:
    return t.support_bounds(var)


def absorb_rational(t: HyperTerm, r: RationalFunction) -> HyperTerm:
    return t.absorb(r)


def upper_support(t: HyperTerm, var: str, point: Mapping[str, int]) -> int | None:
    """Smallest evaluated upper vanish bound, or None if unbounded above."""
    vals = [b.bound.eval(point) for b in t.support_bounds(var) if b.direction == "upper"]
    return min(vals) if vals else None


def lower_support(t: HyperTerm, var: str, point: Mapping[str, int]) -> int | None:
    """Largest evaluated lower vanish bound, or None if unbounded below."""
    vals = [b.bound.eval(point) for b in t.support_bounds(var) if b.direction == "lower"]
    return max(vals) if vals else None
