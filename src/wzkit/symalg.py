"""Exact multivariate polynomial and rational-function algebra.

Variables are kept in a fixed global order (plain lexicographic order
on variable names) and a coefficient is an ``int`` when integral, a
``Fraction`` only when not, so a polynomial's representation is unique
and equality is representation equality.  Normalized rational functions
have integral parts, so their arithmetic runs on ``int``s; a quotient of
coefficients goes through ``Fraction``, never ``/`` on two ``int``s.
Evaluation at an all-``int`` point uses the integer coefficients over
one common denominator, cached per polynomial.  Rational functions are
*not* gcd-reduced: equality is decided by cross-multiplication, which
is exact and immune to missed cancellations.  Normalization only
guarantees a nonzero denominator, integer-coefficient numerator and
denominator with coprime contents, and a positive leading denominator
coefficient.

The only substitutions ever needed are integer shifts ``var -> var + c``
and the occasional replacement of a variable by another linear form, so
``subst`` takes a polynomial replacement and everything else is built on
top of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping


class MissingVariableError(KeyError):
    """An evaluation point does not assign every variable."""


class PoleError(ArithmeticError):
    """A denominator vanished at the evaluation point."""


def _coeff(c: int | Fraction) -> int | Fraction:
    """The stored form of a coefficient: an ``int`` when ``c`` is integral."""
    return c if type(c) is int else c.numerator if c.denominator == 1 else c


# ---------------------------------------------------------------------------
# linear forms


class LinearForm:
    """Integer-coefficient affine expression ``sum c_i * x_i + const``.

    Canonical: zero coefficients are never stored and names are sorted,
    so equal forms compare and hash equal.  Immutable; a slotted class
    rather than a named tuple (see the wzkit package docstring), so a form
    is never repeated, joined, ordered or iterated as a tuple.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: tuple[tuple[str, int], ...], const: int = 0) -> None:
        _set_coeffs(self, coeffs)
        _set_const(self, const)

    def __setattr__(self, name, value):
        raise AttributeError(f"LinearForm is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return LinearForm, (self.coeffs, self.const)

    def __eq__(self, other):
        if other.__class__ is not LinearForm:
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        return hash((self.coeffs, self.const))

    def __repr__(self) -> str:
        return f"LinearForm(coeffs={self.coeffs!r}, const={self.const!r})"

    @staticmethod
    def make(coeffs: Mapping[str, int] | None = None, const: int = 0) -> "LinearForm":
        items = tuple(sorted((v, c) for v, c in (coeffs or {}).items() if c != 0))
        return LinearForm(items, const)

    @staticmethod
    def var(name: str) -> "LinearForm":
        return LinearForm(((name, 1),), 0)

    @staticmethod
    def const_form(c: int) -> "LinearForm":
        return LinearForm((), c)

    def coeff(self, name: str) -> int:
        for v, c in self.coeffs:
            if v == name:
                return c
        return 0

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def is_const(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinearForm | int") -> "LinearForm":
        if isinstance(other, int):
            return LinearForm(self.coeffs, self.const + other)
        d = dict(self.coeffs)
        for v, c in other.coeffs:
            d[v] = d.get(v, 0) + c
        return LinearForm.make(d, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple((v, -c) for v, c in self.coeffs), -self.const)

    def __sub__(self, other: "LinearForm | int") -> "LinearForm":
        return self + (-other if isinstance(other, LinearForm) else -other)

    def scaled(self, k: int) -> "LinearForm":
        if k == 0:
            return LinearForm((), 0)
        return LinearForm(tuple((v, k * c) for v, c in self.coeffs), k * self.const)

    def shifted(self, var: str, offset: int) -> "LinearForm":
        """Substitute ``var -> var + offset``."""
        return LinearForm(self.coeffs, self.const + self.coeff(var) * offset)

    def eval(self, point: Mapping[str, int]) -> int:
        value = self.const
        try:
            for v, c in self.coeffs:
                value += c * point[v]
        except KeyError as exc:
            raise MissingVariableError(f"no value for variable {exc.args[0]!r}") from exc
        return value

    def to_poly(self) -> "MultiPoly":
        p = MultiPoly.const(self.const)
        for v, c in self.coeffs:
            p = p + MultiPoly.var(v).scaled(c)
        return p

    def __str__(self) -> str:
        parts: list[str] = []
        for v, c in self.coeffs:
            if c == 1:
                parts.append(f"+ {v}" if parts else v)
            elif c == -1:
                parts.append(f"- {v}" if parts else f"-{v}")
            else:
                sign = "- " if c < 0 and parts else ("-" if c < 0 else ("+ " if parts else ""))
                parts.append(f"{sign}{abs(c) if parts or c < 0 else c}*{v}")
        if self.const or not parts:
            c = self.const
            parts.append((f"+ {c}" if c >= 0 else f"- {-c}") if parts else str(c))
        return " ".join(parts)


# the slots' own setters, which __setattr__ refuses after __init__
_set_coeffs, _set_const = LinearForm.coeffs.__set__, LinearForm.const.__set__


# ---------------------------------------------------------------------------
# multivariate polynomials


class MultiPoly:
    """Sparse multivariate polynomial with rational coefficients.

    ``terms`` maps exponent tuples (aligned with the sorted ``vars``
    tuple) to nonzero coefficients, each an ``int`` when integral and a
    ``Fraction`` otherwise.  Construction canonicalizes: coefficients
    take that form and unused variables are dropped, so two equal
    polynomials always have the same representation.  ``_int`` caches
    the integer coefficients over their common denominator once the
    polynomial is evaluated at an integer point.
    """

    __slots__ = ("vars", "terms", "_hash", "_int")

    def __init__(self, vars: Iterable[str], terms: Mapping[tuple[int, ...], int | Fraction]):
        vs = tuple(vars)
        tm = {e: _coeff(c) for e, c in terms.items() if c}
        # drop variables that no term uses
        used = [i for i in range(len(vs)) if any(e[i] for e in tm)]
        if len(used) != len(vs):
            vs2 = tuple(vs[i] for i in used)
            tm = {tuple(e[i] for i in used): c for e, c in tm.items()}
            vs = vs2
        if not tm:
            vs = ()
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", tm)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_int", None)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly((), {})

    @staticmethod
    def const(c: Fraction | int) -> "MultiPoly":
        return MultiPoly((), {(): c})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): 1})

    # -- introspection ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def as_fraction(self) -> Fraction:
        if self.vars:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.terms.get((), 0))

    def degree(self, var: str) -> int:
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=0)

    def lead(self) -> tuple[tuple[int, ...], int | Fraction]:
        """Leading (exponent, coefficient) under lex order on ``vars``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def coeff_map(self, var: str) -> dict[int, "MultiPoly"]:
        """View as a polynomial in ``var``: power -> coefficient poly."""
        if var not in self.vars:
            return {} if self.is_zero() else {0: self}
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict[int, dict[tuple[int, ...], int | Fraction]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {p: MultiPoly(rest, t) for p, t in buckets.items()}

    # -- alignment helpers ---------------------------------------------

    @staticmethod
    def _align(a: "MultiPoly", b: "MultiPoly"):
        if a.vars == b.vars:
            return a.vars, a.terms, b.terms
        vs = tuple(sorted(set(a.vars) | set(b.vars)))

        def remap(p: "MultiPoly"):
            idx = [p.vars.index(v) if v in p.vars else -1 for v in vs]
            return {tuple(e[i] if i >= 0 else 0 for i in idx): c for e, c in p.terms.items()}

        return vs, remap(a), remap(b)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        vs, ta, tb = MultiPoly._align(self, other)
        out = dict(ta)
        for e, c in tb.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(vs, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        vs, ta, tb = MultiPoly._align(self, other)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return MultiPoly(vs, out)

    def scaled(self, c: Fraction | int) -> "MultiPoly":
        c = _coeff(c)
        return MultiPoly(self.vars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation and substitution ------------------------------------

    def eval(self, point: Mapping[str, int | Fraction]) -> Fraction:
        """Exact value at a full assignment of the variables."""
        num, den = self.eval_ratio(point)
        return Fraction(num, den)

    def eval_ratio(self, point: Mapping[str, int | Fraction]
                   ) -> tuple[int | Fraction, int]:
        """The value as ``(numerator, denominator)``, not reduced.

        At an all-``int`` point both are ``int``s: the integer
        coefficients over their common denominator, evaluated in
        ``int`` arithmetic.  At a point with a ``Fraction`` value the
        numerator is the value itself and the denominator is 1.
        """
        try:
            vals = [point[v] for v in self.vars]
        except KeyError as exc:
            raise MissingVariableError(f"no value for variable {exc.args[0]!r}") from None
        if all(type(x) is int for x in vals):
            terms, den = self._int_terms()
        else:
            vals = [Fraction(x) for x in vals]
            terms, den = self.terms.items(), 1
        total = 0
        for e, c in terms:
            for x, p in zip(vals, e):
                if p:
                    c *= x**p
            total += c
        return total, den

    def line_values(self, point: Mapping[str, int], var: str, lo: int, hi: int
                    ) -> tuple[list[int], int]:
        """``eval_ratio`` at ``point`` with ``var`` = lo..hi: the numerators, one denominator.

        The integer coefficients are restricted to the line once and
        evaluated by Horner's rule.
        """
        terms, den = self._int_terms()
        try:
            vals = [1 if v == var else point[v] for v in self.vars]
        except KeyError as exc:
            raise MissingVariableError(f"no value for variable {exc.args[0]!r}") from None
        i = self.vars.index(var) if var in self.vars else None
        coeffs = [0] * (self.degree(var) + 1)
        for e, c in terms:
            for x, p in zip(vals, e):
                c *= x**p
            coeffs[0 if i is None else e[i]] += c
        out = [0] * max(hi - lo + 1, 0)
        for c in reversed(coeffs):
            out = [v * x + c for v, x in zip(out, range(lo, hi + 1))]
        return out, den

    def _int_terms(self) -> tuple[list[tuple[tuple[int, ...], int]], int]:
        """(exponent, integer coefficient) pairs and their common denominator."""
        cached = self._int
        if cached is None:
            den = 1
            for c in self.terms.values():
                den = lcm(den, c.denominator)
            cached = ([(e, c.numerator * (den // c.denominator))
                       for e, c in self.terms.items()], den)
            object.__setattr__(self, "_int", cached)
        return cached

    def subst(self, var: str, repl: "MultiPoly") -> "MultiPoly":
        """Substitute ``var -> repl`` (polynomial replacement)."""
        if var not in self.vars:
            return self
        powers: dict[int, MultiPoly] = {0: MultiPoly.const(1)}
        out = MultiPoly.zero()
        for p, coeff in self.coeff_map(var).items():
            if p not in powers:
                powers[p] = repl**p
            out = out + coeff * powers[p]
        return out

    def subst_int(self, var: str, value: int) -> "MultiPoly":
        return self.subst(var, MultiPoly.const(value))

    def shifted(self, var: str, offset: int) -> "MultiPoly":
        """Substitute ``var -> var + offset``."""
        if offset == 0 or var not in self.vars:
            return self
        return self.subst(var, MultiPoly.var(var) + MultiPoly.const(offset))

    # -- exact division ----------------------------------------------------

    def divexact(self, other: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises if the division has a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_const():
            return self.scaled(1 / other.as_fraction())
        vs, ta, tb = MultiPoly._align(self, other)
        rem = dict(ta)
        lead_b = max(tb)
        cb = tb[lead_b]
        quot: dict[tuple[int, ...], int | Fraction] = {}
        while rem:
            lead_r = max(rem)
            e = tuple(x - y for x, y in zip(lead_r, lead_b))
            if any(x < 0 for x in e):
                raise ValueError("division is not exact")
            c = _coeff(Fraction(rem[lead_r], cb))
            quot[e] = quot.get(e, 0) + c
            for eb, vb in tb.items():
                k = tuple(x + y for x, y in zip(e, eb))
                nv = rem.get(k, 0) - c * vb
                if nv:
                    rem[k] = nv
                else:
                    rem.pop(k, None)
        return MultiPoly(vs, quot)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [
                v if p == 1 else f"{v}^{p}"
                for v, p in zip(self.vars, e)
                if p
            ]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def poly_eval(p: MultiPoly, point: Mapping[str, int]) -> Fraction:
    """Spec surface for exact polynomial evaluation."""
    return p.eval(point)


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Quotient of two ``MultiPoly`` values, normalized but not gcd-reduced.

    Normalization: denominator nonzero, both parts ``int``-coefficient
    polynomials with coprime contents, and the denominator's leading
    coefficient (lex order) positive.  Equality is decided by
    cross-multiplication, so correctness never depends on cancellation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        den = MultiPoly.const(1) if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero():
            num, den = MultiPoly.zero(), MultiPoly.const(1)
        else:
            # Write num = a*P and den = b*Q with P, Q primitive integer
            # polynomials and a, b > 0 their contents.  Times the lcm m of
            # all coefficient denominators both parts are integral with
            # contents m*a and m*b, so g = gcd(m*a, m*b) and the result is
            # (m*a/g)*P over (m*b/g)*Q: coprime positive multipliers with
            # ratio a/b, the numerator and denominator of a/b in lowest
            # terms.  Integral parts have m = 1 and skip the scaling.
            coeffs = [*num.terms.values(), *den.terms.values()]
            m = lcm(*(c.denominator for c in coeffs))
            if m != 1:
                num, den = num.scaled(m), den.scaled(m)
                coeffs = [*num.terms.values(), *den.terms.values()]
            g = gcd(*coeffs)
            if g != 1:
                num, den = (MultiPoly(p.vars, {e: c // g for e, c in p.terms.items()})
                            for p in (num, den))
        if not den.is_zero() and den.lead()[1] < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c: Fraction | int) -> "RationalFunction":
        return RationalFunction(MultiPoly.const(c))

    @staticmethod
    def from_poly(p: MultiPoly) -> "RationalFunction":
        return RationalFunction(p)

    @staticmethod
    def var(name: str) -> "RationalFunction":
        return RationalFunction(MultiPoly.var(name))

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def as_fraction(self) -> Fraction:
        return self.num.as_fraction() / self.den.as_fraction()

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.num.vars) | set(self.den.vars)))

    # -- field operations ---------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def scaled(self, c: Fraction | int) -> "RationalFunction":
        return RationalFunction(self.num.scaled(c), self.den)

    # -- substitution and evaluation -----------------------------------------

    def shifted(self, var: str, offset: int) -> "RationalFunction":
        """Substitute ``var -> var + offset`` and renormalize."""
        return RationalFunction(self.num.shifted(var, offset), self.den.shifted(var, offset))

    def subst(self, var: str, repl: MultiPoly) -> "RationalFunction":
        return RationalFunction(self.num.subst(var, repl), self.den.subst(var, repl))

    def eval(self, point: Mapping[str, int | Fraction]) -> Fraction:
        d, dd = self.den.eval_ratio(point)
        if d == 0:
            raise PoleError(f"denominator {self.den} vanishes at {dict(point)}")
        n, nd = self.num.eval_ratio(point)
        return Fraction(n * dd, d * nd)

    # -- equality ---------------------------------------------------------

    def equals(self, other: "RationalFunction") -> bool:
        """Cross-multiplication equality, immune to missed cancellation."""
        return self.num * other.den == other.num * self.den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.equals(other)

    def __hash__(self) -> int:  # hash-compatible with cross-mult equality only
        raise TypeError("RationalFunction is not hashable (equality is semantic)")

    # -- optional reduction ---------------------------------------------------

    def reduced(self) -> "RationalFunction":
        """Cancel what is cheap to cancel; never required for correctness.

        Cancels common monomial factors always, and the full polynomial
        gcd in the univariate case (used to keep the certificate-solver
        entries small).  Multivariate gcds are deliberately avoided.
        """
        num, den = self.num, self.den
        if num.is_zero():
            return self
        # common monomial factor
        vs = tuple(sorted(set(num.vars) | set(den.vars)))
        if vs:
            def min_exps(p: MultiPoly) -> list[int]:
                idx = [p.vars.index(v) if v in p.vars else -1 for v in vs]
                out = []
                for j, i in enumerate(idx):
                    if i < 0:
                        out.append(0)
                    else:
                        out.append(min(e[i] for e in p.terms))
                return out

            common = [min(a, b) for a, b in zip(min_exps(num), min_exps(den))]
            if any(common):
                mono = MultiPoly(vs, {tuple(common): 1})
                num = num.divexact(mono)
                den = den.divexact(mono)
        used = set(num.vars) | set(den.vars)
        if len(used) == 1:
            (v,) = used
            g = _upoly_gcd(num, den, v)
            if g.degree(v) > 0:
                num = num.divexact(g)
                den = den.divexact(g)
        return RationalFunction(num, den)

    def __str__(self) -> str:
        if self.den == MultiPoly.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _upoly_gcd(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly:
    """Monic gcd of two univariate polynomials in ``var`` (Euclid)."""

    def coeffs(p: MultiPoly) -> list[Fraction]:
        out = [Fraction(0)] * (p.degree(var) + 1)
        for e, c in p.terms.items():
            out[e[0] if p.vars else 0] = Fraction(c)
        return out

    fa, fb = coeffs(a), coeffs(b)

    def norm(f: list[Fraction]) -> list[Fraction]:
        while f and f[-1] == 0:
            f.pop()
        return f

    fa, fb = norm(fa), norm(fb)
    while fb:
        # remainder of fa / fb
        r = fa[:]
        while len(r) >= len(fb):
            q = r[-1] / fb[-1]
            off = len(r) - len(fb)
            for i, c in enumerate(fb):
                r[off + i] -= q * c
            r = norm(r)
            if not r:
                break
        fa, fb = fb, r
    if not fa:
        return MultiPoly.zero()
    lead = fa[-1]
    return MultiPoly((var,), {(i,): c / lead for i, c in enumerate(fa) if c})


def rf_arith(lhs: RationalFunction, op: str, rhs: RationalFunction) -> RationalFunction:
    """Apply one of ``+ - * /`` to two rational functions."""
    if op in ("+",):
        return lhs + rhs
    if op in ("-", "−"):
        return lhs - rhs
    if op in ("*", "×"):
        return lhs * rhs
    if op in ("/", "÷"):
        return lhs / rhs
    raise ValueError(f"unknown operator {op!r}")


def rf_equal(lhs: RationalFunction, rhs: RationalFunction) -> bool:
    return lhs.equals(rhs)


def rf_shift(f: RationalFunction, var: str, offset: int) -> RationalFunction:
    return f.shifted(var, offset)
