"""Gosper machinery for order-J certificate discovery.

Everything here works over the field of rational functions in the
parameters (typically just the shift variable), with the summation
variable as the polynomial indeterminate.  The pieces:

* ``UPoly`` -- dense univariate polynomials with ``RationalFunction``
  coefficients: ring operations, shifts, and the collapse into one
  rational function.
* ``affine_dispersion`` -- the nonnegative integer shifts ``g`` with
  ``gcd(a(k), b(k+g)) != 1`` when ``a`` and ``b`` are, up to factors
  free of ``k``, products of forms affine in ``k``: ``g = beta - alpha``
  for a root ``alpha`` of ``a`` and ``beta`` of ``b`` whose parameter
  parts are equal (the dispersion of linear factors, as in Man and
  Wright, ISSAC 1994).
* ``gosper_normal`` -- ``r/s = Z * (A/B) * (C(k+1)/C(k))`` with
  ``gcd(A(k), B(k+g)) = 1`` for every integer ``g >= 0``; ``Z`` is
  folded into ``A``.  It takes the affine factors of ``r`` and ``s``, so
  each gcd is the multiset of matched factors and ``A``, ``B`` and ``C``
  are those multisets expanded once: no polynomial gcd is computed.
* ``degree_bound`` -- the standard degree analysis of the key equation
  ``A(k) x(k+1) - B(k-1) x(k) = rhs(k)``; in the leading-term
  cancellation case both candidate degrees are kept and the maximum
  wins.
* ``nullspace`` -- exact kernel of a homogeneous system over the
  rational-function field.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .symalg import LinearForm, MultiPoly, RationalFunction


class UPoly:
    """Dense univariate polynomial in ``var`` over rational-function coefficients."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: list[RationalFunction]):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.var = var
        self.coeffs = [c.reduced() for c in coeffs]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(var: str) -> "UPoly":
        return UPoly(var, [])

    @staticmethod
    def one(var: str) -> "UPoly":
        return UPoly(var, [RationalFunction.const(1)])

    @staticmethod
    def monomial(var: str, power: int, coeff=None) -> "UPoly":
        c = coeff if coeff is not None else RationalFunction.const(1)
        return UPoly(var, [RationalFunction.const(0)] * power + [c])

    @staticmethod
    def from_multipoly(p: MultiPoly, var: str) -> "UPoly":
        cm = p.coeff_map(var)
        if not cm:
            return UPoly.zero(var)
        out = [RationalFunction.const(0)] * (max(cm) + 1)
        for power, coeff in cm.items():
            out[power] = RationalFunction.from_poly(coeff)
        return UPoly(var, out)

    # -- basics ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> RationalFunction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> RationalFunction:
        return self.coeffs[i] if 0 <= i <= self.degree else RationalFunction.const(0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(self.var, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(self.var, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other: "UPoly") -> "UPoly":
        if self.is_zero() or other.is_zero():
            return UPoly.zero(self.var)
        out = [RationalFunction.const(0)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPoly(self.var, out)

    def scale(self, c: RationalFunction) -> "UPoly":
        return UPoly(self.var, [x * c for x in self.coeffs])

    def shifted(self, offset: int) -> "UPoly":
        """Substitute ``var -> var + offset``."""
        if offset == 0 or self.is_zero():
            return self
        # Horner in (var + offset)
        out = UPoly.zero(self.var)
        x = UPoly(self.var, [RationalFunction.const(offset), RationalFunction.const(1)])
        for c in reversed(self.coeffs):
            out = out * x + UPoly(self.var, [c])
        return out

    def to_rf(self) -> RationalFunction:
        """Collapse back into a single rational function."""
        x = RationalFunction.var(self.var)
        out = RationalFunction.const(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(
            f"({c})*{self.var}^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero())


# ---------------------------------------------------------------------------
# normal form, degree bound, linear algebra


# a monic factor var + offset, keyed by the offset's parameter part and constant
_Root = tuple[tuple[tuple[str, Fraction], ...], Fraction]


def _monic_factors(forms, var: str) -> tuple[Counter, dict[_Root, MultiPoly]]:
    """Each form over its coefficient of ``var``: the multiset of keys, and each key's factor."""
    keys: Counter = Counter()
    polys: dict[_Root, MultiPoly] = {}
    for f in forms:
        c = f.coeff(var)
        key = (tuple((v, Fraction(x, c)) for v, x in f.coeffs if v != var),
               Fraction(f.const, c))
        keys[key] += 1
        polys[key] = f.to_poly().scaled(Fraction(1, c))
    return keys, polys


def _dispersion(a: Counter, b: Counter) -> list[int]:
    """Integers g >= 0 where a factor var + x of ``a`` is a factor var + g + y of ``b``."""
    return sorted({int(x - y) for p, x in a for q, y in b
                   if p == q and (x - y).denominator == 1 and x >= y})


def affine_dispersion(r_forms: tuple[LinearForm, ...], s_forms: tuple[LinearForm, ...],
                      var: str) -> list[int]:
    """The integers g >= 0 with gcd(r(k), s(k+g)) nontrivial.

    r and s are the products of the forms, up to factors free of
    ``var``, which are units; every form must involve ``var``.
    """
    return _dispersion(_monic_factors(r_forms, var)[0], _monic_factors(s_forms, var)[0])


def _normal_from_factors(var: str, r_forms, s_forms) -> tuple[UPoly, UPoly, UPoly]:
    """Monic ``A, B, C`` of ``gosper_normal``, the gcds read from the affine factors.

    At each shift g, ascending, the gcd of A(k) and B(k+g) is the
    multiset of factors k + x of A with k + x - g in B: A loses them, B
    loses their k + x - g and C gains their k + x - j for j = 1..g.
    """
    a, polys = _monic_factors(r_forms, var)
    b, s_polys = _monic_factors(s_forms, var)
    polys.update(s_polys)
    c = MultiPoly.const(1)
    for g in _dispersion(a, b):
        for (p, x), m in list(a.items()):
            shared = min(m, b[p, x - g])
            if shared:
                a[p, x] -= shared
                b[p, x - g] -= shared
                d = polys[p, x] ** shared
                for j in range(1, g + 1):
                    c = c * d.shifted(var, -j)

    def expand(keys: Counter) -> UPoly:
        out = MultiPoly.const(1)
        for key, m in keys.items():
            out = out * polys[key] ** m
        return UPoly.from_multipoly(out, var)

    return expand(a), expand(b), UPoly.from_multipoly(c, var)


def gosper_normal(r: UPoly, s: UPoly,
                  factors: tuple[tuple[LinearForm, ...], tuple[LinearForm, ...]]
                  ) -> tuple[UPoly, UPoly, UPoly]:
    """Write ``r/s = Z * (A(k)/B(k)) * (C(k+1)/C(k))``.

    Returns ``(Z*A, B, C)`` with ``A, B, C`` monic and
    ``gcd(A(k), B(k+g)) = 1`` for all integers ``g >= 0``.  ``factors``
    are the forms affine in k whose products are ``r`` and ``s`` up to
    factors free of k, which ``Z`` takes; one form per degree of each.
    """
    r_forms, s_forms = factors
    if (len(r_forms), len(s_forms)) != (r.degree, s.degree):
        raise ValueError("the affine factors do not have the degrees of r and s")
    a, b, c = _normal_from_factors(r.var, r_forms, s_forms)
    return a.scale((r.lc / s.lc).reduced()), b, c


def degree_bound(a: UPoly, b_down: UPoly, rhs_degree: int) -> int | None:
    """Degree bound for ``x`` in ``a(k) x(k+1) - b_down(k) x(k) = rhs(k)``.

    ``b_down`` is ``B`` already shifted down by one.  Returns None when
    no nonnegative degree is possible (the honest no-solution case).
    """
    n, m, k = a.degree, b_down.degree, rhs_degree
    candidates: set[int] = set()
    if n != m or not (a.lc - b_down.lc).is_zero():
        candidates.add(k - max(n, m))
    elif n == 0:
        candidates.update((k - n + 1, 0))
    else:
        candidates.add(k - n + 1)
        extra = ((b_down.coeff(n - 1) - a.coeff(n - 1)) / a.lc).reduced()
        if extra.is_const():
            val = extra.as_fraction()
            if val.denominator == 1:
                candidates.add(int(val))
    valid = [d for d in candidates if d >= 0]
    return max(valid) if valid else None


def nullspace(matrix: list[list[RationalFunction]]) -> list[list[RationalFunction]]:
    """Basis of the kernel of a homogeneous system over the RF field."""
    if not matrix:
        return []
    rows = [list(r) for r in matrix]
    ncols = len(rows[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = RationalFunction.const(1) / rows[rank][col]
        rows[rank] = [(x * inv).reduced() for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [(x - f * y).reduced() for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [RationalFunction.const(0)] * ncols
        vec[f] = RationalFunction.const(1)
        for i, p in enumerate(pivots):
            vec[p] = (-rows[i][f]).reduced()
        basis.append(vec)
    return basis
