"""Gosper machinery for order-J certificate discovery.

Everything here works over the field of rational functions in the
parameters (typically just the shift variable), with the summation
variable as the polynomial indeterminate.  The pieces:

* ``UPoly`` -- dense univariate polynomials with ``RationalFunction``
  coefficients, enough ring/Euclid structure for the normal form.
* ``shift_candidates`` -- the nonnegative integer shifts ``g`` with
  ``gcd(a(k), b(k+g)) != 1`` (the dispersion set), found exactly: the
  resultant ``Res_k(a(k), b(k+h))`` is computed symbolically
  (fraction-free Bareiss over integer polynomials in the parameters and
  ``h``), a nonzero rational slice of it bounds the integer roots, the
  slice's denominators are cleared once so its roots are scanned in
  ``int`` arithmetic, and every candidate is confirmed by an actual gcd.
* ``affine_shift_candidates`` -- the same set when ``a`` and ``b`` are,
  up to factors free of ``k``, products of forms affine in ``k``: it is
  read from the factors' roots, ``g = beta - alpha`` for a root
  ``alpha`` of ``a`` and ``beta`` of ``b`` whose parameter parts are
  equal (the dispersion of linear factors, as in Man and Wright, ISSAC
  1994).
* ``gosper_normal`` -- ``r/s = Z * (A/B) * (C(k+1)/C(k))`` with
  ``gcd(A(k), B(k+g)) = 1`` for every integer ``g >= 0``; ``Z`` is
  folded into ``A``.  Given the affine factors of ``r`` and ``s``, each
  gcd is the multiset of matched factors, so ``A``, ``B`` and ``C`` are
  those multisets expanded once; without them the shifts come from the
  resultant and each gcd from Euclid, which stays as the reference.
  Discovery passes the factors whenever the term's prefactor is free of
  ``k``.
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
from math import lcm

from .symalg import LinearForm, MultiPoly, RationalFunction

_H = "_h"  # resultant shift indeterminate; underscore keeps it out of user namespaces


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

    def monic(self) -> "UPoly":
        return self.scale(RationalFunction.const(1) / self.lc)

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

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [RationalFunction.const(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)

        def deg(cs):
            while cs and cs[-1].is_zero():
                cs.pop()
            return len(cs) - 1

        while deg(r) >= other.degree:
            d = len(r) - 1
            t = (r[-1] / other.lc).reduced()
            q[d - other.degree] = t
            for i, c in enumerate(other.coeffs):
                r[d - other.degree + i] = (r[d - other.degree + i] - t * c).reduced()
        return UPoly(self.var, q), UPoly(self.var, r)

    def quo(self, other: "UPoly") -> "UPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic gcd by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

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
# resultant-based shift detection


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
    out = []
    for i, c in enumerate(p.coeffs):
        scaled = c.num * den.divexact(c.den)
        out.append(scaled)
    return out


def _sylvester_resultant_shifted(a: UPoly, b: UPoly) -> MultiPoly:
    """``Res_k(a(k), b(k+h))`` as a polynomial in the parameters and ``h``."""
    ca = _clear_denominators(a)
    cb = _clear_denominators(b)
    da, db = len(ca) - 1, len(cb) - 1
    # b(k + h), read back as coefficients of powers of k
    k = MultiPoly.var(b.var)
    bk = MultiPoly.zero()
    for j, coeff in enumerate(cb):
        bk = bk + coeff * k**j
    powers = bk.subst(b.var, k + MultiPoly.var(_H)).coeff_map(b.var)
    cbh = [powers.get(j, MultiPoly.zero()) for j in range(db + 1)]
    # Sylvester matrix of (ca, cbh), size da + db
    n = da + db
    rows: list[list[MultiPoly]] = []
    for i in range(db):  # rows of a
        row = [MultiPoly.zero()] * n
        for j, c in enumerate(reversed(ca)):
            row[i + j] = c
        rows.append(row)
    for i in range(da):  # rows of b(k+h)
        row = [MultiPoly.zero()] * n
        for j, c in enumerate(reversed(cbh)):
            row[i + j] = c
        rows.append(row)
    return _det_bareiss(rows)


def _resultant_slice(a: UPoly, b: UPoly) -> dict[int, int | Fraction]:
    """Power -> coefficient of a nonzero univariate slice of the shifted resultant.

    Every integer ``g`` with ``gcd(a(k), b(k+g))`` nontrivial is a root.
    """
    res = _sylvester_resultant_shifted(a, b)
    if res.is_zero():
        raise ValueError("degenerate resultant (inputs share a factor for all shifts)")
    # slice away the parameters: any specialization keeping the slice nonzero
    # yields a superset of the integer roots in h.  The points are not
    # integers, so a gap that moves with a parameter (n + 1, say) does not
    # become an integer root whose false candidate costs a gcd over Q(n)
    params = [v for v in res.vars if v != _H]
    phi = None
    for base in range(0, 64):
        cand = res
        for i, v in enumerate(params):
            cand = cand.subst(v, MultiPoly.const(base + Fraction(1, 2 * i + 3)))
        if not cand.is_zero():
            phi = cand
            break
    if phi is None:
        raise ValueError("could not find a nonzero resultant slice")
    return {e[0] if phi.vars else 0: c for e, c in phi.terms.items()}


def shift_candidates(a: UPoly, b: UPoly, limit: int = 100_000) -> list[int]:
    """Nonnegative integers ``g`` with ``gcd(a(k), b(k+g))`` nontrivial."""
    if a.degree < 1 or b.degree < 1:
        return []
    coeffs = _resultant_slice(a, b)
    degree = max(coeffs)
    # the slice times the lcm of its denominators has the same roots;
    # its integer coefficients, leading first, feed an int Horner scan
    den = lcm(*(c.denominator for c in coeffs.values()))
    horner = [0] * (degree + 1)
    for e, c in coeffs.items():
        horner[degree - e] = c.numerator * (den // c.denominator)
    # every root is below the Cauchy bound 1 + max |c_i / c_lead|, whose
    # integer part is 1 + max |h_i| // |h_lead| on the integer coefficients
    bound = min(2 + max(map(abs, horner)) // abs(horner[0]), limit)

    def phi_at(g: int) -> int:
        value = 0
        for c in horner:
            value = value * g + c
        return value

    out = []
    for g in range(0, bound + 1):
        if phi_at(g) == 0 and a.gcd(b.shifted(g)).degree > 0:
            out.append(g)
    return out


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


def affine_shift_candidates(r_forms: tuple[LinearForm, ...], s_forms: tuple[LinearForm, ...],
                            var: str) -> list[int]:
    """``shift_candidates(r.monic(), s.monic())`` for r, s whose factors in ``var`` are the forms.

    Every form must involve ``var``; factors free of ``var`` are units.
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


def _normal_by_gcd(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly, UPoly]:
    """Monic ``A, B, C`` of ``gosper_normal`` from ``shift_candidates`` and Euclid's gcds."""
    c = UPoly.one(a.var)
    for g in shift_candidates(a, b):
        d = a.gcd(b.shifted(g))
        if d.degree > 0:
            a = a.quo(d)
            b = b.quo(d.shifted(-g))
            for j in range(1, g + 1):
                c = c * d.shifted(-j)
    return tuple(map(_polynomial_coeffs, (a, b, c)))


def _polynomial_coeffs(p: UPoly) -> UPoly:
    """``p`` with each coefficient that is a polynomial written as one.

    ``reduced`` cancels only univariate gcds, so over two or more
    parameters ``monic`` and Euclid leave coefficients such as
    (k + n + 3) / (k + n + 3); written as polynomials they match the
    expanded factors of ``_normal_from_factors`` term for term.
    """
    out = []
    for c in p.coeffs:
        try:
            out.append(RationalFunction(c.num.divexact(c.den)))
        except ValueError:  # not a polynomial
            out.append(c)
    return UPoly(p.var, out)


def gosper_normal(r: UPoly, s: UPoly,
                  factors: tuple[tuple[LinearForm, ...], tuple[LinearForm, ...]] | None = None
                  ) -> tuple[UPoly, UPoly, UPoly]:
    """Write ``r/s = Z * (A(k)/B(k)) * (C(k+1)/C(k))``.

    Returns ``(Z*A, B, C)`` with ``A, B, C`` monic and
    ``gcd(A(k), B(k+g)) = 1`` for all integers ``g >= 0``.  ``factors``,
    when given, are the forms affine in k whose products are ``r`` and
    ``s`` up to factors free of k; the result is the same either way.
    """
    z = (r.lc / s.lc).reduced()
    if factors is None:
        a, b, c = _normal_by_gcd(r.monic(), s.monic())
    else:
        r_forms, s_forms = factors
        if (len(r_forms), len(s_forms)) != (r.degree, s.degree):
            raise ValueError("the affine factors do not have the degrees of r and s")
        a, b, c = _normal_from_factors(r.var, r_forms, s_forms)
    return a.scale(z), b, c


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
