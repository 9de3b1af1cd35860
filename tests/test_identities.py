from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzkit.dsl import SumDef, parse_document
from wzkit.exactnum import UnsupportedArgumentError, binomial
from wzkit.identities import (SumBound, boundary_gap, check_identity,
                              corollary_derivations, eval_sum,
                              lemma_boundary_flat, lemma_boundary_stepped,
                              registry, thm3_difference, values)
from wzkit.identities import _VALUES, _line_plan
from wzkit.symalg import LinearForm, RationalFunction


# ---------------------------------------------------------------------------
# eval_sum on registry cases


def test_eval_sum_examples():
    reg = registry()
    assert eval_sum(reg.case("thm1"), 5) == 6
    assert eval_sum(reg.case("thm3_printed"), 2) == -6
    assert eval_sum(reg.case("thm3_eq6"), 2) == 6
    assert eval_sum(reg.case("cor5"), 1) == 12


def test_eval_sum_respects_valid_from():
    with pytest.raises(ValueError):
        eval_sum(registry().case("thm3_eq6"), 0)
    with pytest.raises(ValueError):
        values(registry().case("thm3_eq6"), 0, 5)


def test_check_identity_small_ranges():
    reg = registry()
    assert check_identity(reg.case("thm1"), 0, 60) == []
    assert check_identity(reg.case("thm2"), -1, 60) == []
    assert check_identity(reg.case("thm3_eq6"), 1, 40) == []
    for i in range(1, 6):
        assert check_identity(reg.case(f"cor{i}"), 0, 25) == []
    assert check_identity(reg.case("boundary_flat_case"), 1, 40) == []
    assert check_identity(reg.case("boundary_stepped_case"), 1, 40) == []


def test_thm3_printed_fails_exactly_at_even_n():
    fails = check_identity(registry().case("thm3_printed"), 1, 40)
    assert [n for n, _, _ in fails] == [n for n in range(1, 41) if n % 2 == 0]
    for n, lhs, rhs in fails:
        assert lhs == (-1) ** (n + 1) * n * (n + 1)
        assert rhs == n * (n + 1)


def test_thm3_printed_matches_corrected_statement():
    case = registry().case("thm3_printed")
    for n in range(1, 60):
        assert eval_sum(case, n) == (-1) ** (n + 1) * n * (n + 1)


def test_mode_aliases():
    reg = registry()
    assert reg.case("thm3", "literal").case_id == "thm3_printed"
    assert reg.case("thm3", "corrected").case_id == "thm3_eq6"
    assert reg.case("thm3_printed").errata  # erratum attached to the variant


# ---------------------------------------------------------------------------
# range evaluation: the Pascal-line walk against per-n eval_sum

_REGISTRY_SUMS = ("thm1", "thm2", "thm3_eq6", "thm3_printed", "cor1", "cor2", "cor3",
                  "cor4", "cor5", "boundary_flat_case", "boundary_stepped_case")

_SPEC = """
term W(n, k, m) := sign(k + m) * binom(n + k, m) * binom(n, k) * pow(2, m)
sum two_binomials(n) := sum(k, 0, n, W) sum(m, 0, n + k, W) == 0 for n >= 0
term U(n, k, m) := sign(m) * binom(2*n + 2*m, 2*m + k) * pow(2, m)
sum no_unit(n) := sum(k, 0, n, U) sum(m, 0, floor2(n + k), U) == 0 for n >= 0
term A(n, k, m) := sign(m + k) * binom(n + k, m) * pow(2, m - 3)
sum negative_power(n) := sum(k, 0, n, A) sum(m, 0, n + k, A) == 0 for n >= 0
term B(n, k, m) := sign(k) * binom(2*n + m, m) * pow(3, k)
sum line_of_n(n) := sum(k, 0, floor2(n), B) sum(m, floor2(k - 3), n - k, B) == 0 for n >= 2
term C(n, k, m) := binom(m + 3, 2*m - k) * pow(5, 2*m) / 7
sum slope_two(n) := sum(k, 0, n, C) sum(m, 0, 2*n - k, C) == 0 for n >= 0
term N1(n, k, m) := sign(k) * binom(m - k, m) * pow(2, m)
sum negative_top_column(n) := sum(k, 0, n, N1) sum(m, 0, n, N1) == 0 for n >= 0
term N2(n, k, m) := binom(n - 2*k, m) * pow(3, m + k)
sum negative_top_row(n) := sum(k, 0, n, N2) sum(m, 0, k, N2) == 0 for n >= 0
term S1(n, k) := sign(k) * binom(n, k - 2) * pow(2, k)
sum single_below_support(n) := sum(k, 0, n + 3, S1) == 0 for n >= 0
term S2(n, k) := sign(n + k) * binom(n + k, k) * pow(2, k - 3)
sum single_negative_power(n) := sum(k, 0, n, S2) == 0 for n >= 0
term S3(n, k) := sign(k) * binom(n + k, 2*k) * pow(3, k) * 4 / 7
sum single_slope_two(n) := sum(k, 0, n, S3) == 0 for n >= 0
term S4(n, k) := binom(k - n, k) * pow(2, k)
sum single_negative_top(n) := sum(k, 0, n, S4) == 0 for n >= 0
term D(n, k) := binom(k, 3) * pow(2, n)
sum degenerate_line(n) := sum(k, 0, n, D) == 0 for n >= 0
term V1(n, k, m) := sign(n) * binom(n + k, m) * pow(2, m)
sum sign_along_line(n) := sum(k, 0, n, V1) sum(m, 0, n + k, V1) == 0 for n >= 0
term V2(n, k, m) := sign(m) * binom(n + 2*k, m) * pow(3, n + m)
sum power_along_line(n) := sum(k, 0, n, V2) sum(m, 0, n + 2*k, V2) == 0 for n >= 0
"""

#: the shapes whose weight at a line's start varies between the pairs of a
#: line: every n on the one line binom(k, 3), a sign flipping with n along
#: the lines n + k, and a power rising with n along the lines n + 2k
_VARYING = ("degenerate_line", "sign_along_line", "power_along_line")


def _spec_cases():
    doc = parse_document(_SPEC)
    return {d.case.case_id: d.case for d in doc.definitions if isinstance(d, SumDef)}


def _per_n(case, lo, hi):
    return [eval_sum(case, n) for n in range(lo, hi + 1)]


def test_line_walk_takes_every_registry_double_sum():
    # and every single sum: all eleven registry sums get a plan, the
    # stepped boundary sum with its one-point inner loop j = floor(m/2)
    reg = registry()
    assert sorted(_REGISTRY_SUMS) == reg.oracle_ids()
    for cid in reg.oracle_ids():
        assert _line_plan(reg.case(cid)) is not None, cid


def test_values_match_eval_sum_on_first_30_n():
    reg = registry()
    for cid in reg.oracle_ids():
        case = reg.case(cid)
        lo = case.valid_from
        _VALUES.clear()
        assert values(case, lo, lo + 29) == _per_n(case, lo, lo + 29), cid


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_REGISTRY_SUMS), st.integers(0, 25), st.integers(0, 12),
       st.integers(0, 12))
def test_values_match_eval_sum_on_subranges(cid, start, length, warm_at):
    case = registry().case(cid)
    lo = case.valid_from + start
    hi = lo + length
    want = _per_n(case, lo, hi)
    _VALUES.clear()
    assert values(case, lo, hi) == want  # cold memo
    assert values(case, lo, hi) == want  # warm memo
    _VALUES.clear()
    mid = lo + min(warm_at, length)
    values(case, mid, mid)
    assert values(case, lo, hi) == want  # memo with a hole at mid


def test_values_memo_keeps_cases_apart_by_prefactor():
    # a case that differs from thm1 only in its prefactor has its own sums
    case = registry().case("thm1")
    tripled = case._replace(summand=case.summand._replace(
        prefactor=case.summand.prefactor * RationalFunction.const(3)))
    _VALUES.clear()
    want = values(case, 0, 12)
    assert values(tripled, 0, 12) == [3 * v for v in want]
    assert values(case, 0, 12) == want


def test_values_fallback_shapes_match_eval_sum():
    cases = _spec_cases()
    for cid in ("two_binomials", "no_unit"):
        case = cases[cid]
        assert _line_plan(case) is None, cid
        assert values(case, 0, 12) == _per_n(case, 0, 12), cid


def test_line_walk_edge_shapes_match_eval_sum():
    # a power exponent below 0 where a line starts, a line named by n alone
    # with inner lower bounds below the binomial's support, and a slope-2
    # line under a non-unit constant prefactor; as double and single sums
    cases = _spec_cases()
    for cid in ("negative_power", "line_of_n", "slope_two", "single_below_support",
                "single_negative_power", "single_slope_two", *_VARYING):
        case = cases[cid]
        assert _line_plan(case) is not None, cid
        lo = case.valid_from
        _VALUES.clear()
        assert values(case, lo, lo + 15) == _per_n(case, lo, lo + 15), cid


def test_weight_varying_along_a_line_is_not_folded():
    cases = _spec_cases()
    for cid in _VARYING:
        plan = _line_plan(cases[cid])
        assert plan is not None and not plan.fold, cid
    # every n lies on the line binom(k, 3): the weight 2^n differs between them
    _VALUES.clear()
    assert values(cases["degenerate_line"], 0, 7) == [0, 0, 0, 8, 80, 480, 2240, 8960]
    assert all(type(v) is Fraction for v in values(cases["degenerate_line"], 0, 7))


def test_negative_binomial_top_raises_on_both_paths():
    cases = _spec_cases()
    for cid in ("negative_top_column", "negative_top_row", "single_negative_top"):
        case = cases[cid]
        assert _line_plan(case) is not None, cid
        _VALUES.clear()
        assert values(case, 0, 0) == [eval_sum(case, 0)]
        with pytest.raises(UnsupportedArgumentError):
            eval_sum(case, 1)
        for lo in (0, 1):
            with pytest.raises(UnsupportedArgumentError, match=" at n=1$"):
                values(case, lo, 4)


def test_clamped_limits_match_printed_limits():
    # cor2/cor4 upper limits overshoot the binomial top; clamping them to
    # the support must not change any value
    reg = registry()
    for cid, top_clamp in (("cor2", LinearForm.make({"n": 2, "k": 1}, 2)),
                           ("cor4", LinearForm.make({"n": 2, "k": 1}, 1))):
        case = reg.case(cid)
        inner = case.loops[1]
        clamped = case._replace(loops=(
            case.loops[0], inner._replace(upper=SumBound("affine", top_clamp))))
        for n in range(0, 25):
            assert eval_sum(case, n) == eval_sum(clamped, n), (cid, n)


def test_closed_form_eval():
    reg = registry()
    flat, stepped = reg.case("boundary_flat_case"), reg.case("boundary_stepped_case")
    for n in range(1, 30):
        assert flat.rhs_value(n) == boundary_flat_rhs(n)
        assert stepped.rhs_value(n) == boundary_stepped_rhs(n)


# ---------------------------------------------------------------------------
# lemmas
#
# Independent references for the boundary sums: the literal comprehensions,
# with floor(m/2) written as m // 2, and the closed forms as first derived.


def _sgn(e):
    return -1 if e % 2 else 1


def boundary_flat_sum(n):
    """sum_{m=2}^{2n} binom(n+1, m) 2^(m-1) (-1)^(m+n+1)."""
    return Fraction(sum(
        binomial(n + 1, m) * 2 ** (m - 1) * _sgn(m + n + 1)
        for m in range(2, 2 * n + 1)))


def boundary_flat_rhs(n):
    return Fraction(1 + _sgn(n), 2) - (n + 1) * _sgn(n)


def boundary_stepped_sum(n):
    """sum_{m=2}^{2n} binom(n+floor(m/2)+1, m) 2^(m-1) (-1)^(m+floor(m/2)+n+1)."""
    return Fraction(sum(
        binomial(n + m // 2 + 1, m) * 2 ** (m - 1) * _sgn(m + m // 2 + n + 1)
        for m in range(2, 2 * n + 1)))


def boundary_stepped_rhs(n):
    return (n + Fraction(3, 2) - 2 ** (2 * n + 1) + Fraction(_sgn(n), 2)
            + (n + 1) - (n + 1) * _sgn(n) - 2 ** (2 * n))


def test_boundary_sums_match_references():
    reg = registry()
    for cid, ref in (("boundary_flat_case", boundary_flat_sum),
                     ("boundary_stepped_case", boundary_stepped_sum)):
        _VALUES.clear()
        assert values(reg.case(cid), 1, 200) == [ref(n) for n in range(1, 201)], cid


def test_boundary_flat_examples():
    assert boundary_flat_sum(1) == 2 and boundary_flat_rhs(1) == 2
    assert lemma_boundary_flat(1) and lemma_boundary_flat(2)
    assert boundary_flat_sum(0) == 0 and boundary_flat_rhs(0) == 0


def test_boundary_flat_matches_dsl_case():
    case = registry().case("boundary_flat_case")
    for n in range(1, 40):
        assert eval_sum(case, n) == boundary_flat_sum(n)


def test_boundary_stepped_examples():
    assert boundary_stepped_sum(2) == -44 and boundary_stepped_rhs(2) == -44
    assert boundary_stepped_sum(1) == -6
    assert all(lemma_boundary_stepped(n) for n in (1, 2, 3))


def test_thm3_difference_examples():
    reg = registry()
    assert eval_sum(reg.case("thm3_eq6"), 1) == 2
    assert eval_sum(reg.case("thm3_eq6"), 2) == 6
    assert all(thm3_difference(n) for n in (1, 2, 3))


def test_boundary_gap_examples():
    assert boundary_gap(1) == -8
    assert boundary_gap(2) == -42
    assert boundary_gap(3) == -184
    for n in range(1, 61):
        assert boundary_gap(n) == 2 * (n + 1) - 3 * 4**n


def test_gap_plus_growth_recovers_difference():
    # gap + 3*4^n == the true difference 2(n+1)
    for n in range(1, 40):
        assert boundary_gap(n) + 3 * 4**n == 2 * (n + 1)


def test_gap_is_the_two_new_edge_terms_of_the_next_sum():
    # S(n+1) gains m in {2n+1, 2n+2}; its terms there make up the gap
    summand = registry().case("thm3_eq6").summand
    for n in range(1, 60):
        edge = (summand.eval({"n": n + 1, "m": 2 * n + 1, "k": n - 1})
                + summand.eval({"n": n + 1, "m": 2 * n + 2, "k": n}))
        assert edge == 3 * 4**n
        assert boundary_gap(n) + edge == 2 * (n + 1)


# ---------------------------------------------------------------------------
# corollary derivation recipes


def test_corollary_derivations():
    fails = corollary_derivations(limit=40)
    assert all(not v for v in fails.values()), fails


def test_corollary_point_values():
    reg = registry()
    assert eval_sum(reg.case("cor3"), 0) == 4
    assert eval_sum(reg.case("cor4"), 0) == 1
    assert eval_sum(reg.case("cor1"), 1) == 4
