"""Acceptance suite: every criterion at its stated range, all equalities exact.

Each test prints one ``[criterion N] PASS/FAIL`` line (run with ``-s`` to
see them as they happen).  There are no tolerances anywhere: a check
passes only on exact equality of big integers or fractions.

The sigma involutivity half of criterion 10 pins a known erratum exactly.
The documented rule of ``involution.sigma`` leaves one run class
unpaired, (p, q) = (2, odd), which it sends 2 -> 1 -> 0 instead of back.
All three words of such a chain lie in the thm3 model only from n = 6
on, so zero violations over [1, 6] is the wrong expectation for this
rule.  The test asserts instead: no involutivity or sign violation on
[1, 5]; at n = 6 exactly the 64 predicted triples
x aa y a z -> x a y a z -> x y a z (x, y in {b, c}, z in {b, c}^4) and
no sign violation; and, at the rule level, sigma(sigma(w)) != w for a
word of length <= 9 exactly when its runs are (2, odd).  Whether the
paper's printed sigma has the same gap is not settled here.
"""

import itertools
import json
import time
from pathlib import Path

import jsonschema

from wzkit.cli import run_command
from wzkit.dsl import parse_document, print_document
from wzkit.exactnum import binomial
from wzkit.identities import (boundary_gap, check_identity,
                              corollary_derivations,
                              lemma_boundary_flat, lemma_boundary_stepped,
                              registry, thm3_difference)
from wzkit.involution import (WordModel, check_involution, scan_involution,
                              sigma)
from wzkit.reports import exit_code, render, report_schema
from wzkit.symalg import RationalFunction, rf_equal
from wzkit.wzengine import (discover_certificate, mutation_check,
                            summed_recurrence_check, telescope_prefix_check,
                            verify_certificate)

_inv_cache: dict[tuple[str, int], object] = {}


def _inv(model_id: str, n: int):
    key = (model_id, n)
    if key not in _inv_cache:
        _inv_cache[key] = check_involution(WordModel(model_id, n))
    return _inv_cache[key]


def _line(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
          + (f" {detail}" if detail else ""))
    return ok


def test_criterion_1_thm1_oracle():
    t0 = time.perf_counter()
    failures = check_identity(registry().case("thm1"), 0, 300)
    elapsed = time.perf_counter() - t0
    ok = failures == [] and elapsed < 10.0
    assert _line("1", ok, f"thm1 exact on [0,300] in {elapsed:.2f}s")
    assert failures == []
    assert elapsed < 10.0


def test_criterion_2_thm2_oracle():
    failures = check_identity(registry().case("thm2"), -1, 300)
    assert _line("2", failures == [], "thm2 exact on [-1,300]")
    assert failures == []


def test_criterion_3_thm3_both_forms():
    reg = registry()
    eq6_failures = check_identity(reg.case("thm3_eq6"), 1, 300)
    printed = check_identity(reg.case("thm3_printed"), 1, 100)
    evens = [n for n in range(1, 101) if n % 2 == 0]
    printed_ok = ([n for n, _, _ in printed] == evens and all(
        lhs == (-1) ** (n + 1) * n * (n + 1) and rhs == n * (n + 1)
        for n, lhs, rhs in printed))
    # the tool reports the literal form as an erratum instead of crashing
    code, reports = run_command(
        ["oracle", "--id", "thm3_printed", "--n-min", "1", "--n-max", "10"])
    reported = code == 1 and reports[0].errata != []
    ok = eq6_failures == [] and printed_ok and reported
    assert _line("3", ok, "thm3_eq6 on [1,300]; literal fails at even n, flagged")
    assert eq6_failures == []
    assert printed_ok
    assert reported


def test_criterion_4_corollaries():
    reg = registry()
    ranges = {"cor1": (0, 200), "cor2": (0, 100), "cor3": (0, 100),
              "cor4": (0, 100), "cor5": (0, 100)}
    bad = {cid: check_identity(reg.case(cid), *rng)
           for cid, rng in ranges.items()}
    deriv = corollary_derivations(limit=40)
    ok = all(not v for v in bad.values()) and all(not v for v in deriv.values())
    assert _line("4", ok, "cor1..cor5 exact plus derivation recipes")
    assert all(not v for v in bad.values()), bad
    assert all(not v for v in deriv.values()), deriv


def test_criterion_5_lemmas():
    flat = all(lemma_boundary_flat(n) for n in range(1, 201))
    stepped = all(lemma_boundary_stepped(n) for n in range(1, 201))
    diff = all(thm3_difference(n) for n in range(1, 201))
    gap = all(boundary_gap(n) == 2 * (n + 1) - 3 * 4**n for n in range(1, 101))
    ok = flat and stepped and diff and gap
    assert _line("5", ok, "boundary lemmas, sum difference, documented gap")
    assert flat and stepped and diff and gap


def test_criterion_6_certificates():
    reg = registry()
    thm2 = reg.problem("thm2")
    thm1c = reg.problem("thm1", "corrected")
    thm3 = reg.problem("thm3")
    lit = reg.problem("thm1", "literal")

    passing = [verify_certificate(p).status for p in (thm2, thm1c, thm3)]
    lit_check = verify_certificate(lit)
    literal_fails = not lit_check.status and not lit_check.residual.is_zero()

    mutations_ok = all(
        all(mutation_check(p, count=20, seed=911)) for p in (thm2, thm1c, thm3))

    summed_ok = (all(summed_recurrence_check(thm1c, n) for n in range(0, 61))
                 and all(summed_recurrence_check(thm2, n) for n in range(-1, 61)))
    telescope_ok = (
        all(telescope_prefix_check(thm1c, n) for n in range(0, 31))
        and all(telescope_prefix_check(thm2, n) for n in range(0, 31))
        and all(telescope_prefix_check(thm3, n, extra={"m": m}, kappa_cap=24)
                for n in range(0, 31) for m in range(2, 9)))

    ok = all(passing) and literal_fails and mutations_ok and summed_ok \
        and telescope_ok
    assert _line("6", ok, "certificate checks, mutations, numeric cross-layers")
    assert all(passing)
    assert literal_fails
    assert mutations_ok
    assert summed_ok
    assert telescope_ok


def test_criterion_7_discovery():
    reg = registry()
    thm1c = reg.problem("thm1", "corrected")
    thm2 = reg.problem("thm2")
    d1 = discover_certificate(thm1c.term, "n", "k", 1)
    d2 = discover_certificate(thm2.term, "n", "k", 1)
    d0 = discover_certificate(thm1c.term, "n", "k", 0)
    found = d1 is not None and d2 is not None
    ok = (found
          and verify_certificate(d1).status and verify_certificate(d2).status
          and rf_equal(d1.certificate, thm1c.certificate)
          and rf_equal(d2.certificate, thm2.certificate)
          and rf_equal(d1.coeffs[0], RationalFunction.const(-1))
          and rf_equal(d1.coeffs[1], RationalFunction.const(1))
          and d0 is None)
    assert _line("7", ok, "order-1 discovery recovers both; order-0 no-solution")
    assert ok


def test_criterion_8_involution_thm1():
    ok = True
    for n in range(0, 8):
        rep = _inv("thm1", n)
        ok &= rep.clean
        ok &= rep.fixed_signed_sum == 2 * n + 2
        ok &= rep.total_signed_sum == 2 * n + 2
        model = WordModel("thm1", n)
        for k, count in rep.stratum_counts.items():
            ok &= count == binomial(n + k + 1, 2 * k + 1) * 2 ** (2 * k + 1)
        for w in model.stratum_words(0):
            if scan_involution(w) is None:
                stripped = w.lstrip("c")
                ok &= stripped == "b" * len(stripped)  # fixed set is T
    assert _line("8", ok, "thm1 words: clean involution, T carries 2n+2")
    assert ok


def test_criterion_9_involution_thm2():
    ok = True
    for n in range(-1, 8):
        rep = _inv("thm2", n)
        ok &= rep.clean
        ok &= rep.fixed_signed_sum == 2 * n + 3
        ok &= rep.total_signed_sum == 2 * n + 3
    assert _line("9", ok, "thm2 words: fixed-set signed sum 2n+3 incl. n=-1")
    assert ok


def test_criterion_10_thm3_fixed_sets_and_closure():
    ok = True
    for n in range(1, 7):
        rep = _inv("thm3", n)
        expected = 2 * n * (n + 1)
        ok &= rep.fixed_count == expected
        ok &= rep.fixed_signed_sum == expected * (-1) ** (n + 1)
        if n >= 2:
            ok &= rep.closure_violations != []
    ok &= ("bbbb", "babbb") in _inv("thm3", 2).closure_violations
    assert _line("10 (fixed sets, closure)", ok,
                 "fixed count 2n(n+1), weight (-1)^(n+1), closure gaps surfaced")
    assert ok


def _middle_runs(w: str) -> tuple[int, int]:
    """(p, q): the a-runs after the first and the second non-a letter."""
    idx = [i for i, ch in enumerate(w) if ch != "a"]
    return idx[1] - idx[0] - 1, idx[2] - idx[1] - 1


def test_criterion_10_sigma_involutivity_where_closed():
    # The rule sends runs (2, odd) -> (1, odd) -> (0, odd), so sigma is
    # not involutive there, and zero violations is the wrong expectation.
    # A chain lies wholly in S only if w has k >= 2 and at least three
    # a's; its length n+1+k >= 3 + (2k+2) then needs n >= k+4 >= 6.
    # At n = 6 that forces k = 2 and w = x aa y a z with z four non-a
    # letters.  The expected witnesses are built from this shape, never
    # from the checker.
    problems = []

    rule_breaks, predicted_breaks = set(), set()
    for length in range(3, 10):
        for letters in itertools.product("abc", repeat=length):
            w = "".join(letters)
            if length - w.count("a") < 3:
                continue
            p, q = _middle_runs(w)
            if p == 2 and q % 2:
                predicted_breaks.add(w)
            if sigma(sigma(w)) != w:
                rule_breaks.add(w)
    if rule_breaks != predicted_breaks:
        problems.append(
            "rule level: unpredicted breaks "
            f"{sorted(rule_breaks - predicted_breaks)[:5]}, predicted "
            f"breaks that pair {sorted(predicted_breaks - rule_breaks)[:5]}")

    tails = ["".join(z) for z in itertools.product("bc", repeat=4)]
    at_six = {(x + "aa" + y + "a" + z, x + "a" + y + "a" + z, x + y + "a" + z)
              for x in "bc" for y in "bc" for z in tails}
    assert len(at_six) == 64
    for n in range(1, 7):
        rep = _inv("thm3", n)
        expected = at_six if n == 6 else set()
        found = rep.involutivity_violations
        if sorted(found) != sorted(expected):
            problems.append(
                f"n={n}: {len(found)} involutivity violations recorded, "
                f"{len(expected)} predicted; missing "
                f"{sorted(expected - set(found))[:5]}, extra "
                f"{sorted(set(found) - expected)[:5]}")
        if rep.sign_violations:
            problems.append(
                f"n={n}: sign violations {rep.sign_violations[:5]}")

    _line("10 (sigma involutivity)", not problems,
          "none on [1,5]; exactly the 64 (2, odd) chains at n=6")
    assert not problems, "\n".join(problems)


def test_criterion_11_dsl_cli_contract():
    # round-trip idempotence on every bundled file
    roundtrip = True
    for _, doc in registry().documents:
        printed = print_document(doc)
        roundtrip &= parse_document(printed) == doc

    # exit codes: 0 pass, 1 mathematical failure, 2 usage/parse error
    c0, _ = run_command(["oracle", "--id", "thm1", "--n-max", "20"])
    c1, _ = run_command(["oracle", "--id", "thm3_printed",
                         "--n-min", "1", "--n-max", "4"])
    c2, _ = run_command(["oracle", "--id", "no_such_identity"])
    codes_ok = (c0, c1, c2) == (0, 1, 2)

    # the full suite: schema-valid reports, exit code consistent, < 60 s,
    # and the same reports as the golden file (which omits the timings)
    t0 = time.perf_counter()
    code, reports = run_command(["all"])
    elapsed = time.perf_counter() - t0
    schema = report_schema()
    payload = json.loads(render(reports, "json"))
    for obj in payload:
        jsonschema.validate(obj, schema)
    consistent = code == exit_code(reports) and code in (0, 1)
    golden = json.loads(
        (Path(__file__).parent / "data" / "all_reports.json").read_text())
    unchanged = [{k: v for k, v in obj.items() if k != "ms"}
                 for obj in payload] == golden

    ok = roundtrip and codes_ok and consistent and unchanged and elapsed < 60.0
    assert _line("11", ok,
                 f"round-trip, schema, exit codes; all in {elapsed:.1f}s")
    assert roundtrip
    assert codes_ok
    assert consistent
    assert unchanged
    assert elapsed < 60.0
