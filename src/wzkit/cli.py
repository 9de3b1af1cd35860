"""Command-line interface.

Subcommands:

* ``oracle``      -- exact range check of a registry identity.
* ``verify``      -- certificate check plus the full proof pipeline
                     (boundaries, base case, summed and prefix
                     cross-checks, seeded mutation sensitivity).
* ``involution``  -- exhaustive word-model checks, violations reported
                     verbatim.
* ``discover``    -- order-J certificate discovery via parameterized
                     Gosper.
* ``lemmas``      -- the boundary lemmas, the sum difference, and the
                     documented telescoping gap.
* ``all``         -- the full acceptance suite with expected outcomes
                     (a literal variant that fails as expected counts as
                     meeting its expectation).

Exit codes: 0 all pass, 1 a mathematical failure was found, 2 usage or
parse errors.  ``--format json`` emits an array of report objects that
validate against the bundled schema; the text format renders the same
facts.  ``--jobs`` parallelizes per-n work for oracles and involutions;
a value below 1 is a usage error, and one above the CPUs this process
may run on is lowered to that count (with a note on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import involution as inv
from . import wzengine
from .dsl import ParseError, parse_document
from .identities import (LEMMA_IDS, Registry, UnknownIdentityError,
                         boundary_flat_rhs, boundary_flat_sum,
                         boundary_gap, boundary_stepped_rhs,
                         boundary_stepped_sum, check_identity,
                         corollary_derivations, registry, values)
from .reports import Failure, Report, exit_code, frac_str, render
from .symalg import rf_equal

VARIANT_MODE = {
    "thm3_printed": "literal",
    "wz_thm1_literal": "literal",
}

_INVOLUTION_DEFAULTS = {"thm1": (0, 7), "thm2": (-1, 7), "thm3": (1, 6)}
_EXTRA_VAR_GRID = (2, 10)  # symbolic leftover variables get this value range


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# registry plumbing


def _runtime_registry(spec_path: str | None) -> Registry:
    reg = registry()
    if spec_path is None:
        return reg
    with open(spec_path, encoding="utf-8") as fh:
        doc = parse_document(fh.read())
    from . import dsl
    from .identities import _WZ_META  # overlay keeps per-id metadata
    cases = dict(reg.cases)
    problems = dict(reg.problems)
    checks = list(reg.checks)
    for d in doc.definitions:
        if isinstance(d, dsl.SumDef):
            cases[d.case.case_id] = d.case
        elif isinstance(d, dsl.RecurrenceDef):
            meta = _WZ_META.get(d.name, {})
            problems[d.name] = wzengine.WZProblem(
                problem_id=d.name,
                term=doc.terms[d.term_name].term,
                shift_var=d.shift_var,
                sum_var=d.sum_var,
                coeffs=d.coeffs,
                certificate=doc.certs[d.cert_name].rf,
                base_case=meta.get("base_case"),
                errata=tuple(meta.get("errata", ())),
            )
        elif isinstance(d, dsl.CheckDef):
            checks.append(d)
    return Registry(reg.documents + ((spec_path, doc),), cases, problems,
                    tuple(checks))


def _declared_range(reg: Registry, kind: str, target: str) -> tuple[int, int] | None:
    for c in reg.checks:
        if c.kind == kind and c.target == target and c.range is not None:
            return c.range
    return None


def _pick_range(args, default: tuple[int, int]) -> tuple[int, int]:
    lo = args.n_min if args.n_min is not None else default[0]
    hi = args.n_max if args.n_max is not None else default[1]
    if hi < lo:
        raise UsageError(f"malformed range [{lo}, {hi}]")
    return lo, hi


# ---------------------------------------------------------------------------
# parallel helpers (top-level functions so they pickle)


def _oracle_chunk(task) -> list[tuple[int, str, str]]:
    case_id, lo, hi = task
    case = registry().cases[case_id]
    return [(n, frac_str(l), frac_str(r)) for n, l, r in check_identity(case, lo, hi)]


def _involution_task(task):
    model_id, n = task
    return n, inv.check_involution(inv.WordModel(model_id, n))


def _effective_jobs(jobs: int, cpus: int | None = None) -> int:
    """``--jobs`` checked and clamped to the CPUs this process may run on."""
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    if cpus is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            cpus = os.cpu_count() or 1
    return min(jobs, cpus)


def _pmap(fn, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _chunks(lo: int, hi: int, jobs: int) -> list[tuple[int, int]]:
    span = hi - lo + 1
    parts = max(1, min(jobs * 4, span))
    size = -(-span // parts)
    return [(a, min(a + size - 1, hi)) for a in range(lo, hi + 1, size)]


# ---------------------------------------------------------------------------
# oracle


def _run_oracle(reg: Registry, ident: str, mode: str, rng: tuple[int, int],
                jobs: int) -> Report:
    case = reg.case(ident, mode)
    t0 = time.perf_counter()
    # only bundled cases can be re-fetched inside worker processes
    if jobs > 1 and registry().cases.get(case.case_id) is case:
        tasks = [(case.case_id, a, b) for a, b in _chunks(rng[0], rng[1], jobs)]
        raw = [f for chunk in _pmap(_oracle_chunk, tasks, jobs) for f in chunk]
        failures = [Failure(n, l, r) for n, l, r in raw]
    else:
        failures = [Failure.of(n, l, r) for n, l, r in check_identity(case, *rng)]
    ms = (time.perf_counter() - t0) * 1000
    return Report(
        command="oracle", subject_id=case.case_id,
        mode=VARIANT_MODE.get(case.case_id, mode), range=rng,
        status="pass" if not failures else "fail",
        failures=failures, errata=list(case.errata), ms=ms)


# ---------------------------------------------------------------------------
# verify


def _extra_grid(problem: wzengine.WZProblem) -> list[dict[str, int]]:
    extra_vars = [v for v in problem.term.variables
                  if v not in (problem.shift_var, problem.sum_var)]
    if not extra_vars:
        return [{}]
    lo, hi = _EXTRA_VAR_GRID
    grids: list[dict[str, int]] = [{}]
    for v in extra_vars:
        grids = [dict(g, **{v: val}) for g in grids for val in range(lo, hi + 1)]
    return grids


def _run_verify(reg: Registry, ident: str, mode: str, rng: tuple[int, int],
                seed: int, jobs: int, mutations: int = 20) -> Report:
    problem = reg.problem(ident, mode)
    t0 = time.perf_counter()
    failures: list[Failure] = []
    errata = list(problem.errata)
    cert = wzengine.verify_certificate(problem)
    if not cert.status:
        witness = wzengine.pointwise_witness(problem, rng[0], min(rng[1], rng[0] + 8))
        if witness is not None:
            n, k, lhs, rhs = witness
            failures.append(Failure.of(n, lhs, rhs))
            errata.append(
                f"pointwise witness at {problem.shift_var}={n}, "
                f"{problem.sum_var}={k}: recurrence side {frac_str(lhs)} vs "
                f"telescoped side {frac_str(rhs)}")
        else:
            failures.append(Failure(rng[0], "1", "0"))
    else:
        grids = _extra_grid(problem)
        if problem.base_case is not None:
            proof = wzengine.prove_constant_sum(problem, rng)
            if proof.base_ok is False:
                failures.append(Failure.of(problem.base_case[0],
                                           proof.base_actual, problem.base_case[1]))
            for n in proof.summed_failures:
                failures.append(Failure.of(
                    n, wzengine.summed_recurrence_value(problem, n), 0))
            if proof.failed_stage:
                errata.append(f"proof stage failed: {proof.failed_stage}")
        tel_hi = min(rng[1], rng[0] + 30)
        for grid in grids:
            for n in range(max(rng[0], 0), tel_hi + 1):
                bad = wzengine.telescope_first_mismatch(problem, n, extra=grid)
                if bad is not None:
                    failures.append(Failure.of(n, bad[1], bad[2]))
        survived = [i for i, ok in enumerate(
            wzengine.mutation_check(problem, count=mutations, seed=seed)) if not ok]
        for i in survived:
            failures.append(Failure(i, "1", "0"))
            errata.append(f"mutation #{i} unexpectedly still verifies")
    ms = (time.perf_counter() - t0) * 1000
    return Report(
        command="verify", subject_id=problem.problem_id,
        mode=VARIANT_MODE.get(problem.problem_id, mode), range=rng,
        status="pass" if cert.status and not failures else "fail",
        failures=failures, errata=errata, ms=ms)


# ---------------------------------------------------------------------------
# involution


def _involution_expectations(model_id: str, n: int, rep: inv.InvolutionReport
                             ) -> list[Failure]:
    bad: list[Failure] = []
    if model_id in ("thm1", "thm2"):
        want = 2 * n + 2 if model_id == "thm1" else 2 * n + 3
        if rep.fixed_signed_sum != want:
            bad.append(Failure.of(n, rep.fixed_signed_sum, want))
        if rep.total_signed_sum != want:
            bad.append(Failure.of(n, rep.total_signed_sum, want))
        model = inv.WordModel(model_id, n)
        for k, count in rep.stratum_counts.items():
            expected = model.expected_stratum_count(k)
            if count != expected:
                bad.append(Failure.of(n, count, expected))
    else:
        expected_fixed = 2 * n * (n + 1)
        if rep.fixed_count != expected_fixed:
            bad.append(Failure.of(n, rep.fixed_count, expected_fixed))
        want_sum = expected_fixed * (-1 if n % 2 == 0 else 1)  # weight (-1)^(n+1)
        if rep.fixed_signed_sum != want_sum:
            bad.append(Failure.of(n, rep.fixed_signed_sum, want_sum))
    violations = (len(rep.closure_violations) + len(rep.involutivity_violations)
                  + len(rep.sign_violations))
    if violations:
        bad.append(Failure.of(n, violations, 0))
    return bad


def _run_involution(ident: str, rng: tuple[int, int], jobs: int) -> Report:
    if ident not in _INVOLUTION_DEFAULTS:
        raise UnknownIdentityError(ident)
    for n in range(rng[0], rng[1] + 1):  # refuse the range before enumerating
        inv.WordModel(ident, n).check_size()
    t0 = time.perf_counter()
    results = _pmap(_involution_task,
                    [(ident, n) for n in range(rng[0], rng[1] + 1)], jobs)
    failures: list[Failure] = []
    errata: list[str] = []
    for n, rep in sorted(results, key=lambda r: r[0]):
        failures.extend(_involution_expectations(ident, n, rep))
        if not rep.clean:
            sample = ""
            if rep.closure_violations:
                w, img = rep.closure_violations[0]
                sample = f", e.g. {w or '<empty>'} -> {img}"
            errata.append(
                f"{ident} n={n}: {len(rep.closure_violations)} closure, "
                f"{len(rep.involutivity_violations)} involutivity, "
                f"{len(rep.sign_violations)} sign violations{sample}")
    ms = (time.perf_counter() - t0) * 1000
    return Report(
        command="involution", subject_id=ident, mode="corrected", range=rng,
        status="pass" if not failures else "fail",
        failures=failures, errata=errata, ms=ms)


# ---------------------------------------------------------------------------
# lemmas


def _lemma_sides(reg: Registry, name: str, lo: int, hi: int
                 ) -> list[tuple[Fraction, Fraction]]:
    """(lhs, rhs) of lemma ``name`` at n = lo..hi."""
    ns = range(lo, hi + 1)
    if name == "boundary_flat":
        return [(boundary_flat_sum(n), boundary_flat_rhs(n)) for n in ns]
    if name == "boundary_stepped":
        return [(boundary_stepped_sum(n), boundary_stepped_rhs(n)) for n in ns]
    if name == "sum_difference":
        case = reg.case("thm3_eq6")
        if lo < case.valid_from:
            raise UsageError(
                f"range starts below validFrom={case.valid_from} of {case.case_id}")
        s = values(case, lo, hi + 1)
        return [(s[i + 1] - s[i], Fraction(2 * (n + 1))) for i, n in enumerate(ns)]
    return [(boundary_gap(n), Fraction(2 * (n + 1) - 3 * 4**n)) for n in ns]


def _run_lemmas(reg: Registry, rng: tuple[int, int] | None) -> list[Report]:
    out = []
    for name in LEMMA_IDS:
        dft = _declared_range(reg, "lemma", name) or (1, 100)
        lo, hi = rng if rng is not None else dft
        t0 = time.perf_counter()
        failures = [Failure.of(n, lhs, rhs) for n, (lhs, rhs)
                    in enumerate(_lemma_sides(reg, name, lo, hi), lo) if lhs != rhs]
        ms = (time.perf_counter() - t0) * 1000
        out.append(Report(
            command="lemmas", subject_id=name, mode="corrected", range=(lo, hi),
            status="pass" if not failures else "fail", failures=failures, ms=ms))
    return out


# ---------------------------------------------------------------------------
# discover


def _run_discover(reg: Registry, ident: str, mode: str, order: int,
                  seed: int) -> Report:
    base = reg.problem(ident, mode)
    t0 = time.perf_counter()
    found = wzengine.discover_certificate(
        base.term, base.shift_var, base.sum_var, order,
        problem_id=f"{base.problem_id}_order{order}")
    errata: list[str] = []
    failures: list[Failure] = []
    if found is None:
        status = "fail"
        errata.append(f"no order-{order} certificate exists for {base.problem_id}")
    else:
        status = "pass"
        if rf_equal(found.certificate, base.certificate):
            errata.append("discovered certificate matches the registry certificate")
        else:
            errata.append(
                f"discovered certificate {found.certificate} differs from the "
                f"registry certificate {base.certificate}")
    ms = (time.perf_counter() - t0) * 1000
    return Report(
        command="discover", subject_id=base.problem_id,
        mode=VARIANT_MODE.get(base.problem_id, mode), range=(order, order),
        status=status, failures=failures, errata=errata, ms=ms)


# ---------------------------------------------------------------------------
# the full suite


def _meta(command: str, subject: str, rng: tuple[int, int], ok: bool,
          failures: list[Failure] | None = None, errata: list[str] | None = None,
          ms: float = 0.0) -> Report:
    return Report(command=command, subject_id=subject, mode="corrected",
                  range=rng, status="pass" if ok else "fail",
                  failures=failures or [], errata=errata or [], ms=ms)


def _run_all(reg: Registry, seed: int, jobs: int) -> list[Report]:
    reports: list[Report] = []

    # oracles expected to pass
    for ident, dflt in (("thm1", (0, 300)), ("thm2", (-1, 300)),
                        ("thm3_eq6", (1, 300)), ("cor1", (0, 200)),
                        ("cor2", (0, 100)), ("cor3", (0, 100)),
                        ("cor4", (0, 100)), ("cor5", (0, 100)),
                        ("boundary_flat_case", (1, 200))):
        rng = _declared_range(reg, "oracle", ident) or dflt
        reports.append(_run_oracle(reg, ident, "corrected", rng, jobs))

    # the literal thm3 form must fail at exactly the even n
    t0 = time.perf_counter()
    rng = _declared_range(reg, "oracle", "thm3_printed") or (1, 100)
    case = reg.case("thm3_printed")
    fails = check_identity(case, *rng)
    expected = {n for n in range(rng[0], rng[1] + 1) if n % 2 == 0}
    ok = ({n for n, _, _ in fails} == expected
          and all(lhs == (-1) ** (n + 1) * n * (n + 1) for n, lhs, _ in fails))
    reports.append(_meta(
        "all", "thm3_printed_fails_at_even_n", rng, ok,
        errata=list(case.errata), ms=(time.perf_counter() - t0) * 1000))

    # derivation recipes
    t0 = time.perf_counter()
    deriv = corollary_derivations(reg=reg)
    bad = [Failure(n, "1", "0") for ns in deriv.values() for n in ns]
    reports.append(_meta("all", "corollary_derivations", (0, 40), not bad,
                         failures=bad, ms=(time.perf_counter() - t0) * 1000))

    # lemmas
    reports.extend(_run_lemmas(reg, None))

    # certificates expected to verify
    for ident in ("wz_thm2", "wz_thm1_corrected", "wz_thm3"):
        rng = _declared_range(reg, "verify", ident) or (0, 60)
        reports.append(_run_verify(reg, ident, "corrected", rng, seed, jobs))

    # the literal thm1 pair must fail with a nonzero residual
    t0 = time.perf_counter()
    lit = reg.problem("thm1", "literal")
    cert = wzengine.verify_certificate(lit)
    ok = not cert.status and not cert.residual.is_zero()
    reports.append(_meta("all", "wz_thm1_literal_fails", (0, 0), ok,
                         errata=list(lit.errata),
                         ms=(time.perf_counter() - t0) * 1000))

    # discovery
    t0 = time.perf_counter()
    okd, errd = [], []
    corrected = reg.problem("thm1", "corrected")
    d1 = wzengine.discover_certificate(corrected.term, corrected.shift_var,
                                       corrected.sum_var, 1)
    okd.append(d1 is not None and rf_equal(d1.certificate, corrected.certificate)
               and [rf_equal(c, e) for c, e in zip(d1.coeffs, corrected.coeffs)]
               == [True, True])
    if not okd[-1]:
        errd.append("order-1 discovery on thm1 did not match the corrected certificate")
    thm2 = reg.problem("thm2", "corrected")
    d2 = wzengine.discover_certificate(thm2.term, thm2.shift_var, thm2.sum_var, 1)
    okd.append(d2 is not None and rf_equal(d2.certificate, thm2.certificate))
    if not okd[-1]:
        errd.append("order-1 discovery on thm2 did not recover the stated certificate")
    d0 = wzengine.discover_certificate(corrected.term, corrected.shift_var,
                                       corrected.sum_var, 0)
    okd.append(d0 is None)
    if not okd[-1]:
        errd.append("order-0 discovery on thm1 should be no-solution")
    reports.append(_meta("all", "discovery", (0, 1), all(okd), errata=errd,
                         ms=(time.perf_counter() - t0) * 1000))

    # involutions
    for ident in ("thm1", "thm2", "thm3"):
        rng = (_declared_range(reg, "involution", ident)
               or _INVOLUTION_DEFAULTS[ident])
        reports.append(_run_involution(ident, rng, jobs))

    return reports


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wzkit",
        description="Exact verification toolkit for binomial-sum identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_id: bool = True):
        if with_id:
            p.add_argument("--id", required=True, help="registry identifier")
        p.add_argument("--mode", choices=("literal", "corrected"),
                       default="corrected")
        p.add_argument("--n-min", type=int, default=None)
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--spec", default=None, help="overlay DSL spec file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("oracle", help="range-check an identity"))
    common(sub.add_parser("verify", help="verify a WZ certificate and proof"))
    common(sub.add_parser("involution", help="check a word model"))
    d = sub.add_parser("discover", help="order-J certificate discovery")
    common(d)
    d.add_argument("--order", type=int, default=1)
    common(sub.add_parser("lemmas", help="boundary lemmas and the gap"),
           with_id=False)
    common(sub.add_parser("all", help="full acceptance suite"), with_id=False)
    return parser


def run_command(argv: list[str]) -> tuple[int, list[Report]]:
    """Parse argv, run, and return (exit code, reports)."""
    return _run_parsed(build_parser().parse_args(argv))


def _run_parsed(args: argparse.Namespace) -> tuple[int, list[Report]]:
    try:
        jobs = _effective_jobs(args.jobs)
        if jobs < args.jobs:
            print(f"wzkit: note: --jobs {args.jobs} lowered to the {jobs} "
                  "available CPUs", file=sys.stderr)
        reg = _runtime_registry(args.spec)
        if args.command == "oracle":
            case = reg.case(args.id, args.mode)
            dflt = (_declared_range(reg, "oracle", case.case_id)
                    or (case.valid_from, case.valid_from + 100))
            rng = _pick_range(args, dflt)
            if rng[0] < case.valid_from:
                raise UsageError(
                    f"range starts below validFrom={case.valid_from} of {case.case_id}")
            reports = [_run_oracle(reg, args.id, args.mode, rng, jobs)]
        elif args.command == "verify":
            problem = reg.problem(args.id, args.mode)
            dflt = _declared_range(reg, "verify", problem.problem_id) or (0, 60)
            rng = _pick_range(args, dflt)
            reports = [_run_verify(reg, args.id, args.mode, rng, args.seed,
                                   jobs)]
        elif args.command == "involution":
            rng = _pick_range(args, _INVOLUTION_DEFAULTS.get(args.id, (0, 5)))
            reports = [_run_involution(args.id, rng, jobs)]
        elif args.command == "discover":
            reports = [_run_discover(reg, args.id, args.mode, args.order,
                                     args.seed)]
        elif args.command == "lemmas":
            rng = None
            if args.n_min is not None or args.n_max is not None:
                rng = _pick_range(args, (1, 100))
            reports = _run_lemmas(reg, rng)
        else:
            reports = _run_all(reg, args.seed, jobs)
    except (UnknownIdentityError, UsageError) as exc:
        print(f"wzkit: error: {exc}", file=sys.stderr)
        return 2, []
    except (ParseError, OSError) as exc:
        print(f"wzkit: spec error: {exc}", file=sys.stderr)
        return 2, []
    except inv.SizeLimitError as exc:
        print(f"wzkit: error: {exc}", file=sys.stderr)
        return 2, []
    return exit_code(reports), reports


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    code, reports = _run_parsed(args)
    if reports:
        print(render(reports, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
