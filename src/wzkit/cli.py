"""Command-line interface.

Subcommands, each with the options it reads:

* ``oracle``      -- exact range check of a registry identity.
                     ``--id --mode --n-min --n-max --spec --format --jobs``
* ``verify``      -- certificate check plus the full proof pipeline:
                     on a failed certificate the search for a pointwise
                     witness, on only the first ``WITNESS_WINDOW`` (9)
                     n of the range; on a verified one the boundaries,
                     the base case and the summed recurrence on the
                     whole range, the prefix check on only its first
                     ``TELESCOPE_WINDOW`` (31) n, and seeded mutation
                     sensitivity: one exact evaluation refutes a mutant,
                     and the symbolic decider runs only for a mutant
                     that point does not refute.  The windows are
                     ``wzengine``'s; the report states the whole range.
                     ``--id --mode --n-min --n-max --spec --format --seed``
* ``involution``  -- exhaustive word-model checks, violations reported
                     verbatim.
                     ``--id --n-min --n-max --spec --format --jobs``
* ``discover``    -- order-J certificate discovery via parameterized
                     Gosper.  ``--id --mode --order --spec --format``
* ``lemmas``      -- the boundary lemmas, the sum difference, and the
                     documented telescoping gap.
                     ``--n-min --n-max --spec --format``
* ``all``         -- every ``check`` line of the registry, in
                     declaration order grouped by kind, plus the
                     corollary derivations and certificate discovery; a
                     target aliased only in literal mode must fail the
                     way its erratum says; a bad line exits 2 before any
                     check runs.  ``--spec --format --jobs --seed``

An option a subcommand does not read is a usage error.  Exit codes: 0
all pass, 1 a mathematical failure was found, 2 usage or parse errors,
or an argument outside what the engine supports (a parameter below an
identity's ``valid_from``, a negative binomial top in a ``--spec`` sum,
a range that meets a pole of the term or a coefficient, a term with
no finite upper support where a recurrence sum needs one, an
``--order`` outside [0, 1], a ``discover`` term whose prefactor
denominator in k is not one affine form times a factor free of k, a
range past its bound).  Each kind of
check has one bound, which a range from ``--n-min``/``--n-max`` and one
from a ``check`` line meet alike: |n| <= 1000 for ``oracle`` and
``lemmas`` and |n| <= 2000 for ``verify`` (``MAX_N``); an
``involution`` range ends at the word caps ``involution.MAX_COST`` and
``MAX_THM3_N``.  A ``--spec`` file is refused while parsing, with exit
2, when a term's pow exponent or binomial top or bottom, or a sum call's
lower or upper bound, has a coefficient above 64 (``dsl.MAX_EXPONENT``)
or a constant above 100,000 (``dsl.MAX_CONSTANT``) in absolute value.
``--format json`` emits an array of report objects that validate
against the bundled schema; the text format renders the same facts.  A
command's default range is the ``check`` line declared for its target.
Each ``--spec`` (repeatable) appends one more document to the bundled
ones, in the order given; a later document replaces an earlier
definition of the same name.  ``--jobs``
spreads the involution checks of ``involution`` and ``all`` over a pool
of spawned worker processes, one task per stratum of each n: n from the
largest down, and within each n the strata, largest first; oracles run
in one process.  A value below 1 is a usage error, and one above the
CPUs this process may run on is lowered to that count (with a note on
stderr), or to 1 when the main module is no file the workers could
import.  A range with a single stratum in all opens no pool.  A pool
whose workers die (as they do when a script without a main guard calls
wzkit) is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import lru_cache

from . import involution as inv
from . import wzengine
from .dsl import ParseError, parse_document
from .exactnum import UnsupportedArgumentError
from .identities import (DERIVATION_LIMIT, LEMMAS, IdentityCase, RangeError,
                         Registry, UnknownIdentityError, build_registry,
                         check_identity, corollary_derivations, registry)
from .reports import Failure, Report, exit_code, frac_str, render
from .symalg import PoleError, rf_equal


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# registry plumbing


def _runtime_registry(*spec_paths: str) -> Registry:
    """The bundled registry with each ``--spec`` file folded in, in order."""
    reg = registry()
    if not spec_paths:
        return reg
    docs = []
    for path in spec_paths:
        with open(path, encoding="utf-8") as fh:
            docs.append((path, parse_document(fh.read())))
    return build_registry(reg.documents + tuple(docs))


def _check_range(reg: Registry, kind: str, target: str) -> tuple[int, int]:
    """The range of ``target``'s check line, else the command's default."""
    check = reg.checks.get((kind, target))
    if check is not None and check.range is not None:
        return check.range
    if kind == "oracle":
        lo = reg.cases[target].valid_from
        return lo, lo + 100
    return {"verify": (0, 60), "involution": (0, 5), "lemma": (1, 100)}[kind]


def _meta(command: str, subject: str, rng: tuple[int, int], ok: bool,
          failures: list[Failure] | None = None, errata: list[str] | None = None,
          ms: float = 0.0) -> Report:
    return Report(command=command, subject_id=subject, mode="corrected",
                  range=rng, status="pass" if ok else "fail",
                  failures=failures or [], errata=errata or [], ms=ms)


def _pick_range(args, reg: Registry, kind: str, target: str) -> tuple[int, int]:
    """``--n-min``/``--n-max`` over the check line's range, refused past its bound."""
    default = _check_range(reg, kind, target)
    lo = args.n_min if args.n_min is not None else default[0]
    hi = args.n_max if args.n_max is not None else default[1]
    if hi < lo:
        raise UsageError(f"malformed range [{lo}, {hi}]")
    _check_bound(kind, target, (lo, hi))
    return lo, hi


#: largest |n| in a range, by check kind, so that one check ends well inside
#: a minute.  Single process on a 2-vCPU host with Python 3.11.7: the
#: slowest bundled oracle, cor5 on [0, 1000], took 15.1 s (thm3_eq6 5.2 s);
#: lemmas on [1, 1000] 10.2 s and on [1, 1500] 26.1 s; verify on thm2's
#: [-1, 2000] 21.9 s and on [-1, 1200] 4.3 s.  An involution range is
#: bounded instead by the word caps ``involution.MAX_COST`` and
#: ``MAX_THM3_N``, one n at a time.
MAX_N = {"oracle": 1000, "lemma": 1000, "verify": 2000}


def _check_bound(kind: str, target: str, rng: tuple[int, int]) -> None:
    """Refuse a range past its kind's bound before it is checked.

    An involution range is refused at its first n with too many words,
    as is an unknown model.
    """
    lo, hi = rng
    if kind == "involution":
        if target not in inv.MODELS:
            raise UnknownIdentityError(target)
        for n in range(lo, hi + 1):
            inv.WordModel(target, n).check_size()
    elif max(abs(lo), abs(hi)) > MAX_N[kind]:
        raise UsageError(f"{kind} range [{lo}, {hi}] is past the bound "
                         f"|n| <= {MAX_N[kind]}")


def _effective_jobs(jobs: int, cpus: int | None = None) -> int:
    """``--jobs`` checked and lowered, with a note on stderr, to what can run.

    That is the CPUs this process may run on, or 1 when the main module's
    ``__file__`` names no file (a script fed on standard input has
    ``<stdin>``): spawned workers re-import the main module from that path.
    """
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    if cpus is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            cpus = os.cpu_count() or 1
    limit, why = cpus, f"the {cpus} available CPUs"
    main_file = getattr(sys.modules["__main__"], "__file__", None)
    if main_file is not None and not os.path.isfile(main_file):
        limit, why = 1, f"1: worker processes cannot import the main module {main_file!r}"
    if jobs > limit:
        print(f"wzkit: note: --jobs {jobs} lowered to {why}", file=sys.stderr)
    return min(jobs, limit)


# ---------------------------------------------------------------------------
# oracle


def _run_oracle(reg: Registry, case: IdentityCase, mode: str,
                rng: tuple[int, int]) -> Report:
    t0 = time.perf_counter()
    failures = [Failure.of(n, l, r) for n, l, r in check_identity(case, *rng)]
    ms = (time.perf_counter() - t0) * 1000
    return Report(
        command="oracle", subject_id=case.case_id,
        mode=reg.mode_of("sum", case.case_id, mode), range=rng,
        status="pass" if not failures else "fail",
        failures=failures, errata=list(case.errata), ms=ms)


# ---------------------------------------------------------------------------
# verify


def _run_verify(reg: Registry, problem: wzengine.WZProblem, mode: str,
                rng: tuple[int, int], seed: int) -> Report:
    t0 = time.perf_counter()
    proof = wzengine.prove_constant_sum(problem, rng, seed)
    ms = (time.perf_counter() - t0) * 1000
    failures: list[Failure] = []
    errata = list(proof.errata)
    if proof.witness is not None:
        n, k, lhs, rhs = proof.witness
        failures.append(Failure.of(n, lhs, rhs))
        errata.append(
            f"pointwise witness at {problem.shift_var}={n}, "
            f"{problem.sum_var}={k}: recurrence side {frac_str(lhs)} vs "
            f"telescoped side {frac_str(rhs)}")
    elif not proof.cert.status:
        failures.append(Failure(rng[0], "1", "0"))
    else:
        if proof.base_ok is False:
            failures.append(Failure.of(problem.base_case[0],
                                       proof.base_actual, problem.base_case[1]))
        failures += [Failure.of(n, value, 0) for n, value in proof.summed]
        if proof.failed_stage:
            errata.append(f"proof stage failed: {proof.failed_stage}")
        failures += [Failure.of(*bad) for bad in proof.telescope]
        for i in proof.survivors:
            failures.append(Failure(i, "1", "0"))
            errata.append(f"mutation #{i} unexpectedly still verifies")
    return Report(
        command="verify", subject_id=problem.problem_id,
        mode=reg.mode_of("recurrence", problem.problem_id, mode), range=rng,
        status="pass" if not failures else "fail",
        failures=failures, errata=errata, ms=ms)


# ---------------------------------------------------------------------------
# involution


def _run_involution(ident: str, rng: tuple[int, int], jobs: int) -> Report:
    """The word-model checks of ``ident`` on ``rng``, which ``_check_bound`` accepted."""
    t0 = time.perf_counter()
    # largest n first, whose strata are the biggest
    models = [inv.WordModel(ident, n) for n in range(rng[1], rng[0] - 1, -1)]
    tasks = sum(len(model.strata()) for model in models)
    if jobs > 1 and tasks > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # spawned, not forked: a worker starts from a fresh interpreter and
        # is a direct child, reaped when the pool shuts down
        try:
            with ProcessPoolExecutor(min(jobs, tasks),
                                     mp_context=multiprocessing.get_context("spawn")) as pool:
                reps = [inv.check_involution(model, pool) for model in models]
        except BrokenProcessPool:
            raise UsageError(
                f"a worker process of --jobs {jobs} ended abruptly; each one re-runs the "
                "main module, so a script that runs wzkit with --jobs above 1 must call "
                "it under `if __name__ == \"__main__\":`") from None
    else:
        reps = [inv.check_involution(model) for model in models]
    failures: list[Failure] = []
    errata: list[str] = []
    for rep in reversed(reps):  # in n order
        failures += [Failure.of(*bad) for bad in inv.unmet_expectations(rep)]
        if not rep.clean:
            sample = ""
            if rep.closure_violations:
                w, img = rep.closure_violations[0]
                sample = f", e.g. {w or '<empty>'} -> {img}"
            errata.append(
                f"{ident} n={rep.n}: {len(rep.closure_violations)} closure, "
                f"{len(rep.involutivity_violations)} involutivity, "
                f"{len(rep.sign_violations)} sign violations{sample}")
    return _meta("involution", ident, rng, not failures, failures, errata,
                 (time.perf_counter() - t0) * 1000)


# ---------------------------------------------------------------------------
# lemmas


def _run_lemma(reg: Registry, name: str, rng: tuple[int, int]) -> Report:
    t0 = time.perf_counter()
    failures = [Failure.of(n, lhs, rhs) for n, (lhs, rhs)
                in enumerate(LEMMAS[name](reg, *rng), rng[0]) if lhs != rhs]
    return _meta("lemmas", name, rng, not failures, failures,
                 ms=(time.perf_counter() - t0) * 1000)


# ---------------------------------------------------------------------------
# discover


def _run_discover(reg: Registry, ident: str, mode: str, order: int) -> Report:
    if order < 0:
        raise UsageError(f"--order must be at least 0, got {order}")
    if order > 1:  # the bundled pairs are order 1; nothing above it finishes
        raise UsageError(f"--order must be at most 1, got {order}: discovery above "
                         "order 1 runs past 60 s on every bundled pair")
    base = reg.problem(ident, mode)
    t0 = time.perf_counter()
    found = wzengine.discover_certificate(
        base.term, base.shift_var, base.sum_var, order,
        problem_id=f"{base.problem_id}_order{order}")
    if found is None:
        erratum = f"no order-{order} certificate exists for {base.problem_id}"
    elif rf_equal(found.certificate, base.certificate):
        erratum = "discovered certificate matches the registry certificate"
    else:
        erratum = (f"discovered certificate {found.certificate} differs from the "
                   f"registry certificate {base.certificate}")
    ms = (time.perf_counter() - t0) * 1000
    return Report(
        command="discover", subject_id=base.problem_id,
        mode=reg.mode_of("recurrence", base.problem_id, mode), range=(order, order),
        status="fail" if found is None else "pass", failures=[], errata=[erratum],
        ms=ms)


# ---------------------------------------------------------------------------
# the full suite


def _sign_erratum(reg: Registry, name: str, rng: tuple[int, int]) -> Report:
    """A literal sum that is (-1)^(n+1) times its closed form fails at even n."""
    t0 = time.perf_counter()
    case = reg.cases[name]
    fails = check_identity(case, *rng)
    even = [n for n in range(rng[0], rng[1] + 1) if n % 2 == 0]
    ok = ([n for n, _, _ in fails] == even
          and all(lhs == -rhs for _, lhs, rhs in fails))
    return _meta("all", f"{name}_fails_at_even_n", rng, ok,
                 errata=list(case.errata), ms=(time.perf_counter() - t0) * 1000)


def _literal_certificate(reg: Registry, name: str) -> Report:
    """A literal WZ pair must fail its symbolic check (a nonzero residual)."""
    t0 = time.perf_counter()
    problem = reg.problems[name]
    ok = not wzengine.verify_certificate(problem).status
    return _meta("all", f"{name}_fails", (0, 0), ok, errata=list(problem.errata),
                 ms=(time.perf_counter() - t0) * 1000)


def _run_all(reg: Registry, seed: int, jobs: int) -> list[Report]:
    def declared(kind: str, literal: bool = False) -> list[tuple[str, tuple[int, int]]]:
        """(target, range) of the check lines of ``kind``, literal-only or not."""
        defs = {"oracle": "sum", "verify": "recurrence"}.get(kind)
        return [(c.target, _check_range(reg, kind, c.target))
                for c in reg.checks.values() if c.kind == kind
                and literal == (defs is not None and
                                reg.mode_of(defs, c.target, "corrected") == "literal")]

    # every check line is resolved, and a bad one refused, before any check runs
    oracles, lemmas, verifies, involutions = map(
        declared, ("oracle", "lemma", "verify", "involution"))
    for c in reg.checks.values():
        _check_bound(c.kind, c.target, _check_range(reg, c.kind, c.target))
    for t, _ in verifies:
        wzengine.check_problem(reg.problems[t])

    reports = [_run_oracle(reg, reg.cases[t], "corrected", rng) for t, rng in oracles]
    reports += [_sign_erratum(reg, t, rng) for t, rng in declared("oracle", True)]

    # derivation recipes
    t0 = time.perf_counter()
    deriv = corollary_derivations(reg=reg)
    bad = [Failure(n, "1", "0") for ns in deriv.values() for n in ns]
    reports.append(_meta("all", "corollary_derivations", (0, DERIVATION_LIMIT),
                         not bad, failures=bad, ms=(time.perf_counter() - t0) * 1000))

    reports += [_run_lemma(reg, t, rng) for t, rng in lemmas]
    reports += [_run_verify(reg, reg.problems[t], "corrected", rng, seed)
                for t, rng in verifies]
    reports += [_literal_certificate(reg, t) for t, _ in declared("verify", True)]

    # discovery: order 1 recovers the thm1 and thm2 certificates, order 0 none
    t0 = time.perf_counter()
    errd = []
    thm1, thm2 = reg.problem("thm1"), reg.problem("thm2")
    d1 = wzengine.discover_certificate(thm1.term, thm1.shift_var, thm1.sum_var, 1)
    if not (d1 is not None and rf_equal(d1.certificate, thm1.certificate)
            and [rf_equal(c, e) for c, e in zip(d1.coeffs, thm1.coeffs)] == [True, True]):
        errd.append("order-1 discovery on thm1 did not match the corrected certificate")
    d2 = wzengine.discover_certificate(thm2.term, thm2.shift_var, thm2.sum_var, 1)
    if not (d2 is not None and rf_equal(d2.certificate, thm2.certificate)):
        errd.append("order-1 discovery on thm2 did not recover the stated certificate")
    d0 = wzengine.discover_certificate(thm1.term, thm1.shift_var, thm1.sum_var, 0)
    if d0 is not None:
        errd.append("order-0 discovery on thm1 should be no-solution")
    reports.append(_meta("all", "discovery", (0, 1), not errd, errata=errd,
                         ms=(time.perf_counter() - t0) * 1000))

    reports += [_run_involution(t, rng, jobs) for t, rng in involutions]
    return reports


# ---------------------------------------------------------------------------
# argument parsing and dispatch


#: each subcommand's help and the options it reads
_COMMANDS = {
    "oracle": ("range-check an identity",
               "--id --mode --n-min --n-max --spec --format --jobs"),
    "verify": ("verify a WZ certificate and proof",
               "--id --mode --n-min --n-max --spec --format --seed"),
    "involution": ("check a word model", "--id --n-min --n-max --spec --format --jobs"),
    "discover": ("order-J certificate discovery", "--id --mode --order --spec --format"),
    "lemmas": ("boundary lemmas and the gap", "--n-min --n-max --spec --format"),
    "all": ("full acceptance suite", "--spec --format --jobs --seed"),
}

_OPTIONS = {
    "--id": dict(required=True, help="registry identifier"),
    "--mode": dict(choices=("literal", "corrected"), default="corrected"),
    "--n-min": dict(type=int, default=None),
    "--n-max": dict(type=int, default=None),
    "--spec": dict(action="append", default=None,
                   help="overlay DSL spec file; repeatable, a later file wins"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--jobs": dict(type=int, default=1),
    "--seed": dict(type=int, default=0),
    "--order": dict(type=int, default=1),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wzkit",
        description="Exact verification toolkit for binomial-sum identities")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process; parsing does not change it."""
    return build_parser()


def run_command(argv: list[str]) -> tuple[int, list[Report]]:
    """Parse argv, run, and return (exit code, reports)."""
    return _run_parsed(_parser().parse_args(argv))


def _run_parsed(args: argparse.Namespace) -> tuple[int, list[Report]]:
    try:
        jobs = _effective_jobs(getattr(args, "jobs", 1))  # 1 without a --jobs option
        reg = _runtime_registry(*(args.spec or ()))
        if args.command == "oracle":
            case = reg.case(args.id, args.mode)
            rng = _pick_range(args, reg, "oracle", case.case_id)
            reports = [_run_oracle(reg, case, args.mode, rng)]
        elif args.command == "verify":
            problem = reg.problem(args.id, args.mode)
            rng = _pick_range(args, reg, "verify", problem.problem_id)
            reports = [_run_verify(reg, problem, args.mode, rng, args.seed)]
        elif args.command == "involution":
            rng = _pick_range(args, reg, "involution", args.id)
            reports = [_run_involution(args.id, rng, jobs)]
        elif args.command == "discover":
            reports = [_run_discover(reg, args.id, args.mode, args.order)]
        elif args.command == "lemmas":
            reports = [_run_lemma(reg, name, _pick_range(args, reg, "lemma", name))
                       for name in LEMMAS]
        else:
            reports = _run_all(reg, args.seed, jobs)
    except (UnknownIdentityError, UsageError, RangeError,
            UnsupportedArgumentError, PoleError, inv.SizeLimitError) as exc:
        print(f"wzkit: error: {exc}", file=sys.stderr)
        return 2, []
    except (ParseError, OSError) as exc:
        print(f"wzkit: spec error: {exc}", file=sys.stderr)
        return 2, []
    return exit_code(reports), reports


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    code, reports = _run_parsed(args)
    if reports:
        print(render(reports, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
