"""One pass of a workload in a fresh interpreter; prints one JSON line.

A fresh interpreter per pass keeps ``registry()`` and the ``lru_cache``
on the thm3_eq6 values cold, as they are for a user.  Set-up (importing
wzkit and parsing the bundled ``.wz`` files) is timed apart from the
checks.  ``--setup-only`` stops after set-up.  Every check's report and
its exact counters (involution counts per n, mutants killed) are
compared with the pins; ``--trace`` adds the per-layer spans.  Forked
pool workers hand their counters back through the ``--spool`` directory.

Usage: python3 perfbench/one_pass.py --workload NAME --seed N
       (--spool DIR [--trace] | --setup-only)
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _plain(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def _layer_metrics(tr, wall: float, cpu: float, worker_cpu: float) -> dict[str, float]:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    c = tr.counts.get
    return {
        "identities.check_identity.s": tr.busy("identities.check_identity"),
        "identities.eval_sum.calls": tr.calls("identities.eval_sum"),
        "identities.eval_sum.s": tr.busy("identities.eval_sum"),
        "identities.terms_per_s": ratio(c("identities.terms", 0),
                                        tr.busy("identities.eval_sum")),
        "identities.lemmas.s": tr.busy("identities.lemmas"),
        "identities.derivations.s": tr.busy("identities.derivations"),
        "exactnum.binomial.calls": tr.calls("exactnum.binomial"),
        "exactnum.binomial.s": tr.busy("exactnum.binomial"),
        "hyperterm.eval.calls": tr.calls("hyperterm.eval"),
        "hyperterm.shift_quotient.calls": tr.calls("hyperterm.shift_quotient"),
        "hyperterm.shift_quotient.s": tr.busy("hyperterm.shift_quotient"),
        "symalg.reduced.calls": tr.calls("symalg.reduced"),
        "symalg.reduced.s": tr.busy("symalg.reduced"),
        "symalg.cert_terms": c("symalg.cert_terms", 0),
        "gosper.gosper_normal.s": tr.busy("gosper.gosper_normal"),
        "gosper.nullspace.s": tr.busy("gosper.nullspace"),
        "wzengine.verify_certificate.calls": tr.calls("wzengine.verify_certificate"),
        "wzengine.verify_certificate.s": tr.busy("wzengine.verify_certificate"),
        "wzengine.prove_constant_sum.s": tr.busy("wzengine.prove_constant_sum"),
        "wzengine.telescope.s": tr.busy("wzengine.telescope"),
        "wzengine.mutation_check.s": tr.busy("wzengine.mutation_check"),
        "wzengine.mutants_killed": c("wzengine.mutants_killed", 0),
        "wzengine.discover_certificate.s": tr.busy("wzengine.discover_certificate"),
        "involution.words": c("involution.words", 0),
        "involution.words_per_s": ratio(c("involution.words", 0),
                                        tr.busy("involution.check_involution")),
        "involution.enum_words.s": tr.busy("involution.enum_words"),
        "involution.contains.calls": tr.calls("involution.contains"),
        "involution.contains.s": tr.busy("involution.contains"),
        "involution.map.s": tr.busy("involution.map"),
        "involution.fixed": c("involution.fixed", 0),
        "involution.violations.closure": c("involution.violations.closure", 0),
        "involution.violations.involutivity":
            c("involution.violations.involutivity", 0),
        "involution.violations.sign": c("involution.violations.sign", 0),
        "dsl.parse_document.s": tr.busy("dsl.parse_document"),
        "reports.render.s": tr.busy("reports.render"),
        "cli.self_s": tr.self_time("cli.run_command"),
        "cli.jobs.parallelism": ratio(cpu, wall),
        "cli.jobs.worker_cpu_s": worker_cpu,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spool", type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.spool is None and not args.setup_only:
        ap.error("--spool is required unless --setup-only")
    sys.path.insert(0, str(ROOT / "src"))

    import tracer as tracing
    t0 = time.perf_counter()
    import wzkit.cli  # noqa: F401  (what the wzkit console script imports)
    from wzkit import identities
    if args.trace:  # before registry(), so that parsing gets its span
        tracer = tracing.Tracer(args.spool)
        missing = tracing.install(tracer, spans=True)
    identities.registry()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:
        tracer = tracing.Tracer(args.spool)
        tracing.install(tracer, spans=False)

    from workloads import WORKLOADS, run_check
    workload = WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    results = []
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    for check in workload.checks:
        tracer.records.clear()
        why = ""
        try:
            outcome, seconds = run_check(check, args.seed,
                                         tracer if args.trace else None)
        except Exception as exc:  # a check that raises is a failed check
            outcome, seconds, why = None, 0.0, f"raised {exc!r}"
        if not why and _plain(outcome) != expected["checks"][check.label]:
            why = "report differs from the pinned report"
        tracer.merge_spool()
        if not why and _plain(sorted(tracer.records)) != expected["records"][check.label]:
            why = "counters differ from the pinned counters"
        results.append({"label": check.label, "seconds": seconds, "ok": not why,
                        "why": why})
    wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0)
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "checks": results,
    }
    if args.trace:
        out["layers"] = _layer_metrics(tracer, wall, cpu, _cpu(kids1) - _cpu(kids0))
        out["spans"] = tracer.table()
        out["missing_targets"] = missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
