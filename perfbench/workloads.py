"""The benchmark's workloads: fixed lists of checks a user of wzkit runs.

Every range is the declared ``check`` range of the bundled ``.wz`` files,
so each CLI check is typed without ``--n-min``/``--n-max``.  ``covers``
names the ``(command, id)`` reports of ``wzkit all`` whose facts a check
reproduces; together the workloads must cover every report ``all``
emits (see ``expected.json``).  Why each workload exists is said in
``BENCHMARK.json`` and ``NOTES.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    label: str
    kind: str  # "cli" | "derivations" | "discover_raw"
    args: tuple = ()  # cli: argv ("{seed}" is replaced); discover_raw: (case id, order)
    covers: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    checks: tuple[Check, ...]
    min_passes: int = 1

    @property
    def jobs(self) -> int:
        """The ``--jobs`` its checks pass to wzkit (1 when they pass none)."""
        return max((int(c.args[i + 1]) for c in self.checks
                    for i, a in enumerate(c.args) if a == "--jobs"), default=1)


def _oracle(ident: str, *extra: str, covers: tuple = ()) -> Check:
    argv = ("oracle", "--id", ident, *extra)
    return Check(" ".join(argv), "cli", argv, covers or (("oracle", ident),))


_ORACLE_IDS = ("thm1", "thm2", "thm3_eq6", "cor1", "cor2", "cor3", "cor4", "cor5",
               "boundary_flat_case")
_LEMMAS = ("boundary_flat", "boundary_stepped", "sum_difference", "boundary_gap")

WORKLOADS = {w.name: w for w in (
    Workload(
        "oracle",
        (*[_oracle(i) for i in _ORACLE_IDS],
         _oracle("thm3", "--mode", "literal",
                 covers=(("all", "thm3_printed_fails_at_even_n"),)),
         Check("corollary_derivations", "derivations",
               covers=(("all", "corollary_derivations"),)),
         Check("lemmas", "cli", ("lemmas",), tuple(("lemmas", i) for i in _LEMMAS))),
    ),
    Workload(
        "words",
        tuple(Check(f"involution --id {m}", "cli", ("involution", "--id", m),
                    (("involution", m),)) for m in ("thm1", "thm2", "thm3")),
    ),
    Workload(
        "symbolic",
        (*[Check(f"verify --id {i}", "cli", ("verify", "--id", i, "--seed", "{seed}"),
                 (("verify", p),))
           for i, p in (("thm2", "wz_thm2"), ("thm1", "wz_thm1_corrected"),
                        ("thm3", "wz_thm3"))],
         Check("verify --id thm1 --mode literal", "cli",
               ("verify", "--id", "thm1", "--mode", "literal"),
               (("all", "wz_thm1_literal_fails"),)),
         *[Check(f"discover --id {i} --order {o}", "cli",
                 ("discover", "--id", i, "--order", str(o)), (("all", "discovery"),))
           for i, o in (("thm1", 1), ("thm2", 1), ("thm1", 0))],
         *[Check(f"discover_certificate {c} order 1", "discover_raw", (c, 1))
           for c in ("thm1", "thm2")]),
    ),
    Workload(
        "parallel",
        (_oracle("thm3_eq6", "--jobs", "2"),
         Check("involution --id thm2 --jobs 2", "cli",
               ("involution", "--id", "thm2", "--jobs", "2"), (("involution", "thm2"),))),
        # the pool's order of per-n tasks makes one pass of the involution
        # check take either about 10 s or about 13 s, so a run needs two
        min_passes=2,
    ),
)}


def covered_reports() -> set[tuple[str, str]]:
    return {tuple(c) for w in WORKLOADS.values() for ch in w.checks for c in ch.covers}


def run_check(check: Check, seed: int, tracer=None):
    """Run one check through wzkit's public entry points.

    Returns ``(outcome, seconds)``: the outcome is JSON-shaped and compared
    with the pinned one; the seconds are the user's wait for the verdict
    (for CLI checks, ``run_command`` plus rendering the JSON report).
    """
    import time

    from wzkit import cli, identities, reports, wzengine

    def span(name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, *args)

    t0 = time.perf_counter()
    if check.kind == "cli":
        argv = [a.replace("{seed}", str(seed)) for a in check.args] + ["--format", "json"]
        _code, reps = span("cli.run_command", cli.run_command, argv)
        text = span("reports.render", reports.render, reps, "json")
        seconds = time.perf_counter() - t0
        # the exit code is not judged: `wzkit all` exits 1 by design
        outcome = [{k: v for k, v in r.items() if k != "ms"} for r in json.loads(text)]
    elif check.kind == "derivations":
        outcome = span("identities.derivations", identities.corollary_derivations)
        seconds = time.perf_counter() - t0
    else:
        case_id, order = check.args
        case = identities.registry().case(case_id)
        found = wzengine.discover_certificate(case.summand, case.param,
                                              case.loops[0].var, order)
        seconds = time.perf_counter() - t0
        outcome = None if found is None else {
            "certificate": str(found.certificate),
            "coeffs": [str(c) for c in found.coeffs]}
    return outcome, seconds
