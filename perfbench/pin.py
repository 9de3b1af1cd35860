"""Write ``expected.json``: the pinned outcome of every check of every workload.

Run once on a commit whose output is known good; every benchmark pass
then compares against these pins.  For each check it stores the JSON
report without ``ms`` (or the returned value for the non-CLI checks) and
the exact counters every pass records (involution counts per n,
killed mutants).  It pins with seed 0: the pins must hold for every
seed, since each pass of each seed is compared with this one file.  It
also runs ``wzkit all`` and stores the (command, id) of each report,
after checking that every ``all`` report a workload reproduces is
identical to the workload's own report.

Usage: python3 perfbench/pin.py   (takes a few minutes)
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from wzkit import cli, reports

    import tracer as tracing
    from workloads import WORKLOADS, covered_reports, run_check

    spool = Path(tempfile.mkdtemp(prefix=".spool-", dir=HERE))
    try:
        tr = tracing.Tracer(spool)
        tracing.install(tr, spans=False)
        checks, records = {}, {}
        for workload in WORKLOADS.values():
            for check in workload.checks:
                tr.records.clear()
                outcome, seconds = run_check(check, SEED)
                tr.merge_spool()
                checks[check.label] = json.loads(json.dumps(outcome))
                records[check.label] = json.loads(json.dumps(sorted(tr.records)))
                print(f"{workload.name:9} {check.label:40} {seconds:8.2f} s",
                      file=sys.stderr)
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    _code, all_reports = cli.run_command(["all", "--seed", str(SEED)])
    all_json = json.loads(reports.render(all_reports, "json"))
    produced = {}
    for label, outcome in checks.items():
        if isinstance(outcome, list):
            for rep in outcome:
                produced[(rep["command"], rep["id"])] = rep
    bad = 0
    for rep in all_json:
        rep.pop("ms")
        mine = produced.get((rep["command"], rep["id"]))
        if mine is not None and mine != rep:
            print(f"`all` report {rep['command']} {rep['id']} differs from the "
                  "workload's report", file=sys.stderr)
            bad += 1
    all_ids = [[r["command"], r["id"]] for r in all_json]
    uncovered = {tuple(i) for i in all_ids} - covered_reports()
    if uncovered:
        print(f"workloads do not cover `all` reports {sorted(uncovered)}", file=sys.stderr)
        bad += 1
    if bad:
        return 1
    (HERE / "expected.json").write_text(json.dumps(
        {"all_reports": all_ids, "checks": checks, "records": records},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
