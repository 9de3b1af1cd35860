"""Print every metric of every workload, untraced and traced, in one table.

Usage (from the repository root, takes about five minutes):

    python3 perfbench/summary.py

For each workload it runs ``run.py`` with ``--trace 0`` and ``--trace 1``
(seed 1, ``run_seconds`` from ``BENCHMARK.json``) and prints every
``metric`` line the runs print, with its unit: the
end-to-end metrics, ``slowest_check_s`` and ``failed_share``, then the
per-layer metrics side by side.  It exits 1 if any check failed or if
some wzkit module recorded no span on any workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def _run(workload: str, seconds: float, trace: int) -> dict[str, tuple]:
    """The ``metric NAME VALUE UNIT`` lines of one run, by name."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed: {proc.stderr.strip()}")
    rows = [line.split()[1:] for line in proc.stdout.splitlines()
            if line.startswith("metric ")]
    return {name: (float(value), unit) for name, value, unit in rows}


def _table(title: str, runs: dict[str, dict[str, tuple]]) -> None:
    names = list(runs)
    print(f"{title:36}" + "".join(f"{w:>14}" for w in names) + "  unit")
    for key, (_, unit) in runs[names[0]].items():
        print(f"{key:36}" + "".join(f"{runs[w][key][0]:14.4f}" for w in names)
              + f"  {unit}")
    print()


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    plain = {w: _run(w, seconds, 0) for w in WORKLOADS}
    traced = {w: _run(w, seconds, 1) for w in WORKLOADS}
    _table("end to end (median over passes)", plain)
    _table("per layer (traced pass)", traced)

    idle = [mod for mod in MODULES if not any(
        value > 0 for run in traced.values() for k, (value, _) in run.items()
        if k.startswith(mod + "."))]
    failed = [w for runs in (plain, traced) for w, run in runs.items()
              if run["failed_share"][0] > 0]
    if idle:
        print(f"no span recorded in module(s) {', '.join(idle)} on any workload")
    if failed:
        print(f"checks failed on {', '.join(failed)}")
    return 1 if idle or failed else 0


if __name__ == "__main__":
    sys.exit(main())
