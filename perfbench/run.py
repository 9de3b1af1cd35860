"""wzkit benchmark: run one workload, check every verdict, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed pass is a fresh interpreter (``one_pass.py``).  With
``--trace 0`` the run repeats passes while the next one still fits in
``--seconds`` (at least the workload's ``min_passes``) and reports the
end-to-end metrics as medians over passes; set-up is measured in
separate fresh interpreters as well, half of them before the passes and
half after.  With ``--trace 1`` it makes one
untraced and one traced pass and reports the per-layer metrics of the
traced one, plus the tracing overhead (traced wall minus untraced wall).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give every metric with its unit, the machine, and two metrics that
``BENCHMARK.json`` does not gate: ``failed_share`` and, untraced,
``slowest_check_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, covered_reports  # noqa: E402

SETUP_PROBES = 10
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units as ``BENCHMARK.json`` declares them, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _pass(workload: str, seed: int, spool: Path, deadline: float, *extra: str) -> dict:
    """One fresh interpreter running ``one_pass.py``; its JSON result."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--spool", str(spool), *extra]
    # byte code is cached as for an installed package, so set-up measures
    # imports and parsing rather than compiling the sources every time
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    # own session, so that a timeout also ends the pass's pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"pass {' '.join(cmd[2:])} exceeded the run's deadline")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"pass failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _environment(workload) -> dict:
    src = ROOT / "src"
    lines, digest = 0, hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
            if path.suffix == ".py":
                lines += data.count(b"\n")
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "jobs": workload.jobs,
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args) -> dict:
    if not (ROOT / "src" / "wzkit" / "__init__.py").is_file():
        raise BenchError(f"no wzkit sources under {ROOT / 'src'}")
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    uncovered = {tuple(i) for i in expected["all_reports"]} - covered_reports()
    if uncovered:
        raise BenchError(f"workloads no longer cover `wzkit all` reports {sorted(uncovered)}")
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    # where forked pool workers leave their counters; removed even when a
    # pass is killed at the deadline
    spool = Path(tempfile.mkdtemp(prefix=".spool-", dir=HERE))
    try:
        return _measure(args, workload, spool, deadline)
    finally:
        shutil.rmtree(spool, ignore_errors=True)


def _measure(args, workload, spool: Path, deadline: float) -> dict:
    def one(*extra: str) -> dict:
        return _pass(args.workload, args.seed, spool, deadline, *extra)

    def setup_probes(count: int) -> list[float]:
        return [one("--setup-only")["setup_s"] for _ in range(count)]

    units = _declared_units(bool(args.trace))
    info: dict[str, tuple[float, str]] = {}  # printed, not part of the result
    if not args.trace:
        one("--setup-only")  # warm-up: byte-code caches, page cache
        # probes on both sides of the passes, so that a drift of the host's
        # speed during the passes moves them less
        setups = setup_probes(SETUP_PROBES // 2)
        passes, began = [], time.monotonic()
        while True:
            passes.append(one())
            used = time.monotonic() - began
            if len(passes) >= workload.min_passes and used + used / len(passes) > args.seconds:
                break
        setups += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
        setups += [p["setup_s"] for p in passes]

        def med(key: str) -> float:
            return statistics.median(p[key] for p in passes)

        metrics = {
            "wall_s": med("wall_s"),
            "setup_s": statistics.median(setups),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
        }
        # one check of 10-15 s follows the host's speed drift too closely
        # to be gated, so it is printed like failed_share but not declared
        info["slowest_check_s"] = (statistics.median(
            max(c["seconds"] for c in p["checks"]) for p in passes), "s")
    else:
        plain, traced = one(), one("--trace")
        passes = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    if set(metrics) != set(units):
        raise BenchError(f"measured metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c["ok"]]
    info["failed_share"] = (len(failed) / len(checks), "share")

    print(f"workload {workload.name} seed {args.seed}: {len(passes)} pass(es), "
          f"{len(checks)} checks, {len(failed)} failed")
    print(f"env {json.dumps(_environment(workload))}")
    for c in failed:
        print(f"FAILED {c['label']}: {c['why']}")
    for p in passes:
        print("pass " + " ".join(f"{k}={p[k]:.4f}" for k in ("setup_s", "wall_s", "cpu_s")))
    if args.trace:
        if traced["missing_targets"]:
            print(f"not instrumented: {', '.join(traced['missing_targets'])}")
        for name, calls, busy, self_s in traced["spans"]:
            print(f"span {name:34} calls={calls:<10} busy={busy:.4f} s self={self_s:.4f} s")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]} {unit}")
    for name, (value, unit) in info.items():
        print(f"metric {name} {value} {unit}")
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
