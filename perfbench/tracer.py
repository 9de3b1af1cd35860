"""In-memory spans around wzkit's public functions, installed from outside.

The traced pass replaces a public function with a wrapper wherever the
calling module looks the name up (a module attribute, or a method on its
class), so nothing under ``src/`` changes.  Spans are aggregated per
name as [calls, busy seconds, seconds covered by child spans]; a span
whose name is already open (recursion) counts the call but not the time
twice.  Counters (terms summed, words enumerated, violations by kind)
are recorded at the same boundaries.

Every pass, traced or not, wraps the two functions whose results are
checked against the pins: ``check_involution`` (the exact counts per n)
and ``mutation_check`` (the mutants killed).  Only the traced pass wraps
the other public functions with spans.

Pool workers are forked from the pass process and inherit the
wrappers.  After a fork the worker starts from empty stats, and each
time its outermost span closes it writes what it recorded to a spool
directory; the parent merges those files after each check.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

#: every wzkit module the spans must reach
MODULES = ("exactnum", "symalg", "hyperterm", "gosper", "wzengine",
           "identities", "involution", "dsl", "reports", "cli")

_CALLS, _BUSY, _CHILD, _OPEN = range(4)


class Tracer:
    def __init__(self, spool: Path):
        self.spool = spool
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.records: list = []  # exact per-call facts checked against pins
        self._stack: list[list[float]] = []
        self._in_child = False
        self._flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ----------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, False])

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result(result, args)`` after."""
        st = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if st[_OPEN]:
                st[_CALLS] += 1
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            st[_OPEN] = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[_OPEN] = False
                stack.pop()
                st[_CALLS] += 1
                st[_BUSY] += dt
                st[_CHILD] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(result, args)
            if not stack and self._in_child:
                self._flush()
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Generator ``fn`` whose time inside ``next()`` is span ``name``."""
        st = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            st[_CALLS] += 1
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    item = it = None
                dt = clock() - t0
                st[_BUSY] += dt
                if stack:
                    stack[-1][0] += dt
                if it is None:
                    return
                yield item

        return traced

    # -- forked workers -------------------------------------------------------

    def _after_fork(self) -> None:
        self._in_child = True
        self._stack.clear()
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, False]
        self.counts.clear()
        self.records.clear()

    def _flush(self) -> None:
        self._flushes += 1
        path = self.spool / f"{os.getpid()}-{self._flushes}.json"
        payload = {"stats": {k: v[:3] for k, v in self.stats.items() if v[_CALLS]},
                   "counts": self.counts, "records": self.records}
        path.write_text(json.dumps(payload), encoding="utf-8")
        self._after_fork()

    def merge_spool(self) -> None:
        """Fold in and delete what forked workers recorded."""
        for path in sorted(self.spool.glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            for name, (calls, busy, child) in payload["stats"].items():
                st = self._stat(name)
                st[_CALLS] += calls
                st[_BUSY] += busy
                st[_CHILD] += child
            for name, value in payload["counts"].items():
                self.add(name, value)
            self.records.extend(payload["records"])

    # -- reading --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[_CALLS]

    def busy(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[_BUSY]

    def self_time(self, name: str) -> float:
        st = self.stats.get(name)
        return st[_BUSY] - st[_CHILD] if st else 0.0

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, busy s, self s) for every span that ran."""
        return [(k, v[_CALLS], v[_BUSY], v[_BUSY] - v[_CHILD])
                for k, v in sorted(self.stats.items()) if v[_CALLS]]


# ---------------------------------------------------------------------------
# what gets wrapped


def _nominal_terms(case, n: int) -> int:
    """Summand terms an evaluation of ``case`` at ``n`` visits, from the loop bounds."""
    outer = {case.param: n}
    *firsts, inner = case.loops
    if not firsts:
        return max(0, inner.upper.eval(outer) - inner.lower.eval(outer) + 1)
    (first,) = firsts
    total = 0
    for v in range(first.lower.eval(outer), first.upper.eval(outer) + 1):
        outer[first.var] = v
        total += max(0, inner.upper.eval(outer) - inner.lower.eval(outer) + 1)
    return total


#: spans whose result hooks record the facts compared with the pins
RECORDED = ("wzengine.mutation_check", "involution.check_involution")


def install(tracer: Tracer, spans: bool) -> list[str]:
    """Wrap wzkit's functions; return the targets that were not found.

    With ``spans`` false only the ``RECORDED`` functions are wrapped.
    With ``spans`` true every public function in the plan is, and
    ``RuntimeError`` is raised when some module in ``MODULES`` would get
    no span at all, since its per-layer metrics would then silently read 0.
    """
    import importlib

    mods = {m: importlib.import_module(f"wzkit.{m}") for m in MODULES}
    inv = mods["involution"]

    def on_eval_sum(_result, args):
        tracer.add("identities.terms", _nominal_terms(args[0], args[1]))

    def on_involution(rep, _args):
        tracer.add("involution.words", rep.total_words)
        tracer.add("involution.fixed", rep.fixed_count)
        tracer.add("involution.violations.closure", len(rep.closure_violations))
        tracer.add("involution.violations.involutivity",
                   len(rep.involutivity_violations))
        tracer.add("involution.violations.sign", len(rep.sign_violations))
        tracer.records.append(["involution", rep.model_id, rep.n, {
            "words": rep.total_words, "fixed": rep.fixed_count,
            "fixed_signed_sum": rep.fixed_signed_sum,
            "closure": len(rep.closure_violations),
            "involutivity": len(rep.involutivity_violations),
            "sign": len(rep.sign_violations)}])

    def on_mutations(flags, _args):
        tracer.add("wzengine.mutants_killed", sum(flags))
        tracer.records.append(["mutants_killed", sum(flags), len(flags)])

    def on_discover(found, _args):
        if found is not None:
            cert = found.certificate
            tracer.add("symalg.cert_terms", len(cert.num.terms) + len(cert.den.terms))

    lemma_sides = ("boundary_flat_sum", "boundary_flat_rhs", "boundary_stepped_sum",
                   "boundary_stepped_rhs", "boundary_gap")
    # (span name, owners that look the name up, attribute, result hook)
    plan = [
        ("exactnum.binomial", ("exactnum", "identities", "hyperterm", "involution"),
         "binomial", None),
        ("symalg.reduced", (mods["symalg"].RationalFunction,), "reduced", None),
        ("hyperterm.eval", (mods["hyperterm"].HyperTerm,), "eval", None),
        ("hyperterm.shift_quotient", (mods["hyperterm"].HyperTerm,),
         "shift_quotient", None),
        ("gosper.gosper_normal", ("gosper", "wzengine"), "gosper_normal", None),
        ("gosper.nullspace", ("gosper", "wzengine"), "nullspace", None),
        ("wzengine.verify_certificate", ("wzengine",), "verify_certificate", None),
        ("wzengine.prove_constant_sum", ("wzengine",), "prove_constant_sum", None),
        ("wzengine.telescope", ("wzengine",), "telescope_first_mismatch", None),
        ("wzengine.mutation_check", ("wzengine",), "mutation_check", on_mutations),
        ("wzengine.discover_certificate", ("wzengine",), "discover_certificate",
         on_discover),
        ("identities.check_identity", ("identities", "cli"), "check_identity", None),
        ("identities.eval_sum", ("identities",), "eval_sum", on_eval_sum),
        *[("identities.lemmas", ("cli",), name, None) for name in lemma_sides],
        # sum_difference reads the thm3_eq6 values through this cached helper
        ("identities.lemmas", ("identities",), "_thm3_eq6_value", None),
        ("involution.check_involution", ("involution",), "check_involution",
         on_involution),
        ("involution.contains", (inv.WordModel,), "contains", None),
        ("involution.map", ("involution",), "scan_involution", None),
        ("involution.map", ("involution",), "sigma", None),
        ("dsl.parse_document", ("dsl",), "parse_document", None),
    ]
    if not spans:
        plan = [entry for entry in plan if entry[0] in RECORDED]
    missing = []
    covered = {"reports", "cli"}  # render and run_command are called directly
    for name, owners, attr, hook in plan:
        for owner in owners:
            target = mods[owner] if isinstance(owner, str) else owner
            fn = vars(target).get(attr)
            if fn is None:
                missing.append(f"{target.__name__}.{attr}")
                continue
            setattr(target, attr, tracer.wrap(name, fn, hook))
            covered.add(name.split(".")[0])
    if not spans:
        return missing
    words = vars(inv.WordModel).get("stratum_words")
    if words is None:
        missing.append("WordModel.stratum_words")
    else:
        inv.WordModel.stratum_words = tracer.wrap_generator("involution.enum_words", words)
        covered.add("involution")
    uncovered = [m for m in MODULES if m not in covered]
    if uncovered:
        raise RuntimeError(f"no span reaches module(s) {', '.join(uncovered)}")
    return missing
