"""Command reports: one structure, two renderings with identical facts.

Rational values are serialized as exact strings ``p`` or ``p/q`` so no
precision is lost in JSON; the text rendering prints the same fields in
the same order, so both carry exactly the same information.  Exit codes
are a pure function of report statuses: 0 when everything passed, 1
when any mathematical failure was found (2 is reserved for usage and
parse errors and never produced from reports).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple


def _int_str(n: int) -> str:
    """All decimal digits of ``n``, also past the interpreter's int-to-str limit.

    Python 3.11 (and 3.10.7 on) refuses ``str`` of an int with more digits
    than ``sys.get_int_max_str_digits()``; such an int is split at a power
    of ten into halves that convert, so no process-wide setting changes.
    """
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half of its digits: log10(2) > 3/10
        high, low = divmod(abs(n), 10**half)
        return "-" * (n < 0) + _int_str(high) + _int_str(low).zfill(half)


def frac_str(x: Fraction | int) -> str:
    """Exact decimal string of a rational, ``p`` or ``p/q``, however long."""
    x = Fraction(x)
    num = _int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"


class Failure(NamedTuple):
    n: int
    lhs: str
    rhs: str

    @staticmethod
    def of(n: int, lhs, rhs) -> "Failure":
        return Failure(n, frac_str(lhs), frac_str(rhs))


class Report(NamedTuple):
    command: str
    subject_id: str
    mode: str  # "literal" | "corrected"
    range: tuple[int, int]
    status: str  # "pass" | "fail"
    failures: list[Failure]
    errata: list[str]
    ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "id": self.subject_id,
            "mode": self.mode,
            "range": list(self.range),
            "status": self.status,
            "failures": [{"n": f.n, "lhs": f.lhs, "rhs": f.rhs} for f in self.failures],
            "errata": list(self.errata),
            "ms": round(self.ms, 3),
        }

    def to_text(self) -> str:
        head = (f"[{'PASS' if self.passed else 'FAIL'}] {self.command} "
                f"{self.subject_id} mode={self.mode} "
                f"range=[{self.range[0]}, {self.range[1]}] ({self.ms:.1f} ms)")
        lines = [head]
        for f in self.failures:
            lines.append(f"    n={f.n}: lhs={f.lhs} rhs={f.rhs}")
        for e in self.errata:
            lines.append(f"    erratum: {e}")
        return "\n".join(lines)


def exit_code(reports: list[Report]) -> int:
    return 0 if all(r.passed for r in reports) else 1


def render(reports: list[Report], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_json_dict() for r in reports], indent=2)
    return "\n".join(r.to_text() for r in reports)


def report_schema() -> dict:
    """The bundled JSON schema every report object validates against."""
    from . import read_data

    return json.loads(read_data("report_schema.json"))
