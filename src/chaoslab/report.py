"""Certificate reports: the outcome record of one verification run.

Every inequality or criterion check in the library returns a
:class:`CertificateReport` whose verdict is the conjunction of its rows.
Reports and the CLI's tables serialize through :func:`csv_text` to a
diff-stable CSV (12 significant digits, '.' decimal separator); a
:class:`RunManifest` writes the JSON record of the producing run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class Check:
    """One measured quantity with its stated comparison against a bound."""

    quantity: str
    value: float
    comparison: str  # "<=", ">=", "==", or "info"
    bound: float | None
    passed: bool


@dataclass
class CertificateReport:
    """Named verification outcome: inputs, measured quantities, verdict."""

    name: str
    inputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    runtime: float = 0.0

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, quantity, value, comparison="info", bound=None, tol=0.0):
        """Append and return the row ``value comparison bound`` (within ``tol``)."""
        if comparison != "info" and bound is None:
            raise InvalidArgumentError(
                f"check {quantity!r}: comparison {comparison!r} needs a bound"
            )
        value = float(value)
        bound = None if bound is None else float(bound)
        if comparison == "info":
            ok = True
        elif comparison == "<=":
            ok = value <= bound + tol
        elif comparison == ">=":
            ok = value >= bound - tol
        elif comparison == "==":
            ok = abs(value - bound) <= tol
        else:
            raise InvalidArgumentError(f"unknown comparison {comparison!r}")
        self.checks.append(Check(quantity, value, comparison, bound, bool(ok)))
        return self.checks[-1]

    def quantity(self, name):
        for c in self.checks:
            if c.quantity == name:
                return c.value
        raise KeyError(name)


@contextmanager
def timed_report(name, inputs=None):
    """A new report whose runtime is the time spent in the ``with`` block."""
    report = CertificateReport(name, dict(inputs or {}))
    t0 = time.perf_counter()
    try:
        yield report
    finally:
        report.runtime = time.perf_counter() - t0


@dataclass
class RunManifest:
    """Record of one tool invocation and the files it produced."""

    command_line: str
    parameters: dict
    seed: int | None
    tolerances: dict
    version: str
    wall_time_s: float
    outputs: list

    def write(self, path):
        """Write the record as indented JSON with sorted keys."""
        write_text(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def format_number(x):
    return f"{float(x):.12g}"


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format_number(value)


def csv_text(header, rows, notes=()):
    """CSV text of a table: ``None`` cells are empty, strings are kept, and
    numbers take 12 significant digits.  Each ``(key, value)`` note becomes
    a trailing ``# key,value`` line."""
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    lines += [f"# {key},{_cell(value)}" for key, value in notes]
    return "\n".join(lines) + "\n"


def write_text(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def write_report(report, path):
    """Write a report as CSV rows: quantity, value, bound, comparison,
    verdict.  Identical reports produce byte-identical files."""
    rows = [
        (c.quantity, c.value, c.bound, c.comparison, "pass" if c.passed else "fail")
        for c in report.checks
    ]
    write_text(path, csv_text(("quantity", "value", "bound", "comparison", "verdict"), rows))
