"""Output checks for one CLI command of the benchmark.

A command fails when it exits nonzero or its CSV breaks a check.  Checks are
of two kinds.  Format checks ask that every numeric cell is a plain finite
float literal, which is what the CLI documents.  Value checks read the
numbers (also out of a malformed ``np.float64(...)`` cell) and test what
they mean: probabilities in [0, 1], the criterion-3 tolerance between the
engines, monotone multi-round curves and a pmf that sums to one.  A command
that breaks either kind counts as failed; only a value failure makes the
run's outputs incorrect.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

TEXT_COLUMNS = {"engine", "protocol", "variable"}
PROBABILITY_COLUMNS = {"p_head", "p_member", "p_phase2", "eta", "one_minus_eta", "probability"}
# |eta_analytic - eta_mc| allowed per operating point (acceptance criterion 3)
ENGINE_TOLERANCE = 0.02
PMF_TOLERANCE = 1e-9

_PLAIN = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_WRAPPED = re.compile(r"np\.float64\((.*)\)")


def plain_float(cell: str) -> bool:
    """True when ``cell`` is a plain, finite float literal such as ``0.5``."""
    return _PLAIN.fullmatch(cell) is not None and math.isfinite(float(cell))


def number(cell: str) -> float | None:
    """The value in a numeric cell, also when wrapped as ``np.float64(...)``."""
    m = _WRAPPED.fullmatch(cell)
    try:
        return float(m.group(1) if m else cell)
    except ValueError:
        return None


@dataclass
class Verdict:
    format_errors: list[str] = field(default_factory=list)
    value_errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.format_errors or self.value_errors)


def parse(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check(kind: str, exit_code: int, text: str) -> Verdict:
    """Check one command's exit code and CSV.  ``kind`` names the extra check."""
    v = Verdict()
    if exit_code != 0:
        v.format_errors.append(f"exit code {exit_code}")
        return v
    rows = parse(text)
    if not rows:
        v.format_errors.append("no CSV rows")
        return v
    for i, row in enumerate(rows):
        for col, cell in row.items():
            if col in TEXT_COLUMNS or not cell:
                continue
            if not plain_float(cell):
                v.format_errors.append(f"row {i} {col}: not a plain float: {cell!r}")
            value = number(cell)
            if value is None or not math.isfinite(value):
                v.value_errors.append(f"row {i} {col}: not a finite number: {cell!r}")
            elif col in PROBABILITY_COLUMNS and not 0.0 <= value <= 1.0:
                v.value_errors.append(f"row {i} {col}: {value} outside [0, 1]")
    if v.value_errors:
        return v
    if kind == "engines":
        v.value_errors += _engines_agree(rows)
    elif kind == "rounds":
        etas = [number(r["eta"]) for r in rows]
        if any(b < a for a, b in zip(etas, etas[1:])):
            v.value_errors.append(f"multi-round eta decreases across rounds: {etas}")
    elif kind == "pmf":
        total = math.fsum(number(r["probability"]) for r in rows)
        if abs(total - 1.0) > PMF_TOLERANCE:
            v.value_errors.append(f"pmf sums to {total!r}")
    return v


def _engines_agree(rows) -> list[str]:
    by_value: dict[str, dict[str, float]] = {}
    for r in rows:
        by_value.setdefault(r["value"], {})[r["engine"]] = number(r["eta"])
    errors = []
    for value, etas in by_value.items():
        if set(etas) != {"analytic", "mc"}:
            errors.append(f"value {value}: engines {sorted(etas)}")
        elif abs(etas["analytic"] - etas["mc"]) > ENGINE_TOLERANCE:
            errors.append(f"value {value}: |eta_analytic - eta_mc| = "
                          f"{abs(etas['analytic'] - etas['mc']):.4f} > {ENGINE_TOLERANCE}")
    return errors


def mc_rows(text: str) -> list[tuple[int, float]]:
    """(trials, std_err) of every row that carries an eta standard error."""
    out = []
    for r in parse(text):
        se = number(r["std_err"]) if r.get("std_err") and r.get("trials") else None
        if se is not None:
            out.append((int(r["trials"]), se))
    return out
