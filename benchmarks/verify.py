"""Correctness checks: every output against the stored reference, or, for
seeds that move the model parameters, against the record invariants.

Numbers match at relative tolerance 1e-6 (the goldens' tolerance) with an
absolute floor of 1e-12, so roundoff-level values such as the ``acc`` mean
term near 1e-24, which differ between hosts, are not compared digit by digit.
Every string, including verdict kinds and assessment strings, must be equal.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

REL_TOL = 1e-6
ABS_FLOOR = 1e-12

CSV_HEADER = ["scenario", "n", "target_id", "ratio_name", "value", "limit", "abs_dev"]
OWN_MEASURE = ("r_var_1", "r_var_2", "r_mom_1", "r_mom_2")
RATIO_NAMES = ("r_var_1", "r_var_2", "r_var_3", "r_var_4",
               "r_mom_1", "r_mom_2", "r_mom_3", "r_mom_4", "mean_term")
OPTIMALITY_SLACK = 1e-10

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def close(got: float, want: float) -> bool:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return True
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_FLOOR)


def _rows(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError("ratios.csv has no or a wrong header")
    return rows[1:]


def compare_csv(got: str, want: str) -> list[str]:
    """Row-by-row comparison of two ratios.csv texts; returns the mismatches."""
    got_rows, want_rows = _rows(got), _rows(want)
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows, reference has {len(want_rows)}"]
    problems = []
    for g, w in zip(got_rows, want_rows):
        if g[:4] != w[:4]:
            problems.append(f"row {w[:4]} came as {g[:4]}")
            continue
        for column, gv, wv in zip(CSV_HEADER[4:], g[4:], w[4:]):
            if (gv == "") != (wv == "") or (gv and not close(float(gv), float(wv))):
                problems.append(f"{'/'.join(w[1:4])} {column}: {gv!r} != {wv!r}")
    return problems


def compare_json(got, want, path: str = "") -> list[str]:
    """Structural comparison of two JSON documents; returns the mismatches."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or '/'}: keys differ"]
        return [p for key in sorted(want)
                for p in compare_json(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list lengths differ"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare_json(g, w, f"{path}/{i}")]
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{path}: {got!r} is not a number"]
    return [] if close(float(got), float(want)) else [f"{path}: {got!r} != {want!r}"]


def record_invariants(text: str, schedule) -> list[str]:
    """Finite values, own-measure ratios >= 1 - 1e-10, a nonnegative mean
    term, and a SUP record at every level of the schedule."""
    problems = []
    sup_levels = set()
    for scenario, n, target, name, value, _limit, _dev in _rows(text):
        where = f"n={n} {target} {name}"
        if name not in RATIO_NAMES:
            problems.append(f"{where}: unknown ratio name")
            continue
        v = float(value)
        if not math.isfinite(v):
            problems.append(f"{where}: {value} is not finite")
        elif name in OWN_MEASURE and v < 1.0 - OPTIMALITY_SLACK:
            problems.append(f"{where}: {value} below own-measure optimality")
        elif name == "mean_term" and v < 0.0:
            problems.append(f"{where}: negative mean term")
        if target == "SUP":
            sup_levels.add(int(n))
    if sup_levels != set(schedule):
        problems.append(f"SUP records at n={sorted(sup_levels)}, expected {list(schedule)}")
    return problems


def reference_path(workload: str, key: str, command: str) -> str:
    ext = "csv" if command == "run" else "json"
    return os.path.join(REFERENCE_DIR, workload, f"{key}.{ext}")


class Checker:
    """Checks the outputs of one workload's invocations.

    ``check`` returns the problems found and whether the output bytes differ
    from the reference bytes.  Where the seed moved the parameters there is
    no stored reference; the bytes are then compared with the first output
    of the same invocation in this process.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self._reference: dict[str, str] = {}
        self._first: dict[str, str] = {}

    def _stored(self, inv) -> str:
        if inv.key not in self._reference:
            with open(reference_path(self.workload, inv.key, inv.command),
                      encoding="utf-8", newline="") as fh:
                self._reference[inv.key] = fh.read()
        return self._reference[inv.key]

    def check(self, inv, output: str) -> tuple[list[str], bool]:
        try:
            if inv.reference:
                want = self._stored(inv)
                if inv.command == "run":
                    problems = compare_csv(output, want)
                else:
                    problems = compare_json(json.loads(output), json.loads(want))
            else:
                want = self._first.setdefault(inv.key, output)
                problems = record_invariants(output, inv.schedule)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc}"], True
        return problems, output != want
