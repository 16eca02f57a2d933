"""Output checks that recompute what the program's verdict claims.

Nothing here trusts a report's own verdict: thresholds are recomputed with
the standard library (``math.erfc`` and bisection), z-scores from the
printed means and standard errors, and pass or fail from the z-scores.
Each check returns the list of wrong outputs it found; ``check_cli`` also
says whether the operation failed, which only an invalid-config probe that
is not refused with exit code 2 does.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from workloads import DETERMINISTIC_CASES, SUITE_ENTRIES

CSV_HEADER = "scenario,s,t,functional,mean,stderr,z,n_paths,verdict"
# Pitman's level entries are judged by the program at this fixed |z|.
LEVEL_Z = 3.0
# Residual bound of the exact identities behind glue-demo and elemint-check.
EXACT_TOL = 1e-12
# A quotient of two 9-digit numbers, compared with a 9-digit z.
ROUNDED_REL = 2e-8
_SUMMARY = re.compile(
    r"^(\S+): (PASS|FAIL)( \(vacuous\))? \[(\d+) entries, max \|z\| = (\S+), threshold (\S+)\]$"
)
_SQRT2 = math.sqrt(2.0)


def bonferroni(nominal: float, n_entries: int) -> float:
    """Per-entry |z| keeping the two-sided familywise level of ``nominal``."""
    if n_entries <= 1:
        return nominal
    tail = math.erfc(nominal / _SQRT2) / (2.0 * n_entries)
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / _SQRT2) > tail:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def parse_report(data: bytes, fmt: str):
    """(rows, head) of a CSV or JSON report; rows carry floats and ints."""
    text = data.decode("utf-8")
    if fmt == "csv":
        if text.splitlines()[0] != CSV_HEADER:
            raise ValueError("unexpected CSV header")
        rows = list(csv.DictReader(io.StringIO(text)))
        head = None
    else:
        head = json.loads(text)
        rows = head.pop("entries")
    for r in rows:
        for key in ("s", "t", "mean", "stderr", "z"):
            r[key] = float(r[key])
        r["n_paths"] = int(r["n_paths"])
    return rows, head


def _rows_problems(op, rows, exact_z: bool) -> list:
    problems = []
    if len(rows) != op.n_entries:
        problems.append(f"{len(rows)} entries, expected {op.n_entries}")
    for r in rows:
        if r["scenario"] != op.scenario:
            problems.append(f"row names scenario {r['scenario']!r}")
            break
    if op.scenario in DETERMINISTIC_CASES:
        for r in rows:
            if r["n_paths"] != DETERMINISTIC_CASES[op.scenario]:
                problems.append(f"{r['n_paths']} cases, expected {DETERMINISTIC_CASES[op.scenario]}")
            if not r["mean"] <= EXACT_TOL:
                problems.append(f"residual {r['mean']!r} above {EXACT_TOL}")
            if r["verdict"] != "pass":
                problems.append("exact identity reported as failing")
        return problems

    suite_thr = bonferroni(op.config["threshold"], SUITE_ENTRIES[op.scenario])
    family_thr = bonferroni(op.config["threshold"], len(rows))
    for r in rows:
        if r["n_paths"] != op.n_paths:
            problems.append(f"row n_paths {r['n_paths']} != {op.n_paths}")
            break
    for r in rows:
        z_calc = r["mean"] / r["stderr"] if r["stderr"] > 0.0 else 0.0
        if exact_z:
            ok = format(z_calc, ".9g") == format(r["z"], ".9g")
        else:
            ok = abs(z_calc - r["z"]) <= ROUNDED_REL * abs(r["z"]) + 1e-300
        if not ok:
            problems.append(f"z {r['z']!r} != mean/stderr {z_calc!r} ({r['functional']})")
        # the row verdict must follow the program's own rule for that row
        rule = LEVEL_Z if r["functional"].startswith("level:") else suite_thr
        if abs(abs(r["z"]) - rule) > 1e-6 * rule and (abs(r["z"]) <= rule) != (r["verdict"] == "pass"):
            problems.append(f"verdict {r['verdict']} at |z| {abs(r['z']):.4g} vs {rule:.6g}")
    max_z = max((abs(r["z"]) for r in rows), default=0.0)
    if op.expect == "pass" and not max_z <= family_thr:
        problems.append(f"corrected run: max |z| {max_z:.4g} above {family_thr:.4g}")
    if op.expect == "fail":
        tested = [r for r in rows if op.scenario != "honest" or r["functional"].startswith("post|")]
        if not max((abs(r["z"]) for r in tested), default=0.0) > suite_thr:
            problems.append(f"negative control did not fail (threshold {suite_thr:.4g})")
    return problems


def check_scenario(op, result, rows) -> list:
    """Checks of a ``run_scenario`` result; ``rows`` holds full-precision floats."""
    problems = _rows_problems(op, rows, exact_z=True)
    thr = bonferroni(op.config["threshold"], SUITE_ENTRIES[op.scenario])
    if abs(result.report.per_entry_threshold - thr) > 1e-9 * thr:
        problems.append(f"per-entry threshold {result.report.per_entry_threshold!r}, recomputed {thr!r}")
    if result.report.vacuous:
        problems.append("vacuous report")
    return problems


def check_cli(op, code: int, stdout: str, stderr: str, data: bytes | None) -> tuple:
    """(failed, problems) of one ``cli.main`` call."""
    if op.kind == "probe":
        one_line = stderr.count("\n") == 1 and stderr.startswith("filtralab:")
        return not (code == 2 and one_line), []
    problems = []
    want = {"pass": 0, "exact": 0, "fail": 1}[op.expect]
    if code != want:
        problems.append(f"exit code {code}, expected {want}: {stderr.strip()[-200:]}")
    if data is None:
        return False, problems + ["no report written"]
    fmt = op.argv[op.argv.index("--format") + 1]
    try:
        rows, head = parse_report(data, fmt)
    except (ValueError, KeyError) as exc:
        return False, problems + [f"unreadable report: {exc}"]
    problems += _rows_problems(op, rows, exact_z=False)
    if head is not None:
        all_pass = all(r["verdict"] == "pass" for r in rows)
        if head.get("scenario") != op.scenario or head.get("verdict") != ("pass" if all_pass else "fail"):
            problems.append("JSON head disagrees with its rows")
        if head.get("vacuous") != (op.scenario in DETERMINISTIC_CASES):
            problems.append(f"JSON vacuous flag {head.get('vacuous')!r}")
    m = _SUMMARY.match(stdout.strip())
    if m is None:
        problems.append(f"unexpected summary line {stdout.strip()!r}")
    else:
        if int(m.group(4)) != len(rows):
            problems.append("summary entry count disagrees with the report")
        if op.scenario in SUITE_ENTRIES:
            thr = bonferroni(op.config["threshold"], SUITE_ENTRIES[op.scenario])
            if m.group(6) != format(thr, ".3g"):
                problems.append(f"printed threshold {m.group(6)}, recomputed {thr:.3g}")
    return False, problems

