"""Scenario runner and report emitter.

Exit codes: 0 pass, 1 statistical fail, 2 usage or configuration error.
Configuration comes from flags, an optional config file (key=value lines or
JSON; flags override), and the FILTRALAB_SEED environment variable as a seed
fallback.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import typing

from .errors import ConfigurationError, FiltralabError
from .scenarios import SCENARIOS, ScenarioConfig, ScenarioResult, run_scenario

__all__ = ["main", "run", "emit_report", "build_config"]

# Each report column, with the parser that reads its JSON value back from
# the column string.
_COLUMNS = {
    "scenario": str, "s": float, "t": float, "functional": str, "mean": float,
    "stderr": float, "z": float, "n_paths": int, "verdict": str,
}


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def emit_report(result: ScenarioResult, fmt: str, path: str) -> None:
    """Write the per-entry report; numbers carry 9 significant digits.

    A CSV field holding a comma, a quote or a newline is quoted (RFC 4180).
    """
    rows = [
        (result.name, _fmt(e.s), _fmt(e.t), e.functional, _fmt(e.mean), _fmt(e.stderr),
         _fmt(e.z), str(int(e.n_paths)), "pass" if e.passed else "fail")
        for e in result.report.entries + tuple(result.extra_entries)
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_COLUMNS)
            writer.writerows(rows)
        else:
            entries = [
                {k: parse(v) for (k, parse), v in zip(_COLUMNS.items(), row)} for row in rows
            ]
            report = {
                "scenario": result.name,
                "verdict": "pass" if result.passed else "fail",
                "vacuous": result.report.vacuous,
                "entries": entries,
            }
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _coerce(name: str, raw, source: str | None = None):
    """``raw`` as the type of ScenarioConfig field ``name``; other values are refused.

    Strings are parsed; JSON numbers must fit the field (no booleans, and
    integral values for integer fields); null, lists and objects never do.
    """
    kind = typing.get_type_hints(ScenarioConfig).get(name)
    if kind is None:
        raise ConfigurationError(f"unknown config key {name!r}")
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        if isinstance(raw, (str, int)) and str(raw).lower() in _BOOL_WORDS:
            return _BOOL_WORDS[str(raw).lower()]
    elif kind not in (int, float):
        if isinstance(raw, str):
            return raw
    elif isinstance(raw, (str, int, float)) and not isinstance(raw, bool):
        try:
            value = kind(raw)
        except (ValueError, OverflowError):
            pass
        else:
            if isinstance(raw, str) or kind is float or value == raw:
                return value
    label = {bool: "a boolean", int: "an integer", float: "a number"}.get(kind, "a string")
    raise ConfigurationError(f"{source or f'config key {name!r}'} needs {label}, got {raw!r}")


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    out: dict = {}
    if stripped.startswith("{"):
        for k, v in json.loads(text).items():
            out[k.replace("-", "_")] = v
    else:
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"malformed config line: {line!r}")
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 2 from main; --help still exits 0
        raise ConfigurationError(message)


def build_config(argv) -> ScenarioConfig:
    parser = _Parser(
        prog="filtralab",
        description="Run one enlargement-of-filtration experiment and emit a report.",
    )
    parser.add_argument("--scenario", help="one of: " + ", ".join(sorted(SCENARIOS)))
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--n-paths", type=int, dest="n_paths")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--out", dest="out_path")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--no-correction", action="store_true", default=None)
    parser.add_argument("--config", dest="config_file")
    ns = parser.parse_args(argv)
    settings: dict = {}
    if ns.config_file is not None:
        for k, v in _load_config_file(ns.config_file).items():
            settings[k] = _coerce(k, v)
    for key, val in vars(ns).items():
        if val is not None and key != "config_file":
            settings[key] = val
    if "seed" not in settings and "FILTRALAB_SEED" in os.environ:
        settings["seed"] = _coerce("seed", os.environ["FILTRALAB_SEED"], "FILTRALAB_SEED")
    if "scenario" not in settings:
        raise ConfigurationError("--scenario (or a config file naming one) is required")
    return ScenarioConfig(**settings).validated()


def run(config: ScenarioConfig) -> int:
    """Execute one scenario end to end; returns the process exit code."""
    try:
        result = run_scenario(config)
    except MemoryError:
        print(
            f"filtralab: config error: a grid of {config.horizon / config.dt:.0f} steps "
            "does not fit in memory",
            file=sys.stderr,
        )
        return 2
    except FiltralabError as exc:
        print(f"filtralab: config error: {exc}", file=sys.stderr)
        return 2
    if config.out_path:
        try:
            emit_report(result, config.format, config.out_path)
        except OSError as exc:
            print(f"filtralab: cannot write report: {exc}", file=sys.stderr)
            return 2
    verdict = "PASS" if result.passed else "FAIL"
    n_entries = len(result.report.entries) + len(result.extra_entries)
    print(
        f"{result.name}: {verdict} "
        f"[{n_entries} entries, max |z| = {result.report.max_abs_z():.3g}, "
        f"threshold {result.report.per_entry_threshold:.3g}]"
    )
    return 0 if result.passed else 1


def main(argv=None) -> int:
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
    except (FiltralabError, OSError, ValueError) as exc:
        print(f"filtralab: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
