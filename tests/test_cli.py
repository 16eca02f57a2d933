"""Config handling, report formats, exit codes, reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from filtralab.cli import build_config, emit_report, run
from filtralab.errors import ConfigurationError
from filtralab.scenarios import SCENARIOS, ScenarioConfig, ScenarioResult, run_scenario
from filtralab.verify import MartingaleTestReport, SuiteEntry


def _result(entries=(), extra=(), vacuous=False, verdict="pass"):
    report = MartingaleTestReport(
        entries=tuple(entries),
        per_entry_threshold=3.0,
        verdict=verdict,
        vacuous=vacuous,
    )
    return ScenarioResult("bridge", report, tuple(extra))


# Per config key, values that validation must refuse.  Letters from "abcxyz"
# spell no scenario, format, method, boolean word or float literal.
_WORDS = st.text(alphabet="abcxyz", min_size=1, max_size=8)
_NON_SCALAR = st.one_of(
    st.none(), st.lists(st.integers(), max_size=2), st.dictionaries(_WORDS, st.integers(), max_size=1)
)
_NOT_NUMBER = st.one_of(_NON_SCALAR, st.booleans(), _WORDS)
_INVALID = {
    "scenario": st.one_of(_NON_SCALAR, st.integers(), _WORDS),
    "n_paths": st.one_of(
        _NOT_NUMBER, st.integers(max_value=99), st.floats().filter(lambda x: not x.is_integer())
    ),
    "seed": st.one_of(
        _NOT_NUMBER,
        st.floats().filter(lambda x: not x.is_integer()),
        st.integers(max_value=-1),
        st.integers(min_value=2**64),
    ),
    "dt": st.one_of(_NOT_NUMBER, st.floats(max_value=0.0), st.just(math.inf), st.just(math.nan)),
    "horizon": st.one_of(_NOT_NUMBER, st.floats().filter(lambda x: x != 1.0)),
    "delta": st.one_of(
        _NOT_NUMBER, st.floats(max_value=0.0099), st.floats(min_value=0.995), st.just(math.nan)
    ),
    "threshold": st.one_of(
        _NOT_NUMBER, st.floats(max_value=0.0), st.just(math.inf), st.just(math.nan)
    ),
    "format": st.one_of(_NON_SCALAR, _WORDS),
    "no_correction": st.one_of(
        _NON_SCALAR, st.integers().filter(lambda v: v not in (0, 1)), st.floats(), _WORDS
    ),
    "bes_method": st.one_of(_NON_SCALAR, _WORDS),
    "out_path": st.one_of(_NON_SCALAR, st.booleans(), st.integers()),
    "colour": st.integers(),  # no such key
}


def _key_value_text(key, value):
    """The value as a key = value config line, or None where only JSON can say it."""
    if value is None or isinstance(value, (list, dict)) or key == "out_path":
        return None
    return f"{key.replace('_', '-')} = {value}"


def _entry(**kw):
    base = dict(
        s=0.2, t=0.4, functional="1", mean=1.23456789e-4,
        stderr=3.21e-5, z=3.8461538, n_paths=50_000, passed=True,
    )
    base.update(kw)
    return SuiteEntry(**base)


class TestBuildConfig:
    def test_flags(self):
        cfg = build_config(
            ["--scenario", "bridge", "--dt", "0.001", "--n-paths", "500",
             "--seed", "9", "--delta", "0.05", "--threshold", "3.5",
             "--format", "json"]
        )
        assert cfg.scenario == "bridge"
        assert cfg.n_paths == 500 and cfg.seed == 9
        assert cfg.format == "json" and cfg.threshold == 3.5

    def test_config_file_key_value(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("scenario = pitman\nn-paths = 2000\nseed=4\n# comment\n")
        cfg = build_config(["--config", str(p)])
        assert cfg.scenario == "pitman" and cfg.n_paths == 2000 and cfg.seed == 4

    def test_config_file_json_and_flag_override(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"scenario": "bridge", "seed": 4, "n_paths": 1000}))
        cfg = build_config(["--config", str(p), "--seed", "77"])
        assert cfg.seed == 77 and cfg.n_paths == 1000

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("FILTRALAB_SEED", "321")
        cfg = build_config(["--scenario", "bridge", "--n-paths", "200"])
        assert cfg.seed == 321

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ConfigurationError) as err:
            build_config(["--scenario", "bridge", "--dt", "0.0003"])
        assert "dt" in str(err.value)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            build_config(["--scenario", "nonsense"])

    def test_statistical_scenarios_need_paths(self):
        with pytest.raises(ConfigurationError):
            build_config(["--scenario", "bridge", "--n-paths", "50"])

    def test_bes_method_config_only(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("scenario=pitman\nbes-method=euler-sde\nn-paths=200\n")
        cfg = build_config(["--config", str(p)])
        assert cfg.bes_method == "euler-sde"

    @pytest.mark.parametrize(
        "raw, want",
        [("yes", True), ("On", True), ("1", True), ("off", False), ("0", False),
         (True, True), (1, True), (0, False)],
    )
    def test_no_correction_words(self, tmp_path, raw, want):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"scenario": "bridge", "n-paths": 200, "no-correction": raw}))
        assert build_config(["--config", str(p)]).no_correction is want


class TestEmitReport:
    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(_result(vacuous=True), "csv", str(path))
        assert path.read_text() == "scenario,s,t,functional,mean,stderr,z,n_paths,verdict\n"

    def test_single_entry_csv_order(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(_result(entries=[_entry()]), "csv", str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "bridge"
        assert fields[1] == "0.2" and fields[2] == "0.4"
        assert fields[3] == "1"
        assert fields[4] == format(1.23456789e-4, ".9g")
        assert fields[7] == "50000" and fields[8] == "pass"

    def test_json_round_trip_nine_digits(self, tmp_path):
        path = tmp_path / "r.json"
        entries = [_entry(mean=math.pi * 1e-3, stderr=math.e * 1e-4, z=-math.sqrt(2))]
        emit_report(_result(entries=entries), "json", str(path))
        loaded = json.loads(path.read_text())
        row = loaded["entries"][0]
        for key, raw in (("mean", math.pi * 1e-3), ("stderr", math.e * 1e-4), ("z", -math.sqrt(2))):
            assert row[key] == float(format(raw, ".9g"))

    @pytest.mark.parametrize("no_correction", [False, True])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_csv_report_parses(self, tmp_path, scenario, no_correction):
        # pitman's functional min(I,2)/2 holds a comma, so it must be quoted
        cfg = ScenarioConfig(
            scenario=scenario, dt=0.01, n_paths=200, seed=1, no_correction=no_correction
        )
        result = run_scenario(cfg)
        emit_report(result, "csv", str(tmp_path / "r.csv"))
        emit_report(result, "json", str(tmp_path / "r.json"))
        with open(tmp_path / "r.csv", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        header = ["scenario", "s", "t", "functional", "mean", "stderr", "z", "n_paths", "verdict"]
        assert reader.fieldnames == header
        entries = json.loads((tmp_path / "r.json").read_text())["entries"]
        assert len(rows) == len(entries) > 0
        for row, entry in zip(rows, entries):
            assert list(row) == header and None not in row.values()
            for key in header:
                if key in ("s", "t", "mean", "stderr", "z"):
                    assert float(row[key]) == entry[key]
                elif key == "n_paths":
                    assert int(row[key]) == entry[key]
                else:
                    assert row[key] == entry[key]

    def test_byte_identical_reports(self, tmp_path):
        cfg = ScenarioConfig(scenario="elemint-check", seed=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(ScenarioConfig(scenario="elemint-check", seed=5, out_path=str(a))) == 0
        assert run(ScenarioConfig(scenario="elemint-check", seed=5, out_path=str(b))) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_deterministic_scenarios_pass(self, capsys):
        assert run(ScenarioConfig(scenario="elemint-check", seed=1)) == 0
        out = capsys.readouterr().out
        assert "elemint-check: PASS" in out
        assert run(ScenarioConfig(scenario="glue-demo", seed=1)) == 0

    def test_statistical_fail_exit_one(self):
        cfg = ScenarioConfig(
            scenario="bridge", dt=0.01, n_paths=4000, seed=2, no_correction=True
        )
        assert run(cfg) == 1

    def test_usage_error_exit_two(self):
        from filtralab.cli import main

        assert main(["--scenario", "bridge", "--dt", "0.0007"]) == 2
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--dt", "x"], ["argument --dt", "'x'"]),
            (["--n-paths", "1.5"], ["argument --n-paths", "'1.5'"]),
            (["--format", "xml"], ["argument --format", "'xml'"]),
            (["--seed"], ["argument --seed"]),
            (["--colour", "red"], ["--colour red"]),
            # seeds outside the Philox key's range: -3 used to reach numpy (a
            # traceback, exit 1), and 2**64 used to run as seed 0
            (["--scenario", "glue-demo", "--seed", "-3"], ["seed must be in [0, 2**64)", "-3"]),
            (["--scenario", "elemint-check", "--seed", str(2**64)], ["seed must be in [0, 2**64)"]),
        ],
    )
    def test_bad_flag_one_line(self, tmp_path, capsys, argv, names):
        from filtralab.cli import main

        out = tmp_path / "r.csv"
        assert main(["--scenario", "bridge", "--out", str(out)] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("filtralab: ")
        assert all(name in captured.err for name in names)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "1.5", "1e3", "7 seven"])
    def test_bad_env_seed_one_line(self, tmp_path, capsys, monkeypatch, value):
        from filtralab.cli import main

        monkeypatch.setenv("FILTRALAB_SEED", value)
        out = tmp_path / "r.csv"
        assert main(["--scenario", "bridge", "--n-paths", "200", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("filtralab: FILTRALAB_SEED ")
        assert repr(value) in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "block-size = -5",
            "block-size = 0",
            "block-size = 8192",
            "threshold = nan",
            "threshold = -1",
            "threshold = inf",
            "dt = nan",
            "dt = inf",
            "horizon = inf",
            "horizon = 2",
            "scenario = pitman, horizon = 1e308",
            "delta = 1",
            "delta = 2",
            "delta = 0.995",
            "scenario = emery-after, delta = 0.9",
            "scenario = emery-after, delta = 0.895",
            "scenario = honest, delta = 0.9",
            "no-correction = maybe",
            "n-paths = 1e3",
        ],
    )
    def test_invalid_config_file_exit_two(self, tmp_path, capsys, line):
        # ", " separates the lines a case adds to the bridge base config
        from filtralab.cli import main

        p = tmp_path / "run.cfg"
        p.write_text(
            "scenario = bridge\nn-paths = 200\ndt = 0.01\nseed = 1\n"
            + line.replace(", ", "\n") + "\n"
        )
        assert main(["--config", str(p), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("filtralab: ") and captured.err.count("\n") == 1
        if line.startswith("block-size"):  # a retired key, refused whatever its value
            assert "unknown config key 'block_size'" in captured.err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "update",
        [
            {"n_paths": None},
            {"seed": [1]},
            {"seed": {"value": 1}},
            {"n_paths": True},
            {"n_paths": 1500.5},
            {"block_size": float("inf")},
            {"block_size": 8192},
            {"dt": False},
            {"dt": "fast"},
            {"threshold": None},
            {"scenario": 3},
            {"out_path": 5},
            {"no_correction": "maybe"},
            {"no_correction": 2},
            {"no_correction": 1.0},
        ],
        ids=repr,
    )
    def test_invalid_json_config_exit_two(self, tmp_path, capsys, update):
        from filtralab.cli import main

        p = tmp_path / "run.json"
        p.write_text(json.dumps({"scenario": "bridge", "n_paths": 200, "dt": 0.01, **update}))
        assert main(["--config", str(p), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("filtralab: ") and captured.err.count("\n") == 1
        if "block_size" in update:  # a retired key, refused whatever its value
            assert "unknown config key 'block_size'" in captured.err
        assert not (tmp_path / "r.csv").exists()

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data(), as_json=st.booleans())
    def test_invalid_config_property(self, tmp_path, capsys, data, as_json):
        # one invalid value on a valid bridge base: exit 2 before any simulation
        from filtralab.cli import main

        key = data.draw(st.sampled_from(sorted(_INVALID)), label="key")
        value = data.draw(_INVALID[key], label="value")
        line = _key_value_text(key, value)
        p = tmp_path / "run.cfg"
        if as_json or line is None:
            p.write_text(json.dumps({"scenario": "bridge", "n_paths": 200, "dt": 0.01, key: value}))
        else:
            p.write_text(f"scenario = bridge\nn-paths = 200\ndt = 0.01\n{line}\n")
        assert main(["--config", str(p), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("filtralab: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "scenario, dt, time, extra",
        [
            ("bridge", "0.25", "0.2", ""),
            ("supremum", "0.125", "0.2", ""),
            ("pitman", "0.25", "0.1", "bes-method = euler-sde\n"),
        ],
        ids=["bridge", "supremum", "pitman-euler-sde"],
    )
    def test_off_grid_checkpoint_names_the_rule(self, tmp_path, capsys, scenario, dt, time, extra):
        from filtralab.cli import main

        cfg = tmp_path / "run.cfg"
        cfg.write_text(extra)
        argv = ["--config", str(cfg), "--scenario", scenario, "--dt", dt, "--delta", dt,
                "--n-paths", "200", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"{scenario} checkpoint t = {time} " in captured.err
        assert f"dt = {dt}" in captured.err
        assert "TimeGrid(" not in captured.err
        assert not (tmp_path / "r.csv").exists()

    def test_degeneracy_exit_three(self, capsys, monkeypatch):
        # path 0's first euler-sde step 1 + 0.25/1 + 0.5 * (-2.5) lands exactly
        # on 0, and reflection cannot lift it
        from filtralab import paths

        real = paths.draw_rows

        def draw_rows(out, seed, purpose, lo, draw):
            real(out, seed, purpose, lo, draw)
            if purpose == "bes3" and lo == 0:
                out[0, 0] = -2.5  # path 0's first normal
            return out

        monkeypatch.setattr(paths, "draw_rows", draw_rows)
        # horizon 2.5 keeps pitman's level times h*k/10 on the grid
        cfg = ScenarioConfig(
            scenario="pitman", horizon=2.5, dt=0.25, n_paths=100, seed=3, delta=0.25,
            bes_method="euler-sde",
        )
        assert run(cfg) == 3
        err = capsys.readouterr().err
        assert err.startswith("filtralab: numerical degeneracy: ") and err.count("\n") == 1

    def test_grid_too_large_for_memory_exit_two(self, tmp_path, capsys, monkeypatch):
        # a block builder stands in for a path row too long to allocate
        from filtralab import scenarios

        def bridge_block(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(scenarios, "_bridge_block", bridge_block)
        cfg = ScenarioConfig(scenario="bridge", dt=0.01, n_paths=200, seed=1,
                             out_path=str(tmp_path / "r.csv"))
        assert run(cfg) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("filtralab: config error: a grid of 100 steps ")
        assert "MemoryError" not in captured.err
        assert not (tmp_path / "r.csv").exists()

    def test_euler_sde_reflects_instead_of_failing(self, tmp_path):
        # the reflecting integrator runs the config that once stopped at path 1032
        out = tmp_path / "r.csv"
        cfg = ScenarioConfig(
            scenario="pitman", dt=1e-3, n_paths=2000, seed=1,
            bes_method="euler-sde", out_path=str(out),
        )
        assert run(cfg) in (0, 1)
        assert out.read_text().count("\n") == 30

    def test_pass_exit_zero_small_run(self):
        cfg = ScenarioConfig(scenario="bridge", dt=0.01, n_paths=4000, seed=2)
        assert run(cfg) == 0


class TestConsoleScript:
    def test_only_erfc_runs_load_scipy_special(self):
        # a fresh interpreter: this one has scipy.special loaded already
        import filtralab

        script = "\n".join([
            "import sys",
            "from filtralab.cli import main",
            "small = ['--n-paths', '200', '--dt', '0.01', '--seed', '2']",
            "for sc in ('pitman', 'bridge', 'supremum'):",
            "    assert main(['--scenario', sc] + small) in (0, 1)",
            "for sc in ('glue-demo', 'elemint-check'):",
            "    assert main(['--scenario', sc, '--seed', '2']) in (0, 1)",
            "assert 'scipy.special' not in sys.modules",
            "assert main(['--scenario', 'honest'] + small) in (0, 1)",
            "assert 'scipy.special' in sys.modules",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(filtralab.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "filtralab.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: filtralab") and proc.stderr == ""

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "r.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "filtralab.cli",
             "--scenario", "elemint-check", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout
        assert out.exists()
