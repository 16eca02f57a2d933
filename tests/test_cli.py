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
# spell no scenario, format, boolean word or float literal.
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
        _NOT_NUMBER, st.floats(max_value=0.0), st.floats(min_value=37.68), st.just(math.nan)
    ),
    "format": st.one_of(_NON_SCALAR, _WORDS),
    "no_correction": st.one_of(
        _NON_SCALAR, st.integers().filter(lambda v: v not in (0, 1)), st.floats(), _WORDS
    ),
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
        for name in ("elemint-check", "glue-demo"):
            assert run(ScenarioConfig(scenario=name, seed=1)) == 0
            assert capsys.readouterr().out == (
                f"{name}: PASS [1 entries, max |z| = 0, threshold 3]\n"
            )

    def test_broken_composition_fails_elemint_check(self, tmp_path, capsys, monkeypatch):
        # (gh).f off by one part in 1e9 fails the run, and the residual shows
        # by how much
        from filtralab import elemint as ei

        mul_steps = ei.mul_steps

        def broken(g, h):
            gh = mul_steps(g, h)
            return ei.LeftStepFunction(gh.breakpoints, [1.000000001 * d for d in gh.levels])

        monkeypatch.setattr(ei, "mul_steps", broken)
        out = tmp_path / "r.csv"
        assert run(ScenarioConfig(scenario="elemint-check", seed=1, out_path=str(out))) == 1
        (row,) = csv.DictReader(out.open())
        assert 1e-12 < float(row["mean"]) < 1e-8 and row["verdict"] == "fail"
        assert capsys.readouterr().out.startswith("elemint-check: FAIL [1 entries")

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

    @pytest.mark.parametrize("scenario", ["pitman", "emery-before"])
    def test_delta_unchecked_where_unread(self, tmp_path, capsys, scenario):
        # the default delta 0.05 is below dt 0.1, but neither scenario reads delta
        from filtralab.cli import main

        out = tmp_path / "r.csv"
        code = main(["--scenario", scenario, "--n-paths", "200", "--dt", "0.1", "--out", str(out)])
        assert code in (0, 1) and capsys.readouterr().err == ""
        assert out.exists()

    @pytest.mark.parametrize("value", ["abc", "1.5", "1e3", "7 seven", ""])
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

    def test_threshold_with_infinite_per_entry_threshold_exit_two(self, tmp_path, capsys):
        # past 37.6771 the per-entry Bonferroni threshold is inf: this control
        # run (max |z| 57.4) used to print PASS and exit 0
        from filtralab.cli import main

        out = tmp_path / "r.csv"
        argv = ["--scenario", "pitman", "--n-paths", "20000", "--seed", "1", "--no-correction",
                "--out", str(out)]
        assert main(argv + ["--threshold", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("filtralab: threshold must be > 0 and below about 37.677")
        assert captured.err.endswith("got 40.0\n")
        assert not out.exists()
        # just below the edge the per-entry threshold is finite, and the run goes on
        ScenarioConfig(scenario="pitman", threshold=37.6).validated()

    @pytest.mark.parametrize("form", ["--out ''", "out-path =", "--config ''"])
    def test_empty_path_exit_two(self, tmp_path, capsys, monkeypatch, form):
        # an empty report path used to write no report, and an empty config
        # path to read no file; either run went on and exited 0
        from filtralab.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("out-path =\n")
        argv = {
            "--out ''": ["--out", ""],
            "out-path =": ["--config", "run.cfg"],
            "--config ''": ["--config", "", "--out", "r.csv"],
        }[form]
        assert main(["--scenario", "bridge", "--n-paths", "200", "--dt", "0.01"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("filtralab: ")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize(
        "line",
        [
            "block-size = -5",
            "block-size = 0",
            "block-size = 8192",
            "bes-method = euler-sde",
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
        key = line.split(" = ")[0].replace("-", "_")
        if key in ("block_size", "bes_method"):  # retired keys, refused whatever their value
            assert captured.err == f"filtralab: unknown config key {key!r}\n"
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
        "scenario, dt, time",
        [("bridge", "0.25", "0.2"), ("supremum", "0.125", "0.2"), ("pitman", "0.25", "0.1")],
        ids=["bridge", "supremum", "pitman"],
    )
    def test_off_grid_checkpoint_names_the_rule(self, tmp_path, capsys, scenario, dt, time):
        from filtralab.cli import main

        argv = ["--scenario", scenario, "--dt", dt, "--delta", dt,
                "--n-paths", "200", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"{scenario} checkpoint t = {time} " in captured.err
        assert f"dt = {dt}" in captured.err
        assert "TimeGrid(" not in captured.err
        assert not (tmp_path / "r.csv").exists()

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

    @pytest.mark.parametrize(
        "argv, steps",
        [
            (["--scenario", "bridge", "--dt", "1e-25", "--n-paths", "200"], "1e+25"),
            (["--scenario", "supremum", "--dt", "1e-25"], "1e+25"),
            (["--scenario", "pitman", "--horizon", "1e10", "--dt", "1e-10"], "1e+20"),
            # horizon / dt overflows to inf, which no grid can index either
            (["--scenario", "pitman", "--horizon", "1e308"], "inf"),
        ],
        ids=["bridge", "supremum", "pitman", "pitman-inf"],
    )
    def test_grid_too_large_for_numpy_exit_two(self, tmp_path, capsys, argv, steps):
        # a row of more bytes than numpy can index used to end the run in a
        # ValueError traceback ("Maximum allowed dimension exceeded")
        from filtralab.cli import main

        out = tmp_path / "r.csv"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        want = f"filtralab: a grid of {steps} steps is too large for numpy to index\n"
        assert captured.out == "" and captured.err == want
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["1e150", "1e152", "1e155", "1e160", "1e300"])
    def test_statistic_beyond_float64_exit_two(self, tmp_path, capsys, horizon):
        # at dt = delta = horizon/5 the squared increments overflow from about
        # 1e155: that ended in a vacuous PASS (stderr inf, z 0) or in a FAIL
        # printing nan, with numpy's overflow warning on stderr
        import warnings

        from filtralab.cli import main

        step = repr(float(horizon) / 5)
        out = tmp_path / "r.csv"
        argv = ["--scenario", "supremum", "--horizon", horizon, "--dt", step, "--delta", step,
                "--n-paths", "200", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        captured = capsys.readouterr()
        assert caught == []
        if float(horizon) < 1e155:
            assert code == 0 and captured.err == "" and out.exists()
            return
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err == (
            f"filtralab: config error: entry ({float(step):g}, {2 * float(step):g}, "
            "recfree): its mean or stderr is not finite\n"
        )

    @pytest.mark.parametrize("scenario, horizon", [
        ("pitman", "1e-30"), ("pitman", "1e-34"), ("pitman", "1e-40"), ("pitman", "1e-300"),
        ("supremum", "1e-100"), ("supremum", "1e-300"),
    ])
    def test_suite_that_tests_nothing_exit_two(self, tmp_path, capsys, scenario, horizon):
        # at tiny horizons every suite entry can read stderr 0: pitman's R = 1
        # absorbs each increment (a vacuous PASS, max |z| = 0) and supremum's
        # squared products underflow (a false FAIL, every z inf)
        from filtralab.cli import main

        step = repr(float(horizon) / (10 if scenario == "pitman" else 5))
        out = tmp_path / "r.csv"
        argv = ["--scenario", scenario, "--horizon", horizon, "--dt", step, "--delta", step,
                "--n-paths", "200", "--seed", "1", "--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        if horizon in ("1e-30", "1e-100"):
            assert code == 0 and captured.err == "" and out.exists()
            return
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err == (
            f"filtralab: config error: the {scenario} run tests nothing: every suite stderr is 0\n"
        )

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
