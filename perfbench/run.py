"""filtralab benchmark: one run of one workload, with a JSON result line.

    python3 perfbench/run.py --workload honest-dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run starts fresh single-threaded interpreters one at a time:
``SETUP_STARTS - 1`` that only set up, then one worker that sets up and
repeats whole rounds of the workload's operations for ``--seconds``.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``setup_s``: median over the fresh interpreters of the time from starting
  the interpreter to its first operation being ready (imports, input
  generation, one small untimed warm-up);
* ``wall_s``: median over rounds of the time the round's operations take;
* ``path_steps_per_s``: the round's sum of n_paths x n_steps over its
  statistical operations, divided by ``wall_s``;
* ``peak_rss_mib``: peak RSS of the worker process.

With ``--trace 1`` it holds the per-layer metrics of a traced worker (see
``layertrace.py``) and the import times of the package's modules, read from
``python -X importtime``.  The last line of standard output is the result;
details of the run go to ``perfbench/out/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# Fresh interpreters timed per run, the worker included.  Single starts
# spread by 20 % and more within one run on a 2-core box.
SETUP_STARTS = 7
SETUP_TIMEOUT_S = 30.0
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"] + _BENCH["per_layer"]}
LAYERS = [m["name"] for m in _BENCH["per_layer"]]
# Modules whose cumulative import time the traced run reports.
IMPORTS = ("verify", "drifts", "gluing", "paths", "scenarios")
IMPORT_REPEATS = 3


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("FILTRALAB_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, mode: str, timeout: float):
    """(setup seconds, worker output after its ready line)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if line != "ready\n" or code != 0:
        raise BenchError(f"worker ({mode}) exited with code {code} after {line.strip()!r}")
    return setup, rest


def import_times() -> dict:
    """Median cumulative import time of each module, from -X importtime."""
    samples: dict = {m: [] for m in IMPORTS}
    env = _env()
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import filtralab.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing filtralab failed: {proc.stderr[-500:]}")
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("filtralab."):
                name = parts[2][len("filtralab."):]
                if name in samples:
                    samples[name].append(int(parts[1]) / 1e6)
    return {f"import.{m}_s": statistics.median(v) for m, v in samples.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one filtralab benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "filtralab", "__init__.py")):
        print("perfbench: no src/filtralab here; run from the root of a filtralab checkout",
              file=sys.stderr)
        return 2

    run_timeout = args.seconds + 100.0
    try:
        # Half the set-up-only starts come before the worker and half after,
        # so that the samples span the whole run, not one end of it.
        extra = 0 if args.trace else SETUP_STARTS - 1
        setups = [start_worker(args, "setup", SETUP_TIMEOUT_S)[0] for _ in range(extra // 2)]
        setup, out = start_worker(args, "run", run_timeout)
        setups.append(setup)
        setups += [start_worker(args, "setup", SETUP_TIMEOUT_S)[0] for _ in range(extra - extra // 2)]
        worker = json.loads(out.strip().splitlines()[-1])
        metrics = import_times() if args.trace else {}
    except (BenchError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics.update(worker["layers"])
        if sorted(metrics) != sorted(LAYERS):
            print(f"perfbench: traced metrics {sorted(set(metrics) ^ set(LAYERS))} disagree "
                  "with BENCHMARK.json per_layer", file=sys.stderr)
            return 1
        metrics = {name: metrics[name] for name in LAYERS}
    else:
        wall = statistics.median(worker["rounds"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "path_steps_per_s": worker["path_steps"] / wall,
            "peak_rss_mib": worker["peak_rss_mib"],
        }
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    result = {
        "correct": not worker["problems"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    runs = os.path.join(HERE, "out", "runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, f"{args.workload}-{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "setups": setups, "worker": worker, "result": result},
                  fh, indent=1)
    for problem in worker["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
