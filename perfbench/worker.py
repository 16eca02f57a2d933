"""One benchmark process: set-up, then timed or traced rounds of operations.

``run.py`` starts this script in a fresh interpreter.  It imports the
package from ``src/``, builds the workload's operations from the seed,
runs one small untimed warm-up and prints ``ready``; ``run.py`` takes the
time from the start of the interpreter to that line as one set-up sample.
With ``--mode setup`` it stops there.  With ``--mode run`` it then repeats
whole rounds of the operations for ``--seconds`` and prints one JSON line:
per-round times, counts of attempted and failed operations, the output
problems found, the peak RSS and, with ``--trace 1``, the per-layer totals.

    python3 perfbench/worker.py --workload cli-sweep --seed 1 --seconds 10 --trace 0 --mode run
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from filtralab import cli, scenarios  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

# Taken before a tracer wraps it: the report of a run_scenario operation is
# written after its timed span, and must not count as cli work.
_EMIT_REPORT = cli.emit_report


class Runner:
    def __init__(self, out_dir: str, tracer=None):
        self.out_dir = out_dir
        self.tracer = tracer

    def _timed(self, op, call):
        span = self.tracer.op(op.name) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            value = call()
        return time.perf_counter() - t0, value

    def run(self, op):
        """(seconds, failed, problems, report digest) of one operation."""
        if op.kind == "scenario":
            return self._run_scenario(op)
        return self._run_cli(op)

    def _run_scenario(self, op):
        cfg = scenarios.ScenarioConfig(**op.config)
        try:
            elapsed, result = self._timed(op, lambda: scenarios.run_scenario(cfg))
        except Exception:  # a crash is a failed operation, reported in full
            return 0.0, True, [traceback.format_exc(limit=3)], None
        entries = result.report.entries + tuple(result.extra_entries)
        rows = [{"scenario": result.name, "s": e.s, "t": e.t, "functional": e.functional,
                 "mean": e.mean, "stderr": e.stderr, "z": e.z, "n_paths": e.n_paths,
                 "verdict": "pass" if e.passed else "fail"} for e in entries]
        problems = checks.check_scenario(op, result, rows)
        path = os.path.join(self.out_dir, f"{op.name}.csv")
        _EMIT_REPORT(result, "csv", path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return elapsed, False, problems, digest

    def _run_cli(self, op):
        if os.path.exists(op.out):
            os.remove(op.out)
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return cli.main(list(op.argv))
                except Exception:  # what an uncaught exception would exit with
                    traceback.print_exc(limit=3)
                    return 1

        elapsed, code = self._timed(op, call)
        data = None
        if os.path.exists(op.out):
            with open(op.out, "rb") as fh:
                data = fh.read()
        failed, problems = checks.check_cli(op, code, out.getvalue(), err.getvalue(), data)
        digest = hashlib.sha256(data).hexdigest() if data is not None else None
        return elapsed, failed, problems, digest


def run_round(runner: Runner, ops: list) -> dict:
    first_span = len(runner.tracer.spans) if runner.tracer else 0
    seconds, failed, problems, digests = 0.0, 0, [], {}
    for op in ops:
        elapsed, op_failed, op_problems, digest = runner.run(op)
        seconds += elapsed
        failed += op_failed
        problems += [f"{op.name}: {p}" for p in op_problems]
        digests[op.name] = digest
    for op in ops:
        if op.same_as and digests[op.name] != digests[op.same_as]:
            problems.append(f"{op.name}: report bytes differ from {op.same_as}")
    spans = (first_span, len(runner.tracer.spans)) if runner.tracer else None
    return {"seconds": seconds, "failed": failed, "problems": problems, "digests": digests,
            "spans": spans}


def run_rounds(runner: Runner, ops: list, budget: float, rounds: list) -> None:
    """Append whole rounds until the next would end after ``budget`` seconds."""
    start = time.perf_counter()
    n = 0
    while True:
        rounds.append(run_round(runner, ops))
        n += 1
        used = time.perf_counter() - start
        if used + used / n > budget:
            return


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    args = p.parse_args(argv)

    out_dir = os.path.join(HERE, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, out_dir)
    # The warm-up's outcome is not judged: the timed operations are.
    Runner(out_dir).run(workloads.warmup_op(args.workload, out_dir))
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result = {"path_steps": sum(op.path_steps for op in ops)}
    rounds: list = []
    if args.trace:
        # Traced rounds come first, so that the per-layer RSS rises are seen
        # before the untraced rounds have already set the process peak.
        tracer = layertrace.Tracer()
        tracer.install()
        run_rounds(Runner(out_dir, tracer), ops, args.seconds / 2, rounds)
        tracer.uninstall()
        n_traced = len(rounds)
        run_rounds(Runner(out_dir), ops, args.seconds / 2, rounds)
        traced_s = statistics.median(r["seconds"] for r in rounds[:n_traced])
        plain_s = statistics.median(r["seconds"] for r in rounds[n_traced:])
        result["layers"] = tracer.metrics([r["spans"] for r in rounds[:n_traced]],
                                          100.0 * (traced_s / plain_s - 1.0))
        result["n_traced"] = n_traced
        trace_path = os.path.join(HERE, "out", "runs", f"spans-{args.workload}-{args.seed}.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tracer.write(trace_path)
    else:
        run_rounds(Runner(out_dir), ops, args.seconds, rounds)

    problems = [p for r in rounds for p in r["problems"]]
    for i, r in enumerate(rounds[1:], start=2):
        for name, digest in r["digests"].items():
            if digest != rounds[0]["digests"][name]:
                problems.append(f"{name}: report bytes of round {i} differ from round 1")
    result.update(
        rounds=[r["seconds"] for r in rounds],
        attempted=len(ops) * len(rounds),
        failed=sum(r["failed"] for r in rounds),
        problems=problems[:20],
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
