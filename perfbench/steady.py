"""Steadiness check: two sets of runs of the same code, metric by metric.

    python3 perfbench/steady.py --runs 5                  # every workload
    python3 perfbench/steady.py --runs 5 --workload pitman-draws

Runs ``run.py`` untraced for ``run_seconds`` of ``BENCHMARK.json``,
``--runs`` times per set and workload, set 1 first, each run with its own
seed (set 1 takes seeds 1 to ``--runs``, set 2 the next ones).  For every
end-to-end metric and every workload it prints each set's median and
quartiles, the spread of all runs (quartile distance over median), and the
ratio of set 2's median to set 1's.  The two sets agree on a metric when
that ratio is within the metric's bound of 1 either way, and the metric is
steady when the spread is within the bound too.  It also checks that the
share of failed operations is the same in every run.  The figures are kept
in ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds * 3 + 300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    p.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)
    workloads = args.workload or names

    results: dict = {w: [[], []] for w in workloads}
    for half in (0, 1):
        for w in workloads:
            for i in range(args.runs):
                seed = 1 + half * args.runs + i
                res = run_once(w, seed, bench["run_seconds"])
                results[w][half].append(res)
                shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {half + 1} {w} seed {seed}: correct={res['correct']} "
                      f"failed {res['failed']}/{res['attempted']}; {shown}; "
                      f"run took {res['elapsed_s']:.1f} s", flush=True)

    ok = True
    summary: dict = {}
    for w in workloads:
        runs = results[w][0] + results[w][1]
        shares = {r["failed"] / r["attempted"] for r in runs}
        line_ok = len(shares) == 1 and all(r["correct"] for r in runs)
        ok &= line_ok
        print(f"\n{w}: failed share {sorted(shares)}, all correct "
              f"{all(r['correct'] for r in runs)}")
        print(f"  {'metric':18} {'set 1 q1/med/q3':>30} {'set 2 q1/med/q3':>30} "
              f"{'spread':>7} {'bound':>6} {'2 vs 1':>7}  verdict")
        summary[w] = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in results[w][h]] for h in (0, 1)]
            s1, s2 = spread(sets[0]), spread(sets[1])
            pooled = spread(sets[0] + sets[1])
            ratio = s2[1] / s1[1]
            agree = abs(ratio - 1.0) <= bound
            steady = pooled[3] <= bound
            ok &= agree and steady
            verdict = ("agree" if agree else "DISAGREE") + ("" if steady else ", SPREAD")
            if steady and pooled[3] > bound / 3:
                verdict += " (spread above a third of the bound)"
            print(f"  {name:18} {s1[0]:9.4g} {s1[1]:9.4g} {s1[2]:9.4g}  "
                  f"{s2[0]:9.4g} {s2[1]:9.4g} {s2[2]:9.4g}  {pooled[3]:7.3f} {bound:6.2f} "
                  f"{ratio:7.3f}  {verdict}")
            summary[w][name] = {"set1": sets[0], "set2": sets[1], "spread": pooled[3],
                                "ratio": ratio, "agree": agree, "steady": steady}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "summary": summary, "results": results}, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
