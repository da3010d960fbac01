"""Steadiness tool: repeated runs, medians, spreads and two-set agreement.

Runs ``run.py`` for every workload, ``--runs`` times per set, in
alternating order (forward, then backward, ...) so slow drift of the
host hits every workload alike.  The runs of a set use seeds 0, 1, 2,
...; seed 0 is the one at which ``eval_matrix`` also checks the pinned
``examples/eval_expected.json``.  With ``--sets 2`` the rounds of the
two sets interleave (A, B, A, B, ...) and both sets use the same seeds.

For every end-to-end metric x workload it reports the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
``(q3 - q1) / median`` of each set; a set's spread mixes the effect of
the seed with the host's noise.  With two sets it also reports the
change of the second set's median against the first's, signed so that
positive is worse, and ``same_seed``: the median over seeds of
``|B - A| / A`` for the two runs at one seed, which is the host's noise
alone.  The bound a metric needs is at least three times the largest
spread and three times the largest two-set change over all workloads;
the table prints that as ``need``.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --sets 2 --output perfbench/steadiness.json
    python3 perfbench/steady.py --runs 5 --workloads churn_topk_geo
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values, "median": statistics.median(values),
        "q1": q1, "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload per set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--output", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    samples = {s: {w: [] for w in workloads} for s in range(args.sets)}
    records = []
    started = time.time()
    for r in range(args.runs * args.sets):
        order = workloads if r % 2 == 0 else workloads[::-1]
        which, seed = r % args.sets, r // args.sets
        for workload in order:
            result = run_once(workload, seed, bench["run_seconds"])
            samples[which][workload].append(result)
            records.append({
                "set": which, "workload": workload,
                "seed": result["provenance"]["shape"]["seed"],
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(f"[{time.time() - started:7.0f}s] set {which} {workload:20s} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)

    report = {"runs_per_set": args.runs, "sets": args.sets,
              "provenance": records and samples[0][workloads[0]][0]["provenance"],
              "summary": {}, "need": {}, "runs": records}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        need = 0.0
        for workload in workloads:
            per_set = []
            for s in range(args.sets):
                values = [x["metrics"][name]["value"]
                          for x in samples[s][workload]]
                per_set.append(summarize(values))
            entry = {"sets": per_set}
            if name != "setup_s":
                need = max(need, *(3 * p["spread"] for p in per_set))
            if args.sets == 2:
                entry["second_vs_first"] = worse_share(
                    per_set[0]["median"], per_set[1]["median"], better
                )
                need = max(need, 3 * abs(entry["second_vs_first"]))
                entry["same_seed"] = statistics.median(
                    abs(b - a) / a for a, b in zip(per_set[0]["values"],
                                                   per_set[1]["values"])
                )
            report["summary"].setdefault(workload, {})[name] = entry
        report["need"][name] = need

    print()
    header = f"{'workload':20s} {'metric':18s} {'median':>12s} {'spread':>7s}"
    if args.sets == 2:
        header += f" {'spread2':>7s} {'2nd-1st':>7s} {'seed':>7s}"
    print(header)
    for workload in workloads:
        for metric in metrics:
            entry = report["summary"][workload][metric["name"]]
            first = entry["sets"][0]
            line = (f"{workload:20s} {metric['name']:18s} "
                    f"{first['median']:12.5g} {first['spread']:7.3f}")
            if args.sets == 2:
                line += (f" {entry['sets'][1]['spread']:7.3f}"
                         f" {entry['second_vs_first']:+7.3f}"
                         f" {entry['same_seed']:7.3f}")
            print(line)
    print()
    for metric in metrics:
        print(f"{metric['name']:18s} bound {metric['bound']:.3f}  "
              f"need >= {report['need'][metric['name']]:.3f}")
    bad = sum(r["failed"] for r in records)
    print(f"failed ops: {bad} of {sum(r['attempted'] for r in records)}")
    if args.output:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
