"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zipf_dense --seed 0 --seconds 20 --trace 0

Workloads: ``zipf_dense``, ``zipf_dense_sharded``, ``churn_topk_geo`` and
``eval_matrix`` (see ``perfbench/README.md``).  With ``--trace 0`` the
result carries every ``end_to_end`` metric of ``BENCHMARK.json``; with
``--trace 1`` every ``per_layer`` metric.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run's provenance (code, interpreter, machine, workload shape).

This launcher imports nothing but the standard library.  Every sample
runs in a fresh interpreter it starts: the set-up probes, the
``python -X importtime`` probes and the measurement itself, all with the
BLAS thread pools pinned to one thread.  It exits non-zero without a
result if the program's sources are missing or any child fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("zipf_dense", "zipf_dense_sharded", "churn_topk_geo",
             "eval_matrix")
#: Fresh-interpreter set-up samples per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: ``python -X importtime`` samples per traced run (median per metric).
IMPORT_PROBES = 3
#: Every child must end within ``BUDGET_FIXED_S + BUDGET_PER_S x
#: --seconds`` of the launcher's start: the fixed part covers the probes
#: and checks, the other the timed work, which grows with ``--seconds``
#: (170 s at the default 20).
BUDGET_FIXED_S = 50.0
BUDGET_PER_S = 6.0

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, deadline: float, capture_stderr: bool = False) -> str:
    """Run a child interpreter to completion; return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before " + " ".join(args[:4]))
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"child failed ({proc.returncode}): {' '.join(args)}\n"
            + proc.stderr[-4000:]
        )
    return proc.stderr if capture_stderr else proc.stdout


def last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def measure(mode: str, args, deadline: float) -> dict:
    return last_json(run_child(
        [str(HERE / "measure.py"), "--mode", mode,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline,
    ))


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(.*)$")


def import_times(stderr: str) -> dict:
    """Self-time sums from ``-X importtime``: all, scipy*, numpy*."""
    total = scipy = numpy = 0
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, name = int(match.group(1)), match.group(3).strip()
        total += self_us
        top = name.split(".")[0]
        if top == "scipy":
            scipy += self_us
        elif top == "numpy":
            numpy += self_us
    return {"startup.import_s": total / 1e6, "startup.scipy_s": scipy / 1e6,
            "startup.numpy_s": numpy / 1e6}


def startup_metrics(workload: str, deadline: float) -> dict:
    modules = "repro, repro.workloads"
    if workload == "eval_matrix":
        modules += ", repro.eval"
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {modules}"
    samples = [
        import_times(run_child(["-X", "importtime", "-c", code], deadline,
                               capture_stderr=True))
        for _ in range(IMPORT_PROBES)
    ]
    return {
        key: statistics.median(s[key] for s in samples) for key in samples[0]
    }


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout may lack git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def check_sources(workload: str) -> None:
    needed = [SRC / "repro" / "__init__.py", BENCHMARK]
    if workload == "eval_matrix":
        needed += [ROOT / "examples" / "eval_matrix.json",
                   ROOT / "examples" / "eval_expected.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError(f"missing program files: {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="size of the timed work in nominal seconds "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    try:
        check_sources(args.workload)
        with open(BENCHMARK, encoding="utf-8") as fh:
            bench = json.load(fh)
        declared = bench["per_layer" if args.trace else "end_to_end"]
        if args.seconds is None:
            args.seconds = float(bench["run_seconds"])
        deadline = started + BUDGET_FIXED_S + BUDGET_PER_S * args.seconds
        # Byte-compile up front so no probe pays for it.
        run_child(["-m", "compileall", "-q", str(SRC)], deadline)
        values: dict = {}
        setup = []
        if not args.trace:
            setup = [measure("setup", args, deadline)["setup_s"]
                     for _ in range(SETUP_PROBES)]
            values["setup_s"] = statistics.median(setup)
        else:
            values.update(startup_metrics(args.workload, deadline))
        result = measure("run", args, deadline)
        values.update(result["metrics"])
        provenance = {
            "git_commit": git_commit(), "source_digest": source_digest(),
            "python": platform.python_version(), "numpy": result["numpy"],
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "workload": args.workload, "trace": args.trace,
            "seconds": args.seconds,
            "shape": result["shape"],
            "setup_samples_s": setup, "problems": result["problems"],
            "detail": result["detail"],
        }
        metrics = {}
        for entry in declared:
            name = entry["name"]
            if name not in values:
                raise BenchError(f"workload did not measure {name!r}")
            metrics[name] = {"value": values[name], "unit": entry["unit"]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = int(result["failed"])
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
