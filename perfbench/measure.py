"""One measurement in a fresh interpreter; prints one JSON object.

``run.py`` starts this file as a child process, in two modes:

* ``--mode setup``: the set-up probe.  Times ``import repro``, the spec
  (or eval matrix) construction and ``build()`` -- shard fork included
  -- from the first line that touches ``repro``, then tears down.
* ``--mode run``: the workload itself.  With ``--trace 0`` it times the
  end-to-end metrics; with ``--trace 1`` it runs the same work untraced
  and then traced, and reports per-layer times from outside-in spans.

The timed work is fixed per ``--seconds``: ``seconds x NOMINAL_RATE``
rounds (or eval passes), about ``--seconds`` of wall time on a 2-vCPU
Xeon VM.  A faster host or a faster program finishes sooner; the work,
and with it the peak memory (shard checkpoints every 64 rounds, store
entries), does not depend on how fast the host happens to be.

Usage (from the repository root)::

    python3 perfbench/measure.py --mode run --workload zipf_dense \
        --seed 0 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402  (stdlib-only at import time)
from tracer import Tracer  # noqa: E402

#: Untimed rounds before the timed region (first-touch allocations,
#: lane growth, top-k promotion settling).
WARMUP_ROUNDS = 8
#: Timed rounds per second of ``--seconds`` (eval: cold passes).
NOMINAL_RATE = {
    "zipf_dense": 12.5,
    "zipf_dense_sharded": 12.5,
    "churn_topk_geo": 10.5,
    "eval_matrix": 1.0,
}
#: Rounds of the sharded trace checked against the single-process one in
#: an untraced run: past the first shard checkpoint (every 64 rounds).
REFERENCE_ROUNDS = 80
#: Rounds in each segment of a traced run (fixed, so per-layer totals
#: compare across runs and seeds).
TRACE_ROUNDS = 48
WORK_DIR = HERE / ".work"

perf = time.perf_counter


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _close(system) -> None:
    close = getattr(system, "close", None)
    if close is not None:
        close()


# ----------------------------------------------------------------------
# Set-up probe
# ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> dict:
    t0 = perf()
    import repro  # noqa: F401
    import repro.workloads  # noqa: F401

    if workload == "eval_matrix":
        import repro.eval  # noqa: F401

        wl.eval_spec(seed)
        return {"setup_s": perf() - t0}
    system, _ = wl.build_system(wl.round_spec(workload, seed))
    setup_s = perf() - t0
    _close(system)
    return {"setup_s": setup_s}


# ----------------------------------------------------------------------
# Span installation
# ----------------------------------------------------------------------


def install_round_spans(tracer: Tracer, spec=None) -> None:
    """Spans at every layer boundary of the round loop.

    ``spec`` (a round-loop workload's spec) enables the computed
    ``bank.observe_bytes`` count: rows x width^2 x itemsize per
    ``observe_all`` call, width being the channel's helper count (or
    ``topk`` for top-k banks).
    """
    import numpy as np

    from repro.runtime.grouped_bank import (
        GroupedRegretBank,
        PerChannelGroupedBank,
    )
    from repro.runtime.peer_store import PeerStore
    from repro.runtime.sharded import ShardedGroupedBank
    from repro.runtime.system import VectorizedStreamingSystem
    from repro.sim.churn import ChurnProcess
    from repro.sim.engine import Simulator
    from repro.sim.trace import SystemTrace
    from repro.spec.model import ExperimentSpec

    counts = tracer.counts
    width_sq = None
    itemsize = 8
    if spec is not None:
        topo = spec.topology
        widths = np.bincount(
            np.arange(topo.num_helpers) % topo.num_channels,
            minlength=topo.num_channels,
        )
        if spec.learner.bank == "topk":
            widths = np.minimum(widths, spec.learner.topk)
        width_sq = widths.astype(np.float64) ** 2
        itemsize = np.dtype(spec.learner.dtype).itemsize

    def observed(args, kwargs, result):
        offsets = np.asarray(args[1])
        counts["bank.rows"] += float(offsets[-1])
        if width_sq is not None:
            counts["bank.observe_bytes"] += float(
                np.diff(offsets) @ width_sq
            ) * itemsize

    def joined(args, kwargs, result):
        counts["peer_store.joins"] += 1

    def left(args, kwargs, result):
        counts["peer_store.leaves"] += 1

    tracer.wrap(ExperimentSpec, "build", "spec.build")
    tracer.wrap(ExperimentSpec, "build_capacity_process", "spec.build_capacity")
    tracer.wrap(VectorizedStreamingSystem, "run", "runtime.run")
    tracer.wrap(VectorizedStreamingSystem, "_execute_round", "runtime.round")
    tracer.wrap(VectorizedStreamingSystem, "_round_grouping", "runtime.grouping")
    tracer.wrap(VectorizedStreamingSystem, "_flush_accumulators",
                "runtime.grouping")
    tracer.wrap(VectorizedStreamingSystem, "_churn_join", "runtime.churn")
    tracer.wrap(VectorizedStreamingSystem, "_churn_leave", "runtime.churn")
    tracer.wrap(Simulator, "run_until", "sim.queue")
    tracer.wrap(Simulator, "_pop", "sim.queue")
    tracer.wrap(Simulator, "schedule_at", "sim.queue")
    tracer.wrap(Simulator, "step", "sim.step")
    tracer.wrap(ChurnProcess, "schedule_lifetime", "churn.draw")
    tracer.wrap(ChurnProcess, "_schedule_next_arrival", "churn.draw")
    tracer.wrap(PeerStore, "allocate", "peer_store.allocate", after=joined)
    tracer.wrap(PeerStore, "allocate_many", "peer_store.allocate")
    tracer.wrap(PeerStore, "release", "peer_store.release", after=left)
    tracer.wrap(PeerStore, "channel_grouping", "peer_store.grouping")
    tracer.wrap(PeerStore, "online_slots", "peer_store.grouping")
    for bank in (GroupedRegretBank, PerChannelGroupedBank):
        tracer.wrap(bank, "act_all", "bank.act")
        tracer.wrap(bank, "observe_all", "bank.observe", after=observed)
        tracer.wrap(bank, "acquire", "bank.acquire")
        tracer.wrap(bank, "acquire_many", "bank.acquire")
        tracer.wrap(bank, "release", "bank.release")
    tracer.wrap(ShardedGroupedBank, "act_all", "shard.act")
    tracer.wrap(ShardedGroupedBank, "observe_all", "shard.observe",
                after=observed)
    tracer.wrap(ShardedGroupedBank, "acquire", "bank.acquire")
    tracer.wrap(ShardedGroupedBank, "acquire_many", "bank.acquire")
    tracer.wrap(ShardedGroupedBank, "release", "bank.release")
    tracer.wrap(SystemTrace, "append_round", "trace.append")


def install_capacity_spans(tracer: Tracer, capacity) -> None:
    """Spans on the one capacity process instance the system calls."""
    tracer.wrap(capacity, "capacities", "capacity.capacities")
    tracer.wrap(capacity, "advance", "capacity.advance")


def install_eval_spans(tracer: Tracer) -> None:
    from repro.analysis.parallel import ParallelRunner
    from repro.analysis.supervision import Supervisor
    from repro.eval import harness
    from repro.store import ResultsStore

    counts = tracer.counts

    def mapped(args, kwargs, result):
        counts["fanout.cells"] += len(args[2])

    def supervised(args, kwargs, result):
        counts["fanout.retries"] += args[0].stats.get("retries", 0)

    def committed(args, kwargs, result):
        counts["store.commits"] += bool(result)

    def fetched(args, kwargs, result):
        counts["store.hits"] += result is not None

    tracer.wrap(harness.Evaluator, "run", "eval.run")
    tracer.wrap(harness.EvalSpec, "build_cell_spec", "eval.validate")
    tracer.wrap(harness, "prequential_metrics", "eval.prequential")
    tracer.wrap(ParallelRunner, "map_cells", "fanout.map_cells", after=mapped)
    tracer.wrap(Supervisor, "run", "fanout.supervise", after=supervised)
    tracer.wrap(ResultsStore, "put", "store.put", after=committed)
    tracer.wrap(ResultsStore, "get", "store.get", after=fetched)


# ----------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ----------------------------------------------------------------------

#: Per-layer metric -> (how it is read from the tracer, span names).
#: "total": inclusive time; "self": time minus nested spans; "calls";
#: "count": a boundary count.
LAYER_METRICS = {
    "bank.act_s": ("total", ("bank.act",)),
    "bank.observe_s": ("total", ("bank.observe",)),
    "bank.rows": ("count", ("bank.rows",)),
    "bank.observe_bytes": ("count", ("bank.observe_bytes",)),
    "bank.acquire_s": ("total", ("bank.acquire",)),
    "bank.release_s": ("total", ("bank.release",)),
    "peer_store.allocate_s": ("total", ("peer_store.allocate",)),
    "peer_store.release_s": ("total", ("peer_store.release",)),
    "peer_store.grouping_s": ("self", ("peer_store.grouping",)),
    "peer_store.joins": ("count", ("peer_store.joins",)),
    "peer_store.leaves": ("count", ("peer_store.leaves",)),
    "sim.events": ("calls", ("sim.step",)),
    "sim.dispatch_s": ("self", ("sim.step",)),
    "sim.queue_s": ("self", ("sim.queue",)),
    "churn.draw_s": ("self", ("churn.draw",)),
    "capacity.capacities_s": ("total", ("capacity.capacities",)),
    "capacity.advance_s": ("total", ("capacity.advance",)),
    "trace.append_s": ("total", ("trace.append",)),
    "runtime.self_s": ("self", ("runtime.run", "runtime.round")),
    "runtime.churn_s": ("self", ("runtime.churn",)),
    "runtime.grouping_s": ("self", ("runtime.grouping",)),
    "shard.act_s": ("total", ("shard.act",)),
    "shard.observe_s": ("total", ("shard.observe",)),
    "eval.validate_s": ("total", ("eval.validate",)),
    "eval.prequential_s": ("total", ("eval.prequential",)),
    "eval.self_s": ("self", ("eval.run",)),
    "fanout.map_cells_s": ("self", ("fanout.map_cells",)),
    "fanout.supervise_s": ("self", ("fanout.supervise",)),
    "fanout.cells": ("count", ("fanout.cells",)),
    "fanout.retries": ("count", ("fanout.retries",)),
    "store.put_s": ("total", ("store.put",)),
    "store.get_s": ("total", ("store.get",)),
    "store.commits": ("count", ("store.commits",)),
    "store.hits": ("count", ("store.hits",)),
}

SPEC_SPANS = ("spec.build", "spec.build_capacity")

#: Spans whose self time is whatever ran between the layer calls inside
#: them (callbacks, closures, inline code): it is reported, under
#: ``runtime.self_s``, ``sim.dispatch_s``, ``eval.self_s`` and
#: ``fanout.map_cells_s``, but ``coverage`` does not count it.
CATCH_ALL_SPANS = ("runtime.run", "runtime.round", "sim.step", "eval.run",
                   "fanout.map_cells")


def layer_metrics(tracer: Tracer) -> dict:
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        if kind == "total":
            value = sum(tracer.total[n] for n in names)
        elif kind == "self":
            value = sum(tracer.self_[n] for n in names)
        elif kind == "calls":
            value = sum(tracer.calls[n] for n in names)
        else:
            value = sum(tracer.counts[n] for n in names)
        out[metric] = float(value)
    return out


def spec_metrics(tracer: Tracer) -> dict:
    return {
        "spec.build_s": tracer.top_level(SPEC_SPANS),
        "spec.builds": float(tracer.calls["spec.build"]),
    }


# ----------------------------------------------------------------------
# Round-loop workloads
# ----------------------------------------------------------------------


def _round_checks(trace, first_round: int = 0):
    """(rounds checked, rounds failed) over ``trace[first_round:]``."""
    from checks import failed_rounds

    bad = failed_rounds(trace)[first_round:]
    return int(bad.size), int(bad.sum())


def _plain_digest(seed: int, rounds: int) -> str:
    """The single-process ``zipf_dense`` trace digest after ``rounds``."""
    from checks import trace_digest

    system, _ = wl.build_system(wl.round_spec("zipf_dense", seed))
    system.run(rounds)
    return trace_digest(system.trace)


def _timed_units(workload: str, seconds: float) -> int:
    return max(1, round(seconds * NOMINAL_RATE[workload]))


def run_rounds(workload: str, seed: int, seconds: float) -> dict:
    import numpy as np

    from checks import trace_digest

    spec = wl.round_spec(workload, seed)
    system, _ = wl.build_system(spec)
    try:
        system.run(WARMUP_ROUNDS)
        gc.collect()
        t0 = perf()
        system.run(_timed_units(workload, seconds))
        wall = perf() - t0
        peak_rss = _maxrss_mb(resource.RUSAGE_SELF)
    finally:
        _close(system)
    worker_rss = _maxrss_mb(resource.RUSAGE_CHILDREN)

    trace = system.trace
    online = np.asarray(trace.online_peers[WARMUP_ROUNDS:], dtype=np.float64)
    attempted, failed = _round_checks(trace)
    problems = []
    if workload == "zipf_dense_sharded":
        checked = min(REFERENCE_ROUNDS, trace.num_rounds)
        if _plain_digest(seed, checked) != trace_digest(trace, checked):
            problems.append("sharded trace differs from zipf_dense")
    if problems:
        failed = attempted
    return {
        "metrics": {
            "peer_rounds_per_s": float(online.sum() / wall),
            "peak_rss_mb": peak_rss,
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": {
            "rounds": WARMUP_ROUNDS + online.size,
            "timed_wall_s": wall,
            "worker_peak_rss_mb": worker_rss,
            "digest": trace_digest(trace),
        },
    }


def trace_rounds(workload: str, seed: int) -> dict:
    from checks import trace_digest

    spec = wl.round_spec(workload, seed)
    rounds = WARMUP_ROUNDS + TRACE_ROUNDS

    system, _ = wl.build_system(spec)
    try:
        system.run(WARMUP_ROUNDS)
        gc.collect()
        t0 = perf()
        system.run(TRACE_ROUNDS)
        untraced_wall = perf() - t0
    finally:
        _close(system)
    untraced_digest = trace_digest(system.trace)

    tracer = Tracer()
    try:
        install_round_spans(tracer, spec)
        system, capacity = wl.build_system(spec)
        try:
            install_capacity_spans(tracer, capacity)
            build = spec_metrics(tracer)
            system.run(WARMUP_ROUNDS)
            gc.collect()
            tracer.reset()
            t0 = perf()
            system.run(TRACE_ROUNDS)
            traced_wall = perf() - t0
            metrics = layer_metrics(tracer)
            metrics.update(_trace_summary(tracer, traced_wall, untraced_wall))
        finally:
            _close(system)
    finally:
        tracer.restore()
    metrics.update(build)
    metrics.update(_shard_rows(system))
    metrics["workers.peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)
    traced_digest = trace_digest(system.trace)

    attempted, failed = _round_checks(system.trace)
    problems = []
    if traced_digest != untraced_digest:
        problems.append("traced trace differs from untraced trace")
    if workload == "zipf_dense_sharded":
        if _plain_digest(seed, rounds) != untraced_digest:
            problems.append("sharded trace differs from zipf_dense")
    if problems:
        failed = attempted
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": {"rounds": rounds, "traced_rounds": TRACE_ROUNDS},
    }


def _shard_rows(system) -> dict:
    """Rows per shard from the shard bounds and the peers' channels."""
    import numpy as np

    bounds = getattr(system.bank, "shard_bounds", None)
    if bounds is None:
        return {"shard.rows_max": 0.0, "shard.rows_mean": 0.0,
                "shard.imbalance": 0.0}
    store = system.store
    channels = store.channel[store.online_slots()]
    rows = np.array([
        np.count_nonzero((channels >= lo) & (channels < hi))
        for lo, hi in bounds
    ], dtype=np.float64)
    return {
        "shard.rows_max": float(rows.max()),
        "shard.rows_mean": float(rows.mean()),
        "shard.imbalance": float(rows.max() / rows.mean()),
    }


def coverage(tracer: Tracer, traced_wall: float) -> float:
    """Share of the traced wall spent inside a named layer call.

    The self time of every span counts except that of the catch-all
    spans (:data:`CATCH_ALL_SPANS`), so time the named layers do not
    explain lowers the figure.  The tracer's own measured time is taken
    out of the traced wall first.
    """
    residue = sum(tracer.self_[name] for name in CATCH_ALL_SPANS)
    return (tracer.self_sum() - residue) / (traced_wall - tracer.overhead)


def _trace_summary(tracer: Tracer, traced_wall: float,
                   untraced_wall: float) -> dict:
    return {
        "traced_wall_s": traced_wall,
        "coverage": coverage(tracer, traced_wall),
        "trace_overhead": traced_wall / untraced_wall - 1.0,
    }


# ----------------------------------------------------------------------
# The eval matrix
# ----------------------------------------------------------------------


class _EvalChecker:
    """Checks eval cells against the pinned numbers and a reference.

    The reference is the inline (``workers=1``, no store) matrix at the
    same seed -- the eval guard's worker-count identity; at the matrix's
    pinned seed every cell must also match
    ``examples/eval_expected.json["vectorized"]``.
    """

    def __init__(self, spec, reference) -> None:
        from checks import cells_json

        self.reference = cells_json(reference)
        self.pinned = None
        pinned_spec = wl.eval_spec(0)
        if spec.eval_digest() == pinned_spec.eval_digest():
            with open(wl.EVAL_EXPECTED, encoding="utf-8") as fh:
                self.pinned = json.load(fh)["vectorized"]

    def failed_cells(self, result) -> int:
        from checks import cell_key, cells_json, matches_pinned

        got = cells_json(result)
        failed = len(self.reference) - len(got)
        for cell in result.completed_cells():
            key = cell_key(cell)
            ok = got[key] == self.reference.get(key)
            if self.pinned is not None:
                ok = ok and matches_pinned(
                    cell.metrics, self.pinned[key], wl.EVAL_RTOL
                )
            failed += not ok
        return failed


def _eval_reference(spec):
    """Inline matrix run, counting the peer-rounds its cells execute."""
    from repro.eval import Evaluator
    from repro.spec.model import ExperimentSpec

    total = [0.0]

    def ran(args, kwargs, result):
        total[0] += float(result.trace.online_peers.sum())

    with Tracer() as hooks:
        hooks.hook(ExperimentSpec, "run", ran)
        reference = Evaluator(workers=1).run(spec)
    return reference, total[0]


def _eval_pass(spec, index: int):
    """One cold pass into a fresh store, then a resume pass over it.

    Returns ``(cold wall, resume wall, cold result, resume result,
    resume dispatches)``; a resume pass that dispatches any worker
    recomputed a cell.
    """
    from repro.analysis.supervision import Supervisor
    from repro.eval import Evaluator
    from repro.store import ResultsStore

    store_dir = WORK_DIR / f"store-{index}"
    shutil.rmtree(store_dir, ignore_errors=True)
    store = ResultsStore(store_dir)
    try:
        gc.collect()
        t0 = perf()
        cold = Evaluator(workers=wl.EVAL_WORKERS).run(spec, store=store)
        wall = perf() - t0
        dispatches = [0]
        with Tracer() as hooks:
            hooks.hook(Supervisor, "run",
                       lambda a, k, r: dispatches.__setitem__(0, 1))
            t0 = perf()
            resume = Evaluator(workers=wl.EVAL_WORKERS).run(spec, store=store)
            resume_wall = perf() - t0
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return wall, resume_wall, cold, resume, dispatches[0]


def _resume_failures(cold, resume, dispatched: int) -> int:
    from checks import cells_json

    if dispatched:
        return len(cold.cells)
    a, b = cells_json(cold), cells_json(resume)
    return sum(a.get(key) != b.get(key) for key in a)


def run_eval(seed: int, seconds: float) -> dict:
    spec = wl.eval_spec(seed)
    ncells = len(spec.parameter_sets())
    passes = [
        _eval_pass(spec, i)
        for i in range(_timed_units("eval_matrix", seconds))
    ]
    peak_rss = _maxrss_mb(resource.RUSAGE_SELF)
    worker_rss = _maxrss_mb(resource.RUSAGE_CHILDREN)
    reference, peer_rounds = _eval_reference(spec)
    checker = _EvalChecker(spec, reference)
    failed = 0
    for _, _, cold, resume, dispatched in passes:
        failed += max(
            checker.failed_cells(cold),
            _resume_failures(cold, resume, dispatched),
        )
    walls = [p[0] for p in passes]
    return {
        "metrics": {
            "peer_rounds_per_s": peer_rounds * len(walls) / sum(walls),
            "peak_rss_mb": peak_rss,
        },
        "attempted": ncells * len(passes),
        "failed": failed,
        "problems": [],
        "detail": {
            "passes": len(passes), "cold_walls_s": walls,
            "peer_rounds_per_pass": peer_rounds,
            "pinned_checked": checker.pinned is not None,
            "worker_peak_rss_mb": worker_rss,
        },
    }


def _eval_sequence(spec):
    """Cold pass + resume pass + inline pass; returns (wall, results)."""
    from repro.eval import Evaluator

    cold_wall, resume_wall, cold, resume, dispatched = _eval_pass(spec, 0)
    gc.collect()
    t0 = perf()
    reference = Evaluator(workers=1).run(spec)
    wall = cold_wall + resume_wall + perf() - t0
    return wall, (cold, resume, dispatched, reference)


def trace_eval(seed: int) -> dict:
    from checks import cells_json

    spec = wl.eval_spec(seed)
    untraced_wall, (cold_a, resume_a, dispatched_a, ref_a) = _eval_sequence(
        spec
    )
    tracer = Tracer()
    try:
        install_round_spans(tracer)
        install_eval_spans(tracer)
        traced_wall, (cold, resume, dispatched, reference) = _eval_sequence(
            spec
        )
    finally:
        tracer.restore()
    checker = _EvalChecker(spec, ref_a)
    failed = max(
        checker.failed_cells(cold_a),
        checker.failed_cells(cold),
        checker.failed_cells(reference),
        _resume_failures(cold_a, resume_a, dispatched_a),
        _resume_failures(cold, resume, dispatched),
    )
    problems = []
    if cells_json(reference) != cells_json(ref_a):
        problems.append("traced matrix differs from untraced matrix")
    ncells = len(spec.parameter_sets())
    if problems:
        failed = ncells
    metrics = layer_metrics(tracer)
    metrics.update(spec_metrics(tracer))
    metrics.update({"shard.rows_max": 0.0, "shard.rows_mean": 0.0,
                    "shard.imbalance": 0.0})
    metrics.update(_trace_summary(tracer, traced_wall, untraced_wall))
    metrics["workers.peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)
    return {
        "metrics": metrics,
        "attempted": ncells,
        "failed": failed,
        "problems": problems,
        "detail": {"traced_passes": ["cold", "resume", "inline"]},
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        out = setup_probe(args.workload, args.seed)
    elif args.workload == "eval_matrix":
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        out = trace_eval(args.seed) if args.trace else run_eval(
            args.seed, args.seconds
        )
    elif args.trace:
        out = trace_rounds(args.workload, args.seed)
    else:
        out = run_rounds(args.workload, args.seed, args.seconds)
    if args.mode == "run":
        import numpy

        out["numpy"] = numpy.__version__
        out["shape"] = wl.shape(args.workload, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
