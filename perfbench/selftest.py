"""The benchmark's own tests.

Run from the repository root (about two minutes: it runs every
workload once per mode with a small timed workload)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import workloads as wl  # noqa: E402
from checks import trace_digest  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)


class _Clock:
    """A fake clock: every read costs ``read_cost``; work moves ``now``."""

    def __init__(self, read_cost: float) -> None:
        self.now = 0.0
        self.read_cost = read_cost

    def __call__(self) -> float:
        t = self.now
        self.now += self.read_cost
        return t


class _Layers:
    clock = _Clock(0.0)

    def outer(self):
        self.clock.now += 100.0
        self.inner()
        self.inner()

    def inner(self):
        self.clock.now += 10.0


def test_self_times_and_overhead_add_up_to_the_covered_time():
    _Layers.clock = clock = _Clock(read_cost=1.0)
    originals = dict(vars(_Layers))
    with Tracer(clock=clock) as tracer:
        tracer.wrap(_Layers, "outer", "outer")
        tracer.wrap(_Layers, "inner", "inner")
        _Layers().outer()
    assert vars(_Layers) == originals
    # Each inner span times its body (10) and the read closing it (1);
    # the outer one's self time is its body plus reads no child owns.
    assert tracer.total["inner"] == 22.0
    assert tracer.self_["outer"] == 103.0
    assert tracer.edges[("outer", "inner")] == 22.0
    assert tracer.overhead == 6.0
    # Reads: 4 per span, the last one's cost falls after it.
    assert tracer.self_sum() + tracer.overhead == clock.now - 1.0


def test_coverage_leaves_out_catch_all_self_time():
    _Layers.clock = clock = _Clock(read_cost=0.0)
    with Tracer(clock=clock) as tracer:
        tracer.wrap(_Layers, "outer", "runtime.round")
        tracer.wrap(_Layers, "inner", "bank.observe")
        _Layers().outer()
    assert tracer.self_sum() == 120.0
    assert measure.coverage(tracer, 120.0) == 20.0 / 120.0
    assert measure.coverage(tracer, 240.0) == 20.0 / 240.0


def _small_specs():
    from repro.workloads.geo import cross_region_flash_crowd_spec
    from repro.workloads.scenarios import popularity_skew_spec

    dense = popularity_skew_spec(
        num_peers=2_000, num_helpers=40, num_channels=5, seed=3
    ).with_overrides({"learner.name": "rths"})
    churn = cross_region_flash_crowd_spec(
        num_peers=600, num_helpers=42, num_channels=4, arrival_rate=20.0,
        mean_lifetime=30.0, seed=4,
    ).with_overrides({"learner.bank": "topk", "learner.topk": 4})
    return dense, churn


@pytest.mark.parametrize("which", [0, 1])
def test_wrappers_restore_originals_and_keep_the_trace(which):
    spec = _small_specs()[which]
    system, _ = wl.build_system(spec)
    system.run(20)
    untraced = trace_digest(system.trace)

    tracer = Tracer()
    measure.install_round_spans(tracer, spec)
    patched = [
        (owner, attr, own) for owner, attr, own in tracer._patches
    ]
    try:
        system, capacity = wl.build_system(spec)
        measure.install_capacity_spans(tracer, capacity)
        system.run(20)
    finally:
        tracer.restore()
    assert trace_digest(system.trace) == untraced
    assert tracer.calls["bank.observe"] == 20
    assert tracer.counts["bank.rows"] > 0
    for owner, attr, own in patched:
        assert owner.__dict__.get(attr) is own
    assert "capacities" not in vars(capacity)


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "2",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


def test_every_workload_emits_every_metric(results):
    for (workload, trace), result in results.items():
        declared = BENCH["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, trace)
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert [m["name"] for m in declared] == list(result["metrics"])
        for metric in declared:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"])
            if not trace:
                assert got["value"] > 0, (workload, metric["name"])


def test_traced_coverage_is_at_least_95_percent(results):
    coverage = {
        workload: results[workload, 1]["metrics"]["coverage"]["value"]
        for workload in wl.WORKLOADS
    }
    assert all(value >= 0.95 for value in coverage.values()), coverage


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = _run("zipf_dense", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
