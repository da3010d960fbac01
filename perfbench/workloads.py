"""The benchmark's workloads: shapes, seeds and how each one is built.

Every spec is made here from the workload name and ``--seed``; the
program under test receives only the finished spec.  ``repro`` is
imported inside the functions, never at module import, so a set-up
probe can start its clock before the first ``repro``/``numpy`` import.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EVAL_MATRIX = ROOT / "examples" / "eval_matrix.json"
EVAL_EXPECTED = ROOT / "examples" / "eval_expected.json"

ROUND_LOOP = ("zipf_dense", "zipf_dense_sharded", "churn_topk_geo")
WORKLOADS = ROUND_LOOP + ("eval_matrix",)

#: Worker processes the fan-out may use (the benchmark box has 2 cores).
EVAL_WORKERS = 2
#: The eval guard's float tolerance for the pinned expectations.
EVAL_RTOL = 1e-6

#: Zipf shape: the paper's steady multi-channel regime.
ZIPF = dict(num_peers=100_000, num_helpers=400, num_channels=50,
            zipf_exponent=1.0)
#: Churn shape.  ``mean_lifetime = peers / arrival_rate`` makes the
#: initial population the churn equilibrium, so every timed round
#: carries ~20k peers and ~300 joins and leaves.
CHURN = dict(num_peers=20_000, num_helpers=420, num_channels=4,
             arrival_rate=300.0, mean_lifetime=20_000 / 300.0)
CHURN_TOPK = 16


def round_spec(workload: str, seed: int):
    """The :class:`~repro.spec.ExperimentSpec` a round-loop workload runs."""
    if workload in ("zipf_dense", "zipf_dense_sharded"):
        from repro.workloads.scenarios import popularity_skew_spec

        spec = popularity_skew_spec(seed=seed, **ZIPF)
        return spec.with_overrides({
            "learner.name": "rths",
            "learner.shards": 2 if workload == "zipf_dense_sharded" else 1,
        })
    if workload == "churn_topk_geo":
        from repro.workloads.geo import cross_region_flash_crowd_spec

        spec = cross_region_flash_crowd_spec(seed=seed, **CHURN)
        return spec.with_overrides({
            "learner.bank": "topk", "learner.topk": CHURN_TOPK,
        })
    raise ValueError(f"not a round-loop workload: {workload!r}")


def build_system(spec):
    """Build the capacity process first, then the system around it.

    Same bytes as ``spec.build()`` (the capacity process is the first
    child stream either way), but the caller gets the capacity process
    object to trace from outside.
    """
    from repro.util.rng import as_generator, spawn

    parent = as_generator(spec.seed)
    capacity = spec.build_capacity_process(rng=spawn(parent))
    return spec.build(rng=parent, capacity_process=capacity), capacity


def eval_spec(seed: int):
    """The pinned CI eval matrix on the vectorized backend (as the eval
    guard runs it), rooted at the workload seed."""
    import dataclasses

    from repro.eval import EvalSpec

    return dataclasses.replace(
        EvalSpec.load(EVAL_MATRIX), backend="vectorized", seed=seed
    )


def shape(workload: str, seed: int) -> dict:
    """The provenance record of a workload's shape."""
    if workload == "eval_matrix":
        spec = eval_spec(seed)
        return {
            "seed": seed, "matrix": str(EVAL_MATRIX.relative_to(ROOT)),
            "eval_digest": spec.eval_digest(),
            "cells": len(spec.parameter_sets()), "workers": EVAL_WORKERS,
        }
    spec = round_spec(workload, seed)
    return {
        "seed": seed, "spec_digest": spec.spec_digest(),
        "peers": spec.topology.num_peers,
        "helpers": spec.topology.num_helpers,
        "channels": spec.topology.num_channels,
        "learner": spec.learner.name, "bank": spec.learner.bank,
        "topk": spec.learner.topk if spec.learner.bank == "topk" else None,
        "shards": spec.learner.shards,
        "arrival_rate": spec.churn.arrival_rate,
    }
