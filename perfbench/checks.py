"""Output checks: per-round invariants, trace digests, eval cell matching."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

TRACE_COLUMNS = (
    "times", "welfare", "server_load", "min_deficit", "online_peers",
    "total_demand", "loads", "capacities",
)


def trace_digest(trace, rounds=None) -> str:
    """SHA-256 over every column of a :class:`~repro.sim.trace.SystemTrace`.

    ``rounds`` limits the digest to the first ``rounds`` rounds.
    """
    h = hashlib.sha256()
    for name in TRACE_COLUMNS:
        column = np.ascontiguousarray(getattr(trace, name)[:rounds])
        h.update(name.encode())
        h.update(str(column.dtype).encode() + str(column.shape).encode())
        h.update(column.tobytes())
    return h.hexdigest()


def failed_rounds(trace) -> np.ndarray:
    """Per round: does it break an invariant every round must keep?

    A round fails when its helper loads do not add up to its online
    peers, when its welfare exceeds the helpers' total capacity (welfare
    is the sum of realized shares, so it can reach but not pass that
    total; 1e-9 relative slack covers summation order), or when any
    recorded value is not finite.
    """
    loads = trace.loads
    caps = trace.capacities
    welfare = trace.welfare
    bad = loads.sum(axis=1) != trace.online_peers
    cap_total = caps.sum(axis=1)
    bad |= welfare > cap_total * (1.0 + 1e-9) + 1e-9
    for column in (welfare, trace.server_load, trace.min_deficit,
                   trace.total_demand, trace.times):
        bad |= ~np.isfinite(column)
    bad |= ~np.isfinite(caps).all(axis=1)
    return bad


def cell_key(cell) -> str:
    return f"{cell.scenario}/{cell.learner}"


def cells_json(result) -> dict:
    """``"scenario/learner" -> metrics`` as canonical JSON text per cell."""
    return {
        f"{cell['scenario']}/{cell['learner']}": json.dumps(
            cell["metrics"], sort_keys=True
        )
        for cell in result.to_dict()["cells"]
        if cell is not None
    }


def matches_pinned(metrics, pinned, rtol: float) -> bool:
    """Every pinned scalar agrees within ``rtol`` (1e-9 absolute at zero),
    the eval guard's comparison."""
    for name, want in pinned.items():
        got = float(metrics[name])
        if not math.isfinite(got) or not math.isclose(
            got, want, rel_tol=rtol, abs_tol=1e-9
        ):
            return False
    return True
