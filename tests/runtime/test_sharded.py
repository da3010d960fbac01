"""Bit-identity and containment of the sharded runtime.

The decisive suite for :mod:`repro.runtime.sharded`: under the same
seed, a :class:`ShardedSystem` must produce **the same bytes** as the
single-process grouped engine for any shard count — every trace array
equal with ``np.array_equal`` (no tolerance), dense and sparse top-k
storage, with and without churn, per-peer recording, even and
Zipf-skewed (unevenly partitioned) popularity.  The containment half
kills live shard workers with ``SIGKILL`` mid-run and demands the
rebuilt worker replay to the exact same trace, both from construction
(``checkpoint_every=0``) and from a checkpoint file, and checks that
checkpoint files never pile up or outlive the system.
"""

import gc
import itertools
import os
import signal
import tempfile
import time

import numpy as np
import pytest

from repro.runtime import ShardedSystem, VectorizedStreamingSystem, bank_factory
from repro.runtime import sharded as sharded_module
from repro.runtime.learner_bank import RTHSBank
from repro.runtime.sharded import balanced_bounds
from repro.sim import ChurnConfig, SystemConfig
from repro.spec import ExperimentSpec
from repro.workloads.popularity import zipf_popularity

U_MAX = 900.0

CHURN = ChurnConfig(
    arrival_rate=2.0, mean_lifetime=25.0, initial_peer_lifetimes=True
)


def config_for(**overrides):
    base = dict(
        num_peers=60,
        num_helpers=8,
        num_channels=4,
        channel_bitrates=100.0,
        churn=CHURN,
        channel_switch_rate=0.5,
    )
    base.update(overrides)
    return SystemConfig(**base)


def single(config, *, kind="r2hs", bank="dense", topk=32, seed=42,
           initial_channels=None):
    return VectorizedStreamingSystem(
        config,
        bank_factory(kind, u_max=U_MAX, bank=bank, topk=topk),
        rng=seed,
        initial_channels=initial_channels,
    )


def sharded(config, shards, *, kind="r2hs", bank="dense", topk=32, seed=42,
            initial_channels=None, **kwargs):
    return ShardedSystem(
        config,
        bank_factory(kind, u_max=U_MAX, bank=bank, topk=topk),
        shards=shards,
        rng=seed,
        initial_channels=initial_channels,
        **kwargs,
    )


def assert_traces_identical(ta, tb):
    assert np.array_equal(ta.welfare, tb.welfare)
    assert np.array_equal(ta.loads, tb.loads)
    assert np.array_equal(ta.server_load, tb.server_load)
    assert np.array_equal(ta.capacities, tb.capacities)
    assert np.array_equal(ta.min_deficit, tb.min_deficit)
    assert np.array_equal(ta.online_peers, tb.online_peers)
    assert np.array_equal(ta.total_demand, tb.total_demand)
    assert np.array_equal(ta.times, tb.times)


class TestShardedBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_dense_under_churn_matches_single_process(self, shards):
        config = config_for()
        reference = single(config).run(60)
        with sharded(config, shards) as system:
            assert system.num_shards == shards
            assert len(system.shard_pids) == shards
            assert_traces_identical(system.run(60), reference)

    def test_topk_under_churn_matches_single_process(self):
        config = config_for(num_helpers=24, num_channels=3,
                            channel_switch_rate=0.0)
        reference = single(config, bank="topk", topk=3).run(40)
        with sharded(config, 3, bank="topk", topk=3) as system:
            assert_traces_identical(system.run(40), reference)

    def test_record_peers_actions_and_utilities_identical(self):
        config = SystemConfig(
            num_peers=40, num_helpers=6, num_channels=3,
            channel_bitrates=100.0, record_peers=True,
        )
        initial = [i % 3 for i in range(40)]
        reference = single(config, initial_channels=initial).run(30)
        with sharded(config, 3, initial_channels=initial) as system:
            trace = system.run(30)
        assert_traces_identical(trace, reference)
        a, b = trace.to_trajectory(), reference.to_trajectory()
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.utilities, b.utilities)

    def test_float32_identical(self):
        config = config_for(num_peers=40, channel_switch_rate=0.0)
        reference = VectorizedStreamingSystem(
            config,
            bank_factory("r2hs", u_max=U_MAX, dtype=np.float32),
            rng=7,
            dtype=np.float32,
        ).run(40)
        system = ShardedSystem(
            config,
            bank_factory("r2hs", u_max=U_MAX, dtype=np.float32),
            shards=2,
            rng=7,
            dtype=np.float32,
        )
        try:
            assert_traces_identical(system.run(40), reference)
        finally:
            system.close()


def _kill_shard(system, shard):
    """SIGKILL a live worker and wait for the OS to reap the pid."""
    pid = system.shard_pids[shard]
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if not system.bank._procs[shard].is_alive():
            return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} did not die")


def array_split_bounds(num_channels, shards):
    parts = np.array_split(np.arange(num_channels), shards)
    return [(int(p[0]), int(p[-1]) + 1) for p in parts]


class TestBalancedPartition:
    def test_uniform_weights_reproduce_array_split(self):
        for num_channels in range(1, 30):
            for shards in range(1, num_channels + 1):
                for weight in (1.0, 1.0 / num_channels, 0.02):
                    costs = np.full(num_channels, weight)
                    assert balanced_bounds(costs, shards) == (
                        array_split_bounds(num_channels, shards)
                    )

    def test_minimizes_the_heaviest_shard(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            shards = int(rng.integers(1, n + 1))
            costs = rng.zipf(1.5, n).astype(float) * rng.random(n)
            bounds = balanced_bounds(costs, shards)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(lo < hi for lo, hi in bounds)
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            best = min(
                max(costs[lo:hi].sum()
                    for lo, hi in zip((0,) + cuts, cuts + (n,)))
                for cuts in itertools.combinations(range(1, n), shards - 1)
            )
            got = max(costs[lo:hi].sum() for lo, hi in bounds)
            assert got <= best + 1e-6 * costs.sum()

    def test_zipf_width8_system_splits_hot_channels_off(self):
        config = SystemConfig(
            num_peers=100, num_helpers=400, num_channels=50,
            channel_bitrates=100.0,
            channel_popularity=zipf_popularity(50, 1.0),
        )
        with sharded(config, 2, kind="rths") as system:
            assert system.bank.shard_bounds == [(0, 5), (5, 50)]

    def test_one_channel_per_shard_when_shards_equal_channels(self):
        config = config_for(
            churn=ChurnConfig(), channel_popularity=zipf_popularity(4, 2.0)
        )
        with sharded(config, 4) as system:
            assert system.bank.shard_bounds == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_initial_channels_outweigh_popularity(self):
        config = config_for(churn=ChurnConfig())
        with sharded(config, 2) as system:
            assert system.bank.shard_bounds == [(0, 2), (2, 4)]
        initial = [3] * 50 + [0] * 10
        reference = single(config, initial_channels=initial).run(10)
        with sharded(config, 2, initial_channels=initial) as system:
            assert system.bank.shard_bounds == [(0, 3), (3, 4)]
            assert_traces_identical(system.run(10), reference)


class TestSkewedPartitionBitIdentity:
    """Zipf popularity gives uneven ranges; the bytes must not care."""

    @pytest.mark.parametrize("shards", [2, 3])
    def test_dense_zipf_under_churn_matches_single_process(self, shards):
        config = config_for(
            num_helpers=12, num_channels=6,
            channel_popularity=zipf_popularity(6, 1.0),
        )
        reference = single(config).run(50)
        with sharded(config, shards) as system:
            bounds = system.bank.shard_bounds
            assert bounds != array_split_bounds(6, shards)
            assert_traces_identical(system.run(50), reference)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_topk_zipf_under_churn_matches_single_process(self, shards):
        config = config_for(
            num_helpers=32, num_channels=4, channel_switch_rate=0.0,
            channel_popularity=zipf_popularity(4, 1.0),
        )
        reference = single(config, bank="topk", topk=3).run(40)
        with sharded(config, shards, bank="topk", topk=3) as system:
            assert system.bank.shard_bounds != array_split_bounds(4, shards)
            assert_traces_identical(system.run(40), reference)


class TestShardDeathContainment:
    @pytest.mark.parametrize("checkpoint_every", [0, 6])
    def test_sigkill_mid_run_recovers_bit_identically(self, checkpoint_every):
        config = config_for()
        reference = single(config).run(50)
        with sharded(
            config, 2,
            checkpoint_every=checkpoint_every,
            heartbeat_timeout=15.0,
        ) as system:
            system.run(20)
            _kill_shard(system, 0)
            system.run(10)  # death detected at the next barrier
            _kill_shard(system, 1)
            trace = system.run(20)
            assert_traces_identical(trace, reference)
            # Both deaths were containments, not silent restarts.
            assert system.bank._attempts == [1, 1]

    def test_retry_budget_exhaustion_fails_the_run(self):
        config = config_for(churn=ChurnConfig(), channel_switch_rate=0.0)
        with sharded(
            config, 2, max_retries=0, heartbeat_timeout=15.0
        ) as system:
            system.run(3)
            _kill_shard(system, 0)
            with pytest.raises(RuntimeError, match="exhausted its 0 retries"):
                system.run(3)


def _checkpoint_files(directory):
    """Per shard: the checkpoint files on disk (``*.tmp`` included)."""
    files = {}
    for name in os.listdir(directory):
        files.setdefault(name.split("-")[0], []).append(name)
    return files


class TestCheckpointFiles:
    @pytest.fixture
    def tmpdir_root(self, tmp_path, monkeypatch):
        """Point ``tempfile`` (what ``TMPDIR`` sets) at a private root."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_close_removes_checkpoints_even_after_a_respawn(
        self, tmpdir_root
    ):
        config = config_for()
        reference = single(config).run(30)
        system = sharded(config, 2, checkpoint_every=6, heartbeat_timeout=15.0)
        directory = system.bank._checkpoint_dir
        assert os.path.dirname(directory) == str(tmpdir_root)
        system.run(15)
        _kill_shard(system, 1)
        trace = system.run(15)
        assert_traces_identical(trace, reference)
        assert system.bank._attempts == [0, 1]
        files = _checkpoint_files(directory)
        assert sorted(files) == ["shard0", "shard1"]
        system.close()
        assert list(tmpdir_root.iterdir()) == []

    def test_finalizer_removes_checkpoints_of_a_dropped_system(
        self, tmpdir_root
    ):
        system = sharded(config_for(), 2, checkpoint_every=3)
        system.run(7)
        procs = list(system.bank._procs)
        assert list(tmpdir_root.iterdir())
        del system
        gc.collect()
        assert list(tmpdir_root.iterdir()) == []
        assert not any(proc.is_alive() for proc in procs)

    def test_no_directory_without_checkpointing(self, tmpdir_root):
        with sharded(config_for(), 2, checkpoint_every=0) as system:
            system.run(5)
            assert system.bank._checkpoint_dir is None
            assert list(tmpdir_root.iterdir()) == []

    def test_at_most_two_generations_per_shard(self, tmpdir_root):
        with sharded(config_for(), 3, checkpoint_every=2) as system:
            bank = system.bank
            directory = bank._checkpoint_dir
            seen = []
            recv = bank._recv

            def spying_recv(s, timeout=None):
                seen.append(_checkpoint_files(directory))
                return recv(s, timeout)

            bank._recv = spying_recv
            for _ in range(12):
                system.run(1)
                files = _checkpoint_files(directory)
                assert not any(
                    name.endswith(".tmp")
                    for names in files.values() for name in names
                )
                if bank._generation:
                    assert all(len(names) == 1 for names in files.values())
        peak = max(len(names) for snap in seen for names in snap.values())
        assert peak <= 2

    def test_kill_right_after_a_checkpoint_replays_from_the_file(self):
        config = config_for()
        reference = single(config).run(30)
        with sharded(
            config, 2, checkpoint_every=6, heartbeat_timeout=15.0
        ) as system:
            system.run(12)  # the 12th round's observe takes a checkpoint
            assert system.bank._logs == [[], []]
            assert all(system.bank._checkpoints)
            _kill_shard(system, 0)
            trace = system.run(18)
            assert_traces_identical(trace, reference)
            assert system.bank._attempts == [1, 0]

    def test_death_between_rename_and_ack_uses_last_acked_file(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL a worker right after it renamed generation 2 into
        place, before it acks: the parent must respawn it from
        generation 1, replay the log, and drop the unacknowledged file.
        """
        marker = tmp_path / "killed"
        write = sharded_module._write_checkpoint

        def write_then_die(bank, offsets, rows, local, path):
            write(bank, offsets, rows, local, path)
            if os.path.basename(path).startswith("shard0-gen2"):
                if not marker.exists():
                    marker.touch()
                    os.kill(os.getpid(), signal.SIGKILL)

        # Workers are forked, so they inherit the patched writer.
        monkeypatch.setattr(sharded_module, "_write_checkpoint",
                            write_then_die)
        config = config_for()
        reference = single(config).run(20)
        with sharded(
            config, 2, checkpoint_every=6, heartbeat_timeout=15.0
        ) as system:
            trace = system.run(20)
            assert marker.exists()
            assert system.bank._attempts == [1, 0]
            assert_traces_identical(trace, reference)
            files = _checkpoint_files(system.bank._checkpoint_dir)
            assert {s: len(names) for s, names in files.items()} == {
                "shard0": 1, "shard1": 1,
            }


class TestShardedLifecycleAndValidation:
    def test_close_is_idempotent_and_reaps_workers(self):
        system = sharded(config_for(churn=ChurnConfig()), 2)
        system.run(5)
        pids = system.shard_pids
        procs = list(system.bank._procs)
        system.close()
        system.close()
        assert pids  # captured while live
        for proc in procs:
            assert proc is None or not proc.is_alive()

    def test_more_shards_than_channels_rejected(self):
        with pytest.raises(ValueError, match="num_channels"):
            sharded(config_for(num_channels=2, churn=ChurnConfig()), 3)

    def test_plain_bank_factory_rejected(self):
        with pytest.raises(ValueError, match="make_grouped"):
            ShardedSystem(
                config_for(churn=ChurnConfig()),
                lambda h, rng: RTHSBank(h, rng=rng, u_max=U_MAX),
                shards=2,
                rng=0,
            )

    def test_per_channel_engine_rejected(self):
        """Sharding always runs the fused bank; there is no engine option
        to ask for per-channel dispatch."""
        with pytest.raises(TypeError, match="engine"):
            sharded(config_for(churn=ChurnConfig()), 2, engine="per_channel")

    def test_population_introspection_names_the_limitation(self):
        with sharded(config_for(churn=ChurnConfig()), 2) as system:
            view = system.banks[0]
            assert view.num_actions == 2
            with pytest.raises(RuntimeError, match="worker processes"):
                view.population


class TestShardedSpecIntegration:
    BASE = {
        "rounds": 15,
        "seed": 11,
        "topology": {"num_peers": 30, "num_helpers": 8, "num_channels": 4},
    }

    def test_build_returns_sharded_system_and_metrics_match(self):
        plain = ExperimentSpec.from_dict(self.BASE)
        spec = plain.with_overrides({"learner.shards": 2})
        system = spec.build()
        assert isinstance(system, ShardedSystem)
        system.close()
        a, b = plain.run(), spec.run()
        assert a.metrics == b.metrics

    def test_shards_excluded_from_result_digest(self):
        plain = ExperimentSpec.from_dict(self.BASE)
        spec = plain.with_overrides({"learner.shards": 2})
        assert plain.result_digest() == spec.result_digest()
        assert spec.to_dict()["learner"]["shards"] == 2

    def test_shards_require_vectorized_grouped_backend(self):
        with pytest.raises(ValueError, match="vectorized"):
            ExperimentSpec.from_dict(
                {**self.BASE, "backend": "scalar", "learner": {"shards": 2}}
            )
        with pytest.raises(ValueError, match="num_channels"):
            ExperimentSpec.from_dict({**self.BASE, "learner": {"shards": 9}})
        with pytest.raises(ValueError, match="integer"):
            ExperimentSpec.from_dict({**self.BASE, "learner": {"shards": 0}})
