"""Spec/CLI surface of the fused multi-channel engine.

The learner family's bank factory alone decides the vectorized
dispatch: families registered with ``grouped=True`` run the fused bank,
plain per-channel families run :class:`PerChannelGroupedBank`, and the
two are bit-identical through the spec.  There is no engine option: a
``learner.engine`` field or an ``--engine`` flag is rejected.  Also
covers ``CapacitySpec.options`` (a capacity backend's parameter
channel).
"""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.runtime import (
    GroupedRegretBank,
    PerChannelGroupedBank,
    R2HSBank,
    bank_factory,
)
from repro.sim import paper_bandwidth_process
from repro.spec import (
    CAPACITY_BACKENDS,
    ExperimentSpec,
    register_capacity_backend,
    register_learner,
)
from repro.spec.registry import LEARNERS


def _plain_bank(epsilon, delta, mu, u_max, dtype):
    return bank_factory("uniform")


def _per_channel_r2hs(epsilon, delta, mu, u_max, dtype):
    return lambda h, rng: R2HSBank(
        h, rng=rng, epsilon=epsilon, delta=delta, mu=mu, u_max=u_max,
        dtype=dtype,
    )


@pytest.fixture
def registered_learner():
    """Register a learner family for one test, unregistering after."""
    names = []

    def register(name, bank, **kwargs):
        register_learner(name, bank=bank, overwrite=True, **kwargs)
        names.append(name)
        return name

    yield register
    for name in names:
        LEARNERS.unregister(name)


class TestEngineSpecField:
    def test_unknown_engine_rejected(self):
        """``learner.engine`` is not a spec field: every value fails the
        unknown-field check."""
        for engine in ("turbo", "auto", "grouped", "per_channel"):
            with pytest.raises(ValueError, match="unknown LearnerSpec field"):
                ExperimentSpec.from_dict({"learner": {"engine": engine}})
        with pytest.raises(ValueError, match="engine"):
            ExperimentSpec().with_overrides({"learner.engine": "grouped"})

    def test_roundtrip_omits_engine(self):
        """A learner spec round-trips without an ``engine`` key."""
        spec = ExperimentSpec.from_dict({"learner": {"name": "uniform"}})
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.learner.name == "uniform"
        assert "engine" not in clone.to_dict()["learner"]
        assert not hasattr(clone.learner, "engine")

    def test_explicit_engine_on_scalar_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown LearnerSpec field"):
            ExperimentSpec.from_dict(
                {"backend": "scalar", "learner": {"engine": "grouped"}}
            )

    def test_auto_resolves_by_registry_flag(self):
        """Each builtin family runs fused exactly when registered with
        ``grouped=True``."""
        base = {
            "topology": {"num_peers": 12, "num_helpers": 6, "num_channels": 2},
        }
        for name in ("rths", "r2hs", "uniform", "sticky"):
            bank = ExperimentSpec.from_dict(
                dict(base, learner={"name": name})
            ).build().bank
            expected = (
                GroupedRegretBank if LEARNERS.get(name).grouped
                else PerChannelGroupedBank
            )
            assert isinstance(bank, expected), name
        assert LEARNERS.get("r2hs").grouped
        assert not LEARNERS.get("uniform").grouped

    def test_grouped_engine_requires_capability_flag(self, registered_learner):
        name = registered_learner("plain-test-learner", _plain_bank)
        # A plain family runs per channel ...
        spec = ExperimentSpec.from_dict(
            {"topology": {"num_channels": 2}, "learner": {"name": name}}
        )
        assert isinstance(spec.build().bank, PerChannelGroupedBank)
        # ... and cannot shard, which needs the fused bank.
        with pytest.raises(ValueError, match="grouped=True"):
            ExperimentSpec.from_dict(
                {
                    "topology": {"num_channels": 2},
                    "learner": {"name": name, "shards": 2},
                }
            )

    def test_built_system_uses_resolved_engine(self):
        base = {
            "rounds": 5,
            "topology": {"num_peers": 12, "num_helpers": 6, "num_channels": 2},
        }
        built = ExperimentSpec.from_dict(base).build()
        assert isinstance(built.bank, GroupedRegretBank)
        uniform = dict(base, learner={"name": "uniform"})
        built = ExperimentSpec.from_dict(uniform).build()
        assert isinstance(built.bank, PerChannelGroupedBank)

    def test_engines_run_bit_identically_through_the_spec(
        self, registered_learner
    ):
        name = registered_learner(
            "r2hs-per-channel-test", _per_channel_r2hs, min_actions=2
        )
        base = {
            "rounds": 40,
            "seed": 5,
            "topology": {"num_peers": 40, "num_helpers": 7, "num_channels": 3},
        }
        grouped = ExperimentSpec.from_dict(base)
        per_channel = ExperimentSpec.from_dict(dict(base, learner={"name": name}))
        assert isinstance(per_channel.build().bank, PerChannelGroupedBank)
        tg, tp = grouped.run().trace, per_channel.run().trace
        assert np.array_equal(tg.welfare, tp.welfare)
        assert np.array_equal(tg.loads, tp.loads)
        assert np.array_equal(tg.server_load, tp.server_load)

    def test_engine_composes_with_topk_bank(self):
        spec = ExperimentSpec.from_dict(
            {
                "rounds": 10,
                "topology": {"num_peers": 20, "num_helpers": 12, "num_channels": 2},
                "learner": {"bank": "topk", "topk": 3},
            }
        )
        system = spec.build()
        assert isinstance(system.bank, GroupedRegretBank)
        assert system.banks[0].k == 3


class TestCapacityOptions:
    def test_options_roundtrip(self):
        spec = ExperimentSpec.from_dict(
            {
                "capacity": {
                    "transforms": [
                        {"name": "failures", "options": {"failure_rate": 0.5}}
                    ]
                }
            }
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.capacity.transforms[0].options == {"failure_rate": 0.5}

    def test_options_reach_the_backend_factory(self):
        received = {}

        def build(num_helpers, *, levels, stay_probability, rng, **options):
            received.update(options)
            return paper_bandwidth_process(
                num_helpers, levels=levels,
                stay_probability=stay_probability, rng=rng,
            )

        register_capacity_backend("options-test", build)
        try:
            spec = ExperimentSpec.from_dict(
                {
                    "topology": {"num_peers": 10, "num_helpers": 4},
                    "capacity": {
                        "backend": "options-test",
                        "options": {"burst": 3, "label": "x"},
                    },
                }
            )
            clone = ExperimentSpec.from_json(spec.to_json())
            assert clone.capacity.options == {"burst": 3, "label": "x"}
            clone.build_capacity_process(rng=0)
            assert received == {"burst": 3, "label": "x"}
        finally:
            CAPACITY_BACKENDS.unregister("options-test")
        # A transform's options reach its factory the same way.
        spec = ExperimentSpec.from_dict(
            {
                "topology": {"num_peers": 10, "num_helpers": 4},
                "capacity": {
                    "transforms": [
                        {
                            "name": "failures",
                            "options": {
                                "failure_rate": 1.0, "mean_outage_rounds": 2.0,
                            },
                        }
                    ],
                },
            }
        )
        process = spec.build_capacity_process(rng=0)
        process.advance()
        assert process.failed.all()  # rate 1.0: every helper down
        assert np.all(process.capacities() == 0.0)
        assert np.all(np.asarray(process.minimum_capacities()) == 0.0)

    def test_non_mapping_options_rejected(self):
        with pytest.raises(ValueError, match="options"):
            ExperimentSpec.from_dict(
                {"capacity": {"options": [1, 2, 3]}}
            )


class TestEngineCli:
    def test_engine_flag_rejected(self):
        """``--engine`` is not a flag of ``repro run``."""
        for argv in (
            ["run", "--engine", "grouped"],
            ["run", "--engine", "per_channel", "--dump-spec"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv, out=io.StringIO())
            assert excinfo.value.code == 2

    def test_engine_rejected_with_scalar_backend_at_parse_time(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", "--backend", "scalar", "--engine", "grouped"],
                out=io.StringIO(),
            )
        assert excinfo.value.code == 2

    def test_run_banner_names_no_engine(self):
        out = io.StringIO()
        code = main(
            [
                "run", "--peers", "12", "--helpers", "4", "--channels", "2",
                "--rounds", "3",
            ],
            out=out,
        )
        assert code == 0
        assert "run: backend=vectorized learner=r2hs N=12" in out.getvalue()
        assert "engine" not in out.getvalue()
