"""Regression tests for the HambandNode façade after the layer split.

The runtime decomposition (transport / applier / conflict / control)
must not move any public name: these tests pin the historical import
paths and that layer state is reached through the layer attributes.
"""

import pytest

from repro.datatypes import account_spec, gset_spec
from repro.runtime import HambandCluster
from repro.sim import Environment


class TestImportPathStability:
    def test_errors_importable_from_node_module(self):
        from repro.runtime.node import (  # noqa: F401
            ImpermissibleError,
            NotLeaderError,
            RuntimeConfig,
            SubmitError,
        )

    def test_errors_importable_from_package(self):
        from repro.runtime import (  # noqa: F401
            ImpermissibleError,
            NotLeaderError,
            RuntimeConfig,
            SubmitError,
        )

    def test_same_objects_either_way(self):
        import repro.runtime as pkg
        import repro.runtime.errors as errors
        import repro.runtime.node as node

        for name in ("SubmitError", "NotLeaderError", "ImpermissibleError"):
            assert getattr(node, name) is getattr(errors, name)
            assert getattr(pkg, name) is getattr(errors, name)
        import repro.runtime.config as config

        assert node.RuntimeConfig is config.RuntimeConfig
        assert pkg.RuntimeConfig is config.RuntimeConfig

    def test_exception_hierarchy_preserved(self):
        from repro.runtime import (
            ImpermissibleError,
            NotLeaderError,
            SubmitError,
        )

        assert issubclass(NotLeaderError, SubmitError)
        assert issubclass(ImpermissibleError, SubmitError)
        redirect = NotLeaderError("withdraw", "p2")
        assert redirect.leader == "p2"

    def test_layer_classes_exported(self):
        from repro.runtime import (  # noqa: F401
            ApplyEngine,
            ConflictCoordinator,
            ControlPlane,
            CountingProbe,
            RingTransport,
            RuntimeProbe,
        )

    def test_each_layer_module_imports_standalone(self):
        import importlib

        for module in ("transport", "applier", "conflict", "control",
                       "probe", "errors", "config"):
            assert importlib.import_module(f"repro.runtime.{module}")


class TestFacadeComposition:
    def test_node_composes_the_four_layers(self):
        from repro.runtime import (
            ApplyEngine,
            ConflictCoordinator,
            ControlPlane,
            RingTransport,
        )

        env = Environment()
        cluster = HambandCluster.build(env, account_spec(), n_nodes=3)
        node = cluster.node("p1")
        assert isinstance(node.transport, RingTransport)
        assert isinstance(node.applier, ApplyEngine)
        assert isinstance(node.conflict, ConflictCoordinator)
        assert isinstance(node.control, ControlPlane)
        # One probe threaded through the layers that count.
        assert node.transport.probe is node.probe
        assert node.applier.probe is node.probe
        assert node.conflict.probe is node.probe

    def test_layer_state_lives_on_the_layers_only(self):
        """The pre-split delegating views (``node.sigma`` ...) are gone:
        one path to each piece of state."""
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        node = cluster.node("p1")
        for view in ("sigma", "applied", "pending_recovered",
                     "summary_readers", "summary_mirror", "f_readers",
                     "f_writers", "l_readers", "mu_groups", "conf_queues"):
            assert not hasattr(node, view), view
        assert node.applier.sigma == frozenset()
        assert sorted(node.transport.f_readers) == ["p2", "p3"]
        assert node.conflict.mu_groups == {}

    def test_state_flows_through_facade_views(self):
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        env.run(until=cluster.node("p1").submit("add", "x"))
        node = cluster.node("p1")
        assert "x" in node.applier.sigma
        assert node.applier.applied[("p1", "add")] == 1
        # Dedup keys live on the apply layer only (no façade view).
        assert node.applier.has_seen(("p1", 1))
        assert not node.applier.has_seen(("p1", 2))
        assert not node.applier.has_seen(("p2", 1))
        assert node.effective_state() == node.applier.effective_state()


class TestConfigSurface:
    """The configuration cannot silently grow back: a new knob needs a
    caller that sets it, and then a deliberate bump here."""

    def test_runtime_config_field_count(self):
        import dataclasses

        from repro.runtime import RuntimeConfig

        assert len(dataclasses.fields(RuntimeConfig)) == 6

    def test_a_knob_both_configs_carry_has_one_default(self):
        """The harness passes these through to the runtime; neither
        class may give them a default of its own.  (``seed`` is the
        experiment's seed, which also seeds the workload.)"""
        import dataclasses

        from repro.bench import ExperimentConfig
        from repro.runtime import RuntimeConfig

        runtime = {f.name: f.default for f in dataclasses.fields(RuntimeConfig)}
        shared = {
            f.name: f.default for f in dataclasses.fields(ExperimentConfig)
            if f.name in runtime and f.name != "seed"
        }
        assert set(shared) == {"force_buffered", "full_dep_barrier",
                               "conf_retry_limit", "scrub_interval_us"}
        assert shared == {name: runtime[name] for name in shared}

    def test_slot_size_is_a_constant_not_a_setting(self):
        """Every ring slot is 128 bytes; a config cannot change it, and
        an instance still reads it (the perf harness does)."""
        from repro.runtime import RuntimeConfig

        assert RuntimeConfig().slot_size == RuntimeConfig.slot_size == 128
        with pytest.raises(TypeError, match="slot_size"):
            RuntimeConfig(slot_size=256)

    def test_ring_sizing_is_read_when_the_rings_are_built(self, monkeypatch):
        """``config.RING_SLOTS`` is looked up when a ring is built: the
        transport's F and L rings and the Mu leader's log writers all
        follow a patched value."""
        monkeypatch.setattr("repro.runtime.config.RING_SLOTS", 16)
        env = Environment()
        cluster = HambandCluster.build(env, account_spec(), n_nodes=3)
        mu_writers = []
        for name in cluster.node_names():
            node = cluster.node(name)
            transport = node.transport
            assert {
                ring.slots for ring in (
                    transport.f_mirror, *transport.f_readers.values(),
                    *transport.f_writers.values(),
                    *transport.l_readers.values(),
                )
            } == {16}
            for group in node.conflict.mu_groups.values():
                mu_writers += group._writers.values()
        assert mu_writers
        assert {writer.slots for writer in mu_writers} == {16}

    def test_experiment_config_field_count(self):
        import dataclasses

        from repro.bench import ExperimentConfig

        assert len(dataclasses.fields(ExperimentConfig)) == 16

    def test_perf_harness_surface_kept(self):
        """The perf harness builds ``RuntimeConfig(seed=...)`` and reads
        ``slot_size`` and the ``ring_integrity`` class constant."""
        from repro.runtime import RuntimeConfig

        config = RuntimeConfig(seed=7)
        assert config.seed == 7 and config.slot_size > 0
        assert RuntimeConfig.ring_integrity is True
