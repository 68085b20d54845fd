"""Registry semantics and the built-in engine/kernel/suite entries."""

import pytest

from repro.api import (
    ENGINES,
    KERNELS,
    SUITES,
    Registry,
    RegistryError,
    SuiteEntry,
    align_tasks,
    build_suite,
    engine_names,
    get_engine,
    get_kernel,
    get_suite,
    kernel_names,
    register_engine,
    register_kernel,
    register_suite,
    suite_names,
)
from repro.kernels import AgathaKernel, KernelConfig


class TestRegistryBasics:
    def test_round_trip_direct_form(self):
        reg = Registry("thing")
        reg.register("a", 1)
        assert reg.get("a") == 1
        assert reg.names() == ("a",)
        assert "a" in reg and "b" not in reg
        assert len(reg) == 1 and list(reg) == ["a"]

    def test_round_trip_decorator_form(self):
        reg = Registry("thing")

        @reg.register("fn")
        def fn():
            return 42

        assert reg.get("fn") is fn
        assert fn() == 42  # the decorator returns the object unchanged

    def test_duplicate_name_rejected(self):
        reg = Registry("thing")
        reg.register("a", 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("a", 2)
        assert reg.get("a") == 1  # original untouched

    def test_replace_overrides(self):
        reg = Registry("thing")
        reg.register("a", 1)
        reg.register("a", 2, replace=True)
        assert reg.get("a") == 2

    def test_unknown_name_lists_available(self):
        reg = Registry("gizmo")
        reg.register("a", 1)
        with pytest.raises(KeyError, match=r"unknown gizmo 'b'.*'a'"):
            reg.get("b")

    def test_bad_names_rejected(self):
        reg = Registry("thing")
        with pytest.raises(RegistryError):
            reg.register("", 1)
        with pytest.raises(RegistryError):
            reg.register(3, 1)  # type: ignore[arg-type]

    def test_unregister(self):
        reg = Registry("thing")
        reg.register("a", 1)
        assert reg.unregister("a") == 1
        assert "a" not in reg
        with pytest.raises(KeyError, match="unknown thing"):
            reg.unregister("a")


class TestBuiltinRegistries:
    def test_builtin_engines(self):
        assert set(engine_names()) >= {"scalar", "vector"}
        assert ENGINES.get("vector") is get_engine("vector")

    def test_builtin_kernels(self):
        assert set(kernel_names()) >= {
            "GASAL2", "SALoBa", "BaselineExact", "Manymap", "LOGAN", "AGAThA",
        }
        assert get_kernel("AGAThA") is KERNELS.get("AGAThA") is AgathaKernel

    def test_builtin_suites(self):
        assert set(suite_names()) >= {"mm2", "diff", "ablation"}
        assert get_suite("mm2").labels == ("GASAL2", "SALoBa", "Manymap", "AGAThA")
        assert get_suite("diff").labels == ("GASAL2", "SALoBa", "Manymap", "LOGAN")
        assert SUITES.get("ablation").labels[0] == "Baseline"

    def test_build_suite_applies_config(self):
        config = KernelConfig(batch_bucket_size=17)
        suite = build_suite("mm2", config)
        assert all(k.config.batch_bucket_size == 17 for k in suite.values())

    def test_build_suite_fresh_instances(self):
        first, second = build_suite("mm2"), build_suite("mm2")
        assert all(first[name] is not second[name] for name in first)


class TestCustomRegistration:
    def test_custom_engine_round_trip(self, task_batch):
        calls = []

        @register_engine("test-recording")
        def recording(tasks, *, batch_size=64):
            calls.append(len(tasks))
            return get_engine("scalar")(tasks, batch_size=batch_size)

        try:
            results = align_tasks(task_batch, engine="test-recording")
            assert calls == [len(task_batch)]
            assert [r.score for r in results] == [
                r.score for r in align_tasks(task_batch)
            ]
        finally:
            ENGINES.unregister("test-recording")

    def test_custom_suite_round_trip(self):
        spec = register_suite(
            "test-ladder",
            [
                SuiteEntry.make("Full", "AGAThA"),
                ("Bare", "AGAThA", {"rolling_window": False, "sliced_diagonal": False,
                                    "subwarp_rejoining": False, "uneven_bucketing": False}),
            ],
            description="temporary",
        )
        try:
            assert get_suite("test-ladder") is spec
            kernels = build_suite("test-ladder")
            assert list(kernels) == ["Full", "Bare"]
            assert kernels["Bare"].feature_label == "Baseline"
        finally:
            SUITES.unregister("test-ladder")

    def test_duplicate_suite_name_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_suite("mm2", [SuiteEntry.make("AGAThA", "AGAThA")])

    def test_suite_referencing_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="unknown kernel 'NoSuch'"):
            register_suite("test-bad", [SuiteEntry.make("X", "NoSuch")])
        assert "test-bad" not in SUITES

    def test_custom_kernel_appears_in_suites(self):
        @register_kernel("test-agatha-alias")
        def make(config=None, **options):
            return AgathaKernel(config, **options)

        register_suite(
            "test-alias-suite", [SuiteEntry.make("Alias", "test-agatha-alias")]
        )
        try:
            kernels = build_suite("test-alias-suite")
            assert isinstance(kernels["Alias"], AgathaKernel)
            # The bench runner sees the new suite through the same registry.
            from repro.bench import runner

            assert "test-alias-suite" in runner.SUITES
            assert set(runner.build_suite("test-alias-suite")) == {"Alias"}
        finally:
            SUITES.unregister("test-alias-suite")
            KERNELS.unregister("test-agatha-alias")
