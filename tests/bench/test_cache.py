"""The in-process workload memo: what it keys on, and one build per spec."""

import pytest

import repro.bench.cache as cache_mod
from repro.bench.cache import spec_fingerprint, workload_tasks
from repro.io.datasets import DatasetSpec

from tiny_workloads import make_spec


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh memo, so a test sees only the builds it triggers itself."""
    memo: dict = {}
    monkeypatch.setattr(cache_mod, "_TASKS", memo)
    return memo


class TestFingerprint:
    def test_stable(self, tiny_spec):
        assert spec_fingerprint(tiny_spec) == spec_fingerprint(make_spec())

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=8),
            dict(num_reads=5),
            dict(reference_length=4096),
            dict(technology="ONT"),
            dict(name="tiny-renamed"),
        ],
    )
    def test_spec_field_changes_invalidate(self, tiny_spec, change):
        changed = make_spec(**{**dict(name="tiny-A", seed=7), **change})
        assert spec_fingerprint(changed) != spec_fingerprint(tiny_spec)

    def test_scoring_change_invalidates(self, tiny_spec):
        changed = make_spec(scoring=tiny_spec.scoring.replace(band_width=32))
        assert spec_fingerprint(changed) != spec_fingerprint(tiny_spec)


class TestRoundtrip:
    """Build once, then reuse: the memo's whole life within a process."""

    def test_warm_cache_skips_workload_construction(self, empty_memo, monkeypatch):
        calls = []
        real_build = DatasetSpec.build_tasks

        def counting_build(spec):
            calls.append(spec.name)
            return real_build(spec)

        monkeypatch.setattr(DatasetSpec, "build_tasks", counting_build)
        first = workload_tasks(make_spec())
        assert calls == ["tiny-A"]
        assert len(first) > 0
        # An equal spec (a second session or figure cell) reads the memo.
        again = workload_tasks(make_spec())
        assert calls == ["tiny-A"], "a warm memo must skip the seeding/chaining build"
        assert again is first

    def test_changed_spec_rebuilds(self, tiny_spec, empty_memo):
        first = workload_tasks(tiny_spec)
        changed = make_spec(scoring=tiny_spec.scoring.replace(zdrop=40))
        rebuilt = workload_tasks(changed)
        assert rebuilt is not first
        assert all(task.scoring.zdrop == 40 for task in rebuilt)
        assert len(empty_memo) == 2
