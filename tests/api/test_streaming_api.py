"""The public streaming surface: open_batch, capability flags, options.

``open_batch`` must hand back a native stream for engines that declare a
streaming factory and wrap everything else -- including third-party
``register_engine`` backends that never heard of streaming -- in the
:class:`OneShotBatch` adapter, with results bit-identical to
``align_tasks`` either way.  The registry's ``meta`` side-channel that
carries the capability is pinned here too.
"""

import numpy as np
import pytest

from repro.align.scoring import preset
from repro.align.sequence import mutate, random_sequence
from repro.align.types import AlignmentTask
from repro.align.vector import VectorStream, vector_align
from repro.api import (
    ENGINES,
    EngineOptions,
    InFlightBatch,
    OneShotBatch,
    align_tasks,
    open_batch,
    register_engine,
    supports_streaming,
)


@pytest.fixture
def tasks():
    rng = np.random.default_rng(37)
    scoring = preset("map-ont", band_width=16, zdrop=60)
    out = []
    for t in range(10):
        ref = random_sequence(int(rng.integers(30, 120)), rng)
        query = mutate(ref, rng, substitution_rate=0.06)
        out.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return out


class TestSupportsStreaming:
    def test_builtin_flags(self):
        assert supports_streaming("vector")
        assert not supports_streaming("scalar")

    def test_vector_streams_when_available(self):
        assert supports_streaming("vector")

    def test_unknown_engine_raises(self):
        with pytest.raises(KeyError, match="no-such-engine"):
            supports_streaming("no-such-engine")


class TestOpenBatch:
    def test_streaming_engine_gets_a_native_stream(self, tasks):
        handle = open_batch(tasks, engine="vector")
        assert isinstance(handle, VectorStream)
        assert isinstance(handle, InFlightBatch)
        for got, want in zip(handle.drain(), align_tasks(tasks, engine="vector")):
            assert got == want

    def test_one_shot_engine_gets_the_adapter(self, tasks):
        handle = open_batch(tasks, engine="scalar")
        assert isinstance(handle, OneShotBatch)
        assert handle.drain() == align_tasks(tasks, engine="scalar")

    def test_capacity_flows_through(self, tasks):
        handle = open_batch(tasks[:2], engine="vector", capacity=8)
        assert handle.capacity == 8 and handle.free == 6
        adapter = open_batch(tasks[:2], engine="scalar", capacity=8)
        assert adapter.capacity == 8 and adapter.free == 6

    def test_slice_width_option_reaches_the_stream(self, tasks):
        narrow = open_batch(
            tasks, engine="vector", options=EngineOptions(slice_width=1)
        )
        wide = open_batch(
            tasks, engine="vector", options=EngineOptions(slice_width=10_000)
        )
        narrow_results = narrow.drain()
        assert narrow_results == wide.drain()
        # One anti-diagonal per slice must take many more slices.
        assert len(narrow.stats) > len(wide.stats)

    def test_third_party_engine_through_adapter(self, tasks):
        calls = []

        @register_engine("adapter-test-engine")
        def third_party(batch, *, batch_size=4):
            calls.append(batch_size)
            return vector_align(batch)

        try:
            handle = open_batch(
                tasks, engine="adapter-test-engine", options=EngineOptions(batch_size=3)
            )
            assert isinstance(handle, OneShotBatch)
            assert not supports_streaming("adapter-test-engine")
            assert handle.drain() == vector_align(tasks)
            assert calls == [3]
        finally:
            ENGINES.unregister("adapter-test-engine")

    def test_third_party_streaming_factory(self, tasks):
        @register_engine(
            "stream-test-engine",
            open_batch=lambda batch, *, capacity=None, options: VectorStream(
                batch, capacity=capacity, slice_width=options.slice_width or 4
            ),
        )
        def streaming(batch, *, batch_size=4):
            return vector_align(batch)

        try:
            assert supports_streaming("stream-test-engine")
            handle = open_batch(tasks, engine="stream-test-engine")
            assert isinstance(handle, VectorStream)
            assert handle.drain() == vector_align(tasks)
        finally:
            ENGINES.unregister("stream-test-engine")


class TestRegistryMeta:
    def test_meta_roundtrip_and_isolation(self):
        ENGINES.register("meta-test", lambda t: [], meta={"option_params": ("x",)})
        try:
            meta = ENGINES.meta("meta-test")
            assert meta == {"option_params": ("x",)}
            meta["option_params"] = ("mutated",)
            assert ENGINES.meta("meta-test") == {"option_params": ("x",)}
        finally:
            ENGINES.unregister("meta-test")

    def test_reregister_without_meta_clears_it(self):
        ENGINES.register("meta-test", lambda t: [], meta={"k": 1})
        try:
            ENGINES.register("meta-test", lambda t: [], replace=True)
            assert ENGINES.meta("meta-test") == {}
        finally:
            ENGINES.unregister("meta-test")

    def test_meta_of_unknown_name_raises(self):
        with pytest.raises(KeyError):
            ENGINES.meta("never-registered")

    def test_unregister_drops_meta(self):
        ENGINES.register("meta-test", lambda t: [], meta={"k": 1})
        ENGINES.unregister("meta-test")
        ENGINES.register("meta-test", lambda t: [])
        try:
            assert ENGINES.meta("meta-test") == {}
        finally:
            ENGINES.unregister("meta-test")


class TestEngineOptions:
    def test_forwards_only_set_fields(self):
        opts = EngineOptions(batch_size=32)
        assert opts.engine_kwargs(("batch_size", "slice_width")) == {"batch_size": 32}
        assert opts.engine_kwargs(("slice_width",)) == {}
        full = EngineOptions(batch_size=8, slice_width=4)
        assert full.engine_kwargs(("batch_size", "slice_width")) == {
            "batch_size": 8,
            "slice_width": 4,
        }

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            EngineOptions(batch_size=0)
        with pytest.raises(ValueError, match="slice_width"):
            EngineOptions(slice_width=-2)
        with pytest.raises(ValueError, match="batch_size"):
            EngineOptions(batch_size=2.5)

    def test_replace(self):
        opts = EngineOptions(batch_size=16)
        derived = opts.replace(slice_width=8)
        assert derived == EngineOptions(batch_size=16, slice_width=8)
        assert opts.slice_width is None
