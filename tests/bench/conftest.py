"""Shared fixtures for the repro.bench test suite."""

from __future__ import annotations

import pytest

from tiny_workloads import make_spec


@pytest.fixture
def tiny_spec():
    return make_spec()


@pytest.fixture
def tiny_specs() -> list:
    return [
        make_spec("tiny-A", seed=7, technology="HiFi"),
        make_spec("tiny-B", seed=9, technology="ONT"),
    ]
