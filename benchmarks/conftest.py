"""Pytest fixtures for the benchmark harness.

Datasets are built once per session -- by the in-process workload memo
(``repro.bench.cache``) -- and shared by every figure benchmark;
hardware is the scaled device/CPU pair described in DESIGN.md.

``repro`` comes from the installed package, ``PYTHONPATH`` or the
repository-root ``conftest.py``; ``bench_utils`` is importable because
pytest puts this directory on ``sys.path`` when collecting it (rootdir
insertion for test packages without ``__init__.py``).
"""

from __future__ import annotations

import pytest

from repro.pipeline.experiment import (
    all_dataset_names,
    dataset_tasks,
    scaled_hardware,
)

from bench_utils import REPRESENTATIVE_DATASETS


@pytest.fixture(scope="session")
def hardware():
    """The scaled (device, cpu) pair used throughout the harness."""
    return scaled_hardware()


@pytest.fixture(scope="session")
def all_datasets():
    """Mapping of dataset name -> tuple of alignment tasks (all nine)."""
    return {name: dataset_tasks(name) for name in all_dataset_names()}


@pytest.fixture(scope="session")
def representative_datasets():
    """One dataset per sequencing technology."""
    return {name: dataset_tasks(name) for name in REPRESENTATIVE_DATASETS}
