"""Experiment helpers shared by the benchmarks and the examples.

The module provides the small pieces every figure reproduction needs:

* :func:`dataset_tasks` -- the extension-alignment workload of one named
  dataset or registered workload, served by the one in-process task memo
  (:func:`repro.bench.cache.workload_tasks`);
* :func:`scaled_hardware` -- the device / CPU pair used for timing.  The
  benchmark workloads are a few hundred tasks instead of the paper's
  50 000-read datasets, so both machines are scaled down by the same
  factor; ratios between kernels and against the CPU anchor are
  preserved (see DESIGN.md);
* :func:`geometric_mean` -- the paper's aggregation of speedups.

Speedup tables come from the sharded runner
(``run_figure(...).speedup_table(suite)``, :mod:`repro.bench.runner`); kernel
line-ups, workload scoring and suite comparisons live behind the
:mod:`repro.api` registries and :class:`repro.api.Session` (see
DESIGN.md, "The public API layer").
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.align.types import AlignmentTask
from repro.baselines.cpu_model import CpuSpec, EPYC_16C_SSE4
from repro.gpusim.device import DeviceSpec, RTX_A6000
from repro.io.datasets import DATASET_REGISTRY

__all__ = [
    "all_dataset_names",
    "dataset_tasks",
    "scaled_hardware",
    "geometric_mean",
]


#: Default hardware scale factor: the benchmark datasets hold a few hundred
#: tasks, which saturate roughly one SM worth of an A6000, so the hardware
#: pair is scaled down to that size on both sides (ratios are preserved).
DEFAULT_HARDWARE_SCALE: float = 1.0 / 84.0


def all_dataset_names() -> List[str]:
    """The nine dataset names in the paper's plotting order."""
    return list(DATASET_REGISTRY)


# ----------------------------------------------------------------------
# workload construction
# ----------------------------------------------------------------------
def dataset_tasks(name: str) -> tuple[AlignmentTask, ...]:
    """Tasks of one named dataset or registered workload.

    The tasks come from the in-process memo
    :func:`repro.bench.cache.workload_tasks`, which builds the workload
    once per process and retains the task objects together with each
    task's alignment profile (computed by the first consumer's batched
    :func:`~repro.align.vector.task_profiles` sweep), so the dynamic
    program runs once per task no matter how many kernels, figures and
    sessions reuse the workload within one process.
    """
    # Imported lazily: repro.bench and repro.workloads import repro.api,
    # which imports this module.
    from repro.bench.cache import workload_tasks
    from repro.workloads import resolve_spec

    return workload_tasks(resolve_spec(name))


# ----------------------------------------------------------------------
# hardware
# ----------------------------------------------------------------------
def scaled_hardware(
    scale: float = DEFAULT_HARDWARE_SCALE,
    device: DeviceSpec = RTX_A6000,
    cpu: CpuSpec = EPYC_16C_SSE4,
) -> tuple[DeviceSpec, CpuSpec]:
    """Scale the GPU and the CPU by exactly the same factor.

    The GPU scales through its SM count (integer), so the CPU is scaled by
    the *achieved* GPU factor rather than the requested one to keep the
    ratio exact.
    """
    scaled_device = device.scale(scale)
    achieved = scaled_device.num_sms / device.num_sms
    scaled_cpu = cpu.scale(achieved)
    return scaled_device, scaled_cpu


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the aggregation the paper uses for speedups)."""
    arr = np.asarray([v for v in values if v > 0], dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.exp(np.log(arr).mean()))
