"""Kernel-vs-CPU comparison: the one implementation behind every caller.

Time the CPU anchor once, simulate every kernel of a suite over the same
workload, and report each launch summary extended with its speedup over
the CPU.  The sharded bench workers (:func:`repro.bench.runner.run_cell`)
and :meth:`repro.api.Session.compare` both call this function, so the
two paths cannot drift apart.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.align.types import AlignmentTask
from repro.api.results import ComparisonOutcome, CpuSummary, KernelSummary
from repro.baselines.aligner import CpuAligner, Minimap2CpuAligner
from repro.baselines.cpu_model import CpuSpec
from repro.gpusim.device import CostModel, DeviceSpec
from repro.kernels import GuidedKernel

__all__ = ["compare_suite"]


def compare_suite(
    tasks: Sequence[AlignmentTask],
    kernels: Mapping[str, GuidedKernel],
    *,
    device: Optional[DeviceSpec] = None,
    cpu: Optional[CpuSpec] = None,
    cost: Optional[CostModel] = None,
    cpu_aligner: Optional[CpuAligner] = None,
) -> ComparisonOutcome:
    """Simulate every kernel over ``tasks`` against one CPU anchor.

    ``device`` / ``cpu`` default to the scaled hardware pair (see
    DESIGN.md); ``cpu_aligner`` defaults to the Minimap2 CPU model and
    can be swapped for e.g. :class:`repro.baselines.aligner.BwaMemCpuAligner`.
    ``ComparisonOutcome.to_dict()`` is the plain ``name -> summary``
    mapping with the CPU anchor under ``"CPU"``.

    Examples
    --------
    Any registered suite can be compared over any workload; one tiny
    task against the Figure-8 MM2-Target line-up:

    >>> from repro.api.suites import build_suite
    >>> from repro.align.scoring import preset
    >>> from repro.align.sequence import encode
    >>> from repro.align.types import AlignmentTask
    >>> task = AlignmentTask(ref=encode("ACGTACGT"), query=encode("ACGTACGT"),
    ...                      scoring=preset("figure1"))
    >>> outcome = compare_suite([task], build_suite("mm2"))
    >>> sorted(outcome.kernels)
    ['AGAThA', 'GASAL2', 'Manymap', 'SALoBa']
    >>> all(summary.time_ms > 0 for summary in outcome.kernels.values())
    True
    """
    if device is None or cpu is None:
        # Imported lazily: repro.pipeline imports repro.api.
        from repro.pipeline.experiment import scaled_hardware

        scaled_device, scaled_cpu = scaled_hardware()
        device = device or scaled_device
        cpu = cpu or scaled_cpu
    aligner = cpu_aligner if cpu_aligner is not None else Minimap2CpuAligner(cpu)
    cpu_ms = aligner.time_ms(tasks)
    summaries: Dict[str, KernelSummary] = {}
    for name, kernel in kernels.items():
        stats = kernel.simulate(tasks, device, cost)
        summary = dict(stats.summary())
        summary["speedup_vs_cpu"] = (
            cpu_ms / stats.time_ms if stats.time_ms > 0 else float("inf")
        )
        summaries[name] = KernelSummary.from_summary(summary)
    return ComparisonOutcome(
        cpu=CpuSummary(kernel=aligner.display_name, time_ms=cpu_ms),
        kernels=summaries,
    )
