"""GPU execution / cost-model simulator.

The paper's contribution is a set of *scheduling and memory-layout* schemes
for CUDA kernels; its speedups come from (a) how many score-table cells a
design computes (run-ahead past the termination point), (b) how many global
memory transactions it issues (anti-diagonal maximum tracking, intermediate
values, termination checks) and (c) how much idle time its work
distribution creates inside a warp (subwarp imbalance) and across warps
(straggler warps).  None of those quantities require silicon to evaluate --
they are properties of the schedule -- so this subpackage provides a
deterministic cost-model simulator in which all kernel designs (the
baselines of Section 5.2 and AGAThA itself) are expressed and compared.

Components
----------
``device``
    :class:`DeviceSpec` -- the hardware parameters the paper varies in its
    Section 5.8 study (RTX A6000, A100, RTX 2080Ti, an H100-with-DPX
    extrapolation) -- and :class:`CostModel`, the per-operation cycle costs.
``trace``
    Work/traffic accounting records produced per task, per subwarp, per
    warp and per kernel launch.
``warp``
    Warp / subwarp composition and divergence bookkeeping.
``executor``
    Maps warp workloads onto a device (resident-warp slots, greedy list
    scheduling), converts cycles to milliseconds, applies the
    memory-bandwidth roofline, and distributes work across multiple GPUs.
"""

from repro.gpusim.device import (
    CostModel,
    DeviceSpec,
    DEVICES,
    get_device,
    RTX_A6000,
    A100,
    RTX_2080TI,
    H100_DPX,
)
from repro.gpusim.trace import (
    MemoryTraffic,
    SubwarpWork,
    WarpWork,
    KernelLaunchStats,
)
from repro.gpusim.warp import SubwarpSlot, WarpAssignment, split_warp
from repro.gpusim.executor import GpuExecutor, MultiGpuExecutor, ExecutionReport

__all__ = [
    "CostModel",
    "DeviceSpec",
    "DEVICES",
    "get_device",
    "RTX_A6000",
    "A100",
    "RTX_2080TI",
    "H100_DPX",
    "MemoryTraffic",
    "SubwarpWork",
    "WarpWork",
    "KernelLaunchStats",
    "SubwarpSlot",
    "WarpAssignment",
    "split_warp",
    "GpuExecutor",
    "MultiGpuExecutor",
    "ExecutionReport",
]
