"""Uneven bucketing: inter-warp workload balancing (paper Section 4.4).

The workload distribution of real long-read datasets is heavily
long-tailed (Figure 3b): a small fraction of extension tasks is orders of
magnitude larger than the rest.  When tasks are dealt to warps in input
order, a single warp can end up with several of the monsters and dominates
the launch.  Uneven bucketing fixes this with a deliberately simple
two-step scheduler:

1. sort the tasks by workload and set aside the largest ``1 / N`` fraction
   (``N`` = subwarps per warp);
2. deal exactly one long task to each warp (its first subwarp slot) and
   fill the remaining ``N - 1`` slots of every warp with the short tasks
   in their original order.

The scheme owes its effectiveness to subwarp rejoining: the long task of a
warp keeps all subwarps of that warp busy via rejoining once the short
ones finish, so "one long task per warp" translates into "warps finish at
roughly the same time".

Besides uneven bucketing the module provides the two orderings the paper
compares against in Figure 11: the original input order and a plain sort.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.gpusim.warp import WarpAssignment, split_warp

__all__ = [
    "original_order",
    "sorted_order",
    "uneven_bucketing_order",
    "length_bucket_order",
    "assign_tasks_to_warps",
]


def original_order(workloads: Sequence[float]) -> List[int]:
    """Task indices in input order (the baseline assignment)."""
    return list(range(len(workloads)))


def sorted_order(workloads: Sequence[float], descending: bool = True) -> List[int]:
    """Task indices sorted by workload.

    Sorting groups similar-sized tasks into the same warp, which reduces
    intra-warp divergence but -- as Figure 13 shows -- concentrates the
    long tasks into a few warps that then dominate the launch.
    """
    w = np.asarray(workloads, dtype=np.float64)
    idx = np.argsort(-w if descending else w, kind="stable")
    return [int(i) for i in idx]


def uneven_bucketing_order(
    workloads: Sequence[float], subwarps_per_warp: int
) -> List[List[int]]:
    """Group task indices into per-warp buckets with one long task each.

    Parameters
    ----------
    workloads:
        Workload estimate per task (e.g. number of anti-diagonals or
        blocks; the paper sorts by anti-diagonal count).
    subwarps_per_warp:
        ``N``; the longest ``1 / N`` of the tasks are treated as "long".

    Returns
    -------
    list of lists
        One bucket per warp; bucket ``k`` lists the task indices of warp
        ``k``, long task first.  Every task appears in exactly one bucket.
    """
    if subwarps_per_warp <= 0:
        raise ValueError("subwarps_per_warp must be positive")
    n = len(workloads)
    if n == 0:
        return []
    w = np.asarray(workloads, dtype=np.float64)
    num_warps = -(-n // subwarps_per_warp)
    # Step 1: the longest 1/N of the tasks (one per warp).
    num_long = num_warps
    long_idx = list(np.argsort(-w, kind="stable")[:num_long])
    long_set = set(int(i) for i in long_idx)
    short_idx = [i for i in range(n) if i not in long_set]

    # Step 2: one long task per warp (largest first so the heaviest tasks
    # land on distinct warps even when there are fewer warps than long
    # tasks), then fill with short tasks in their original order.
    buckets: List[List[int]] = [[] for _ in range(num_warps)]
    for k in range(num_warps):
        if k < len(long_idx):
            buckets[k].append(int(long_idx[k]))
    cursor = 0
    for k in range(num_warps):
        while len(buckets[k]) < subwarps_per_warp and cursor < len(short_idx):
            buckets[k].append(short_idx[cursor])
            cursor += 1
    # Any remainder (when n is not a multiple of subwarps_per_warp the last
    # warp is simply short) -- nothing to do: all short tasks are placed
    # because total slots >= n.
    return buckets


def length_bucket_order(
    workloads: Sequence[float], bucket_size: int
) -> List[List[int]]:
    """Group task indices into size-homogeneous buckets for batch padding.

    This is the batching analogue of uneven bucketing: where
    :func:`uneven_bucketing_order` balances *warps* by mixing one long task
    with short ones, a struct-of-arrays batch engine wants the opposite --
    tasks of *similar* workload share a bucket so that padding every task
    to the bucket maximum (the GASAL2-style batch interface) wastes as
    little work as possible.

    Parameters
    ----------
    workloads:
        Workload estimate per task (the vector engine sorts by
        anti-diagonal count, the quantity that bounds sweep length).
    bucket_size:
        Maximum number of tasks per bucket.

    Returns
    -------
    list of lists
        Buckets of task indices, largest tasks first; every task appears
        in exactly one bucket and buckets hold at most ``bucket_size``
        tasks.
    """
    if bucket_size <= 0:
        raise ValueError("bucket_size must be positive")
    order = sorted_order(workloads, descending=True)
    return [
        order[k : k + bucket_size] for k in range(0, len(order), bucket_size)
    ]


def assign_tasks_to_warps(
    task_order_or_buckets,
    subwarp_size: int,
) -> List[WarpAssignment]:
    """Materialise warp assignments from an order or per-warp buckets.

    Accepts either a flat task order (list of indices; tasks are dealt one
    per subwarp, filling warps in sequence) or the bucket structure
    produced by :func:`uneven_bucketing_order` (bucket ``k`` populates warp
    ``k`` subwarp by subwarp, wrapping within the warp when a bucket holds
    more tasks than subwarps).
    """
    subwarps_per_warp = split_warp(subwarp_size)
    if not task_order_or_buckets:
        return []
    first = task_order_or_buckets[0]
    if isinstance(first, (list, tuple, np.ndarray)):
        buckets = [list(map(int, bucket)) for bucket in task_order_or_buckets]
    else:
        order = [int(i) for i in task_order_or_buckets]
        buckets = [
            order[k : k + subwarps_per_warp]
            for k in range(0, len(order), subwarps_per_warp)
        ]
    warps: List[WarpAssignment] = []
    for warp_id, bucket in enumerate(buckets):
        warp = WarpAssignment.empty(warp_id, subwarp_size)
        for slot, task_index in enumerate(bucket):
            warp.subwarps[slot % subwarps_per_warp].assign(task_index)
        warps.append(warp)
    return warps
