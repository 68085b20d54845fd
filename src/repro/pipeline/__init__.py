"""End-to-end pipeline: read mapping and the experiment harness.

``mapper``
    :class:`LongReadMapper` ties the substrate together the way Minimap2
    does: minimizer indexing, chaining, extension-task extraction and
    guided alignment of the extension tasks.
``experiment``
    Builders for the evaluation workloads (the nine named datasets, the
    long/short mixtures), the scaled hardware pair, and the speedup
    helpers shared by every benchmark and example.
"""

from repro.pipeline.mapper import LongReadMapper, ReadMapping
from repro.pipeline.experiment import (
    ExperimentConfig,
    dataset_tasks,
    all_dataset_names,
    scaled_hardware,
    speedup_table,
)

__all__ = [
    "LongReadMapper",
    "ReadMapping",
    "ExperimentConfig",
    "dataset_tasks",
    "all_dataset_names",
    "scaled_hardware",
    "speedup_table",
]
