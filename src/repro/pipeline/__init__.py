"""End-to-end pipeline: read mapping and the experiment harness.

``mapper``
    :class:`LongReadMapper` ties the substrate together the way Minimap2
    does: minimizer indexing, chaining, extension-task extraction and
    guided alignment of the extension tasks.
``experiment``
    The named-workload lookup (:func:`dataset_tasks`), the scaled
    hardware pair and the geometric mean shared by every benchmark and
    example.
"""

from repro.pipeline.mapper import LongReadMapper, ReadMapping
from repro.pipeline.experiment import (
    dataset_tasks,
    all_dataset_names,
    scaled_hardware,
)

__all__ = [
    "LongReadMapper",
    "ReadMapping",
    "dataset_tasks",
    "all_dataset_names",
    "scaled_hardware",
]
