"""Pin the tasks every seeded workload build produces, byte for byte.

Each digest covers a build's tasks in order: ``task_id``, the scoring
scheme, and the reference and query bytes.  The nine evaluation datasets
and the ``map``-mode FASTA build run minimizer seeding and chaining
(:mod:`repro.io.seed_chain`); ``fasta-sample`` reads its pairs directly.
A digest that moves means a figure's inputs moved, so every simulated
record built from them moves too.
"""

import dataclasses
import hashlib

import pytest

from repro.io.datasets import DATASET_REGISTRY
from repro.workloads import get_workload

#: name -> (sha256 of the tasks, task count).
TASK_DIGESTS = {
    "HiFi-HG005": ("9d87d28ef35308b2d1486281769cfc674bd26379d32b7335d3dec33b2276db30", 444),
    "HiFi-HG006": ("6821dac499e72f08f4cf11c5cb33e6f9031c1e47b771f0393c3642afff398084", 369),
    "HiFi-HG007": ("a3f572f9fd973fe92b2327154be72c3cea60a78f321948c11c7a1bf9c9a7d627", 397),
    "CLR-HG002": ("1ecf4f3e525c12661c24761c71508f3db48e7f531cef281734d7da42073c7e52", 229),
    "CLR-HG003": ("71674ac23a9c174ef239a4a5dfdbc3cb0ac011fbdaa9b897761835e22fb0ea6c", 324),
    "CLR-HG004": ("50278cbd91be92c69513a04a7f77ffb8a095d8b184abcc631161d7171141bb5d", 299),
    "ONT-HG002": ("fd255c1b1507b2f98afb74989468e2500b3d3fd895114eb2b5887f3d10c6f5c2", 316),
    "ONT-HG003": ("b0348c81ff104a83bf35fef1bbe0dcafe63c3338b03dc2b0cc4cf8c7de05e16e", 268),
    "ONT-HG004": ("01804740a07ffe418ddf32f2dd524970ef148450e7a8cad5427fc49638631cdc", 245),
    "fasta-sample": ("9edb4b22c7f8c2c6fef3505436a100e51c0e833dd76dd588916461cafb44cb59", 16),
    "fasta-sample-map": ("f0f454b89133978f13cc996d5859dc06b65c4892af91d3ef5962c9f382530368", 63),
}


def _spec(name):
    if name in DATASET_REGISTRY:
        return DATASET_REGISTRY[name]
    if name == "fasta-sample-map":
        # The packaged pair, with the reads mapped onto the reference.
        return dataclasses.replace(get_workload("fasta-sample"), name=name, mode="map")
    return get_workload(name)


def task_digest(tasks):
    digest = hashlib.sha256()
    for task in tasks:
        header = f"{task.task_id}:{task.ref.size}:{task.query.size}:{task.scoring!r}\n"
        digest.update(header.encode())
        digest.update(task.ref.tobytes())
        digest.update(task.query.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(TASK_DIGESTS))
def test_build_tasks_are_unchanged(name):
    tasks = _spec(name).build_tasks()
    assert (task_digest(tasks), len(tasks)) == TASK_DIGESTS[name]


def test_every_dataset_is_pinned():
    assert set(DATASET_REGISTRY) <= set(TASK_DIGESTS)
