"""Tiny dataset specs shared by the repro.bench tests.

Deliberately small (a few short reads over a small reference) so memo
and runner behaviour -- including real process-pool sharding -- can be
exercised in seconds.
"""

from __future__ import annotations

from repro.align.scoring import preset
from repro.io.datasets import DatasetSpec

TINY_SCORING = preset("map-ont", band_width=16, zdrop=80)


def make_spec(name: str = "tiny-A", seed: int = 7, **overrides) -> DatasetSpec:
    base = dict(
        name=name,
        technology="HiFi",
        seed=seed,
        num_reads=4,
        reference_length=4000,
        scoring=TINY_SCORING,
    )
    base.update(overrides)
    return DatasetSpec(**base)
