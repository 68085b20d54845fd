#!/usr/bin/env python3
"""Quickstart: guided alignment through the ``repro.api`` session façade.

Builds two task pairs -- a noisy copy of a reference segment and a fully
divergent pair -- scores them in one call through a :class:`repro.api.Session`
(struct-of-arrays vector engine by default), shows the score, the
termination behaviour and the reconstructed CIGAR, and demonstrates that
the divergent pair is cut short by the Z-drop condition.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import Session
from repro.align import (
    AlignmentTask,
    mutate,
    preset,
    random_sequence,
    traceback_align,
)


def main() -> None:
    rng = np.random.default_rng(42)
    scoring = preset("map-ont", band_width=64, zdrop=200)
    print("Scoring scheme:", scoring.describe())

    # --- two task pairs: a read-like noisy copy, and unrelated junk ------
    reference = random_sequence(600, rng)
    query = mutate(
        reference,
        rng,
        substitution_rate=0.05,
        insertion_rate=0.02,
        deletion_rate=0.02,
    )
    junk = random_sequence(600, rng)
    tasks = [
        AlignmentTask(ref=reference, query=query, scoring=scoring, task_id=0),
        AlignmentTask(ref=reference, query=junk, scoring=scoring, task_id=1),
    ]

    # One configured session, one call: the whole workload is scored by
    # the registered "vector" engine (swap engine="scalar" for the oracle).
    session = Session(tasks=tasks)
    outcome = session.align()
    result, divergent = outcome.results
    print(f"\nengine: {outcome.engine!r} over {len(outcome)} tasks")

    print("\n[similar pair]")
    print(f"  score                 : {result.score}")
    print(f"  best cell (ref, query): ({result.max_i}, {result.max_j})")
    print(f"  terminated by Z-drop  : {result.terminated}")
    print(f"  cells computed        : {result.cells_computed}")

    tb = traceback_align(reference[:200], query[:200], scoring)
    print(f"  CIGAR (first 200 bp)  : {tb.cigar.to_string()}")
    print(f"  matches / edits       : {tb.cigar.matches} / {tb.cigar.edit_distance}")

    # --- the divergent pair: Z-drop stops the computation early -----------
    print("\n[divergent pair]")
    print(f"  score                 : {divergent.score}")
    print(f"  terminated by Z-drop  : {divergent.terminated}")
    print(
        f"  anti-diagonals done   : {divergent.antidiagonals_processed} "
        f"of {reference.size + junk.size - 1}"
    )
    unguided = Session(
        tasks=[
            AlignmentTask(
                ref=reference, query=junk, scoring=scoring.replace(zdrop=0), task_id=0
            )
        ]
    ).align()
    saved = 1 - divergent.cells_computed / max(unguided[0].cells_computed, 1)
    print(f"  work saved by guiding : {saved:.0%}")


if __name__ == "__main__":
    main()
