"""Synthetic references, technology-specific read simulators and the
named dataset registry.

The paper evaluates on nine GIAB read sets (HiFi HG005-007, CLR
HG002-004, ONT HG002-004) mapped to GRCh38.  Neither the 3.1-Gbp
reference nor the read archives are available offline, so this module
generates *seeded synthetic equivalents* whose properties match what the
alignment kernel actually cares about:

* per-technology read length distributions (log-normal; ONT with a much
  heavier tail than HiFi);
* per-technology error profiles (HiFi nearly clean, CLR/ONT noisy with
  indel-dominated errors);
* a fraction of junk and chimeric reads, which after seeding/chaining
  produce the rare, very large extension tasks responsible for the
  long-tailed workload distribution of Figure 3(b).

Everything is deterministic given the dataset name: each registry entry
carries its own RNG seed, so two runs of the benchmark harness see
identical workloads.

Scale note: lengths here are scaled down (kilobase reads instead of
10-100 kb, a 60-kb reference window instead of 3.1 Gb).  Profiling no
longer needs the small scale -- every profile comes from one batched
vector sweep -- but ``benchmarks/baseline.json`` pins the fig08 records
these sizes produce, so they stay; a paper-scale variant is the stretch
goal of ROADMAP item 3.  The *shape* of the distribution (ratio of long
to short tasks, tail fraction) follows the paper; see DESIGN.md for the
substitution argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.align.scoring import ScoringScheme
from repro.align.sequence import mutate, random_sequence
from repro.align.types import AlignmentTask

__all__ = [
    "ReadProfile",
    "TECHNOLOGY_PROFILES",
    "SimulatedRead",
    "DatasetSpec",
    "DATASET_REGISTRY",
    "synthetic_reference",
    "simulate_reads",
    "build_dataset",
    "long_short_mixture_tasks",
]


@dataclass(frozen=True)
class ReadProfile:
    """Sequencing-technology model used by the read simulator.

    Attributes
    ----------
    name:
        Technology label (``HiFi``, ``CLR``, ``ONT``).
    mean_length / sigma_length:
        Parameters of the log-normal read-length distribution (bases).
    max_length:
        Hard cap on simulated read length.
    substitution_rate / insertion_rate / deletion_rate:
        Per-base error probabilities applied to the extracted reference
        substring.
    junk_fraction:
        Fraction of reads that are pure noise (do not originate from the
        reference); they exercise the unmapped/terminating path.
    chimera_fraction:
        Fraction of reads whose tail comes from an unrelated locus; these
        are the main source of very large right-extension tasks.
    junk_tail_fraction:
        Fraction of reads whose tail is replaced by random sequence (e.g.
        retained adapter / low-quality tail).  Their right extensions start
        aligning and then degrade, which is the canonical case in which the
        Z-drop condition terminates the alignment early.
    burst_fraction:
        Fraction of reads containing a low-quality *burst*: a long internal
        segment with elevated error where minimizer anchors disappear.
        After chaining, the burst becomes a single large inter-anchor
        extension task -- the mechanism behind the far-right peak of the
        workload distribution (Figure 3b).
    burst_error:
        Substitution-dominated error rate inside a burst.
    """

    name: str
    mean_length: float
    sigma_length: float
    max_length: int
    substitution_rate: float
    insertion_rate: float
    deletion_rate: float
    junk_fraction: float = 0.04
    chimera_fraction: float = 0.08
    burst_fraction: float = 0.15
    burst_error: float = 0.12
    junk_tail_fraction: float = 0.15

    def sample_length(self, rng: np.random.Generator) -> int:
        """Draw one read length."""
        mu = np.log(self.mean_length)
        length = int(rng.lognormal(mean=mu, sigma=self.sigma_length))
        return int(np.clip(length, 64, self.max_length))


#: Technology presets (scaled-down lengths, realistic error mixes).
TECHNOLOGY_PROFILES: Dict[str, ReadProfile] = {
    "HiFi": ReadProfile(
        name="HiFi",
        mean_length=1400.0,
        sigma_length=0.40,
        max_length=5000,
        substitution_rate=0.002,
        insertion_rate=0.003,
        deletion_rate=0.003,
        junk_fraction=0.03,
        chimera_fraction=0.08,
        burst_fraction=0.22,
        burst_error=0.12,
        junk_tail_fraction=0.18,
    ),
    "CLR": ReadProfile(
        name="CLR",
        mean_length=1500.0,
        sigma_length=0.50,
        max_length=6000,
        substitution_rate=0.05,
        insertion_rate=0.06,
        deletion_rate=0.03,
        junk_fraction=0.05,
        chimera_fraction=0.10,
        burst_fraction=0.20,
        burst_error=0.22,
        junk_tail_fraction=0.20,
    ),
    "ONT": ReadProfile(
        name="ONT",
        mean_length=1000.0,
        sigma_length=0.85,
        max_length=7000,
        substitution_rate=0.04,
        insertion_rate=0.03,
        deletion_rate=0.04,
        junk_fraction=0.05,
        chimera_fraction=0.12,
        burst_fraction=0.20,
        burst_error=0.13,
    ),
}


@dataclass
class SimulatedRead:
    """One simulated read and its provenance."""

    read_id: int
    sequence: np.ndarray
    true_start: int
    is_junk: bool = False
    is_chimeric: bool = False

    @property
    def length(self) -> int:
        return int(self.sequence.size)


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset: technology profile, scoring scheme and sizes."""

    name: str
    technology: str
    seed: int
    num_reads: int
    reference_length: int
    scoring: ScoringScheme

    @property
    def profile(self) -> ReadProfile:
        return TECHNOLOGY_PROFILES[self.technology]

    def build_tasks(self) -> List[AlignmentTask]:
        """Materialise the workload: seed and chain the simulated reads.

        Builds the synthetic reference and reads, indexes the reference,
        chains every read and extracts its extension-alignment tasks
        (paper Section 5.1) -- the same build hook registered workloads
        implement (:mod:`repro.workloads.base`).
        """
        # Imported here: repro.pipeline imports this module at load time.
        from repro.pipeline.mapper import LongReadMapper

        reference, reads = build_dataset(self)
        mapper = LongReadMapper(reference, self.scoring)
        return mapper.workload([r.sequence for r in reads])


def _scaled_scoring(preset_name: str, band_width: int, zdrop: int) -> ScoringScheme:
    from repro.align.scoring import preset

    return preset(preset_name, band_width=band_width, zdrop=zdrop)


def _registry() -> Dict[str, DatasetSpec]:
    """The nine evaluation datasets (scaled) keyed by their paper name."""
    specs: Dict[str, DatasetSpec] = {}
    hifi_scoring = _scaled_scoring("map-hifi", band_width=96, zdrop=120)
    clr_scoring = _scaled_scoring("map-pb", band_width=64, zdrop=160)
    ont_scoring = _scaled_scoring("map-ont", band_width=64, zdrop=160)
    layout = [
        ("HiFi-HG005", "HiFi", 1005, hifi_scoring, 48),
        ("HiFi-HG006", "HiFi", 1006, hifi_scoring, 48),
        ("HiFi-HG007", "HiFi", 1007, hifi_scoring, 48),
        ("CLR-HG002", "CLR", 2002, clr_scoring, 40),
        ("CLR-HG003", "CLR", 2003, clr_scoring, 40),
        ("CLR-HG004", "CLR", 2004, clr_scoring, 40),
        ("ONT-HG002", "ONT", 3002, ont_scoring, 40),
        ("ONT-HG003", "ONT", 3003, ont_scoring, 40),
        ("ONT-HG004", "ONT", 3004, ont_scoring, 40),
    ]
    for name, tech, seed, scoring, num_reads in layout:
        specs[name] = DatasetSpec(
            name=name,
            technology=tech,
            seed=seed,
            num_reads=num_reads,
            reference_length=60_000,
            scoring=scoring,
        )
    return specs


#: The nine named datasets of the evaluation (Section 5.1), scaled down.
DATASET_REGISTRY: Dict[str, DatasetSpec] = _registry()



# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def synthetic_reference(length: int, rng: np.random.Generator) -> np.ndarray:
    """A synthetic reference with mild repeat structure.

    A fraction of the sequence is built by copying earlier segments
    (tandem-duplication-style) so that minimizer seeding encounters some
    repetitiveness, as a real genome would.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    base = random_sequence(length, rng)
    # Plant a handful of duplicated segments.
    num_repeats = max(1, length // 20_000)
    for _ in range(num_repeats):
        seg_len = int(rng.integers(500, 2000))
        if length <= 2 * seg_len:
            break
        src = int(rng.integers(0, length - seg_len))
        dst = int(rng.integers(0, length - seg_len))
        base[dst : dst + seg_len] = base[src : src + seg_len]
    return base


def simulate_reads(
    reference: np.ndarray,
    profile: ReadProfile,
    num_reads: int,
    rng: np.random.Generator,
) -> List[SimulatedRead]:
    """Simulate ``num_reads`` reads from ``reference`` under ``profile``."""
    reference = np.asarray(reference, dtype=np.uint8)
    reads: List[SimulatedRead] = []
    for read_id in range(num_reads):
        length = profile.sample_length(rng)
        length = min(length, reference.size - 1)
        u = rng.random()
        if u < profile.junk_fraction:
            reads.append(
                SimulatedRead(
                    read_id=read_id,
                    sequence=random_sequence(length, rng),
                    true_start=-1,
                    is_junk=True,
                )
            )
            continue
        start = int(rng.integers(0, reference.size - length))
        fragment = reference[start : start + length]
        chimera_cutoff = profile.junk_fraction + profile.chimera_fraction
        tail_cutoff = chimera_cutoff + profile.junk_tail_fraction
        burst_cutoff = tail_cutoff + profile.burst_fraction
        if u < chimera_cutoff and length >= 256:
            # Chimeric read: the tail (25-75% of the read) comes from an
            # unrelated locus, leaving a long right-extension task that the
            # termination condition cuts short.
            keep = int(length * rng.uniform(0.2, 0.5))
            tail = length - keep
            other = int(rng.integers(0, reference.size - tail))
            fragment = np.concatenate([fragment[:keep], reference[other : other + tail]])
            chimeric = True
        elif chimera_cutoff <= u < tail_cutoff and length >= 256:
            # Junk tail: the last 55-80% of the read is random sequence.
            keep = int(length * rng.uniform(0.2, 0.45))
            fragment = np.concatenate(
                [fragment[:keep], random_sequence(length - keep, rng)]
            )
            chimeric = False
        else:
            chimeric = False
        sequence = mutate(
            fragment,
            rng,
            substitution_rate=profile.substitution_rate,
            insertion_rate=profile.insertion_rate,
            deletion_rate=profile.deletion_rate,
        )
        if not chimeric and tail_cutoff <= u < burst_cutoff and sequence.size >= 512:
            # Low-quality burst: a long internal window with elevated error.
            # Anchors vanish inside it, so chaining leaves one large
            # inter-anchor extension task behind.
            burst_len = int(rng.integers(sequence.size // 4, int(sequence.size * 0.6)))
            burst_start = int(rng.integers(0, sequence.size - burst_len))
            window = sequence[burst_start : burst_start + burst_len]
            noisy = mutate(
                window,
                rng,
                substitution_rate=profile.burst_error,
                insertion_rate=profile.burst_error / 4,
                deletion_rate=profile.burst_error / 4,
            )
            sequence = np.concatenate(
                [sequence[:burst_start], noisy, sequence[burst_start + burst_len :]]
            )
        reads.append(
            SimulatedRead(
                read_id=read_id,
                sequence=sequence,
                true_start=start,
                is_chimeric=chimeric,
            )
        )
    return reads


def build_dataset(spec: DatasetSpec) -> tuple[np.ndarray, List[SimulatedRead]]:
    """Materialise one registry dataset: reference plus simulated reads."""
    rng = np.random.default_rng(spec.seed)
    reference = synthetic_reference(spec.reference_length, rng)
    reads = simulate_reads(reference, spec.profile, spec.num_reads, rng)
    return reference, reads


# ----------------------------------------------------------------------
# Figure 13: controlled long/short mixtures
# ----------------------------------------------------------------------
def long_short_mixture_tasks(
    long_fraction: float,
    num_tasks: int,
    scoring: ScoringScheme,
    *,
    long_length: int = 4096,
    short_length: int = 128,
    divergence: float = 0.05,
    seed: int = 13,
) -> List[AlignmentTask]:
    """Generated dataset of Section 5.6 / Figure 13.

    ``long_fraction`` of the tasks align ``long_length``-bp pairs, the rest
    ``short_length``-bp pairs; pairs are related sequences with
    ``divergence`` substitution-dominated error so the long tasks genuinely
    run long (no early termination).  The long tasks are spread uniformly
    through the input order, matching how they would arrive from a real
    read stream.
    """
    if not 0.0 <= long_fraction <= 1.0:
        raise ValueError("long_fraction must be in [0, 1]")
    if num_tasks <= 0:
        raise ValueError("num_tasks must be positive")
    rng = np.random.default_rng(seed)
    num_long = int(round(long_fraction * num_tasks))
    is_long = np.zeros(num_tasks, dtype=bool)
    if num_long:
        stride = max(1, num_tasks // num_long)
        is_long[::stride] = True
        # Adjust to the exact count.
        excess = int(is_long.sum()) - num_long
        if excess > 0:
            on = np.flatnonzero(is_long)
            is_long[on[-excess:]] = False
    tasks: List[AlignmentTask] = []
    for t in range(num_tasks):
        length = long_length if is_long[t] else short_length
        ref = random_sequence(length, rng)
        query = mutate(
            ref,
            rng,
            substitution_rate=divergence,
            insertion_rate=divergence / 3,
            deletion_rate=divergence / 3,
        )
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks
