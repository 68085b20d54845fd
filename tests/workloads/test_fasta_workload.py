"""Tests for FASTA-backed workloads and their memo fingerprinting."""

import numpy as np
import pytest

from repro.align.scoring import preset
from repro.align.sequence import mutate, random_sequence
from repro.bench.cache import spec_fingerprint, workload_tasks
from repro.io.fasta import FastaRecord, write_fasta
from repro.workloads import FastaWorkloadSpec, file_sha256, get_workload

SCORING = preset("map-ont", band_width=32, zdrop=150)


@pytest.fixture
def fasta_pair(tmp_path, rng):
    """A small on-disk reference/reads FASTA pair (plain text)."""
    refs, reads = [], []
    for i in range(6):
        ref = random_sequence(int(rng.integers(150, 400)), rng)
        query = mutate(
            ref, rng, substitution_rate=0.05, insertion_rate=0.02, deletion_rate=0.02
        )
        refs.append(FastaRecord(name=f"ref{i}", sequence=ref))
        reads.append(FastaRecord(name=f"read{i}", sequence=query))
    ref_path = tmp_path / "ref.fasta"
    reads_path = tmp_path / "reads.fasta"
    write_fasta(ref_path, refs)
    write_fasta(reads_path, reads)
    return ref_path, reads_path


def make_spec(ref_path, reads_path, **overrides):
    params = dict(
        name="test-fasta",
        scoring=SCORING,
        ref_path=str(ref_path),
        reads_path=str(reads_path),
    )
    params.update(overrides)
    return FastaWorkloadSpec(**params)


class TestValidation:
    def test_needs_both_paths(self):
        with pytest.raises(ValueError, match="ref_path"):
            FastaWorkloadSpec(name="x", scoring=SCORING, ref_path="a.fasta")

    def test_unknown_mode_lists_choices(self, fasta_pair):
        with pytest.raises(ValueError, match="pairs"):
            make_spec(*fasta_pair, mode="nope")

    def test_negative_max_tasks_rejected(self, fasta_pair):
        with pytest.raises(ValueError, match="max_tasks"):
            make_spec(*fasta_pair, max_tasks=-1)


class TestBuild:
    def test_pairs_mode_one_task_per_record_pair(self, fasta_pair):
        tasks = make_spec(*fasta_pair).build_tasks()
        assert len(tasks) == 6
        assert [t.task_id for t in tasks] == list(range(6))
        assert all(t.scoring == SCORING for t in tasks)

    def test_pairs_mode_rejects_record_count_mismatch(self, fasta_pair, tmp_path, rng):
        ref_path, _ = fasta_pair
        short = tmp_path / "short.fasta"
        write_fasta(short, [FastaRecord(name="only", sequence=random_sequence(80, rng))])
        with pytest.raises(ValueError, match="1:1"):
            make_spec(ref_path, short).build_tasks()

    def test_map_mode_runs_the_seeding_pipeline(self, fasta_pair):
        tasks = make_spec(*fasta_pair, mode="map").build_tasks()
        # Chaining decides the task count; the pipeline must produce
        # something for near-identical read/reference pairs.
        assert len(tasks) > 0

    def test_max_tasks_truncates(self, fasta_pair):
        tasks = make_spec(*fasta_pair, max_tasks=2).build_tasks()
        assert len(tasks) == 2

    def test_builtin_sample_is_gzipped_and_builds(self):
        spec = get_workload("fasta-sample")
        assert spec.ref_path.endswith(".fasta.gz")
        tasks = spec.build_tasks()
        assert len(tasks) == 16


class TestCaching:
    def test_fingerprint_includes_file_hashes(self, fasta_pair):
        spec = make_spec(*fasta_pair)
        extra = spec.cache_fingerprint_extra()
        assert extra == {
            "ref_sha256": file_sha256(spec.ref_path),
            "reads_sha256": file_sha256(spec.reads_path),
        }

    def test_editing_a_file_invalidates_the_cache_entry(self, fasta_pair):
        ref_path, reads_path = fasta_pair
        spec = make_spec(ref_path, reads_path)
        first = workload_tasks(spec)
        before = spec_fingerprint(spec)

        # Edit one base in the reads file; the spec itself is unchanged.
        text = reads_path.read_text()
        reads_path.write_text(text.replace("A", "C", 1))

        assert spec_fingerprint(spec) != before
        # Unchanged spec, changed file: the memo builds a new tuple.
        second = workload_tasks(spec)
        assert second is not first
        assert workload_tasks(spec) is second
        assert not np.array_equal(first[0].query, second[0].query)
