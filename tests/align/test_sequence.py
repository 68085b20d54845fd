"""Tests for nucleotide encoding and the synthetic error model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.sequence import (
    ALPHABET,
    BASE_TO_CODE,
    decode,
    encode,
    mutate,
    random_sequence,
)


class TestEncodeDecode:
    def test_encode_string(self):
        assert encode("ACGTN").tolist() == [0, 1, 2, 3, 4]

    def test_encode_lowercase(self):
        assert encode("acgt").tolist() == [0, 1, 2, 3]

    def test_unknown_characters_become_n(self):
        assert encode("AXZ").tolist() == [0, 4, 4]

    def test_encode_list_of_codes(self):
        assert encode([0, 3, 2]).tolist() == [0, 3, 2]

    def test_encode_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            encode([0, 9])

    def test_encode_rejects_2d_arrays(self):
        with pytest.raises(ValueError):
            encode(np.zeros((2, 2), dtype=np.uint8))

    def test_decode_round_trip(self):
        assert decode(encode("GATTACA")) == "GATTACA"

    def test_decode_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            decode(np.array([0, 7], dtype=np.uint8))

    @given(st.text(alphabet=ALPHABET, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, text):
        assert decode(encode(text)) == text


class TestRandomSequence:
    def test_length_and_range(self):
        rng = np.random.default_rng(0)
        seq = random_sequence(500, rng)
        assert seq.size == 500
        assert seq.max() < 4

    def test_n_fraction(self):
        rng = np.random.default_rng(0)
        seq = random_sequence(2000, rng, n_fraction=0.5)
        n_count = int((seq == BASE_TO_CODE["N"]).sum())
        assert 700 < n_count < 1300

    def test_zero_length(self):
        assert random_sequence(0, np.random.default_rng(0)).size == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            random_sequence(-1, np.random.default_rng(0))

    def test_bad_n_fraction_rejected(self):
        with pytest.raises(ValueError):
            random_sequence(10, np.random.default_rng(0), n_fraction=1.5)


class TestMutate:
    def test_no_errors_is_identity(self):
        rng = np.random.default_rng(1)
        seq = random_sequence(300, rng)
        assert np.array_equal(mutate(seq, rng), seq)

    def test_substitutions_preserve_length(self):
        rng = np.random.default_rng(1)
        seq = random_sequence(300, rng)
        out = mutate(seq, rng, substitution_rate=0.5)
        assert out.size == seq.size
        assert not np.array_equal(out, seq)

    def test_substituted_bases_differ(self):
        rng = np.random.default_rng(1)
        seq = random_sequence(500, rng)
        out = mutate(seq, rng, substitution_rate=1.0)
        assert not np.any(out == seq)

    def test_deletions_shorten(self):
        rng = np.random.default_rng(2)
        seq = random_sequence(400, rng)
        out = mutate(seq, rng, deletion_rate=0.3)
        assert out.size < seq.size

    def test_insertions_lengthen(self):
        rng = np.random.default_rng(3)
        seq = random_sequence(400, rng)
        out = mutate(seq, rng, insertion_rate=0.3)
        assert out.size > seq.size

    def test_empty_sequence(self):
        rng = np.random.default_rng(4)
        out = mutate(np.empty(0, dtype=np.uint8), rng, substitution_rate=0.5)
        assert out.size == 0

    def test_invalid_rate_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            mutate(random_sequence(10, rng), rng, substitution_rate=1.5)

    def test_invalid_indel_length_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            mutate(random_sequence(10, rng), rng, max_indel_length=0)
