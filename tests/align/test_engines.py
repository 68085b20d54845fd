"""Equivalence and behaviour tests for the alignment engines.

The scalar oracle (:mod:`repro.align.reference`) defines the semantics;
the vectorised wavefront engine must reproduce it exactly on every input,
banded or not, with or without termination.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.antidiagonal import WavefrontState, antidiagonal_align
from repro.align.reference import reference_align, reference_score_table
from repro.align.scoring import ScoringScheme, preset
from repro.align.sequence import encode, mutate, random_sequence
from repro.align.termination import NEG_INF, XDrop

SEQ = st.text(alphabet="ACGT", min_size=1, max_size=60)


class TestKnownCases:
    def test_perfect_match_unbanded(self):
        s = ScoringScheme(match=2, mismatch=4, gap_open=4, gap_extend=2)
        seq = encode("ACGTACGTAC")
        res = antidiagonal_align(seq, seq, s)
        assert res.score == 2 * len(seq)
        assert (res.max_i, res.max_j) == (len(seq) - 1, len(seq) - 1)
        assert not res.terminated

    def test_single_mismatch(self):
        s = ScoringScheme(match=2, mismatch=4, gap_open=4, gap_extend=2)
        ref = encode("ACGTACGTAC")
        query = encode("ACGTTCGTAC")
        res = antidiagonal_align(ref, query, s)
        assert res.score == 2 * 10 - 2 - 4  # nine matches, one mismatch cell

    def test_single_deletion_gap(self):
        s = ScoringScheme(match=2, mismatch=4, gap_open=4, gap_extend=2)
        ref = encode("ACGTTTACGG")
        query = encode("ACGTTACGG")  # one T deleted
        res = antidiagonal_align(ref, query, s)
        # nine matches minus a length-1 gap (open 4 + extend 2)
        assert res.score == 2 * 9 - 6

    def test_empty_inputs(self):
        s = preset("map-ont")
        assert antidiagonal_align(encode(""), encode("ACG"), s).score == 0
        assert reference_align(encode("ACG"), encode(""), s).score == 0

    def test_figure1_band_limits_cells(self):
        s = preset("figure1")
        ref = encode("AGATAGAT")
        query = encode("AGACTATC")
        res = antidiagonal_align(ref, query, s)
        assert res.cells_computed < ref.size * query.size

    def test_divergent_sequences_terminate(self):
        rng = np.random.default_rng(7)
        s = preset("map-ont", band_width=33, zdrop=60)
        ref = random_sequence(400, rng)
        query = random_sequence(400, rng)
        res = antidiagonal_align(ref, query, s)
        assert res.terminated
        assert res.antidiagonals_processed < ref.size + query.size - 1

    def test_similar_sequences_do_not_terminate(self):
        rng = np.random.default_rng(8)
        s = preset("map-ont", band_width=33, zdrop=200)
        ref = random_sequence(400, rng)
        query = mutate(ref, rng, substitution_rate=0.03)
        res = antidiagonal_align(ref, query, s)
        assert not res.terminated
        assert res.score > 0


class TestOracleEquivalence:
    @given(ref=SEQ, query=SEQ, band=st.integers(0, 13), zdrop=st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, ref, query, band, zdrop):
        scheme = ScoringScheme(
            match=2, mismatch=4, gap_open=4, gap_extend=2, band_width=band, zdrop=zdrop
        )
        a = reference_align(encode(ref), encode(query), scheme)
        b = antidiagonal_align(encode(ref), encode(query), scheme)
        assert a.same_score(b)
        assert a.cells_computed == b.cells_computed

    @given(ref=SEQ, query=SEQ)
    @settings(max_examples=20, deadline=None)
    def test_matches_oracle_with_xdrop(self, ref, query):
        scheme = ScoringScheme(match=2, mismatch=4, gap_open=4, gap_extend=2, zdrop=30)
        a = reference_align(encode(ref), encode(query), scheme, XDrop(xdrop=30))
        b = antidiagonal_align(encode(ref), encode(query), scheme, XDrop(xdrop=30))
        assert a.same_score(b)

    def test_realistic_pair_with_band(self, rng):
        scheme = preset("map-pb", band_width=41, zdrop=100)
        ref = random_sequence(300, rng)
        query = mutate(ref, rng, substitution_rate=0.08, insertion_rate=0.04, deletion_rate=0.04)
        a = reference_align(ref, query, scheme)
        b = antidiagonal_align(ref, query, scheme)
        assert a.same_score(b)


class TestScoreTable:
    def test_score_table_maximum_matches_result(self):
        rng = np.random.default_rng(10)
        scheme = preset("map-ont", band_width=21, zdrop=0)
        ref = random_sequence(60, rng)
        query = mutate(ref, rng, substitution_rate=0.1)
        table, result = reference_score_table(ref, query, scheme)
        computed = table[table > NEG_INF]
        assert computed.max() == result.score

    def test_out_of_band_cells_untouched(self):
        scheme = preset("map-ont", band_width=5, zdrop=0)
        ref = encode("ACGTACGTACGTACGT")
        query = encode("ACGTACGTACGTACGT")
        table, _ = reference_score_table(ref, query, scheme)
        assert table[0, 10] == NEG_INF
        assert table[10, 0] == NEG_INF


class TestWavefrontState:
    def test_profile_matches_stepwise_maxima(self, rng):
        scheme = preset("map-ont", band_width=21, zdrop=0)
        ref = random_sequence(80, rng)
        query = mutate(ref, rng, substitution_rate=0.05)
        profile = antidiagonal_align(ref, query, scheme, return_profile=True)
        state = WavefrontState(ref, query, scheme)
        maxima = []
        while not state.exhausted:
            _, rows, values = state.step()
            maxima.append(int(values.max()) if rows.size else NEG_INF)
        assert np.array_equal(np.asarray(maxima), profile.antidiag_maxima)

    def test_step_after_exhaustion_raises(self):
        scheme = preset("map-ont", band_width=7, zdrop=0)
        state = WavefrontState(encode("ACG"), encode("ACG"), scheme)
        while not state.exhausted:
            state.step()
        with pytest.raises(RuntimeError):
            state.step()


class TestProfile:
    def test_profile_consistency(self, rng, small_scheme):
        ref = random_sequence(150, rng)
        query = mutate(ref, rng, substitution_rate=0.05)
        profile = antidiagonal_align(ref, query, small_scheme, return_profile=True)
        assert profile.cells_per_antidiag.sum() == profile.result.cells_computed
        assert len(profile.antidiag_maxima) == profile.result.antidiagonals_processed
        assert profile.geometry.total_cells >= profile.result.cells_computed
