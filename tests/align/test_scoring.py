"""Tests for scoring schemes and presets."""

import pytest

from repro.align.scoring import PRESETS, ScoringScheme, preset
from repro.align.sequence import BASE_TO_CODE


class TestScoringScheme:
    def test_match_and_mismatch(self):
        s = ScoringScheme(match=2, mismatch=4)
        a, c = BASE_TO_CODE["A"], BASE_TO_CODE["C"]
        assert s.score(a, a) == 2
        assert s.score(a, c) == -4

    def test_ambiguous(self):
        s = ScoringScheme(ambiguous_score=-1)
        n, a = BASE_TO_CODE["N"], BASE_TO_CODE["A"]
        assert s.score(n, a) == -1
        assert s.score(a, n) == -1

    def test_substitution_matrix_matches_score(self):
        s = ScoringScheme(match=3, mismatch=5)
        m = s.substitution_matrix()
        for a in range(5):
            for b in range(5):
                assert m[a, b] == s.score(a, b)

    def test_guiding_flags(self):
        assert not ScoringScheme().has_banding
        assert not ScoringScheme().has_termination
        assert ScoringScheme(band_width=10).has_banding
        assert ScoringScheme(zdrop=10).has_termination

    def test_replace(self):
        s = preset("map-ont").replace(band_width=7)
        assert s.band_width == 7
        assert s.match == PRESETS["map-ont"].match

    def test_describe_mentions_guiding(self):
        text = preset("map-ont").describe()
        assert "w=" in text and "Z=" in text

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"match": 0},
            {"mismatch": -1},
            {"gap_extend": 0},
            {"band_width": -1},
            {"zdrop": -2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScoringScheme(**kwargs)


class TestPresets:
    def test_all_expected_presets_exist(self):
        for name in ("map-hifi", "map-pb", "map-ont", "bwa-mem", "figure1"):
            assert name in PRESETS

    def test_preset_lookup(self):
        assert preset("map-ont").name == "map-ont"

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("nope")

    def test_bwa_band_smaller_than_minimap(self):
        # Section 5.9: BWA-MEM's default band width and threshold are
        # significantly smaller than Minimap2's.
        assert PRESETS["bwa-mem"].band_width < PRESETS["map-ont"].band_width
        assert PRESETS["bwa-mem"].zdrop <= PRESETS["map-ont"].zdrop

    def test_preset_override(self):
        assert preset("map-ont", zdrop=77).zdrop == 77

    def test_unknown_preset_lists_available_names(self):
        with pytest.raises(KeyError) as err:
            preset("nope")
        message = str(err.value)
        assert "'nope'" in message
        for name in ("map-ont", "blosum62"):
            assert name in message


class TestSubstitutionMatrix:
    MATRIX = (
        (4, 0, 0, 0, -1),
        (0, 9, -3, -1, -1),
        (0, -3, 6, -2, -1),
        (0, -1, -2, 5, -1),
        (-1, -1, -1, -1, -1),
    )

    def test_explicit_matrix_drives_score(self):
        s = ScoringScheme(matrix=self.MATRIX)
        for a in range(5):
            for b in range(5):
                assert s.score(a, b) == self.MATRIX[a][b]

    def test_explicit_matrix_drives_substitution_matrix(self):
        import numpy as np

        s = ScoringScheme(matrix=self.MATRIX)
        assert np.array_equal(s.substitution_matrix(), np.array(self.MATRIX))

    def test_matrix_normalised_to_tuples(self):
        s = ScoringScheme(matrix=[list(row) for row in self.MATRIX])
        assert s.matrix == self.MATRIX
        assert isinstance(s.matrix[0], tuple)

    @pytest.mark.parametrize(
        "matrix",
        [
            ((1, 2), (3, 4)),  # wrong shape
            ((0,) * 5,) * 4,  # too few rows
            ((0,) * 4,) * 5,  # too few columns
        ],
    )
    def test_bad_matrix_shape_rejected(self, matrix):
        with pytest.raises(ValueError, match="matrix"):
            ScoringScheme(matrix=matrix)

    def test_describe_mentions_matrix(self):
        assert "matrix=5x5" in ScoringScheme(matrix=self.MATRIX).describe()
        assert "matrix" not in ScoringScheme().describe()

    def test_blosum62_preset(self):
        s = preset("blosum62")
        assert s.matrix is not None
        # Matching letters score by the matrix diagonal, not match=.
        assert s.score(0, 0) == 4
        assert s.score(1, 1) == 9
        # The ambiguity row/column is uniformly -1.
        assert all(s.score(4, b) == -1 for b in range(5))
        assert s.gap_open == 10 and s.gap_extend == 1
