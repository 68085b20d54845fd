"""Tests for minimizer seeding, chaining and extension-task extraction."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.scoring import preset
from repro.align.sequence import encode, random_sequence
from repro.io.seed_chain import (
    Anchor,
    MinimizerIndex,
    Minimizer,
    Chain,
    _kmer_hashes,
    chain_anchors,
    extension_tasks_for_read,
    minimizers,
)

SCHEME = preset("map-ont", band_width=33, zdrop=100)


def reference_minimizers(seq, k, w):
    """The sliding-window minimum as a monotone-deque loop over every k-mer.

    The deque pops on ``>=``, so each window keeps its rightmost smallest
    hash; a sequence of at most ``w`` k-mers keeps its leftmost one.
    """
    hashes = _kmer_hashes(np.asarray(seq, dtype=np.uint8), k)
    n = hashes.size
    if n == 0:
        return []
    if n <= w:
        pos = int(np.argmin(hashes))
        return [Minimizer(position=pos, hash_value=int(hashes[pos]))]
    out = []
    last_pos = -1
    dq = deque()
    for i in range(n):
        while dq and hashes[dq[-1]] >= hashes[i]:
            dq.pop()
        dq.append(i)
        window_start = i - w + 1
        if window_start < 0:
            continue
        while dq[0] < window_start:
            dq.popleft()
        pos = dq[0]
        if pos != last_pos:
            out.append(Minimizer(position=pos, hash_value=int(hashes[pos])))
            last_pos = pos
    return out


def reference_table(reference, k, w):
    """Dict-of-lists index: hash -> reference positions in sampling order."""
    table = {}
    for m in reference_minimizers(reference, k, w):
        table.setdefault(m.hash_value, []).append(m.position)
    return table


def reference_anchors(table, query, k, w, max_hits):
    out = []
    for m in reference_minimizers(query, k, w):
        hits = table.get(m.hash_value, [])
        if 0 < len(hits) <= max_hits:
            out.extend(Anchor(query_pos=m.position, ref_pos=r) for r in hits)
    return sorted(out, key=lambda a: (a.query_pos, a.ref_pos))


@st.composite
def coded_sequences(draw, max_size):
    """Encoded sequences over 1-5 codes; small alphabets force hash ties."""
    alphabet = draw(st.integers(1, 5))
    codes = draw(st.lists(st.integers(0, alphabet - 1), max_size=max_size))
    return np.array(codes, dtype=np.uint8)


@st.composite
def tandem_repeats(draw):
    """A reference with a tandem repeat between random flanks."""
    unit = draw(coded_sequences(max_size=24).filter(lambda u: u.size > 0))
    count = draw(st.integers(2, 12))
    flanks = [draw(coded_sequences(max_size=60)) for _ in range(2)]
    return np.concatenate([flanks[0], np.tile(unit, count), flanks[1]]), count


class TestMinimizers:
    def test_deterministic(self, rng):
        seq = random_sequence(500, rng)
        assert minimizers(seq) == minimizers(seq)

    def test_density_controlled_by_window(self, rng):
        seq = random_sequence(2000, rng)
        dense = minimizers(seq, k=11, w=3)
        sparse = minimizers(seq, k=11, w=15)
        assert len(dense) > len(sparse) > 0

    def test_positions_within_sequence(self, rng):
        seq = random_sequence(300, rng)
        for m in minimizers(seq, k=11, w=5):
            assert 0 <= m.position <= seq.size - 11

    def test_short_sequence(self, rng):
        seq = random_sequence(12, rng)
        assert len(minimizers(seq, k=11, w=5)) == 1

    def test_empty_sequence(self):
        assert minimizers(np.empty(0, dtype=np.uint8)) == []

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            minimizers(random_sequence(10, rng), k=0)

    def test_ties_keep_each_windows_rightmost_kmer(self):
        # Six equal k-mers, two windows of five: the deque pops on >=.
        positions = [m.position for m in minimizers(encode("A" * 16), k=11, w=5)]
        assert positions == [4, 5]

    def test_ties_in_a_single_window_keep_the_leftmost_kmer(self):
        # Five equal k-mers fit one window, which np.argmin samples.
        positions = [m.position for m in minimizers(encode("A" * 15), k=11, w=5)]
        assert positions == [0]


class TestSamplingOracle:
    """The array sampler and sorted-array index equal the loop and dict."""

    @settings(max_examples=300, deadline=None)
    @given(
        seq=coded_sequences(max_size=150),
        k=st.integers(1, 13),
        w=st.integers(1, 12),
    )
    def test_minimizers_equal_the_deque_loop(self, seq, k, w):
        sampled = minimizers(seq, k=k, w=w)
        assert sampled == reference_minimizers(seq, k, w)
        assert all(
            type(m.position) is int and type(m.hash_value) is int for m in sampled
        )

    @settings(max_examples=120, deadline=None)
    @given(
        reference=tandem_repeats(),
        k=st.integers(1, 13),
        w=st.integers(1, 12),
        data=st.data(),
    )
    def test_index_equals_the_dict_of_lists(self, reference, k, w, data):
        reference, count = reference
        index = MinimizerIndex(reference, k=k, w=w)
        table = reference_table(reference, k, w)
        for hash_value, positions in table.items():
            assert index.lookup(hash_value) == positions
        for missing in (0, 2**63, 2**64 - 1):
            if missing not in table:
                assert index.lookup(missing) == []
        start = data.draw(st.integers(0, reference.size))
        stop = data.draw(st.integers(start, reference.size))
        read = reference[start:stop]
        # 0 < hits <= max_hits: a hash found once per repeat unit sits on
        # the boundary between count and count + 1.
        for max_hits in (1, count, count + 1):
            assert index.anchors(read, max_hits=max_hits) == reference_anchors(
                table, read, k, w, max_hits
            )


def _balanced_base5(value, digits):
    """Digits in -2..2 of ``value``, most significant first."""
    out = []
    for _ in range(digits):
        digit = (value + 2) % 5 - 2
        out.append(digit)
        value = (value - digit) // 5
    assert value == 0
    return out[::-1]


class TestKmerLength:
    """Base-5 packing is injective only while 5**k fits in a uint64."""

    def _colliding_28mers(self):
        # a - b == 2**64 in base 5, with every digit of a and b in 0..2
        # (A, C, G), so both pack to the same uint64.
        digits = _balanced_base5(2**64, 28)
        a = np.array([max(d, 0) for d in digits], dtype=np.uint8)
        b = np.array([max(-d, 0) for d in digits], dtype=np.uint8)
        return a, b

    def test_28mers_collide(self):
        a, b = self._colliding_28mers()
        assert not np.array_equal(a, b)
        assert _kmer_hashes(a, 28)[0] == _kmer_hashes(b, 28)[0]
        assert _kmer_hashes(a[1:], 27)[0] != _kmer_hashes(b[1:], 27)[0]

    def test_k_above_27_is_rejected(self):
        a, b = self._colliding_28mers()
        for seq in (a, b):
            with pytest.raises(ValueError, match="at most 27"):
                minimizers(seq, k=28)
        with pytest.raises(ValueError, match="at most 27"):
            MinimizerIndex(np.concatenate([a, b]), k=28)
        assert len(minimizers(a, k=27, w=1)) == 2


class TestIndexAndAnchors:
    def test_anchors_recover_true_position(self, rng):
        reference = random_sequence(5000, rng)
        index = MinimizerIndex(reference)
        start = 1200
        read = reference[start : start + 400].copy()
        anchors = index.anchors(read)
        assert anchors, "exact substring must produce anchors"
        diagonals = [a.diagonal for a in anchors]
        # The dominant diagonal equals the true start position.
        values, counts = np.unique(diagonals, return_counts=True)
        assert values[np.argmax(counts)] == start

    def test_repetitive_minimizers_filtered(self, rng):
        reference = np.tile(random_sequence(40, rng), 100)
        index = MinimizerIndex(reference)
        read = reference[:200].copy()
        assert index.anchors(read, max_hits=4) == []


class TestChaining:
    def test_single_colinear_chain(self):
        anchors = [Anchor(query_pos=q, ref_pos=q + 100) for q in range(0, 200, 20)]
        chains = chain_anchors(anchors)
        assert len(chains) == 1
        assert chains[0].num_anchors == len(anchors)

    def test_two_loci_give_two_chains(self):
        near = [Anchor(query_pos=q, ref_pos=q + 100) for q in range(0, 100, 10)]
        far = [Anchor(query_pos=q, ref_pos=q + 5000) for q in range(100, 200, 10)]
        chains = chain_anchors(near + far)
        assert len(chains) == 2

    def test_min_anchor_filter(self):
        anchors = [Anchor(0, 10), Anchor(5, 15)]
        assert chain_anchors(anchors, min_anchors=3) == []

    def test_empty(self):
        assert chain_anchors([]) == []

    def test_chain_spans(self):
        anchors = [Anchor(10, 110), Anchor(50, 150), Anchor(90, 190)]
        chain = chain_anchors(anchors)[0]
        assert chain.query_span == (10, 90)
        assert chain.ref_span == (110, 190)


class TestExtensionTasks:
    def _chain(self, offset, positions):
        return Chain(anchors=[Anchor(q, q + offset) for q in positions])

    def test_left_right_and_gap_tasks(self, rng):
        reference = random_sequence(3000, rng)
        query = reference[500:1500].copy()
        chain = self._chain(500, [100, 160, 700, 900])
        tasks = extension_tasks_for_read(reference, query, chain, SCHEME, min_gap=32)
        # left extension (100 bp), three inter-anchor gaps above min_gap and
        # a right extension (the ~90 bp after the last anchor).
        assert len(tasks) == 5
        assert tasks[0].query_len == 100
        assert tasks[1].query_len == 160 - (100 + 11)
        assert tasks[2].query_len == 700 - (160 + 11)
        assert tasks[3].query_len == 900 - (700 + 11)
        assert tasks[4].query_len == 1000 - (900 + 11)

    def test_no_tasks_for_fully_anchored_read(self, rng):
        reference = random_sequence(1000, rng)
        query = reference[0:200].copy()
        chain = self._chain(0, [0, 20, 40, 60, 80, 100, 120, 140, 160, 189])
        tasks = extension_tasks_for_read(reference, query, chain, SCHEME, min_gap=32)
        assert tasks == []

    def test_max_extension_clips(self, rng):
        reference = random_sequence(20_000, rng)
        query = random_sequence(10_000, rng)
        chain = self._chain(0, [50, 80, 110])
        tasks = extension_tasks_for_read(
            reference, query, chain, SCHEME, max_extension=256
        )
        assert all(t.query_len <= 256 and t.ref_len <= 256 + SCHEME.band_width for t in tasks)

    def test_anchor_spacing_reduces_task_count(self, rng):
        reference = random_sequence(5000, rng)
        query = reference[1000:2000].copy()
        positions = list(range(0, 950, 40))
        chain = self._chain(1000, positions)
        dense = extension_tasks_for_read(reference, query, chain, SCHEME, min_gap=16)
        sparse = extension_tasks_for_read(
            reference, query, chain, SCHEME, min_gap=16, anchor_spacing=200
        )
        assert len(sparse) <= len(dense)

    def test_task_ids_sequential(self, rng):
        reference = random_sequence(3000, rng)
        query = reference[500:1500].copy()
        chain = self._chain(500, [100, 700, 900])
        tasks = extension_tasks_for_read(
            reference, query, chain, SCHEME, start_task_id=10
        )
        assert [t.task_id for t in tasks] == list(range(10, 10 + len(tasks)))
