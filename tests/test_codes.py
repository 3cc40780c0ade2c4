import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynastop.codes import (
    EVENT_KINDS,
    Codebook,
    Event,
    EventStream,
    decompose_events,
    make_gold_codes,
    make_m_sequence,
    modulate,
    periodic_crosscorrelation,
    read_codebook,
    select_subset,
    structure_matrices,
    structure_matrix,
    tile_events,
    write_codebook,
)


def lfsr_reference(taps_positions, n, seed_bits, steps):
    """Independent bit-list LFSR: emits the lowest register bit, feeds back the
    XOR of the tapped bits. Used as the oracle for make_m_sequence."""
    reg = list(seed_bits)  # reg[i] = bit i
    out = []
    for _ in range(steps):
        out.append(reg[0])
        fb = 0
        for pos in taps_positions:
            fb ^= reg[pos]
        reg = reg[1:] + [fb]
    return out


class TestMSequence:
    def test_degree3_hand_example(self):
        seq = make_m_sequence(0b1011, seed=0b001)
        # x^3 + x + 1, taps at register bits 0 and 1.
        expected = lfsr_reference([0, 1], 3, [1, 0, 0], 7)
        assert seq.tolist() == expected == [1, 0, 0, 1, 0, 1, 1]
        assert seq.sum() == 4

    def test_degree6_length(self):
        assert make_m_sequence(0b1000011).size == 63

    @pytest.mark.parametrize("poly", [0b111, 0b1011, 0b100101, 0b1000011, 0b1100111])
    def test_balanced(self, poly):
        seq = make_m_sequence(poly)
        degree = poly.bit_length() - 1
        assert seq.sum() == 2 ** (degree - 1)

    @pytest.mark.parametrize("poly", [0b1011, 0b1000011])
    def test_full_period(self, poly):
        seq = make_m_sequence(poly)
        for shift in range(1, seq.size):
            assert not np.array_equal(seq, np.roll(seq, shift))

    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError, match="period 3 < 7"):
            make_m_sequence(0b1001, seed=1)

    def test_rejects_reducible_without_constant_term(self):
        with pytest.raises(ValueError, match="not primitive"):
            make_m_sequence(0b1100, seed=1)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError, match="degree"):
            make_m_sequence(0b11)
        with pytest.raises(ValueError, match="degree"):
            make_m_sequence(1 << 17 | 1)

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_m_sequence(0b1011, seed=0)

    def test_seed_changes_phase_only(self):
        base = make_m_sequence(0b1011, seed=1)
        other = make_m_sequence(0b1011, seed=5)
        assert any(np.array_equal(other, np.roll(base, s)) for s in range(base.size))


class TestGoldCodes:
    def test_family_size_and_length(self, gold_codes):
        assert gold_codes.shape == (65, 63)

    def test_all_distinct(self, gold_codes):
        assert np.unique(gold_codes, axis=0).shape[0] == 65

    def test_crosscorrelation_three_valued(self, gold_codes):
        # Spot-check against the brute-force oracle; the acceptance suite
        # scans every pair.
        allowed = {-1, -17, 15}
        subset = gold_codes[:12]
        bipolar = 1 - 2 * subset.astype(int)
        for i in range(len(subset)):
            for j in range(i + 1, len(subset)):
                direct = {
                    int(np.dot(bipolar[i], np.roll(bipolar[j], k)))
                    for k in range(subset.shape[1])
                }
                assert direct <= allowed
                fft_vals = set(periodic_crosscorrelation(subset[i], subset[j]).tolist())
                assert fft_vals == direct

    def test_weights_three_valued(self, gold_codes):
        # XOR combinations carry weight (63 - crosscorrelation) / 2, so the
        # family is not uniformly balanced; only the base m-sequences are.
        weights = set(gold_codes.sum(axis=1).tolist())
        assert weights == {24, 32, 40}
        assert gold_codes[0].sum() == 32
        assert gold_codes[1].sum() == 32

    def test_rejects_identical_polynomials(self):
        with pytest.raises(ValueError, match="degenerate"):
            make_gold_codes(0b1000011, 0b1000011)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError, match="degrees differ"):
            make_gold_codes(0b1000011, 0b100101)

    def test_rejects_non_preferred_pair(self):
        # x^6+x+1 with x^6+x^5+x^4+x+1: both primitive, not a preferred pair.
        with pytest.raises(ValueError, match="preferred"):
            make_gold_codes(0b1000011, 0b1110011)


class TestModulate:
    def test_gold_length(self, modulated_gold):
        assert modulated_gold.shape == (65, 126)

    def test_single_bit(self):
        assert modulate(np.array([1], dtype=np.uint8)).tolist() == [0, 1]
        assert modulate(np.array([0], dtype=np.uint8)).tolist() == [1, 0]

    def test_runs_bounded_for_all_gold_codes(self, modulated_gold):
        for row in modulated_gold:
            padded = np.concatenate(([0], row, [0])).astype(np.int8)
            edges = np.diff(padded)
            lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
            assert lengths.max(initial=0) <= 2

    def test_roundtrip_identity(self, rng):
        for _ in range(50):
            code = rng.integers(0, 2, rng.integers(1, 80)).astype(np.uint8)
            out = modulate(code)
            clock = np.zeros(out.size, dtype=np.uint8)
            clock[::2] = 1
            assert np.array_equal((out ^ clock)[::2], code)
            assert np.array_equal(out[1::2], code)


class TestDecomposeEvents:
    def test_hand_example(self):
        stream = decompose_events([0, 1, 0, 1, 1, 0])
        assert stream.events == (Event("short", 1), Event("long", 3))
        assert stream.source_length == 6

    def test_all_zero(self):
        assert decompose_events([0, 0, 0]).events == ()

    def test_rejects_long_run(self):
        with pytest.raises(ValueError, match="run of 3 ones"):
            decompose_events([1, 1, 1])

    def test_gold_codes_decompose_to_two_kinds(self, modulated_gold):
        for row in modulated_gold:
            kinds = {ev.kind for ev in decompose_events(row).events}
            assert kinds <= {"short", "long"}

    def test_tile_events(self):
        stream = decompose_events([0, 1, 0, 1, 1, 0])
        tiled = tile_events(stream, 3)
        assert tiled.source_length == 18
        onsets = [ev.onset for ev in tiled.events]
        assert onsets == [1, 3, 7, 9, 13, 15]
        assert all(b > a for a, b in zip(onsets, onsets[1:]))


def structure_matrix_loop(stream, fs, rate_hz, n_samples, response_samples):
    """Reference structure matrix: one event at a time."""
    matrix = np.zeros((2 * response_samples, n_samples))
    for ev in stream.events:
        if ev.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {ev.kind!r}")
        onset = int(math.floor(ev.onset * fs / rate_hz + 0.5))
        if onset >= n_samples:
            continue
        span = min(response_samples, n_samples - onset)
        rows = EVENT_KINDS.index(ev.kind) * response_samples + np.arange(span)
        matrix[rows, onset + np.arange(span)] = 1.0
    return matrix


class TestStructureMatrix:
    def test_single_short_event(self):
        stream = EventStream((Event("short", 0),), 4)
        m = structure_matrix(stream, fs=10, rate_hz=10, n_samples=4, response_samples=2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        expected[1, 1] = 1
        assert np.array_equal(m, expected)

    def test_empty_stream(self):
        m = structure_matrix(EventStream((), 4), 10, 10, 5, 2)
        assert m.shape == (4, 5)
        assert not m.any()

    def test_truncated_at_edge(self):
        stream = EventStream((Event("long", 2),), 3)
        m = structure_matrix(stream, fs=1, rate_hz=1, n_samples=3, response_samples=2)
        assert m.sum() == 1
        assert m[2, 2] == 1  # first row of the long block, first response sample

    def test_onset_rounding_half_up(self):
        # onset bit 1 at fs/rate = 2.5 -> sample 3 (round half up, not banker's).
        stream = EventStream((Event("short", 1),), 4)
        m = structure_matrix(stream, fs=5, rate_hz=2, n_samples=8, response_samples=1)
        assert m[0, 3] == 1
        assert m.sum() == 1

    def test_ones_count_exact(self, rng):
        for _ in range(20):
            code = modulate(rng.integers(0, 2, 20).astype(np.uint8))
            stream = decompose_events(code)
            n_samples = int(rng.integers(10, 50))
            response = int(rng.integers(1, n_samples + 1))
            m = structure_matrix(stream, 1, 1, n_samples, response)
            expected = sum(
                max(0, min(response, n_samples - ev.onset)) for ev in stream.events
            )
            assert m.sum() == expected
            assert set(np.unique(m)) <= {0.0, 1.0}

    def test_sparse_events_one_per_column_block(self):
        # With same-kind events spaced at least a response apart, column sums
        # stay at one per kind block; overlapping stimulation stacks them.
        stream = EventStream((Event("short", 0), Event("short", 5)), 10)
        m = structure_matrix(stream, 1, 1, 10, 3)
        assert m[:3].sum(axis=0).max() == 1
        assert m[3:].sum() == 0

    def test_rejects_bad_dimensions(self):
        stream = EventStream((), 4)
        with pytest.raises(ValueError):
            structure_matrix(stream, 1, 1, 0, 1)
        with pytest.raises(ValueError):
            structure_matrix(stream, 1, 1, 4, 5)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_bits=st.integers(1, 40),
        reps=st.integers(1, 4),
        rates=st.sampled_from([(1, 1), (5, 2), (120.0, 60.0), (120.0, 40.0), (250.0, 60.0)]),
        n_samples=st.integers(1, 300),
        response_samples=st.integers(1, 40),
    )
    def test_matches_event_loop(self, seed, n_bits, reps, rates, n_samples, response_samples):
        # Random modulated codes, tiled cyclically, at integer and fractional
        # samples per bit; events run past the matrix edge or start beyond it.
        fs, rate_hz = rates
        response_samples = min(response_samples, n_samples)
        bits = np.random.default_rng(seed).integers(0, 2, n_bits).astype(np.uint8)
        stream = tile_events(decompose_events(modulate(bits)), reps)
        got = structure_matrix(stream, fs, rate_hz, n_samples, response_samples)
        want = structure_matrix_loop(stream, fs, rate_hz, n_samples, response_samples)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_edge_truncation_matches_event_loop(self):
        stream = EventStream(
            (Event("short", 0), Event("long", 3), Event("short", 6), Event("long", 7),
             Event("short", 9)),
            10,
        )
        for n_samples in range(4, 12):
            got = structure_matrix(stream, 5, 2, n_samples, 4)
            want = structure_matrix_loop(stream, 5, 2, n_samples, 4)
            np.testing.assert_array_equal(got, want)

    def test_unknown_kind_rejected(self):
        stream = EventStream((Event("short", 0), Event("flicker", 2)), 4)
        with pytest.raises(ValueError, match="unknown event kind 'flicker'"):
            structure_matrix(stream, 1, 1, 4, 2)

    def test_structure_matrices_match_event_loop(self, modulated_gold):
        for n_samples, fs, rate_hz in ((126, 120.0, 120.0), (504, 120.0, 60.0), (300, 250.0, 60.0)):
            mats = structure_matrices(modulated_gold[:6], fs, rate_hz, n_samples, 36)
            bits_needed = math.ceil(n_samples * rate_hz / fs)
            for code, got in zip(modulated_gold[:6], mats):
                stream = decompose_events(code)
                stream = tile_events(stream, max(1, math.ceil(bits_needed / stream.source_length)))
                want = structure_matrix_loop(stream, fs, rate_hz, n_samples, 36)
                assert got.tobytes() == want.tobytes()

    def test_structure_matrices_tiles_to_cover(self, modulated_gold):
        mats = structure_matrices(modulated_gold[:2], fs=120, rate_hz=120,
                                  n_samples=252, response_samples=6)
        assert all(m.shape == (12, 252) for m in mats)
        # Events from the second cycle land past sample 126.
        assert mats[0][:, 130:].any()


class TestSelectSubset:
    @staticmethod
    def correlated_templates(rng, corr, n_samples=4000):
        chol = np.linalg.cholesky(corr)
        return chol @ rng.standard_normal((corr.shape[0], n_samples))

    def test_identity_when_k_equals_n(self, rng):
        templates = rng.standard_normal((4, 50))
        kept = select_subset(np.eye(4, 8), templates, 4)
        assert kept.tolist() == [0, 1, 2, 3]

    def test_drops_member_of_worst_pair(self, rng):
        corr = np.array([[1.0, 0.9, 0.2], [0.9, 1.0, 0.3], [0.2, 0.3, 1.0]])
        templates = self.correlated_templates(rng, corr)
        kept = select_subset(np.eye(3, 8), templates, 2)
        # One member of the 0.9 pair (codes 0 and 1) must go.
        assert len(set(kept.tolist()) & {0, 1}) == 1

    def test_max_correlation_never_increases(self, rng):
        for _ in range(10):
            templates = rng.standard_normal((8, 300))
            corr = np.abs(np.corrcoef(templates))
            np.fill_diagonal(corr, 0)
            kept = select_subset(np.eye(8, 16), templates, 4)
            sub = corr[np.ix_(kept, kept)]
            assert sub.max() <= corr.max() + 1e-12

    def test_rejects_bad_k(self, rng):
        templates = rng.standard_normal((4, 50))
        with pytest.raises(ValueError, match=">= 2"):
            select_subset(np.eye(4, 8), templates, 1)
        with pytest.raises(ValueError, match="exceeds"):
            select_subset(np.eye(4, 8), templates, 5)


class TestCodebookIO:
    def test_roundtrip(self, tmp_path, modulated_gold):
        path = tmp_path / "codes.txt"
        write_codebook(path, modulated_gold[:5], rate_hz=120)
        book = read_codebook(path)
        assert isinstance(book, Codebook)
        assert book.rate_hz == 120.0
        assert np.array_equal(book.codes, modulated_gold[:5])
        text = path.read_text()
        assert text.startswith("# rate_hz=120\n")
        assert text.endswith("\n")

    def test_default_rate_without_header(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("0101\n1010\n")
        assert read_codebook(path).rate_hz == 120.0

    def test_rejects_bad_characters(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("0102\n1010\n")
        with pytest.raises(ValueError, match="invalid characters"):
            read_codebook(path)

    def test_rejects_unequal_lengths(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("010\n10\n")
        with pytest.raises(ValueError, match="lengths differ"):
            read_codebook(path)

    def test_rejects_duplicates(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("010\n010\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_codebook(path)
