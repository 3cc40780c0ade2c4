import itertools
import math
import os
import re
import tempfile
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynastop.codes import (
    Codebook,
    StructureMatrices,
    make_gold_codes,
    make_m_sequence,
    modulate,
    periodic_crosscorrelation,
    read_codebook,
    select_subset,
    structure_matrices,
    write_codebook,
)
from oracles import structure_matrices_list


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


def flash_runs(code):
    """(onset bit, length) of every maximal run of ones, one bit at a time."""
    runs = []
    start = None
    for i, bit in enumerate([*code, 0]):
        if bit and start is None:
            start = i
        elif not bit and start is not None:
            runs.append((start, i - start))
            start = None
    return runs


def event_loop_matrices(codes, fs, rate_hz, n_samples, response_samples):
    """Reference structure matrices: one flash event of one code cycle at a
    time, as the per-event builder placed them."""
    if n_samples <= 0 or not 1 <= response_samples <= n_samples:
        raise ValueError("bad dimensions")
    matrices = []
    for code in np.atleast_2d(codes):
        runs = flash_runs(code)
        for onset, length in runs:
            if length > 2:
                raise ValueError(
                    f"run of {length} ones at bit {onset}: not a two-duration modulated code"
                )
        bits_needed = math.ceil(n_samples * rate_hz / fs)
        cycles = max(1, math.ceil(bits_needed / len(code)))
        matrix = np.zeros((2 * response_samples, n_samples))
        for cycle in range(cycles):
            for onset, length in runs:
                start = math.floor((onset + cycle * len(code)) * fs / rate_hz + 0.5)
                span = max(0, min(response_samples, n_samples - start))
                rows = (length - 1) * response_samples + np.arange(span)
                matrix[rows, start + np.arange(span)] = 1.0
        matrices.append(matrix)
    return matrices


def onsets_by_kind(matrix):
    """Onset samples of the short and the long flashes of a one-sample response."""
    return np.flatnonzero(matrix[0]).tolist(), np.flatnonzero(matrix[1]).tolist()


class TestDecomposeEvents:
    """How structure_matrices splits a code into short and long flashes."""

    def test_hand_example(self):
        (m,) = structure_matrices([[0, 1, 0, 1, 1, 0]], 1, 1, 6, 1)
        assert onsets_by_kind(m) == ([1], [3])

    def test_all_zero(self):
        (m,) = structure_matrices([[0, 0, 0]], 1, 1, 3, 1)
        assert m.shape == (2, 3)
        assert not m.any()

    def test_rejects_long_run(self):
        with pytest.raises(ValueError, match="run of 3 ones at bit 0: not a two-duration"):
            structure_matrices([[1, 1, 1]], 1, 1, 3, 1)
        # The first offending run of the first offending code is reported.
        with pytest.raises(ValueError, match="run of 4 ones at bit 1"):
            structure_matrices([[0, 1, 0, 0, 0, 1], [0, 1, 1, 1, 1, 0]], 1, 1, 6, 1)

    def test_gold_codes_decompose_to_two_kinds(self, modulated_gold):
        mats = structure_matrices(modulated_gold, 1, 1, modulated_gold.shape[1], 1)
        for row, m in zip(modulated_gold, mats):
            runs = flash_runs(row)
            assert {length for _, length in runs} <= {1, 2}
            assert onsets_by_kind(m) == (
                [onset for onset, length in runs if length == 1],
                [onset for onset, length in runs if length == 2],
            )

    def test_tile_events(self):
        (m,) = structure_matrices([[0, 1, 0, 1, 1, 0]], 1, 1, 18, 1)
        assert onsets_by_kind(m) == ([1, 7, 13], [3, 9, 15])

    def test_cycle_seam_keeps_two_flashes(self, modulated_gold):
        # A code that starts and ends with a one: tiling its bits first would
        # merge the long flash at the end with the short one at the start.
        code = [1, 0, 1, 1]
        assert (2, 3) in flash_runs(np.tile(code, 3))
        (m,) = structure_matrices([code], 1, 1, 12, 1)
        assert onsets_by_kind(m) == ([0, 4, 8], [2, 6, 10])
        seam = (modulated_gold[:, 0] == 1) & (modulated_gold[:, -1] == 1)
        assert np.count_nonzero(seam) == 16


class TestStructureMatrix:
    def test_single_short_event(self):
        (m,) = structure_matrices([[1, 0, 0, 0]], fs=10, rate_hz=10, n_samples=4,
                                  response_samples=2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        expected[1, 1] = 1
        assert np.array_equal(m, expected)

    def test_empty_stream(self):
        (m,) = structure_matrices([[0, 0, 0, 0]], 10, 10, 5, 2)
        assert m.shape == (4, 5)
        assert not m.any()

    def test_truncated_at_edge(self):
        (m,) = structure_matrices([[0, 0, 1, 1]], fs=1, rate_hz=1, n_samples=3,
                                  response_samples=2)
        assert m.sum() == 1
        assert m[2, 2] == 1  # first row of the long block, first response sample

    def test_onset_rounding_half_up(self):
        # onset bit 1 at fs/rate = 2.5 -> sample 3 (round half up, not banker's).
        (m,) = structure_matrices([[0, 1, 0, 0]], fs=5, rate_hz=2, n_samples=8,
                                  response_samples=1)
        assert m[0, 3] == 1
        assert m.sum() == 1

    def test_ones_count_exact(self, rng):
        for _ in range(20):
            code = modulate(rng.integers(0, 2, 20).astype(np.uint8))
            n_samples = int(rng.integers(10, 100))
            response = int(rng.integers(1, n_samples + 1))
            (m,) = structure_matrices([code], 1, 1, n_samples, response)
            onsets = [onset + cycle * code.size for cycle in range(3)
                      for onset, _ in flash_runs(code)]
            assert m.sum() == sum(max(0, min(response, n_samples - s)) for s in onsets)
            assert set(np.unique(m)) <= {0.0, 1.0}

    def test_sparse_events_one_per_column_block(self):
        # With same-kind events spaced at least a response apart, column sums
        # stay at one per kind block; overlapping stimulation stacks them.
        (m,) = structure_matrices([[1, 0, 0, 0, 0, 1, 0, 0, 0, 0]], 1, 1, 10, 3)
        assert m[:3].sum(axis=0).max() == 1
        assert m[3:].sum() == 0

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError, match="n_samples must be positive"):
            structure_matrices([[0, 1, 0, 0]], 1, 1, 0, 1)
        with pytest.raises(ValueError, match=r"response_samples must be in \[1, n_samples\]"):
            structure_matrices([[0, 1, 0, 0]], 1, 1, 4, 5)
        with pytest.raises(ValueError, match="response_samples"):
            structure_matrices([[0, 1, 0, 0]], 1, 1, 4, 0)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_codes=st.integers(1, 3),
        n_bits=st.integers(1, 40),
        modulated=st.booleans(),
        rates=st.sampled_from([(1, 1), (5, 2), (1, 3), (120.0, 60.0), (120.0, 40.0),
                               (250.0, 60.0)]),
        n_samples=st.integers(1, 300),
        response_samples=st.integers(1, 40),
    )
    def test_matches_event_loop(self, seed, n_codes, n_bits, modulated, rates, n_samples,
                                response_samples):
        # Random codes, tiled cyclically, at integer and fractional samples
        # per bit; events run past the matrix edge or start beyond it. Below
        # one sample per bit (1, 3), same-kind onsets round to one sample.
        # Codes that are not modulated may hold longer runs, which both reject.
        fs, rate_hz = rates
        response_samples = min(response_samples, n_samples)
        codes = np.random.default_rng(seed).integers(0, 2, (n_codes, n_bits)).astype(np.uint8)
        if modulated:
            codes = modulate(codes)
        try:
            want = event_loop_matrices(codes, fs, rate_hz, n_samples, response_samples)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                structure_matrices(codes, fs, rate_hz, n_samples, response_samples)
            return
        got = structure_matrices(codes, fs, rate_hz, n_samples, response_samples)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_edge_truncation_matches_event_loop(self):
        code = [[1, 0, 0, 1, 1, 0, 1, 0, 1, 1]]
        for n_samples in range(4, 40):
            got = structure_matrices(code, 5, 2, n_samples, 4)
            want = event_loop_matrices(code, 5, 2, n_samples, 4)
            np.testing.assert_array_equal(got[0], want[0])

    def test_structure_matrices_match_event_loop(self, modulated_gold):
        for n_samples, fs, rate_hz in ((126, 120.0, 120.0), (504, 120.0, 60.0), (300, 250.0, 60.0)):
            got = structure_matrices(modulated_gold, fs, rate_hz, n_samples, 36)
            want = event_loop_matrices(modulated_gold, fs, rate_hz, n_samples, 36)
            assert len(got) == 65
            for g, w in zip(got, want):
                assert g.dtype == np.float64
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("response_samples", [1, 36])
    def test_matrices_share_no_memory(self, modulated_gold, response_samples):
        # A caller that keeps some codes' matrices (resolve_config keeps 36
        # of the 65) must not keep the others' memory alive. Each read is a
        # new array, so writing to one read changes no other.
        structures = structure_matrices(modulated_gold, 120.0, 120.0, 126, response_samples)
        mats = list(structures) + [structures[0], structures[0]]
        for a, b in itertools.combinations(mats, 2):
            assert not np.shares_memory(a, b)
        for m in mats:
            assert m.base is None or m.base.nbytes == m.nbytes
            assert not np.shares_memory(m, structures.trains)
        mats[-1][:] = 7.0
        assert structures[0].tobytes() == mats[0].tobytes()

    def test_structure_matrices_tiles_to_cover(self, modulated_gold):
        mats = structure_matrices(modulated_gold[:2], fs=120, rate_hz=120,
                                  n_samples=252, response_samples=6)
        assert all(m.shape == (12, 252) for m in mats)
        # Events from the second cycle land past sample 126.
        assert mats[0][:, 130:].any()


class TestStructureSequence:
    """structure_matrices holds onset trains and builds each matrix on read."""

    @pytest.mark.parametrize("n_samples, fs, rate_hz",
                             [(126, 120.0, 120.0), (504, 120.0, 60.0), (300, 250.0, 60.0)])
    def test_items_are_the_list_oracle_bytes(self, modulated_gold, n_samples, fs, rate_hz):
        got = structure_matrices(modulated_gold, fs, rate_hz, n_samples, 36)
        want = structure_matrices_list(modulated_gold, fs, rate_hz, n_samples, 36)
        assert isinstance(got, Sequence)
        assert len(got) == len(want) == 65
        assert got.shape == (65, 72, n_samples)
        for i, (item, w) in enumerate(zip(got, want, strict=True)):
            for g in (item, got[i], got[i - 65]):
                assert (g.dtype, g.shape, g.flags.c_contiguous) == (np.float64, w.shape, True)
                assert g.tobytes() == w.tobytes()
        kept = np.array([40, 3, 64, 0, 17])
        for subset, indices in ((got[kept], kept), (got[10:20:3], range(10, 20, 3))):
            assert isinstance(subset, StructureMatrices)
            assert len(subset) == len(indices)
            for g, k in zip(subset, indices, strict=True):
                assert g.tobytes() == want[k].tobytes()
        with pytest.raises(IndexError):
            got[65]

    def test_holds_only_the_onset_trains(self, modulated_gold):
        got = structure_matrices(modulated_gold, 120.0, 120.0, 504, 36)
        assert got.trains.shape == (65, 2, 35 + 504)
        assert got.trains.nbytes == 65 * 2 * 539 * 8
        assert not got.trains.flags.writeable
        kept = got[np.array([1, 2])]
        assert kept.trains.shape == (2, 2, 539)
        assert not np.shares_memory(kept.trains, got.trains)


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

    @pytest.mark.parametrize("rate", ["0", "-120", "nan", "inf", "fast"])
    def test_rejects_bad_rate(self, tmp_path, rate):
        # A zero or negative rate would place flashes at wrapped or
        # overflowing sample indices.
        path = tmp_path / "codes.txt"
        path.write_text(f"# rate_hz={rate}\n0101\n1010\n")
        message = f"codes.txt:1: rate_hz must be a positive number, got '{rate}'"
        with pytest.raises(ValueError, match=message):
            read_codebook(path)

    def test_rejects_duplicates(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("010\n010\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_codebook(path)

    def test_non_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_bytes(b"0101\n10\xff0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read_codebook(path)

    @settings(max_examples=200, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=200),
        # Mostly codebook-like text, so the parser's later checks are reached.
        st.lists(st.sampled_from([b"0", b"1", b"01", b"10", b"\n", b"\r\n", b" ", b"#",
                                  b"# rate_hz=", b"60", b"-1", b"nan", b"\xff", b"\xc3\xa9",
                                  b"\x00", b"\x0c", b"\xe2\x80\xa8"]),
                 max_size=40).map(b"".join),
    ))
    def test_arbitrary_bytes_give_a_codebook_or_name_the_file(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "codes.txt")
            with open(path, "wb") as fh:
                fh.write(raw)
            try:
                book = read_codebook(path)
            except ValueError as err:
                assert type(err) is ValueError
                assert str(err).startswith(path), str(err)
                return
        assert isinstance(book, Codebook)
        assert book.codes.dtype == np.uint8 and book.codes.shape[0] >= 2
        assert set(np.unique(book.codes)) <= {0, 1}
        assert 0 < book.rate_hz < math.inf

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 70).flatmap(
            lambda n_bits: st.lists(
                st.lists(st.integers(0, 1), min_size=n_bits, max_size=n_bits),
                min_size=2, max_size=8, unique_by=tuple,
            )
        ),
        rate_hz=st.one_of(st.none(), st.integers(1, 10_000),
                          st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)),
    )
    def test_write_read_round_trip(self, rows, rate_hz):
        codes = np.array(rows, dtype=np.uint8)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "codes.txt")
            write_codebook(path, codes, rate_hz=rate_hz)
            book = read_codebook(path)
        assert book.codes.dtype == np.uint8
        assert np.array_equal(book.codes, codes)
        assert book.rate_hz == (120.0 if rate_hz is None else float(rate_hz))
