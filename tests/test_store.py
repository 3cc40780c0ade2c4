import csv
import json
import os
import re
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynastop import store
from dynastop.decoding import Trial
from dynastop.metrics import CSV_COLUMNS, MetricsRow
from dynastop.store import (
    StoreError,
    load_store,
    read_store,
    write_results_csv,
    write_store,
)


def make_trials(rng, n_trials=6, channels=3, samples=20, n_classes=3, fs=120.0):
    return [
        Trial(
            rng.standard_normal((channels, samples)).astype(np.float32).astype(float),
            i % n_classes,
            fs,
        )
        for i in range(n_trials)
    ]


class TestStoreRoundtrip:
    def test_bit_exact(self, tmp_path, rng):
        trials = make_trials(rng)
        path = tmp_path / "store"
        write_store(path, trials, n_classes=3, codebook="codes.txt")
        meta, back = load_store(path)
        assert meta.n_trials == 6
        assert meta.codebook == "codes.txt"
        assert meta.fs == 120.0
        for original, loaded in zip(trials, back):
            np.testing.assert_array_equal(loaded.data, original.data)
            assert loaded.label == original.label

    def test_empty_store(self, tmp_path):
        # A store holds at least one trial; the writer refuses an empty list
        # and creates nothing.
        path = tmp_path / "store"
        with pytest.raises(StoreError, match="store holds no trials"):
            write_store(path, [], n_classes=4)
        assert not path.exists()

    def test_single_sample_trial(self, tmp_path):
        path = tmp_path / "store"
        trials = [Trial(np.array([[0.5]]), 0, 10.0), Trial(np.array([[-1.5]]), 1, 10.0)]
        write_store(path, trials, n_classes=2)
        _, back = load_store(path)
        assert back[0].data[0, 0] == 0.5
        assert back[1].data[0, 0] == -1.5

    def test_streaming_reader_is_lazy(self, tmp_path, rng):
        path = tmp_path / "store"
        write_store(path, make_trials(rng), n_classes=3)
        meta, stream = read_store(path)
        assert isinstance(stream, types.GeneratorType)
        first = next(stream)
        assert first.data.shape == (3, 20)


def trial_loop_reader(path, meta):
    """Reference reader: one np.fromfile call and one float32 copy per trial."""
    per_trial = meta.n_channels * meta.n_samples
    trials = []
    with open(os.path.join(path, "eeg.f32"), "rb") as fh:
        for label in meta.labels:
            block = np.fromfile(fh, dtype="<f4", count=per_trial)
            data = block.astype(np.float32).reshape(meta.n_channels, meta.n_samples)
            trials.append(Trial(data=data, label=label, fs=meta.fs))
    return trials


class TestChunkedReader:
    """load_store reads the blob in chunks of whole trials; each trial must
    still come out as the per-trial reader made it."""

    @pytest.mark.parametrize("n_trials, shape", [
        (1, (4, 256)),
        (store._CHUNK_BYTES // (4 * 256 * 4), (4, 256)),  # exactly one chunk
        (store._CHUNK_BYTES // (4 * 256 * 4) + 1, (4, 256)),  # one chunk and one trial
        (3, (2, store._CHUNK_BYTES // 8 + 1)),  # each trial larger than a chunk
    ], ids=["one-trial", "one-chunk", "chunk-plus-one", "trial-over-chunk"])
    def test_matches_trial_loop(self, tmp_path, rng, n_trials, shape):
        path = tmp_path / "store"
        write_store(path, make_trials(rng, n_trials, *shape), n_classes=3)
        meta, got = load_store(path)
        want = trial_loop_reader(path, meta)
        assert len(got) == len(want) == n_trials
        for g, w in zip(got, want):
            assert (g.label, g.fs) == (w.label, w.fs)
            assert g.data.dtype == w.data.dtype and g.data.shape == w.data.shape
            assert g.data.flags.c_contiguous
            assert g.data.tobytes() == w.data.tobytes()
        # Every trial is an array of its own, not a view of a shared chunk.
        assert not any(np.shares_memory(a.data, b.data) for a, b in zip(got, got[1:]))


class TestStoreErrors:
    def test_truncated_blob(self, tmp_path, rng):
        # Found when the store is opened, before the stream reads a sample.
        path = tmp_path / "store"
        write_store(path, make_trials(rng), n_classes=3)
        blob = path / "eeg.f32"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(StoreError, match="size"):
            read_store(path)
        with pytest.raises(StoreError, match="size"):
            load_store(path)

    def test_blob_truncated_while_streaming(self, tmp_path, rng):
        # A chunk read short must not yield the previous chunk's samples.
        path = tmp_path / "store"
        write_store(path, make_trials(rng), n_classes=3)
        _, stream = read_store(path)
        blob = path / "eeg.f32"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(StoreError, match="shrank"):
            list(stream)

    def test_label_out_of_range(self, tmp_path, rng):
        path = tmp_path / "store"
        write_store(path, make_trials(rng), n_classes=3)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["labels"][2] = 3
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=r"labels\[2\]=3"):
            read_store(path)

    def test_unreadable_manifest(self, tmp_path):
        path = tmp_path / "store"
        os.makedirs(path)
        (path / "manifest.json").write_text("{nope")
        with pytest.raises(StoreError, match="unreadable manifest"):
            read_store(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="no manifest"):
            read_store(tmp_path / "nowhere")

    def test_missing_field(self, tmp_path, rng):
        path = tmp_path / "store"
        write_store(path, make_trials(rng), n_classes=3)
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["fs"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="'fs'"):
            read_store(path)

    def test_wrong_byte_order(self, tmp_path, rng):
        path = tmp_path / "store"
        write_store(path, make_trials(rng), n_classes=3)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["byte_order"] = "big"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="byte_order"):
            read_store(path)

    def test_wrong_version(self, tmp_path, rng):
        path = tmp_path / "store"
        write_store(path, make_trials(rng), n_classes=3)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 2
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="format_version"):
            read_store(path)

    def test_write_rejects_bad_labels(self, tmp_path, rng):
        trials = make_trials(rng)
        trials[1].label = 7
        with pytest.raises(StoreError, match=r"labels\[1\]"):
            write_store(tmp_path / "store", trials, n_classes=3)

    def test_write_rejects_mixed_shapes(self, tmp_path, rng):
        trials = make_trials(rng)
        trials[1] = Trial(np.zeros((2, 20)), 1, 120.0)
        with pytest.raises(StoreError, match="shape"):
            write_store(tmp_path / "store", trials, n_classes=3)

    @pytest.mark.parametrize("label", [1.5, 1.0, True, np.True_, "1", None, np.float64(1.0)])
    def test_write_rejects_labels_that_are_not_integers(self, tmp_path, label):
        # 1.5 was once stored as 1, and True as 1.
        trials = make_trials(np.random.default_rng(3))
        trials[1].label = label
        path = tmp_path / "store"
        with pytest.raises(StoreError, match=rf"^labels\[1\]={re.escape(repr(label))} is not an "
                                             "integer$"):
            write_store(path, trials, n_classes=3)
        assert not path.exists()

    def test_write_takes_numpy_integer_labels(self, tmp_path, rng):
        trials = make_trials(rng)
        for trial, label in zip(trials, (np.int64(2), np.uint8(1), np.int32(0))):
            trial.label = label
        write_store(tmp_path / "store", trials, n_classes=3)
        meta, _ = read_store(tmp_path / "store")
        assert meta.labels == [2, 1, 0, 0, 1, 2]

    def test_write_rejects_a_finite_sample_past_float32(self, tmp_path, rng):
        # Once cast to inf with only a RuntimeWarning, so the store wrote and
        # calibrate then rejected it as non-finite.
        trials = make_trials(rng)
        trials[2].data[1, 5] = -1e39
        path = tmp_path / "store"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StoreError, match=r"^trial 2 \(label 2\) has a finite sample "
                                                 "beyond float32's range"):
                write_store(path, trials, n_classes=3)
        assert not path.exists()

    def test_write_keeps_nan_and_infinite_samples(self, tmp_path, rng):
        trials = make_trials(rng)
        trials[1].data[0, :3] = [np.nan, np.inf, -np.inf]
        trials[1].data[0, 3] = np.finfo(np.float32).max  # the largest float32 still fits
        write_store(tmp_path / "store", trials, n_classes=3)
        _, back = load_store(tmp_path / "store")
        for original, loaded in zip(trials, back):
            assert loaded.data.tobytes() == original.data.astype(np.float32).tobytes()


class TestStreamingWriter:
    """write_store takes any iterable, writes each trial as it comes, and puts
    the store in place only after the last one."""

    def test_empty_iterable_creates_nothing(self, tmp_path):
        path = tmp_path / "a" / "store"
        with pytest.raises(StoreError, match="store holds no trials"):
            write_store(path, iter(()), n_classes=4)
        assert not (tmp_path / "a").exists()

    def test_generator_matches_list(self, tmp_path, rng):
        trials = make_trials(rng)
        write_store(tmp_path / "list", trials, n_classes=3, codebook="c.txt")
        write_store(tmp_path / "gen", (t for t in trials), n_classes=3, codebook="c.txt")
        for name in ("manifest.json", "eeg.f32"):
            streamed, listed = (tmp_path / "gen" / name), (tmp_path / "list" / name)
            assert streamed.read_bytes() == listed.read_bytes()
        assert sorted(os.listdir(tmp_path / "gen")) == ["eeg.f32", "manifest.json"]

    @staticmethod
    def failing_at(trials, k, how):
        """The trials as a generator whose k-th trial is bad in the way named."""
        for i, trial in enumerate(trials):
            if i == k:
                if how == "raises":
                    raise RuntimeError(f"source failed at trial {k}")
                trial = {
                    "shape": Trial(np.zeros((2, 20)), trial.label, trial.fs),
                    "fs": Trial(trial.data, trial.label, 100.0),
                    "label": Trial(trial.data, 3, trial.fs),
                    "overflow": Trial(np.full((3, 20), 1e39), trial.label, trial.fs),
                }[how]
            yield trial

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("how, message", [
        ("shape", "trial {k} shape"), ("fs", "trial {k} sampling rate"),
        ("label", r"labels\[{k}\]=3 out of range"), ("overflow", r"trial {k} \(label"),
        ("raises", "source failed at trial {k}"),
    ])
    def test_bad_trial_leaves_the_path_as_it_was(self, tmp_path, rng, k, how, message):
        error = RuntimeError if how == "raises" else StoreError
        # No directory before: none after, the missing parent included.
        fresh = tmp_path / "parent" / "store"
        with pytest.raises(error, match=message.format(k=k)):
            write_store(fresh, self.failing_at(make_trials(rng), k, how), n_classes=3)
        assert not (tmp_path / "parent").exists()
        # A store already there reads back byte-identical, with no file added.
        path = tmp_path / "store"
        write_store(path, make_trials(rng, n_trials=4, samples=7), n_classes=3, codebook="c")
        before = {name: (path / name).read_bytes() for name in os.listdir(path)}
        with pytest.raises(error, match=message.format(k=k)):
            write_store(path, self.failing_at(make_trials(rng), k, how), n_classes=3)
        assert {name: (path / name).read_bytes() for name in os.listdir(path)} == before
        meta, back = load_store(path)
        assert (meta.n_trials, meta.n_samples, meta.codebook) == (4, 7, "c")


# Per manifest field, values a store reader must reject: mistyped (a JSON bool
# is no int), not finite, or out of range; MISSING deletes the field.
MISSING = object()
NAN, INF = float("nan"), float("inf")
BAD_MANIFEST_VALUES = {
    "format_version": [MISSING, 2, 0, 1.0, "1", True, None],
    "byte_order": [MISSING, "big", 1, None],
    "n_trials": [MISSING, -1, 5, 7, 6.0, "6", True, NAN, None],
    "fs": [MISSING, NAN, INF, -INF, 0, -120.0, "120", True, None, [120.0], 10**400],
    "channels": [MISSING, 0, -3, 3.0, "3", True, INF, None],
    "samples_per_trial": [MISSING, 0, -20, 20.5, "20", False, NAN, None],
    "n_classes": [MISSING, 0, -1, 3.0, "3", True, None],
    "labels": [MISSING, "0,1,2", 3, None, {"0": 0}, [0, 1, 2, 0, 1, True],
               [0, 1, 2, 0, 1, 3], [0, 1, 2, 0, 1, -1], [0, 1, 2, 0, 1, 1.0],
               [0, 1, 2, 0, 1, NAN]],
    "codebook": [5, 1.5, True, ["codes.txt"], {"path": "codes.txt"}],
}

# Any JSON value, for manifest fields the property test below rewrites.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8,
)


class TestManifestProperty:
    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(sorted(BAD_MANIFEST_VALUES)), data=st.data())
    def test_bad_field_raises_store_error_naming_it(self, field, data):
        value = data.draw(st.sampled_from(BAD_MANIFEST_VALUES[field]))
        rng = np.random.default_rng(5)
        with tempfile.TemporaryDirectory() as path:
            write_store(path, make_trials(rng), n_classes=3, codebook="codes.txt")
            manifest_path = os.path.join(path, "manifest.json")
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            if value is MISSING:
                del manifest[field]
            else:
                manifest[field] = value
            with open(manifest_path, "w") as fh:
                json.dump(manifest, fh)
            with pytest.raises(StoreError, match=field):
                read_store(path)

    @settings(max_examples=200, deadline=None)
    @given(
        edits=st.dictionaries(st.sampled_from(sorted(BAD_MANIFEST_VALUES)),
                              st.one_of(st.just(MISSING), JSON_VALUES), max_size=3),
        samples=st.integers(1, 4),
        blob_bytes=st.one_of(st.none(), st.integers(0, 6 * 3 * 4 * 4 + 8)),
        raw=st.one_of(st.none(), st.binary(max_size=40)),
    )
    def test_mutated_store_reads_or_raises_store_error(self, edits, samples, blob_bytes, raw):
        # A store of 6 trials of 3 x `samples`; some manifest fields rewritten
        # or deleted, the blob cut or padded to blob_bytes, or the manifest
        # replaced by raw bytes.
        rng = np.random.default_rng(5)
        with tempfile.TemporaryDirectory() as path:
            write_store(path, make_trials(rng, samples=samples), n_classes=3,
                        codebook="codes.txt")
            manifest_path = os.path.join(path, "manifest.json")
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            for field, value in edits.items():
                if value is MISSING:
                    del manifest[field]
                else:
                    manifest[field] = value
            with open(manifest_path, "wb") as fh:
                fh.write(json.dumps(manifest).encode() if raw is None else raw)
            if blob_bytes is not None:
                os.truncate(os.path.join(path, "eeg.f32"), blob_bytes)  # pads with zeros
            try:
                meta, stream = read_store(path)
                trials = list(stream)
            except StoreError:
                return
        assert meta.codebook is None or isinstance(meta.codebook, str)
        assert len(trials) == meta.n_trials == len(meta.labels)
        assert all(t.data.shape == (meta.n_channels, meta.n_samples) for t in trials)

    def test_manifest_without_trials_rejected(self, tmp_path, rng):
        # n_trials 0 with a matching empty blob and label list is still no store.
        write_store(tmp_path, make_trials(rng), n_classes=3)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest.update(n_trials=0, labels=[])
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "eeg.f32").write_bytes(b"")
        with pytest.raises(StoreError, match="store holds no trials"):
            read_store(tmp_path)


def sample_row(subject="s01", method="bds", hyperparam=1.0):
    return MetricsRow(
        subject=subject,
        method=method,
        hyperparam=hyperparam,
        similarity="inner",
        accuracy=0.9,
        mean_stop_s=0.6,
        itr=100.0,
        spm=30.5,
        precision=0.8,
        recall=0.1,
        specificity=0.99,
        f_score=0.18,
    )


class TestResultsCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(path, [])
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_roundtrip_single_row(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(path, [sample_row()])
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 1
        rec = records[0]
        assert rec["subject"] == "s01"
        assert float(rec["accuracy"]) == 0.9
        assert float(rec["hyperparam"]) == 1.0

    def test_shortest_roundtrip_floats(self, tmp_path):
        path = tmp_path / "out.csv"
        row = sample_row()
        row.accuracy = 0.1
        row.hyperparam = 1e-10
        write_results_csv(path, [row])
        text = path.read_text()
        assert "0.1" in text
        assert "1e-10" in text
        assert "0.10000000" not in text

    def test_deterministic_ordering(self, tmp_path):
        rows = [
            sample_row("s02", "margin", 0.9),
            sample_row("s01", "bds", 10.0),
            sample_row("s01", "bds", 2.0),
            sample_row("s01", "bds", 1.0),
        ]
        path = tmp_path / "out.csv"
        write_results_csv(path, rows)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        keys = [(r["subject"], r["method"], r["hyperparam"]) for r in records]
        # hyperparameters order numerically, not lexically (2.0 before 10.0)
        assert keys == [
            ("s01", "bds", "1.0"),
            ("s01", "bds", "2.0"),
            ("s01", "bds", "10.0"),
            ("s02", "margin", "0.9"),
        ]

    def test_append_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(path, [sample_row("s01")], append=True)
        write_results_csv(path, [sample_row("s02")], append=True)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [r["subject"] for r in records] == ["s01", "s02"]

    @pytest.mark.parametrize("terminator", [b"", b"\r\n", b"\n"])
    def test_append_after_unterminated_last_row(self, tmp_path, terminator):
        # A last row without its line terminator once had the first new row
        # written onto it ("...,0.5s02,bds,..."). A header alone counts too.
        path = tmp_path / "out.csv"
        write_results_csv(path, [sample_row("s01")])
        header, row = path.read_bytes().split(b"\r\n")[:2]
        for content in (header + b"\r\n" + row + terminator, header + terminator):
            path.write_bytes(content)
            write_results_csv(path, [sample_row("s02", hyperparam=2.0)], append=True)
            with open(path, newline="") as fh:
                records = list(csv.DictReader(fh))
            old = [("s01", "1.0")] if row in content else []
            assert [(r["subject"], r["hyperparam"]) for r in records] == old + [("s02", "2.0")]
            assert path.read_bytes().startswith(content)

    def test_append_to_empty_file_writes_header(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"")
        write_results_csv(path, [sample_row("s01")], append=True)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [r["subject"] for r in records] == ["s01"]
        assert path.read_text().startswith(",".join(CSV_COLUMNS))

    @pytest.mark.parametrize("content", [
        b"subject,method,accuracy\r\ns01,bds,0.5\r\n",
        b"\r\n",
        ",".join(reversed(CSV_COLUMNS)).encode() + b"\r\n",
        b"\xff\xfe,not text\r\n",
        # The header of results files written while the schema carried eight
        # ci_* half-width columns, which no row filled.
        ",".join(CSV_COLUMNS).encode() + b",ci_accuracy,ci_mean_stop_s,ci_itr,ci_spm,"
        b"ci_precision,ci_recall,ci_specificity,ci_f_score\r\n",
    ])
    def test_append_under_other_header_raises(self, tmp_path, content):
        path = tmp_path / "out.csv"
        path.write_bytes(content)
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: "):
            write_results_csv(path, [sample_row("s01")], append=True)
        assert path.read_bytes() == content

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(path, [sample_row()])
        raw = path.read_bytes()
        assert b"\r\n" in raw

    def test_none_hyperparam_empty_cell(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(path, [sample_row(hyperparam=None)])
        with open(path, newline="") as fh:
            rec = next(csv.DictReader(fh))
        assert rec["hyperparam"] == ""
