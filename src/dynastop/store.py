"""On-disk formats: the trial store (JSON manifest plus raw float32 blob)
and the results CSV.

A store is a directory holding manifest.json and eeg.f32. The blob carries
little-endian float32 samples in trial-major, then channel-major, then sample
order, so trials stream without loading the whole file.
"""

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .decoding import Trial
from .metrics import CSV_COLUMNS

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "eeg.f32"
FORMAT_VERSION = 1
_SAMPLE_DTYPE = np.dtype("<f4")
_CHUNK_BYTES = 1 << 17  # blob bytes per read; a larger trial is read alone


class StoreError(Exception):
    """Malformed store: the message names the offending field or file."""


@dataclass
class StoreMeta:
    """Manifest contents of a trial store."""

    fs: float
    n_channels: int
    n_samples: int
    n_trials: int
    n_classes: int
    labels: list
    codebook: str | None = None


def write_store(path, trials, n_classes, codebook=None):
    """Write trials to a store directory (created if missing).

    Each trial's samples go to a temporary blob in the directory as the trial
    arrives, so the trials may come from a generator and are never all held
    at once. Only after the last trial are the blob and then the manifest
    renamed into place: a write that raises leaves a store already at the path
    as it was, and removes the directories it created. Concurrent readers are
    safe once writing finishes; the format provides no locking, so keep at
    most one writer per path.

    Parameters
    ----------
    path: str
        Store directory.
    trials: iterable of Trial
        At least one labeled trial; all of identical shape and sampling rate.
    n_classes: int
        Label range; every label must be an integer (a numpy integer, not a
        bool) in [0, n_classes).
    codebook: str (optional)
        Manifest reference to a codebook file, stored as given.

    Raises
    ------
    StoreError
        For no trials, and for a trial whose shape, sampling rate or label is
        wrong or that holds a finite sample beyond float32's range, named by
        its index. NaN and infinite samples are stored as they are.
    """
    created = []  # directories this call makes, deepest first
    parent = os.path.abspath(path)
    while not os.path.exists(parent):
        created.append(parent)
        parent = os.path.dirname(parent)
    parts = {name: os.path.join(path, name + ".tmp") for name in (BLOB_NAME, MANIFEST_NAME)}
    blob = None
    try:
        labels = []
        for i, trial in enumerate(trials):
            samples = _trial_samples(i, trial, n_classes)
            if blob is None:
                shape, fs = samples.shape, float(trial.fs)
                os.makedirs(path, exist_ok=True)
                blob = open(parts[BLOB_NAME], "wb")
            elif samples.shape != shape:
                raise StoreError(f"trial {i} shape {samples.shape} != {shape}")
            elif float(trial.fs) != fs:
                raise StoreError(f"trial {i} sampling rate {trial.fs} != {fs}")
            blob.write(samples)
            labels.append(int(trial.label))
        if blob is None:
            raise StoreError(f"{path}: store holds no trials")
        blob.close()
        manifest = {
            "format_version": FORMAT_VERSION,
            "fs": fs,
            "channels": int(shape[0]),
            "samples_per_trial": int(shape[1]),
            "n_trials": len(labels),
            "n_classes": int(n_classes),
            "labels": labels,
            "codebook": codebook,
            "byte_order": "little",
        }
        with open(parts[MANIFEST_NAME], "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        for name, part in parts.items():
            os.replace(part, os.path.join(path, name))
    except BaseException:
        if blob is not None:
            blob.close()
        for part in parts.values():
            with contextlib.suppress(OSError):
                os.remove(part)
        for directory in created:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


def _trial_samples(index, trial, n_classes):
    """A trial's samples as the blob holds them, little-endian float32; a
    label that is not an integer in [0, n_classes), or a finite sample that
    float32 cannot hold, raises StoreError naming the trial."""
    label = trial.label
    if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
        raise StoreError(f"labels[{index}]={label!r} is not an integer")
    if not 0 <= label < n_classes:
        raise StoreError(f"labels[{index}]={label} out of range [0, {n_classes})")
    try:
        # numpy (>= 1.24) flags a cast overflow, which only a finite sample makes.
        with np.errstate(over="raise"):
            return np.ascontiguousarray(trial.data, dtype=_SAMPLE_DTYPE)
    except FloatingPointError:
        raise StoreError(f"trial {index} (label {label}) has a finite sample beyond float32's "
                         f"range (magnitude above {np.finfo(_SAMPLE_DTYPE).max:.7g})") from None


def _require(manifest, key, kind, valid=None, domain=""):
    """manifest[key] as kind, where a JSON boolean is never a number; with
    valid, a value it rejects is out of range and the message shows domain."""
    if key not in manifest:
        raise StoreError(f"manifest field {key!r} is missing")
    value = manifest[key]
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise StoreError(f"manifest field {key!r} must be {domain}, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise StoreError(f"manifest field {key!r} has type {type(value).__name__}")
    if valid is not None and not valid(value):
        raise StoreError(f"manifest field {key!r} must be {domain}, got {value!r}")
    return value


def read_store(path):
    """Open a store and stream its trials.

    Returns
    -------
    meta: StoreMeta
    trials: generator of Trial
        Yields trials in stored order, each its own float32 array, the
        blob's precision: float64 would double what a caller holding the
        trials keeps. Holds one chunk of the blob (whole trials, 128 KiB or
        one larger trial) at a time.

    Raises
    ------
    StoreError
        On unparsable manifests, size mismatches, or out-of-range labels, with
        the offending field named.
    """
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise StoreError(f"{manifest_path}: no manifest") from None
    except ValueError as err:  # not JSON, not UTF-8, or a number too long to convert
        raise StoreError(f"{manifest_path}: unreadable manifest: {err}") from None
    if not isinstance(manifest, dict):
        raise StoreError(f"{manifest_path}: manifest is not a JSON object")

    if _require(manifest, "format_version", int) != FORMAT_VERSION:
        raise StoreError(f"format_version {manifest['format_version']} unsupported")
    byte_order = _require(manifest, "byte_order", str)
    if byte_order != "little":
        raise StoreError(f"byte_order {byte_order!r} unsupported (little-endian v1 only)")
    n_trials = _require(manifest, "n_trials", int, lambda v: v >= 0, ">= 0")
    if n_trials == 0:
        raise StoreError(f"{path}: store holds no trials")
    meta = StoreMeta(
        fs=_require(manifest, "fs", float, lambda v: math.isfinite(v) and v > 0,
                    "finite and > 0"),
        n_channels=_require(manifest, "channels", int, lambda v: v > 0, "> 0"),
        n_samples=_require(manifest, "samples_per_trial", int, lambda v: v > 0, "> 0"),
        n_trials=n_trials,
        n_classes=_require(manifest, "n_classes", int, lambda v: v > 0, "> 0"),
        labels=_require(manifest, "labels", list),
        codebook=manifest.get("codebook"),
    )
    if not isinstance(meta.codebook, (str, type(None))):
        raise StoreError(f"manifest field 'codebook' has type {type(meta.codebook).__name__}")
    if len(meta.labels) != meta.n_trials:
        raise StoreError(f"labels length {len(meta.labels)} != n_trials {meta.n_trials}")
    for i, label in enumerate(meta.labels):
        if type(label) is not int or not 0 <= label < meta.n_classes:
            raise StoreError(f"labels[{i}]={label} out of range [0, {meta.n_classes})")

    blob_path = os.path.join(path, BLOB_NAME)
    expected = meta.n_trials * meta.n_channels * meta.n_samples * _SAMPLE_DTYPE.itemsize
    try:
        actual = os.path.getsize(blob_path)
    except FileNotFoundError:
        raise StoreError(f"{blob_path}: no sample blob") from None
    if actual != expected:
        raise StoreError(
            f"{blob_path}: size {actual} != expected {expected} "
            f"(n_trials x channels x samples_per_trial x 4)"
        )

    def trials():
        per_trial = meta.n_channels * meta.n_samples
        per_chunk = max(1, _CHUNK_BYTES // (per_trial * _SAMPLE_DTYPE.itemsize))
        # One chunk buffer per stream: a fresh one per read raises peak memory.
        buffer = np.empty(min(per_chunk, meta.n_trials) * per_trial, dtype=_SAMPLE_DTYPE)
        with open(blob_path, "rb") as fh:
            for first in range(0, meta.n_trials, per_chunk):
                labels = meta.labels[first:first + per_chunk]
                block = buffer[:len(labels) * per_trial]
                if fh.readinto(block) != block.nbytes:
                    raise StoreError(f"{blob_path}: blob shrank while it was read")
                for data, label in zip(block.reshape(len(labels), meta.n_channels, -1), labels):
                    yield Trial(data=data.astype(np.float32), label=label, fs=meta.fs)

    return meta, trials()


def load_store(path):
    """read_store with the trials materialized into a list: float32 arrays
    whose bytes sum to the blob's size."""
    meta, stream = read_store(path)
    return meta, list(stream)


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(path, rows, append=False):
    """Write metrics rows as RFC-4180 CSV with the fixed column schema.

    Rows are ordered by (subject, method, hyperparam, similarity), and floats
    use their shortest round-trip decimal form. With append=True an existing
    file keeps its header and gains the new rows, and an empty one gets the
    header; a file whose first row is not CSV_COLUMNS raises StoreError naming
    it and is left as it was.
    """
    ordered = sorted(
        rows,
        key=lambda r: (
            r.subject,
            r.method,
            r.hyperparam is not None,
            0.0 if r.hyperparam is None else float(r.hyperparam),
            r.similarity,
        ),
    )
    fresh = not (append and os.path.exists(path))
    if not fresh:
        try:
            with open(path, newline="") as fh:
                header = next(csv.reader(fh), None)
        except (UnicodeDecodeError, csv.Error) as err:
            raise StoreError(f"{path}: unreadable results header: {err}") from None
        if header is not None and tuple(header) != CSV_COLUMNS:
            raise StoreError(f"{path}: header {','.join(header)!r} is not the results "
                             "header, so no rows were appended")
        fresh = header is None
    mode = "w" if fresh else "a"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_COLUMNS)
        for row in ordered:
            writer.writerow([_format_cell(getattr(row, col)) for col in CSV_COLUMNS])
