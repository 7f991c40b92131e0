"""On-disk corpus model: descriptor sequences, manifests, split plans.

A video is stored as one FDS1 file holding its T x n descriptor matrix
(row t = descriptor of the flow between frames t and t+1).  A JSON
manifest lists videos, labels and file paths.  Split plans implement
leave-one-out and fixed train/test splits.  A synthetic-corpus generator
produces classes that differ only in the temporal order of shared pulse
motifs, for end-to-end validation.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError

FDS_MAGIC = b"FDS1"
MAX_ELEMENTS = 2**31  # cap on T * n when reading


@dataclass(frozen=True)
class DescriptorSequence:
    """One video as a time-major T x n matrix of frame descriptors.

    Data is kept in float32, the storage precision of the FDS1 format,
    so write/read round-trips are bitwise lossless.
    """

    video_id: str
    data: np.ndarray  # T x n, float32

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"sequence data must be T x n with T,n >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sequence data must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MultiChannelSeries:
    """One video as m parallel time series (channel-major m x L matrix)."""

    video_id: str
    data: np.ndarray  # m x L, float64

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"series data must be m x L with m,L >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series data must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ManifestEntry:
    video_id: str
    label: str
    path: str
    split_id: int | None = None


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        ids = [e.video_id for e in entries]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest video_ids must be unique")
        with_split = [e for e in entries if e.split_id is not None]
        if with_split and len(with_split) != len(entries):
            raise ValueError("split_id must be present on all entries or none")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_by_id", dict(zip(ids, entries)))

    def __len__(self) -> int:
        return len(self.entries)

    def video_ids(self) -> list[str]:
        return [e.video_id for e in self.entries]

    def labels(self) -> list[str]:
        """Distinct labels in sorted order."""
        return sorted({e.label for e in self.entries})

    def entry(self, video_id: str) -> ManifestEntry:
        return self._by_id[video_id]


@dataclass(frozen=True)
class Fold:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


@dataclass(frozen=True)
class SplitPlan:
    folds: tuple[Fold, ...]


# ---------------------------------------------------------------------------
# FDS1 serialization
# ---------------------------------------------------------------------------

def write_sequence(seq: DescriptorSequence, path) -> None:
    """Write a sequence as FDS1: magic, u32 T, u32 n, T*n float32 LE."""
    t, n = seq.data.shape
    with open(path, "wb") as fh:
        fh.write(FDS_MAGIC)
        fh.write(struct.pack("<II", t, n))
        fh.write(seq.data.astype("<f4", copy=False).tobytes())


def read_sequence(path, video_id: str | None = None) -> DescriptorSequence:
    """Read an FDS1 file; ``video_id`` defaults to the file stem."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FDS_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise DataFormatError(f"{path}: truncated header")
    t, n = struct.unpack_from("<II", blob, 4)
    if t < 1 or n < 1:
        raise DataFormatError(f"{path}: zero dimension (T={t}, n={n})")
    if t * n > MAX_ELEMENTS:
        raise DataFormatError(f"{path}: dimension overflow (T={t}, n={n})")
    payload = blob[12:]
    expected = t * n * 4
    if len(payload) < expected:
        raise DataFormatError(f"{path}: truncated payload ({len(payload)} of {expected} bytes)")
    if len(payload) > expected:
        raise DataFormatError(f"{path}: trailing bytes after payload")
    data = np.frombuffer(payload, dtype="<f4").reshape(t, n)
    if video_id is None:
        video_id = _stem(path)
    return DescriptorSequence(video_id=video_id, data=data)


def _stem(path) -> str:
    name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


# ---------------------------------------------------------------------------
# Length alignment
# ---------------------------------------------------------------------------

def align_lengths(series_list: list[MultiChannelSeries]) -> tuple[list[MultiChannelSeries], int]:
    """Zero-pad every series at the end to the maximum length in the list.

    Existing values are never altered; shorter series gain trailing
    all-zero columns.  Returns the padded list and the common length.
    """
    if not series_list:
        raise ValueError("empty corpus")
    channels = series_list[0].channels
    for s in series_list:
        if s.channels != channels:
            raise ValueError(
                f"mismatched channel counts: {s.video_id} has {s.channels}, expected {channels}"
            )
    l_max = max(s.length for s in series_list)
    out = []
    for s in series_list:
        if s.length == l_max:
            out.append(s)
        else:
            padded = np.zeros((channels, l_max))
            padded[:, : s.length] = s.data
            out.append(MultiChannelSeries(video_id=s.video_id, data=padded))
    return out, l_max


def align_to_length(series: MultiChannelSeries, length: int) -> MultiChannelSeries:
    """Pad (trailing zeros) or truncate one series to a fixed length.

    Truncation is flagged with a warning: it drops observed frames of a
    video longer than the length the models were built for.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if series.length == length:
        return series
    if series.length > length:
        warnings.warn(
            f"series {series.video_id!r} truncated from {series.length} to {length} frames",
            stacklevel=2,
        )
        return MultiChannelSeries(video_id=series.video_id, data=series.data[:, :length])
    padded = np.zeros((series.channels, length))
    padded[:, : series.length] = series.data
    return MultiChannelSeries(video_id=series.video_id, data=padded)


# ---------------------------------------------------------------------------
# Split plans
# ---------------------------------------------------------------------------

def make_loocv(manifest: Manifest) -> SplitPlan:
    """N folds for N videos: fold i tests video i, trains on the rest."""
    ids = manifest.video_ids()
    if len(ids) < 2:
        raise ValueError("LOOCV needs at least 2 videos")
    folds = []
    for i, test_id in enumerate(ids):
        train = tuple(v for j, v in enumerate(ids) if j != i)
        folds.append(Fold(train_ids=train, test_ids=(test_id,)))
    return SplitPlan(folds=tuple(folds))


def make_fixed_splits(manifest: Manifest) -> SplitPlan:
    """One fold per split_id: fold k tests entries with split_id k."""
    for e in manifest.entries:
        if e.split_id is None:
            raise ValueError(f"entry {e.video_id!r} is missing split_id")
    split_ids = sorted({e.split_id for e in manifest.entries})
    folds = []
    for k in split_ids:
        test = tuple(e.video_id for e in manifest.entries if e.split_id == k)
        train = tuple(e.video_id for e in manifest.entries if e.split_id != k)
        if not train:
            raise ValueError(f"empty train set for split {k}")
        folds.append(Fold(train_ids=train, test_ids=test))
    return SplitPlan(folds=tuple(folds))


# ---------------------------------------------------------------------------
# Manifest JSON
# ---------------------------------------------------------------------------

def save_manifest(manifest: Manifest, path) -> None:
    rows = []
    for e in manifest.entries:
        row = {"video_id": e.video_id, "label": e.label, "path": e.path}
        if e.split_id is not None:
            row["split_id"] = e.split_id
        rows.append(row)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")


def load_manifest(path) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            rows = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON manifest: {exc}") from exc
    if not isinstance(rows, list):
        raise DataFormatError(f"{path}: manifest must be a JSON array")
    entries = []
    for row in rows:
        try:
            entries.append(
                ManifestEntry(
                    video_id=row["video_id"],
                    label=row["label"],
                    path=row["path"],
                    split_id=row.get("split_id"),
                )
            )
        except (KeyError, TypeError) as exc:
            raise DataFormatError(f"{path}: malformed manifest entry {row!r}") from exc
    return Manifest(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthInfo:
    """Ground truth of a synthetic corpus, for oracle checks.

    ``patterns`` holds one per-channel amplitude pattern per motif;
    ``envelope`` the shared zero-mean temporal pulse shape; class c plays
    motif (j + c) mod K in slot j, slots at fixed offsets from t = 0.
    """

    patterns: np.ndarray  # K x channels
    envelope: np.ndarray  # slot_width
    slot_width: int
    orders: tuple[tuple[int, ...], ...]  # per class: motif id per slot
    noise_sigma: float


def generate_synthetic_corpus(
    classes: int,
    per_class: int,
    channels: int,
    min_len: int,
    max_len: int,
    seed: int,
    noise_sigma: float = 0.05,
    amplitude: float = 1.0,
) -> tuple[Manifest, list[DescriptorSequence], SynthInfo]:
    """Generate a corpus whose classes differ only by motif order.

    Every video contains the same K = ``classes`` pulse motifs exactly
    once, injected at fixed slots within the first ``min_len`` frames;
    class c uses the cyclic order (j + c) mod K.  Motif envelopes are
    zero-mean, so per-channel marginal means and variances are identical
    across classes and only temporal structure separates them.
    """
    if classes < 2:
        raise ValueError("classes must be at least 2")
    if per_class < 2:
        raise ValueError("per_class must be at least 2")
    if channels < 1:
        raise ValueError("channels must be at least 1")
    if min_len < 16 or max_len < min_len:
        raise ValueError("need max_len >= min_len >= 16")

    rng = np.random.default_rng(seed)
    k = classes
    slot_width = min_len // k

    patterns = rng.normal(size=(k, channels))
    patterns /= np.linalg.norm(patterns, axis=1, keepdims=True)
    patterns *= amplitude
    # Full sine over the slot: biphasic, zero time-mean.
    envelope = np.sin(2.0 * np.pi * (np.arange(slot_width) + 0.5) / slot_width)
    orders = tuple(tuple((j + c) % k for j in range(k)) for c in range(classes))

    entries = []
    sequences = []
    for c in range(classes):
        for v in range(per_class):
            video_id = f"c{c}v{v:03d}"
            length = int(rng.integers(min_len, max_len + 1))
            data = rng.normal(scale=noise_sigma, size=(length, channels))
            for j, motif in enumerate(orders[c]):
                start = j * slot_width
                data[start : start + slot_width] += np.outer(envelope, patterns[motif])
            sequences.append(DescriptorSequence(video_id=video_id, data=data))
            entries.append(
                ManifestEntry(video_id=video_id, label=f"class{c}", path=f"{video_id}.fds")
            )
    info = SynthInfo(
        patterns=patterns,
        envelope=envelope,
        slot_width=slot_width,
        orders=orders,
        noise_sigma=noise_sigma,
    )
    return Manifest(entries=tuple(entries)), sequences, info


def save_corpus(manifest: Manifest, sequences: list[DescriptorSequence], out_dir) -> str:
    """Write sequences and manifest.json under ``out_dir``; returns manifest path."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    by_id = {s.video_id: s for s in sequences}
    for e in manifest.entries:
        write_sequence(by_id[e.video_id], os.path.join(out_dir, e.path))
    manifest_path = os.path.join(out_dir, "manifest.json")
    save_manifest(manifest, manifest_path)
    return manifest_path
