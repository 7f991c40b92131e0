"""On-disk corpus model: descriptor sequences, manifests, splits into folds.

A video is stored as one ARR1 file (see ``arrays``) holding its T x n
descriptor matrix as the float32 array ``descriptors`` (row t =
descriptor of the flow between frames t and t+1).  The file holds no
id: a JSON manifest lists videos, labels and file paths, and a corpus is
a ``{video_id: sequence}`` dict keyed by the manifest.  ``make_loocv``
and ``make_fixed_splits`` return the tuple of ``Fold``s of a
leave-one-out or fixed train/test split.  A synthetic-corpus generator
produces classes that differ only in the temporal order of shared pulse
motifs, for end-to-end validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import arrays
from .errors import DataFormatError


@dataclass(frozen=True)
class DescriptorSequence:
    """One video as a time-major T x n matrix of frame descriptors.

    Data is kept in float32, the precision of a descriptor file,
    so write/read round-trips are bitwise lossless.
    """

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


# ---------------------------------------------------------------------------
# Descriptor files
# ---------------------------------------------------------------------------

def write_sequence(seq: DescriptorSequence, path) -> None:
    """Write a sequence as an ARR1 file holding its ``descriptors``."""
    arrays.write(path, descriptors=seq.data)


def read_sequence(path) -> DescriptorSequence:
    """Read a descriptor file."""
    data = arrays.load(path, descriptors=("<f4", (None, None)))["descriptors"]
    t, n = data.shape
    if t < 1 or n < 1:
        raise DataFormatError(f"{path}: zero dimension (T={t}, n={n})")
    try:
        return DescriptorSequence(data)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def make_loocv(manifest: Manifest) -> tuple[Fold, ...]:
    """N folds for N videos: fold i tests video i, trains on the rest."""
    ids = manifest.video_ids()
    if len(ids) < 2:
        raise ValueError("LOOCV needs at least 2 videos")
    folds = []
    for i, test_id in enumerate(ids):
        train = tuple(v for j, v in enumerate(ids) if j != i)
        folds.append(Fold(train_ids=train, test_ids=(test_id,)))
    return tuple(folds)


def make_fixed_splits(manifest: Manifest) -> tuple[Fold, ...]:
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
    return tuple(folds)


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
    arrays.write_file(path, (json.dumps(rows, indent=2) + "\n").encode("utf-8"))


def load_manifest(path) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: manifest is not UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON manifest: {exc}") from exc
    if not isinstance(rows, list):
        raise DataFormatError(f"{path}: manifest must be a JSON array")
    entries = []
    keys = ("video_id", "label", "path", "split_id")
    for row in rows:
        values = [row.get(key) for key in keys] if isinstance(row, dict) else []
        # video_id, label and path are strings; split_id an integer or absent
        if not (values and all(isinstance(v, str) for v in values[:3])
                and (values[3] is None or type(values[3]) is int)):
            raise DataFormatError(f"{path}: malformed manifest entry {row!r}")
        # ids and labels become CSV fields of the reports and feature tables
        if any(c in text for text in values[:2] for c in ",\r\n"):
            raise DataFormatError(f"{path}: ',' or a line break in video_id or label of {row!r}")
        entries.append(ManifestEntry(*values))
    try:
        return Manifest(entries=tuple(entries))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


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
) -> tuple[Manifest, dict, SynthInfo]:
    """Generate a corpus whose classes differ only by motif order.

    Every video contains the same K = ``classes`` pulse motifs exactly
    once, injected at fixed slots within the first ``min_len`` frames;
    class c uses the cyclic order (j + c) mod K.  Motif envelopes are
    zero-mean, so per-channel marginal means and variances are identical
    across classes and only temporal structure separates them.  The
    sequences are a ``{video_id: sequence}`` dict in manifest order.
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
    # Full sine over the slot: biphasic, zero time-mean.
    envelope = np.sin(2.0 * np.pi * (np.arange(slot_width) + 0.5) / slot_width)
    orders = tuple(tuple((j + c) % k for j in range(k)) for c in range(classes))

    entries = []
    sequences = {}
    for c in range(classes):
        for v in range(per_class):
            video_id = f"c{c}v{v:03d}"
            length = int(rng.integers(min_len, max_len + 1))
            data = rng.normal(scale=noise_sigma, size=(length, channels))
            for j, motif in enumerate(orders[c]):
                start = j * slot_width
                data[start : start + slot_width] += np.outer(envelope, patterns[motif])
            sequences[video_id] = DescriptorSequence(data)
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


def save_corpus(manifest: Manifest, sequences: dict, out_dir) -> str:
    """Write ``sequences[video_id]`` per entry and manifest.json under ``out_dir``;
    returns the manifest path."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    for e in manifest.entries:
        write_sequence(sequences[e.video_id], os.path.join(out_dir, e.path))
    manifest_path = os.path.join(out_dir, "manifest.json")
    save_manifest(manifest, manifest_path)
    return manifest_path
