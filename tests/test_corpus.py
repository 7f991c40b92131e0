import json
import struct
import tracemalloc

import numpy as np
import pytest

from motionpipe import arrays, corpus
from motionpipe.errors import DataFormatError

import oracles


# ---------------------------------------------------------------------------
# Descriptor files
# ---------------------------------------------------------------------------

def test_sequence_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(17, 11)).astype(np.float32)
    path = tmp_path / "vid.fds"
    corpus.write_sequence(corpus.DescriptorSequence(data), path)
    assert list(arrays.load(path, descriptors=("<f4", (17, 11)))) == ["descriptors"]
    back = corpus.read_sequence(path)
    assert back.data.dtype == np.float32
    assert np.array_equal(back.data, data)


def _descriptor_bytes(tmp_path, data):
    """The bytes of a descriptor file holding ``data``, written by ``arrays.write``."""
    path = tmp_path / "written.fds"
    arrays.write(path, descriptors=data)
    return path.read_bytes()


def test_read_sequence_rejects_bad_magic(tmp_path):
    """FDS1, the format before ARR1 descriptor files, is one bad magic among others."""
    path = tmp_path / "bad.fds"
    path.write_bytes(b"NOPE" + _descriptor_bytes(tmp_path, np.zeros((1, 1), np.float32))[4:])
    with pytest.raises(DataFormatError, match="bad magic b'NOPE'"):
        corpus.read_sequence(path)
    path.write_bytes(b"FDS1" + struct.pack("<II", 1, 1) + b"\x00" * 4)  # T = n = 1
    with pytest.raises(DataFormatError, match="bad magic b'FDS1'"):
        corpus.read_sequence(path)


def test_read_sequence_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.fds"
    path.write_bytes(_descriptor_bytes(tmp_path, np.zeros((1, 1), np.float32))[:10])
    with pytest.raises(DataFormatError, match="truncated"):
        corpus.read_sequence(path)


def test_read_sequence_rejects_zero_dimension(tmp_path):
    path = tmp_path / "zero.fds"
    path.write_bytes(_descriptor_bytes(tmp_path, np.zeros((0, 5), np.float32)))
    with pytest.raises(DataFormatError, match=r"zero\.fds: sequence data must be T x n"):
        corpus.read_sequence(path)


def test_read_sequence_rejects_float64_descriptors(tmp_path):
    path = tmp_path / "wide.fds"
    path.write_bytes(_descriptor_bytes(tmp_path, np.zeros((2, 3))))
    with pytest.raises(DataFormatError, match=r"is <f8 \(2, 3\), expected <f4"):
        corpus.read_sequence(path)


def test_read_sequence_rejects_dimension_overflow(tmp_path):
    """A header that claims 2^32 elements is rejected before any allocation."""
    path = tmp_path / "huge.fds"
    name = b"descriptors"
    path.write_bytes(arrays.MAGIC + struct.pack("<II", 1, len(name)) + name + b"<f4"
                     + struct.pack("<III", 2, 2**16, 2**16))
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="truncated"):
            corpus.read_sequence(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak} bytes"


def test_read_sequence_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.fds"
    path.write_bytes(_descriptor_bytes(tmp_path, np.zeros((4, 4), np.float32))[:-6])
    with pytest.raises(DataFormatError, match="truncated"):
        corpus.read_sequence(path)


def test_read_sequence_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "extra.fds"
    path.write_bytes(_descriptor_bytes(tmp_path, np.zeros((2, 2), np.float32)) + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        corpus.read_sequence(path)


def test_sequence_validation():
    with pytest.raises(ValueError, match="finite"):
        corpus.DescriptorSequence(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError, match="T x n"):
        corpus.DescriptorSequence(np.zeros(5))


# ---------------------------------------------------------------------------
# Split plans
# ---------------------------------------------------------------------------

def _manifest(n, with_splits=False):
    entries = tuple(
        corpus.ManifestEntry(
            video_id=f"v{i}",
            label=f"class{i % 2}",
            path=f"v{i}.fds",
            split_id=(i % 2 if with_splits else None),
        )
        for i in range(n)
    )
    return corpus.Manifest(entries=entries)


def test_loocv_folds():
    folds = corpus.make_loocv(_manifest(5))
    assert len(folds) == 5
    all_ids = set(_manifest(5).video_ids())
    for i, fold in enumerate(folds):
        assert fold.test_ids == (f"v{i}",)
        assert len(fold.train_ids) == 4
        assert set(fold.train_ids) | set(fold.test_ids) == all_ids
        assert not set(fold.train_ids) & set(fold.test_ids)


def test_loocv_needs_two_videos():
    with pytest.raises(ValueError, match="at least 2"):
        corpus.make_loocv(_manifest(1))


def test_fixed_splits():
    folds = corpus.make_fixed_splits(_manifest(6, with_splits=True))
    assert len(folds) == 2
    assert folds[0].test_ids == ("v0", "v2", "v4")
    assert folds[0].train_ids == ("v1", "v3", "v5")
    assert folds[1].test_ids == ("v1", "v3", "v5")


def test_fixed_splits_requires_split_ids():
    with pytest.raises(ValueError, match="split_id"):
        corpus.make_fixed_splits(_manifest(4))


def test_fixed_splits_rejects_empty_train():
    entries = tuple(
        corpus.ManifestEntry(video_id=f"v{i}", label="a", path=f"v{i}.fds", split_id=0)
        for i in range(3)
    )
    with pytest.raises(ValueError, match="empty train"):
        corpus.make_fixed_splits(corpus.Manifest(entries=entries))


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def test_manifest_validation():
    dup = (
        corpus.ManifestEntry(video_id="v", label="a", path="1.fds"),
        corpus.ManifestEntry(video_id="v", label="b", path="2.fds"),
    )
    with pytest.raises(ValueError, match="unique"):
        corpus.Manifest(entries=dup)
    mixed = (
        corpus.ManifestEntry(video_id="a", label="a", path="a.fds", split_id=0),
        corpus.ManifestEntry(video_id="b", label="b", path="b.fds"),
    )
    with pytest.raises(ValueError, match="all entries or none"):
        corpus.Manifest(entries=mixed)


def test_manifest_labels_sorted_distinct():
    entries = tuple(
        corpus.ManifestEntry(video_id=f"v{i}", label=lbl, path=f"v{i}.fds")
        for i, lbl in enumerate(["walk", "run", "walk", "jump"])
    )
    m = corpus.Manifest(entries=entries)
    assert m.labels() == ["jump", "run", "walk"]
    assert m.entry("v2").label == "walk"
    with pytest.raises(KeyError):
        m.entry("nope")


def test_manifest_json_round_trip(tmp_path):
    m = _manifest(4, with_splits=True)
    path = tmp_path / "manifest.json"
    corpus.save_manifest(m, path)
    back = corpus.load_manifest(path)
    assert back == m


def test_load_manifest_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(DataFormatError, match="invalid JSON"):
        corpus.load_manifest(bad)
    obj = tmp_path / "obj.json"
    obj.write_text(json.dumps({"video_id": "v"}))
    with pytest.raises(DataFormatError, match="array"):
        corpus.load_manifest(obj)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps([{"video_id": "v", "label": "a"}]))
    with pytest.raises(DataFormatError, match="malformed"):
        corpus.load_manifest(missing)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(DataFormatError, match="empty.json: manifest has no entries"):
        corpus.load_manifest(empty)
    for key in ("video_id", "label", "path"):
        row = {"video_id": "v1", "label": "walk", "path": "v1.fds", key: ""}
        blank = tmp_path / "blank.json"
        blank.write_text(json.dumps([row]))
        with pytest.raises(DataFormatError, match="blank.json: malformed manifest entry"):
            corpus.load_manifest(blank)
    # a comma or line break in an id or label would break the CSVs the program writes
    for key, text in [("label", "walk,fast"), ("video_id", "v\n1"), ("label", "a\rb")]:
        row = {"video_id": "v1", "label": "walk", "path": "v1.fds", key: text}
        unsafe = tmp_path / "unsafe.json"
        unsafe.write_text(json.dumps([row]))
        with pytest.raises(DataFormatError, match="line break"):
            corpus.load_manifest(unsafe)


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

def test_synthetic_corpus_is_deterministic():
    m1, seqs1, info1 = corpus.generate_synthetic_corpus(3, 4, 8, 40, 80, seed=5)
    m2, seqs2, info2 = corpus.generate_synthetic_corpus(3, 4, 8, 40, 80, seed=5)
    assert m1 == m2
    assert info1.orders == info2.orders
    assert np.array_equal(info1.patterns, info2.patterns)
    assert list(seqs1) == list(seqs2) == m1.video_ids()
    for a, b in zip(seqs1.values(), seqs2.values()):
        assert np.array_equal(a.data, b.data)


def test_synthetic_corpus_shape_and_balance():
    manifest, seqs, info = corpus.generate_synthetic_corpus(3, 5, 8, 40, 80, seed=0)
    assert len(manifest) == 15
    assert len(seqs) == 15
    assert manifest.labels() == ["class0", "class1", "class2"]
    counts = {}
    for e in manifest.entries:
        counts[e.label] = counts.get(e.label, 0) + 1
    assert set(counts.values()) == {5}
    for s in seqs.values():
        assert 40 <= s.frames <= 80
        assert s.dim == 8
    assert info.slot_width == 40 // 3
    # each class order is a permutation containing every motif once
    for order in info.orders:
        assert sorted(order) == list(range(3))
    assert len(set(info.orders)) == 3


def test_synthetic_classes_decode_by_motif_order():
    manifest, seqs, info = corpus.generate_synthetic_corpus(3, 6, 8, 40, 80, seed=1)
    for e in manifest.entries:
        c = int(e.label.removeprefix("class"))
        decoded = oracles.decode_motif_order(seqs[e.video_id].data.astype(np.float64), info)
        assert decoded == info.orders[c]


def test_synthetic_marginals_match_across_classes():
    # classes must be separable by order only: pooled per-class value
    # marginals (every frame of every video) stay within a tenth of the
    # pooled standard deviation of one another
    manifest, seqs, _ = corpus.generate_synthetic_corpus(3, 20, 8, 40, 80, seed=11)
    pooled = {}
    for e in manifest.entries:
        pooled.setdefault(e.label, []).append(seqs[e.video_id].data.ravel())
    values = {lbl: np.concatenate(chunks) for lbl, chunks in pooled.items()}
    all_std = np.concatenate(list(values.values())).std()
    means = [v.mean() for v in values.values()]
    stds = [v.std() for v in values.values()]
    assert max(means) - min(means) < 0.1 * all_std
    assert max(stds) - min(stds) < 0.1 * all_std


def test_synthetic_corpus_validation():
    with pytest.raises(ValueError, match="classes"):
        corpus.generate_synthetic_corpus(1, 4, 8, 40, 80, seed=0)
    with pytest.raises(ValueError, match="per_class"):
        corpus.generate_synthetic_corpus(3, 1, 8, 40, 80, seed=0)
    with pytest.raises(ValueError, match="channels"):
        corpus.generate_synthetic_corpus(3, 4, 0, 40, 80, seed=0)
    with pytest.raises(ValueError, match="min_len"):
        corpus.generate_synthetic_corpus(3, 4, 8, 80, 40, seed=0)


def test_save_corpus_round_trip(tmp_path):
    manifest, seqs, _ = corpus.generate_synthetic_corpus(2, 2, 4, 20, 24, seed=2)
    manifest_path = corpus.save_corpus(manifest, seqs, tmp_path / "corpus")
    back = corpus.load_manifest(manifest_path)
    assert back == manifest
    for vid, s in seqs.items():
        stored = corpus.read_sequence(tmp_path / "corpus" / back.entry(vid).path)
        assert np.array_equal(stored.data, s.data)
