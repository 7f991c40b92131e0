"""Fuzzed file readers: any bytes either load or raise DataFormatError.

Covers PGM, the ARR1 container (the stage outputs) and the descriptor
files and PCA, SVM and CNN model files written in it, the JSON manifest
and the features CSV.  Every strict prefix of a valid ARR1 file is
rejected.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motionpipe import arrays, cli, cnn, corpus, flow, pca, svm
from motionpipe.errors import DataFormatError

FUZZ = settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of one small valid file per reader."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    model = svm.fit(rng.uniform(0, 2, size=(9, 3)), ["a", "b", "c"] * 3,
                    c_box=10.0, params=svm.KernelParams(gamma=0.5), tol=1e-3)
    svm.save_model(model, root / "model.svm")
    spec = cnn.NetworkSpec(
        input_channels=2, input_length=6,
        layers=(cnn.Conv1D(3, 2, 1), cnn.ReLU(), cnn.Max1D(2, 2),
                cnn.FullyConnected(3), cnn.SoftmaxOutput(2)),
    )
    cnn.save_model(spec, cnn.init_state(spec, np.random.default_rng(0)), root / "model.cnn")
    flow.write_pgm(flow.Frame(rng.uniform(0, 1, size=(8, 9))), root / "frame.pgm")
    pca.save_model(pca.fit(rng.normal(size=(12, 3)), pov_threshold=0.8), root / "model.pca")
    corpus.write_sequence(
        corpus.DescriptorSequence(rng.uniform(0, 1, size=(3, 4))), root / "v.fds"
    )
    corpus.save_manifest(corpus.Manifest((
        corpus.ManifestEntry("a", "walk", "a.fds", 0),
        corpus.ManifestEntry("b", "run", "b.fds", 1),
    )), root / "manifest.json")
    arrays.write(root / "out.arrays", features=rng.uniform(0, 1, size=(3, 4)),
                 loss=rng.uniform(0, 1, size=2), predicted=np.array([1, 0, 2]))
    cli.write_features_csv(root / "features.csv", [
        ("a", "walk", rng.uniform(0, 2, size=3)), ("b", "", rng.uniform(0, 2, size=3)),
    ])
    return {
        "fds": (root / "v.fds").read_bytes(),
        "manifest": (root / "manifest.json").read_bytes(),
        "csv": (root / "features.csv").read_bytes(),
        "pgm": (root / "frame.pgm").read_bytes(),
        "pca": (root / "model.pca").read_bytes(),
        "svm": (root / "model.svm").read_bytes(),
        "cnn": (root / "model.cnn").read_bytes(),
        "arrays": (root / "out.arrays").read_bytes(),
    }


def _mutate(blob: bytes, data) -> bytes:
    """Overwrite, insert, delete or truncate a few bytes of ``blob``."""
    kind = data.draw(st.sampled_from(["overwrite", "insert", "delete", "truncate"]))
    at = data.draw(st.integers(0, len(blob)))
    if kind == "truncate":
        return blob[:at]
    if kind == "delete":
        return blob[:at] + blob[at + data.draw(st.integers(1, 8)):]
    chunk = data.draw(st.binary(min_size=1, max_size=8))
    if kind == "insert":
        return blob[:at] + chunk + blob[at:]
    return blob[:at] + chunk + blob[at + len(chunk):]


def _loads_or_format_error(load, path, blob):
    """What ``load`` returns for ``blob``, or None when it raises DataFormatError."""
    path.write_bytes(blob)
    try:
        return load(path)
    except DataFormatError:
        return None


def _with_magic(magic):
    return st.binary(max_size=96).map(lambda tail: magic + tail)


def _containers(*names):
    """ARR1 files of arrays named from ``names``, of random kinds, small shapes and bytes."""
    array = st.tuples(st.sampled_from(names), st.sampled_from(["<f8", "<f4", "<i8", "|u1"]),
                      st.lists(st.integers(0, 3), max_size=2), st.binary(max_size=32))

    def encode(stored):
        parts = [arrays.MAGIC, struct.pack("<I", len(stored))]
        for name, kind, shape, fill in stored:
            size = np.dtype(kind).itemsize * math.prod(shape)
            parts += [struct.pack("<I", len(name)), name.encode(), kind.encode(),
                      struct.pack(f"<{1 + len(shape)}I", len(shape), *shape),
                      (fill * size)[:size].ljust(size, b"\0")]
        return b"".join(parts)

    return st.lists(array, max_size=len(names) + 1).map(encode)


def _model_bytes(*names):
    return st.one_of(st.binary(max_size=96), _with_magic(arrays.MAGIC), _containers(*names))


def _check_pgm(frame):
    if frame is not None:
        assert 0.0 <= frame.intensity.min() and frame.intensity.max() <= 1.0


@FUZZ
@given(blob=st.one_of(st.binary(max_size=96), _with_magic(b"P5\n")))
def test_pgm_reader_on_arbitrary_bytes(tmp_path, blob):
    _check_pgm(_loads_or_format_error(flow.read_pgm, tmp_path / "fuzz.pgm", blob))


@FUZZ
@given(width=st.integers(-12, 12), height=st.integers(-12, 12),
       maxval=st.integers(-1, 300), raster=st.binary(max_size=160))
def test_pgm_reader_on_arbitrary_headers(tmp_path, width, height, maxval, raster):
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    _check_pgm(_loads_or_format_error(flow.read_pgm, tmp_path / "fuzz.pgm", header + raster))


@FUZZ
@given(data=st.data())
def test_pgm_reader_on_mutated_files(tmp_path, valid_files, data):
    _check_pgm(_loads_or_format_error(
        flow.read_pgm, tmp_path / "fuzz.pgm", _mutate(valid_files["pgm"], data)
    ))


@FUZZ
@given(blob=_model_bytes("mean", "eigenvalues", "components"))
def test_pca1_reader_on_arbitrary_bytes(tmp_path, blob):
    _loads_or_format_error(pca.load_model, tmp_path / "fuzz.pca", blob)


@FUZZ
@given(data=st.data())
def test_pca1_reader_on_mutated_files(tmp_path, valid_files, data):
    _loads_or_format_error(
        pca.load_model, tmp_path / "fuzz.pca", _mutate(valid_files["pca"], data)
    )


def _check_svm(model):
    if model is not None:
        assert len(model.labels) >= 2 and model.feature_dim >= 1
        for machine in model.machines:
            assert np.isfinite(machine.coefficients).all() and np.isfinite(machine.bias)


@FUZZ
@given(blob=_model_bytes("labels", "kernel", "vectors", "counts", "support", "coefficients",
                         "biases"))
def test_svm1_reader_on_arbitrary_bytes(tmp_path, blob):
    _check_svm(_loads_or_format_error(svm.load_model, tmp_path / "fuzz.svm", blob))


@FUZZ
@given(data=st.data())
def test_svm1_reader_on_mutated_files(tmp_path, valid_files, data):
    _check_svm(_loads_or_format_error(
        svm.load_model, tmp_path / "fuzz.svm", _mutate(valid_files["svm"], data)
    ))


@FUZZ
@given(blob=_model_bytes("spec", "params"))
def test_cnn1_reader_on_arbitrary_bytes(tmp_path, blob):
    _loads_or_format_error(cnn.load_model, tmp_path / "fuzz.cnn", blob)


@FUZZ
@given(data=st.data())
def test_cnn1_reader_on_mutated_files(tmp_path, valid_files, data):
    _loads_or_format_error(
        cnn.load_model, tmp_path / "fuzz.cnn", _mutate(valid_files["cnn"], data)
    )


def _check_sequence(seq):
    if seq is not None:
        assert seq.data.dtype == np.float32 and seq.frames >= 1 and seq.dim >= 1
        assert np.isfinite(seq.data).all()


@FUZZ
@given(blob=_model_bytes("descriptors"))
def test_descriptor_reader_on_arbitrary_bytes(tmp_path, blob):
    _check_sequence(_loads_or_format_error(corpus.read_sequence, tmp_path / "fuzz.fds", blob))


@FUZZ
@given(data=st.data())
def test_descriptor_reader_on_mutated_files(tmp_path, valid_files, data):
    _check_sequence(_loads_or_format_error(
        corpus.read_sequence, tmp_path / "fuzz.fds", _mutate(valid_files["fds"], data)
    ))


def _check_arrays(tmp_path, blob):
    """Load ``blob`` as a stage output; what loads is no larger than the file."""
    stored = _loads_or_format_error(arrays.load, tmp_path / "fuzz.arrays", blob)
    if stored is not None:
        assert all(a.dtype.str in ("<f8", "<f4", "<i8", "|u1") for a in stored.values())
        assert sum(a.nbytes for a in stored.values()) <= len(blob)


@FUZZ
@given(blob=st.one_of(st.binary(max_size=96), _with_magic(arrays.MAGIC)))
def test_stage_output_reader_on_arbitrary_bytes(tmp_path, blob):
    _check_arrays(tmp_path, blob)


@FUZZ
@given(count=st.integers(0, 3), name=st.binary(max_size=3),
       kind=st.sampled_from([b"<f8", b"<i8", b"<f4", b"|u1", b"<u1", b"\x00\x00\x00"]),
       shape=st.lists(st.integers(0, 4) | st.integers(0, 2**32 - 1), max_size=40),
       payload=st.binary(max_size=64))
def test_stage_output_reader_on_arbitrary_headers(tmp_path, count, name, kind, shape, payload):
    header = (arrays.MAGIC + struct.pack("<II", count, len(name)) + name + kind
              + struct.pack(f"<{1 + len(shape)}I", len(shape), *shape))
    _check_arrays(tmp_path, header + payload)


@FUZZ
@given(data=st.data())
def test_stage_output_reader_on_mutated_files(tmp_path, valid_files, data):
    _check_arrays(tmp_path, _mutate(valid_files["arrays"], data))


@pytest.mark.parametrize("kind, load", [
    ("pca", pca.load_model), ("cnn", cnn.load_model), ("svm", svm.load_model),
    ("arrays", arrays.load), ("fds", corpus.read_sequence),
])
def test_every_strict_prefix_of_a_valid_file_is_rejected(tmp_path, valid_files, kind, load):
    blob = valid_files[kind]
    path = tmp_path / "prefix"
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(DataFormatError):
            load(path)
    path.write_bytes(blob)
    load(path)


def _check_manifest(manifest):
    if manifest is not None:
        for e in manifest.entries:
            assert isinstance(e.video_id, str) and isinstance(e.label, str)
            assert not any(c in e.video_id + e.label for c in ",\r\n")
            assert isinstance(e.path, str)
            assert e.split_id is None or type(e.split_id) is int


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_MANIFEST_ROWS = st.lists(
    st.dictionaries(st.sampled_from(["video_id", "label", "path", "split_id"]),
                    _JSON | st.text(max_size=3), max_size=4) | _JSON,
    max_size=3,
)


@FUZZ
@given(blob=st.one_of(st.binary(max_size=96),
                      _MANIFEST_ROWS.map(lambda rows: json.dumps(rows).encode("utf-8"))))
def test_manifest_reader_on_arbitrary_bytes(tmp_path, blob):
    _check_manifest(_loads_or_format_error(corpus.load_manifest, tmp_path / "fuzz.json", blob))


@FUZZ
@given(data=st.data())
def test_manifest_reader_on_mutated_files(tmp_path, valid_files, data):
    _check_manifest(_loads_or_format_error(
        corpus.load_manifest, tmp_path / "fuzz.json", _mutate(valid_files["manifest"], data)
    ))


def _check_features(table):
    if table is not None:
        ids, labels, matrix = table
        assert matrix.ndim == 2 and matrix.shape[0] == len(ids) == len(labels)
        assert np.isfinite(matrix).all()


_CSV_FIELD = st.sampled_from(["1.5", "0", "nan", "-inf", "1e999", "x", "", " 2 "])


@FUZZ
@given(blob=st.one_of(
    st.binary(max_size=96),
    st.lists(st.lists(_CSV_FIELD, max_size=4), max_size=3).map(
        lambda rows: "\n".join(["video_id,label,f0"] + [",".join(["v", "a"] + r) for r in rows])
        .encode("utf-8")
    ),
))
def test_features_csv_reader_on_arbitrary_bytes(tmp_path, blob):
    _check_features(_loads_or_format_error(cli.read_features_csv, tmp_path / "fuzz.csv", blob))


@FUZZ
@given(data=st.data())
def test_features_csv_reader_on_mutated_files(tmp_path, valid_files, data):
    _check_features(_loads_or_format_error(
        cli.read_features_csv, tmp_path / "fuzz.csv", _mutate(valid_files["csv"], data)
    ))
