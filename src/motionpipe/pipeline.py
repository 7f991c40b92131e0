"""End-to-end evaluation: flow descriptors, PCA, 1D-CNN, chi-squared SVM.

Each fold fits every model on its training videos only, predicts the
held-out ones, and leaves its artifacts under the output directory: the
model files (.pca/.cnn/.svm) for interoperability, plus the stage
outputs a rerun needs (model.cnn.arrays: every fold video's CNN features
and the epoch losses; model.svm.arrays: the test predictions as label
indices).  All of them are ``arrays`` (ARR1) files.  A cached rerun
reads the stage outputs instead of rebuilding the network or the SVM,
so it reproduces a cold run bit for bit.  Stage caching is
keyed by content hashes that chain upstream, so changing any input
invalidates everything below it.  Each stage reads its own cache hit,
and the PCA stage reads its model only when the CNN stage misses, the
one stage that needs it; a fold returns one ``FoldResult``, its test
predictions and its epoch losses.  A frame directory's key hashes only
its frames, the files the flow reads.

A run plans every key and whether it hits once, up front.  The frame
directories that miss go to ``workers.fork_map``, which runs them on up
to two forked workers, each handed the next task while it is idle (see
there for when nothing forks).  A fully warm run reads its folds in this
process; in any other run every fold is a ``fork_map`` task, the hit
ones too, so the lowest failed fold is the one raised and no fold starts
after a failure.  A worker that dies fails its own fold, as ``fold K,
stage worker``, or names its video.  The run holds OpenBLAS at one
thread in this process, so the workers inherit one thread and start
none.  Workers write only their own fold's directory or video's
descriptors, and ``fork_map`` returns their results and replays their
fit-audit calls in task order, so the outputs are the same bytes as a
serial run's.

One function, ``read_corpus``, gives every command its descriptors, with
the descriptor cache for ``run`` only.  Every command reads the files it
names before any flow, so a bad one fails before any output exists.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import arrays, cnn, corpus, flow, pca, svm, workers
from .errors import DataFormatError, StageError, WorkerError

# Test hook: when set, called as fit_audit(stage, fold_index, video_ids)
# for every model-fitting call with the ids whose data the fit saw.
fit_audit = None


def _audit(stage: str, fold_index: int, video_ids) -> None:
    if fit_audit is not None:
        fit_audit(stage, fold_index, tuple(video_ids))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    manifest: str
    output_dir: str
    alpha: float = 1.0
    iterations: int = 100
    grid: int = 4
    bins: int = 8
    pov_threshold: float = 0.8
    architecture: str | None = None
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 30
    batch_size: int = 16
    weight_decay: float = 1e-4
    c_box: float = 10.0
    gamma: object = "auto"
    tol: float = 1e-3
    split: str = "loocv"
    seed: int = 0

    def __post_init__(self):
        for name in ("c_box", "tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        flow.check_alpha(self.alpha)
        # a grid larger than a frame shows only in the frames, before their flow
        for name, least in (("iterations", 1), ("grid", 1), ("bins", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        if not 0.0 < self.pov_threshold <= 1.0:
            raise ValueError("pov_threshold must be in (0, 1]")
        if self.split not in ("loocv", "fixed"):
            raise ValueError(f"unknown split mode {self.split!r}")
        if self.gamma != "auto":
            object.__setattr__(self, "gamma", svm.KernelParams(float(self.gamma)).gamma)
        train_config(self, self.seed)  # a bad setting fails before any fold starts


def train_config(config: PipelineConfig, seed: int) -> cnn.TrainConfig:
    """The CNN training settings of ``config`` with ``seed``."""
    return cnn.TrainConfig(
        learning_rate=config.learning_rate, momentum=config.momentum,
        epochs=config.epochs, batch_size=config.batch_size,
        seed=seed, weight_decay=config.weight_decay,
    )


_CONFIG_SECTIONS = {
    "flow": ("alpha", "iterations", "grid", "bins"),
    "pca": ("pov_threshold",),
    "cnn": ("architecture", "learning_rate", "momentum", "epochs",
            "batch_size", "weight_decay"),
    "svm": ("c_box", "gamma", "tol"),
}
_CONFIG_TOPLEVEL = ("manifest", "output_dir", "split", "seed")
# {dotted name: field} of every field, as the command-line options name them: flow.alpha, seed.
CONFIG_FIELDS = {**{f"{section}.{key}": key for section, keys in _CONFIG_SECTIONS.items()
                    for key in keys},
                 **{key: key for key in _CONFIG_TOPLEVEL}}


def _section(config: PipelineConfig, name: str) -> dict:
    """The fields of section ``name`` and their values in ``config``."""
    return {key: getattr(config, key) for key in _CONFIG_SECTIONS[name]}


# Each field's annotation, as a string, since annotations are not evaluated.
_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _field_value(name: str, value):
    """``value`` for config field ``name``, checked against its annotation.

    Bools are not numbers, an int field takes integral numbers only, and
    numbers are cast to the field's type.  ``architecture`` may be null and
    ``gamma`` is "auto" or a number.
    """
    kind = _FIELD_TYPES[name]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int":
        if number and (isinstance(value, int) or value.is_integer()):
            return int(value)
        expected = "an integer"
    elif kind in ("float", "object"):
        if value == "auto" and kind == "object":
            return value
        if number:
            with contextlib.suppress(OverflowError):
                return float(value)
        expected = "a number" if kind == "float" else "'auto' or a number"
    else:
        if isinstance(value, str) or (value is None and kind == "str | None"):
            return value
        expected = "a string" if kind == "str" else "a string or null"
    raise ValueError(f"{name} must be {expected}, got {value!r}")


def config_from_dict(doc: dict) -> PipelineConfig:
    """Build a PipelineConfig from the nested JSON document shape."""
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    values: dict = {}
    for key, value in doc.items():
        if key in _CONFIG_SECTIONS:
            if not isinstance(value, dict):
                raise ValueError(f"config section {key!r} must be an object")
            for sub, subval in value.items():
                if sub not in _CONFIG_SECTIONS[key]:
                    raise ValueError(f"unknown config field {key}.{sub}")
                values[sub] = subval
        elif key in _CONFIG_TOPLEVEL:
            values[key] = value
        else:
            raise ValueError(f"unknown config field {key}")
    for name in ("manifest", "output_dir"):
        if name not in values:
            raise ValueError(f"config is missing required field {name!r}")
    return PipelineConfig(**{name: _field_value(name, value) for name, value in values.items()})


def apply_override(config: PipelineConfig, dotted: str, raw: str) -> PipelineConfig:
    """Apply one --name value option; a path or split is the text given
    (architecture null is none), any other value parses as JSON if it can.

    Raises KeyError for a name not in CONFIG_FIELDS.
    """
    name = CONFIG_FIELDS[dotted]
    value = None if raw == "null" and name == "architecture" else raw
    if not _FIELD_TYPES[name].startswith("str"):
        with contextlib.suppress(json.JSONDecodeError):
            value = json.loads(raw)
    return replace(config, **{name: _field_value(name, value)})


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple
    counts: np.ndarray  # K x K int64, rows true, columns predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.total)

    def to_csv(self) -> str:
        lines = ["true_label," + ",".join(str(l) for l in self.labels)]
        for label, row in zip(self.labels, self.counts):
            lines.append(str(label) + "," + ",".join(str(int(c)) for c in row))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        cells = [[""] + [str(l) for l in self.labels]]
        for label, row in zip(self.labels, self.counts):
            cells.append([str(label)] + [str(int(c)) for c in row])
        widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
        lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FoldResult:
    index: int
    records: tuple  # (video_id, true_label, predicted_label) per test video
    losses: tuple  # the CNN's mean training loss per epoch

    @property
    def accuracy(self) -> float:
        correct = sum(1 for _, t, p in self.records if t == p)
        return correct / len(self.records)


@dataclass(frozen=True)
class PipelineResult:
    overall_accuracy: float
    confusion: ConfusionMatrix
    fold_results: tuple


def evaluate(predictions, labels) -> tuple[float, ConfusionMatrix]:
    """Accuracy and confusion matrix of (true, predicted) pairs."""
    predictions = list(predictions)
    if not predictions:
        raise ValueError("no predictions to evaluate")
    labels = tuple(labels)
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for true, predicted in predictions:
        if true not in index or predicted not in index:
            unknown = true if true not in index else predicted
            raise ValueError(f"unknown label {unknown!r}")
        counts[index[true], index[predicted]] += 1
    matrix = ConfusionMatrix(labels=labels, counts=counts)
    return matrix.accuracy(), matrix


# ---------------------------------------------------------------------------
# Frame directories and corpora
# ---------------------------------------------------------------------------

def _frame_names(frame_dir) -> list:
    """The names of ``frame_dir``'s frames, its ``.pgm`` files in any case, sorted."""
    return sorted(n for n in os.listdir(frame_dir) if n.lower().endswith(".pgm"))


def frames_to_sequence(frame_dir, alpha: float, iterations: int, grid: int,
                       bins: int) -> corpus.DescriptorSequence:
    """Flow descriptors for consecutive PGM frames, sorted by filename.

    The frames' count and sizes, and the grid against them, are checked
    before any flow.
    """
    names = _frame_names(frame_dir)
    if len(names) < 2:
        raise ValueError(f"{frame_dir}: needs at least 2 PGM frames, found {len(names)}")
    frames = [flow.read_pgm(os.path.join(frame_dir, n)) for n in names]
    shape = frames[0].intensity.shape
    for name, fr in zip(names, frames):
        if fr.intensity.shape != shape:
            raise ValueError(
                f"{frame_dir}: frame {name} has size {fr.intensity.shape}, expected {shape}"
            )
    if min(shape) < grid:
        raise ValueError(f"{frame_dir}: frames of size {shape} are too small for grid {grid}")
    u, v = flow.estimate_flows(frames, alpha=alpha, iterations=iterations)
    return corpus.DescriptorSequence(flow.describe_flows(u, v, grid=grid, bins=bins))


def project_videos(model: pca.PcaModel, sequences, ids,
                   length: int | None = None) -> tuple[np.ndarray, int]:
    """Project the videos ``ids`` in one GEMM and zero-pad them to ``length``.

    This is the one path from descriptors to the CNN's input.  ``length``
    defaults to the longest video's; a longer video is cut to it with a
    warning.  Returns the (N, m, L) batch in ``ids`` order and L; row i
    holds video i's columns of one ``pca.transform`` over the stacked
    rows, followed by trailing zeros.  A video's own ``transform`` can
    differ from those columns in the last bits, since BLAS may sum a
    shorter GEMM in another order.
    """
    lengths = [sequences[vid].frames for vid in ids]
    stacked = np.vstack([sequences[vid].data for vid in ids])
    projected = pca.transform(model, stacked)  # m x sum(lengths)
    if length is None:
        length = max(lengths)
    batch = np.zeros((len(ids), model.channels, length))
    parts = np.split(projected, np.cumsum(lengths)[:-1], axis=1)
    for vid, row, part in zip(ids, batch, parts):
        if part.shape[1] > length:
            warnings.warn(
                f"series {vid!r} truncated from {part.shape[1]} to {length} frames",
                stacklevel=2,
            )
        row[:, : part.shape[1]] = part[:, :length]
    return batch, length


# ---------------------------------------------------------------------------
# Stage cache
# ---------------------------------------------------------------------------

def _frame(part) -> bytes:
    """``part`` (bytes, or anything as its UTF-8 ``str``) after its length as 8 LE bytes."""
    data = part if isinstance(part, bytes) else str(part).encode("utf-8")
    return len(data).to_bytes(8, "little") + data


def _digest(*parts, framed: bytes = b"") -> str:
    """SHA-256 of the framed ``parts``, then of ``framed``: parts framed already."""
    return hashlib.sha256(b"".join(map(_frame, parts)) + framed).hexdigest()


def _source_digest(path: str) -> str:
    """Hash of the frames of a directory, the files ``frames_to_sequence`` reads."""
    parts: list = []
    for name in _frame_names(path):
        with open(os.path.join(path, name), "rb") as fh:
            parts.extend([name, fh.read()])
    return _digest("dir", *parts)


@dataclass(frozen=True)
class _Planned:
    """A stage's cache key, its artifacts, and whether it hit when planned.

    The key lives in the first artifact's path plus ``.key``.  A hit needs
    that file to hold the key and every artifact to exist.
    """
    key: str
    artifacts: tuple
    hit: bool


def _plan(key: str, *artifacts) -> _Planned:
    try:
        with open(artifacts[0] + ".key", "rb") as fh:
            stored = fh.read().strip()
    except FileNotFoundError:
        stored = None
    hit = stored == key.encode("ascii") and all(os.path.exists(path) for path in artifacts)
    return _Planned(key, artifacts, hit)


def _cached(planned: _Planned, load, fit):
    """``load()`` if ``planned`` hit, otherwise ``fit()``.

    A stale key is removed before ``fit`` writes anything and the new one is
    written only after it returns, so an interrupted write never reads as a hit.
    """
    if planned.hit:
        return load()
    key_path = planned.artifacts[0] + ".key"
    with contextlib.suppress(FileNotFoundError):
        os.remove(key_path)
    value = fit()
    with open(key_path, "w", encoding="utf-8") as fh:
        fh.write(planned.key + "\n")
    return value


@contextlib.contextmanager
def _stage(stage: str, fold_index: int):
    """Re-raise any failure in the block as a StageError naming stage and fold."""
    try:
        yield
    except Exception as exc:
        raise StageError(stage, fold_index, str(exc)) from exc


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _describe(path: str, planned: _Planned, flow_params: dict):
    """One frame directory's descriptors, written to the cache ``planned`` names."""
    def compute():
        seq = frames_to_sequence(path, **flow_params)
        corpus.write_sequence(seq, planned.artifacts[0])
        return seq

    return _cached(planned, None, compute)


def _source_paths(config: PipelineConfig, manifest: corpus.Manifest) -> dict:
    """Each video's source path, by video id; raises FileNotFoundError unless every one exists."""
    base = os.path.dirname(os.path.abspath(config.manifest))
    paths = {entry.video_id: os.path.join(base, entry.path)  # an absolute entry path stands
             for entry in manifest.entries}
    for path in paths.values():
        if not os.path.exists(path):
            raise FileNotFoundError(f"video source {path!r} not found")
    return paths


def read_corpus(config: PipelineConfig, manifest: corpus.Manifest, desc_dir: str | None = None):
    """Each video's descriptor sequence and cache key, by video id, in manifest order.

    Every source must exist before any is read.  ``.fds`` sources are read
    as they are, and the frame directories go to ``workers.fork_map``; a
    describe worker that dies raises a WorkerError that names its video.
    With ``desc_dir``, which only ``run`` passes, their descriptors are
    cached there: each source is hashed once, in this process, and only
    the directories that miss are described.  Without it nothing is hashed
    or written, and the keys are empty.
    """
    paths = _source_paths(config, manifest)
    flow_params = _section(config, "flow")
    flow_cfg = json.dumps(flow_params, sort_keys=True)
    sequences, keys, tasks = {}, {}, {}
    for vid, path in paths.items():
        if not os.path.isdir(path):
            sequences[vid] = seq = corpus.read_sequence(path)
            if desc_dir is not None:
                keys[vid] = _digest("fds", str(seq.data.shape), seq.data.tobytes())
        elif desc_dir is None:
            tasks[vid] = functools.partial(frames_to_sequence, path, **flow_params)
        else:
            planned = _plan(_digest("desc", arrays.MAGIC, flow.FLOW_DTYPE.str, flow_cfg,
                                    _source_digest(path)),
                            os.path.join(desc_dir, f"{vid}.fds"))
            keys[vid] = planned.key
            if planned.hit:
                sequences[vid] = corpus.read_sequence(planned.artifacts[0])
            else:
                tasks[vid] = functools.partial(_describe, path, planned, flow_params)
    if tasks and desc_dir is not None:
        os.makedirs(desc_dir, exist_ok=True)
    try:
        sequences.update(workers.fork_map(tasks))
    except WorkerError as exc:  # the video's worker died, so nothing named the video
        raise WorkerError(f"video {exc.task}: {exc}", exc.task) from exc
    dims = {seq.dim for seq in sequences.values()}
    if len(dims) > 1:
        raise ValueError(f"descriptor dimensions differ across videos: {sorted(dims)}")
    return {vid: sequences[vid] for vid in paths}, keys


# ---------------------------------------------------------------------------
# Stages: what a fold and the stage command of the same name both run
# ---------------------------------------------------------------------------

def architecture_text(path: str | None, num_classes: int) -> str:
    """The architecture file at ``path``, checked, or the default's text for ``None``.

    It must form a network (``cnn.check_layers``) whose softmax has ``num_classes``
    classes; whether it fits the PCA width and the input length shows at the CNN stage.
    """
    if path is None:
        return cnn.format_architecture(cnn.default_architecture(num_classes))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        classes = cnn.check_layers(cnn.parse_architecture(text))[-1].classes
        if classes != num_classes:
            raise ValueError(f"softmax has {classes} classes, "
                             f"the manifest has {num_classes} labels")
    except ValueError as exc:  # a parse, structure or UTF-8 error, which does not name the file
        raise ValueError(f"{path}: {exc}") from exc
    return text


def fit_pca_model(path: str, sequences, ids, pov_threshold: float) -> pca.PcaModel:
    """PCA on the pooled descriptor rows of the videos ``ids``, saved to ``path``."""
    samples = np.vstack([sequences[vid].data for vid in ids]).astype(np.float64)
    model = pca.fit(samples, pov_threshold)
    pca.save_model(model, path)
    return model


def fit_cnn_model(path: str, arch_text: str, samples: np.ndarray, labels,
                  train_cfg: cnn.TrainConfig):
    """The network ``arch_text`` describes, trained on the (N, m, L) ``samples``.

    ``labels`` are class indices.  Saves the network to ``path`` and returns
    (spec, params, per-epoch losses).
    """
    spec = cnn.NetworkSpec(input_channels=samples.shape[1], input_length=samples.shape[2],
                           layers=cnn.parse_architecture(arch_text))
    params, losses = cnn.train(spec, samples, labels, train_cfg)
    cnn.save_model(spec, params, path)
    return spec, params, losses


def fit_svm_model(path: str, features: np.ndarray, labels, config, seed: int) -> svm.SvmModel:
    """The SVM on ``features`` with the c_box, gamma and tol of ``config``, saved to ``path``.

    A gamma of "auto" is ``svm.default_gamma`` of the features with ``seed``.
    """
    gamma = config.gamma
    if gamma == "auto":
        gamma = svm.default_gamma(features, seed=seed)
    model = svm.fit(features, labels, c_box=config.c_box,
                    params=svm.KernelParams(gamma=float(gamma)), tol=config.tol)
    svm.save_model(model, path)
    return model


@dataclass(frozen=True)
class _FoldPlan:
    """One fold's directory, CNN settings, and each stage's planned cache entry."""
    directory: str
    train_cfg: cnn.TrainConfig
    l_max: int  # the network's input length; a longer test video is cut to it
    pca: _Planned
    cnn: _Planned
    svm: _Planned

    @property
    def hit(self) -> bool:
        return self.pca.hit and self.cnn.hit and self.svm.hit


def _plan_fold(config, fold_index, fold, sequences, video_parts, arch_text) -> _FoldPlan:
    """Every stage's cache key for one fold, each chained to the one upstream.

    ``video_parts`` holds each video's ``video:descriptor key``, framed.  The
    PCA key names the container its model is written in, so a directory of
    models in another format refits every stage.
    """
    fold_dir = os.path.join(config.output_dir, f"fold_{fold_index:03d}")
    train_ids = sorted(fold.train_ids)
    pca_key = _digest("pca", arrays.MAGIC, repr(config.pov_threshold),
                      framed=b"".join(video_parts[vid] for vid in train_ids))
    train_cfg = train_config(config, config.seed ^ fold_index)
    l_max = max(sequences[vid].frames for vid in train_ids)
    cnn_key = _digest(
        "cnn-features", pca_key, arch_text, repr(train_cfg), str(l_max), ",".join(train_ids),
        framed=b"".join(video_parts[vid] for vid in sorted(fold.train_ids + fold.test_ids)),
    )
    svm_key = _digest("svm-predictions", cnn_key,
                      json.dumps(_section(config, "svm"), sort_keys=True))
    pca_path, cnn_path, svm_path = (
        os.path.join(fold_dir, f"model.{stage}") for stage in ("pca", "cnn", "svm")
    )
    return _FoldPlan(
        directory=fold_dir, train_cfg=train_cfg, l_max=l_max,
        pca=_plan(pca_key, pca_path),
        cnn=_plan(cnn_key, cnn_path, cnn_path + ".arrays"),
        svm=_plan(svm_key, svm_path, svm_path + ".arrays"),
    )


def _run_fold(config, fold_index, fold, manifest, sequences, arch_text, plan: _FoldPlan):
    """Fit on the fold's training videos and predict its test videos."""
    os.makedirs(plan.directory, exist_ok=True)
    labels = manifest.labels()
    label_index = {label: i for i, label in enumerate(labels)}
    train_ids = list(fold.train_ids)
    test_ids = list(fold.test_ids)
    fold_ids = train_ids + test_ids
    n_train = len(train_ids)

    # PCA on training descriptors only
    with _stage("pca", fold_index):
        pca_path = plan.pca.artifacts[0]

        def fit_pca():
            _audit("pca", fold_index, train_ids)
            return fit_pca_model(pca_path, sequences, train_ids, config.pov_threshold)

        # a hit is read only if the CNN stage misses, the one stage that needs the model
        pca_model = _cached(plan.pca, (lambda: None) if plan.cnn.hit
                            else functools.partial(pca.load_model, pca_path), fit_pca)

    # 1D-CNN on training series only; its output is every fold video's features
    with _stage("cnn", fold_index):
        cnn_path, cnn_out = plan.cnn.artifacts

        def fit_cnn():
            _audit("cnn", fold_index, train_ids)
            batch, _ = project_videos(pca_model, sequences, fold_ids, plan.l_max)
            spec, params, losses = fit_cnn_model(
                cnn_path, arch_text, batch[:n_train],
                [label_index[manifest.entry(vid).label] for vid in train_ids], plan.train_cfg,
            )
            features = cnn.extract_features(spec, params, batch)
            arrays.write(cnn_out, features=features, loss=np.asarray(losses, dtype=np.float64))
            return features, losses

        def load_cnn():
            stored = arrays.load(
                cnn_out, features=("<f8", (len(fold_ids), None)), loss=("<f8", (config.epochs,))
            )
            return stored["features"], stored["loss"].tolist()

        features, losses = _cached(plan.cnn, load_cnn, fit_cnn)

    # SVM on training features only; its output is the test predictions
    with _stage("svm", fold_index):
        svm_path, svm_out = plan.svm.artifacts

        def fit_svm():
            if config.gamma == "auto":
                _audit("gamma", fold_index, train_ids)
            _audit("svm", fold_index, train_ids)
            model = fit_svm_model(svm_path, features[:n_train],
                                  [manifest.entry(vid).label for vid in train_ids],
                                  config, plan.train_cfg.seed)
            # label indices, not strings: numpy unicode arrays drop trailing NULs
            predicted = np.array(
                [label_index[label] for label in svm.predict_batch(model, features[n_train:])],
                dtype=np.int64,
            )
            arrays.write(svm_out, predicted=predicted)
            return predicted

        def load_svm():
            predicted = arrays.load(svm_out, predicted=("<i8", (len(test_ids),)))["predicted"]
            if np.any(predicted < 0) or np.any(predicted >= len(labels)):
                raise DataFormatError(f"{svm_out}: predictions are not label indices")
            return predicted

        predicted = _cached(plan.svm, load_svm, fit_svm)

    records = tuple(
        (vid, manifest.entry(vid).label, labels[k]) for vid, k in zip(test_ids, predicted)
    )
    return FoldResult(index=fold_index, records=records, losses=tuple(losses))


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run every fold of the configured protocol and write reports."""
    with workers.one_blas_thread():  # in this process and, inherited, in every worker
        # every named input is read, and the folds planned, before any flow: a bad one
        # leaves no directory
        manifest = corpus.load_manifest(config.manifest)
        arch_text = architecture_text(config.architecture, len(manifest.labels()))
        _source_paths(config, manifest)  # a missing source is named before a split's error
        folds = (
            corpus.make_loocv(manifest)
            if config.split == "loocv"
            else corpus.make_fixed_splits(manifest)
        )
        sequences, desc_keys = read_corpus(config, manifest,
                                           os.path.join(config.output_dir, "descriptors"))
        os.makedirs(config.output_dir, exist_ok=True)

        # every key is computed once, here: a fully warm run reads its folds in this
        # process, and any other run makes every fold a task, so a failure in a
        # lower fold is raised, and starts no later fold, however the folds hit
        video_parts = {vid: _frame(f"{vid}:{key}") for vid, key in desc_keys.items()}
        tasks, warm = {}, True
        for fold_index, fold in enumerate(folds):
            fold_plan = _plan_fold(config, fold_index, fold, sequences, video_parts, arch_text)
            warm = warm and fold_plan.hit
            tasks[fold_index] = functools.partial(
                _run_fold, config, fold_index, fold, manifest, sequences, arch_text, fold_plan
            )
        try:
            outcomes = ({k: task() for k, task in tasks.items()} if warm
                        else workers.fork_map(tasks))
        except WorkerError as exc:  # the fold's worker died, so nothing tagged the error
            raise StageError("worker", exc.task, str(exc)) from exc
        fold_results = tuple(outcomes.values())
        predictions = [(t, p) for r in fold_results for _, t, p in r.records]
        accuracy, confusion = evaluate(predictions, manifest.labels())
        overall = (accuracy if config.split == "loocv"
                   else float(np.mean([r.accuracy for r in fold_results])))

        result = PipelineResult(overall_accuracy=overall, confusion=confusion,
                                fold_results=fold_results)
        _write_reports(config.output_dir, result)
        return result


def _put(output_dir: str, name: str, text: str) -> None:
    """Write a report, unless it holds ``text`` already, as after a warm rerun:
    replacing a file costs more than reading it."""
    path, data = os.path.join(output_dir, name), text.encode("utf-8")
    with contextlib.suppress(FileNotFoundError), open(path, "rb") as fh:
        if fh.read() == data:
            return
    arrays.write_file(path, data)


def write_confusion(output_dir: str, confusion: ConfusionMatrix) -> None:
    """Write confusion.csv and confusion.txt into ``output_dir``."""
    _put(output_dir, "confusion.csv", confusion.to_csv())
    _put(output_dir, "confusion.txt", confusion.to_text())


def _write_reports(output_dir: str, result: PipelineResult) -> None:
    lines = ["fold,accuracy"]
    for r in result.fold_results:
        lines.append(f"{r.index},{r.accuracy!r}")
    lines.append(f"overall,{result.overall_accuracy!r}")
    _put(output_dir, "accuracy.csv", "\n".join(lines) + "\n")

    lines = ["fold,video_id,true_label,predicted_label"]
    for r in result.fold_results:
        for vid, true, predicted in r.records:
            lines.append(f"{r.index},{vid},{true},{predicted}")
    _put(output_dir, "predictions.csv", "\n".join(lines) + "\n")

    write_confusion(output_dir, result.confusion)

    lines = ["fold,epoch,loss"]
    for r in result.fold_results:
        for epoch, loss in enumerate(r.losses):
            lines.append(f"{r.index},{epoch},{loss!r}")
    _put(output_dir, "loss.csv", "\n".join(lines) + "\n")


# The public functions of the modules a fold or a frame directory runs, as
# each module defined them; see workers._stage_functions_replaced.
_STAGE_FUNCTIONS = {
    (module, name): fn
    for module in (cnn, corpus, flow, pca, svm, sys.modules[__name__])
    for name, fn in vars(module).items()
    if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
}
