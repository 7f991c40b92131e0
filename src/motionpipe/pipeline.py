"""End-to-end evaluation: flow descriptors, PCA, 1D-CNN, chi-squared SVM.

Each fold fits every model on its training videos only, predicts the
held-out ones, and leaves its artifacts under the output directory:
the exchange formats (.pca/.cnn/.svm) for interoperability, plus .npz
sidecars carrying exact float64 parameters so cached reruns reproduce
a cold run bit for bit.  Stage caching is keyed by content hashes that
chain upstream, so changing any input invalidates everything below it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import cnn, corpus, flow, pca, svm
from .errors import DataFormatError, StageError

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
        if not 0.0 < self.pov_threshold <= 1.0:
            raise ValueError("pov_threshold must be in (0, 1]")
        if self.split not in ("loocv", "fixed"):
            raise ValueError(f"unknown split mode {self.split!r}")
        if self.gamma != "auto":
            g = float(self.gamma)
            if not np.isfinite(g) or g <= 0:
                raise ValueError("gamma must be 'auto' or a positive number")
            object.__setattr__(self, "gamma", g)


_CONFIG_SECTIONS = {
    "flow": {"alpha", "iterations", "grid", "bins"},
    "pca": {"pov_threshold"},
    "cnn": {"architecture", "learning_rate", "momentum", "epochs",
            "batch_size", "weight_decay"},
    "svm": {"c_box", "gamma", "tol"},
}
_CONFIG_TOPLEVEL = {"manifest", "output_dir", "split", "seed"}

_INT_FIELDS = {"iterations", "grid", "bins", "epochs", "batch_size", "seed"}
_FLOAT_FIELDS = {"alpha", "pov_threshold", "learning_rate", "momentum",
                 "weight_decay", "c_box", "tol"}


def config_from_dict(doc: dict) -> PipelineConfig:
    """Build a PipelineConfig from the nested JSON document shape."""
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    fields: dict = {}
    for key, value in doc.items():
        if key in _CONFIG_SECTIONS:
            if not isinstance(value, dict):
                raise ValueError(f"config section {key!r} must be an object")
            for sub, subval in value.items():
                if sub not in _CONFIG_SECTIONS[key]:
                    raise ValueError(f"unknown config field {key}.{sub}")
                fields[sub] = subval
        elif key in _CONFIG_TOPLEVEL:
            fields[key] = value
        else:
            raise ValueError(f"unknown config field {key}")
    for name in ("manifest", "output_dir"):
        if name not in fields:
            raise ValueError(f"config is missing required field {name!r}")
    for name in list(fields):
        if name in _INT_FIELDS:
            fields[name] = int(fields[name])
        elif name in _FLOAT_FIELDS:
            fields[name] = float(fields[name])
    return PipelineConfig(**fields)


def config_field_for(dotted: str) -> str:
    """Map a dotted override name (e.g. flow.alpha) to its config field."""
    if "." in dotted:
        section, _, sub = dotted.partition(".")
        if section in _CONFIG_SECTIONS and sub in _CONFIG_SECTIONS[section]:
            return sub
    elif dotted in _CONFIG_TOPLEVEL:
        return dotted
    raise KeyError(f"unknown config field {dotted!r}")


def apply_override(config: PipelineConfig, dotted: str, raw: str) -> PipelineConfig:
    """Apply one --name value override; values parse as JSON when possible."""
    name = config_field_for(dotted)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if name in _INT_FIELDS:
        value = int(value)
    elif name in _FLOAT_FIELDS:
        value = float(value)
    return replace(config, **{name: value})


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple
    counts: np.ndarray  # rows true, columns predicted

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.labels)
        if counts.shape != (k, k) or np.any(counts < 0):
            raise ValueError("counts must be a nonnegative KxK matrix")
        object.__setattr__(self, "counts", counts)

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

    @property
    def accuracy(self) -> float:
        correct = sum(1 for _, t, p in self.records if t == p)
        return correct / len(self.records)


@dataclass(frozen=True)
class PipelineResult:
    overall_accuracy: float
    confusion: ConfusionMatrix
    fold_results: tuple
    loss_histories: tuple = field(default=())


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
# Frame directories
# ---------------------------------------------------------------------------

def frames_to_sequence(frame_dir, alpha: float = 1.0, iterations: int = 100,
                       grid: int = 4, bins: int = 8,
                       video_id: str | None = None) -> corpus.DescriptorSequence:
    """Flow descriptors for consecutive PGM frames, sorted by filename."""
    names = sorted(n for n in os.listdir(frame_dir) if n.lower().endswith(".pgm"))
    if len(names) < 2:
        raise ValueError(f"{frame_dir}: needs at least 2 PGM frames, found {len(names)}")
    frames = [flow.read_pgm(os.path.join(frame_dir, n)) for n in names]
    shape = frames[0].intensity.shape
    for name, fr in zip(names, frames):
        if fr.intensity.shape != shape:
            raise ValueError(
                f"{frame_dir}: frame {name} has size {fr.intensity.shape}, expected {shape}"
            )
    rows = []
    for prev, curr in zip(frames, frames[1:]):
        fl = flow.estimate_flow(prev, curr, alpha=alpha, iterations=iterations)
        rows.append(flow.describe_flow(fl, grid=grid, bins=bins).values)
    return corpus.DescriptorSequence(
        video_id=video_id if video_id is not None else os.path.basename(os.path.normpath(frame_dir)),
        data=np.stack(rows),
    )


def project_videos(model: pca.PcaModel, sequences, ids) -> tuple[np.ndarray, int]:
    """Project the videos ``ids`` in one GEMM and zero-pad them to the longest.

    Returns the (N, m, L) batch in ``ids`` order and L; row i holds what
    ``pca.transform`` gives for video i, followed by trailing zeros.
    """
    lengths = [sequences[vid].frames for vid in ids]
    stacked = corpus.DescriptorSequence(
        video_id="batch", data=np.vstack([sequences[vid].data for vid in ids])
    )
    projected = pca.transform(model, stacked).data  # m x sum(lengths)
    l_max = max(lengths)
    batch = np.zeros((len(ids), model.channels, l_max))
    for row, part in zip(batch, np.split(projected, np.cumsum(lengths)[:-1], axis=1)):
        row[:, : part.shape[1]] = part
    return batch, l_max


# ---------------------------------------------------------------------------
# Content-hash cache keys
# ---------------------------------------------------------------------------

def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def _source_digest(path: str) -> str:
    """Hash of a video source: one .fds file or a directory of frames."""
    if os.path.isdir(path):
        parts: list = []
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if os.path.isfile(full):
                with open(full, "rb") as fh:
                    parts.extend([name, fh.read()])
        return _digest("dir", *parts)
    with open(path, "rb") as fh:
        return _digest("file", fh.read())


def _cache_fresh(artifact: str, key_path: str, key: str) -> bool:
    if not (os.path.exists(artifact) and os.path.exists(key_path)):
        return False
    with open(key_path, "r", encoding="utf-8") as fh:
        return fh.read().strip() == key


def _write_key(key_path: str, key: str) -> None:
    with open(key_path, "w", encoding="utf-8") as fh:
        fh.write(key + "\n")


# ---------------------------------------------------------------------------
# npz sidecars (exact float64 copies of the lossy exchange formats)
# ---------------------------------------------------------------------------

def _save_cnn_sidecar(path, spec: cnn.NetworkSpec, state: cnn.NetworkState, losses) -> None:
    arrays = {"loss": np.asarray(losses, dtype=np.float64)}
    for i, p in enumerate(state.params):
        if p is None:
            continue
        arrays[f"w{i}"] = p[0]
        arrays[f"b{i}"] = p[1]
    spec_text = f"input {spec.input_channels} {spec.input_length}\n" + cnn.format_architecture(spec.layers)
    np.savez(path, spec_text=np.array(spec_text), **arrays)


def _load_cnn_sidecar(path):
    with np.load(path) as data:
        lines = str(data["spec_text"]).splitlines()
        _, m_str, l_str = lines[0].split()
        spec = cnn.NetworkSpec(
            input_channels=int(m_str),
            input_length=int(l_str),
            layers=cnn.parse_architecture("\n".join(lines[1:])),
        )
        params = []
        for i, shapes in enumerate(cnn._param_shapes(spec)):
            if shapes is None:
                params.append(None)
                continue
            w, b = data[f"w{i}"], data[f"b{i}"]
            if (w.shape, b.shape) != shapes:
                raise DataFormatError(
                    f"{path}: layer {i} parameters have shapes {w.shape}, {b.shape}, "
                    f"the spec declares {shapes[0]}, {shapes[1]}"
                )
            params.append((w, b))
        losses = [float(x) for x in data["loss"]]
    return spec, cnn.NetworkState(params=params), losses


def _save_svm_sidecar(path, model: svm.SvmModel) -> None:
    arrays = {
        "labels": np.array([str(l) for l in model.labels]),
        "features": model.features,
        "gamma": np.array(model.params.gamma),
        "eps": np.array(model.params.epsilon_denominator),
        "biases": np.array([m.bias for m in model.machines]),
        "c_box": np.array([m.c_box for m in model.machines]),
    }
    for i, machine in enumerate(model.machines):
        arrays[f"support{i}"] = machine.support_indices
        arrays[f"coeff{i}"] = machine.coefficients
    np.savez(path, **arrays)


def _load_svm_sidecar(path) -> svm.SvmModel:
    with np.load(path) as data:
        labels = tuple(str(l) for l in data["labels"])
        machines = tuple(
            svm.BinarySvm(
                support_indices=data[f"support{i}"],
                coefficients=data[f"coeff{i}"],
                bias=float(data["biases"][i]),
                c_box=float(data["c_box"][i]),
            )
            for i in range(len(labels))
        )
        return svm.SvmModel(
            labels=labels,
            machines=machines,
            features=data["features"],
            params=svm.KernelParams(
                gamma=float(data["gamma"]), epsilon_denominator=float(data["eps"])
            ),
        )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _load_corpus(config: PipelineConfig):
    """Manifest plus all descriptor sequences, caching computed ones."""
    manifest = corpus.load_manifest(config.manifest)
    base = os.path.dirname(os.path.abspath(config.manifest))
    desc_dir = os.path.join(config.output_dir, "descriptors")
    flow_cfg = json.dumps(
        {"alpha": config.alpha, "iterations": config.iterations,
         "grid": config.grid, "bins": config.bins},
        sort_keys=True,
    )
    sequences = {}
    desc_keys = {}
    for entry in manifest.entries:
        path = entry.path if os.path.isabs(entry.path) else os.path.join(base, entry.path)
        if not os.path.exists(path):
            raise FileNotFoundError(f"video source {path!r} not found")
        key = _digest("desc", flow_cfg, _source_digest(path))
        desc_keys[entry.video_id] = key
        if os.path.isdir(path):
            os.makedirs(desc_dir, exist_ok=True)
            artifact = os.path.join(desc_dir, f"{entry.video_id}.fds")
            key_path = artifact + ".key"
            if _cache_fresh(artifact, key_path, key):
                seq = corpus.read_sequence(artifact, video_id=entry.video_id)
            else:
                seq = frames_to_sequence(
                    path, alpha=config.alpha, iterations=config.iterations,
                    grid=config.grid, bins=config.bins, video_id=entry.video_id,
                )
                corpus.write_sequence(seq, artifact)
                _write_key(key_path, key)
        else:
            seq = corpus.read_sequence(path, video_id=entry.video_id)
        sequences[entry.video_id] = seq
    dims = {seq.dim for seq in sequences.values()}
    if len(dims) > 1:
        raise ValueError(f"descriptor dimensions differ across videos: {sorted(dims)}")
    return manifest, sequences, desc_keys


def _architecture_text(config: PipelineConfig, num_classes: int) -> str:
    if config.architecture is None:
        return cnn.format_architecture(cnn.default_architecture(num_classes))
    with open(config.architecture, "r", encoding="utf-8") as fh:
        return fh.read()


def _run_fold(config, fold_index, fold, manifest, sequences, desc_keys, arch_text):
    """Fit on the fold's training videos and predict its test videos."""
    fold_dir = os.path.join(config.output_dir, f"fold_{fold_index:03d}")
    os.makedirs(fold_dir, exist_ok=True)
    labels = manifest.labels()
    label_index = {label: i for i, label in enumerate(labels)}
    train_ids = list(fold.train_ids)
    test_ids = list(fold.test_ids)
    fold_ids = train_ids + test_ids
    fold_seed = config.seed ^ fold_index

    # PCA on training descriptors only
    stage = "pca"
    try:
        pca_key = _digest(
            "pca", repr(config.pov_threshold),
            *[f"{vid}:{desc_keys[vid]}" for vid in sorted(train_ids)],
        )
        pca_path = os.path.join(fold_dir, "model.pca")
        if _cache_fresh(pca_path, pca_path + ".key", pca_key):
            pca_model = pca.load_model(pca_path)
        else:
            _audit(stage, fold_index, train_ids)
            samples = np.vstack([sequences[vid].data for vid in train_ids]).astype(np.float64)
            pca_model = pca.fit(samples, config.pov_threshold)
            pca.save_model(pca_model, pca_path)
            _write_key(pca_path + ".key", pca_key)
        batch, l_max = project_videos(pca_model, sequences, fold_ids)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, fold_index, str(exc)) from exc

    # 1D-CNN on training series only
    stage = "cnn"
    try:
        train_cfg = cnn.TrainConfig(
            learning_rate=config.learning_rate, momentum=config.momentum,
            epochs=config.epochs, batch_size=config.batch_size,
            seed=fold_seed, weight_decay=config.weight_decay,
        )
        cnn_key = _digest(
            "cnn", pca_key, arch_text, repr(train_cfg), str(l_max),
            ",".join(sorted(train_ids)),
            *[f"{vid}:{desc_keys[vid]}" for vid in sorted(fold_ids)],
        )
        cnn_path = os.path.join(fold_dir, "model.cnn")
        sidecar = os.path.join(fold_dir, "model.cnn.npz")
        spec = cnn.NetworkSpec(
            input_channels=pca_model.channels, input_length=l_max,
            layers=cnn.parse_architecture(arch_text),
        )
        if _cache_fresh(sidecar, cnn_path + ".key", cnn_key) and os.path.exists(cnn_path):
            spec, state, loss_history = _load_cnn_sidecar(sidecar)
        else:
            _audit(stage, fold_index, train_ids)
            state, loss_history = cnn.train(
                spec,
                batch[: len(train_ids)],
                [label_index[manifest.entry(vid).label] for vid in train_ids],
                train_cfg,
            )
            cnn.save_model(spec, state, cnn_path)
            _save_cnn_sidecar(sidecar, spec, state, loss_history)
            _write_key(cnn_path + ".key", cnn_key)
        features = dict(zip(fold_ids, cnn.extract_features(spec, state, batch)))
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, fold_index, str(exc)) from exc

    # SVM on training features only
    stage = "svm"
    try:
        svm_cfg = json.dumps(
            {"c_box": config.c_box, "gamma": config.gamma, "tol": config.tol},
            sort_keys=True,
        )
        svm_key = _digest("svm", cnn_key, svm_cfg)
        svm_path = os.path.join(fold_dir, "model.svm")
        sidecar = os.path.join(fold_dir, "model.svm.npz")
        if _cache_fresh(sidecar, svm_path + ".key", svm_key) and os.path.exists(svm_path):
            svm_model = _load_svm_sidecar(sidecar)
        else:
            train_features = [features[vid] for vid in train_ids]
            if config.gamma == "auto":
                _audit("gamma", fold_index, train_ids)
                gamma = svm.default_gamma(train_features, seed=fold_seed)
            else:
                gamma = float(config.gamma)
            _audit(stage, fold_index, train_ids)
            svm_model = svm.fit(
                train_features,
                [manifest.entry(vid).label for vid in train_ids],
                c_box=config.c_box,
                params=svm.KernelParams(gamma=gamma),
                tol=config.tol,
            )
            svm.save_model(svm_model, svm_path)
            _save_svm_sidecar(sidecar, svm_model)
            _write_key(svm_path + ".key", svm_key)
        records = tuple(
            (vid, manifest.entry(vid).label, svm.predict(svm_model, features[vid])[0])
            for vid in test_ids
        )
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, fold_index, str(exc)) from exc

    return FoldResult(index=fold_index, records=records), loss_history


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run every fold of the configured protocol and write reports."""
    os.makedirs(config.output_dir, exist_ok=True)
    manifest, sequences, desc_keys = _load_corpus(config)
    plan = (
        corpus.make_loocv(manifest)
        if config.split == "loocv"
        else corpus.make_fixed_splits(manifest)
    )
    arch_text = _architecture_text(config, len(manifest.labels()))

    fold_results = []
    loss_histories = []
    for fold_index, fold in enumerate(plan.folds):
        result, losses = _run_fold(
            config, fold_index, fold, manifest, sequences, desc_keys, arch_text
        )
        fold_results.append(result)
        loss_histories.append(tuple(losses))

    predictions = [(t, p) for r in fold_results for _, t, p in r.records]
    _, confusion = evaluate(predictions, manifest.labels())
    if config.split == "loocv":
        correct = sum(1 for t, p in predictions if t == p)
        overall = correct / len(predictions)
    else:
        overall = float(np.mean([r.accuracy for r in fold_results]))

    result = PipelineResult(
        overall_accuracy=overall,
        confusion=confusion,
        fold_results=tuple(fold_results),
        loss_histories=tuple(loss_histories),
    )
    _write_reports(config.output_dir, result)
    return result


def _write_reports(output_dir: str, result: PipelineResult) -> None:
    def put(name: str, text: str) -> None:
        with open(os.path.join(output_dir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    lines = ["fold,accuracy"]
    for r in result.fold_results:
        lines.append(f"{r.index},{r.accuracy!r}")
    lines.append(f"overall,{result.overall_accuracy!r}")
    put("accuracy.csv", "\n".join(lines) + "\n")

    lines = ["fold,video_id,true_label,predicted_label"]
    for r in result.fold_results:
        for vid, true, predicted in r.records:
            lines.append(f"{r.index},{vid},{true},{predicted}")
    put("predictions.csv", "\n".join(lines) + "\n")

    put("confusion.csv", result.confusion.to_csv())
    put("confusion.txt", result.confusion.to_text())

    lines = ["fold,epoch,loss"]
    for fold_index, losses in enumerate(result.loss_histories):
        for epoch, loss in enumerate(losses):
            lines.append(f"{fold_index},{epoch},{loss!r}")
    put("loss.csv", "\n".join(lines) + "\n")
