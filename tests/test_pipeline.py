import dataclasses
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from motionpipe import cnn, corpus, flow, pca, pipeline, svm
from motionpipe.errors import ConvergenceError, DataFormatError, StageError

REPORTS = ("accuracy.csv", "predictions.csv", "confusion.csv", "confusion.txt", "loss.csv")

# Small enough that a four-fold LOOCV run takes well under a second.
MINI_ARCH = "conv 3 4 1\nrelu\nmax 2 2\nfc 8\nrelu\nsoftmax 2\n"


def _mini_corpus(out_dir, seed=5):
    manifest, sequences, _ = corpus.generate_synthetic_corpus(
        classes=2, per_class=2, channels=3, min_len=16, max_len=20, seed=seed
    )
    return corpus.save_corpus(manifest, sequences, out_dir)


def _mini_config(manifest_path, out_dir, arch_path, **overrides):
    fields = dict(
        manifest=str(manifest_path),
        output_dir=str(out_dir),
        architecture=str(arch_path),
        pov_threshold=0.95,
        learning_rate=0.05,
        epochs=6,
        batch_size=4,
    )
    fields.update(overrides)
    return pipeline.PipelineConfig(**fields)


def _model_mtimes(out_dir):
    times = {}
    for fold_name in sorted(os.listdir(out_dir)):
        fold_dir = os.path.join(out_dir, fold_name)
        if not (fold_name.startswith("fold_") and os.path.isdir(fold_dir)):
            continue
        for name in sorted(os.listdir(fold_dir)):
            times[f"{fold_name}/{name}"] = os.stat(os.path.join(fold_dir, name)).st_mtime_ns
    return times


def _read_reports(out_dir):
    return {name: open(os.path.join(out_dir, name), "rb").read() for name in REPORTS}


@pytest.fixture()
def audit_log(monkeypatch):
    calls = []
    monkeypatch.setattr(
        pipeline, "fit_audit", lambda stage, fold, ids: calls.append((stage, fold, ids))
    )
    return calls


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """One cold pipeline run over a four-video corpus, with fit auditing."""
    root = tmp_path_factory.mktemp("mini")
    manifest_path = _mini_corpus(root / "corpus")
    arch_path = root / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    config = _mini_config(manifest_path, root / "out", arch_path)
    calls = []
    pipeline.fit_audit = lambda stage, fold, ids: calls.append((stage, fold, ids))
    try:
        result = pipeline.run_pipeline(config)
    finally:
        pipeline.fit_audit = None
    return SimpleNamespace(
        root=root,
        config=config,
        result=result,
        reports=_read_reports(config.output_dir),
        audit=tuple(calls),
        manifest=corpus.load_manifest(manifest_path),
        arch_path=arch_path,
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_hand_example():
    pairs = [("a", "a"), ("a", "b"), ("b", "b"), ("b", "b"), ("a", "a")]
    accuracy, matrix = pipeline.evaluate(pairs, ["a", "b"])
    assert accuracy == pytest.approx(0.8)
    assert matrix.labels == ("a", "b")
    assert np.array_equal(matrix.counts, [[2, 1], [0, 2]])
    assert matrix.total == 5


def test_evaluate_matches_counting_oracle():
    rng = np.random.default_rng(7)
    labels = ("x", "y", "z")
    pairs = [(labels[t], labels[p]) for t, p in rng.integers(0, 3, size=(200, 2))]
    accuracy, matrix = pipeline.evaluate(pairs, labels)

    counts = {(t, p): 0 for t in labels for p in labels}
    for t, p in pairs:
        counts[(t, p)] += 1
    for i, t in enumerate(labels):
        for j, p in enumerate(labels):
            assert matrix.counts[i, j] == counts[(t, p)]
    assert accuracy == pytest.approx(sum(1 for t, p in pairs if t == p) / 200)


def test_evaluate_rejects_empty_and_unknown():
    with pytest.raises(ValueError, match="no predictions"):
        pipeline.evaluate([], ["a"])
    with pytest.raises(ValueError, match="unknown label"):
        pipeline.evaluate([("a", "q")], ["a", "b"])


def test_confusion_matrix_formats():
    matrix = pipeline.ConfusionMatrix(labels=("ab", "c"), counts=np.array([[3, 0], [1, 2]]))
    assert matrix.accuracy() == pytest.approx(5 / 6)
    assert matrix.to_csv() == "true_label,ab,c\nab,3,0\nc,1,2\n"
    lines = matrix.to_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["ab", "3", "0"]
    assert len(set(map(len, lines))) == 1  # columns padded to equal width


def test_confusion_matrix_rejects_bad_counts():
    with pytest.raises(ValueError, match="KxK"):
        pipeline.ConfusionMatrix(labels=("a", "b"), counts=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        pipeline.ConfusionMatrix(labels=("a", "b"), counts=np.array([[1, -1], [0, 1]]))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_from_dict_reads_nested_sections():
    config = pipeline.config_from_dict(
        {
            "manifest": "m.json",
            "output_dir": "out",
            "seed": 3,
            "flow": {"alpha": 2, "grid": 3.0},
            "cnn": {"epochs": 5},
            "svm": {"gamma": 0.25},
        }
    )
    assert config.manifest == "m.json"
    assert config.seed == 3
    assert config.alpha == 2.0 and isinstance(config.alpha, float)
    assert config.grid == 3 and isinstance(config.grid, int)
    assert config.epochs == 5
    assert config.gamma == 0.25
    assert config.bins == 8  # untouched default


def test_config_from_dict_errors():
    base = {"manifest": "m", "output_dir": "o"}
    with pytest.raises(ValueError, match="must be a JSON object"):
        pipeline.config_from_dict(["not", "a", "dict"])
    with pytest.raises(ValueError, match="unknown config field nonsense"):
        pipeline.config_from_dict(dict(base, nonsense=1))
    with pytest.raises(ValueError, match=r"unknown config field flow\.epochs"):
        pipeline.config_from_dict(dict(base, flow={"epochs": 5}))
    with pytest.raises(ValueError, match="section 'flow' must be an object"):
        pipeline.config_from_dict(dict(base, flow=3))
    with pytest.raises(ValueError, match="missing required field 'output_dir'"):
        pipeline.config_from_dict({"manifest": "m"})


def test_config_validation():
    with pytest.raises(ValueError, match="pov_threshold"):
        pipeline.PipelineConfig(manifest="m", output_dir="o", pov_threshold=0.0)
    with pytest.raises(ValueError, match="unknown split mode"):
        pipeline.PipelineConfig(manifest="m", output_dir="o", split="kfold")
    with pytest.raises(ValueError, match="gamma"):
        pipeline.PipelineConfig(manifest="m", output_dir="o", gamma=-1.0)
    config = pipeline.PipelineConfig(manifest="m", output_dir="o", gamma="2.5")
    assert config.gamma == 2.5


def test_config_field_for_maps_dotted_names():
    assert pipeline.config_field_for("flow.alpha") == "alpha"
    assert pipeline.config_field_for("svm.c_box") == "c_box"
    assert pipeline.config_field_for("seed") == "seed"
    for bad in ("flow.c_box", "pca.alpha", "alpha", "nope.x", "nope"):
        with pytest.raises(KeyError):
            pipeline.config_field_for(bad)


def test_apply_override_parses_and_replaces():
    config = pipeline.PipelineConfig(manifest="m", output_dir="o")
    assert pipeline.apply_override(config, "cnn.epochs", "5").epochs == 5
    assert pipeline.apply_override(config, "flow.alpha", "2").alpha == 2.0
    assert pipeline.apply_override(config, "svm.gamma", "0.5").gamma == 0.5
    assert pipeline.apply_override(config, "svm.gamma", "auto").gamma == "auto"
    assert pipeline.apply_override(config, "split", "fixed").split == "fixed"
    assert config.epochs == 30  # original untouched


# ---------------------------------------------------------------------------
# Frame directories
# ---------------------------------------------------------------------------

def _write_square_frames(frame_dir, names, size=16):
    """A bright square translating right by one pixel per frame."""
    os.makedirs(frame_dir, exist_ok=True)
    for shift, name in enumerate(names):
        img = np.full((size, size), 0.2)
        img[4:9, 3 + shift : 8 + shift] = 0.9
        flow.write_pgm(flow.Frame(intensity=img), os.path.join(frame_dir, name))


def test_frames_to_sequence_matches_direct_flow(tmp_path):
    frame_dir = tmp_path / "clip"
    # written out of order on purpose; listing must sort by filename
    _write_square_frames(frame_dir, ["f2.pgm", "f0.pgm", "f1.pgm"])
    (frame_dir / "notes.txt").write_text("ignored")
    seq = pipeline.frames_to_sequence(frame_dir, alpha=1.0, iterations=30, grid=2, bins=4)

    assert seq.video_id == "clip"
    assert seq.data.shape == (2, flow.descriptor_length(2, 4))
    frames = [flow.read_pgm(frame_dir / f"f{i}.pgm") for i in (0, 2, 1)]
    frames.sort(key=lambda fr: fr.intensity[4, 3:].argmin())  # back to f0,f1,f2
    for row, (prev, curr) in zip(seq.data, zip(frames, frames[1:])):
        field = flow.estimate_flow(prev, curr, alpha=1.0, iterations=30)
        expected = flow.describe_flow(field, grid=2, bins=4).values
        assert np.array_equal(row, expected.astype(np.float32))


def test_frames_to_sequence_explicit_id(tmp_path):
    frame_dir = tmp_path / "clip"
    _write_square_frames(frame_dir, ["a.pgm", "b.pgm"])
    assert pipeline.frames_to_sequence(frame_dir, video_id="v9").video_id == "v9"


def test_frames_to_sequence_needs_two_frames(tmp_path):
    frame_dir = tmp_path / "clip"
    _write_square_frames(frame_dir, ["only.pgm"])
    with pytest.raises(ValueError, match="at least 2 PGM frames"):
        pipeline.frames_to_sequence(frame_dir)


def test_frames_to_sequence_rejects_size_mismatch(tmp_path):
    frame_dir = tmp_path / "clip"
    _write_square_frames(frame_dir, ["a.pgm"], size=16)
    flow.write_pgm(flow.Frame(intensity=np.full((12, 12), 0.5)), frame_dir / "b.pgm")
    with pytest.raises(ValueError, match="expected"):
        pipeline.frames_to_sequence(frame_dir)


def test_project_videos_matches_per_video_transform():
    manifest, sequences, _ = corpus.generate_synthetic_corpus(
        classes=2, per_class=3, channels=5, min_len=16, max_len=30, seed=7
    )
    by_id = {seq.video_id: seq for seq in sequences}
    ids = manifest.video_ids()[::-1]
    model = pca.fit(np.vstack([seq.data for seq in sequences]).astype(np.float64), 0.9)
    batch, l_max = pipeline.project_videos(model, by_id, ids)

    aligned, expected_len = corpus.align_lengths([pca.transform(model, by_id[v]) for v in ids])
    assert l_max == expected_len
    assert batch.shape == (len(ids), model.channels, l_max)
    for row, series, vid in zip(batch, aligned, ids):
        assert np.abs(row - series.data).max() <= 1e-12
        assert not row[:, by_id[vid].frames :].any()  # padding stays exactly zero


# ---------------------------------------------------------------------------
# End-to-end runs
# ---------------------------------------------------------------------------

def test_run_pipeline_writes_consistent_reports(mini_run):
    result = mini_run.result
    out = mini_run.config.output_dir
    assert len(result.fold_results) == 4  # LOOCV over four videos
    assert result.confusion.total == 4

    lines = mini_run.reports["accuracy.csv"].decode().splitlines()
    assert lines[0] == "fold,accuracy"
    assert lines[-1] == f"overall,{result.overall_accuracy!r}"
    assert len(lines) == 2 + len(result.fold_results)

    rows = mini_run.reports["predictions.csv"].decode().splitlines()[1:]
    assert len(rows) == 4
    assert {r.split(",")[1] for r in rows} == set(mini_run.manifest.video_ids())

    losses = mini_run.reports["loss.csv"].decode().splitlines()[1:]
    assert len(losses) == 4 * mini_run.config.epochs

    for i in range(4):
        fold_dir = os.path.join(out, f"fold_{i:03d}")
        for name in ("model.pca", "model.cnn", "model.svm",
                     "model.pca.key", "model.cnn.key", "model.svm.key",
                     "model.cnn.npz", "model.svm.npz"):
            assert os.path.exists(os.path.join(fold_dir, name)), name


def test_overall_accuracy_pools_loocv_records(mini_run):
    records = [rec for fold in mini_run.result.fold_results for rec in fold.records]
    correct = sum(1 for _, true, pred in records if true == pred)
    assert mini_run.result.overall_accuracy == pytest.approx(correct / len(records))


def test_audit_sees_only_training_videos(mini_run):
    plan = corpus.make_loocv(mini_run.manifest)
    assert mini_run.audit, "cold run must fit models"
    stages_by_fold: dict[int, set] = {}
    for stage, fold, ids in mini_run.audit:
        held_out = set(plan.folds[fold].test_ids)
        assert held_out.isdisjoint(ids), f"{stage} fit saw test videos {held_out & set(ids)}"
        assert set(ids) == set(plan.folds[fold].train_ids)
        stages_by_fold.setdefault(fold, set()).add(stage)
    for fold, stages in stages_by_fold.items():
        assert stages == {"pca", "cnn", "gamma", "svm"}


def test_warm_rerun_hits_cache_and_reproduces_reports(mini_run, audit_log):
    out = mini_run.config.output_dir
    before = _model_mtimes(out)
    result = pipeline.run_pipeline(mini_run.config)
    assert audit_log == []  # nothing refit
    assert _model_mtimes(out) == before
    assert _read_reports(out) == mini_run.reports
    assert result.overall_accuracy == mini_run.result.overall_accuracy
    assert result.fold_results == mini_run.result.fold_results
    assert result.loss_histories == mini_run.result.loss_histories


def _copy_run(mini_run, tmp_path, **overrides):
    out = tmp_path / "out"
    shutil.copytree(mini_run.config.output_dir, out)
    return dataclasses.replace(mini_run.config, output_dir=str(out), **overrides)


def test_changing_svm_config_refits_only_svm(mini_run, tmp_path, audit_log):
    config = _copy_run(mini_run, tmp_path, c_box=5.0)
    before = _model_mtimes(config.output_dir)
    pipeline.run_pipeline(config)
    after = _model_mtimes(config.output_dir)
    assert {stage for stage, _, _ in audit_log} == {"gamma", "svm"}
    for name, stamp in before.items():
        if "svm" in name:
            assert after[name] != stamp, name
        else:
            assert after[name] == stamp, name


def test_changing_pov_refits_every_stage(mini_run, tmp_path, audit_log):
    config = _copy_run(mini_run, tmp_path, pov_threshold=1.0)
    before = _model_mtimes(config.output_dir)
    pipeline.run_pipeline(config)
    after = _model_mtimes(config.output_dir)
    assert {stage for stage, _, _ in audit_log} == {"pca", "cnn", "gamma", "svm"}
    assert all(after[name] != stamp for name, stamp in before.items())


def test_frame_dir_corpus_caches_descriptors(tmp_path, audit_log):
    corpus_dir = tmp_path / "corpus"
    entries = []
    for c, shift_step in enumerate((1, 2)):
        for v in range(2):
            vid = f"c{c}v{v}"
            names = [f"{k}.pgm" for k in range(3)]
            frame_dir = corpus_dir / vid
            os.makedirs(frame_dir)
            for k, name in enumerate(names):
                img = np.full((16, 16), 0.2)
                offset = 2 + k * shift_step + v
                img[4:9, offset : offset + 5] = 0.9
                flow.write_pgm(flow.Frame(intensity=img), frame_dir / name)
            entries.append(corpus.ManifestEntry(video_id=vid, label=f"class{c}", path=vid))
    manifest_path = corpus_dir / "manifest.json"
    corpus.save_manifest(corpus.Manifest(entries=tuple(entries)), manifest_path)

    arch_path = tmp_path / "arch.txt"
    arch_path.write_text("fc 8\nrelu\nsoftmax 2\n")
    config = _mini_config(
        manifest_path, tmp_path / "out", arch_path, iterations=20, grid=2, bins=4, epochs=3
    )
    pipeline.run_pipeline(config)
    desc_dir = os.path.join(config.output_dir, "descriptors")
    cached = sorted(os.listdir(desc_dir))
    assert set(cached) == {f"{e.video_id}.fds{ext}" for e in entries for ext in ("", ".key")}
    stamps = {n: os.stat(os.path.join(desc_dir, n)).st_mtime_ns for n in cached}

    audit_log.clear()
    pipeline.run_pipeline(config)  # warm: descriptors and models reused
    assert audit_log == []
    assert {n: os.stat(os.path.join(desc_dir, n)).st_mtime_ns for n in cached} == stamps

    audit_log.clear()
    pipeline.run_pipeline(dataclasses.replace(config, alpha=0.5))
    assert {stage for stage, _, _ in audit_log} == {"pca", "cnn", "gamma", "svm"}
    fresh = {n: os.stat(os.path.join(desc_dir, n)).st_mtime_ns for n in cached}
    assert all(fresh[n] != stamps[n] for n in cached)


def test_identical_videos_classify_perfectly(tmp_path):
    rows_a = np.zeros((12, 6), dtype=np.float32)
    rows_a[:6] = 5.0
    rows_b = np.zeros((12, 6), dtype=np.float32)
    rows_b[6:] = 5.0
    entries = []
    sequences = []
    for c, rows in enumerate((rows_a, rows_b)):
        for v in range(3):
            vid = f"c{c}v{v}"
            entries.append(
                corpus.ManifestEntry(video_id=vid, label=f"class{c}", path=f"{vid}.fds")
            )
            sequences.append(corpus.DescriptorSequence(video_id=vid, data=rows))
    manifest_path = corpus.save_corpus(
        corpus.Manifest(entries=tuple(entries)), sequences, tmp_path / "corpus"
    )
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text("fc 6\nrelu\nsoftmax 2\n")
    config = _mini_config(
        manifest_path, tmp_path / "out", arch_path, epochs=10, learning_rate=0.1
    )
    result = pipeline.run_pipeline(config)
    assert result.overall_accuracy == 1.0
    assert np.array_equal(result.confusion.counts, [[3, 0], [0, 3]])


def test_fixed_split_averages_fold_accuracies(tmp_path):
    manifest_path = _mini_corpus(tmp_path / "corpus")
    manifest = corpus.load_manifest(manifest_path)
    entries = tuple(
        dataclasses.replace(e, split_id=int(e.video_id[-1])) for e in manifest.entries
    )
    corpus.save_manifest(corpus.Manifest(entries=entries), manifest_path)

    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    config = _mini_config(manifest_path, tmp_path / "out", arch_path, split="fixed")
    result = pipeline.run_pipeline(config)
    assert len(result.fold_results) == 2
    assert {len(fold.records) for fold in result.fold_results} == {2}
    expected = np.mean([fold.accuracy for fold in result.fold_results])
    assert result.overall_accuracy == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Failure reporting
# ---------------------------------------------------------------------------

def test_stage_error_tags_stage_and_fold(mini_run, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("SMO not converged")

    monkeypatch.setattr(svm, "fit", explode)
    config = dataclasses.replace(mini_run.config, output_dir=str(tmp_path / "out"))
    with pytest.raises(StageError) as info:
        pipeline.run_pipeline(config)
    assert info.value.stage == "svm"
    assert info.value.fold == 0
    assert str(info.value).startswith("fold 0, stage svm:")
    assert isinstance(info.value.__cause__, ConvergenceError)


def test_cnn_sidecar_rejects_wrong_parameter_shapes(tmp_path):
    spec = cnn.NetworkSpec(
        input_channels=2, input_length=12,
        layers=(cnn.Conv1D(3, 4, 1), cnn.ReLU(), cnn.Max1D(2, 2),
                cnn.FullyConnected(6), cnn.ReLU(), cnn.SoftmaxOutput(2)),
    )
    state = cnn.init_state(spec, 0)
    path = str(tmp_path / "model.cnn.npz")
    pipeline._save_cnn_sidecar(path, spec, state, [1.0])
    loaded_spec, loaded, _ = pipeline._load_cnn_sidecar(path)
    assert loaded_spec == spec
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(state.params, loaded.params) if a)

    w, b = state.params[3]
    state.params[3] = (w[:, :-1], b)  # fc layer one input short
    pipeline._save_cnn_sidecar(path, spec, state, [1.0])
    with pytest.raises(DataFormatError, match="layer 3"):
        pipeline._load_cnn_sidecar(path)


def test_missing_video_source_raises(tmp_path):
    manifest_path = tmp_path / "manifest.json"
    corpus.save_manifest(
        corpus.Manifest(
            entries=(corpus.ManifestEntry(video_id="v", label="a", path="gone.fds"),)
        ),
        manifest_path,
    )
    config = pipeline.PipelineConfig(manifest=str(manifest_path), output_dir=str(tmp_path / "out"))
    with pytest.raises(FileNotFoundError, match="not found"):
        pipeline.run_pipeline(config)


def test_mixed_descriptor_dims_rejected(tmp_path):
    entries = []
    sequences = []
    for vid, dim in (("a", 3), ("b", 4)):
        entries.append(corpus.ManifestEntry(video_id=vid, label="x", path=f"{vid}.fds"))
        sequences.append(
            corpus.DescriptorSequence(video_id=vid, data=np.ones((4, dim), dtype=np.float32))
        )
    manifest_path = corpus.save_corpus(
        corpus.Manifest(entries=tuple(entries)), sequences, tmp_path / "corpus"
    )
    config = pipeline.PipelineConfig(manifest=str(manifest_path), output_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="descriptor dimensions differ"):
        pipeline.run_pipeline(config)
