import builtins
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionpipe import arrays, cli, cnn, corpus, flow, pca, pipeline, svm, workers
from motionpipe.errors import ConvergenceError, DataFormatError, StageError

import oracles
import test_flow
from test_workers import record_forks, usable_cpus

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


def _tree(out_dir):
    """Every file under ``out_dir``, by relative path, with its bytes."""
    files = {}
    for dirpath, _, filenames in os.walk(out_dir):
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, out_dir)] = fh.read()
    return files


def _use_workers(monkeypatch, count):
    """Pin the forked workers a run uses; one runs every task in-process."""
    monkeypatch.setattr(workers, "_worker_count", lambda pending: min(count, pending))


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """One cold pipeline run over a four-video corpus, with fit auditing."""
    root = tmp_path_factory.mktemp("mini")
    manifest_path = _mini_corpus(root / "corpus")
    arch_path = root / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    config = _mini_config(manifest_path, root / "out", arch_path)
    result = pipeline.run_pipeline(config)
    return SimpleNamespace(
        root=root,
        config=config,
        result=result,
        reports=_read_reports(config.output_dir),
        audit=tuple(oracles.fit_calls(result)),
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


def test_default_cnn_settings_and_their_key_text():
    config = pipeline.PipelineConfig(manifest="m", output_dir="o")
    # the CNN cache key hashes this text: other bytes would refit every older output directory
    assert repr(pipeline.train_config(config, 3)) == (
        "TrainConfig(learning_rate=0.01, momentum=0.9, epochs=30, batch_size=16, seed=3, "
        "weight_decay=0.0001)"
    )


def test_config_validation():
    # the one check of each stage setting: the stage functions do not repeat it
    for field, bad, message in [
        ("alpha", 0.0, "alpha must be positive and finite"),
        ("alpha", np.nan, "alpha must be positive and finite"),
        ("c_box", 0.0, "c_box must be positive and finite"),
        ("c_box", np.nan, "c_box must be positive and finite"),
        ("c_box", np.inf, "c_box must be positive and finite"),
        ("c_box", 1e-8, r"c_box must be greater than svm.BOUND_EPS \(1e-08\)"),
        ("c_box", 1e-9, r"c_box must be greater than svm.BOUND_EPS \(1e-08\)"),
        ("tol", np.nan, "tol must be positive and finite"),
        ("tol", np.inf, "tol must be positive and finite"),
        ("pov_threshold", 0.0, r"pov_threshold must be in \(0, 1\]"),
        ("pov_threshold", 1.5, r"pov_threshold must be in \(0, 1\]"),
        ("grid", 0, "grid must be at least 1"),
        ("bins", 1, "bins must be at least 2"),
        ("iterations", 0, "iterations must be at least 1"),
        ("seed", -1, "seed must be a nonnegative integer"),
    ]:
        with pytest.raises(ValueError, match=message):
            pipeline.PipelineConfig(manifest="m", output_dir="o", **{field: bad})
    with pytest.raises(ValueError, match="unknown split mode"):
        pipeline.PipelineConfig(manifest="m", output_dir="o", split="kfold")
    with pytest.raises(ValueError, match="gamma"):
        pipeline.PipelineConfig(manifest="m", output_dir="o", gamma=-1.0)
    config = pipeline.PipelineConfig(manifest="m", output_dir="o", gamma="2.5")
    assert config.gamma == 2.5
    for bad in (0.0, np.nan, np.inf, -1.0):  # the range's message, not the bound's
        with pytest.raises(ValueError) as info:
            pipeline.PipelineConfig(manifest="m", output_dir="o", c_box=bad)
        assert str(info.value) == "c_box must be positive and finite"
    above = float(np.nextafter(svm.BOUND_EPS, np.inf))
    assert pipeline.PipelineConfig(manifest="m", output_dir="o", c_box=above).c_box == above


def test_config_rejects_an_alpha_whose_square_is_not_a_normal_float32():
    least, greatest = test_flow.alpha_bounds()
    for alpha in (least, greatest):
        assert pipeline.PipelineConfig(manifest="m", output_dir="o", alpha=alpha).alpha == alpha
    for alpha in (np.nextafter(least, 0.0), np.nextafter(greatest, np.inf)):
        with pytest.raises(ValueError, match=r"alpha \* alpha must be a normal float32"):
            pipeline.PipelineConfig(manifest="m", output_dir="o", alpha=float(alpha))


def test_config_fields_map_dotted_names():
    assert pipeline.CONFIG_FIELDS["flow.alpha"] == "alpha"
    assert pipeline.CONFIG_FIELDS["svm.c_box"] == "c_box"
    assert pipeline.CONFIG_FIELDS["seed"] == "seed"
    # every config field once, by one name
    assert sorted(pipeline.CONFIG_FIELDS.values()) == sorted(
        f.name for f in dataclasses.fields(pipeline.PipelineConfig))
    config = pipeline.PipelineConfig(manifest="m", output_dir="o")
    for bad in ("flow.c_box", "pca.alpha", "alpha", "nope.x", "nope"):
        assert bad not in pipeline.CONFIG_FIELDS
        with pytest.raises(KeyError):
            pipeline.apply_override(config, bad, "1")


def test_apply_override_parses_and_replaces():
    config = pipeline.PipelineConfig(manifest="m", output_dir="o")
    assert pipeline.apply_override(config, "cnn.epochs", "5").epochs == 5
    assert pipeline.apply_override(config, "flow.alpha", "2").alpha == 2.0
    assert pipeline.apply_override(config, "svm.gamma", "0.5").gamma == 0.5
    assert pipeline.apply_override(config, "svm.gamma", "auto").gamma == "auto"
    assert pipeline.apply_override(config, "split", "fixed").split == "fixed"
    assert config.epochs == 30  # original untouched


def test_apply_override_takes_path_text_as_given():
    config = pipeline.PipelineConfig(manifest="m", output_dir="o")
    assert pipeline.apply_override(config, "manifest", "2024").manifest == "2024"
    assert pipeline.apply_override(config, "output_dir", "null").output_dir == "null"
    assert pipeline.apply_override(config, "cnn.architecture", "7").architecture == "7"
    with_arch = pipeline.apply_override(config, "cnn.architecture", "a.txt")
    assert pipeline.apply_override(with_arch, "cnn.architecture", "null").architecture is None
    with pytest.raises(ValueError, match="unknown split mode '\"fixed\"'"):
        pipeline.apply_override(config, "split", '"fixed"')


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

    assert seq.data.shape == (2, oracles.descriptor_width(2, 4))
    frames = [flow.read_pgm(frame_dir / f"f{i}.pgm") for i in (0, 2, 1)]
    frames.sort(key=lambda fr: fr.intensity[4, 3:].argmin())  # back to f0,f1,f2
    for row, (prev, curr) in zip(seq.data, zip(frames, frames[1:])):
        u, v = flow.estimate_flows([prev, curr], alpha=1.0, iterations=30)[:, 0]
        expected = flow.describe_flows(u[None], v[None], grid=2, bins=4)[0]
        assert np.array_equal(row, expected.astype(np.float32))


def test_frames_to_sequence_needs_two_frames(tmp_path):
    frame_dir = tmp_path / "clip"
    _write_square_frames(frame_dir, ["only.pgm"])
    with pytest.raises(ValueError, match="at least 2 PGM frames"):
        pipeline.frames_to_sequence(frame_dir, alpha=1.0, iterations=100, grid=4, bins=8)


def test_frames_to_sequence_rejects_size_mismatch(tmp_path):
    frame_dir = tmp_path / "clip"
    _write_square_frames(frame_dir, ["a.pgm"], size=16)
    flow.write_pgm(flow.Frame(intensity=np.full((12, 12), 0.5)), frame_dir / "b.pgm")
    with pytest.raises(ValueError, match="expected"):
        pipeline.frames_to_sequence(frame_dir, alpha=1.0, iterations=100, grid=4, bins=8)


def test_project_videos_matches_per_video_transform():
    manifest, sequences, _ = corpus.generate_synthetic_corpus(
        classes=2, per_class=3, channels=5, min_len=16, max_len=30, seed=7
    )
    ids = manifest.video_ids()[::-1]
    model = pca.fit(np.vstack([seq.data for seq in sequences.values()]).astype(np.float64), 0.9)
    batch, l_max = pipeline.project_videos(model, sequences, ids)

    assert l_max == max(sequences[vid].frames for vid in ids)
    assert batch.shape == (len(ids), model.channels, l_max)
    for row, vid in zip(batch, ids):
        expected = oracles.align_to_length(pca.transform(model, sequences[vid].data), l_max)
        assert np.abs(row - expected).max() <= 1e-12
        assert not row[:, sequences[vid].frames :].any()  # padding stays exactly zero


def test_project_videos_pads_with_trailing_zeros():
    # the identity basis projects exactly: a video's channels are its rows
    model = pca.PcaModel(mean=np.zeros(2), eigenvalues=np.array([1.0, 1.0]),
                         components=np.eye(2), pov_achieved=1.0)
    a = corpus.DescriptorSequence(np.arange(6.0).reshape(3, 2))
    b = corpus.DescriptorSequence(np.arange(10.0).reshape(5, 2))
    batch, l_max = pipeline.project_videos(model, {"a": a, "b": b}, ["a", "b"])
    assert l_max == 5
    assert batch.shape == (2, 2, 5)
    assert np.array_equal(batch[0, :, :3], a.data.T)
    assert np.all(batch[0, :, 3:] == 0.0)
    assert np.array_equal(batch[1], b.data.T)  # already at the longest length


@settings(max_examples=50, deadline=None)
@given(
    dim=st.integers(1, 6),
    channels=st.integers(1, 4),
    lengths=st.lists(st.integers(1, 20), min_size=1, max_size=6),
    seed=st.integers(0, 2**31 - 1),
)
def test_project_videos_pads_the_stacked_projection_with_zeros(dim, channels, lengths, seed):
    rng = np.random.default_rng(seed)
    channels = min(channels, dim)
    model = pca.PcaModel(mean=rng.normal(size=dim), eigenvalues=np.zeros(dim),
                         components=rng.normal(size=(channels, dim)), pov_achieved=1.0)
    ids = [f"v{i}" for i in range(len(lengths))]
    sequences = {vid: corpus.DescriptorSequence(rng.normal(size=(n, dim)))
                 for vid, n in zip(ids, lengths)}
    batch, l_max = pipeline.project_videos(model, sequences, ids)
    assert l_max == max(lengths)
    assert batch.shape == (len(ids), channels, l_max)
    stacked = pca.transform(model, np.vstack([sequences[vid].data for vid in ids]))
    for row, part, n in zip(batch, np.split(stacked, np.cumsum(lengths)[:-1], axis=1), lengths):
        assert np.array_equal(row[:, :n].view(np.int64), part.view(np.int64))
        assert np.all(row[:, n:] == 0.0)


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
                     "model.cnn.arrays", "model.svm.arrays"):
            assert os.path.exists(os.path.join(fold_dir, name)), name


def test_overall_accuracy_pools_loocv_records(mini_run):
    records = [rec for fold in mini_run.result.fold_results for rec in fold.records]
    correct = sum(1 for _, true, pred in records if true == pred)
    assert mini_run.result.overall_accuracy == pytest.approx(correct / len(records))


def test_audit_sees_only_training_videos(mini_run):
    folds = corpus.make_loocv(mini_run.manifest)
    assert mini_run.audit, "cold run must fit models"
    stages_by_fold: dict[int, set] = {}
    for stage, fold, ids in mini_run.audit:
        held_out = set(folds[fold].test_ids)
        assert held_out.isdisjoint(ids), f"{stage} fit saw test videos {held_out & set(ids)}"
        assert set(ids) == set(folds[fold].train_ids)
        stages_by_fold.setdefault(fold, set()).add(stage)
    for fold, stages in stages_by_fold.items():
        assert stages == {"pca", "cnn", "gamma", "svm"}


def test_warm_rerun_hits_cache_and_reproduces_reports(mini_run):
    out = mini_run.config.output_dir
    before = _model_mtimes(out)
    result = pipeline.run_pipeline(mini_run.config)
    assert oracles.fit_calls(result) == []  # nothing refit
    assert _model_mtimes(out) == before
    assert _read_reports(out) == mini_run.reports
    assert result.overall_accuracy == mini_run.result.overall_accuracy
    assert result.fold_results == mini_run.result.fold_results
    assert ([r.losses for r in result.fold_results]
            == [r.losses for r in mini_run.result.fold_results])


def _write_config(config, path):
    """``config``'s settings that differ from the defaults, as a config file."""
    path.write_text(json.dumps({
        "manifest": config.manifest, "output_dir": config.output_dir,
        "pca": {"pov_threshold": config.pov_threshold},
        "cnn": {"architecture": config.architecture, "learning_rate": config.learning_rate,
                "epochs": config.epochs, "batch_size": config.batch_size},
    }))
    return str(path)


def _copy_run(mini_run, tmp_path, **overrides):
    out = tmp_path / "out"
    shutil.copytree(mini_run.config.output_dir, out)
    return dataclasses.replace(mini_run.config, output_dir=str(out), **overrides)


def test_warm_rerun_reads_no_pca_model(mini_run, tmp_path, monkeypatch):
    config = _copy_run(mini_run, tmp_path)
    loads = []
    monkeypatch.setattr(pca, "load_model", lambda path: loads.append(path))
    pipeline.run_pipeline(config)
    assert loads == []
    assert _read_reports(config.output_dir) == mini_run.reports


def test_warm_run_reads_no_npz_archive(mini_run, tmp_path, monkeypatch, capsys):
    config = _copy_run(mini_run, tmp_path)

    def no_load(*args, **kwargs):
        raise AssertionError("np.load called")

    monkeypatch.setattr(np, "load", no_load)
    assert cli.main(["run", "--config", _write_config(config, tmp_path / "config.json")]) == 0, \
        capsys.readouterr().err
    assert _read_reports(config.output_dir) == mini_run.reports


def _reference_keys(mini_run, container=b"ARR1"):
    """{fold index: (PCA, CNN, SVM) key} of ``mini_run``, from ``oracles.fold_stage_keys``."""
    config = mini_run.config
    base = os.path.dirname(config.manifest)
    descriptors = {e.video_id: corpus.read_sequence(os.path.join(base, e.path)).data
                   for e in mini_run.manifest.entries}
    return {
        fold_index: oracles.fold_stage_keys(
            descriptors, fold.train_ids, fold.test_ids, config.pov_threshold, MINI_ARCH,
            repr(pipeline.train_config(config, config.seed ^ fold_index)),
            {"c_box": config.c_box, "gamma": config.gamma, "tol": config.tol}, container,
        )
        for fold_index, fold in enumerate(corpus.make_loocv(mini_run.manifest))
    }


def _stored_keys(out_dir, fold_index):
    fold_dir = os.path.join(out_dir, f"fold_{fold_index:03d}")
    return tuple(open(os.path.join(fold_dir, f"model.{stage}.key")).read().strip()
                 for stage in ("pca", "cnn", "svm"))


def _has_key(out_dir, fold_index, stage):
    """Whether fold ``fold_index``'s ``stage`` wrote its cache key: the stage finished."""
    return os.path.exists(os.path.join(out_dir, f"fold_{fold_index:03d}", f"model.{stage}.key"))


def test_fold_keys_match_a_part_by_part_reference(mini_run):
    for fold_index, keys in _reference_keys(mini_run).items():
        assert _stored_keys(mini_run.config.output_dir, fold_index) == keys


def test_output_directory_with_models_from_before_arr1_refits_every_stage(mini_run, tmp_path):
    """A directory whose keys predate ARR1 models and whose model.pca is PCA1 refits it all."""
    config = _copy_run(mini_run, tmp_path)
    old_keys = _reference_keys(mini_run, container=None)
    for fold_index, keys in old_keys.items():
        fold_dir = tmp_path / "out" / f"fold_{fold_index:03d}"
        model = pca.load_model(fold_dir / "model.pca")
        (fold_dir / "model.pca").write_bytes(
            b"PCA1" + np.array([model.input_dim, model.channels], "<u4").tobytes()
            + model.mean.tobytes() + model.eigenvalues.tobytes() + model.components.tobytes()
        )
        for stage, key in zip(("pca", "cnn", "svm"), keys):
            (fold_dir / f"model.{stage}.key").write_text(key + "\n")
    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    assert sorted((stage, fold) for stage, fold, _ in audit_log) == sorted(
        (stage, fold) for fold in old_keys for stage in ("pca", "cnn", "gamma", "svm")
    )
    assert _read_reports(config.output_dir) == mini_run.reports
    for fold_index in old_keys:
        assert _stored_keys(config.output_dir, fold_index) == _stored_keys(
            mini_run.config.output_dir, fold_index)


def test_npz_stage_outputs_under_their_old_names_refit_cnn_and_svm(mini_run, tmp_path):
    """An output directory from before ARR1 reruns: its CNN and SVM stages miss, PCA hits."""
    config = _copy_run(mini_run, tmp_path)
    folds = sorted((tmp_path / "out").glob("fold_*"))
    for fold_dir in folds:
        for stage in ("cnn", "svm"):
            current = fold_dir / f"model.{stage}.arrays"
            np.savez(fold_dir / f"model.{stage}.npz", **arrays.load(current))
            current.unlink()
    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    assert sorted((stage, fold) for stage, fold, _ in audit_log) == sorted(
        (stage, fold) for fold in range(len(folds)) for stage in ("cnn", "gamma", "svm")
    )
    assert _read_reports(config.output_dir) == mini_run.reports


def test_cnn_refit_reads_cached_pca_model_at_stage_pca(mini_run, tmp_path, monkeypatch):
    _use_workers(monkeypatch, 1)  # a second worker would refit fold 1 meanwhile
    config = _copy_run(mini_run, tmp_path, learning_rate=0.04)
    pca_path = os.path.join(config.output_dir, "fold_000", "model.pca")
    with open(pca_path, "r+b") as fh:
        fh.write(b"XXXX")
    corrupted = open(pca_path, "rb").read()
    with pytest.raises(StageError) as info:
        pipeline.run_pipeline(config)
    assert (info.value.stage, info.value.fold) == ("pca", 0)
    assert isinstance(info.value.__cause__, DataFormatError)
    assert "magic" in str(info.value)
    assert open(pca_path, "rb").read() == corrupted  # the PCA stage hit; nothing refit it


def test_changing_svm_config_refits_only_svm(mini_run, tmp_path):
    config = _copy_run(mini_run, tmp_path, c_box=5.0)
    before = _model_mtimes(config.output_dir)
    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    after = _model_mtimes(config.output_dir)
    assert {stage for stage, _, _ in audit_log} == {"gamma", "svm"}
    for name, stamp in before.items():
        if "svm" in name:
            assert after[name] != stamp, name
        else:
            assert after[name] == stamp, name


def test_changing_pov_refits_every_stage(mini_run, tmp_path):
    config = _copy_run(mini_run, tmp_path, pov_threshold=1.0)
    before = _model_mtimes(config.output_dir)
    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    after = _model_mtimes(config.output_dir)
    assert {stage for stage, _, _ in audit_log} == {"pca", "cnn", "gamma", "svm"}
    assert all(after[name] != stamp for name, stamp in before.items())


def _frame_dir_config(tmp_path):
    """A run over four frame-directory videos of two classes."""
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
    return _mini_config(
        manifest_path, tmp_path / "out", arch_path, iterations=20, grid=2, bins=4, epochs=3
    )


def test_frame_dir_corpus_caches_descriptors(tmp_path):
    config = _frame_dir_config(tmp_path)
    entries = corpus.load_manifest(config.manifest).entries
    pipeline.run_pipeline(config)
    desc_dir = os.path.join(config.output_dir, "descriptors")
    cached = sorted(os.listdir(desc_dir))
    assert set(cached) == {f"{e.video_id}.fds{ext}" for e in entries for ext in ("", ".key")}
    stamps = {n: os.stat(os.path.join(desc_dir, n)).st_mtime_ns for n in cached}

    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))  # warm: nothing refit
    assert audit_log == []
    assert {n: os.stat(os.path.join(desc_dir, n)).st_mtime_ns for n in cached} == stamps

    audit_log = oracles.fit_calls(pipeline.run_pipeline(dataclasses.replace(config, alpha=0.5)))
    assert {stage for stage, _, _ in audit_log} == {"pca", "cnn", "gamma", "svm"}
    fresh = {n: os.stat(os.path.join(desc_dir, n)).st_mtime_ns for n in cached}
    assert all(fresh[n] != stamps[n] for n in cached)


def test_a_file_that_is_not_a_frame_leaves_a_rerun_warm(tmp_path):
    """The descriptor key hashes the frames the flow reads, and nothing else."""
    config = _frame_dir_config(tmp_path)
    pipeline.run_pipeline(config)
    out = config.output_dir

    def stamps():
        return {name: os.stat(os.path.join(out, name)).st_mtime_ns for name in _tree(out)}

    before, written = _tree(out), stamps()
    frame_dir = tmp_path / "corpus" / "c0v0"
    (frame_dir / "README").write_text("three frames of a moving square\n")
    (frame_dir / "thumbnail.png").write_bytes(b"\x89PNG\r\n")
    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    assert audit_log == []  # nothing refit
    assert stamps() == written  # no descriptor, key, model or report rewritten
    assert _tree(out) == before


def test_descriptor_cache_from_before_arr1_is_described_again(tmp_path):
    """FDS1 descriptors under the keys that named no container are replaced, not read."""
    config = _frame_dir_config(tmp_path)
    fresh = dataclasses.replace(config, output_dir=str(tmp_path / "fresh"))
    pipeline.run_pipeline(fresh)
    base = os.path.dirname(config.manifest)
    flow_cfg = json.dumps(pipeline._section(config, "flow"), sort_keys=True)
    desc_dir = tmp_path / "out" / "descriptors"
    os.makedirs(desc_dir)
    for entry in corpus.load_manifest(config.manifest).entries:
        data = corpus.read_sequence(os.path.join(fresh.output_dir, "descriptors",
                                                 f"{entry.video_id}.fds")).data
        (desc_dir / f"{entry.video_id}.fds").write_bytes(
            b"FDS1" + np.array(data.shape, "<u4").tobytes() + data.tobytes())
        key = pipeline._digest("desc", flow_cfg,
                               pipeline._source_digest(os.path.join(base, entry.path)))
        (desc_dir / f"{entry.video_id}.fds.key").write_text(key + "\n")
    pipeline.run_pipeline(config)
    assert _tree(config.output_dir) == _tree(fresh.output_dir)


def test_descriptor_cache_from_float64_flow_is_described_again(tmp_path, monkeypatch):
    """An output directory keyed before the descriptor key named the flow's precision is
    described again, and every fold refits through the chained keys, to a clean run's bytes."""
    config = _frame_dir_config(tmp_path)
    fresh = dataclasses.replace(config, output_dir=str(tmp_path / "fresh"))
    pipeline.run_pipeline(fresh)
    real_digest = pipeline._digest

    def float64_digest(*parts, framed=b""):  # the descriptor key without its precision part
        if parts[0] == "desc":
            parts = tuple(part for part in parts if part != flow.FLOW_DTYPE.str)
        return real_digest(*parts, framed=framed)

    with monkeypatch.context() as patch:  # a cold run keyed as float64 flow keyed it
        patch.setattr(pipeline, "_digest", float64_digest)
        pipeline.run_pipeline(config)
    base = os.path.dirname(config.manifest)
    flow_cfg = json.dumps(pipeline._section(config, "flow"), sort_keys=True)
    entries = corpus.load_manifest(config.manifest).entries
    for entry in entries:
        key_path = tmp_path / "out" / "descriptors" / f"{entry.video_id}.fds.key"
        assert key_path.read_text() == pipeline._digest(
            "desc", arrays.MAGIC, flow_cfg,
            pipeline._source_digest(os.path.join(base, entry.path))) + "\n"
    described = []
    real_describe = pipeline.frames_to_sequence

    @functools.wraps(real_describe)
    def counted_describe(frame_dir, **flow_params):  # wrapped, so the run forks no worker
        described.append(os.path.relpath(frame_dir, base))
        return real_describe(frame_dir, **flow_params)

    monkeypatch.setattr(pipeline, "frames_to_sequence", counted_describe)
    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    assert sorted(described) == sorted(entry.path for entry in entries)
    assert sorted({(stage, fold) for stage, fold, _ in audit_log}) == sorted(
        (stage, fold) for stage in ("pca", "cnn", "gamma", "svm") for fold in range(len(entries)))
    assert _tree(config.output_dir) == _tree(fresh.output_dir)


def test_held_out_length_does_not_shape_training(tmp_path):
    manifest, sequences, _ = corpus.generate_synthetic_corpus(
        classes=2, per_class=2, channels=3, min_len=16, max_len=20, seed=5
    )
    held_out = manifest.video_ids()[0]  # LOOCV fold 0 tests the first video
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    outputs = []
    for extra in (0, 12):  # 12 more frames make it longer than every training video
        seq = sequences[held_out]
        lengthened = {**sequences, held_out: corpus.DescriptorSequence(
            np.concatenate([seq.data, seq.data[:extra]]))}
        manifest_path = corpus.save_corpus(manifest, lengthened, tmp_path / f"corpus{extra}")
        config = _mini_config(manifest_path, tmp_path / f"out{extra}", arch_path)
        pipeline.run_pipeline(config)
        data = arrays.load(os.path.join(config.output_dir, "fold_000", "model.cnn.arrays"))
        outputs.append((data["loss"], data["features"][:-1]))
    (loss, train_rows), (loss_long, train_rows_long) = outputs
    assert np.array_equal(loss, loss_long)
    assert np.array_equal(train_rows, train_rows_long)


# ---------------------------------------------------------------------------
# Forked workers
# ---------------------------------------------------------------------------

def test_two_workers_write_what_one_writes(tmp_path, monkeypatch):
    config = _frame_dir_config(tmp_path)
    runs = []
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        out = dataclasses.replace(config, output_dir=str(tmp_path / f"out{workers}"))
        audit_log = oracles.fit_calls(pipeline.run_pipeline(out))
        runs.append((audit_log, _tree(out.output_dir)))
    (audit_one, files_one), (audit_two, files_two) = runs
    assert audit_one and audit_two == audit_one
    assert len(files_one) == 4 * 2 + 4 * 8 + 5  # descriptors, fold artifacts, reports
    assert files_two == files_one


@pytest.mark.filterwarnings("ignore:series .* truncated")  # a test video longer than training's
def test_two_folds_on_the_light_path_write_what_one_worker_writes(tmp_path, monkeypatch):
    manifest_path = _mini_corpus(tmp_path / "corpus")
    manifest = corpus.load_manifest(manifest_path)
    entries = tuple(dataclasses.replace(e, split_id=int(e.video_id[-1])) for e in manifest.entries)
    corpus.save_manifest(corpus.Manifest(entries=entries), manifest_path)
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)

    runs = []
    for count in (1, 2):
        _use_workers(monkeypatch, count)
        out = tmp_path / f"out{count}"
        result = pipeline.run_pipeline(_mini_config(manifest_path, out, arch_path, split="fixed"))
        runs.append((oracles.fit_calls(result), _tree(out)))
    (audit_one, files_one), (audit_two, files_two) = runs
    assert [fold for _, fold, _ in audit_two] == [0] * 4 + [1] * 4
    assert audit_two == audit_one and files_two == files_one


def test_warm_rerun_starts_no_worker(tmp_path, monkeypatch):
    config = _frame_dir_config(tmp_path)
    _use_workers(monkeypatch, 2)
    forks = record_forks(monkeypatch, tmp_path / "forks")
    pipeline.run_pipeline(config)
    assert forks() == [os.getpid()] * 2  # the descriptors, then the folds
    os.remove(tmp_path / "forks")
    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    assert forks() == [] and audit_log == []


def test_a_partly_warm_run_forks_every_fold_and_refits_only_the_missing(
        mini_run, tmp_path, monkeypatch):
    config = _copy_run(mini_run, tmp_path)
    for fold in (1, 3):
        shutil.rmtree(os.path.join(config.output_dir, f"fold_{fold:03d}"))
    _use_workers(monkeypatch, 2)
    forks = record_forks(monkeypatch, tmp_path / "forks")
    ran, real_fold = tmp_path / "ran", pipeline._run_fold

    def run_fold(config, fold_index, *args):
        with open(ran, "a") as fh:
            fh.write(f"{fold_index} {os.getpid()}\n")
        return real_fold(config, fold_index, *args)

    monkeypatch.setattr(pipeline, "_run_fold", run_fold)
    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    assert forks() == [os.getpid()]
    folds = dict(line.split() for line in ran.read_text().splitlines())
    assert sorted(folds) == ["0", "1", "2", "3"]  # the hit folds 0 and 2 are read in a worker too
    assert str(os.getpid()) not in folds.values()
    assert audit_log == [call for call in mini_run.audit if call[1] in (1, 3)]
    assert _read_reports(config.output_dir) == mini_run.reports


def test_a_partly_warm_run_raises_the_lowest_failed_fold(mini_run, tmp_path, monkeypatch):
    config = _copy_run(mini_run, tmp_path)
    corrupt = os.path.join(config.output_dir, "fold_000", "model.svm.arrays")
    with open(corrupt, "r+b") as fh:
        fh.truncate(os.path.getsize(corrupt) - 1)
    shutil.rmtree(os.path.join(config.output_dir, "fold_001"))

    def explode(*args, **kwargs):
        raise ValueError("fold 1 fails too")

    _use_workers(monkeypatch, 2)
    monkeypatch.setattr(pca, "fit", explode)  # fold 1's first fit, so it may fail first
    with pytest.raises(StageError) as info:
        pipeline.run_pipeline(config)
    assert (info.value.stage, info.value.fold) == ("svm", 0)
    assert str(info.value).startswith("fold 0, stage svm:") and "truncated" in str(info.value)
    assert isinstance(info.value.__cause__, DataFormatError)
    # fold 1 ran (its directory is made first) and failed in PCA, before writing anything
    assert os.listdir(os.path.join(config.output_dir, "fold_001")) == []


def test_worker_count_is_capped_and_one_while_a_stage_function_is_wrapped(monkeypatch):
    usable_cpus(monkeypatch, 8)
    assert [workers._worker_count(n) for n in (1, 2, 60)] == [1, 2, 2]
    monkeypatch.setattr(workers, "_blas_threads", lambda: None)
    assert workers._worker_count(60) == 1
    usable_cpus(monkeypatch, 8, blas_threads=2)  # not held at one thread
    assert workers._worker_count(60) == 1

    usable_cpus(monkeypatch, 8)
    for module, name in ((pca, "fit"), (pipeline, "frames_to_sequence"), (svm, "predict_batch")):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, functools.wraps(getattr(module, name))(lambda: None))
            assert workers._worker_count(60) == 1
    assert workers._worker_count(60) == 2


def test_wrapped_fits_are_seen_when_every_fold_misses(mini_run, tmp_path, monkeypatch):
    """A wrapper that counts fits, as a warm run's refit check does, sees forked-size misses."""
    usable_cpus(monkeypatch, 2)
    config = _copy_run(mini_run, tmp_path, c_box=0.5)  # every fold's SVM stage misses
    fits = []
    real_fit = svm.fit

    @functools.wraps(real_fit)
    def counted_fit(*args, **kwargs):
        fits.append(os.getpid())
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(svm, "fit", counted_fit)
    pipeline.run_pipeline(config)
    assert fits == [os.getpid()] * len(mini_run.result.fold_results)


def _blas_threads_or_skip():
    threads = workers._blas_threads()
    if threads is None or not os.path.isdir("/proc/self/task"):
        pytest.skip("needs the OpenBLAS thread-count functions and /proc")
    return threads


def _threads_after_blas_work():
    """This process's id, OS thread count and OpenBLAS thread count, after a GEMM."""
    np.ones((256, 256)) @ np.ones((256, 256))
    return os.getpid(), len(os.listdir("/proc/self/task")), workers._blas_threads()[0]()


def test_forked_workers_inherit_one_blas_thread_and_start_none(monkeypatch):
    _blas_threads_or_skip()
    _use_workers(monkeypatch, 2)
    with workers.one_blas_thread():
        seen = list(workers.fork_map({task: _threads_after_blas_work
                                      for task in range(4)}).values())
    assert os.getpid() not in {pid for pid, _, _ in seen}
    assert [(os_threads, blas) for _, os_threads, blas in seen] == [(1, 1)] * 4


def test_run_pipeline_holds_one_blas_thread_and_restores_the_count(mini_run, tmp_path,
                                                                  monkeypatch):
    get, set_threads = _blas_threads_or_skip()
    _use_workers(monkeypatch, 1)  # fits run here, where the wrapped fit reads the count
    counts, real_fit = [], svm.fit

    def counted_fit(*args, **kwargs):  # the SVM stage is the one that refits
        counts.append(get())
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(svm, "fit", counted_fit)
    original = get()
    set_threads(2)
    try:
        pipeline.run_pipeline(_copy_run(mini_run, tmp_path, c_box=0.5))
        assert counts and set(counts) == {1}
        assert get() == 2

        def explode(*args, **kwargs):
            raise ConvergenceError("SMO not converged")

        monkeypatch.setattr(svm, "fit", explode)
        with pytest.raises(StageError):
            pipeline.run_pipeline(_copy_run(mini_run, tmp_path / "failing", c_box=0.25))
        assert set(counts) == {1} and get() == 2
    finally:
        set_threads(original)


def test_identical_videos_classify_perfectly(tmp_path):
    rows_a = np.zeros((12, 6), dtype=np.float32)
    rows_a[:6] = 5.0
    rows_b = np.zeros((12, 6), dtype=np.float32)
    rows_b[6:] = 5.0
    entries = []
    sequences = {}
    for c, rows in enumerate((rows_a, rows_b)):
        for v in range(3):
            vid = f"c{c}v{v}"
            entries.append(
                corpus.ManifestEntry(video_id=vid, label=f"class{c}", path=f"{vid}.fds")
            )
            sequences[vid] = corpus.DescriptorSequence(rows)
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


def test_forked_failure_raises_fold_0_and_starts_no_new_fold(mini_run, tmp_path, monkeypatch,
                                                             capsys):
    def explode(*args, **kwargs):
        raise ConvergenceError("SMO not converged")

    _use_workers(monkeypatch, 2)
    monkeypatch.setattr(svm, "fit", explode)
    config = dataclasses.replace(mini_run.config, output_dir=str(tmp_path / "out"))
    with pytest.raises(StageError) as info:
        pipeline.run_pipeline(config)
    assert (info.value.stage, info.value.fold) == ("svm", 0)
    assert isinstance(info.value.__cause__, ConvergenceError)
    # folds 0 and 1 started together; once one failed, folds 2 and 3 never started (a fold
    # makes its directory first), and fold 1 ran on to its own SVM failure
    assert sorted(os.listdir(config.output_dir)) == ["fold_000", "fold_001"]
    assert [_has_key(config.output_dir, 1, stage) for stage in ("pca", "cnn", "svm")] == [
        True, True, False]

    assert cli.main(["run", "--config", _write_config(config, tmp_path / "c.json")]) == 3
    assert "fold 0, stage svm: SMO not converged" in capsys.readouterr().err


def test_a_killed_fold_worker_fails_its_fold_and_a_rerun_fits_what_is_missing(
        mini_run, tmp_path, monkeypatch, capsys):
    config = dataclasses.replace(mini_run.config, output_dir=str(tmp_path / "out"))
    config_path = _write_config(config, tmp_path / "c.json")
    usable_cpus(monkeypatch, 2)
    parent, real = os.getpid(), cnn._forward_batch

    def forward_or_die(*args, **kwargs):
        if os.getpid() != parent:  # in each fold worker, at its first forward pass
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cnn, "_forward_batch", forward_or_die)
        assert cli.main(["run", "--config", config_path]) == 2
    assert capsys.readouterr().err == ("error: fold 0, stage worker: a worker process ended "
                                       "without a result (killed by SIGKILL)\n")
    missing = {(stage, fold) for fold in range(len(mini_run.result.fold_results))
               for stage in ("pca", "cnn", "svm")
               if not os.path.exists(os.path.join(config.output_dir, f"fold_{fold:03d}",
                                                  f"model.{stage}.key"))}
    assert ("pca", 0) not in missing and ("cnn", 0) in missing  # fold 0 died in its CNN stage

    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    refit = {("svm" if stage == "gamma" else stage, fold) for stage, fold, _ in audit_log}
    assert refit == missing
    assert _read_reports(config.output_dir) == mini_run.reports


def test_a_dead_worker_fails_its_own_fold_while_the_running_one_finishes(
        mini_run, tmp_path, monkeypatch, capsys):
    config = dataclasses.replace(mini_run.config, output_dir=str(tmp_path / "out"))
    config_path = _write_config(config, tmp_path / "c.json")
    usable_cpus(monkeypatch, 2)
    died = tmp_path / "died"
    real_fold, real_forward = pipeline._run_fold, cnn._forward_batch
    folds = []  # in a worker: the folds it has run

    def run_fold(config, fold_index, *args):
        folds.append(fold_index)
        return real_fold(config, fold_index, *args)

    def forward(*args, **kwargs):
        if folds[-1:] == [1]:  # fold 1's worker dies in its CNN stage
            died.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        if folds[-1:] == [0]:  # fold 0 trains on until then
            deadline = time.monotonic() + 30
            while not died.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        return real_forward(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_run_fold", run_fold)
        patch.setattr(cnn, "_forward_batch", forward)
        assert cli.main(["run", "--config", config_path]) == 2
    assert capsys.readouterr().err == ("error: fold 1, stage worker: a worker process ended "
                                       "without a result (killed by SIGKILL)\n")
    missing = {(stage, fold) for fold in range(len(mini_run.result.fold_results))
               for stage in ("pca", "cnn", "svm")
               if not os.path.exists(os.path.join(config.output_dir, f"fold_{fold:03d}",
                                                  f"model.{stage}.key"))}
    assert all(fold != 0 for _, fold in missing)  # fold 0 finished
    assert ("pca", 1) not in missing and ("cnn", 1) in missing

    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    refit = {("svm" if stage == "gamma" else stage, fold) for stage, fold, _ in audit_log}
    assert refit == missing
    assert _read_reports(config.output_dir) == mini_run.reports


def _raised(call):
    """The exception ``call`` raises."""
    try:
        call()
    except Exception as exc:
        return exc
    raise AssertionError(f"{call} raised nothing")


@pytest.mark.parametrize("cause", [
    None,
    ConvergenceError("SMO not converged"),
    DataFormatError("bad magic"),
    FileNotFoundError(2, "No such file or directory"),
    UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
    # numpy builds these from more than a message: a ufunc and its dtypes, a shape and
    # a dtype (it raises the MemoryError before it allocates anything)
    _raised(lambda: np.add(np.array(["a"]), 1)),
    _raised(lambda: np.empty(10**16)),
], ids=lambda cause: type(cause).__name__)
def test_stage_error_survives_pickling(cause):
    error = StageError("svm", 3, "x")
    error.__cause__ = cause
    back = pickle.loads(pickle.dumps(error))
    assert (back.stage, back.fold, back.message) == ("svm", 3, "x")
    assert str(back) == "fold 3, stage svm: x"
    if cause is None:
        assert back.__cause__ is None
    else:
        assert type(back.__cause__) is type(cause)
        assert back.__cause__.args == cause.args


@pytest.mark.parametrize("name, arrays, message", [
    # a CNN cache in the older format (network weights, no features)
    ("model.cnn.arrays", {"loss": np.ones(6)}, "no array 'features'"),
    ("model.cnn.arrays", {"features": np.ones((3, 8)), "loss": np.ones(6)}, "array 'features'"),
    ("model.svm.arrays", {"predicted": np.array([0.0])}, "array 'predicted'"),
    ("model.svm.arrays", {"predicted": np.array([-1])}, "not label indices"),
    # the written output's bytes, edited: an .npz archive's magic, and a cut-off file
    pytest.param("model.cnn.arrays", lambda blob: b"PK\x03\x04" + blob[4:], "bad magic",
                 id="model.cnn.arrays-npz-magic"),
    pytest.param("model.svm.arrays", lambda blob: blob[:-1], "truncated",
                 id="model.svm.arrays-cut-short"),
])
def test_stage_outputs_are_checked_on_read(mini_run, tmp_path, capsys, name, arrays, message):
    config = _copy_run(mini_run, tmp_path)
    path = tmp_path / "out" / "fold_000" / name
    if callable(arrays):
        path.write_bytes(arrays(path.read_bytes()))
    else:
        pipeline.arrays.write(path, **arrays)  # the parameter hides the module
    with pytest.raises(StageError) as info:
        pipeline.run_pipeline(config)
    assert (info.value.stage, info.value.fold) == (name.split(".")[1], 0)
    assert isinstance(info.value.__cause__, DataFormatError)
    assert message in str(info.value)

    assert cli.main(["run", "--config", _write_config(config, tmp_path / "config.json")]) == 2
    assert message in capsys.readouterr().err


def test_stage_output_layout_is_pinned(tmp_path):
    path = tmp_path / "tiny.arrays"
    arrays.write(path, loss=np.array([1.5]), predicted=np.array([[2], [-1]]))
    assert path.read_bytes() == (
        b"ARR1" b"\x02\x00\x00\x00"  # magic, array count
        b"\x04\x00\x00\x00" b"loss" b"<f8"  # name length, name, kind
        b"\x01\x00\x00\x00" b"\x01\x00\x00\x00"  # ndim, shape
        b"\x00\x00\x00\x00\x00\x00\xf8\x3f"  # 1.5
        b"\x09\x00\x00\x00" b"predicted" b"<i8"
        b"\x02\x00\x00\x00" b"\x02\x00\x00\x00" b"\x01\x00\x00\x00"
        b"\x02\x00\x00\x00\x00\x00\x00\x00" b"\xff\xff\xff\xff\xff\xff\xff\xff"  # 2, -1
    )
    stored = arrays.load(path)
    assert list(stored) == ["loss", "predicted"]
    assert stored["loss"].dtype == np.float64 and stored["loss"].tolist() == [1.5]
    assert stored["predicted"].dtype == np.int64 and stored["predicted"].tolist() == [[2], [-1]]


def _crash_after_svm_writes(config, monkeypatch):
    """Run with other SVM settings, every stage-output write raising after it wrote."""
    real_write = arrays.write

    def write_then_crash(*args, **kwargs):
        real_write(*args, **kwargs)
        raise OSError("interrupted after the write")

    monkeypatch.setattr(arrays, "write", write_then_crash)
    with pytest.raises(StageError, match="fold 0, stage svm"):
        pipeline.run_pipeline(dataclasses.replace(config, c_box=0.01, gamma=50.0))
    monkeypatch.setattr(arrays, "write", real_write)


def test_interrupted_write_is_not_a_cache_hit(mini_run, tmp_path, monkeypatch):
    _use_workers(monkeypatch, 1)
    config = _copy_run(mini_run, tmp_path)
    _crash_after_svm_writes(config, monkeypatch)

    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    assert {(stage, fold) for stage, fold, _ in audit_log} == {("gamma", 0), ("svm", 0)}
    assert _read_reports(config.output_dir) == mini_run.reports


def test_interrupted_forked_writes_are_not_cache_hits(mini_run, tmp_path, monkeypatch):
    _use_workers(monkeypatch, 2)
    config = _copy_run(mini_run, tmp_path)
    _crash_after_svm_writes(config, monkeypatch)
    crashed = {fold for fold in range(len(mini_run.result.fold_results))
               if not _has_key(config.output_dir, fold, "svm")}
    assert crashed == {0, 1}  # both workers' folds wrote, then crashed

    audit_log = oracles.fit_calls(pipeline.run_pipeline(config))
    assert {(stage, fold) for stage, fold, _ in audit_log} == {
        (stage, fold) for fold in crashed for stage in ("gamma", "svm")
    }
    assert _read_reports(config.output_dir) == mini_run.reports


def _killed_at_mutation(argv, k) -> bool:
    """Run ``motionpipe argv`` in a forked child on one worker, SIGKILLed at its k-th
    mutation point; returns whether the kill came, and a child that outlives it exits 0.

    A mutation point lies just before and just after each write-mode ``open``,
    ``os.replace`` and ``os.remove``.
    """
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            workers._MAX_WORKERS = 1
            points = itertools.count()
            sink = open(os.devnull, "w")

            def point():
                if next(points) == k:
                    os.kill(os.getpid(), signal.SIGKILL)

            def counted(fn, mutates=lambda *args, **kwargs: True):
                def call(*args, **kwargs):
                    if not mutates(*args, **kwargs):
                        return fn(*args, **kwargs)
                    point()
                    result = fn(*args, **kwargs)
                    point()
                    return result
                return call

            builtins.open = counted(builtins.open, lambda file, mode="r", *args, **kwargs:
                                    bool(set(mode) & set("wax+")))
            os.replace, os.remove = counted(os.replace), counted(os.remove)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        assert os.WTERMSIG(status) == signal.SIGKILL
        return True
    assert os.WEXITSTATUS(status) == 0
    return False


def _digests(out_dir):
    return {path: hashlib.sha256(data).hexdigest() for path, data in _tree(out_dir).items()}


def test_a_run_killed_at_any_mutation_point_resumes_to_the_same_bytes(tmp_path):
    # 12 .fds videos and 2 frame directories, whose descriptors the run caches, in 2 folds
    rng = np.random.default_rng(10)
    entries = []
    for v in range(14):
        vid, path = f"v{v:02d}", tmp_path / "corpus" / f"v{v:02d}"
        if v < 12:
            path = path.with_suffix(".fds")
            os.makedirs(path.parent, exist_ok=True)
            data = rng.normal(size=(int(rng.integers(6, 9)), oracles.descriptor_width(2, 4)))
            corpus.write_sequence(corpus.DescriptorSequence(data + v % 2), path)
        else:
            _write_square_frames(path, ["a.pgm", "b.pgm", "c.pgm"])
        entries.append(corpus.ManifestEntry(vid, f"c{v % 2}", str(path), v // 2 % 2))
    manifest_path = tmp_path / "corpus" / "manifest.json"
    corpus.save_manifest(corpus.Manifest(entries=tuple(entries)), manifest_path)
    (tmp_path / "arch.txt").write_text("conv 3 4 1\nrelu\nfc 4\nrelu\nsoftmax 2\n")
    argv = {}
    for name in ("clean", "out"):
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps({
            "manifest": str(manifest_path), "output_dir": str(tmp_path / name),
            "split": "fixed", "flow": {"iterations": 5, "grid": 2, "bins": 4},
            "cnn": {"architecture": str(tmp_path / "arch.txt"), "epochs": 1},
        }))
        argv[name] = ["run", "--config", str(config_path)]
    assert cli.main(argv["clean"]) == 0
    clean = _digests(tmp_path / "clean")

    for k in itertools.count():
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        if not _killed_at_mutation(argv["out"], k):
            break
        assert cli.main(argv["out"]) == 0, k
        assert _digests(tmp_path / "out") == clean, k  # no stray, missing or other file
    assert _digests(tmp_path / "out") == clean
    assert k > 2 * len(clean)  # a write and a rename per file, a point before and after each


# Runs motionpipe with its arguments on two forked workers, on any machine.
_TWO_WORKERS = """
import sys
from motionpipe import cli, workers
workers._blas_threads = lambda: (lambda: 1, lambda threads: None)
workers.os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(sys.argv[1:]))
"""


def _live_members(group) -> list:
    """The processes of process group ``group`` that have not ended, zombies aside."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError):  # it ended meanwhile
            with open(f"/proc/{pid}/stat") as fh:
                state, _, pgrp = fh.read().rpartition(")")[2].split()[:3]
            if int(pgrp) == group and state != "Z":
                members.append(int(pid))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process groups from /proc")
def test_a_run_killed_while_two_workers_run_resumes_to_the_same_bytes(tmp_path):
    manifest, sequences, _ = corpus.generate_synthetic_corpus(
        classes=2, per_class=5, channels=3, min_len=16, max_len=20, seed=5)
    manifest_path = corpus.save_corpus(manifest, sequences, tmp_path / "corpus")
    (tmp_path / "arch.txt").write_text(MINI_ARCH)
    argv = {}
    for name in ("clean", "out"):
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps({
            "manifest": str(manifest_path), "output_dir": str(tmp_path / name),
            "pca": {"pov_threshold": 0.95},
            "cnn": {"architecture": str(tmp_path / "arch.txt"), "epochs": 30, "batch_size": 4},
        }))
        argv[name] = ["run", "--config", str(config_path)]
    assert cli.main(argv["clean"]) == 0
    clean = _digests(tmp_path / "clean")

    out = tmp_path / "out"

    def completed():  # the folds whose last stage has its key
        return sum(os.path.exists(out / f"fold_{k:03d}" / "model.svm.key")
                   for k in range(len(manifest)))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    stderr = tmp_path / "stderr.txt"  # the group's: run's and its workers'
    with open(stderr, "wb") as err:
        child = subprocess.Popen([sys.executable, "-c", _TWO_WORKERS, *argv["out"]], env=env,
                                 stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(out / "fold_001" / "model.pca.key"):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.001)
        assert len(_live_members(child.pid)) == 3  # run and its two workers
        os.kill(child.pid, signal.SIGKILL)
        assert child.wait(timeout=30) == -signal.SIGKILL
        at_kill = completed()
        while _live_members(child.pid):  # each worker ends after its running fold
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert b"Traceback" not in stderr.read_bytes()  # an orphaned worker exits quietly
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
    assert at_kill <= completed() <= at_kill + 2 < len(manifest)

    assert cli.main(argv["out"]) == 0
    assert _digests(out) == clean


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
    sequences = {}
    # two labels, each on two videos, so every LOOCV fold can train
    for vid, label, dim in (("a", "x", 3), ("b", "y", 3), ("c", "x", 4), ("d", "y", 4)):
        entries.append(corpus.ManifestEntry(video_id=vid, label=label, path=f"{vid}.fds"))
        sequences[vid] = corpus.DescriptorSequence(np.ones((4, dim), dtype=np.float32))
    manifest_path = corpus.save_corpus(
        corpus.Manifest(entries=tuple(entries)), sequences, tmp_path / "corpus"
    )
    config = pipeline.PipelineConfig(manifest=str(manifest_path), output_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="descriptor dimensions differ"):
        pipeline.run_pipeline(config)
