import json
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from motionpipe import arrays, cli, cnn, corpus, flow, pca, pipeline, svm, workers
from motionpipe.errors import ConvergenceError, DataFormatError

import oracles
from test_workers import record_forks, usable_cpus

MINI_ARCH = "conv 3 4 1\nrelu\nmax 2 2\nfc 8\nrelu\nsoftmax 2\n"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_frames(frame_dir, count=3, size=16):
    os.makedirs(frame_dir, exist_ok=True)
    for shift in range(count):
        img = np.full((size, size), 0.2)
        img[4:9, 3 + shift : 8 + shift] = 0.9
        flow.write_pgm(flow.Frame(intensity=img), os.path.join(frame_dir, f"f{shift}.pgm"))


def _frame_corpus(root, videos=8, frames=5, splits=0):
    """A manifest of ``videos`` directories of 12 x 12 PGM frames in two classes.

    A block moves one pixel a frame in class c0 and two in c1; with
    ``splits``, each class's videos get round-robin split ids.
    """
    entries = []
    for v in range(videos):
        vid = f"v{v}"
        os.makedirs(os.path.join(root, vid))
        for k in range(frames):
            img = np.full((12, 12), 0.2)
            col = k * (1 + v % 2)
            img[2 + v % 4 : 6 + v % 4, col : col + 4] = 0.9
            flow.write_pgm(flow.Frame(intensity=img), os.path.join(root, vid, f"f{k}.pgm"))
        entries.append(corpus.ManifestEntry(video_id=vid, label=f"c{v % 2}", path=vid,
                                            split_id=v // 2 % splits if splits else None))
    path = os.path.join(root, "manifest.json")
    corpus.save_manifest(corpus.Manifest(entries=tuple(entries)), path)
    return path


def _synth(capsys, out_dir, **extra):
    argv = [
        "synth", "--out", str(out_dir), "--classes", "2", "--per-class", "2",
        "--channels", "3", "--min-len", "16", "--max-len", "20", "--seed", "5",
    ]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return os.path.join(str(out_dir), "manifest.json")


# ---------------------------------------------------------------------------
# Corpus and flow commands
# ---------------------------------------------------------------------------

def test_synth_writes_corpus(tmp_path, capsys):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    manifest = corpus.load_manifest(manifest_path)
    assert len(manifest) == 4
    for entry in manifest.entries:
        assert os.path.exists(tmp_path / "corpus" / entry.path)
        assert entry.split_id is None


def test_synth_assigns_round_robin_splits(tmp_path, capsys):
    manifest_path = _synth(capsys, tmp_path / "corpus", splits=2)
    manifest = corpus.load_manifest(manifest_path)
    by_label: dict[str, list] = {}
    for entry in manifest.entries:
        by_label.setdefault(entry.label, []).append(entry.split_id)
    for splits in by_label.values():
        assert sorted(splits) == [0, 1]


def test_flow_command_writes_descriptors(tmp_path, capsys):
    _write_frames(tmp_path / "frames")
    out_path = tmp_path / "clip.fds"
    code, out, _ = _run(
        capsys, "flow", "--frames", str(tmp_path / "frames"), "--out", str(out_path),
        "--flow.iterations", "20", "--flow.grid", "2", "--flow.bins", "4",
    )
    assert code == 0
    assert "wrote 2 descriptors of dimension 28" in out
    seq = corpus.read_sequence(out_path)
    assert seq.data.shape == (2, oracles.descriptor_width(2, 4))


# ---------------------------------------------------------------------------
# Stage-by-stage chain
# ---------------------------------------------------------------------------

def test_stage_chain_round_trips(tmp_path, capsys):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    manifest = corpus.load_manifest(manifest_path)
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    pca_path = str(tmp_path / "model.pca")
    cnn_path = str(tmp_path / "model.cnn")
    svm_path = str(tmp_path / "model.svm")
    features_path = str(tmp_path / "features.csv")
    predictions_path = str(tmp_path / "predictions.csv")

    code, out, _ = _run(capsys, "pca-fit", "--manifest", manifest_path,
                        "--out", pca_path, "--pca.pov_threshold", "0.95")
    assert code == 0 and "retained" in out

    first = manifest.entries[0]
    projected_path = str(tmp_path / "proj.fds")
    code, out, _ = _run(capsys, "project", "--model", pca_path,
                        "--input", os.path.join(str(tmp_path / "corpus"), first.path),
                        "--out", projected_path)
    assert code == 0
    model = pca.load_model(pca_path)
    source = corpus.read_sequence(os.path.join(str(tmp_path / "corpus"), first.path))
    series = pca.transform(model, source.data)
    back = corpus.read_sequence(projected_path)
    assert np.array_equal(back.data, series.T.astype(np.float32))

    code, out, _ = _run(capsys, "train", "--manifest", manifest_path, "--pca", pca_path,
                        "--out", cnn_path, "--cnn.architecture", str(arch_path),
                        "--cnn.epochs", "6", "--cnn.batch_size", "4",
                        "--cnn.learning_rate", "0.05")
    assert code == 0 and "trained 6 epochs" in out

    code, out, _ = _run(capsys, "extract", "--manifest", manifest_path, "--pca", pca_path,
                        "--cnn", cnn_path, "--out", features_path)
    assert code == 0
    ids, labels, matrix = cli.read_features_csv(features_path)
    assert ids == manifest.video_ids()
    assert labels == [manifest.entry(v).label for v in ids]
    assert matrix.shape[0] == 4
    assert np.all(matrix >= 0.0)  # network features feed a chi-squared kernel

    code, out, _ = _run(capsys, "svm-fit", "--features", features_path, "--out", svm_path)
    assert code == 0 and "trained 2 machines" in out

    code, out, _ = _run(capsys, "predict", "--model", svm_path,
                        "--features", features_path, "--out", predictions_path)
    assert code == 0 and "wrote 4 predictions" in out
    model = svm.load_model(svm_path)
    expected = svm.predict_batch(model, matrix)
    rows = [line.split(",") for line in open(predictions_path).read().splitlines()[1:]]
    assert [r[0] for r in rows] == ids
    assert [r[2] for r in rows] == list(expected)

    eval_dir = str(tmp_path / "eval")
    code, out, _ = _run(capsys, "eval", "--predictions", predictions_path,
                        "--out-dir", eval_dir)
    assert code == 0
    accuracy = float(out.splitlines()[0].split()[1])
    agree = sum(1 for r in rows if r[1] == r[2])
    assert accuracy == pytest.approx(agree / len(rows))
    assert os.path.exists(os.path.join(eval_dir, "confusion.csv"))
    assert os.path.exists(os.path.join(eval_dir, "confusion.txt"))


def test_extract_fits_videos_to_the_network_input(tmp_path, capsys):
    manifest_path = _synth(capsys, tmp_path / "corpus")  # 17 to 20 frames
    manifest = corpus.load_manifest(manifest_path)
    sequences = {
        e.video_id: corpus.read_sequence(tmp_path / "corpus" / e.path) for e in manifest.entries
    }
    pca_path = str(tmp_path / "model.pca")
    cnn_path = str(tmp_path / "model.cnn")
    features_path = str(tmp_path / "features.csv")
    assert _run(capsys, "pca-fit", "--manifest", manifest_path, "--out", pca_path)[0] == 0
    model = pca.load_model(pca_path)
    length = max(seq.frames for seq in sequences.values()) - 1
    spec = cnn.NetworkSpec(input_channels=model.channels, input_length=length,
                           layers=cnn.parse_architecture(MINI_ARCH))
    cnn.save_model(spec, cnn.init_state(spec, np.random.default_rng(0)), cnn_path)

    with pytest.warns(UserWarning, match="truncated") as record:
        code, _, err = _run(capsys, "extract", "--manifest", manifest_path, "--pca", pca_path,
                            "--cnn", cnn_path, "--out", features_path)
    assert code == 0, err
    longer = [vid for vid, seq in sequences.items() if seq.frames > length]
    assert len(longer) == 1
    assert [str(w.message) for w in record] == [
        f"series {longer[0]!r} truncated from {length + 1} to {length} frames"
    ]

    spec, params = cnn.load_model(cnn_path)
    ids = manifest.video_ids()
    per_video = np.stack([
        oracles.align_to_length(pca.transform(model, sequences[vid].data), length)
        for vid in ids
    ])
    _, _, features = cli.read_features_csv(features_path)
    assert np.abs(features - cnn.extract_features(spec, params, per_video)).max() <= 1e-12


def test_an_overflowing_projection_exits_2_with_one_error_line(tmp_path, capsys):
    # load_model accepts any finite components; these overflow float64 in
    # every product, and a warning would be an error here
    manifest_path = _synth(capsys, tmp_path / "corpus")
    first = corpus.load_manifest(manifest_path).entries[0]
    pca_path = str(tmp_path / "model.pca")
    cnn_path = str(tmp_path / "model.cnn")
    pca.save_model(pca.PcaModel(mean=np.full(3, -10.0), eigenvalues=np.zeros(3),
                                components=np.full((1, 3), 1e308), pov_achieved=1.0), pca_path)
    spec = cnn.NetworkSpec(input_channels=1, input_length=20,
                           layers=cnn.parse_architecture(MINI_ARCH))
    cnn.save_model(spec, cnn.init_state(spec, np.random.default_rng(0)), cnn_path)
    calls = {
        "project": ["--model", pca_path, "--input", str(tmp_path / "corpus" / first.path)],
        "extract": ["--manifest", manifest_path, "--pca", pca_path, "--cnn", cnn_path],
    }
    for command, argv in calls.items():
        out_path = tmp_path / f"{command}.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, command, *argv, "--out", str(out_path))
        assert (code, out, err) == (2, "", "error: projected values must be finite\n")
        assert not out_path.exists()


def test_a_model_file_in_an_older_format_exits_2_with_one_error_line(tmp_path, capsys):
    """PCA1, CNN1, SVM1 and FDS1 files, the formats before ARR1 files, are bad magic."""
    manifest_path = _synth(capsys, tmp_path / "corpus")
    fds_path = str(tmp_path / "corpus" / corpus.load_manifest(manifest_path).entries[0].path)
    pca_path, cnn_path = str(tmp_path / "model.pca"), str(tmp_path / "model.cnn")
    model = pca.PcaModel(mean=np.zeros(3), eigenvalues=np.array([2.0, 1.0, 0.0]),
                         components=np.eye(3)[:1], pov_achieved=2 / 3)
    pca.save_model(model, pca_path)
    spec_text = "input 1 20\n" + MINI_ARCH
    spec = cnn.NetworkSpec(input_channels=1, input_length=20,
                           layers=cnn.parse_architecture(MINI_ARCH))
    cnn.save_model(spec, cnn.init_state(spec, np.random.default_rng(0)), cnn_path)
    features_path = str(tmp_path / "features.csv")
    cli.write_features_csv(features_path, [("a", "x", [1.0]), ("b", "y", [2.0])])
    descriptors = corpus.read_sequence(fds_path).data
    fds1_manifest = str(tmp_path / "fds1.json")
    corpus.save_manifest(corpus.Manifest((corpus.ManifestEntry("a", "x", fds_path),
                                          corpus.ManifestEntry("b", "y", "FDS1"))), fds1_manifest)
    old = {
        "PCA1": np.array([3, 1], "<u4").tobytes() + model.mean.tobytes()
        + model.eigenvalues.tobytes() + model.components.tobytes(),
        "CNN1": np.array([len(spec_text)], "<u4").tobytes() + spec_text.encode()
        + arrays.load(cnn_path)["params"].tobytes(),
        "SVM1": np.array([2, 1], "<u4").tobytes() + np.array([0.5, 1e-12]).tobytes()
        + b"".join(np.array([1], "<u4").tobytes() + label + np.array([0], "<u4").tobytes()
                   + np.array([0.0]).tobytes() for label in (b"x", b"y")),
        "FDS1": np.array(descriptors.shape, "<u4").tobytes() + descriptors.tobytes(),
    }
    for magic, body in old.items():
        (tmp_path / magic).write_bytes(magic.encode() + body)
    calls = {
        "PCA1": [["project", "--model", "{}", "--input", fds_path],
                 ["extract", "--manifest", manifest_path, "--pca", "{}", "--cnn", cnn_path]],
        "CNN1": [["extract", "--manifest", manifest_path, "--pca", pca_path, "--cnn", "{}"]],
        "SVM1": [["predict", "--model", "{}", "--features", features_path]],
        "FDS1": [["project", "--model", pca_path, "--input", "{}"],
                 ["pca-fit", "--manifest", fds1_manifest]],
    }
    for magic, argvs in calls.items():
        old_path = str(tmp_path / magic)
        for argv in argvs:
            out_path = tmp_path / f"{argv[0]}.out"
            code, out, err = _run(capsys, *[old_path if a == "{}" else a for a in argv],
                                  "--out", str(out_path))
            assert (code, out, err) == (2, "", f"error: {old_path}: bad magic {magic.encode()!r}\n")
            assert not out_path.exists()


# ---------------------------------------------------------------------------
# Full protocol
# ---------------------------------------------------------------------------

def test_run_command_with_overrides(tmp_path, capsys):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    out_dir = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "manifest": manifest_path,
        "output_dir": out_dir,
        "pca": {"pov_threshold": 0.95},
        "cnn": {"architecture": str(arch_path), "epochs": 6,
                "batch_size": 4, "learning_rate": 0.05},
    }))

    code, out, _ = _run(capsys, "run", "--config", str(config_path),
                        "--cnn.epochs", "4", "--svm.tol=0.001")
    assert code == 0
    assert "overall accuracy" in out and "4 folds" in out

    losses = open(os.path.join(out_dir, "loss.csv")).read().splitlines()[1:]
    assert len(losses) == 4 * 4  # the epochs override took effect

    overall = open(os.path.join(out_dir, "accuracy.csv")).read().splitlines()[-1]
    assert overall.split(",")[0] == "overall"
    code, out, _ = _run(capsys, "eval", "--predictions",
                        os.path.join(out_dir, "predictions.csv"))
    assert code == 0
    assert float(out.splitlines()[0].split()[1]) == pytest.approx(float(overall.split(",")[1]))


def test_an_override_before_config_takes_effect(tmp_path, capsys):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    out_dir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "manifest": manifest_path, "output_dir": str(out_dir),
        "cnn": {"architecture": str(arch_path), "epochs": 6, "batch_size": 4},
    }))
    code, _, err = _run(capsys, "run", "--cnn.epochs", "2", "--config", str(config_path))
    assert code == 0, err
    assert len((out_dir / "loss.csv").read_text().splitlines()[1:]) == 4 * 2


@pytest.mark.parametrize("override", [["--cnn.ep", "4"], ["--cnn.bogus", "4"], ["--cnn.epochs"]],
                         ids=["prefix", "unknown", "no-value"])
def test_a_bad_override_exits_1_before_any_output(tmp_path, capsys, override):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    out_dir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"manifest": manifest_path, "output_dir": str(out_dir)}))
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--config", str(config_path), *override])
    assert info.value.code == 1
    assert not out_dir.exists()


# the config sections (or top-level fields) whose options each command takes
_COMMAND_SECTIONS = {
    "flow": ("flow",), "pca-fit": ("flow", "pca"), "train": ("flow", "cnn", "seed"),
    "extract": ("flow",), "svm-fit": ("svm", "seed"),
    "run": ("flow", "pca", "cnn", "svm", "manifest", "output_dir", "split", "seed"),
    "synth": (), "project": (), "predict": (), "eval": (),
}


@pytest.mark.parametrize("command", list(_COMMAND_SECTIONS))
def test_help_lists_the_settings_of_its_command(capsys, command):
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"--([\w.]+) VALUE", capsys.readouterr().out))
    sections = _COMMAND_SECTIONS[command]
    assert listed == {dotted for dotted in pipeline.CONFIG_FIELDS
                      if dotted.split(".")[0] in sections}
    if command == "run":
        assert listed == set(pipeline.CONFIG_FIELDS)


@pytest.mark.parametrize("argv", [
    ["train", "--manifest", "m.json", "--pca", "m.pca", "--epochs", "2"],
    ["pca-fit", "--manifest", "m.json", "--pov", "0.9"],
    ["svm-fit", "--features", "f.csv", "--gamma", "auto"],
    ["train", "--manifest", "m.json", "--pca", "m.pca", "--cnn.ep", "2"],
], ids=["train-epochs", "pca-fit-pov", "svm-fit-gamma", "train-prefix"])
def test_an_old_spelling_or_a_prefix_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--out", "out"])
    assert info.value.code == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,message", [
    (["flow", "--frames", "clip", "--flow.grid", "0"], "grid must be at least 1"),
    (["pca-fit", "--manifest", "m.json", "--pca.pov_threshold", "0"],
     "pov_threshold must be in (0, 1]"),
    (["train", "--manifest", "m.json", "--pca", "m.pca", "--flow.bins", "1"],
     "bins must be at least 2"),
    (["train", "--manifest", "m.json", "--pca", "m.pca", "--cnn.epochs", "many"],
     "epochs must be an integer"),
    (["extract", "--manifest", "m.json", "--pca", "m.pca", "--cnn", "m.cnn",
      "--flow.alpha", "0"], "alpha must be positive and finite"),
    (["svm-fit", "--features", "f.csv", "--svm.c_box", "-1"],
     "c_box must be positive and finite"),
    (["svm-fit", "--features", "f.csv", "--seed", "-1"], "seed must be a nonnegative integer"),
    (["flow", "--frames", "clip", "--flow.iterations", "0"], "iterations must be at least 1"),
], ids=["flow", "pca-fit", "train-flow", "train-cnn", "extract", "svm-fit", "svm-fit-seed",
        "flow-iterations"])
def test_a_bad_stage_setting_exits_2_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                              argv, message):
    monkeypatch.chdir(tmp_path)  # no input exists, so a late check reads "not found"
    code, _, err = _run(capsys, *argv, "--out", "out")
    assert code == 2 and message in err, err
    assert os.listdir(tmp_path) == []


def test_a_grid_larger_than_the_frames_exits_2_before_any_flow(tmp_path, capsys, monkeypatch):
    frame_dir = tmp_path / "clip"
    os.makedirs(frame_dir)
    rng = np.random.default_rng(4)
    for k in range(3):
        flow.write_pgm(flow.Frame(intensity=rng.uniform(size=(12, 16))), frame_dir / f"f{k}.pgm")
    calls = []
    real = flow.estimate_flows
    monkeypatch.setattr(flow, "estimate_flows",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    out = tmp_path / "out.fds"
    code, stdout, err = _run(capsys, "flow", "--frames", str(frame_dir), "--out", str(out),
                             "--flow.grid", "13")
    assert code == 2 and stdout == "" and calls == []
    assert err == f"error: {frame_dir}: frames of size (12, 16) are too small for grid 13\n"
    assert not out.exists()
    # the frames' smaller side is the largest grid
    assert _run(capsys, "flow", "--frames", str(frame_dir), "--out", str(out),
                "--flow.grid", "12")[0] == 0
    assert len(calls) == 1 and corpus.read_sequence(out).dim == oracles.descriptor_width(12, 8)


@pytest.mark.parametrize("command", ["run", "flow"])
def test_an_alpha_too_small_for_float32_flow_exits_2_before_any_output(tmp_path, capsys,
                                                                       command):
    # its square, 1e-40, is subnormal in float32: the flow would divide a frame
    # difference by it and print numpy warnings before failing on a non-finite field
    manifest_path = _frame_corpus(str(tmp_path / "corpus"), videos=4, frames=3)
    out = tmp_path / "out"
    if command == "run":
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"manifest": manifest_path, "output_dir": str(out)}))
        argv = ["run", "--config", str(config_path)]
    else:
        argv = ["flow", "--frames", str(tmp_path / "corpus" / "v0"), "--out", str(out)]
    code, stdout, err = _run(capsys, *argv, "--flow.alpha", "1e-20")
    assert code == 2 and stdout == ""
    assert err.startswith("error: alpha * alpha must be a normal float32") and err.count("\n") == 1
    assert not out.exists()


def test_a_path_setting_takes_its_text_as_given(tmp_path, capsys, monkeypatch):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "manifest": manifest_path, "output_dir": "out",
        "cnn": {"architecture": str(arch_path), "epochs": 2, "batch_size": 4},
    }))
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(capsys, "run", "--config", str(config_path), "--output_dir", "2024")
    assert code == 0, err
    assert (tmp_path / "2024" / "accuracy.csv").exists()
    assert not (tmp_path / "out").exists()


def test_readme_config_example_and_overrides_match_the_config_fields():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    example = pipeline.config_from_dict(json.loads(blocks[0]))
    assert example == pipeline.PipelineConfig(example.manifest, example.output_dir)
    commands = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S))
    dotted = re.findall(r"--(\w+\.\w+)", commands)
    assert dotted and all(name in pipeline.CONFIG_FIELDS for name in dotted), dotted
    lines = [line for line in commands.splitlines() if line.startswith("motionpipe ")]
    assert len(lines) >= len(_COMMAND_SECTIONS)
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_reports_and_features_name_the_manifest_ids(tmp_path, capsys):
    # no source is named after its video: an .fds stem or a directory name is never an id
    frames = corpus.load_manifest(_frame_corpus(tmp_path / "frames"))
    entries = []
    for k, entry in enumerate(frames.entries):
        source, path = str(tmp_path / "frames" / entry.path), str(tmp_path / f"clip{k}")
        if k % 2:
            path += ".fds"
            assert _run(capsys, "flow", "--frames", source, "--out", path)[0] == 0
        else:
            os.rename(source, path)
        entries.append(corpus.ManifestEntry(f"video-{k}", entry.label, path))
    manifest = corpus.Manifest(entries=tuple(entries))
    manifest_path = str(tmp_path / "manifest.json")
    corpus.save_manifest(manifest, manifest_path)
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    cnn_settings = ["--cnn.architecture", str(arch_path), "--cnn.epochs", "2"]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"manifest": manifest_path,
                                       "output_dir": str(tmp_path / "out")}))

    code, _, err = _run(capsys, "run", "--config", str(config_path), *cnn_settings)
    assert code == 0, err
    rows = [line.split(",") for line in
            (tmp_path / "out" / "predictions.csv").read_text().splitlines()[1:]]
    assert [vid for _, vid, _, _ in rows] == manifest.video_ids()  # LOOCV: fold k tests video k
    assert all(true == manifest.entry(vid).label for _, vid, true, _ in rows)

    paths = {name: str(tmp_path / name) for name in ("m.pca", "m.cnn", "features.csv")}
    for argv in (["pca-fit", "--out", paths["m.pca"]],
                 ["train", "--pca", paths["m.pca"], "--out", paths["m.cnn"], *cnn_settings],
                 ["extract", "--pca", paths["m.pca"], "--cnn", paths["m.cnn"],
                  "--out", paths["features.csv"]]):
        code, _, err = _run(capsys, *argv, "--manifest", manifest_path)
        assert code == 0, err
    ids, labels, _ = cli.read_features_csv(paths["features.csv"])
    assert ids == manifest.video_ids()
    assert labels == [entry.label for entry in manifest.entries]


def test_stage_commands_write_what_run_writes(tmp_path, capsys):
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    seed = 6
    # .fds sources, then frame directories, which both commands describe with one reader
    for name, manifest_path in (("corpus", _synth(capsys, tmp_path / "corpus", splits=2)),
                                ("frames", _frame_corpus(tmp_path / "frames", splits=2))):
        manifest = corpus.load_manifest(manifest_path)
        out_dir = tmp_path / f"out-{name}"
        config_path = tmp_path / f"config-{name}.json"
        config_path.write_text(json.dumps({
            "manifest": manifest_path, "output_dir": str(out_dir), "split": "fixed",
            "seed": seed, "pca": {"pov_threshold": 0.95},
            "cnn": {"architecture": str(arch_path), "epochs": 3, "batch_size": 4},
        }))
        code, _, err = _run(capsys, "run", "--config", str(config_path))
        assert code == 0, err

        for fold_index, fold in enumerate(corpus.make_fixed_splits(manifest)):
            fold_dir = out_dir / f"fold_{fold_index:03d}"
            train_manifest = tmp_path / name / f"train{fold_index}.json"
            corpus.save_manifest(
                corpus.Manifest(entries=tuple(manifest.entry(vid) for vid in fold.train_ids)),
                train_manifest,
            )
            pca_path = tmp_path / f"{name}{fold_index}.pca"
            code, _, err = _run(capsys, "pca-fit", "--manifest", str(train_manifest),
                                "--pca.pov_threshold", "0.95", "--out", str(pca_path))
            assert code == 0, err
            assert pca_path.read_bytes() == (fold_dir / "model.pca").read_bytes()

            features = arrays.load(fold_dir / "model.cnn.arrays")["features"]
            features = features[: len(fold.train_ids)]
            features_path = tmp_path / f"{name}{fold_index}.csv"
            cli.write_features_csv(str(features_path), [
                (vid, manifest.entry(vid).label, vec)
                for vid, vec in zip(fold.train_ids, features)
            ])
            svm_path = tmp_path / f"{name}{fold_index}.svm"
            code, _, err = _run(capsys, "svm-fit", "--features", str(features_path),
                                "--seed", str(seed ^ fold_index), "--out", str(svm_path))
            assert code == 0, err
            assert svm_path.read_bytes() == (fold_dir / "model.svm").read_bytes()


def test_wrapped_fit_functions_see_the_stage_commands(tmp_path, capsys, monkeypatch):
    calls = []
    for module, name in ((pca, "fit"), (cnn, "train"), (svm, "default_gamma"), (svm, "fit")):
        def counted(*args, _fn=getattr(module, name), _name=f"{module.__name__}.{name}",
                    **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    manifest_path = _synth(capsys, tmp_path / "corpus")
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    pca_path, cnn_path = str(tmp_path / "m.pca"), str(tmp_path / "m.cnn")
    features_path = str(tmp_path / "f.csv")
    code, _, err = _run(capsys, "pca-fit", "--manifest", manifest_path, "--out", pca_path)
    assert code == 0 and calls == ["motionpipe.pca.fit"], err
    code, _, err = _run(capsys, "train", "--manifest", manifest_path, "--pca", pca_path,
                        "--cnn.architecture", str(arch_path), "--cnn.epochs", "2",
                        "--out", cnn_path)
    assert code == 0 and calls[1:] == ["motionpipe.cnn.train"], err
    code, _, err = _run(capsys, "extract", "--manifest", manifest_path, "--pca", pca_path,
                        "--cnn", cnn_path, "--out", features_path)
    assert code == 0, err
    code, _, err = _run(capsys, "svm-fit", "--features", features_path, "--svm.gamma", "auto",
                        "--out", str(tmp_path / "m.svm"))
    assert code == 0, err
    assert calls[2:] == ["motionpipe.svm.default_gamma", "motionpipe.svm.fit"]


def _show_on_stderr(message, category, filename, lineno, file=None, line=None):
    """What the interpreter shows for a warning, which pytest's recorder replaces."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@pytest.mark.parametrize("count", [1, 2])
def test_run_shows_a_truncated_series_as_one_stderr_line(tmp_path, capfd, monkeypatch,
                                                         count):
    manifest, sequences, _ = corpus.generate_synthetic_corpus(
        classes=2, per_class=2, channels=3, min_len=16, max_len=20, seed=5
    )
    held_out = manifest.video_ids()[0]  # LOOCV fold 0 tests the first video
    seq = sequences[held_out]
    sequences[held_out] = corpus.DescriptorSequence(np.concatenate([seq.data, seq.data[:12]]))
    frames = {vid: seq.frames for vid, seq in sequences.items()}
    length = max(n for vid, n in frames.items() if vid != held_out)
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "manifest": corpus.save_corpus(manifest, sequences, tmp_path / "corpus"),
        "output_dir": str(tmp_path / "out"),
        "pca": {"pov_threshold": 0.95},
        "cnn": {"architecture": str(arch_path), "epochs": 3, "batch_size": 4},
    }))
    # one worker runs every fold here; two fork, and the worker writes the line
    monkeypatch.setattr(workers, "_worker_count", lambda pending: min(count, pending))
    monkeypatch.setattr(warnings, "showwarning", _show_on_stderr)
    formatwarning = warnings.formatwarning

    code = cli.main(["run", "--config", str(config_path)])
    err = capfd.readouterr().err
    assert code == 0, err
    assert err == (f"warning: series {held_out!r} truncated from {frames[held_out]} "
                   f"to {length} frames\n")
    assert warnings.formatwarning is formatwarning


# ---------------------------------------------------------------------------
# Feature tables
# ---------------------------------------------------------------------------

def test_features_csv_round_trip(tmp_path):
    path = str(tmp_path / "f.csv")
    rows = [
        ("a", "cat", np.array([0.1, 2.0, 3.5e-7])),
        ("b", "", np.array([1.0 / 3.0, 0.0, 9.25])),
    ]
    cli.write_features_csv(path, rows)
    ids, labels, matrix = cli.read_features_csv(path)
    assert ids == ["a", "b"]
    assert labels == ["cat", ""]
    assert np.array_equal(matrix, np.stack([r[2] for r in rows]))  # repr survives exactly


def test_write_features_csv_errors(tmp_path):
    path = str(tmp_path / "f.csv")
    with pytest.raises(ValueError, match="no feature rows"):
        cli.write_features_csv(path, [])
    with pytest.raises(ValueError, match="length mismatch"):
        cli.write_features_csv(path, [("a", "x", [1.0]), ("b", "x", [1.0, 2.0])])


def test_read_features_csv_errors(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty feature table"):
        cli.read_features_csv(str(path))
    path.write_text("nope,label,f0\na,x,1.0\n")
    with pytest.raises(DataFormatError, match="header"):
        cli.read_features_csv(str(path))
    path.write_text("video_id,label\na,x\n")
    with pytest.raises(DataFormatError, match="header names no feature columns"):
        cli.read_features_csv(str(path))
    path.write_text("video_id,label,f0\na,x,1.0,9.0\n")
    with pytest.raises(DataFormatError, match="line 2: expected 3 fields"):
        cli.read_features_csv(str(path))
    path.write_text("video_id,label,f0\na,x,abc\n")
    with pytest.raises(DataFormatError, match="non-numeric"):
        cli.read_features_csv(str(path))
    path.write_text("video_id,label,f0,f1\n\n")
    with pytest.raises(DataFormatError, match="feature table has no rows"):
        cli.read_features_csv(str(path))


def test_read_features_csv_reports_the_file_line_of_a_bad_row(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("video_id,label,f0\na,x,1.0\n\nb,x,1.0,9.0\n")
    with pytest.raises(DataFormatError, match="line 4: expected 3 fields"):
        cli.read_features_csv(str(path))
    path.write_text("\nvideo_id,label,f0\n \na,x,abc\n")
    with pytest.raises(DataFormatError, match="line 4: non-numeric feature"):
        cli.read_features_csv(str(path))


def test_eval_reports_the_file_line_of_a_bad_row(tmp_path, capsys):
    preds = tmp_path / "p.csv"
    preds.write_text("video_id,true_label,predicted_label\na,x,x\n\nb,x\n")
    code, _, err = _run(capsys, "eval", "--predictions", str(preds))
    assert code == 2 and err == f"error: {preds}: line 4: wrong field count\n", err


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["flow", "--nope"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--config", "x.json", "--bogus", "1"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--config", "x.json", "--cnn.epochs"])
    assert info.value.code == 1


def test_data_errors_exit_2(tmp_path, capsys):
    code, _, err = _run(capsys, "flow", "--frames", str(tmp_path / "missing"),
                        "--out", str(tmp_path / "x.fds"))
    assert code == 2 and "error:" in err

    bad_manifest = tmp_path / "m.json"
    bad_manifest.write_text("{not json")
    code, _, err = _run(capsys, "pca-fit", "--manifest", str(bad_manifest),
                        "--out", str(tmp_path / "m.pca"))
    assert code == 2

    bad_features = tmp_path / "f.csv"
    bad_features.write_text("video_id,label,f0\na,x,abc\n")
    code, _, err = _run(capsys, "svm-fit", "--features", str(bad_features),
                        "--out", str(tmp_path / "m.svm"))
    assert code == 2

    preds = tmp_path / "p.csv"
    preds.write_text("video_id,foo,bar\na,x,y\n")
    code, _, err = _run(capsys, "eval", "--predictions", str(preds))
    assert code == 2 and "true_label" in err


def test_header_only_features_exit_2_in_svm_fit_and_predict(tmp_path, capsys):
    good = tmp_path / "good.csv"
    cli.write_features_csv(str(good), [("a", "x", [1.0, 0.0]), ("b", "y", [0.0, 1.0])])
    model = tmp_path / "m.svm"
    code, _, _ = _run(capsys, "svm-fit", "--features", str(good), "--out", str(model))
    assert code == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("video_id,label,f0,f1\n")
    for argv in (["svm-fit", "--out", str(tmp_path / "again.svm")],
                 ["svm-fit", "--svm.gamma", "0.1", "--out", str(tmp_path / "again.svm")],
                 ["predict", "--model", str(model), "--out", str(tmp_path / "p.csv")]):
        code, _, err = _run(capsys, *argv, "--features", str(empty))
        assert code == 2 and "feature table has no rows" in err


def test_an_svm_model_with_another_epsilon_exits_2_with_one_error_line(tmp_path, capsys):
    features = tmp_path / "features.csv"
    cli.write_features_csv(str(features), [("a", "x", [1.0, 0.0]), ("b", "y", [0.0, 1.0])])
    good, bad = tmp_path / "good.svm", tmp_path / "bad.svm"
    assert _run(capsys, "svm-fit", "--features", str(features), "--out", str(good))[0] == 0
    stored = arrays.load(good)
    assert stored["kernel"][1] == svm.CHI2_EPSILON == 1e-12
    arrays.write(bad, **{**stored, "kernel": np.array([stored["kernel"][0], 1e-6])})
    out = tmp_path / "predictions.csv"
    assert _run(capsys, "predict", "--model", str(bad), "--features", str(features),
                "--out", str(out)) == (2, "", f"error: {bad}: chi-squared epsilon 1e-06, "
                                              "expected 1e-12\n")
    assert not out.exists()


def test_commands_hold_one_blas_thread_and_restore_the_count(tmp_path, capsys, monkeypatch):
    threads = workers._blas_threads()
    if threads is None:
        pytest.skip("needs the OpenBLAS thread-count functions")
    get, set_threads = threads
    counts = []
    real_fit = svm.fit

    def counted_fit(*args, **kwargs):
        counts.append(get())
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(svm, "fit", counted_fit)
    two_classes = tmp_path / "two.csv"
    cli.write_features_csv(str(two_classes), [("a", "x", [1.0, 0.0]), ("b", "y", [0.0, 1.0])])
    one_class = tmp_path / "one.csv"
    cli.write_features_csv(str(one_class), [("a", "x", [1.0, 0.0]), ("b", "x", [0.0, 1.0])])
    original = get()
    set_threads(2)
    try:
        for features, want in ((two_classes, 0), (one_class, 2)):  # svm.fit rejects one class
            code, _, _ = _run(capsys, "svm-fit", "--features", str(features),
                              "--svm.gamma", "0.5", "--out", str(tmp_path / "m.svm"))
            assert code == want and get() == 2
        assert counts == [1, 1]
    finally:
        set_threads(original)


def test_unlabeled_features_rejected(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("video_id,label,f0\na,,1.0\n")
    code, _, err = _run(capsys, "svm-fit", "--features", str(path),
                        "--out", str(tmp_path / "m.svm"))
    assert code == 2 and "has no label" in err


def test_convergence_failures_exit_3(tmp_path, capsys, monkeypatch):
    features = tmp_path / "f.csv"
    cli.write_features_csv(str(features), [
        ("a", "x", [1.0, 0.0]), ("b", "y", [0.0, 1.0]),
    ])

    def explode(*args, **kwargs):
        raise ConvergenceError("SMO not converged")

    monkeypatch.setattr(svm, "fit", explode)
    code, _, err = _run(capsys, "svm-fit", "--features", str(features),
                        "--out", str(tmp_path / "m.svm"))
    assert code == 3 and "SMO not converged" in err

    manifest_path = _synth(capsys, tmp_path / "corpus")
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "manifest": manifest_path,
        "output_dir": str(tmp_path / "out"),
        "cnn": {"architecture": str(arch_path), "epochs": 2, "batch_size": 4},
    }))
    code, _, err = _run(capsys, "run", "--config", str(config_path))
    assert code == 3 and "stage svm" in err


def _kfold_table(path, rows=800, dim=64, classes=4, seed=1):
    """Feature rows shaped like an svm-kfold fold: class blocks of raised means, half zeros."""
    rng = np.random.default_rng(seed)
    labels = np.arange(rows) % classes
    centres = np.kron(np.eye(classes), np.full(dim // classes, 0.8))
    x = np.maximum(centres[labels] + rng.normal(size=(rows, dim)) - 0.1, 0.0)
    cli.write_features_csv(str(path), [(f"r{i}", f"k{k}", v)
                                       for i, (k, v) in enumerate(zip(labels, x))])


def test_svm_fit_on_two_processes_writes_the_serial_bytes(tmp_path, capsys, monkeypatch):
    features = tmp_path / "f.csv"
    _kfold_table(features)  # above svm._FORK_TERMS: 800 * 801 / 2 * 64 terms
    usable_cpus(monkeypatch)
    forks = record_forks(monkeypatch, tmp_path / "forks")
    models = []
    for count in (2, 1):
        if count == 1:
            monkeypatch.setattr(workers, "_worker_count", lambda pending: 1)
        models.append(tmp_path / f"m{count}.svm")
        code, _, err = _run(capsys, "svm-fit", "--features", str(features),
                            "--out", str(models[-1]))
        assert code == 0, err
    assert forks() == [os.getpid()]  # one fork: the kernel, then the machines
    assert models[0].read_bytes() == models[1].read_bytes()


_PEAK_PROBE = """
import sys
from motionpipe import cli, workers
workers._blas_threads = lambda: (lambda: 1, lambda threads: None)  # two usable CPUs anywhere
workers.os.sched_getaffinity = lambda pid: {0, 1}
if len(sys.argv) > 1:
    assert cli.main(["svm-fit", "--features", sys.argv[1], "--out", sys.argv[2]]) == 0
status = open("/proc/self/status").read().splitlines()
print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_svm_fit_peaks_under_two_grams_above_its_imports(tmp_path):
    # VmHWM is the process's own peak: a child's ru_maxrss starts at its parent's.
    # The workers make the kernel's values in a shared mmap that the fitting
    # process never touches; distances, their scaled copy and their exp held
    # side by side in it would cost three S x S float64 matrices.
    features = tmp_path / "f.csv"
    _kfold_table(features)  # S = 800: one Gram is 5 MB
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def peak_kb(*argv):
        result = subprocess.run([sys.executable, "-c", _PEAK_PROBE, *argv], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return int(result.stdout.split()[-1])

    grown = peak_kb(str(features), str(tmp_path / "m.svm")) - peak_kb()
    assert grown * 1024 < 2 * 800 * 800 * 8, grown


def test_pca_fit_describes_frames_on_two_processes_and_writes_the_serial_bytes(
        tmp_path, capsys, monkeypatch):
    frames = _frame_corpus(tmp_path / "frames")
    fds = _synth(capsys, tmp_path / "corpus")
    usable_cpus(monkeypatch)
    forks = record_forks(monkeypatch, tmp_path / "forks")
    code, _, err = _run(capsys, "pca-fit", "--manifest", fds, "--out", str(tmp_path / "fds.pca"))
    assert code == 0, err
    assert forks() == []  # .fds sources are read as they are
    models = []
    for count in (2, 1):
        if count == 1:
            monkeypatch.setattr(workers, "_worker_count", lambda pending: 1)
        models.append(tmp_path / f"m{count}.pca")
        code, _, err = _run(capsys, "pca-fit", "--manifest", frames, "--out", str(models[-1]))
        assert code == 0, err
    assert forks() == [os.getpid()]  # the frame directories, on two workers
    assert models[0].read_bytes() == models[1].read_bytes()


def _kill_describe_workers(monkeypatch):
    """Kill every describe worker at its first Horn-Schunck iteration."""
    parent, real = os.getpid(), flow._horn_schunck

    def horn_schunck(*args):  # private, so that the fork still happens
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(flow, "_horn_schunck", horn_schunck)
    usable_cpus(monkeypatch)


def test_a_killed_describe_worker_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    manifest_path = _frame_corpus(tmp_path / "frames")
    _kill_describe_workers(monkeypatch)
    code, _, err = _run(capsys, "pca-fit", "--manifest", manifest_path,
                        "--out", str(tmp_path / "m.pca"))
    assert code == 2
    # v0 and v1 start together and both workers die: the first video is named
    assert err == ("error: pca-fit: video v0: a worker process ended without a result "
                   "(killed by SIGKILL)\n")
    assert not (tmp_path / "m.pca").exists()


def test_a_killed_describe_worker_in_run_exits_2_with_one_error_line(tmp_path, capsys,
                                                                      monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"manifest": _frame_corpus(tmp_path / "frames"),
                                       "output_dir": str(tmp_path / "out")}))
    _kill_describe_workers(monkeypatch)
    code, _, err = _run(capsys, "run", "--config", str(config_path))
    assert code == 2
    assert err == ("error: run: video v0: a worker process ended without a result "
                   "(killed by SIGKILL)\n")
    assert not any((tmp_path / "out" / "descriptors").iterdir())


def _in_the_child(monkeypatch, before):
    """Wrap svm._smo so that ``before()`` runs first in a forked child's machines only."""
    parent, real = os.getpid(), svm._smo

    def smo(*args):
        if os.getpid() != parent:
            before()
        return real(*args)

    monkeypatch.setattr(svm, "_smo", smo)
    monkeypatch.setattr(svm, "_FORK_TERMS", 0)
    usable_cpus(monkeypatch)


def test_a_killed_svm_fit_child_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    features = tmp_path / "f.csv"
    _kfold_table(features, rows=40, dim=4)
    _in_the_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    code, _, err = _run(capsys, "svm-fit", "--features", str(features),
                        "--out", str(tmp_path / "m.svm"))
    assert code == 2
    assert err == ("error: svm-fit: a worker process ended without a result "
                   "(killed by SIGKILL)\n")
    assert not (tmp_path / "m.svm").exists()


def test_a_child_machine_that_does_not_converge_exits_3(tmp_path, capsys, monkeypatch):
    features = tmp_path / "f.csv"
    _kfold_table(features, rows=40, dim=4)
    _in_the_child(monkeypatch, lambda: setattr(svm, "MAX_SMO_STEPS", 1))
    code, _, err = _run(capsys, "svm-fit", "--features", str(features),
                        "--out", str(tmp_path / "m.svm"))
    assert code == 3 and err == "error: SMO not converged\n"


@pytest.mark.parametrize("field,value", [
    ("cnn.learning_rate", "nan"), ("cnn.weight_decay", "nan"), ("svm.c_box", "nan"),
    ("svm.tol", "nan"), ("flow.alpha", "0"), ("flow.alpha", "Infinity"),
    ("flow.iterations", "0"), ("flow.grid", "0"), ("flow.bins", "1"),
], ids=["cnn.learning_rate", "cnn.weight_decay", "svm.c_box", "svm.tol", "flow.alpha-0",
        "flow.alpha-Infinity", "flow.iterations-0", "flow.grid-0", "flow.bins-1"])
def test_non_finite_setting_exits_2_before_any_fold(tmp_path, capsys, field, value):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    out_dir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"manifest": manifest_path, "output_dir": str(out_dir)}))
    code, _, err = _run(capsys, "run", "--config", str(config_path), f"--{field}", value)
    assert code == 2, err
    assert f"{field.split('.')[1]} must be" in err
    assert not out_dir.exists()


def test_negative_seed_exits_2_before_any_fold(tmp_path, capsys):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    out_dir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"manifest": manifest_path, "output_dir": str(out_dir)}))
    code, _, err = _run(capsys, "run", "--config", str(config_path), "--seed", "-1")
    assert code == 2 and "seed must be a nonnegative integer" in err, err
    assert not out_dir.exists()

    code, _, err = _run(capsys, "pca-fit", "--manifest", manifest_path,
                        "--out", str(tmp_path / "m.pca"))
    assert code == 0, err
    cnn_path = tmp_path / "m.cnn"
    code, _, err = _run(capsys, "train", "--manifest", manifest_path, "--pca",
                        str(tmp_path / "m.pca"), "--seed", "-1", "--out", str(cnn_path))
    assert code == 2 and "seed must be a nonnegative integer" in err, err
    assert not cnn_path.exists()


def test_bad_manifest_exits_2_without_creating_output_dir(tmp_path, capsys):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    with open(manifest_path, encoding="utf-8") as fh:
        rows = json.load(fh)
    rows[0]["label"] = "walk,fast"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)
    out_dir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"manifest": manifest_path, "output_dir": str(out_dir)}))
    code, _, err = _run(capsys, "run", "--config", str(config_path))
    assert code == 2, err
    assert "walk,fast" in err
    assert not out_dir.exists()
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump([], fh)
    code, _, err = _run(capsys, "run", "--config", str(config_path))
    assert code == 2, err
    assert "manifest has no entries" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv,message", [
    (["run", "--cnn.architecture", "missing.txt"], "missing.txt"),
    (["run", "--cnn.architecture", "bad.txt"], "bad.txt: line 2: unrecognised layer 'bogus 2'"),
    (["train", "--pca", "missing.pca"], "missing.pca"),
    (["train", "--pca", "m.pca", "--cnn.architecture", "bad.txt"],
     "bad.txt: line 2: unrecognised layer 'bogus 2'"),
    (["extract", "--pca", "m.pca", "--cnn", "missing.cnn"], "missing.cnn"),
    (["extract", "--pca", "m.pca", "--cnn", "wide.cnn"], "but the network expects"),
    (["run", "--split", "fixed"], "entry 'v0' is missing split_id"),
    # a parsed architecture that is no network, or not one for the manifest's labels
    (["run", "--cnn.architecture", "classes.txt"],
     "classes.txt: softmax has 5 classes, the manifest has 2 labels"),
    (["run", "--cnn.architecture", "headless.txt"],
     "headless.txt: network must end with a softmax output layer"),
    (["train", "--pca", "m.pca", "--cnn.architecture", "classes.txt"],
     "classes.txt: softmax has 5 classes, the manifest has 2 labels"),
    (["train", "--pca", "m.pca", "--cnn.architecture", "headless.txt"],
     "headless.txt: network must end with a softmax output layer"),
], ids=["run-missing-architecture", "run-malformed-architecture", "train-missing-pca",
        "train-malformed-architecture", "extract-missing-cnn", "extract-channel-mismatch",
        "run-unplannable-split", "run-class-count-mismatch", "run-missing-softmax",
        "train-class-count-mismatch", "train-missing-softmax"])
def test_a_bad_named_input_exits_2_before_any_flow(tmp_path, capsys, monkeypatch, argv, message):
    manifest_path = _frame_corpus(tmp_path / "frames")
    model = pca.fit(np.random.default_rng(0).normal(size=(40, 6)), 0.999)
    pca.save_model(model, tmp_path / "m.pca")
    spec = cnn.NetworkSpec(input_channels=model.channels + 1, input_length=4,
                           layers=cnn.parse_architecture(MINI_ARCH))
    cnn.save_model(spec, cnn.init_state(spec, np.random.default_rng(0)), tmp_path / "wide.cnn")
    (tmp_path / "bad.txt").write_text("conv 3 4 1\nbogus 2\n")
    (tmp_path / "classes.txt").write_text(MINI_ARCH.replace("softmax 2", "softmax 5"))
    (tmp_path / "headless.txt").write_text("conv 3 4 1\nrelu\nfc 8\n")
    (tmp_path / "config.json").write_text(json.dumps(
        {"manifest": manifest_path, "output_dir": "out"}))

    def no_flow(*args, **kwargs):
        raise AssertionError("flow computed before every named input was read")

    monkeypatch.setattr(flow, "estimate_flows", no_flow)
    monkeypatch.chdir(tmp_path)
    inputs = (["--config", "config.json"] if argv[0] == "run"
              else ["--manifest", manifest_path, "--out", "out"])
    code, _, err = _run(capsys, argv[0], *inputs, *argv[1:])
    assert code == 2 and message in err, err
    assert not (tmp_path / "out").exists()  # neither run's output_dir nor a stage's --out


@pytest.mark.parametrize("doc,override,message", [
    ({"flow": {"alpha": None}}, (), "alpha must be a number"),
    ({"seed": [1]}, (), "seed must be an integer"),
    ({"cnn": {"epochs": 2.7}}, (), "epochs must be an integer"),
    ({"flow": {"iterations": True}}, (), "iterations must be an integer"),
    ({"output_dir": 7}, (), "output_dir must be a string"),
    ({"cnn": {"architecture": 3}}, (), "architecture must be a string or null"),
    ({}, ("--svm.gamma", "null"), "gamma must be 'auto' or a number"),
], ids=["null-float", "list-int", "fractional-int", "bool-int", "number-path",
        "number-architecture", "null-gamma-override"])
def test_malformed_config_value_exits_2_before_any_fold(tmp_path, capsys, monkeypatch,
                                                         doc, override, message):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"manifest": manifest_path, "output_dir": "out", **doc}))
    code, _, err = _run(capsys, "run", "--config", str(config_path), *override)
    assert code == 2, err
    assert message in err
    assert sorted(os.listdir(tmp_path)) == ["config.json", "corpus"]


def test_diverged_cnn_fails_at_cnn_stage_with_exit_3(tmp_path, capsys):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    out_dir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "manifest": manifest_path,
        "output_dir": str(out_dir),
        "cnn": {"architecture": str(arch_path), "epochs": 10, "batch_size": 4},
    }))
    with np.errstate(all="ignore"):
        code, _, err = _run(capsys, "run", "--config", str(config_path),
                            "--cnn.learning_rate", "1e6")
    assert code == 3, err
    assert "fold 0, stage cnn" in err and "diverged" in err
    assert not os.path.exists(out_dir / "fold_000" / "model.cnn.key")


def test_stage_failures_without_convergence_exit_2(tmp_path, capsys, monkeypatch):
    manifest_path = _synth(capsys, tmp_path / "corpus")
    arch_path = tmp_path / "arch.txt"
    arch_path.write_text(MINI_ARCH)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "manifest": manifest_path,
        "output_dir": str(tmp_path / "out"),
        "cnn": {"architecture": str(arch_path), "epochs": 2, "batch_size": 4},
    }))

    def explode(*args, **kwargs):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(cnn, "train", explode)
    code, _, err = _run(capsys, "run", "--config", str(config_path))
    assert code == 2 and "stage cnn" in err


# ---------------------------------------------------------------------------
# Console script
# ---------------------------------------------------------------------------

def test_console_script_runs(tmp_path):
    script = shutil.which("motionpipe")
    argv = [script] if script else [sys.executable, "-m", "motionpipe.cli"]
    # the child imports the package under test, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(argv + ["synth", "--out", str(tmp_path / "c"),
                                    "--classes", "2", "--per-class", "2",
                                    "--channels", "2", "--min-len", "16",
                                    "--max-len", "16", "--seed", "1"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert os.path.exists(tmp_path / "c" / "manifest.json")

    result = subprocess.run(argv + ["--help"], capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "usage" in result.stdout.lower()
