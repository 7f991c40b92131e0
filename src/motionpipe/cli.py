"""Command-line interface.

Subcommands cover the individual stages (flow, pca-fit, project, train,
extract, svm-fit, predict), the full protocol (run), corpus generation
(synth), and report evaluation (eval).  Exit codes: 0 success, 1 usage
error, 2 data or format error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

import numpy as np

from . import arrays, cnn, corpus, pca, pipeline, svm, workers
from .errors import ConvergenceError, DataFormatError, StageError, WorkerError


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def __init__(self, *args, **kwargs):  # no abbreviations: no prefix sets a config field
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_settings(p: argparse.ArgumentParser, *sections: str) -> None:
    """One --<dotted name> option per field of config ``sections`` (flow, seed); all if none."""
    group = p.add_argument_group("settings", "each sets one config field; VALUE is read "
                                 "as JSON where it parses, but a path or split as text")
    for dotted in pipeline.CONFIG_FIELDS:
        if not sections or dotted.split(".")[0] in sections:
            group.add_argument(f"--{dotted}", default=argparse.SUPPRESS, metavar="VALUE")


def build_parser() -> _Parser:
    parser = _Parser(prog="motionpipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("flow",
                       help="compute flow descriptors for a directory of PGM frames")
    p.add_argument("--frames", required=True, help="directory of PGM frames")
    p.add_argument("--out", required=True, help="output .fds path")
    _add_settings(p, "flow")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("synth",
                       help="generate a synthetic order-discrimination corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--min-len", type=int, default=40)
    p.add_argument("--max-len", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--splits", type=int, default=0,
                   help="assign this many round-robin split ids (0 = none)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pca-fit",
                       help="fit a PCA model on every descriptor row of a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output .pca path")
    _add_settings(p, "flow", "pca")
    p.set_defaults(func=_cmd_pca_fit)

    p = sub.add_parser("project",
                       help="project a descriptor sequence onto PCA channels")
    p.add_argument("--model", required=True, help=".pca model path")
    p.add_argument("--input", required=True, help="input .fds path")
    p.add_argument("--out", required=True, help="output .fds path (time-major)")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("train",
                       help="train the 1D-CNN on all videos of a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pca", required=True, help=".pca model path")
    p.add_argument("--out", required=True, help="output .cnn path")
    _add_settings(p, "flow", "cnn", "seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("extract",
                       help="extract CNN feature vectors for a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pca", required=True)
    p.add_argument("--cnn", required=True)
    p.add_argument("--out", required=True, help="output features .csv")
    _add_settings(p, "flow")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("svm-fit",
                       help="train the chi-squared SVM on a feature table")
    p.add_argument("--features", required=True, help="features .csv")
    p.add_argument("--out", required=True, help="output .svm path")
    _add_settings(p, "svm", "seed")
    p.set_defaults(func=_cmd_svm_fit)

    p = sub.add_parser("predict",
                       help="classify feature vectors with a trained SVM")
    p.add_argument("--model", required=True, help=".svm model path")
    p.add_argument("--features", required=True, help="features .csv")
    p.add_argument("--out", required=True, help="output predictions .csv")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("run", help="run the full pipeline with a JSON config")
    p.add_argument("--config", required=True, help="config .json path")
    _add_settings(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval",
                       help="score a predictions table")
    p.add_argument("--predictions", required=True, help="predictions .csv")
    p.add_argument("--out-dir", default=None, help="where to write confusion files")
    p.set_defaults(func=_cmd_eval)

    return parser


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _settings(args, config=pipeline.PipelineConfig(manifest="", output_dir="")):
    """``config`` (the defaults) with the config-field options of ``args`` applied.

    Only the options given are in ``args`` (SUPPRESS), in command-line order
    of first appearance; a stage command's ``--manifest`` is the config's.
    """
    for dotted, raw in vars(args).items():
        if dotted in pipeline.CONFIG_FIELDS:
            config = pipeline.apply_override(config, dotted, raw)
    return config


def write_features_csv(path, rows) -> None:
    """rows: (video_id, label, vector); label may be empty."""
    rows = list(rows)
    if not rows:
        raise ValueError("no feature rows to write")
    dim = len(rows[0][2])
    header = "video_id,label," + ",".join(f"f{i}" for i in range(dim))
    lines = [header]
    for vid, label, vec in rows:
        if len(vec) != dim:
            raise ValueError(f"feature length mismatch for {vid!r}")
        lines.append(f"{vid},{label}," + ",".join(repr(float(v)) for v in vec))
    arrays.write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _table_lines(path, name: str) -> list:
    """(file line number, text) of each non-blank line of the UTF-8 table at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {name} is not UTF-8") from exc
    if not lines:
        raise DataFormatError(f"{path}: empty {name}")
    return lines


def read_features_csv(path):
    """Returns (video_ids, labels, matrix); labels may contain ''."""
    lines = _table_lines(path, "feature table")
    header = lines[0][1].split(",")
    if header[:2] != ["video_id", "label"]:
        raise DataFormatError(f"{path}: header must start with video_id,label")
    dim = len(header) - 2
    if dim < 1:
        raise DataFormatError(f"{path}: header names no feature columns")
    ids, labels, vectors = [], [], []
    for lineno, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != dim + 2:
            raise DataFormatError(f"{path}: line {lineno}: expected {dim + 2} fields")
        ids.append(fields[0])
        labels.append(fields[1])
        try:
            vectors.append([float(v) for v in fields[2:]])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: non-numeric feature") from exc
    if not vectors:
        raise DataFormatError(f"{path}: feature table has no rows")
    matrix = np.array(vectors, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise DataFormatError(f"{path}: features must be finite")
    return ids, labels, matrix


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_flow(args) -> int:
    seq = pipeline.frames_to_sequence(args.frames, **pipeline._section(_settings(args), "flow"))
    corpus.write_sequence(seq, args.out)
    print(f"wrote {seq.frames} descriptors of dimension {seq.dim} to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    manifest, sequences, _ = corpus.generate_synthetic_corpus(
        classes=args.classes, per_class=args.per_class, channels=args.channels,
        min_len=args.min_len, max_len=args.max_len, seed=args.seed,
        noise_sigma=args.noise_sigma,
    )
    if args.splits > 0:
        entries = []
        position = {}
        for entry in manifest.entries:
            k = position.get(entry.label, 0)
            position[entry.label] = k + 1
            entries.append(dataclasses.replace(entry, split_id=k % args.splits))
        manifest = corpus.Manifest(entries=tuple(entries))
    path = corpus.save_corpus(manifest, sequences, args.out)
    print(f"wrote {len(manifest)} videos and {path}")
    return 0


def _cmd_pca_fit(args) -> int:
    config = _settings(args)
    manifest = corpus.load_manifest(config.manifest)
    sequences, _ = pipeline.read_corpus(config, manifest)
    model = pipeline.fit_pca_model(args.out, sequences, manifest.video_ids(),
                                   config.pov_threshold)
    print(f"retained {model.channels} of {model.input_dim} channels "
          f"(pov {model.pov_achieved!r}) in {args.out}")
    return 0


def _cmd_project(args) -> int:
    model = pca.load_model(args.model)
    seq = corpus.read_sequence(args.input)
    series = pca.transform(model, seq.data)
    corpus.write_sequence(corpus.DescriptorSequence(series.T), args.out)
    print(f"projected to {series.shape[0]} channels x {series.shape[1]} frames in {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _settings(args)
    train_cfg = pipeline.train_config(config, config.seed)
    manifest = corpus.load_manifest(config.manifest)
    pca_model = pca.load_model(args.pca)
    labels = manifest.labels()
    arch_text = pipeline.architecture_text(config.architecture, len(labels))
    sequences, _ = pipeline.read_corpus(config, manifest)
    ids = manifest.video_ids()
    batch, _ = pipeline.project_videos(pca_model, sequences, ids)
    label_index = {label: i for i, label in enumerate(labels)}
    _, _, losses = pipeline.fit_cnn_model(
        args.out, arch_text, batch,
        [label_index[manifest.entry(vid).label] for vid in ids], train_cfg,
    )
    print(f"trained {train_cfg.epochs} epochs, final loss {losses[-1]!r}, wrote {args.out}")
    return 0


def _cmd_extract(args) -> int:
    config = _settings(args)
    manifest = corpus.load_manifest(config.manifest)
    pca_model = pca.load_model(args.pca)
    spec, params = cnn.load_model(args.cnn)
    if pca_model.channels != spec.input_channels:
        raise ValueError(
            f"PCA retains {pca_model.channels} channels but the network "
            f"expects {spec.input_channels}"
        )
    sequences, _ = pipeline.read_corpus(config, manifest)
    ids = manifest.video_ids()
    batch, _ = pipeline.project_videos(pca_model, sequences, ids, spec.input_length)
    vectors = cnn.extract_features(spec, params, batch)
    rows = [(vid, manifest.entry(vid).label, vec) for vid, vec in zip(ids, vectors)]
    write_features_csv(args.out, rows)
    print(f"wrote {len(rows)} feature vectors of dimension {len(rows[0][2])} to {args.out}")
    return 0


def _cmd_svm_fit(args) -> int:
    config = _settings(args)
    ids, labels, matrix = read_features_csv(args.features)
    if any(not label for label in labels):
        missing = ids[labels.index("")]
        raise ValueError(f"feature row {missing!r} has no label")
    model = pipeline.fit_svm_model(args.out, matrix, labels, config, config.seed)
    supports = sum(m.support_indices.size for m in model.machines)
    print(f"trained {len(model.labels)} machines ({supports} support entries), wrote {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = svm.load_model(args.model)
    ids, labels, matrix = read_features_csv(args.features)
    predicted = svm.predict_batch(model, matrix)
    lines = ["video_id,true_label,predicted_label"]
    for vid, true, pred in zip(ids, labels, predicted):
        lines.append(f"{vid},{true},{pred}")
    arrays.write_file(args.out, ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {len(ids)} predictions to {args.out}")
    return 0


def _cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config = _settings(args, pipeline.config_from_dict(doc))
    result = pipeline.run_pipeline(config)
    print(f"overall accuracy {result.overall_accuracy!r} "
          f"over {result.confusion.total} videos in {len(result.fold_results)} folds")
    print(f"reports written to {config.output_dir}")
    return 0


def _cmd_eval(args) -> int:
    lines = _table_lines(args.predictions, "predictions table")
    header = lines[0][1].split(",")
    try:
        true_col = header.index("true_label")
        pred_col = header.index("predicted_label")
    except ValueError:
        raise DataFormatError(
            f"{args.predictions}: header must name true_label and predicted_label columns"
        ) from None
    pairs = []
    for lineno, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise DataFormatError(f"{args.predictions}: line {lineno}: wrong field count")
        pairs.append((fields[true_col], fields[pred_col]))
    label_set = sorted({t for t, _ in pairs} | {p for _, p in pairs})
    accuracy, matrix = pipeline.evaluate(pairs, label_set)
    print(f"accuracy {accuracy!r} over {matrix.total} predictions")
    print(matrix.to_text(), end="")
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        pipeline.write_confusion(args.out_dir, matrix)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as a CLI user reads it: one line, without the Python source line."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # only the text changes: whatever shows warnings (stderr, in a forked
    # worker too, or a recorder such as pytest.warns) still shows them
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        with workers.one_blas_thread():  # a second thread burns CPU on these small products
            return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc.__cause__, ConvergenceError) else 2
    except WorkerError as exc:  # killed by the OOM killer, say
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, FileNotFoundError, NotADirectoryError, ValueError,
            KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
