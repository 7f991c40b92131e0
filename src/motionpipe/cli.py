"""Command-line interface.

Subcommands cover the individual stages (flow, pca-fit, project, train,
extract, svm-fit, predict), the full protocol (run), corpus generation
(synth), and report evaluation (eval).  Exit codes: 0 success, 1 usage
error, 2 data or format error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import cnn, corpus, pca, pipeline, svm
from .errors import ConvergenceError, DataFormatError, StageError


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_flow_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=1.0, help="smoothness weight")
    p.add_argument("--iterations", type=int, default=100, help="solver iterations")
    p.add_argument("--grid", type=int, default=4, help="pooling grid size G")
    p.add_argument("--bins", type=int, default=8, help="orientation bins B")


def build_parser() -> _Parser:
    parser = _Parser(prog="motionpipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("flow",
                       help="compute flow descriptors for a directory of PGM frames")
    p.add_argument("--frames", required=True, help="directory of PGM frames")
    p.add_argument("--out", required=True, help="output .fds path")
    _add_flow_params(p)
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
    p.add_argument("--pov", type=float, default=0.8, help="proportion of variance to retain")
    _add_flow_params(p)
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
    p.add_argument("--arch", default=None, help="architecture file (default built in)")
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    _add_flow_params(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("extract",
                       help="extract CNN feature vectors for a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pca", required=True)
    p.add_argument("--cnn", required=True)
    p.add_argument("--out", required=True, help="output features .csv")
    _add_flow_params(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("svm-fit",
                       help="train the chi-squared SVM on a feature table")
    p.add_argument("--features", required=True, help="features .csv")
    p.add_argument("--out", required=True, help="output .svm path")
    p.add_argument("--c-box", type=float, default=svm.DEFAULT_C_BOX)
    p.add_argument("--gamma", default="auto", help="kernel gamma, or 'auto'")
    p.add_argument("--tol", type=float, default=svm.DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_svm_fit)

    p = sub.add_parser("predict",
                       help="classify feature vectors with a trained SVM")
    p.add_argument("--model", required=True, help=".svm model path")
    p.add_argument("--features", required=True, help="features .csv")
    p.add_argument("--out", required=True, help="output predictions .csv")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("run",
                       help="run the full pipeline with a JSON config")
    p.add_argument("--config", required=True, help="config .json path")
    p.set_defaults(func=_cmd_run, allow_overrides=True)

    p = sub.add_parser("eval",
                       help="score a predictions table")
    p.add_argument("--predictions", required=True, help="predictions .csv")
    p.add_argument("--out-dir", default=None, help="where to write confusion files")
    p.set_defaults(func=_cmd_eval)

    return parser


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _read_corpus(manifest_path, args):
    """Manifest and sequences for standalone stage commands (no caching)."""
    manifest = corpus.load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    sequences = {}
    for entry in manifest.entries:
        path = entry.path if os.path.isabs(entry.path) else os.path.join(base, entry.path)
        if not os.path.exists(path):
            raise FileNotFoundError(f"video source {path!r} not found")
        if os.path.isdir(path):
            sequences[entry.video_id] = pipeline.frames_to_sequence(
                path, alpha=args.alpha, iterations=args.iterations,
                grid=args.grid, bins=args.bins, video_id=entry.video_id,
            )
        else:
            sequences[entry.video_id] = corpus.read_sequence(path, video_id=entry.video_id)
    dims = {seq.dim for seq in sequences.values()}
    if len(dims) > 1:
        raise ValueError(f"descriptor dimensions differ across videos: {sorted(dims)}")
    return manifest, sequences


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_features_csv(path):
    """Returns (video_ids, labels, matrix); labels may contain ''."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty feature table")
    header = lines[0].split(",")
    if header[:2] != ["video_id", "label"]:
        raise DataFormatError(f"{path}: header must start with video_id,label")
    dim = len(header) - 2
    ids, labels, vectors = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != dim + 2:
            raise DataFormatError(f"{path}: line {lineno}: expected {dim + 2} fields")
        ids.append(fields[0])
        labels.append(fields[1])
        try:
            vectors.append([float(v) for v in fields[2:]])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: non-numeric feature") from exc
    return ids, labels, np.array(vectors, dtype=np.float64)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_flow(args) -> int:
    seq = pipeline.frames_to_sequence(
        args.frames, alpha=args.alpha, iterations=args.iterations,
        grid=args.grid, bins=args.bins,
    )
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
            entries.append(replace(entry, split_id=k % args.splits))
        manifest = corpus.Manifest(entries=tuple(entries))
    path = corpus.save_corpus(manifest, sequences, args.out)
    print(f"wrote {len(manifest)} videos and {path}")
    return 0


def _cmd_pca_fit(args) -> int:
    _, sequences = _read_corpus(args.manifest, args)
    samples = np.vstack([seq.data for seq in sequences.values()]).astype(np.float64)
    model = pca.fit(samples, args.pov)
    pca.save_model(model, args.out)
    print(f"retained {model.channels} of {model.input_dim} channels "
          f"(pov {model.pov_achieved!r}) in {args.out}")
    return 0


def _cmd_project(args) -> int:
    model = pca.load_model(args.model)
    seq = corpus.read_sequence(args.input)
    series = pca.transform(model, seq)
    corpus.write_sequence(
        corpus.DescriptorSequence(video_id=series.video_id, data=series.data.T),
        args.out,
    )
    print(f"projected to {series.channels} channels x {series.length} frames in {args.out}")
    return 0


def _cmd_train(args) -> int:
    manifest, sequences = _read_corpus(args.manifest, args)
    pca_model = pca.load_model(args.pca)
    ids = manifest.video_ids()
    batch, l_max = pipeline.project_videos(pca_model, sequences, ids)
    labels = manifest.labels()
    label_index = {label: i for i, label in enumerate(labels)}
    if args.arch is None:
        layers = cnn.default_architecture(len(labels))
    else:
        with open(args.arch, "r", encoding="utf-8") as fh:
            layers = cnn.parse_architecture(fh.read())
    spec = cnn.NetworkSpec(
        input_channels=pca_model.channels, input_length=l_max, layers=layers,
    )
    config = cnn.TrainConfig(
        learning_rate=args.learning_rate, momentum=args.momentum,
        epochs=args.epochs, batch_size=args.batch_size,
        seed=args.seed, weight_decay=args.weight_decay,
    )
    state, losses = cnn.train(
        spec,
        batch,
        [label_index[manifest.entry(vid).label] for vid in ids],
        config,
    )
    cnn.save_model(spec, state, args.out)
    print(f"trained {config.epochs} epochs, final loss {losses[-1]!r}, wrote {args.out}")
    return 0


def _cmd_extract(args) -> int:
    manifest, sequences = _read_corpus(args.manifest, args)
    pca_model = pca.load_model(args.pca)
    spec, state = cnn.load_model(args.cnn)
    if pca_model.channels != spec.input_channels:
        raise ValueError(
            f"PCA retains {pca_model.channels} channels but the network "
            f"expects {spec.input_channels}"
        )
    ids = manifest.video_ids()
    batch = np.stack([
        corpus.align_to_length(pca.transform(pca_model, sequences[vid]), spec.input_length).data
        for vid in ids
    ])
    vectors = cnn.extract_features(spec, state, batch)
    rows = [(vid, manifest.entry(vid).label, vec) for vid, vec in zip(ids, vectors)]
    write_features_csv(args.out, rows)
    print(f"wrote {len(rows)} feature vectors of dimension {len(rows[0][2])} to {args.out}")
    return 0


def _cmd_svm_fit(args) -> int:
    ids, labels, matrix = read_features_csv(args.features)
    if any(not label for label in labels):
        missing = ids[labels.index("")]
        raise ValueError(f"feature row {missing!r} has no label")
    if args.gamma == "auto":
        gamma = svm.default_gamma(matrix, seed=args.seed)
    else:
        gamma = float(args.gamma)
    model = svm.fit(
        matrix, labels, c_box=args.c_box,
        params=svm.KernelParams(gamma=gamma), tol=args.tol,
    )
    svm.save_model(model, args.out)
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
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(ids)} predictions to {args.out}")
    return 0


def _cmd_run(args, overrides=()) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config = pipeline.config_from_dict(doc)
    for dotted, raw in overrides:
        config = pipeline.apply_override(config, dotted, raw)
    result = pipeline.run_pipeline(config)
    print(f"overall accuracy {result.overall_accuracy!r} "
          f"over {result.confusion.total} videos in {len(result.fold_results)} folds")
    print(f"reports written to {config.output_dir}")
    return 0


def _cmd_eval(args) -> int:
    with open(args.predictions, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise DataFormatError(f"{args.predictions}: empty predictions table")
    header = lines[0].split(",")
    try:
        true_col = header.index("true_label")
        pred_col = header.index("predicted_label")
    except ValueError:
        raise DataFormatError(
            f"{args.predictions}: header must name true_label and predicted_label columns"
        ) from None
    pairs = []
    for lineno, line in enumerate(lines[1:], start=2):
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
        with open(os.path.join(args.out_dir, "confusion.csv"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(matrix.to_csv())
        with open(os.path.join(args.out_dir, "confusion.txt"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(matrix.to_text())
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_overrides(parser: _Parser, extras: list[str]):
    """Turn trailing --dotted.name value pairs into (name, value) tuples."""
    overrides = []
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--"):
            parser.error(f"unrecognized argument {token!r}")
        name, eq, value = token[2:].partition("=")
        if not eq:
            if i + 1 >= len(extras):
                parser.error(f"override {token!r} is missing a value")
            value = extras[i + 1]
            i += 2
        else:
            i += 1
        try:
            pipeline.config_field_for(name)
        except KeyError:
            parser.error(f"unknown config override {token!r}")
        overrides.append((name, value))
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if getattr(args, "allow_overrides", False):
        overrides = _parse_overrides(parser, extras)
    elif extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        if getattr(args, "allow_overrides", False):
            return args.func(args, overrides)
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc.__cause__, ConvergenceError) else 2
    except (DataFormatError, FileNotFoundError, NotADirectoryError, ValueError,
            KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
