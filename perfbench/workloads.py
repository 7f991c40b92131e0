"""The benchmark's workloads: seeded input generators and the protocol each runs.

Every input is generated from the benchmark seed with the program's own
writers (``corpus.save_corpus``, ``flow.write_pgm``, ``cli.write_features_csv``),
so the program under test receives only files.  A workload turns a
generated input directory into the ``motionpipe`` command lines of one
cold run and one warm run, names the report files that must be
byte-identical, and reads the overall accuracy back from them.
"""

from __future__ import annotations

import json
import os

import numpy as np

from motionpipe import cli, corpus, flow

REPORTS = ("accuracy.csv", "predictions.csv", "confusion.csv", "confusion.txt", "loss.csv")

# Fit entry points: any call to one of these during a warm run is a refit.
PIPELINE_FITS = ("pipeline.frames_to_sequence", "pca.fit", "cnn.train",
                 "svm.default_gamma", "svm.fit")


def _write_run_config(inputs: str, out: str, split: str, seed: int) -> str:
    path = out + ".config.json"
    doc = {"manifest": os.path.join(inputs, "manifest.json"), "output_dir": out,
           "split": split, "seed": seed}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _read(out: str, names) -> dict:
    reports = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            reports[name] = fh.read()
    return reports


def _overall_accuracy(reports: dict) -> float:
    for line in reports["accuracy.csv"].decode("utf-8").splitlines():
        if line.startswith("overall,"):
            return float(line.split(",", 1)[1])
    raise ValueError("accuracy.csv has no overall row")


class LoocvAcceptance:
    name = "loocv-acceptance"
    floor = 0.90  # acceptance criterion 4
    split = "loocv"
    warm_reps = 9  # a warm run takes about 1.5 s and varies by 15 % within a run
    min_rounds = 1
    refit_names = PIPELINE_FITS

    def generate(self, seed: int, dest: str) -> None:
        manifest, sequences, _ = corpus.generate_synthetic_corpus(
            classes=3, per_class=20, channels=8, min_len=40, max_len=80, seed=seed)
        corpus.save_corpus(manifest, sequences, dest)

    def cold_calls(self, inputs: str, out: str, seed: int) -> list:
        return [["run", "--config", _write_run_config(inputs, out, self.split, seed)]]

    def warm_calls(self, inputs: str, out: str, seed: int) -> list:
        return self.cold_calls(inputs, out, seed)

    def reports(self, out: str) -> dict:
        return _read(out, REPORTS)

    def accuracy(self, reports: dict) -> float:
        return _overall_accuracy(reports)


class FramesFixed(LoocvAcceptance):
    """Moving Gaussian blobs rendered to PGM frames; direction sets the class.

    The two PCA fits at the descriptor width n = 176 cost the same whatever
    the frame size, so the frames are small enough for three cold rounds
    per invocation while Jacobi PCA and flow still do the work.  Twenty
    frames is the shortest video the default CNN accepts.  Blob size,
    speed and offset scale with the frame side.
    """

    name = "frames-fixed"
    floor = 0.90
    split = "fixed"
    warm_reps = 5  # a warm run takes about 30 ms
    min_rounds = 3
    classes, per_class, frames, side = 3, 4, 20, 32

    def generate(self, seed: int, dest: str) -> None:
        rng = np.random.default_rng(seed)
        yy, xx = np.mgrid[0:self.side, 0:self.side].astype(np.float64)
        centre = (self.side - 1) / 2.0
        scale = self.side / 64.0
        entries = []
        for c in range(self.classes):
            for v in range(self.per_class):
                video_id = f"c{c}v{v:02d}"
                angle = 2.0 * np.pi * c / self.classes + rng.uniform(-0.15, 0.15)
                speed = scale * rng.uniform(1.2, 1.8)
                step = speed * np.array([np.cos(angle), np.sin(angle)])
                start = (centre - step * (self.frames - 1) / 2.0
                         + scale * rng.uniform(-4, 4, size=2))
                sigma = scale * rng.uniform(4.5, 6.0)
                vdir = os.path.join(dest, video_id)
                os.makedirs(vdir, exist_ok=True)
                for t in range(self.frames):
                    x0, y0 = start + t * step
                    blob = np.exp(-((xx - x0) ** 2 + (yy - y0) ** 2) / (2.0 * sigma ** 2))
                    img = 0.1 + 0.8 * blob + rng.normal(scale=0.01, size=blob.shape)
                    flow.write_pgm(flow.Frame(np.clip(img, 0.0, 1.0)),
                                   os.path.join(vdir, f"frame{t:03d}.pgm"))
                entries.append(corpus.ManifestEntry(
                    video_id=video_id, label=f"dir{c}", path=video_id, split_id=v % 2))
        corpus.save_manifest(corpus.Manifest(entries=tuple(entries)),
                             os.path.join(dest, "manifest.json"))


class SvmKfold:
    """ReLU-like feature rows, 5-way split, fitted and predicted through the CLI.

    Class c raises the mean of its own block of dim / classes features, so
    the classes overlap by the same amount for every seed; the seed draws
    the noise and the split.
    """

    name = "svm-kfold"
    floor = 0.85
    warm_reps = 4
    min_rounds = 1
    rows, dim, classes, k = 1200, 64, 4, 5
    refit_names = ("svm.default_gamma", "svm.fit")

    def generate(self, seed: int, dest: str) -> None:
        rng = np.random.default_rng(seed)
        block = self.dim // self.classes
        centres = np.zeros((self.classes, self.dim))
        for c in range(self.classes):
            centres[c, c * block:(c + 1) * block] = 0.8
        labels = np.arange(self.rows) % self.classes
        x = centres[labels] + rng.normal(size=(self.rows, self.dim)) - 0.1
        x = np.maximum(x, 0.0)  # about half the entries become exact zeros
        order = rng.permutation(self.rows)
        os.makedirs(dest, exist_ok=True)
        for fold in range(self.k):
            test = order[fold::self.k]
            train = np.setdiff1d(order, test, assume_unique=True)
            for part, idx in (("train", train), ("test", test)):
                cli.write_features_csv(
                    os.path.join(dest, f"{part}{fold}.csv"),
                    [(f"r{i:04d}", f"k{labels[i]}", x[i]) for i in idx])

    def _predict(self, inputs: str, out: str, fold: int) -> list:
        return ["predict", "--model", os.path.join(out, f"model{fold}.svm"),
                "--features", os.path.join(inputs, f"test{fold}.csv"),
                "--out", os.path.join(out, f"pred{fold}.csv")]

    def cold_calls(self, inputs: str, out: str, seed: int) -> list:
        os.makedirs(out, exist_ok=True)
        calls = []
        for fold in range(self.k):
            calls.append(["svm-fit", "--features", os.path.join(inputs, f"train{fold}.csv"),
                          "--out", os.path.join(out, f"model{fold}.svm")])
            calls.append(self._predict(inputs, out, fold))
        return calls

    def warm_calls(self, inputs: str, out: str, seed: int) -> list:
        return [self._predict(inputs, out, fold) for fold in range(self.k)]

    def reports(self, out: str) -> dict:
        return _read(out, [f"pred{fold}.csv" for fold in range(self.k)])

    def accuracy(self, reports: dict) -> float:
        right = total = 0
        for text in reports.values():
            for line in text.decode("utf-8").splitlines()[1:]:
                _, true, predicted = line.split(",")
                right += true == predicted
                total += 1
        return right / total


WORKLOADS = {w.name: w for w in (LoocvAcceptance(), FramesFixed(), SvmKfold())}
