"""PCA channel reduction with Proportion-of-Variance selection.

The covariance of the pooled training descriptors is diagonalised with
LAPACK's symmetric eigensolver (``np.linalg.eigh``).  The retained
channel count m is the smallest k whose top-k eigenvalue mass reaches
the requested proportion of total variance.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .corpus import DescriptorSequence, MultiChannelSeries
from .errors import ConvergenceError, DataFormatError

PCA_MAGIC = b"PCA1"


def _normalize_signs(components: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive."""
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))  # ties resolve to the lowest index
        if out[i, j] < 0.0:
            out[i] = -out[i]
    return out


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA basis: mean, eigenvalues (all n, descending), top-m components."""

    mean: np.ndarray  # n
    eigenvalues: np.ndarray  # n, descending, nonnegative
    components: np.ndarray  # m x n, rows = unit eigenvectors
    pov_achieved: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        comp = np.asarray(self.components, dtype=np.float64)
        n = mean.shape[0]
        if eig.shape != (n,) or comp.ndim != 2 or comp.shape[1] != n:
            raise ValueError("inconsistent model shapes")
        if comp.shape[0] < 1 or comp.shape[0] > n:
            raise ValueError("retained channel count out of range")
        if np.any(eig < 0.0) or np.any(np.diff(eig) > 0.0):
            raise ValueError("eigenvalues must be nonnegative and non-increasing")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "components", comp)

    @property
    def input_dim(self) -> int:
        return self.mean.shape[0]

    @property
    def channels(self) -> int:
        return self.components.shape[0]


def fit(samples: np.ndarray, pov_threshold: float) -> PcaModel:
    """Fit PCA on pooled descriptors and retain channels by variance mass.

    ``samples`` is an S x n matrix with one descriptor per row.  The
    channel count m is the smallest k with cumulative eigenvalue ratio
    >= ``pov_threshold``.  Eigenvector signs follow a fixed convention
    (largest-magnitude entry positive) so refits reproduce bitwise.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"samples must be 2-D, got shape {x.shape}")
    s, n = x.shape
    if s < 2:
        raise ValueError("need at least 2 samples to fit")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if not 0.0 < pov_threshold <= 1.0:
        raise ValueError("pov_threshold must be in (0, 1]")

    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (s - 1)

    try:
        eigvals, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    eigvals = np.maximum(eigvals, 0.0)  # round-off can leave tiny negatives
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    basis = _normalize_signs(eigvecs[:, order].T)  # n x n, row i = i-th eigenvector

    cumulative = np.cumsum(eigvals)
    if cumulative[-1] <= 0.0:
        raise ValueError("degenerate data: zero total variance")
    cumulative /= cumulative[-1]  # last entry exactly 1
    m = int(np.searchsorted(cumulative, pov_threshold) + 1)
    m = min(m, n)
    return PcaModel(
        mean=mean,
        eigenvalues=eigvals,
        components=basis[:m],
        pov_achieved=float(cumulative[m - 1]),
    )


def transform(model: PcaModel, seq: DescriptorSequence) -> MultiChannelSeries:
    """Project a descriptor sequence onto the retained components.

    Output channel c at time t is components[c] . (seq[t] - mean); the
    result is channel-major m x T.
    """
    if seq.dim != model.input_dim:
        raise ValueError(f"sequence dim {seq.dim} != model dim {model.input_dim}")
    centered = seq.data.astype(np.float64) - model.mean
    projected = centered @ model.components.T  # T x m
    return MultiChannelSeries(video_id=seq.video_id, data=projected.T)


def inverse_transform(model: PcaModel, series: MultiChannelSeries) -> np.ndarray:
    """Map an m x L series back to descriptor space; returns L x n float64."""
    if series.channels != model.channels:
        raise ValueError(f"series channels {series.channels} != model channels {model.channels}")
    return series.data.T @ model.components + model.mean


def explained_variance_curve(model: PcaModel) -> np.ndarray:
    """Cumulative proportion of variance per retained count, ending at 1."""
    cumulative = np.cumsum(model.eigenvalues)
    if cumulative[-1] <= 0.0:
        raise ValueError("degenerate model: zero total variance")
    return cumulative / cumulative[-1]


def save_model(model: PcaModel, path) -> None:
    """Write PCA1: magic, u32 n, u32 m, mean, eigenvalues, components (f64 LE)."""
    n = model.input_dim
    m = model.channels
    with open(path, "wb") as fh:
        fh.write(PCA_MAGIC)
        fh.write(struct.pack("<II", n, m))
        fh.write(model.mean.astype("<f8").tobytes())
        fh.write(model.eigenvalues.astype("<f8").tobytes())
        fh.write(np.ascontiguousarray(model.components).astype("<f8").tobytes())


def load_model(path) -> PcaModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != PCA_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise DataFormatError(f"{path}: truncated header")
    n, m = struct.unpack_from("<II", blob, 4)
    if n < 1 or m < 1 or m > n:
        raise DataFormatError(f"{path}: invalid dimensions n={n}, m={m}")
    expected = 12 + 8 * (n + n + m * n)
    if len(blob) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    off = 12
    mean = np.frombuffer(blob, dtype="<f8", count=n, offset=off).copy()
    off += 8 * n
    eigvals = np.frombuffer(blob, dtype="<f8", count=n, offset=off).copy()
    off += 8 * n
    comps = np.frombuffer(blob, dtype="<f8", count=m * n, offset=off).reshape(m, n).copy()
    total = eigvals.sum()
    pov = float(eigvals[:m].sum() / total) if total > 0 else 1.0
    return PcaModel(mean=mean, eigenvalues=eigvals, components=comps, pov_achieved=pov)
