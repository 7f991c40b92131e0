"""PCA channel reduction with Proportion-of-Variance selection.

The covariance of the pooled training descriptors is diagonalised with
LAPACK's symmetric eigensolver (``np.linalg.eigh``).  The retained
channel count m is the smallest k whose top-k eigenvalue mass reaches
the requested proportion of total variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arrays
from .errors import ConvergenceError, DataFormatError


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
    """Fitted PCA basis: mean, eigenvalues (all n, descending), top-m components.

    Built by ``fit``, or by ``load_model``, which checks a file's arrays.
    """

    mean: np.ndarray  # n, float64
    eigenvalues: np.ndarray  # n, descending, nonnegative
    components: np.ndarray  # m x n, 1 <= m <= n, rows = unit eigenvectors
    pov_achieved: float

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
    >= ``pov_threshold``, which lies in (0, 1].  Eigenvector signs follow
    a fixed convention (largest-magnitude entry positive) so refits
    reproduce bitwise.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"samples must be 2-D, got shape {x.shape}")
    s, n = x.shape
    if s < 2:
        raise ValueError("need at least 2 samples to fit")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")

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


def transform(model: PcaModel, rows: np.ndarray) -> np.ndarray:
    """Project T x n descriptor rows onto the retained components.

    Output channel c at time t is components[c] . (rows[t] - mean); the
    result is channel-major m x T float64.  A projection that overflows
    float64 is a ``ValueError``, not a warning.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"rows of shape {x.shape} do not match model dim {model.input_dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        projected = (x - model.mean) @ model.components.T  # T x m
    if not np.isfinite(projected).all():
        raise ValueError("projected values must be finite")
    return projected.T


def save_model(model: PcaModel, path) -> None:
    """Write the arrays ``mean``, ``eigenvalues`` and ``components`` (float64)."""
    arrays.write(path, mean=model.mean, eigenvalues=model.eigenvalues,
                 components=model.components)


def load_model(path) -> PcaModel:
    stored = arrays.load(path, mean=("<f8", (None,)), eigenvalues=("<f8", (None,)),
                         components=("<f8", (None, None)))
    # copies, so that the model does not hold on to the file's bytes
    mean, eigvals, comps = (stored[name].copy() for name in ("mean", "eigenvalues", "components"))
    n, m = mean.size, comps.shape[0]
    if n < 1 or m < 1 or m > n or eigvals.size != n or comps.shape[1] != n:
        raise DataFormatError(f"{path}: invalid dimensions: mean {mean.shape}, "
                              f"eigenvalues {eigvals.shape}, components {comps.shape}")
    if not (np.isfinite(mean).all() and np.isfinite(eigvals).all() and np.isfinite(comps).all()):
        raise DataFormatError(f"{path}: model values must be finite")
    if np.any(eigvals < 0.0) or np.any(np.diff(eigvals) > 0.0):
        raise DataFormatError(f"{path}: eigenvalues must be nonnegative and non-increasing")
    with np.errstate(over="ignore"):
        total = eigvals.sum()
    if not np.isfinite(total):
        raise DataFormatError(f"{path}: eigenvalue sum overflows float64")
    pov = float(eigvals[:m].sum() / total) if total > 0 else 1.0
    return PcaModel(mean=mean, eigenvalues=eigvals, components=comps, pov_achieved=pov)
