"""Chi-squared-kernel SVM trained by SMO, one binary machine per class.

Features must be nonnegative (the chi-squared distance divides by
x_i + y_i).  The solver is a deterministic SMO: each step pairs the
maximal KKT violator with the partner of greatest second-order gain,
with ties broken towards the lowest index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataFormatError

SVM_MAGIC = b"SVM1"

DEFAULT_C_BOX = 10.0
DEFAULT_TOL = 1e-3
MAX_SMO_STEPS = 10**6

_SUPPORT_EPS = 1e-10  # alphas at or below this are not support vectors
_BLOCK_ELEMENTS = 2**20  # values per chi-squared temporary (8 MB of float64)


@dataclass(frozen=True)
class KernelParams:
    gamma: float
    epsilon_denominator: float = 1e-12

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ValueError("gamma must be positive and finite")
        if self.epsilon_denominator <= 0:
            raise ValueError("epsilon_denominator must be positive")


@dataclass(frozen=True)
class BinarySvm:
    """One one-vs-rest machine: indices into the shared feature matrix."""

    support_indices: np.ndarray  # int, ascending
    coefficients: np.ndarray     # alpha_i * y_i at the support indices
    bias: float
    c_box: float


@dataclass(frozen=True)
class SvmModel:
    labels: tuple          # sorted class labels, one machine each
    machines: tuple        # BinarySvm per label
    features: np.ndarray   # shared training matrix the indices refer to
    params: KernelParams

    def __post_init__(self):
        if len(self.labels) != len(self.machines):
            raise ValueError("one binary machine per label required")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def _check_nonneg(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("chi-squared kernel requires finite features")
    if np.any(x < 0):
        raise ValueError("chi-squared kernel requires nonnegative features")


def chi2_distance_matrix(x: np.ndarray, y: np.ndarray, eps: float) -> np.ndarray:
    """Pairwise chi-squared distances between rows of x and rows of y.

    Rows of x are taken in blocks, so each temporary holds about
    _BLOCK_ELEMENTS values (never less than one row of x against all of
    y) instead of growing with the row count of x.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_nonneg(x)
    _check_nonneg(y)
    out = np.empty((x.shape[0], y.shape[0]))
    rows = max(1, _BLOCK_ELEMENTS // max(1, y.size))
    for start in range(0, x.shape[0], rows):
        xb = x[start : start + rows, None, :]
        diff = xb - y[None, :, :]
        denom = xb + y[None, :, :] + eps
        np.sum(diff * diff / denom, axis=2, out=out[start : start + rows])
    return out


def chi2_kernel(x: np.ndarray, y: np.ndarray, params: KernelParams) -> float:
    """K(x, y) = exp(-gamma * sum_i (x_i - y_i)^2 / (x_i + y_i + eps))."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("kernel arguments must be vectors of equal length")
    d = chi2_distance_matrix(x[None], y[None], params.epsilon_denominator)[0, 0]
    return float(np.exp(-params.gamma * d))


def chi2_gram(x: np.ndarray, y: np.ndarray, params: KernelParams) -> np.ndarray:
    return np.exp(-params.gamma * chi2_distance_matrix(x, y, params.epsilon_denominator))


def default_gamma(features, seed: int = 0) -> float:
    """1 / mean pairwise chi-squared distance of the training features.

    All pairs when S <= 200; 1000 seeded random pairs otherwise.
    """
    x = np.stack([np.asarray(f, dtype=np.float64) for f in features])
    if x.shape[0] < 2:
        raise ValueError("default_gamma needs at least 2 features")
    _check_nonneg(x)
    s = x.shape[0]
    if s <= 200:
        d = chi2_distance_matrix(x, x, 1e-12)
        mean = d[np.triu_indices(s, k=1)].mean()
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, s, size=1000)
        j = rng.integers(0, s - 1, size=1000)
        j = j + (j >= i)  # shift past i so pairs are always distinct
        diff = x[i] - x[j]
        mean = float(np.sum(diff * diff / (x[i] + x[j] + 1e-12), axis=1).mean())
    if mean <= 0:
        raise ValueError("all features identical: mean chi-squared distance is zero")
    return float(1.0 / mean)


def concat_features(primary: np.ndarray, auxiliary: np.ndarray) -> np.ndarray:
    """Append an auxiliary descriptor to a learned feature vector."""
    primary = np.asarray(primary, dtype=np.float64)
    auxiliary = np.asarray(auxiliary, dtype=np.float64)
    _check_nonneg(primary)
    _check_nonneg(auxiliary)
    return np.concatenate([primary, auxiliary])


# ---------------------------------------------------------------------------
# SMO solver
# ---------------------------------------------------------------------------

_BOUND_EPS = 1e-8  # alphas this close to a box bound count as on it


def kkt_violation(alpha: np.ndarray, y: np.ndarray, errors: np.ndarray,
                  c_box: float, tol: float) -> np.ndarray:
    """Per-sample KKT violation magnitude; convergence means all <= tol."""
    ye = y * errors
    low = np.where(alpha < c_box - _BOUND_EPS, np.maximum(0.0, -ye), 0.0)
    high = np.where(alpha > _BOUND_EPS, np.maximum(0.0, ye), 0.0)
    return np.maximum(low, high)


def _smo(gram: np.ndarray, y: np.ndarray, c_box: float, tol: float):
    """Solve the binary SVM dual; returns (alpha, bias).

    maximize  sum(alpha) - 0.5 * sum_ij alpha_i alpha_j y_i y_j K_ij
    subject to 0 <= alpha <= c_box, sum(alpha * y) = 0

    Maximal-violating-pair selection: i is the extreme index of the
    "up" set, j maximizes the second-order gain (F_j - F_i)^2 / eta_ij
    over the "low" set, ties to the lowest index.  Converged when the
    up/low gap closes to 2*tol; the bias is the centre of the final
    KKT interval, so every per-index violation is at most tol.
    """
    s = y.size
    alpha = np.zeros(s)
    f_err = -y.astype(np.float64)  # F_t = sum_j alpha_j y_j K_tj - y_t, bias-free
    diag = np.diag(gram)
    indices = np.arange(s)
    steps = 0

    while True:
        pos = y > 0
        at_c = alpha >= c_box - _BOUND_EPS
        at_zero = alpha <= _BOUND_EPS
        up = (pos & ~at_c) | (~pos & ~at_zero)
        low = (~pos & ~at_c) | (pos & ~at_zero)
        b_up = float(np.where(up, f_err, np.inf).min())
        b_low = float(np.where(low, f_err, -np.inf).max())
        if b_low - b_up <= 2.0 * tol:
            break

        i = int(np.argmin(np.where(up, f_err, np.inf)))
        diff = f_err - f_err[i]
        cand = low & (diff > 0.0)
        eta = np.maximum(gram[i, i] + diag - 2.0 * gram[i], 1e-12)
        score = np.where(cand, diff * diff / eta, -np.inf)
        moved = False
        for j in np.lexsort((indices, -score)):
            if not cand[j]:
                break
            steps += 1
            if steps > MAX_SMO_STEPS:
                raise ConvergenceError("SMO not converged")
            if _smo_step(gram, y, alpha, f_err, i, j, c_box):
                moved = True
                break
        if not moved:
            raise ConvergenceError("SMO not converged")

    if not np.isfinite(b_up):
        b_up = b_low if np.isfinite(b_low) else 0.0
    if not np.isfinite(b_low):
        b_low = b_up
    return alpha, -0.5 * (b_up + b_low)


def _smo_step(gram, y, alpha, errors, i, j, c_box) -> bool:
    """Attempt a joint update of (alpha_i, alpha_j); True if it moved."""
    if i == j:
        return False
    a_i, a_j = alpha[i], alpha[j]
    s = y[i] * y[j]
    if s < 0:
        low = max(0.0, a_j - a_i)
        high = min(c_box, c_box + a_j - a_i)
    else:
        low = max(0.0, a_i + a_j - c_box)
        high = min(c_box, a_i + a_j)
    if low >= high:
        return False
    eta = gram[i, i] + gram[j, j] - 2.0 * gram[i, j]
    e_i, e_j = errors[i], errors[j]
    if eta > 0:
        a_j_new = a_j + y[j] * (e_i - e_j) / eta
        a_j_new = min(high, max(low, a_j_new))
    else:
        # flat or concave direction: the maximum sits at an interval end
        slope = y[j] * (e_i - e_j)
        obj_low = slope * (low - a_j) - 0.5 * eta * (low - a_j) ** 2
        obj_high = slope * (high - a_j) - 0.5 * eta * (high - a_j) ** 2
        if max(obj_low, obj_high) <= 1e-12:
            return False
        a_j_new = low if obj_low >= obj_high else high
    if a_j_new < _BOUND_EPS:
        a_j_new = 0.0
    elif a_j_new > c_box - _BOUND_EPS:
        a_j_new = c_box
    # reject insignificant moves, or pair scans stall on nano-steps
    if abs(a_j_new - a_j) < 1e-8 * (a_j_new + a_j + 1e-8):
        return False
    a_i_new = a_i + s * (a_j - a_j_new)
    if a_i_new < _BOUND_EPS:
        a_i_new = 0.0
    elif a_i_new > c_box - _BOUND_EPS:
        a_i_new = c_box
    alpha[i] = a_i_new
    alpha[j] = a_j_new
    errors += (
        y[i] * (a_i_new - a_i) * gram[i]
        + y[j] * (a_j_new - a_j) * gram[j]
    )
    return True


def dual_objective(gram: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    q = gram * np.outer(y, y)
    return float(alpha.sum() - 0.5 * alpha @ q @ alpha)


# ---------------------------------------------------------------------------
# Multi-class fit / predict
# ---------------------------------------------------------------------------

def fit(features, labels, c_box: float = DEFAULT_C_BOX,
        params: KernelParams | None = None, tol: float = DEFAULT_TOL) -> SvmModel:
    """Train one-vs-rest chi-squared SVMs over nonnegative feature vectors.

    When ``params`` is omitted, gamma defaults to the inverse mean
    pairwise chi-squared distance of the training set.
    """
    x = np.stack([np.asarray(f, dtype=np.float64) for f in features])
    labels = list(labels)
    if len(labels) != x.shape[0]:
        raise ValueError("labels must match feature count")
    _check_nonneg(x)
    if c_box <= 0:
        raise ValueError("c_box must be positive")
    class_labels = sorted(set(labels))
    if len(class_labels) < 2:
        raise ValueError("training data must contain at least 2 classes")
    if params is None:
        params = KernelParams(gamma=default_gamma(x))

    gram = chi2_gram(x, x, params)
    machines = []
    label_arr = np.array(labels)
    for cls in class_labels:
        y = np.where(label_arr == cls, 1.0, -1.0)
        alpha, bias = _smo(gram, y, c_box, tol)
        support = np.flatnonzero(alpha > _SUPPORT_EPS)
        machines.append(
            BinarySvm(
                support_indices=support,
                coefficients=alpha[support] * y[support],
                bias=bias,
                c_box=c_box,
            )
        )
    return SvmModel(
        labels=tuple(class_labels),
        machines=tuple(machines),
        features=x,
        params=params,
    )


def decision_values(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """Per-class decision values for a batch of feature rows."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature length {x.shape[1]} does not match model dimension {model.feature_dim}"
        )
    gram = chi2_gram(x, model.features, model.params)
    out = np.empty((x.shape[0], len(model.machines)))
    for k, machine in enumerate(model.machines):
        out[:, k] = gram[:, machine.support_indices] @ machine.coefficients + machine.bias
    return out


def predict(model: SvmModel, feature: np.ndarray):
    """Predicted label plus the per-class decision values.

    Ties resolve to the first label in sorted order.
    """
    values = decision_values(model, np.asarray(feature, dtype=np.float64)[None])[0]
    return model.labels[int(np.argmax(values))], values


def predict_batch(model: SvmModel, features) -> list:
    values = decision_values(model, np.stack([np.asarray(f) for f in features]))
    return [model.labels[int(k)] for k in np.argmax(values, axis=1)]


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------

def save_model(model: SvmModel, path) -> None:
    """Write SVM1: header, then per class the supports, coefficients, bias."""
    with open(path, "wb") as fh:
        fh.write(SVM_MAGIC)
        fh.write(struct.pack("<II", len(model.labels), model.feature_dim))
        fh.write(struct.pack("<dd", model.params.gamma, model.params.epsilon_denominator))
        for label, machine in zip(model.labels, model.machines):
            encoded = str(label).encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            sv = model.features[machine.support_indices]
            fh.write(struct.pack("<I", sv.shape[0]))
            fh.write(np.ascontiguousarray(sv).astype("<f4").tobytes())
            fh.write(machine.coefficients.astype("<f8").tobytes())
            fh.write(struct.pack("<d", machine.bias))


def load_model(path) -> SvmModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != SVM_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 28:
        raise DataFormatError(f"{path}: truncated header")
    n_classes, dim = struct.unpack_from("<II", blob, 4)
    gamma, eps = struct.unpack_from("<dd", blob, 12)
    off = 28
    labels = []
    blocks = []
    biases = []
    coeff_blocks = []
    for _ in range(n_classes):
        if len(blob) < off + 4:
            raise DataFormatError(f"{path}: truncated class block")
        (label_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        if len(blob) < off + label_len + 4:
            raise DataFormatError(f"{path}: truncated class block")
        labels.append(blob[off : off + label_len].decode("utf-8"))
        off += label_len
        (n_sv,) = struct.unpack_from("<I", blob, off)
        off += 4
        need = 4 * n_sv * dim + 8 * n_sv + 8
        if len(blob) < off + need:
            raise DataFormatError(f"{path}: truncated class block")
        sv = np.frombuffer(blob, dtype="<f4", count=n_sv * dim, offset=off)
        off += 4 * n_sv * dim
        coeffs = np.frombuffer(blob, dtype="<f8", count=n_sv, offset=off)
        off += 8 * n_sv
        (bias,) = struct.unpack_from("<d", blob, off)
        off += 8
        blocks.append(sv.astype(np.float64).reshape(n_sv, dim))
        coeff_blocks.append(coeffs.copy())
        biases.append(bias)
    if off != len(blob):
        raise DataFormatError(f"{path}: trailing bytes")
    if len(set(labels)) != len(labels):
        raise DataFormatError(f"{path}: duplicate class labels")

    features = (
        np.vstack(blocks) if blocks and sum(b.shape[0] for b in blocks) else np.zeros((0, dim))
    )
    machines = []
    start = 0
    for sv, coeffs, bias in zip(blocks, coeff_blocks, biases):
        idx = np.arange(start, start + sv.shape[0])
        start += sv.shape[0]
        machines.append(
            BinarySvm(support_indices=idx, coefficients=coeffs, bias=bias, c_box=np.nan)
        )
    return SvmModel(
        labels=tuple(labels),
        machines=tuple(machines),
        features=features,
        params=KernelParams(gamma=gamma, epsilon_denominator=eps),
    )
