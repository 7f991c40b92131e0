"""Chi-squared-kernel SVM trained by SMO, one binary machine per class.

Features must be nonnegative (the chi-squared distance divides by
x_i + y_i).  The solver is a deterministic SMO: each step pairs the
maximal KKT violator with the partner of greatest second-order gain,
with ties broken towards the lowest index.

A large fit (from _FORK_TERMS pair-dimension terms) runs on both CPUs:
its Gram's row blocks, then its one-vs-rest machines, are split between
this process and one forked child through ``workers.fork_map``, which
also says when nothing forks.  Each block and each machine is the serial
computation, so the model is the serial model bit for bit.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import ConvergenceError, DataFormatError

SVM_MAGIC = b"SVM1"

DEFAULT_C_BOX = 10.0
DEFAULT_TOL = 1e-3
MAX_SMO_STEPS = 10**6

_SUPPORT_EPS = 1e-10  # alphas at or below this are not support vectors
_BLOCK_ELEMENTS = 2**15  # values per chi-squared temporary (256 KB of float64)
# Row pairs times d from which a distance matrix, and a fit's machines, are
# split with one forked child.  A fork_map of two empty tasks costs 5 ms
# from a 55 MB process, and two processes side by side each run slower than
# one alone, so on 2 CPUs a split of the distances saved nothing at 3M terms
# (21 ms serial) and 29 % at 2**24 (95 -> 68 ms), about 19 fork costs of
# serial work.  A 960-row fit of 64 features (30M) splits; a 240 x 594 x 64
# predict (9M) and a LOOCV fold's fit stay serial.
_FORK_TERMS = 2**24


@dataclass(frozen=True)
class KernelParams:
    gamma: float
    epsilon_denominator: float = 1e-12

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ValueError("gamma must be positive and finite")
        if not np.isfinite(self.epsilon_denominator) or self.epsilon_denominator <= 0:
            raise ValueError("epsilon_denominator must be positive and finite")


@dataclass(frozen=True)
class BinarySvm:
    """One one-vs-rest machine: indices into the shared feature matrix."""

    support_indices: np.ndarray  # int rows of SvmModel.features
    coefficients: np.ndarray     # alpha_i * y_i at the support indices
    bias: float
    c_box: float


@dataclass(frozen=True)
class SvmModel:
    labels: tuple          # sorted class labels, one machine each
    machines: tuple        # BinarySvm per label
    features: np.ndarray   # shared rows the indices refer to
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

    Rows of x are taken in blocks of about _BLOCK_ELEMENTS values (never
    less than one row of x against all of y) in two contiguous buffers
    allocated once per process.  A block tiles its x rows into the first,
    adds y into the second and subtracts y from the first, so each term
    and its sum over d equal the broadcast formula's bit for bit.  When
    y is x, each block computes only the columns from its own first row
    onward and mirrors them into the lower triangle; the chi-squared
    terms are symmetric bit for bit, so this equals the full result.

    From _FORK_TERMS pair-dimension terms on, the blocks are split at a
    block boundary, by pair count, between this process and one forked
    child (``workers.fork_map``), which write into one shared anonymous
    mmap; each mirrors its own blocks.  Every block is the serial block.
    """
    symmetric = y is x
    x = np.asarray(x, dtype=np.float64)
    y = x if symmetric else np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("kernel arguments must be rows of equal length")
    _check_nonneg(x)
    _check_nonneg(y)
    n, m = x.shape[0], y.shape[0]
    rows = max(1, _BLOCK_ELEMENTS // max(1, y.size))
    starts = np.arange(0, n, rows)
    # the row pairs of each block: its rows against y, or against y from its first row on
    pairs = np.minimum(rows, n - starts) * (m - starts if symmetric else m)
    if starts.size < 2 or pairs.sum() * x.shape[1] < _FORK_TERMS:
        out = np.empty((n, m))
        parts = [starts]
    else:
        import mmap

        out = np.frombuffer(mmap.mmap(-1, 8 * n * m), dtype=np.float64).reshape(n, m)
        cut = np.abs(np.cumsum(pairs) - pairs.sum() / 2).argmin() + 1
        parts = np.split(starts, [min(cut, starts.size - 1)])
    tasks = {k: functools.partial(_distance_blocks, x, y, eps, symmetric, rows, part, out)
             for k, part in enumerate(parts)}
    for outcome in workers.fork_map(tasks).values():
        workers.take(outcome)
    return out


def _distance_blocks(x, y, eps, symmetric, rows, starts, out) -> None:
    """The chi-squared distances of the row blocks at ``starts``, written into ``out``."""
    buffers = np.empty((2, min(rows, x.shape[0]) * y.size))
    for start in starts:
        stop = min(start + rows, x.shape[0])
        first = start if symmetric else 0
        yb = y[first:]
        shape = (stop - start, yb.shape[0], y.shape[1])
        diff, denom = (b[: shape[0] * yb.size].reshape(shape) for b in buffers)
        diff[...] = x[start:stop, None, :]
        np.add(diff, yb, out=denom)
        diff -= yb
        denom += eps
        diff *= diff
        diff /= denom
        np.sum(diff, axis=2, out=out[start:stop, first:])
        if symmetric:
            out[stop:, start:stop] = out[start:stop, stop:].T


def chi2_gram(x: np.ndarray, y: np.ndarray, params: KernelParams) -> np.ndarray:
    """K(x, y) = exp(-gamma * sum_i (x_i - y_i)^2 / (x_i + y_i + eps)) for every row pair."""
    return np.exp(-params.gamma * chi2_distance_matrix(x, y, params.epsilon_denominator))


def default_gamma(features, seed: int = 0) -> float:
    """1 / mean pairwise chi-squared distance of the training features.

    All pairs when S <= 200; 1000 seeded random pairs otherwise.
    """
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
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
    over the "low" set, ties to the lowest index; a step recomputes the
    sets only at the two alphas it moved.  Converged when the up/low gap
    closes to 2*tol; the bias is the centre of the final KKT interval,
    so every per-index violation is at most tol.
    """
    s = y.size
    alpha = np.zeros(s)
    f_err = -y.astype(np.float64)  # F_t = sum_j alpha_j y_j K_tj - y_t, bias-free
    diag = np.diag(gram)
    indices = np.arange(s)
    steps = 0
    pos = y > 0
    below_c, above_zero = ~(alpha >= c_box - _BOUND_EPS), ~(alpha <= _BOUND_EPS)
    up, low = np.where(pos, below_c, above_zero), np.where(pos, above_zero, below_c)

    while True:
        f_up = np.where(up, f_err, np.inf)
        i = int(f_up.argmin())
        b_up = float(f_up[i])
        b_low = float(np.where(low, f_err, -np.inf).max())
        if b_low - b_up <= 2.0 * tol:
            break

        diff = f_err - f_err[i]
        cand = low & (diff > 0.0)
        eta = np.maximum(gram[i, i] + diag - 2.0 * gram[i], 1e-12)
        score = np.where(cand, diff * diff / eta, -np.inf)
        moved = False
        for j in _partners(score, indices):
            if not cand[j]:
                break
            steps += 1
            if steps > MAX_SMO_STEPS:
                raise ConvergenceError("SMO not converged")
            if _smo_step(gram, y, alpha, f_err, i, j, c_box):
                moved = True
                for t in (i, j):  # only alpha_i and alpha_j moved
                    a = alpha.item(t)
                    below_c, above_zero = not a >= c_box - _BOUND_EPS, not a <= _BOUND_EPS
                    up[t], low[t] = (below_c, above_zero) if pos[t] else (above_zero, below_c)
                break
        if not moved:
            raise ConvergenceError("SMO not converged")

    if not np.isfinite(b_up):
        b_up = b_low if np.isfinite(b_low) else 0.0
    if not np.isfinite(b_low):
        b_low = b_up
    return alpha, -0.5 * (b_up + b_low)


def _partners(score: np.ndarray, indices: np.ndarray):
    """Partner candidates by descending score, ties to the lowest index.

    The first is np.argmax (the lowest index among equal maxima); the
    full sort runs only if the caller asks for a second.
    """
    yield int(score.argmax())
    yield from np.lexsort((indices, -score))[1:]


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

    From _FORK_TERMS pair-dimension terms of the Gram's upper triangle on,
    the machines are split as the Gram's blocks are: this process trains
    those of the first, third, ... label, one forked child the others, and
    the results are put back in label order.  If both fail, this process's
    failure is raised.
    """
    x = np.stack([np.asarray(f, dtype=np.float64) for f in features])
    labels = list(labels)
    if len(labels) != x.shape[0]:
        raise ValueError("labels must match feature count")
    _check_nonneg(x)
    if not 0.0 < c_box < np.inf:
        raise ValueError("c_box must be positive and finite")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    class_labels = sorted(set(labels))
    if len(class_labels) < 2:
        raise ValueError("training data must contain at least 2 classes")
    if params is None:
        params = KernelParams(gamma=default_gamma(x))

    gram = chi2_gram(x, x, params)
    label_arr = np.array(labels)
    ys = [np.where(label_arr == cls, 1.0, -1.0) for cls in class_labels]
    ways = 2 if x.shape[0] * (x.shape[0] + 1) // 2 * x.shape[1] >= _FORK_TERMS else 1
    outcomes = workers.fork_map({
        k: functools.partial(_machines, gram, ys[k::ways], c_box, tol) for k in range(ways)
    })
    solved = [None] * len(ys)
    for k in range(ways):
        solved[k::ways] = workers.take(outcomes[k])
    machines = []
    for y, (alpha, bias) in zip(ys, solved):
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


def _machines(gram, ys, c_box, tol) -> list:
    """(alpha, bias) of the SMO machine for each of the one-vs-rest targets ``ys``."""
    return [_smo(gram, y, c_box, tol) for y in ys]


def decision_values(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """Per-class decision values for feature rows; a row's values do not depend on the batch."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature length {x.shape[1]} does not match model dimension {model.feature_dim}"
        )
    # the kernel is evaluated once per support vector, whichever machines use it
    used = np.zeros(model.features.shape[0], dtype=bool)
    for machine in model.machines:
        used[machine.support_indices] = True
    column = np.cumsum(used) - 1  # a used row's column in the Gram matrix
    gram = chi2_gram(x, model.features[used], model.params)
    out = np.empty((x.shape[0], len(model.machines)))
    for k, machine in enumerate(model.machines):
        # C-contiguous columns summed row by row: a GEMV sums one row and many differently
        terms = gram.take(column[machine.support_indices], axis=1)
        out[:, k] = (terms * machine.coefficients).sum(axis=1) + machine.bias
    return out


def predict_batch(model: SvmModel, features) -> list:
    """The predicted label of each feature row; ties go to the first sorted label."""
    return [model.labels[int(k)] for k in np.argmax(decision_values(model, features), axis=1)]


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
    """Read SVM1; support vectors shared by several machines are stored once."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != SVM_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 28:
        raise DataFormatError(f"{path}: truncated header")
    n_classes, dim = struct.unpack_from("<II", blob, 4)
    if n_classes < 2:
        raise DataFormatError(f"{path}: need at least 2 classes, got {n_classes}")
    if dim < 1:
        raise DataFormatError(f"{path}: feature dimension must be at least 1, got {dim}")
    gamma, eps = struct.unpack_from("<dd", blob, 12)
    try:
        params = KernelParams(gamma=gamma, epsilon_denominator=eps)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    off = 28
    labels = []
    rows: dict = {}  # float32 bytes of each distinct support vector -> its row
    machines = []
    for _ in range(n_classes):
        if len(blob) < off + 4:
            raise DataFormatError(f"{path}: truncated class block")
        (label_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        if len(blob) < off + label_len + 4:
            raise DataFormatError(f"{path}: truncated class block")
        try:
            labels.append(blob[off : off + label_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: class label is not UTF-8") from exc
        off += label_len
        (n_sv,) = struct.unpack_from("<I", blob, off)
        off += 4
        need = 4 * n_sv * dim + 8 * n_sv + 8
        if len(blob) < off + need:
            raise DataFormatError(f"{path}: truncated class block")
        width = 4 * dim
        support = np.array(
            [rows.setdefault(blob[off + r * width : off + (r + 1) * width], len(rows))
             for r in range(n_sv)],
            dtype=np.int64,
        )
        off += n_sv * width
        coeffs = np.frombuffer(blob, dtype="<f8", count=n_sv, offset=off).copy()
        off += 8 * n_sv
        (bias,) = struct.unpack_from("<d", blob, off)
        off += 8
        if not (np.isfinite(coeffs).all() and np.isfinite(bias)):
            raise DataFormatError(f"{path}: coefficients and bias must be finite")
        machines.append(
            BinarySvm(support_indices=support, coefficients=coeffs, bias=bias, c_box=np.nan)
        )
    if off != len(blob):
        raise DataFormatError(f"{path}: trailing bytes")
    if len(set(labels)) != len(labels):
        raise DataFormatError(f"{path}: duplicate class labels")
    features = np.frombuffer(b"".join(rows), dtype="<f4")
    if not np.all(np.isfinite(features)) or np.any(features < 0):
        raise DataFormatError(f"{path}: support vectors must be finite and nonnegative")
    return SvmModel(
        labels=tuple(labels),
        machines=tuple(machines),
        features=features.astype(np.float64).reshape(len(rows), dim),
        params=params,
    )
