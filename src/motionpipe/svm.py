"""Chi-squared-kernel SVM trained by SMO, one binary machine per class.

Features must be nonnegative (the chi-squared distance divides by
x_i + y_i + CHI2_EPSILON).  The solver is a deterministic SMO: each step
pairs the maximal KKT violator with the partner of greatest second-order
gain, with ties broken towards the lowest index.

The kernel's values are made in place, in the buffer that holds the
distances, so a Gram of S x T rows costs one S x T float64 matrix.  A
large fit (from _FORK_TERMS pair-dimension terms) runs on both CPUs in
one ``workers.fork_map`` call, which also says when nothing forks: the
same two forked workers compute the Gram's row blocks into a shared
mmap, then train the one-vs-rest machines, and ``fork_map`` returns the
machines or raises the first failed task's exception.  Each block and
each machine is the serial computation, so the model is the serial
model bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import arrays, workers
from .errors import ConvergenceError, DataFormatError

MAX_SMO_STEPS = 10**6
CHI2_EPSILON = 1e-12  # added to every chi-squared denominator x_i + y_i; model files store it

_SUPPORT_EPS = 1e-10  # alphas at or below this are not support vectors
_BLOCK_ELEMENTS = 2**15  # values per chi-squared temporary (256 KB of float64)
# Row pairs times d from which a distance or kernel matrix, and a fit's
# machines, are split between two forked workers; a fit forks them once,
# for both.  Set when fork_map forked one child and ran the other task
# here, and a map of two empty tasks cost 5 ms from a 55 MB process (two
# forked workers: 7-8.5 ms, 9-13 ms for a process's first call).  Two
# processes side by side each run slower than one alone, so on 2 CPUs a
# split of the distances saved nothing at 3M terms (21 ms serial) and 29 %
# at 2**24 (95 -> 68 ms), about 19 of those 5 ms fork costs of serial work.
# A 960-row fit of 64 features (30M) splits; a 240 x 594 x 64 predict (9M)
# and a LOOCV fold's fit stay serial.  Splitting a predict's rectangular
# kernel from 2**22 terms gave no warm svm-kfold gain in fresh processes.
_FORK_TERMS = 2**24


@dataclass(frozen=True)
class KernelParams:
    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ValueError("gamma must be positive and finite")


@dataclass(frozen=True)
class BinarySvm:
    """One one-vs-rest machine: indices into the shared feature matrix."""

    support_indices: np.ndarray  # int rows of SvmModel.features
    coefficients: np.ndarray     # alpha_i * y_i at the support indices
    bias: float


@dataclass(frozen=True)
class SvmModel:
    labels: tuple          # sorted class labels, one machine each
    machines: tuple        # BinarySvm per label
    features: np.ndarray   # shared rows the indices refer to
    params: KernelParams

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def _check_nonneg(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("chi-squared kernel requires finite features")
    if np.any(x < 0):
        raise ValueError("chi-squared kernel requires nonnegative features")


def chi2_distance_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise chi-squared distances between rows of x and rows of y."""
    out, tasks = _kernel_tasks(x, y, None)
    workers.fork_map(tasks)
    return out


def chi2_gram(x: np.ndarray, y: np.ndarray, params: KernelParams) -> np.ndarray:
    """K(x, y) = exp(-gamma * sum_i (x_i - y_i)^2 / (x_i + y_i + CHI2_EPSILON)) per row pair."""
    out, tasks = _kernel_tasks(x, y, params.gamma)
    workers.fork_map(tasks)
    return out


def _kernel_tasks(x, y, gamma):
    """(out, tasks): an empty x-row by y-row matrix, and the ``fork_map`` tasks that fill it.

    The tasks write chi-squared distances, or, with ``gamma``, the
    kernel's values exp(-gamma * distance).  Rows of x are taken in blocks
    of about _BLOCK_ELEMENTS values (never less than one row of x against
    all of y) in two contiguous buffers allocated once per task.  A block
    tiles its x rows into the first, adds y into the second and subtracts
    y from the first, so each term and its sum over d equal the broadcast
    formula's bit for bit; the kernel's values are then made in place in
    ``out``, with the bits of np.exp(-gamma * distances).  When y is x,
    each block computes only the columns from its own first row onward and
    mirrors them into the lower triangle; the chi-squared terms are
    symmetric bit for bit, so this equals the full result.

    From _FORK_TERMS pair-dimension terms on, there are two tasks: the
    blocks split at a block boundary, by pair count, into a shared
    anonymous mmap that this process never touches, each task mirroring
    its own blocks.  Below, one task fills an ordinary array.  Every block
    is the serial block.
    """
    symmetric = y is x
    x = np.asarray(x, dtype=np.float64)
    y = x if symmetric else np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("kernel arguments must be rows of equal length")
    _check_nonneg(x)
    if not symmetric:
        _check_nonneg(y)
    n, m = x.shape[0], y.shape[0]
    rows = max(1, _BLOCK_ELEMENTS // max(1, y.size))
    starts = np.arange(0, n, rows)
    # the row pairs of each block: its rows against y, or against y from its first row on
    pairs = np.minimum(rows, n - starts) * (m - starts if symmetric else m)
    if pairs.sum() * x.shape[1] < _FORK_TERMS:
        out = np.empty((n, m))
        parts = [starts]
    else:
        import mmap

        out = np.frombuffer(mmap.mmap(-1, 8 * n * m), dtype=np.float64).reshape(n, m)
        cut = np.abs(np.cumsum(pairs) - pairs.sum() / 2).argmin() + 1
        parts = np.split(starts, [min(cut, starts.size - 1)])
    return out, {("kernel", k): functools.partial(_distance_blocks, x, y, symmetric, rows,
                                                  part, out, gamma)
                 for k, part in enumerate(parts)}


def _distance_blocks(x, y, symmetric, rows, starts, out, gamma) -> None:
    """The chi-squared distances, or kernel values, of the row blocks at ``starts``, into ``out``."""
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
        denom += CHI2_EPSILON
        diff *= diff
        diff /= denom
        block = out[start:stop, first:]
        np.sum(diff, axis=2, out=block)
        if gamma is not None:
            np.multiply(block, -gamma, out=block)
            np.exp(block, out=block)
        if symmetric:
            out[stop:, start:stop] = out[start:stop, stop:].T


def default_gamma(features, seed: int) -> float:
    """1 / mean pairwise chi-squared distance of the training features.

    All pairs when S <= 200; 1000 pairs drawn with the nonnegative
    ``seed`` otherwise.
    """
    x = np.stack([np.asarray(f, dtype=np.float64) for f in features])
    if x.shape[0] < 2:
        raise ValueError("default_gamma needs at least 2 features")
    s = x.shape[0]
    if s <= 200:
        d = chi2_distance_matrix(x, x)  # which checks x
        mean = d[np.triu_indices(s, k=1)].mean()
    else:
        _check_nonneg(x)
        rng = np.random.default_rng(seed)
        i = rng.integers(0, s, size=1000)
        j = rng.integers(0, s - 1, size=1000)
        j = j + (j >= i)  # shift past i so pairs are always distinct
        diff = x[i] - x[j]
        mean = float(np.sum(diff * diff / (x[i] + x[j] + CHI2_EPSILON), axis=1).mean())
    if mean <= 0:
        raise ValueError("all features identical: mean chi-squared distance is zero")
    return float(1.0 / mean)


# ---------------------------------------------------------------------------
# SMO solver
# ---------------------------------------------------------------------------

_BOUND_EPS = 1e-8  # alphas this close to a box bound count as on it


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


# ---------------------------------------------------------------------------
# Multi-class fit / predict
# ---------------------------------------------------------------------------

def fit(features, labels, c_box: float, params: KernelParams, tol: float) -> SvmModel:
    """Train one-vs-rest chi-squared SVMs over nonnegative feature vectors.

    The Gram and the machines are one ``workers.fork_map`` call of two
    phases.  From _FORK_TERMS pair-dimension terms of the Gram's blocks on,
    each phase has two tasks, which two forked workers run: first each
    turns its row blocks into kernel values in a shared mmap that this
    process never touches, then one trains the machines of the first,
    third, ... label, the other the rest, and the results are put back in
    label order.  Below, one task of each runs here.  A failed kernel task
    starts no machine; if both tasks of a phase fail, the first's failure
    is raised.  ``c_box`` and ``tol`` are positive and finite; the kernel
    checks the features.
    """
    x = np.stack([np.asarray(f, dtype=np.float64) for f in features])
    labels = list(labels)
    if len(labels) != x.shape[0]:
        raise ValueError("labels must match feature count")
    class_labels = sorted(set(labels))
    if len(class_labels) < 2:
        raise ValueError("training data must contain at least 2 classes")

    label_arr = np.array(labels)
    ys = [np.where(label_arr == cls, 1.0, -1.0) for cls in class_labels]
    gram, kernel = _kernel_tasks(x, x, params.gamma)
    ways = len(kernel)  # the machines are split as the Gram's blocks are
    outcomes = workers.fork_map(kernel, {
        ("machines", k): functools.partial(_machines, gram, ys[k::ways], c_box, tol)
        for k in range(ways)
    })
    solved = [None] * len(ys)
    for k in range(ways):
        solved[k::ways] = outcomes["machines", k]
    machines = []
    for y, (alpha, bias) in zip(ys, solved):
        support = np.flatnonzero(alpha > _SUPPORT_EPS)
        machines.append(BinarySvm(support_indices=support,
                                  coefficients=alpha[support] * y[support], bias=bias))
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
    """Write the model as arrays: ``labels`` (UTF-8, one a line), ``kernel`` (gamma,
    CHI2_EPSILON), ``vectors`` (each distinct support vector once, as float32), and per
    machine in label order its support ``counts``, ``support`` rows of ``vectors``,
    ``coefficients`` and ``biases``."""
    labels = [str(label) for label in model.labels]
    if any("\n" in label for label in labels):
        raise ValueError("class labels must not contain a line break")
    single = model.features.astype(np.float32)
    rows: dict = {}  # float32 bytes of each distinct support vector -> (its row, a feature row)
    support = [rows.setdefault(single[i].tobytes(), (len(rows), i))[0]
               for machine in model.machines for i in machine.support_indices]
    arrays.write(
        path, labels="\n".join(labels).encode("utf-8"),
        kernel=np.array([model.params.gamma, CHI2_EPSILON]),
        vectors=single[[i for _, i in rows.values()]],
        counts=np.array([m.support_indices.size for m in model.machines], dtype=np.int64),
        support=np.array(support, dtype=np.int64),
        coefficients=np.concatenate([m.coefficients for m in model.machines]),
        biases=np.array([m.bias for m in model.machines]),
    )


def load_model(path) -> SvmModel:
    """Read a model; a support vector shared by several machines is stored once."""
    stored = arrays.load(
        path, labels=("|u1", (None,)), kernel=("<f8", (2,)), vectors=("<f4", (None, None)),
        counts=("<i8", (None,)), support=("<i8", (None,)), coefficients=("<f8", (None,)),
        biases=("<f8", (None,)),
    )
    try:
        labels = stored["labels"].tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: class labels are not UTF-8") from exc
    if len(labels) < 2:
        raise DataFormatError(f"{path}: need at least 2 classes, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise DataFormatError(f"{path}: duplicate class labels")
    vectors = stored["vectors"]
    if vectors.shape[1] < 1:
        raise DataFormatError(f"{path}: feature dimension must be at least 1")
    gamma, epsilon = (float(x) for x in stored["kernel"])
    if epsilon != CHI2_EPSILON:
        raise DataFormatError(
            f"{path}: chi-squared epsilon {epsilon!r}, expected {CHI2_EPSILON!r}")
    try:
        params = KernelParams(gamma)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    counts, biases = stored["counts"], stored["biases"]
    # copies, so that the machines do not hold on to the file's bytes
    support, coeffs = stored["support"].copy(), stored["coefficients"].copy()
    if (counts.size != len(labels) or biases.size != len(labels) or np.any(counts < 0)
            or np.any(counts > support.size) or counts.sum() != support.size
            or coeffs.size != support.size):
        raise DataFormatError(f"{path}: machine sizes do not match {len(labels)} classes "
                              f"and {support.size} support entries")
    if np.any(support < 0) or np.any(support >= vectors.shape[0]):
        raise DataFormatError(f"{path}: support indices must be rows of the support vectors")
    if not (np.isfinite(coeffs).all() and np.isfinite(biases).all()):
        raise DataFormatError(f"{path}: coefficients and bias must be finite")
    if not np.all(np.isfinite(vectors)) or np.any(vectors < 0):
        raise DataFormatError(f"{path}: support vectors must be finite and nonnegative")
    ends = np.cumsum(counts)[:-1]
    machines = tuple(
        BinarySvm(support_indices=indices, coefficients=c, bias=float(b))
        for indices, c, b in zip(np.split(support, ends), np.split(coeffs, ends), biases)
    )
    return SvmModel(labels=tuple(labels), machines=machines,
                    features=vectors.astype(np.float64), params=params)
