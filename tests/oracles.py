"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: explicit loops, textbook methods,
no shared code with the package under test.
"""

import hashlib
import json

import numpy as np


def power_iteration_eigh(matrix, count=None, iterations=20000, tol=1e-14):
    """Eigenpairs of a symmetric PSD matrix by power iteration + deflation.

    Returns (eigenvalues descending, eigenvectors as rows).
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    count = n if count is None else count
    values = []
    vectors = []
    for _ in range(count):
        v = np.ones(n) / np.sqrt(n)
        lam = 0.0
        for _ in range(iterations):
            w = a @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            w /= norm
            if np.linalg.norm(w - v) < tol or np.linalg.norm(w + v) < tol:
                v = w
                break
            v = w
        lam = float(v @ a @ v)
        values.append(lam)
        vectors.append(v)
        a = a - lam * np.outer(v, v)
    return np.array(values), np.array(vectors)


def naive_conv1d(x, weights, biases, stride):
    """Valid cross-correlation with explicit nested loops."""
    c_in, length = x.shape
    c_out, _, filt = weights.shape
    out_len = (length - filt) // stride + 1
    out = np.zeros((c_out, out_len))
    for o in range(c_out):
        for t in range(out_len):
            acc = biases[o]
            for c in range(c_in):
                for k in range(filt):
                    acc += weights[o, c, k] * x[c, t * stride + k]
            out[o, t] = acc
    return out


def naive_max1d(x, window, stride):
    """Max pooling with explicit loops; ties keep the lowest offset."""
    channels, length = x.shape
    out_len = (length - window) // stride + 1
    out = np.zeros((channels, out_len))
    arg = np.zeros((channels, out_len), dtype=np.int64)
    for c in range(channels):
        for t in range(out_len):
            best = x[c, t * stride]
            best_k = 0
            for k in range(1, window):
                val = x[c, t * stride + k]
                if val > best:
                    best = val
                    best_k = k
            out[c, t] = best
            arg[c, t] = best_k
    return out, arg


def naive_max1d_input_grad(x, window, stride, grad):
    """Max-pooling input gradient of a C x L input, by explicit loops.

    Each output's gradient is added at its window's np.argmax (the first
    maximum, or the first NaN), one window offset after another in
    ascending order, onto zeros.
    """
    channels, length = x.shape
    out_len = (length - window) // stride + 1
    dx = np.zeros((channels, length))
    for k in range(window):
        for c in range(channels):
            for t in range(out_len):
                if int(np.argmax(x[c, t * stride : t * stride + window])) == k:
                    dx[c, t * stride + k] += grad[c, t]
    return dx


def horn_schunck_pair(prev, curr, alpha, iterations):
    """Textbook Horn-Schunck on one frame pair, re-padding every iteration.

    Borders replicate (np.pad edge mode); the 8-neighbour average adds
    its weighted terms onto zeros in row-major kernel order.  Every value,
    the kernel's weights included, is in the inputs' dtype.
    """
    kernel = np.array([[1 / 12, 1 / 6, 1 / 12], [1 / 6, 0.0, 1 / 6], [1 / 12, 1 / 6, 1 / 12]],
                      dtype=prev.dtype)
    height, width = prev.shape

    def average(x):
        p = np.pad(x, 1, mode="edge")
        out = np.zeros_like(x)
        for r in range(3):
            for c in range(3):
                if kernel[r, c] != 0.0:
                    out += kernel[r, c] * p[r : r + height, c : c + width]
        return out

    p = np.pad(0.5 * (prev + curr), 1, mode="edge")
    ix = (p[1:-1, 2:] - p[1:-1, :-2]) / 2.0
    iy = (p[2:, 1:-1] - p[:-2, 1:-1]) / 2.0
    it = curr - prev
    denom = alpha * alpha + ix * ix + iy * iy
    u = np.zeros_like(prev)
    v = np.zeros_like(prev)
    for _ in range(iterations):
        u_bar = average(u)
        v_bar = average(v)
        update = (ix * u_bar + iy * v_bar + it) / denom
        u = u_bar - ix * update
        v = v_bar - iy * update
    return u, v


def naive_descriptor(u, v, grid, bins):
    """Grid-pooled flow descriptor by per-pixel accumulation."""
    height, width = u.shape

    def edges(size):
        step = size // grid
        return [(g * step, (g + 1) * step if g < grid - 1 else size) for g in range(grid)]

    out = []
    for r0, r1 in edges(height):
        for c0, c1 in edges(width):
            pos_u = neg_u = pos_v = neg_v = mag_sum = 0.0
            hist = np.zeros(bins)
            count = 0
            for r in range(r0, r1):
                for c in range(c0, c1):
                    uu, vv = u[r, c], v[r, c]
                    pos_u += max(uu, 0.0)
                    neg_u += max(-uu, 0.0)
                    pos_v += max(vv, 0.0)
                    neg_v += max(-vv, 0.0)
                    mag = np.sqrt(uu * uu + vv * vv)
                    mag_sum += mag
                    theta = np.arctan2(vv, uu)
                    if theta >= np.pi:
                        theta = -np.pi
                    b = int(np.floor((theta + np.pi) * bins / (2.0 * np.pi)))
                    b = min(max(b, 0), bins - 1)
                    hist[b] += mag
                    count += 1
            total = hist.sum()
            hist = hist / total if total > 0 else np.full(bins, 1.0 / bins)
            out.extend([
                (pos_u + neg_u) / count,
                (pos_v + neg_v) / count,
                mag_sum / count,
            ])
            out.extend(hist)
    return np.array(out)


def descriptor_width(grid, bins):
    """Values in one descriptor: three motion means and ``bins`` histogram bins per cell."""
    return grid * grid * (3 + bins)


def projected_gradient_qp(gram, y, c_box, iterations=20000):
    """Solve the SVM dual by projected gradient ascent.

    maximize sum(alpha) - 0.5 alpha' Q alpha  with Q = yy' * K,
    subject to 0 <= alpha <= c_box and y' alpha = 0.  The projection
    clips beta(nu) = clip(alpha - nu*y, 0, C); y'beta is monotone and
    piecewise linear in nu, so the root sits between two breakpoints
    and linear interpolation inside that segment is exact.
    """
    q = gram * np.outer(y, y)
    n = y.size
    # Lipschitz constant of the gradient; power-iterate the PSD matrix
    v = np.ones(n) / np.sqrt(n)
    for _ in range(200):
        w = q @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            break
        v = w / norm
    lipschitz = max(float(v @ q @ v), 1e-12)
    step = 1.0 / lipschitz

    pos, neg = y > 0, y < 0

    def project(alpha):
        a_pos, a_neg = alpha[pos], alpha[neg]
        bp = np.sort(np.concatenate([a_pos - c_box, a_pos, -a_neg, c_box - a_neg]))
        g = np.clip(alpha[None, :] - bp[:, None] * y[None, :], 0.0, c_box) @ y
        k = int(np.searchsorted(-g, 0.0, side="right")) - 1
        if k < 0:
            nu = bp[0]
        elif g[k] <= 0.0 or k == bp.size - 1:
            nu = bp[k]
        else:
            nu = bp[k] + (bp[k + 1] - bp[k]) * g[k] / (g[k] - g[k + 1])
        return np.clip(alpha - nu * y, 0.0, c_box)

    alpha = project(np.zeros(n))
    for _ in range(iterations):
        grad = 1.0 - q @ alpha
        nxt = project(alpha + step * grad)
        if np.array_equal(nxt, alpha):
            break  # a fixed point: every later iteration returns it again
        alpha = nxt
    return alpha


def reference_smo(gram, y, c_box, tol):
    """svm._smo with its up/low sets rebuilt from every alpha at each step.

    The working-set selection, the partner order and the pair update are
    the package's own (svm._partners, svm._smo_step); only the set
    bookkeeping is written out, so svm._smo, which updates the sets of
    the two moved alphas only, can be compared to it bit for bit.
    Returns (alpha, bias).
    """
    from motionpipe import svm
    from motionpipe.errors import ConvergenceError

    s = y.size
    alpha = np.zeros(s)
    f_err = -y.astype(np.float64)
    diag = np.diag(gram)
    indices = np.arange(s)
    steps = 0
    pos = y > 0
    while True:
        at_c = alpha >= c_box - svm._BOUND_EPS
        at_zero = alpha <= svm._BOUND_EPS
        up = (pos & ~at_c) | (~pos & ~at_zero)
        low = (~pos & ~at_c) | (pos & ~at_zero)
        f_up = np.where(up, f_err, np.inf)
        i = int(np.argmin(f_up))
        b_up = float(f_up[i])
        b_low = float(np.where(low, f_err, -np.inf).max())
        if b_low - b_up <= 2.0 * tol:
            break
        diff = f_err - f_err[i]
        cand = low & (diff > 0.0)
        eta = np.maximum(gram[i, i] + diag - 2.0 * gram[i], 1e-12)
        score = np.where(cand, diff * diff / eta, -np.inf)
        moved = False
        for j in svm._partners(score, indices):
            if not cand[j]:
                break
            steps += 1
            if steps > svm.MAX_SMO_STEPS:
                raise ConvergenceError("SMO not converged")
            if svm._smo_step(gram, y, alpha, f_err, i, j, c_box):
                moved = True
                break
        if not moved:
            raise ConvergenceError("SMO not converged")
    if not np.isfinite(b_up):
        b_up = b_low if np.isfinite(b_low) else 0.0
    if not np.isfinite(b_low):
        b_low = b_up
    return alpha, -0.5 * (b_up + b_low)


def qp_objective(gram, y, alpha):
    q = gram * np.outer(y, y)
    return float(alpha.sum() - 0.5 * alpha @ q @ alpha)


def kkt_violation(alpha, y, errors, c_box, tol):
    """Per-sample KKT violation magnitude; convergence means all <= tol.

    An alpha within svm._BOUND_EPS of a box bound counts as on it, as in the solver.
    """
    from motionpipe import svm

    ye = y * errors
    low = np.where(alpha < c_box - svm._BOUND_EPS, np.maximum(0.0, -ye), 0.0)
    high = np.where(alpha > svm._BOUND_EPS, np.maximum(0.0, ye), 0.0)
    return np.maximum(low, high)


def decode_motif_order(data, info):
    """Matched-filter decoder: which motif occupies each slot.

    Correlates every slot window with every motif template and returns
    the per-slot argmax tuple.  Knows the generator's ground truth but
    shares no code with the pipeline under test.
    """
    k = info.patterns.shape[0]
    w = info.slot_width
    decoded = []
    for j in range(k):
        window = data[j * w : (j + 1) * w]  # w x channels
        scores = [float(info.envelope @ window @ info.patterns[m]) for m in range(k)]
        decoded.append(int(np.argmax(scores)))
    return tuple(decoded)


def finite_difference_gradients(loss_fn, arrays, step=1e-5):
    """Central finite differences of loss_fn() w.r.t. each array in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = loss_fn()
            arr[idx] = orig - step
            lo = loss_fn()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def reference_train(spec, samples, labels, config):
    """SGD with momentum as one update per layer, on the public batch_gradients.

    The epoch loop, shuffling, weight decay on weights only and the
    update arithmetic are written out per (W, b) pair, so cnn.train's
    flat-vector update can be compared to it bit for bit.
    """
    from motionpipe import cnn

    x = np.stack([np.asarray(s, dtype=np.float64) for s in samples])
    y = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(config.seed)
    params = cnn.init_state(spec, rng)
    velocity = [
        None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1]))
        for p in params
    ]
    n = x.shape[0]
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = cnn.batch_gradients(spec, params, x[idx], y[idx])
            epoch_loss += loss * idx.size
            for li, g in enumerate(grads):
                if g is None:
                    continue
                w, b = params[li]
                vw, vb = velocity[li]
                dw = g[0] + config.weight_decay * w
                vw *= config.momentum
                vw -= config.learning_rate * dw
                vb *= config.momentum
                vb -= config.learning_rate * g[1]
                w += vw
                b += vb
        losses.append(epoch_loss / n)
    return params, losses


def align_to_length(data, length):
    """Zero-pad or truncate a (channels, frames) array to ``length`` frames."""
    out = np.zeros((data.shape[0], length))
    keep = min(length, data.shape[1])
    out[:, :keep] = data[:, :keep]
    return out


def digest_parts(*parts):
    """SHA-256 of each part's byte length (8 bytes, little-endian) and bytes, a
    str as UTF-8, hashed one update at a time."""
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def fold_stage_keys(descriptors, train_ids, test_ids, pov_threshold, arch_text,
                    train_settings, svm_settings, container=b"ARR1"):
    """The (PCA, CNN, SVM) cache keys of one fold whose videos are ``.fds`` sources.

    ``descriptors`` maps each video id to its float32 T x n descriptors,
    ``train_settings`` is the CNN training settings' repr and ``svm_settings``
    the svm config section.  ``container=None`` gives the keys from before
    the PCA key named its model's container.
    """
    def video(vid):
        data = descriptors[vid]
        return f"{vid}:{digest_parts('fds', str(data.shape), data.tobytes())}"

    train = sorted(train_ids)
    pca = digest_parts("pca", *([container] if container else []), repr(pov_threshold),
                       *map(video, train))
    l_max = max(descriptors[vid].shape[0] for vid in train)
    cnn = digest_parts("cnn-features", pca, arch_text, train_settings, str(l_max),
                       ",".join(train), *map(video, sorted(list(train_ids) + list(test_ids))))
    svm = digest_parts("svm-predictions", cnn, json.dumps(svm_settings, sort_keys=True))
    return pca, cnn, svm
