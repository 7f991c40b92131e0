"""Multi-channel 1D convolutional network: forward, backprop, SGD training.

Layers follow the <filter-channels-stride> notation: valid (unpadded)
1-D cross-correlation, max pooling through recorded flat source indices
(one gather forward, one ``np.bincount`` backward), ReLU, fully
connected layers over the channel-major flattened input, and a softmax
output layer with its own linear map.  Inside a batch, activations are
channels-last, (N, L, C), so each conv is one GEMM whose output needs no
transpose; only the flatten before the first fully-connected layer
transposes, to channel-major.  A network's parameters are a list, one
(W, b) pair per conv, fully connected or softmax layer and None for the
other layers; ``NetworkSpec`` records their shapes beside each layer's
output shape, in its one walk over the layers.  ``TrainConfig`` has no
defaults: ``pipeline.PipelineConfig`` holds them.  Training holds every
weight and then every bias as views into one flat float64 vector, so the
momentum update is a few whole-vector operations.  ``train`` and
``extract_features`` check their input once per call, so the batch step
(``batch_gradients``: forward, loss, backward) checks nothing.
Everything trains in float64 so analytic gradients can be checked
against finite differences tightly; model files store parameters as
float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import arrays
from .errors import ConvergenceError, DataFormatError


# ---------------------------------------------------------------------------
# Layer and network specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv1D:
    filter_size: int
    out_channels: int
    stride: int

    def __post_init__(self):
        if self.filter_size < 1 or self.out_channels < 1 or self.stride < 1:
            raise ValueError(f"invalid conv layer {self}")


@dataclass(frozen=True)
class Max1D:
    window: int
    stride: int

    def __post_init__(self):
        if self.window < 1 or self.stride < 1:
            raise ValueError(f"invalid max-pool layer {self}")


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class FullyConnected:
    units: int

    def __post_init__(self):
        if self.units < 1:
            raise ValueError(f"invalid fully-connected layer {self}")


@dataclass(frozen=True)
class SoftmaxOutput:
    classes: int

    def __post_init__(self):
        if self.classes < 1:
            raise ValueError(f"invalid softmax layer {self}")


LayerSpec = Conv1D | Max1D | ReLU | FullyConnected | SoftmaxOutput


def conv_output_length(length: int, filter_size: int, stride: int) -> int:
    """Valid-convolution output length: floor((L - X) / S) + 1."""
    return (length - filter_size) // stride + 1


def check_layers(layers) -> tuple[LayerSpec, ...]:
    """``layers`` as a tuple; raises ValueError unless one softmax output ends
    them, after a fully-connected feature layer.  ``NetworkSpec`` checks the sizes."""
    layers = tuple(layers)
    if not layers or not isinstance(layers[-1], SoftmaxOutput):
        raise ValueError("network must end with a softmax output layer")
    if any(isinstance(l, SoftmaxOutput) for l in layers[:-1]):
        raise ValueError("softmax output must appear exactly once, last")
    if not any(isinstance(l, FullyConnected) for l in layers[:-1]):
        raise ValueError("a fully-connected feature layer must precede the softmax output")
    return layers


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture plus input shape; every layer shape-checked upfront."""

    input_channels: int
    input_length: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if self.input_channels < 1 or self.input_length < 1:
            raise ValueError("input shape must be positive")
        object.__setattr__(self, "layers", check_layers(self.layers))
        object.__setattr__(self, "_shapes", tuple(self._check_shapes()))

    def _check_shapes(self):
        """Propagate shapes through all layers; raises on any invalid size.

        Yields per layer its output shape and its (W, b) shapes, or None
        for a layer without parameters.
        """
        shape: tuple = (self.input_channels, self.input_length)
        for i, layer in enumerate(self.layers):
            params = None
            if isinstance(layer, Conv1D):
                if len(shape) != 2:
                    raise ValueError(f"layer {i}: convolution after flattening")
                c, length = shape
                if length < layer.filter_size:
                    raise ValueError(
                        f"layer {i}: input length {length} shorter than filter {layer.filter_size}"
                    )
                params = ((layer.out_channels, c, layer.filter_size), (layer.out_channels,))
                shape = (layer.out_channels, conv_output_length(length, layer.filter_size, layer.stride))
            elif isinstance(layer, Max1D):
                if len(shape) != 2:
                    raise ValueError(f"layer {i}: pooling after flattening")
                c, length = shape
                if length < layer.window:
                    raise ValueError(
                        f"layer {i}: input length {length} shorter than window {layer.window}"
                    )
                shape = (c, conv_output_length(length, layer.window, layer.stride))
            elif isinstance(layer, (FullyConnected, SoftmaxOutput)):
                units = layer.units if isinstance(layer, FullyConnected) else layer.classes
                params = ((units, _flat_size(shape)), (units,))
                shape = (units,)
            yield shape, params

    def feature_cutoff(self) -> int:
        """Index of the last layer contributing to extracted features.

        That is the last fully-connected layer before the softmax output,
        or the ReLU immediately following it when present.
        """
        fc_idx = max(i for i, l in enumerate(self.layers[:-1]) if isinstance(l, FullyConnected))
        if fc_idx + 1 < len(self.layers) - 1 and isinstance(self.layers[fc_idx + 1], ReLU):
            return fc_idx + 1
        return fc_idx

    def num_classes(self) -> int:
        return self.layers[-1].classes


def _flat_size(shape: tuple) -> int:
    return math.prod(shape)  # exact for any declared size, unlike np.prod


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _views(vector: np.ndarray, shapes) -> list:
    """Consecutive views into a flat vector, one per shape."""
    ends = np.cumsum([_flat_size(s) for s in shapes])
    return [part.reshape(s) for part, s in zip(np.split(vector, ends[:-1]), shapes)]


def _flat_params(spec: NetworkSpec, rows: int = 1):
    """A zeroed (rows, size) float64 block; each row holds every weight, then every bias.

    Returns (block, per row the per-layer (W, b) views aligned with the
    layers, weight count): a row's first weight-count values are weights.
    """
    shapes = [params for _, params in spec._shapes]
    w_shapes, b_shapes = zip(*(p for p in shapes if p is not None))
    n_w = sum(_flat_size(s) for s in w_shapes)
    block = np.zeros((rows, n_w + sum(_flat_size(s) for s in b_shapes)))
    views = []
    for vector in block:
        pairs = iter(zip(_views(vector[:n_w], w_shapes), _views(vector[n_w:], b_shapes)))
        views.append([None if p is None else next(pairs) for p in shapes])
    return block, views, n_w


def init_state(spec: NetworkSpec, rng: np.random.Generator) -> list:
    """Glorot-uniform weights, zero biases, drawn in layer order from ``rng``.

    Returns the network's parameters: per layer a (W, b) pair for
    conv/fc/softmax layers, None for the others.
    """
    params = []
    for _, shapes in spec._shapes:
        if shapes is None:
            params.append(None)
            continue
        w_shape, b_shape = shapes
        # conv (O, C, X): fan_in C*X, fan_out O*X; linear (U, F): fan_in F, fan_out U
        fan_in = _flat_size(w_shape[1:])
        fan_out = w_shape[0] * _flat_size(w_shape[2:])
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        params.append((rng.uniform(-lim, lim, size=w_shape), np.zeros(b_shape)))
    return params


# ---------------------------------------------------------------------------
# Layer operators on channels-last (N, L, C) batches
# ---------------------------------------------------------------------------

def _conv_forward(x, weights, biases, stride):
    """Valid cross-correlation of a channels-last (N, L, C) batch as one GEMM:
    out[n, t, o] = b[o] + sum_c sum_k W[o, c, k] * x[n, t*stride + k, c].

    Returns the (N, L_out, O) output and the (N*L_out, C*X) im2col patch
    matrix, filled one tap at a time: row n*L_out + t holds
    x[n, t*stride : t*stride + X, :] flattened channel-major, the order
    of W.reshape(O, C*X).  The backward pass reuses it for dW.
    """
    o, c, taps = weights.shape
    n, length, _ = x.shape
    l_out = conv_output_length(length, taps, stride)
    span = stride * (l_out - 1) + 1
    patches = np.empty((n, l_out, c, taps))
    for k in range(taps):
        patches[..., k] = x[:, k : k + span : stride]
    patches = patches.reshape(n * l_out, c * taps)
    out = (patches @ weights.reshape(o, c * taps).T).reshape(n, l_out, o)
    out += biases
    return out, patches


def _max_forward(x, window, stride):
    """Max pooling of an (N, L, C) batch; returns (output, flat source indices).

    One vectorised comparison per window offset, on the strided slice
    x[:, k::stride], finds each window's first maximum (or first NaN).
    """
    l_out = conv_output_length(x.shape[1], window, stride)
    span = stride * (l_out - 1) + 1
    best, off = x[:, :span:stride], 0
    for k in range(1, window):
        v = x[:, k : k + span : stride]
        better = ~(v <= best) & (best == best)
        off = off + better * (k - off)  # branch-free select of the window offset
        best = np.maximum(best, v) if k + 1 < window else best
    base = np.arange(x.shape[0])[:, None, None] * x.shape[1] + np.arange(0, span, stride)[:, None]
    src = (base + off) * x.shape[2] + np.arange(x.shape[2])  # (n*L + t*stride + offset)*C + c
    return x.reshape(-1).take(src), src


def _max_backward(src, grad, shape):
    """Pooling input gradient; bincount over reversed time adds in ascending window offset."""
    return np.bincount(src[:, ::-1].ravel(), weights=grad[:, ::-1].ravel(),
                       minlength=math.prod(shape)).reshape(shape)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _forward_batch(spec: NetworkSpec, params: list, x: np.ndarray, stop: int | None = None):
    """Run a (N, m, L) batch through layers [0, stop); returns (activations, cache).

    With the default stop every layer runs and the activations are the
    class probabilities.  The caller passes a batch that fits ``spec``.
    """
    act = x.transpose(0, 2, 1)  # channels-last (N, L, C) from here on
    cache = []
    for layer, layer_params in list(zip(spec.layers, params))[:stop]:
        if isinstance(layer, Conv1D):
            w, b = layer_params
            in_len = act.shape[1]
            act, patches = _conv_forward(act, w, b, layer.stride)
            cache.append({"patches": patches, "in_len": in_len})
        elif isinstance(layer, Max1D):
            cache.append({"shape": act.shape})
            act, cache[-1]["src"] = _max_forward(act, layer.window, layer.stride)
        elif isinstance(layer, ReLU):
            act = np.maximum(act, 0.0)
            cache.append({"out": act})
        elif isinstance(layer, (FullyConnected, SoftmaxOutput)):
            pre_flatten = act.shape[1:] if act.ndim == 3 else None
            if pre_flatten is not None:
                act = act.transpose(0, 2, 1)  # channel-major flatten
            flat = act.reshape(act.shape[0], -1)
            w, b = layer_params
            cache.append({"x": flat, "pre_flatten": pre_flatten})
            act = flat @ w.T + b
            if isinstance(layer, SoftmaxOutput):
                act = softmax(act)
                cache[-1]["probs"] = act
    return act, cache


def _backward_batch(spec: NetworkSpec, params: list, cache, labels: np.ndarray, grads):
    """Gradients of the mean cross-entropy loss over the batch.

    ``grads`` is a list aligned with ``params``: (dW, db) arrays,
    overwritten in place, or None for parameterless layers.  The caller
    passes checked labels, as ``train`` does.
    """
    probs = cache[-1]["probs"]
    n = probs.shape[0]
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n

    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        entry = cache[i]
        if isinstance(layer, (SoftmaxOutput, FullyConnected)):
            w, _ = params[i]
            dw, db = grads[i]
            np.matmul(grad.T, entry["x"], out=dw)
            np.sum(grad, axis=0, out=db)
            grad = grad @ w
            if entry["pre_flatten"] is not None:
                length, channels = entry["pre_flatten"]
                grad = grad.reshape(n, channels, length).transpose(0, 2, 1)
        elif isinstance(layer, ReLU):
            grad = grad * (entry["out"] > 0.0)
        elif isinstance(layer, Max1D):
            grad = _max_backward(entry["src"], grad, entry["shape"])
        elif isinstance(layer, Conv1D):
            w, _ = params[i]
            dw, db = grads[i]
            o, c, taps = w.shape
            g2 = grad.reshape(-1, o)
            np.matmul(g2.T, entry["patches"], out=dw.reshape(o, c * taps))
            # db sums an (N, O, L_out) copy: summing (N, L_out, O) in place
            # rounds differently in the last bit, and trained models change
            np.ascontiguousarray(grad.transpose(0, 2, 1)).sum(axis=(0, 2), out=db)
            if i == 0:
                break  # nothing reads the input gradient of the first layer
            # col2im: scatter each tap's patch gradient back onto the input
            dpatch = (g2 @ w.reshape(o, c * taps)).reshape(n, -1, c, taps)
            dx = np.zeros((n, entry["in_len"], c))
            span = layer.stride * (dpatch.shape[1] - 1) + 1
            for kk in range(taps):
                dx[:, kk : kk + span : layer.stride] += dpatch[..., kk]
            grad = dx


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true labels, each a class index of ``probs``."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def batch_gradients(spec: NetworkSpec, params: list, x: np.ndarray, labels: np.ndarray,
                    out=None):
    """Mean loss and parameter gradients for a (N, m, L) batch.

    The gradients are a list aligned with ``params``: (dW, db)
    pairs, or None for parameterless layers.  They are written into
    ``out``, a list of that layout, when given.  The caller passes
    checked data: a batch that fits ``spec`` and class-index labels, as
    ``train`` checks them once per call.
    """
    probs, cache = _forward_batch(spec, params, x)
    loss = cross_entropy(probs, labels)
    if out is None:
        _, (out,), _ = _flat_params(spec)
    _backward_batch(spec, params, cache, labels, out)
    return loss, out


def _checked_batch(spec: NetworkSpec, x) -> np.ndarray:
    """``x`` as a float64 (N, m, L) batch; raises ValueError unless it fits ``spec``.

    ``train`` and ``extract_features`` check their input here, once per
    call, so the batch step checks nothing.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (spec.input_channels, spec.input_length):
        raise ValueError(f"input shape {x.shape[1:]} does not match spec "
                         f"({spec.input_channels}, {spec.input_length})")
    return x


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    momentum: float
    epochs: int
    batch_size: int
    seed: int
    weight_decay: float

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be nonnegative and finite")


def train(spec: NetworkSpec, samples, labels, config: TrainConfig):
    """Mini-batch SGD with momentum on the mean batch cross-entropy.

    ``samples`` is an (N, m, L) batch, checked by ``_checked_batch``, and
    ``labels`` its N integer class indices.  Shuffling and initialisation
    derive from config.seed, so the returned (params, per-epoch mean loss)
    is deterministic.  Weight decay applies to weight matrices, not biases.  Raises
    ConvergenceError as soon as a batch loss is non-finite, or when an
    epoch ends with a non-finite parameter.
    """
    x = _checked_batch(spec, samples)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (x.shape[0],):
        raise ValueError("labels must match sample count")
    k = spec.num_classes()
    if np.any(y < 0) or np.any(y >= k):
        raise ValueError("label out of range")
    present = set(y.tolist())
    missing = [c for c in range(k) if c not in present]
    if missing:
        raise ValueError(f"no training sample for class index {missing[0]}")

    rng = np.random.default_rng(config.seed)
    # parameters, gradient, velocity and weight-decay term share one block and
    # the update allocates nothing: vector-sized temporaries made glibc trim
    # and re-fault the heap top every batch (2M minor faults per LOOCV run)
    block, (params, grads, _, _), n_w = _flat_params(spec, rows=4)
    theta, grad, velocity, decay = block
    for view, init in zip(params, init_state(spec, rng)):
        if view is not None:
            view[0][...] = init[0]  # biases start at zero

    n = x.shape[0]
    loss_history = []
    # divergence overflows before it shows; the checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                loss, _ = batch_gradients(spec, params, x[idx], y[idx], out=grads)
                if not math.isfinite(loss):
                    raise ConvergenceError(
                        f"CNN training diverged in epoch {epoch + 1}: non-finite loss"
                    )
                epoch_loss += loss * idx.size
                grad[:n_w] += np.multiply(theta[:n_w], config.weight_decay, out=decay[:n_w])
                velocity *= config.momentum
                grad *= config.learning_rate
                velocity -= grad
                theta += velocity
            epoch_loss /= n
            if not np.isfinite(theta).all():
                raise ConvergenceError(
                    f"CNN training diverged in epoch {epoch + 1}: non-finite parameters"
                )
            loss_history.append(epoch_loss)
    return params, loss_history


def extract_features(spec: NetworkSpec, params: list, x: np.ndarray) -> np.ndarray:
    """Feature-layer activations (last FC before the output) of a (N, m, L) batch.

    Returns an (N, F) array.  When a ReLU follows that layer the
    rectified values are returned, keeping features nonnegative for the
    chi-squared kernel downstream.
    """
    features, _ = _forward_batch(spec, params, _checked_batch(spec, x),
                                 stop=spec.feature_cutoff() + 1)
    return features


# ---------------------------------------------------------------------------
# Architecture text format
# ---------------------------------------------------------------------------

# Each layer's keyword; the dataclass's fields are its arguments, in order.
_LAYER_KEYWORDS = {"conv": Conv1D, "max": Max1D, "relu": ReLU, "fc": FullyConnected,
                   "softmax": SoftmaxOutput}


def parse_architecture(text: str) -> tuple[LayerSpec, ...]:
    """Parse the one-layer-per-line format.

    Lines: ``conv X C S``, ``max Y S``, ``relu``, ``fc U``, ``softmax K``.
    Blank lines and ``#`` comments are ignored.  An unknown keyword or the
    wrong number of arguments is an unrecognised layer; arguments that are
    not integers or that the layer rejects are bad layer arguments.
    """
    layers: list[LayerSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op, *args = line.split()
        kind = _LAYER_KEYWORDS.get(op.lower())
        if kind is None or len(args) != len(fields(kind)):
            raise DataFormatError(f"line {lineno}: unrecognised layer {line!r}")
        try:
            layers.append(kind(*map(int, args)))
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: bad layer arguments {line!r}") from exc
    return tuple(layers)


def format_architecture(layers) -> str:
    keywords = {kind: op for op, kind in _LAYER_KEYWORDS.items()}
    lines = [" ".join([keywords[type(layer)], *(str(getattr(layer, f.name)) for f in fields(layer))])
             for layer in layers]
    return "\n".join(lines) + "\n"


def default_architecture(num_classes: int) -> tuple[LayerSpec, ...]:
    """Stock architecture used when no file is given."""
    return (
        Conv1D(5, 32, 2),
        ReLU(),
        Max1D(2, 2),
        Conv1D(3, 64, 1),
        ReLU(),
        Max1D(2, 2),
        FullyConnected(64),
        ReLU(),
        SoftmaxOutput(num_classes),
    )


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------

def save_model(spec: NetworkSpec, params: list, path) -> None:
    """Write the arrays ``spec`` (its text, UTF-8) and ``params`` (each layer's W then b, f32)."""
    spec_text = f"input {spec.input_channels} {spec.input_length}\n" + format_architecture(spec.layers)
    values = [np.ravel(a) for p in params if p is not None for a in p]
    arrays.write(path, spec=spec_text.encode("utf-8"),
                 params=np.concatenate(values).astype(np.float32))


def load_model(path):
    """Read a network file; returns (spec, params) with float64 parameters."""
    stored = arrays.load(path, spec=("|u1", (None,)), params=("<f4", (None,)))
    try:
        lines = stored["spec"].tobytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: spec block is not UTF-8") from exc
    if not lines or not lines[0].startswith("input "):
        raise DataFormatError(f"{path}: spec block missing input line")
    try:
        _, m_str, l_str = lines[0].split()
        spec = NetworkSpec(
            input_channels=int(m_str),
            input_length=int(l_str),
            layers=parse_architecture("\n".join(lines[1:])),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: malformed spec block") from exc

    layer_shapes = [params for _, params in spec._shapes]
    shapes = [shape for p in layer_shapes if p is not None for shape in p]
    values = stored["params"]
    need = sum(_flat_size(shape) for shape in shapes)
    if values.size != need:
        raise DataFormatError(f"{path}: {values.size} parameters, the spec needs {need}")
    if not np.all(np.isfinite(values)):
        raise DataFormatError(f"{path}: parameters must be finite")
    # each layer's W then b, layer after layer
    views = iter(_views(values.astype(np.float64), shapes))
    params = [None if p is None else (next(views), next(views)) for p in layer_shapes]
    return spec, params
