import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from motionpipe import arrays, cnn
from motionpipe.errors import ConvergenceError, DataFormatError

import oracles


def _spec(layers, channels=2, length=16):
    return cnn.NetworkSpec(input_channels=channels, input_length=length, layers=tuple(layers))


def _small_spec():
    return _spec(
        [
            cnn.Conv1D(3, 4, 2),
            cnn.ReLU(),
            cnn.Max1D(2, 2),
            cnn.FullyConnected(5),
            cnn.ReLU(),
            cnn.SoftmaxOutput(3),
        ]
    )


def _first_layer(layer, x, params):
    """``layer`` on one C x L input as a network's first layer, through the batched
    forward pass on a batch of one: (C_out x L_out output, the layer's cache entry)."""
    spec = _spec([layer, cnn.FullyConnected(1), cnn.SoftmaxOutput(1)], *x.shape)
    out, cache = cnn._forward_batch(spec, [params, None, None], x[None], stop=1)
    return out[0].T, cache[0]


def one_layer_conv(x, w, b, stride):
    """Valid cross-correlation of a C x L input by a network's first layer."""
    return _first_layer(cnn.Conv1D(w.shape[2], w.shape[0], stride), x, (w, b))[0]


def one_layer_pool(x, window, stride):
    """Max pooling of a C x L input by a network's first layer: (output, each window's
    argmax offset), the offsets read from the layer's flat source indices."""
    out, cache = _first_layer(cnn.Max1D(window, stride), x, None)
    return out, (cache["src"][0] // x.shape[0]).T - stride * np.arange(out.shape[1])


# ---------------------------------------------------------------------------
# Layer operators vs naive oracles
# ---------------------------------------------------------------------------

def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        length = int(rng.integers(4, 20))
        filt = int(rng.integers(1, min(length, 6) + 1))
        stride = int(rng.integers(1, 4))
        x = rng.normal(size=(c_in, length))
        w = rng.normal(size=(c_out, c_in, filt))
        b = rng.normal(size=c_out)
        got = one_layer_conv(x, w, b, stride)
        want = oracles.naive_conv1d(x, w, b, stride)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


def test_max_pool_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        channels = int(rng.integers(1, 5))
        length = int(rng.integers(4, 20))
        window = int(rng.integers(1, min(length, 5) + 1))
        stride = int(rng.integers(1, 4))
        x = rng.normal(size=(channels, length))
        got, got_arg = one_layer_pool(x, window, stride)
        want, want_arg = oracles.naive_max1d(x, window, stride)
        assert np.array_equal(got, want)
        assert np.array_equal(got_arg, want_arg)


def test_max_pool_ties_take_first_offset():
    x = np.array([[2.0, 2.0, 1.0, 1.0, 3.0, 3.0]])
    out, arg = one_layer_pool(x, window=2, stride=2)
    assert np.array_equal(out, [[2.0, 1.0, 3.0]])
    assert np.array_equal(arg, [[0, 0, 0]])


def test_max_pool_nan_routes_like_argmax():
    x = np.array([[1.0, np.nan, 3.0, 2.0, np.nan, np.nan, 0.0, 5.0, np.nan]])
    for window, stride in ((2, 2), (3, 1), (2, 3)):
        windows = np.lib.stride_tricks.sliding_window_view(x, window, axis=1)[:, ::stride]
        out, arg = one_layer_pool(x, window, stride)
        assert np.array_equal(arg, windows.argmax(axis=2))
        assert np.array_equal(out, windows.max(axis=2), equal_nan=True)


@pytest.mark.parametrize("window,stride,values", [
    (5, 2, "normal"), (4, 1, "normal"), (7, 2, "normal"), (2, 3, "normal"),
    (4, 1, "ties"), (5, 2, "nan"),
])
def test_pool_input_gradient_matches_loop_oracle(window, stride, values):
    # gradients spanning 16 decades make the sum depend on the order of
    # addition wherever an input is the maximum of three or more windows
    rng = np.random.default_rng(window * 10 + stride)
    n, channels, length = 3, 4, 29
    x = rng.normal(size=(n, channels, length))
    if values == "ties":
        x = rng.integers(0, 2, size=x.shape).astype(float)
    elif values == "nan":
        x[rng.random(x.shape) < 0.15] = np.nan
    out, src = cnn._max_forward(x.transpose(0, 2, 1), window, stride)
    grad = rng.normal(size=out.shape) * 10.0 ** rng.integers(-8, 9, size=out.shape)
    got = cnn._max_backward(src, grad, (n, length, channels)).transpose(0, 2, 1)
    for sample, g, want_x in zip(got, grad.transpose(0, 2, 1), x):
        assert np.array_equal(sample, oracles.naive_max1d_input_grad(want_x, window, stride, g))
    # some input takes every window that covers it: 3 or 4 of them, or 1 for (2, 3)
    assert np.bincount(src.ravel()).max() == -(-window // stride)


def test_conv_hand_example():
    # out[0] = 1*1 + 2*2 = 5, out[1] = 1*3 + 2*4 = 11, plus bias 10
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    w = np.array([[[1.0, 2.0]]])
    b = np.array([10.0])
    out = one_layer_conv(x, w, b, stride=2)
    assert np.array_equal(out, [[15.0, 21.0]])


def test_conv_output_length():
    assert cnn.conv_output_length(10, 3, 1) == 8
    assert cnn.conv_output_length(10, 3, 2) == 4
    assert cnn.conv_output_length(5, 5, 3) == 1


def test_softmax_rows_and_stability():
    probs = cnn.softmax(np.array([[1000.0, 1000.0, 999.0], [-2000.0, 0.0, 0.0]]))
    assert np.all(np.isfinite(probs))
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert probs[0, 0] == probs[0, 1]
    assert probs[1, 0] < 1e-300


def test_cross_entropy_hand_value():
    probs = np.array([[0.5, 0.5], [0.25, 0.75]])
    got = cnn.cross_entropy(probs, np.array([0, 1]))
    assert abs(got - (-np.log(0.5) - np.log(0.75)) / 2) < 1e-15


# ---------------------------------------------------------------------------
# Network spec
# ---------------------------------------------------------------------------

def test_layer_shapes_match_forward():
    spec = _small_spec()
    assert spec.layer_shapes() == ((4, 7), (4, 7), (4, 3), (5,), (5,), (3,))
    params = cnn.init_state(spec, np.random.default_rng(0))
    x = np.random.default_rng(0).normal(size=(2, 16))
    probs = cnn._forward_batch(spec, params, x[None])[0][0]
    assert probs.shape == (3,)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert spec.feature_cutoff() == 4  # the ReLU after the last FC
    assert spec.num_classes() == 3


def test_spec_validation():
    with pytest.raises(ValueError, match="softmax output layer"):
        _spec([cnn.FullyConnected(4)])
    with pytest.raises(ValueError, match="exactly once"):
        _spec([cnn.SoftmaxOutput(2), cnn.FullyConnected(4), cnn.SoftmaxOutput(2)])
    with pytest.raises(ValueError, match="fully-connected"):
        _spec([cnn.Conv1D(3, 4, 1), cnn.SoftmaxOutput(2)])
    with pytest.raises(ValueError, match="shorter than filter"):
        _spec([cnn.Conv1D(20, 4, 1), cnn.FullyConnected(4), cnn.SoftmaxOutput(2)])
    with pytest.raises(ValueError, match="shorter than window"):
        _spec(
            [cnn.Conv1D(3, 4, 2), cnn.Max1D(9, 1), cnn.FullyConnected(4), cnn.SoftmaxOutput(2)]
        )
    with pytest.raises(ValueError, match="after flattening"):
        _spec([cnn.FullyConnected(4), cnn.Conv1D(3, 4, 1), cnn.SoftmaxOutput(2)])


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def _gradcheck(spec, seed, atol=1e-6, batch=1):
    rng = np.random.default_rng(seed)
    params = cnn.init_state(spec, rng)
    x = rng.normal(size=(batch, spec.input_channels, spec.input_length))
    labels = rng.integers(spec.num_classes(), size=batch)

    _, grads = cnn.batch_gradients(spec, params, x, labels)

    arrays = [a for p in params if p is not None for a in p]
    analytic = [g for g in grads if g is not None]
    analytic = [a for pair in analytic for a in pair]

    def loss_fn():
        # mean cross-entropy, one forward on a batch of one per row
        return -float(np.mean([
            np.log(cnn._forward_batch(spec, params, xi[None])[0][0, label])
            for xi, label in zip(x, labels)
        ]))

    numeric = oracles.finite_difference_gradients(loss_fn, arrays)
    worst = 0.0
    for a, fd in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-4)
        worst = max(worst, float((np.abs(a - fd) / denom).max()))
    assert worst < atol, f"worst relative gradient error {worst}"


def test_gradients_match_finite_differences():
    _gradcheck(_small_spec(), seed=3)
    # no pooling, stride 1, two fc layers
    _gradcheck(
        _spec(
            [
                cnn.Conv1D(3, 3, 1),
                cnn.ReLU(),
                cnn.FullyConnected(6),
                cnn.ReLU(),
                cnn.FullyConnected(4),
                cnn.SoftmaxOutput(2),
            ],
            channels=1,
            length=10,
        ),
        seed=4,
    )
    # fc-only network
    _gradcheck(
        _spec([cnn.FullyConnected(5), cnn.ReLU(), cnn.SoftmaxOutput(2)], channels=2, length=6),
        seed=5,
    )


def test_gradients_through_pool_with_stride_above_window():
    # conv output length 8; Max1D(2, 3) reads 3 windows, and
    # L_out * stride = 9 > 8, so the last input position is never routed
    spec = _spec(
        [cnn.Conv1D(3, 3, 1), cnn.ReLU(), cnn.Max1D(2, 3), cnn.FullyConnected(4),
         cnn.ReLU(), cnn.SoftmaxOutput(2)],
        channels=2,
        length=10,
    )
    assert spec.layer_shapes()[2] == (3, 3)
    _gradcheck(spec, seed=11)


def test_gradients_two_conv_layers_batched():
    # the second conv has stride 2 and leaves its last input position
    # unread, so col2im must scatter with a stride and leave a zero column
    spec = _spec(
        [cnn.Conv1D(3, 4, 2), cnn.ReLU(), cnn.Max1D(2, 2), cnn.Conv1D(2, 3, 2),
         cnn.ReLU(), cnn.FullyConnected(5), cnn.ReLU(), cnn.SoftmaxOutput(3)],
        channels=3,
        length=22,
    )
    assert spec.layer_shapes()[2:4] == ((4, 5), (3, 2))
    _gradcheck(spec, seed=12, batch=4)


def test_tie_gradient_routes_to_first_position():
    # conv weight zero makes every pooling window all-tied, so the pool
    # gradient must land on window starts; the conv weight gradient then
    # reads the input at those positions
    spec = _spec(
        [cnn.Conv1D(1, 1, 1), cnn.Max1D(2, 2), cnn.FullyConnected(2), cnn.SoftmaxOutput(2)],
        channels=1,
        length=4,
    )
    params = [
        (np.zeros((1, 1, 1)), np.zeros(1)),
        None,
        (np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2)),
        (np.eye(2), np.zeros(2)),
    ]
    x = np.array([[10.0, 20.0, 30.0, 40.0]])
    _, grads = cnn.batch_gradients(spec, params, x[None], np.array([0]))
    # pool grad is [1, 1]; first-offset routing reads x[0] and x[2]
    assert abs(grads[0][0][0, 0, 0] - 40.0) < 1e-12
    assert abs(grads[0][1][0] - 2.0) < 1e-12


def test_batch_gradients_average_individual_gradients():
    spec = _small_spec()
    rng = np.random.default_rng(6)
    params = cnn.init_state(spec, rng)
    x1 = rng.normal(size=(2, 16))
    x2 = rng.normal(size=(2, 16))
    loss_b, grads_b = cnn.batch_gradients(spec, params, np.stack([x1, x2]), np.array([0, 2]))
    loss_1, grads_1 = cnn.batch_gradients(spec, params, x1[None], np.array([0]))
    loss_2, grads_2 = cnn.batch_gradients(spec, params, x2[None], np.array([2]))
    assert abs(loss_b - (loss_1 + loss_2) / 2) < 1e-12
    for gb, g1, g2 in zip(grads_b, grads_1, grads_2):
        if gb is None:
            continue
        for part_b, part_1, part_2 in zip(gb, g1, g2):
            assert np.allclose(part_b, (part_1 + part_2) / 2, atol=1e-12)


def test_backward_rejects_bad_labels():
    spec = _small_spec()
    params = cnn.init_state(spec, np.random.default_rng(0))
    x = np.zeros((1, 2, 16))
    with pytest.raises(ValueError, match="label out of range"):
        cnn.batch_gradients(spec, params, x, np.array([3]))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _toy_problem(seed=0):
    # two classes separated by which half of the series carries energy
    rng = np.random.default_rng(seed)
    samples, labels = [], []
    for i in range(12):
        x = rng.normal(scale=0.05, size=(2, 16))
        label = i % 2
        if label == 0:
            x[:, :8] += 1.0
        else:
            x[:, 8:] += 1.0
        samples.append(x)
        labels.append(label)
    return samples, labels


def test_train_is_deterministic_and_learns():
    spec = _spec(
        [cnn.Conv1D(3, 4, 1), cnn.ReLU(), cnn.Max1D(2, 2), cnn.FullyConnected(8),
         cnn.ReLU(), cnn.SoftmaxOutput(2)]
    )
    samples, labels = _toy_problem()
    config = cnn.TrainConfig(learning_rate=0.05, momentum=0.9, epochs=40, batch_size=4, seed=7,
                             weight_decay=1e-4)
    params1, losses1 = cnn.train(spec, samples, labels, config)
    params2, losses2 = cnn.train(spec, samples, labels, config)
    assert losses1 == losses2
    for p1, p2 in zip(params1, params2):
        if p1 is None:
            continue
        assert np.array_equal(p1[0], p2[0])
        assert np.array_equal(p1[1], p2[1])
    assert losses1[-1] < 0.1 * losses1[0]
    for x, label in zip(samples, labels):
        probs = cnn._forward_batch(spec, params1, x[None])[0][0]
        assert int(np.argmax(probs)) == label


_ORACLE_NETS = {
    # 59 samples: three full batches of 16, then a short one of 11
    "default": (59, 3, 40, cnn.default_architecture(4)),
    "overlapping-pool": (21, 2, 24, (cnn.Conv1D(3, 5, 1), cnn.ReLU(), cnn.Max1D(3, 2),
                                     cnn.FullyConnected(6), cnn.ReLU(), cnn.SoftmaxOutput(3))),
    "wide-overlap-pool": (23, 2, 30, (cnn.Conv1D(3, 4, 1), cnn.ReLU(), cnn.Max1D(5, 2),
                                      cnn.FullyConnected(6), cnn.ReLU(), cnn.SoftmaxOutput(3))),
    "strided-second-conv": (18, 2, 30, (cnn.Conv1D(4, 4, 1), cnn.ReLU(), cnn.Conv1D(3, 6, 2),
                                        cnn.ReLU(), cnn.FullyConnected(5), cnn.SoftmaxOutput(2))),
}


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("net", sorted(_ORACLE_NETS))
def test_train_matches_per_layer_reference(net, weight_decay):
    n, channels, length, layers = _ORACLE_NETS[net]
    spec = _spec(layers, channels=channels, length=length)
    rng = np.random.default_rng(11)
    samples = list(rng.normal(size=(n, channels, length)))
    labels = [i % spec.num_classes() for i in range(n)]
    config = cnn.TrainConfig(learning_rate=0.01, momentum=0.9, epochs=4, batch_size=16, seed=3,
                             weight_decay=weight_decay)
    params, losses = cnn.train(spec, samples, labels, config)
    want_params, want_losses = oracles.reference_train(spec, samples, labels, config)
    assert losses == want_losses
    for got, want in zip(params, want_params):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_train_raises_on_divergence():
    spec = _spec(
        [cnn.Conv1D(3, 4, 1), cnn.ReLU(), cnn.Max1D(2, 2), cnn.FullyConnected(8),
         cnn.ReLU(), cnn.SoftmaxOutput(2)]
    )
    samples, labels = _toy_problem()
    config = cnn.TrainConfig(learning_rate=1e6, momentum=0.9, epochs=10, batch_size=4, seed=7,
                             weight_decay=1e-4)
    # training stops at the first non-finite batch loss, without numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="diverged in epoch"):
            cnn.train(spec, samples, labels, config)


def test_train_validation():
    spec = _small_spec()
    samples = [np.zeros((2, 16)), np.zeros((2, 16))]
    config = cnn.TrainConfig(learning_rate=0.01, momentum=0.9, epochs=1, batch_size=16, seed=0,
                             weight_decay=1e-4)
    with pytest.raises(ValueError, match="no training sample for class"):
        cnn.train(spec, samples, [0, 1], config)  # class 2 absent
    with pytest.raises(ValueError, match="label out of range"):
        cnn.train(spec, samples, [0, 5], config)
    with pytest.raises(ValueError, match="does not match spec"):
        cnn.train(spec, [np.zeros((2, 9)), np.zeros((2, 9))], [0, 1], config)
    with pytest.raises(ValueError, match="sample count"):
        cnn.train(spec, samples, [0, 1, 2], config)


def test_train_config_validation():
    valid = cnn.TrainConfig(learning_rate=0.01, momentum=0.9, epochs=30, batch_size=16, seed=0,
                            weight_decay=1e-4)
    with pytest.raises(ValueError, match="learning_rate"):
        dataclasses.replace(valid, learning_rate=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            dataclasses.replace(valid, learning_rate=bad)
        with pytest.raises(ValueError, match="weight_decay"):
            dataclasses.replace(valid, weight_decay=bad)
    with pytest.raises(ValueError, match="momentum"):
        dataclasses.replace(valid, momentum=1.0)
    with pytest.raises(ValueError, match="epochs"):
        dataclasses.replace(valid, epochs=0)
    with pytest.raises(ValueError, match="weight_decay"):
        dataclasses.replace(valid, weight_decay=-1.0)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        dataclasses.replace(valid, seed=-1)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def test_extract_features_cutoff_and_sign():
    spec = _small_spec()
    params = cnn.init_state(spec, np.random.default_rng(8))
    x = np.random.default_rng(8).normal(size=(2, 16))
    feats = cnn.extract_features(spec, params, x[None])
    assert feats.shape == (1, 5)
    assert feats.min() >= 0.0  # trailing ReLU keeps features nonnegative
    # equals the forward activations just before the softmax layer
    probs = cnn._forward_batch(spec, params, x[None])[0][0]
    w, b = params[-1]
    assert np.allclose(cnn.softmax(feats @ w.T + b)[0], probs, atol=1e-12)


def test_extract_features_without_trailing_relu():
    spec = _spec([cnn.FullyConnected(4), cnn.SoftmaxOutput(2)], channels=1, length=5)
    params = cnn.init_state(spec, np.random.default_rng(9))
    feats = cnn.extract_features(spec, params, np.ones((1, 1, 5)))
    assert feats.shape == (1, 4)
    with pytest.raises(ValueError, match="does not match spec"):
        cnn.extract_features(spec, params, np.ones((1, 2, 5)))


def test_extract_features_batch_matches_single_rows():
    spec = _spec(
        [cnn.Conv1D(3, 4, 2), cnn.ReLU(), cnn.Max1D(2, 2), cnn.Conv1D(2, 3, 1),
         cnn.ReLU(), cnn.FullyConnected(6), cnn.ReLU(), cnn.SoftmaxOutput(3)],
        channels=2,
        length=24,
    )
    params = cnn.init_state(spec, np.random.default_rng(13))
    x = np.random.default_rng(13).normal(size=(7, 2, 24))
    batch = cnn.extract_features(spec, params, x)
    assert batch.shape == (7, 6)
    for row, xi in zip(batch, x):
        single = cnn.extract_features(spec, params, xi[None])[0]
        assert np.abs(row - single).max() <= 1e-12


# ---------------------------------------------------------------------------
# Architecture text format
# ---------------------------------------------------------------------------

def test_architecture_round_trip():
    layers = cnn.default_architecture(3)
    text = cnn.format_architecture(layers)
    assert text == ("conv 5 32 2\nrelu\nmax 2 2\nconv 3 64 1\nrelu\nmax 2 2\n"
                    "fc 64\nrelu\nsoftmax 3\n")
    assert cnn.parse_architecture(text) == layers


def test_parse_architecture_ignores_comments():
    text = "# header\nconv 5 32 2  # conv layer\n\nrelu\nfc 64\nsoftmax 3\n"
    layers = cnn.parse_architecture(text)
    assert layers == (cnn.Conv1D(5, 32, 2), cnn.ReLU(), cnn.FullyConnected(64),
                      cnn.SoftmaxOutput(3))


def test_parse_architecture_errors_carry_line_numbers():
    with pytest.raises(DataFormatError, match="line 2"):
        cnn.parse_architecture("relu\nwavelet 3\n")
    with pytest.raises(DataFormatError, match="line 1"):
        cnn.parse_architecture("conv five 32 2\n")
    with pytest.raises(DataFormatError, match="line 3"):
        cnn.parse_architecture("relu\nfc 4\nmax 2\n")  # max needs two arguments
    for text in ("wavelet 3", "max 2", "conv 1 2", "relu 3"):
        with pytest.raises(DataFormatError, match="line 1: unrecognised layer"):
            cnn.parse_architecture(text)
    for text in ("conv five 32 2", "conv 0 32 2", "fc 1.5", "softmax 0"):
        with pytest.raises(DataFormatError, match="line 1: bad layer arguments"):
            cnn.parse_architecture(text)


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------

def test_model_round_trip_through_f32(tmp_path):
    spec = _small_spec()
    params = cnn.init_state(spec, np.random.default_rng(10))
    path = tmp_path / "net.cnn"
    cnn.save_model(spec, params, path)
    back_spec, back_params = cnn.load_model(path)
    assert back_spec == spec
    for orig, back in zip(params, back_params):
        if orig is None:
            assert back is None
            continue
        assert np.array_equal(back[0], orig[0].astype(np.float32).astype(np.float64))
        assert np.array_equal(back[1], orig[1].astype(np.float32).astype(np.float64))


def test_load_model_errors(tmp_path):
    bad = tmp_path / "bad.cnn"
    bad.write_bytes(b"CNN1" + np.array([5], dtype="<u4").tobytes() + b"hello")
    with pytest.raises(DataFormatError, match="bad magic b'CNN1'"):
        cnn.load_model(bad)

    spec = _spec([cnn.FullyConnected(2), cnn.SoftmaxOutput(2)], channels=1, length=3)
    params = cnn.init_state(spec, np.random.default_rng(0))
    good = tmp_path / "good.cnn"
    cnn.save_model(spec, params, good)
    blob = good.read_bytes()
    stored = arrays.load(good)
    assert list(stored) == ["spec", "params"]
    assert stored["spec"].tobytes() == b"input 1 3\nfc 2\nsoftmax 2\n"

    trunc = tmp_path / "trunc.cnn"
    trunc.write_bytes(blob[:-4])
    with pytest.raises(DataFormatError, match="truncated"):
        cnn.load_model(trunc)

    extra = tmp_path / "extra.cnn"
    extra.write_bytes(blob + b"\x00\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        cnn.load_model(extra)

    for params, message in ((stored["params"][:-1], "13 parameters, the spec needs 14"),
                            (np.zeros(15, np.float32), "15 parameters, the spec needs 14"),
                            (stored["params"].astype(np.float64), "array 'params' is <f8")):
        arrays.write(bad, spec=stored["spec"], params=params)
        with pytest.raises(DataFormatError, match=message):
            cnn.load_model(bad)

    for text in (b"hello", b""):
        arrays.write(bad, spec=text, params=stored["params"])
        with pytest.raises(DataFormatError, match="input line"):
            cnn.load_model(bad)
    arrays.write(bad, spec=b"input 1 3\nfc 2\n", params=stored["params"])
    with pytest.raises(DataFormatError, match="malformed spec block"):
        cnn.load_model(bad)


def test_load_model_rejects_undecodable_spec_and_nonfinite_parameters(tmp_path):
    spec = _spec([cnn.FullyConnected(2), cnn.SoftmaxOutput(2)], channels=1, length=3)
    good = tmp_path / "good.cnn"
    cnn.save_model(spec, cnn.init_state(spec, np.random.default_rng(0)), good)
    stored = arrays.load(good)
    cases = [
        ("not UTF-8", {"spec": b"\xff" + stored["spec"].tobytes()[1:]}),
        ("must be finite", {"params": np.append(stored["params"][:-1], np.float32(np.nan))}),
        ("must be finite", {"params": np.append(np.float32(np.inf), stored["params"][1:])}),
    ]
    for message, changes in cases:
        bad = tmp_path / "bad.cnn"
        arrays.write(bad, **{**stored, **changes})
        with pytest.raises(DataFormatError, match=message):
            cnn.load_model(bad)


def test_load_model_checks_size_before_allocating(tmp_path):
    # a few hundred bytes declaring a 4096 x 4096 fc layer: 64 MB of f32
    spec_text = b"input 1 4096\nfc 4096\nrelu\nsoftmax 2\n"
    declared = tmp_path / "declared.cnn"  # the params array declares the 64 MB
    arrays.write(declared, spec=spec_text, params=np.zeros(64, np.float32))
    blob = bytearray(declared.read_bytes())
    shape_at = len(blob) - 4 * 64 - 4
    blob[shape_at : shape_at + 4] = np.array([2**24], "<u4").tobytes()
    declared.write_bytes(bytes(blob))
    small = tmp_path / "small.cnn"  # the params array is small; the spec needs 64 MB
    arrays.write(small, spec=spec_text, params=np.zeros(64, np.float32))
    for path, message in ((declared, "truncated"), (small, "64 parameters, the spec needs")):
        assert path.stat().st_size < 512
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=message):
                cnn.load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak} bytes"
