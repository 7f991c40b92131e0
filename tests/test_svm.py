import functools
import os
import signal
import tracemalloc

import numpy as np
import pytest

from motionpipe import arrays, svm, workers
from motionpipe.errors import ConvergenceError, DataFormatError, WorkerError

import oracles
from test_workers import record_forks, usable_cpus


def _clusters(rng, per_class=20, dim=6, classes=2, spread=0.05):
    """Well-separated nonnegative clusters, one per class."""
    feats, labels = [], []
    for c in range(classes):
        centre = rng.uniform(0.5, 2.0, size=dim)
        centre[c % dim] += 3.0
        for _ in range(per_class):
            feats.append(np.abs(centre + rng.normal(scale=spread, size=dim)))
            labels.append(f"class{c}")
    return np.array(feats), labels


def _fit_auto(feats, labels, c_box=10.0):
    """``svm.fit`` with gamma "auto" (``default_gamma``, seed 0) and tol 1e-3, as ``run``'s
    defaults give."""
    params = svm.KernelParams(gamma=svm.default_gamma(feats, seed=0))
    return svm.fit(feats, labels, c_box=c_box, params=params, tol=1e-3)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

def test_kernel_of_identical_vectors_is_one():
    rng = np.random.default_rng(0)
    params = svm.KernelParams(gamma=0.7)
    for _ in range(5):
        x = rng.uniform(0, 3, size=8)
        assert abs(svm.chi2_gram(x[None], x[None], params)[0, 0] - 1.0) < 1e-12


def test_kernel_hand_value():
    # d = (2-0)^2/2 + (0-2)^2/2 = 4, so K = exp(-0.5 * 4) = e^-2
    params = svm.KernelParams(gamma=0.5)
    got = svm.chi2_gram(np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]]), params)[0, 0]
    assert abs(got - np.exp(-2.0)) < 1e-9


def test_kernel_symmetry_and_range():
    rng = np.random.default_rng(1)
    params = svm.KernelParams(gamma=1.3)
    for _ in range(20):
        x = rng.uniform(0, 2, size=5)
        y = rng.uniform(0, 2, size=5)
        k_xy = svm.chi2_gram(x[None], y[None], params)[0, 0]
        assert abs(k_xy - svm.chi2_gram(y[None], x[None], params)[0, 0]) < 1e-15
        assert 0.0 < k_xy <= 1.0


def test_kernel_rejects_bad_inputs():
    params = svm.KernelParams(gamma=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        svm.chi2_gram(np.array([[-0.1, 1.0]]), np.array([[1.0, 1.0]]), params)
    with pytest.raises(ValueError, match="equal length"):
        svm.chi2_gram(np.ones((1, 3)), np.ones((1, 4)), params)
    with pytest.raises(ValueError, match="gamma"):
        svm.KernelParams(gamma=0.0)


def test_kernel_rejects_nan_features():
    x = np.array([[0.5, np.nan], [1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        svm.chi2_gram(x, x, svm.KernelParams(gamma=1.0))
    with pytest.raises(ValueError, match="finite"):
        svm.default_gamma(x, seed=0)


def test_kernel_rejects_infinite_features():
    params = svm.KernelParams(gamma=1.0)
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            svm.chi2_gram(np.array([[bad, 1.0]]), np.array([[1.0, 1.0]]), params)


def test_gram_matrix_is_psd():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, size=(30, 8))
    gram = svm.chi2_gram(x, x, svm.KernelParams(gamma=0.9))
    assert np.allclose(gram, gram.T, atol=1e-15)
    eigvals = np.linalg.eigvalsh(gram)
    assert eigvals.min() >= -1e-8


def _broadcast_chi2(x, y, eps):
    diff = x[:, None, :] - y[None, :, :]
    denom = x[:, None, :] + y[None, :, :] + eps
    return np.sum(diff * diff / denom, axis=2)


def test_blocked_chi2_distances_match_broadcast_formula():
    rng = np.random.default_rng(3)
    y = rng.uniform(0, 2, size=(100, 64))
    x = rng.uniform(0, 2, size=(23, 64))
    rows = svm._BLOCK_ELEMENTS // y.size
    assert 1 < rows < x.shape[0] and x.shape[0] % rows != 0  # several blocks, last one short
    assert np.array_equal(svm.chi2_distance_matrix(x, y), _broadcast_chi2(x, y, 1e-12))
    small = x[:3, :5]
    assert np.array_equal(svm.chi2_distance_matrix(small, small),
                          _broadcast_chi2(small, small, 1e-12))


def test_chi2_distances_of_x_with_itself_mirror_exactly():
    rng = np.random.default_rng(5)
    x = np.maximum(rng.normal(size=(60, 64)), 0.0)  # about half exact zeros
    rows = svm._BLOCK_ELEMENTS // x.size
    assert 1 < rows < x.shape[0] and x.shape[0] % rows != 0  # several blocks, last one short
    d = svm.chi2_distance_matrix(x, x)
    assert np.array_equal(d, _broadcast_chi2(x, x, 1e-12))
    assert np.array_equal(d, d.T)
    assert np.array_equal(svm.chi2_gram(x, x, svm.KernelParams(gamma=0.2)),
                          svm.chi2_gram(x, x.copy(), svm.KernelParams(gamma=0.2)))


@pytest.mark.parametrize("case", ["one-row-blocks", "symmetric-one-row-blocks", "empty-y",
                                  "one-row-x", "one-row-x-symmetric"])
def test_chi2_distances_edge_shapes_match_broadcast_formula(case):
    rng = np.random.default_rng(16)
    wide = np.maximum(rng.normal(size=(30, 1100)), 0.0)  # one row is 1100 values
    assert wide.size > svm._BLOCK_ELEMENTS  # so every block holds a single row of x
    x, y = {
        "one-row-blocks": (wide[:7] + 0.5, wide),
        "symmetric-one-row-blocks": (wide, None),
        "empty-y": (wide[:3, :5], np.empty((0, 5))),
        "one-row-x": (wide[:1, :64], wide[:, :64]),
        "one-row-x-symmetric": (wide[:1, :64], None),
    }[case]
    y = x if y is None else y  # `y is x` selects the mirrored path
    d = svm.chi2_distance_matrix(x, y)
    assert d.shape == (x.shape[0], y.shape[0])
    assert np.array_equal(d, _broadcast_chi2(x, y, 1e-12))


def test_chi2_distances_memory_stays_blocked():
    x = np.random.default_rng(4).uniform(0, 2, size=(960, 64))
    tracemalloc.start()
    try:
        svm.chi2_distance_matrix(x, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # the S x S x d broadcast needs about 470 MB here


# ---------------------------------------------------------------------------
# default_gamma
# ---------------------------------------------------------------------------

def test_default_gamma_two_points():
    # single pair at chi-squared distance 2 gives gamma 1/2
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert abs(svm.default_gamma(feats, seed=0) - 0.5) < 1e-9


def test_default_gamma_matches_brute_force_mean():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 2, size=(25, 6))
    total = 0.0
    count = 0
    for i in range(25):
        for j in range(i + 1, 25):
            d = np.sum((x[i] - x[j]) ** 2 / (x[i] + x[j] + 1e-12))
            total += d
            count += 1
    assert abs(svm.default_gamma(x, seed=0) - count / total) < 1e-9


def test_default_gamma_sampled_path_is_seeded():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 2, size=(250, 5))
    g1 = svm.default_gamma(x, seed=9)
    g2 = svm.default_gamma(x, seed=9)
    assert g1 == g2 and g1 > 0
    # the sample estimate tracks the full mean loosely
    full = 1.0 / chi2_mean(x)
    assert 0.5 * full < g1 < 2.0 * full


def chi2_mean(x):
    d = svm.chi2_distance_matrix(x, x)
    return d[np.triu_indices(x.shape[0], k=1)].mean()


def test_default_gamma_rejects_degenerate_input():
    with pytest.raises(ValueError, match="at least 2"):
        svm.default_gamma(np.ones((1, 4)), seed=0)
    with pytest.raises(ValueError, match="identical"):
        svm.default_gamma(np.ones((5, 4)), seed=0)
    x = np.random.default_rng(5).uniform(0.1, 2, size=(250, 3))
    for rows in (2, 200, 201, 250):  # the all-pairs path and the sampled one
        with pytest.raises(ValueError, match="nonnegative features"):
            svm.default_gamma(-x[:rows], seed=0)


# ---------------------------------------------------------------------------
# SMO solver
# ---------------------------------------------------------------------------

def test_two_point_problem():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = svm.fit(feats, ["a", "b"], c_box=10.0, params=svm.KernelParams(gamma=0.5), tol=1e-3)
    assert model.labels == ("a", "b")
    for machine in model.machines:
        assert len(machine.support_indices) == 2  # both points support the margin
    assert svm.predict_batch(model, feats[:1]) == ["a"]
    assert svm.predict_batch(model, feats[1:]) == ["b"]


def test_separable_clusters_dual_matches_qp_oracle():
    # fit tighter than the default tolerance: the 1e-4 dual slack needs
    # a duality gap well under it
    rng = np.random.default_rng(6)
    feats, labels = _clusters(rng, per_class=20)
    params = svm.KernelParams(gamma=svm.default_gamma(feats, seed=0))
    model = svm.fit(feats, labels, c_box=10.0, params=params, tol=1e-5)

    assert svm.predict_batch(model, feats) == labels

    gram = svm.chi2_gram(feats, feats, params)
    label_arr = np.array(labels)
    for cls, machine in zip(model.labels, model.machines):
        y = np.where(label_arr == cls, 1.0, -1.0)
        alpha = np.zeros(len(labels))
        alpha[machine.support_indices] = machine.coefficients * y[machine.support_indices]
        ref = oracles.projected_gradient_qp(gram, y, c_box=10.0)
        got = oracles.qp_objective(gram, y, alpha)
        want = oracles.qp_objective(gram, y, ref)
        assert got >= want - 1e-4

        # the returned machine satisfies the KKT conditions at tol
        decision = svm.decision_values(model, feats)[:, model.labels.index(cls)]
        viol = oracles.kkt_violation(alpha, y, decision - y, 10.0, 1e-3)
        assert viol.max() <= 1e-3


def _smo_problem(case):
    """(gram, one y per machine, c_box, tol) for the SMO bit-identity cases."""
    rng = np.random.default_rng(21 if case == "small-c-box" else 5)
    if case == "two-point":
        x, y = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0])
        return svm.chi2_gram(x, x, svm.KernelParams(gamma=0.5)), [y], 10.0, 1e-3
    if case == "relu-4-class":
        rows, dim, classes = 960, 64, 4
        centres = np.kron(np.eye(classes), np.full(dim // classes, 0.8))
        cls = np.arange(rows) % classes
        x = np.maximum(centres[cls] + rng.normal(size=(rows, dim)) - 0.1, 0.0)
        gram = svm.chi2_gram(x, x, svm.KernelParams(gamma=svm.default_gamma(x, seed=0)))
        ys = [np.where(cls == k, 1.0, -1.0) for k in range(classes)]  # one vs rest
        return gram, ys, 10.0, 1e-3
    if case == "small-c-box":
        x = rng.uniform(0, 2, size=(40, 5))
        y = np.where(rng.uniform(size=40) < 0.5, 1.0, -1.0)
        return svm.chi2_gram(x, x, svm.KernelParams(gamma=0.5)), [y], 0.05, 1e-3
    x = rng.uniform(0, 2, size=(12, 4))
    y = np.where(rng.uniform(size=12) < 0.5, 1.0, -1.0)
    x, y = np.vstack([x, x, x]), np.concatenate([y, y, y])  # every row three times
    return svm.chi2_gram(x, x, svm.KernelParams(gamma=0.5)), [y], 1.0, 1e-9


@pytest.mark.parametrize("case", ["small-c-box", "duplicated-rows", "relu-4-class", "two-point"])
def test_smo_matches_reference_rebuilding_kkt_sets(case, monkeypatch):
    gram, ys, c_box, tol = _smo_problem(case)
    step = svm._smo_step
    steps = []
    for y in ys:
        calls = []

        def recording(gram, y, alpha, errors, i, j, c_box):
            moved = step(gram, y, alpha, errors, i, j, c_box)
            calls.append((i, moved))
            return moved

        monkeypatch.setattr(svm, "_smo_step", recording)
        alpha, bias = svm._smo(gram, y, c_box, tol)
        monkeypatch.setattr(svm, "_smo_step", step)
        want_alpha, want_bias = oracles.reference_smo(gram, y, c_box, tol)
        assert np.array_equal(alpha, want_alpha)
        assert bias == want_bias
        steps.append(len(calls))
    assert min(steps) > 0
    if case == "relu-4-class":
        assert min(steps) > 500  # hundreds of set updates per machine
    if case == "small-c-box":
        assert np.count_nonzero(alpha == c_box) > 1  # alphas reach the box
        assert np.count_nonzero((alpha > 0) & (alpha < c_box)) > 0
    if case == "duplicated-rows":
        # each rejected step is followed by the next partner for the same i
        fallbacks = [a[0] == b[0] for a, b in zip(calls, calls[1:]) if not a[1]]
        assert fallbacks and all(fallbacks)
    if case == "two-point":
        assert np.all(alpha > 0)


def test_noisy_labels_still_converge():
    rng = np.random.default_rng(7)
    feats = rng.uniform(0, 2, size=(30, 5))
    labels = [("x" if rng.uniform() < 0.5 else "y") for _ in range(30)]
    if len(set(labels)) < 2:
        labels[0] = "x" if labels[1] == "y" else "y"
    model = _fit_auto(feats, labels, c_box=2.0)
    values = svm.decision_values(model, feats)
    assert np.all(np.isfinite(values))


def test_duplicated_dataset_predicts_identically():
    rng = np.random.default_rng(8)
    feats, labels = _clusters(rng, per_class=10)
    params = svm.KernelParams(gamma=svm.default_gamma(feats, seed=0))
    m1 = svm.fit(feats, labels, c_box=10.0, params=params, tol=1e-3)
    m2 = svm.fit(np.vstack([feats, feats]), labels + labels, c_box=10.0, params=params,
                 tol=1e-3)
    probe = rng.uniform(0, 3, size=(40, feats.shape[1]))
    assert svm.predict_batch(m1, probe) == svm.predict_batch(m2, probe)


def test_three_class_one_vs_rest():
    rng = np.random.default_rng(9)
    feats, labels = _clusters(rng, per_class=12, classes=3)
    model = _fit_auto(feats, labels)
    assert model.labels == ("class0", "class1", "class2")
    assert svm.predict_batch(model, feats) == labels
    assert svm.predict_batch(model, feats[:1]) == ["class0"]
    values = svm.decision_values(model, feats[0])[0]
    assert values.shape == (3,)
    assert int(np.argmax(values)) == 0


def test_kkt_violation_semantics():
    alpha = np.array([0.0, 5.0, 10.0])
    y = np.array([1.0, 1.0, -1.0])
    errors = np.array([-1.0, 0.5, -0.2])
    viol = oracles.kkt_violation(alpha, y, errors, c_box=10.0, tol=1e-3)
    # alpha 0: only yE < 0 violates; alpha interior: any |yE|; alpha at C:
    # only yE > 0 violates
    assert viol[0] == 1.0
    assert viol[1] == 0.5
    assert viol[2] == 0.2
    assert oracles.kkt_violation(np.zeros(1), np.array([1.0]), np.array([1.0]), 10.0,
                                 1e-3)[0] == 0.0


@pytest.mark.parametrize("seed", range(24))
def test_decision_values_do_not_depend_on_the_row_count(seed, tmp_path):
    # one-vs-rest problems of varied size, width and class count; the last
    # seeds also go through an SVM1 file, whose machines share support rows
    rng = np.random.default_rng(100 + seed)
    rows, dim, classes = int(rng.integers(12, 90)), int(rng.integers(2, 40)), int(rng.integers(2, 6))
    feats = rng.uniform(0.0, 2.0, size=(rows, dim))
    labels = [f"c{k}" for k in rng.permutation(np.arange(rows) % classes)]
    model = _fit_auto(feats, labels, c_box=float(rng.choice([0.5, 10.0])))
    if seed >= 18:
        svm.save_model(model, tmp_path / "model.svm")
        model = svm.load_model(tmp_path / "model.svm")
    probe = rng.uniform(0.0, 2.5, size=(int(rng.integers(2, 70)), dim))
    batch = svm.decision_values(model, probe)
    assert np.array_equal(batch, np.vstack([svm.decision_values(model, row) for row in probe]))
    assert svm.predict_batch(model, probe) == [
        label for row in probe for label in svm.predict_batch(model, [row])
    ]


def test_prediction_ties_take_first_sorted_label():
    empty = np.array([], dtype=np.int64)
    machine = svm.BinarySvm(support_indices=empty, coefficients=np.array([]), bias=0.5)
    model = svm.SvmModel(
        labels=("a", "b"),
        machines=(machine, machine),
        features=np.zeros((0, 2)),
        params=svm.KernelParams(gamma=1.0),
    )
    values = svm.decision_values(model, np.array([1.0, 1.0]))[0]
    assert values[0] == values[1] == 0.5
    assert svm.predict_batch(model, [np.array([1.0, 1.0])]) == ["a"]


def test_fit_validation():
    feats = np.ones((4, 3))
    fit = functools.partial(svm.fit, c_box=10.0, params=svm.KernelParams(gamma=1.0), tol=1e-3)
    with pytest.raises(ValueError, match="at least 2 classes"):
        fit(feats, ["a", "a", "a", "a"])
    with pytest.raises(ValueError, match="labels must match"):
        fit(feats, ["a", "b"])
    with pytest.raises(ValueError, match="nonnegative"):
        fit(-feats, ["a", "a", "b", "b"])


def test_predict_rejects_wrong_dimension():
    rng = np.random.default_rng(10)
    feats, labels = _clusters(rng, per_class=5)
    model = _fit_auto(feats, labels)
    with pytest.raises(ValueError, match="does not match model dimension"):
        svm.predict_batch(model, [np.ones(feats.shape[1] + 1)])


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------

def test_model_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(11)
    feats, labels = _clusters(rng, per_class=8, classes=3)
    model = _fit_auto(feats, labels)
    path = tmp_path / "model.svm"
    svm.save_model(model, path)
    back = svm.load_model(path)
    assert back.labels == model.labels
    assert back.params.gamma == model.params.gamma
    # support vectors round through float32; decisions match closely
    got = svm.decision_values(back, feats)
    want = svm.decision_values(model, feats)
    assert np.abs(got - want).max() < 1e-4
    assert svm.predict_batch(back, feats) == labels


def test_load_model_errors(tmp_path):
    bad = tmp_path / "bad.svm"
    bad.write_bytes(b"SVM1" + bytes(24))
    with pytest.raises(DataFormatError, match="bad magic b'SVM1'"):
        svm.load_model(bad)

    rng = np.random.default_rng(12)
    feats, labels = _clusters(rng, per_class=4)
    model = _fit_auto(feats, labels)
    good = tmp_path / "good.svm"
    svm.save_model(model, good)
    blob = good.read_bytes()
    stored = arrays.load(good)
    assert list(stored) == ["labels", "kernel", "vectors", "counts", "support",
                            "coefficients", "biases"]

    trunc = tmp_path / "trunc.svm"
    trunc.write_bytes(blob[:-6])
    with pytest.raises(DataFormatError, match="truncated"):
        svm.load_model(trunc)

    extra = tmp_path / "extra.svm"
    extra.write_bytes(blob + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        svm.load_model(extra)

    counts = stored["counts"]
    cases = [
        ("at least 2 classes", {"labels": b"class0"}),
        ("at least 2 classes", {"labels": b""}),
        ("duplicate class labels", {"labels": b"class0\nclass0"}),
        ("feature dimension must be at least 1", {"vectors": np.zeros((3, 0), np.float32)}),
        ("coefficients and bias must be finite", {"biases": np.array([0.0, np.nan])}),
        ("coefficients and bias must be finite", {"biases": np.array([-np.inf, 0.0])}),
        ("coefficients and bias must be finite",
         {"coefficients": np.append(stored["coefficients"][:-1], np.inf)}),
        ("machine sizes", {"counts": counts[:1]}),
        ("machine sizes", {"biases": stored["biases"][:1]}),
        ("machine sizes", {"counts": counts + [1, 0]}),
        ("machine sizes", {"counts": counts - [counts[0], 0]}),
        ("machine sizes", {"counts": np.array([-2**62, 2**62 + stored["support"].size])}),
        ("machine sizes", {"coefficients": stored["coefficients"][1:]}),
        ("rows of the support vectors", {"support": stored["support"] - 1}),
        ("rows of the support vectors",
         {"support": np.append(stored["support"][:-1], len(stored["vectors"]))}),
        ("array 'support' is <f8", {"support": stored["support"].astype(np.float64)}),
        ("array 'kernel' is <f8 \\(3,\\)", {"kernel": np.ones(3)}),
    ]
    for message, changes in cases:
        arrays.write(bad, **{**stored, **changes})
        with pytest.raises(DataFormatError, match=message):
            svm.load_model(bad)


def test_loaded_model_shares_support_vectors_across_machines(tmp_path):
    rng = np.random.default_rng(14)
    feats, labels = _clusters(rng, per_class=8, classes=3, spread=0.4)
    model = _fit_auto(feats, labels)
    path = tmp_path / "model.svm"
    svm.save_model(model, path)
    back = svm.load_model(path)

    entries = sum(m.support_indices.size for m in back.machines)
    assert back.features.shape[0] < entries  # machines share support vectors
    assert np.unique(back.features, axis=0).shape[0] == back.features.shape[0]

    # the reference evaluates each machine on its own rows: in memory, and
    # as SVM1 stores them (float32), summing each probe row's terms on their own
    stored = model.features.astype(np.float32).astype(np.float64)
    probe = rng.uniform(0, 3, size=(7, feats.shape[1]))
    for m, rows in ((model, model.features), (back, stored)):
        want = np.column_stack([
            (svm.chi2_gram(probe, rows[k.support_indices], model.params) * k.coefficients)
            .sum(axis=1) + k.bias
            for k in model.machines
        ])
        assert np.array_equal(svm.decision_values(m, probe), want)

    again = tmp_path / "again.svm"
    svm.save_model(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_smo_partners_follow_the_sorted_order():
    score = np.array([-np.inf, 2.0, 5.0, 5.0, 1.0, 5.0])
    indices = np.arange(score.size)
    assert list(svm._partners(score, indices)) == list(np.lexsort((indices, -score)))


def test_load_model_rejects_bad_labels_and_kernel(tmp_path):
    rng = np.random.default_rng(15)
    feats, labels = _clusters(rng, per_class=3)
    good = tmp_path / "good.svm"
    svm.save_model(_fit_auto(feats, labels), good)
    stored = arrays.load(good)
    assert stored["labels"].tobytes() == b"class0\nclass1"
    eps = stored["kernel"][1]
    vectors = stored["vectors"]
    cases = [
        ("UTF-8", {"labels": b"\xff" + stored["labels"].tobytes()[1:]}),
        ("gamma must be positive", {"kernel": np.array([0.0, eps])}),
        ("gamma must be positive", {"kernel": np.array([np.nan, eps])}),
        ("chi-squared epsilon", {"kernel": np.array([1.0, -1.0])}),
        ("chi-squared epsilon", {"kernel": np.array([1.0, 1e-6])}),
        ("finite and nonnegative", {"vectors": np.where(vectors == vectors[0, 0], np.nan, vectors)}),
        ("finite and nonnegative", {"vectors": np.where(vectors == vectors[0, 0], -1.0, vectors)}),
    ]
    for message, changes in cases:
        bad = tmp_path / "bad.svm"
        arrays.write(bad, **{**stored, **changes})
        with pytest.raises(DataFormatError, match=message):
            svm.load_model(bad)


def test_save_model_rejects_a_label_with_a_line_break(tmp_path):
    rng = np.random.default_rng(15)
    feats, _ = _clusters(rng, per_class=3)
    model = _fit_auto(feats, ["a\nb"] * 3 + ["c"] * 3)
    with pytest.raises(ValueError, match="line break"):
        svm.save_model(model, tmp_path / "model.svm")
    assert not (tmp_path / "model.svm").exists()


def test_smo_step_cap_raises(monkeypatch):
    monkeypatch.setattr(svm, "MAX_SMO_STEPS", 1)
    rng = np.random.default_rng(13)
    feats, labels = _clusters(rng, per_class=10)
    with pytest.raises(ConvergenceError, match="not converged"):
        _fit_auto(feats, labels)


# ---------------------------------------------------------------------------
# The fit split between this process and one forked child
# ---------------------------------------------------------------------------

def _fork_at_any_size(monkeypatch):
    monkeypatch.setattr(svm, "_FORK_TERMS", 0)
    usable_cpus(monkeypatch)


def _serial(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(svm, "_FORK_TERMS", 2**62)
        return fn(*args, **kwargs)


def _forbid_forks(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("rows, cols, dim", [
    (600, None, 64),   # one-row blocks, as in a 960 x 64 fit
    (40, None, 64),    # blocks of 12 rows and a last one of 4; the cut is after the first
    (300, None, 2),    # small d: 54 rows a block
    (250, 130, 3),     # rectangular: blocks of 84, 84 and 82 rows, the cut after the first
    (60, 600, 64),     # rectangular, one-row blocks
])
def test_forked_distances_are_the_serial_bits(monkeypatch, tmp_path, rows, cols, dim):
    rng = np.random.default_rng(rows + dim)
    x = np.maximum(rng.normal(size=(rows, dim)), 0.0)  # exact zeros too
    y = x if cols is None else np.maximum(rng.normal(size=(cols, dim)), 0.0)
    expected = _serial(monkeypatch, svm.chi2_distance_matrix, x, y)
    _fork_at_any_size(monkeypatch)
    real = svm._distance_blocks

    def recorded(*args):
        with open(tmp_path / "blocks", "a") as fh:
            fh.write(f"{os.getpid()} {len(args[4])}\n")
        return real(*args)

    monkeypatch.setattr(svm, "_distance_blocks", recorded)
    got = svm.chi2_distance_matrix(x, x if cols is None else y)
    assert np.array_equal(got, expected)
    blocks = [tuple(map(int, line.split())) for line in open(tmp_path / "blocks")]
    assert len(blocks) == 2 and len({pid for pid, _ in blocks} - {os.getpid()}) == 2


@pytest.mark.parametrize("rows, cols, dim", [
    (300, None, 7),   # symmetric: blocks of 15 rows, rows of 300 values
    (129, None, 65),  # symmetric: blocks of 3 rows
    (37, 611, 13),    # rectangular: blocks of 4 rows of 611 values
    (90, 203, 65),    # rectangular: blocks of 2 rows
])
@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
def test_in_place_kernel_is_the_exp_of_the_scaled_distances(monkeypatch, tmp_path,
                                                            rows, cols, dim, forked):
    rng = np.random.default_rng(rows + dim)
    x = np.maximum(rng.normal(size=(rows, dim)), 0.0)  # exact zeros too
    y = x if cols is None else np.maximum(rng.normal(size=(cols, dim)), 0.0)
    params = svm.KernelParams(gamma=0.37)
    want = np.exp(-params.gamma * _serial(monkeypatch, svm.chi2_distance_matrix, x, y))
    if forked:
        _fork_at_any_size(monkeypatch)
    else:
        _forbid_forks(monkeypatch)
    forks = record_forks(monkeypatch, tmp_path / "forks")
    got = svm.chi2_gram(x, y, params)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert forks() == ([os.getpid()] if forked else [])


def _assert_same_machines(got, want):
    assert got.labels == want.labels and np.array_equal(got.features, want.features)
    for a, b in zip(got.machines, want.machines):
        assert np.array_equal(a.support_indices, b.support_indices)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.bias == b.bias


@pytest.mark.parametrize("classes", [2, 3, 5])
def test_forked_fit_is_the_serial_fit(monkeypatch, tmp_path, classes):
    feats, labels = _clusters(np.random.default_rng(classes), per_class=15, dim=64,
                              classes=classes, spread=0.6)
    params = svm.KernelParams(gamma=0.4)
    expected = _serial(monkeypatch, svm.fit, feats, labels, c_box=10.0, params=params, tol=1e-3)
    _fork_at_any_size(monkeypatch)
    forks = record_forks(monkeypatch, tmp_path / "forks")
    _assert_same_machines(svm.fit(feats, labels, c_box=10.0, params=params, tol=1e-3), expected)
    assert forks() == [os.getpid()]  # one fork: the kernel, then the machines


def test_a_killed_kernel_task_trains_no_machine(monkeypatch, tmp_path):
    feats, labels = _clusters(np.random.default_rng(9), dim=64, classes=3)
    _fork_at_any_size(monkeypatch)
    parent, real = os.getpid(), svm._distance_blocks
    trained = tmp_path / "trained"

    def blocks(*args):
        if os.getpid() != parent and args[4][0] == 0:  # the first kernel task
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(svm, "_distance_blocks", blocks)
    monkeypatch.setattr(svm, "_smo", lambda *args: trained.touch())
    with pytest.raises(WorkerError, match=r"ended without a result \(killed by SIGKILL\)"):
        svm.fit(feats, labels, c_box=10.0, params=svm.KernelParams(gamma=0.5), tol=1e-3)
    assert not trained.exists()


def test_loocv_sized_fit_does_not_fork(monkeypatch):
    usable_cpus(monkeypatch)
    _forbid_forks(monkeypatch)
    rng = np.random.default_rng(4)
    feats = np.maximum(rng.normal(size=(59, 64)), 0.0)
    svm.fit(feats, [f"k{i % 3}" for i in range(59)], c_box=10.0,
            params=svm.KernelParams(gamma=0.1), tol=1e-3)


@pytest.mark.parametrize("name", ["fit", "chi2_gram"])
def test_no_fork_while_a_fit_function_is_wrapped(monkeypatch, name):
    feats, labels = _clusters(np.random.default_rng(6), classes=3)
    _fork_at_any_size(monkeypatch)
    _forbid_forks(monkeypatch)
    real = getattr(svm, name)
    monkeypatch.setattr(svm, name, functools.wraps(real)(lambda *a, **k: real(*a, **k)))
    svm.fit(feats, labels, c_box=10.0, params=svm.KernelParams(gamma=0.5), tol=1e-3)


@pytest.mark.parametrize("fits", [2, 3], ids=["light", "pool"])
def test_no_fit_forks_inside_a_worker_or_while_a_task_runs_here(monkeypatch, tmp_path, fits):
    feats, labels = _clusters(np.random.default_rng(8), classes=4, spread=0.6)
    params = svm.KernelParams(gamma=0.4)
    expected = _serial(monkeypatch, svm.fit, feats, labels, c_box=10.0, params=params, tol=1e-3)
    _fork_at_any_size(monkeypatch)
    forks = record_forks(monkeypatch, tmp_path / "forks")
    fit = functools.partial(svm.fit, feats, labels, c_box=10.0, params=params, tol=1e-3)
    models = workers.fork_map({k: fit for k in range(fits)})
    assert list(models) == list(range(fits))
    for model in models.values():
        _assert_same_machines(model, expected)
    assert forks() == [os.getpid()]  # the fits' own splits stayed in their processes
