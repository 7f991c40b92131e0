import tracemalloc

import numpy as np
import pytest

from motionpipe import svm
from motionpipe.errors import ConvergenceError, DataFormatError

import oracles


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


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

def test_kernel_of_identical_vectors_is_one():
    rng = np.random.default_rng(0)
    params = svm.KernelParams(gamma=0.7)
    for _ in range(5):
        x = rng.uniform(0, 3, size=8)
        assert abs(svm.chi2_kernel(x, x, params) - 1.0) < 1e-12


def test_kernel_hand_value():
    # d = (2-0)^2/2 + (0-2)^2/2 = 4, so K = exp(-0.5 * 4) = e^-2
    params = svm.KernelParams(gamma=0.5)
    got = svm.chi2_kernel(np.array([2.0, 0.0]), np.array([0.0, 2.0]), params)
    assert abs(got - np.exp(-2.0)) < 1e-9


def test_kernel_symmetry_and_range():
    rng = np.random.default_rng(1)
    params = svm.KernelParams(gamma=1.3)
    for _ in range(20):
        x = rng.uniform(0, 2, size=5)
        y = rng.uniform(0, 2, size=5)
        k_xy = svm.chi2_kernel(x, y, params)
        assert abs(k_xy - svm.chi2_kernel(y, x, params)) < 1e-15
        assert 0.0 < k_xy <= 1.0


def test_kernel_rejects_bad_inputs():
    params = svm.KernelParams(gamma=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        svm.chi2_kernel(np.array([-0.1, 1.0]), np.array([1.0, 1.0]), params)
    with pytest.raises(ValueError, match="equal length"):
        svm.chi2_kernel(np.ones(3), np.ones(4), params)
    with pytest.raises(ValueError, match="gamma"):
        svm.KernelParams(gamma=0.0)


def test_kernel_rejects_nan_features():
    x = np.array([[0.5, np.nan], [1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        svm.chi2_gram(x, x, svm.KernelParams(gamma=1.0))
    with pytest.raises(ValueError, match="finite"):
        svm.default_gamma(x)


def test_kernel_rejects_infinite_features():
    params = svm.KernelParams(gamma=1.0)
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            svm.chi2_kernel(np.array([bad, 1.0]), np.array([1.0, 1.0]), params)


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
    y = rng.uniform(0, 2, size=(960, 64))
    x = rng.uniform(0, 2, size=(50, 64))
    rows = svm._BLOCK_ELEMENTS // y.size
    assert 1 < rows < x.shape[0] and x.shape[0] % rows != 0  # several blocks, last one short
    assert np.array_equal(svm.chi2_distance_matrix(x, y, 1e-12), _broadcast_chi2(x, y, 1e-12))
    small = x[:3, :5]
    assert np.array_equal(svm.chi2_distance_matrix(small, small, 1e-12),
                          _broadcast_chi2(small, small, 1e-12))


def test_chi2_distances_memory_stays_blocked():
    x = np.random.default_rng(4).uniform(0, 2, size=(960, 64))
    tracemalloc.start()
    try:
        svm.chi2_distance_matrix(x, x, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # the S x S x d broadcast needs about 470 MB here


# ---------------------------------------------------------------------------
# default_gamma / concat_features
# ---------------------------------------------------------------------------

def test_default_gamma_two_points():
    # single pair at chi-squared distance 2 gives gamma 1/2
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert abs(svm.default_gamma(feats) - 0.5) < 1e-9


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
    assert abs(svm.default_gamma(x) - count / total) < 1e-9


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
    d = svm.chi2_distance_matrix(x, x, 1e-12)
    return d[np.triu_indices(x.shape[0], k=1)].mean()


def test_default_gamma_rejects_degenerate_input():
    with pytest.raises(ValueError, match="at least 2"):
        svm.default_gamma(np.ones((1, 4)))
    with pytest.raises(ValueError, match="identical"):
        svm.default_gamma(np.ones((5, 4)))


def test_concat_features():
    got = svm.concat_features(np.array([1.0, 2.0]), np.array([3.0]))
    assert np.array_equal(got, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="nonnegative"):
        svm.concat_features(np.array([1.0]), np.array([-1.0]))


def test_concat_features_chi2_additivity():
    rng = np.random.default_rng(5)
    a, c = rng.uniform(0, 2, size=(2, 6))
    b, d = rng.uniform(0, 2, size=(2, 3))
    eps = 1e-12
    joint = svm.chi2_distance_matrix(
        svm.concat_features(a, b)[None], svm.concat_features(c, d)[None], eps
    )[0, 0]
    parts = (
        svm.chi2_distance_matrix(a[None], c[None], eps)[0, 0]
        + svm.chi2_distance_matrix(b[None], d[None], eps)[0, 0]
    )
    assert abs(joint - parts) < 1e-12


# ---------------------------------------------------------------------------
# SMO solver
# ---------------------------------------------------------------------------

def test_two_point_problem():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = svm.fit(feats, ["a", "b"], params=svm.KernelParams(gamma=0.5))
    assert model.labels == ("a", "b")
    for machine in model.machines:
        assert len(machine.support_indices) == 2  # both points support the margin
    assert svm.predict(model, feats[0])[0] == "a"
    assert svm.predict(model, feats[1])[0] == "b"


def test_separable_clusters_dual_matches_qp_oracle():
    # fit tighter than the default tolerance: the 1e-4 dual slack needs
    # a duality gap well under it
    rng = np.random.default_rng(6)
    feats, labels = _clusters(rng, per_class=20)
    params = svm.KernelParams(gamma=svm.default_gamma(feats))
    model = svm.fit(feats, labels, c_box=10.0, params=params, tol=1e-5)

    assert svm.predict_batch(model, feats) == labels

    gram = svm.chi2_gram(feats, feats, params)
    label_arr = np.array(labels)
    for cls, machine in zip(model.labels, model.machines):
        y = np.where(label_arr == cls, 1.0, -1.0)
        alpha = np.zeros(len(labels))
        alpha[machine.support_indices] = machine.coefficients * y[machine.support_indices]
        ref = oracles.projected_gradient_qp(gram, y, c_box=10.0)
        got = svm.dual_objective(gram, y, alpha)
        want = oracles.qp_objective(gram, y, ref)
        assert got >= want - 1e-4

        # the returned machine satisfies the KKT conditions at tol
        decision = svm.decision_values(model, feats)[:, model.labels.index(cls)]
        viol = svm.kkt_violation(alpha, y, decision - y, machine.c_box, 1e-3)
        assert viol.max() <= 1e-3


def test_noisy_labels_still_converge():
    rng = np.random.default_rng(7)
    feats = rng.uniform(0, 2, size=(30, 5))
    labels = [("x" if rng.uniform() < 0.5 else "y") for _ in range(30)]
    if len(set(labels)) < 2:
        labels[0] = "x" if labels[1] == "y" else "y"
    model = svm.fit(feats, labels, c_box=2.0)
    values = svm.decision_values(model, feats)
    assert np.all(np.isfinite(values))


def test_duplicated_dataset_predicts_identically():
    rng = np.random.default_rng(8)
    feats, labels = _clusters(rng, per_class=10)
    params = svm.KernelParams(gamma=svm.default_gamma(feats))
    m1 = svm.fit(feats, labels, params=params)
    m2 = svm.fit(np.vstack([feats, feats]), labels + labels, params=params)
    probe = rng.uniform(0, 3, size=(40, feats.shape[1]))
    assert svm.predict_batch(m1, probe) == svm.predict_batch(m2, probe)


def test_three_class_one_vs_rest():
    rng = np.random.default_rng(9)
    feats, labels = _clusters(rng, per_class=12, classes=3)
    model = svm.fit(feats, labels)
    assert model.labels == ("class0", "class1", "class2")
    assert svm.predict_batch(model, feats) == labels
    label, values = svm.predict(model, feats[0])
    assert label == "class0"
    assert values.shape == (3,)
    assert int(np.argmax(values)) == 0


def test_kkt_violation_semantics():
    alpha = np.array([0.0, 5.0, 10.0])
    y = np.array([1.0, 1.0, -1.0])
    errors = np.array([-1.0, 0.5, -0.2])
    viol = svm.kkt_violation(alpha, y, errors, c_box=10.0, tol=1e-3)
    # alpha 0: only yE < 0 violates; alpha interior: any |yE|; alpha at C:
    # only yE > 0 violates
    assert viol[0] == 1.0
    assert viol[1] == 0.5
    assert viol[2] == 0.2
    assert svm.kkt_violation(np.zeros(1), np.array([1.0]), np.array([1.0]), 10.0, 1e-3)[0] == 0.0


def test_prediction_ties_take_first_sorted_label():
    empty = np.array([], dtype=np.int64)
    machine = svm.BinarySvm(
        support_indices=empty, coefficients=np.array([]), bias=0.5, c_box=1.0
    )
    model = svm.SvmModel(
        labels=("a", "b"),
        machines=(machine, machine),
        features=np.zeros((0, 2)),
        params=svm.KernelParams(gamma=1.0),
    )
    label, values = svm.predict(model, np.array([1.0, 1.0]))
    assert values[0] == values[1] == 0.5
    assert label == "a"


def test_fit_validation():
    feats = np.ones((4, 3))
    with pytest.raises(ValueError, match="at least 2 classes"):
        svm.fit(feats, ["a", "a", "a", "a"])
    with pytest.raises(ValueError, match="labels must match"):
        svm.fit(feats, ["a", "b"])
    with pytest.raises(ValueError, match="c_box"):
        svm.fit(feats, ["a", "a", "b", "b"], c_box=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        svm.fit(-feats, ["a", "a", "b", "b"])


def test_predict_rejects_wrong_dimension():
    rng = np.random.default_rng(10)
    feats, labels = _clusters(rng, per_class=5)
    model = svm.fit(feats, labels)
    with pytest.raises(ValueError, match="does not match model dimension"):
        svm.predict(model, np.ones(feats.shape[1] + 1))


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------

def test_model_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(11)
    feats, labels = _clusters(rng, per_class=8, classes=3)
    model = svm.fit(feats, labels)
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
    bad.write_bytes(b"XXXX" + bytes(24))
    with pytest.raises(DataFormatError, match="magic"):
        svm.load_model(bad)

    rng = np.random.default_rng(12)
    feats, labels = _clusters(rng, per_class=4)
    model = svm.fit(feats, labels)
    good = tmp_path / "good.svm"
    svm.save_model(model, good)
    blob = good.read_bytes()

    trunc = tmp_path / "trunc.svm"
    trunc.write_bytes(blob[:-6])
    with pytest.raises(DataFormatError, match="truncated class block"):
        svm.load_model(trunc)

    extra = tmp_path / "extra.svm"
    extra.write_bytes(blob + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        svm.load_model(extra)


def test_smo_step_cap_raises(monkeypatch):
    monkeypatch.setattr(svm, "MAX_SMO_STEPS", 1)
    rng = np.random.default_rng(13)
    feats, labels = _clusters(rng, per_class=10)
    with pytest.raises(ConvergenceError, match="not converged"):
        svm.fit(feats, labels)
