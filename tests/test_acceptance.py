"""Acceptance gate: one test per criterion, tolerances and budgets as stated.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass or fail
line per criterion.  The expensive end-to-end protocol (criterion 4) runs
once per session in a shared fixture; criteria 7 and 8 reuse its outputs.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from motionpipe import cnn, corpus, pca, pipeline, svm

import oracles
from test_cnn import one_layer_conv, one_layer_pool

REPORTS = ("accuracy.csv", "predictions.csv", "confusion.csv", "confusion.txt", "loss.csv")


# ---------------------------------------------------------------------------
# Shared end-to-end runs (criteria 4, 7, 8)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def protocol(tmp_path_factory):
    """Two cold same-seed pipeline runs; the first is audited."""
    root = tmp_path_factory.mktemp("protocol")
    manifest, sequences, info = corpus.generate_synthetic_corpus(
        classes=3, per_class=20, channels=8, min_len=40, max_len=80, seed=11
    )
    manifest_path = corpus.save_corpus(manifest, sequences, root / "corpus")

    def run(out_dir, audit=None):
        config = pipeline.PipelineConfig(manifest=manifest_path, output_dir=str(out_dir))
        pipeline.fit_audit = audit
        try:
            started = time.perf_counter()
            result = pipeline.run_pipeline(config)
            elapsed = time.perf_counter() - started
        finally:
            pipeline.fit_audit = None
        reports = {name: (out_dir / name).read_bytes() for name in REPORTS}
        return result, elapsed, reports

    audit_calls: list = []

    def recorder(stage, fold, ids):
        audit_calls.append((stage, fold, ids))

    result_a, elapsed_a, reports_a = run(root / "out_a", audit=recorder)
    result_b, _, reports_b = run(root / "out_b")
    return SimpleNamespace(
        manifest=manifest,
        sequences={s.video_id: s for s in sequences},
        info=info,
        result=result_a,
        elapsed=elapsed_a,
        reports_a=reports_a,
        result_b=result_b,
        reports_b=reports_b,
        audit=tuple(audit_calls),
    )


# ---------------------------------------------------------------------------
# Criterion 1: PCA against a power-iteration oracle
# ---------------------------------------------------------------------------

def test_criterion_1_pca_matches_power_iteration_oracle():
    started = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        samples = rng.normal(size=(50, 20))
        model = pca.fit(samples, 1.0)
        assert model.channels == 20  # pov 1.0 keeps every component

        centered = samples - samples.mean(axis=0)
        cov = centered.T @ centered / 49.0
        values, vectors = oracles.power_iteration_eigh(cov, count=20)
        assert np.abs(model.eigenvalues - values).max() < 1e-6

        for row in vectors:  # same sign convention: largest entry positive
            if row[np.argmax(np.abs(row))] < 0:
                row *= -1.0
        assert np.abs(model.components - vectors).max() < 1e-6

        projected = model.components @ centered.T
        pcov = projected @ projected.T / 49.0
        off_diag = pcov - np.diag(np.diag(pcov))
        assert np.abs(off_diag).max() < 1e-6 * model.eigenvalues[0]
    assert time.perf_counter() - started < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: convolution and pooling against naive oracles
# ---------------------------------------------------------------------------

def test_criterion_2_conv_and_pool_match_naive_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(2000)
    for _ in range(1000):
        c_in = int(rng.integers(1, 5))
        length = int(rng.integers(4, 21))
        width = int(rng.integers(1, min(4, length) + 1))
        c_out = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 4))
        x = rng.normal(size=(c_in, length))
        w = rng.normal(size=(c_out, c_in, width))
        b = rng.normal(size=c_out)
        got = one_layer_conv(x, w, b, stride)
        want = oracles.naive_conv1d(x, w, b, stride)
        assert np.abs(got - want).max() <= 1e-12

    for _ in range(1000):
        c = int(rng.integers(1, 5))
        length = int(rng.integers(2, 21))
        window = int(rng.integers(1, min(4, length) + 1))
        stride = int(rng.integers(1, 4))
        x = rng.normal(size=(c, length))
        if rng.uniform() < 0.2:
            x = np.round(x)  # coarse values force ties
        got, got_arg = one_layer_pool(x, window, stride)
        want, want_arg = oracles.naive_max1d(x, window, stride)
        assert np.array_equal(got, want)
        assert np.array_equal(got_arg, want_arg)  # tie goes to the first offset
    assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# Criterion 3: analytic gradients against finite differences
# ---------------------------------------------------------------------------

def _gradient_specs():
    conv, mx, relu, fc, soft = (
        cnn.Conv1D, cnn.Max1D, cnn.ReLU, cnn.FullyConnected, cnn.SoftmaxOutput,
    )
    return [
        (1, 12, [conv(3, 2, 1), relu(), fc(4), relu(), soft(2)]),
        (2, 14, [conv(3, 3, 2), relu(), mx(2, 2), fc(5), relu(), soft(3)]),
        (3, 16, [conv(5, 4, 2), relu(), mx(2, 2), fc(6), relu(), soft(2)]),
        (1, 10, [conv(2, 2, 1), mx(3, 1), fc(4), soft(2)]),
        (2, 12, [conv(4, 2, 3), relu(), fc(3), relu(), soft(3)]),
        (2, 9, [fc(6), relu(), fc(4), relu(), soft(2)]),
        (1, 8, [mx(2, 2), fc(3), relu(), soft(2)]),
        (3, 12, [conv(3, 2, 1), relu(), conv(2, 2, 2), relu(), mx(2, 2), fc(4), soft(2)]),
        (2, 16, [conv(3, 3, 1), mx(4, 4), fc(8), relu(), soft(4)]),
        (1, 15, [conv(3, 1, 2), relu(), mx(2, 1), fc(2), soft(2)]),
    ]


def test_criterion_3_gradients_match_finite_differences():
    started = time.perf_counter()
    worst = 0.0
    for seed, (channels, length, layers) in enumerate(_gradient_specs(), start=3000):
        spec = cnn.NetworkSpec(
            input_channels=channels, input_length=length, layers=tuple(layers)
        )
        rng = np.random.default_rng(seed)
        params = cnn.init_state(spec, rng)
        x = rng.normal(size=(channels, length))
        label = int(rng.integers(spec.num_classes()))
        _, grads = cnn.batch_gradients(spec, params, x[None], np.array([label]))

        arrays = [a for p in params if p is not None for a in p]
        analytic = [a for g in grads if g is not None for a in g]

        def loss_fn():
            probs, _ = cnn._forward_batch(spec, params, x[None])
            return -float(np.log(probs[0, label]))

        numeric = oracles.finite_difference_gradients(loss_fn, arrays, step=1e-5)
        for a, fd in zip(analytic, numeric):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-4)
            worst = max(worst, float((np.abs(a - fd) / denom).max()))
    assert worst < 1e-6, f"worst relative gradient error {worst}"

    # exact pooling ties are kinks where finite differences are one-sided,
    # so tie handling is asserted directly: gradient routes to the first
    # tied offset, matching the forward argmax
    spec = cnn.NetworkSpec(
        input_channels=1,
        input_length=4,
        layers=(cnn.Conv1D(1, 1, 1), cnn.Max1D(2, 2), cnn.FullyConnected(2),
                cnn.SoftmaxOutput(2)),
    )
    params = [
        (np.zeros((1, 1, 1)), np.zeros(1)),
        None,
        (np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2)),
        (np.eye(2), np.zeros(2)),
    ]
    x = np.array([[10.0, 20.0, 30.0, 40.0]])
    _, grads = cnn.batch_gradients(spec, params, x[None], np.array([0]))
    assert abs(grads[0][0][0, 0, 0] - 40.0) < 1e-12  # reads x[0] and x[2]
    assert abs(grads[0][1][0] - 2.0) < 1e-12
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# Criterion 4: order-only class structure is recovered end to end
# ---------------------------------------------------------------------------

def _control_accuracy(manifest, sequences) -> float:
    """Leave-one-out nearest-centroid on time-averaged channel means."""
    ids = manifest.video_ids()
    means = {vid: sequences[vid].data.mean(axis=0) for vid in ids}
    labels = {vid: manifest.entry(vid).label for vid in ids}
    correct = 0
    for held_out in ids:
        centroids = {}
        for label in manifest.labels():
            rest = [means[v] for v in ids if v != held_out and labels[v] == label]
            centroids[label] = np.mean(rest, axis=0)
        predicted = min(
            sorted(centroids),
            key=lambda label: float(np.linalg.norm(means[held_out] - centroids[label])),
        )
        correct += predicted == labels[held_out]
    return correct / len(ids)


def test_criterion_4_pipeline_separates_motif_order(protocol):
    by_label: dict[str, list] = {}
    for entry in protocol.manifest.entries:
        by_label.setdefault(entry.label, []).append(
            protocol.sequences[entry.video_id].data
        )
    stacked = {label: np.vstack(chunks) for label, chunks in by_label.items()}
    pooled_std = np.vstack(list(stacked.values())).std(axis=0)
    channel_means = np.array([c.mean(axis=0) for c in stacked.values()])
    channel_stds = np.array([c.std(axis=0) for c in stacked.values()])
    mean_spread = channel_means.max(axis=0) - channel_means.min(axis=0)
    std_spread = channel_stds.max(axis=0) - channel_stds.min(axis=0)
    assert np.all(mean_spread < 0.1 * pooled_std)
    assert np.all(std_spread < 0.1 * pooled_std)

    # every video carries every motif exactly once, so the classes differ
    # only in slot order; the generator's ground truth confirms it
    orders = protocol.info.orders
    assert len(set(orders)) == len(orders)
    assert all(sorted(order) == list(range(len(orders))) for order in orders)

    assert protocol.result.overall_accuracy >= 0.90
    control = _control_accuracy(protocol.manifest, protocol.sequences)
    assert control <= 0.50
    assert protocol.elapsed < 600.0


# ---------------------------------------------------------------------------
# Criterion 5: SMO against a projected-gradient oracle; kernel PSD
# ---------------------------------------------------------------------------

def _svm_instance(rng):
    size = int(rng.integers(20, 61))
    dim = int(rng.integers(4, 13))
    labels = []
    rows = []
    for _ in range(size):
        c = int(rng.integers(2))
        centre = np.full(dim, 1.0)
        centre[c % dim] += 2.0
        rows.append(np.abs(centre + rng.normal(0.0, 0.6, size=dim)))
        labels.append(f"class{c}")
    if len(set(labels)) < 2:  # degenerate draw; force both classes
        labels[0] = "class0"
        labels[1] = "class1"
    if rng.uniform() < 0.5:  # label noise makes some instances inseparable
        flip = rng.integers(0, size, size=max(1, size // 10))
        for i in flip:
            labels[i] = "class1" if labels[i] == "class0" else "class0"
    return np.array(rows), labels


def test_criterion_5_smo_matches_qp_oracle_and_kernel_is_psd():
    started = time.perf_counter()
    rng = np.random.default_rng(5000)
    for trial in range(20):
        feats, labels = _svm_instance(rng)
        c_box = 1.0 if trial % 2 else 10.0
        params = svm.KernelParams(gamma=svm.default_gamma(feats, seed=0))
        # the 1e-4 dual slack needs a duality gap well under it, so fit
        # tighter than the 1e-3 default; the KKT bound stays at 1e-3
        model = svm.fit(feats, labels, c_box=c_box, params=params, tol=1e-5)

        gram = svm.chi2_gram(feats, feats, params)
        label_arr = np.array(labels)
        for cls, machine in zip(model.labels, model.machines):
            y = np.where(label_arr == cls, 1.0, -1.0)
            alpha = np.zeros(len(labels))
            alpha[machine.support_indices] = (
                machine.coefficients * y[machine.support_indices]
            )
            reference = oracles.projected_gradient_qp(gram, y, c_box=c_box)
            dual = oracles.qp_objective(gram, y, alpha)
            assert dual >= oracles.qp_objective(gram, y, reference) - 1e-4

            decision = svm.decision_values(model, feats)[:, model.labels.index(cls)]
            violation = oracles.kkt_violation(alpha, y, decision - y, c_box, 1e-3)
            assert violation.max() <= 1e-3

    for seed in range(20):
        rng_psd = np.random.default_rng(5100 + seed)
        points = rng_psd.uniform(0.0, 3.0, size=(20, 8))
        gram = svm.chi2_gram(points, points, svm.KernelParams(gamma=0.7))
        assert np.linalg.eigvalsh(gram).min() >= -1e-8
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# Criterion 6: zero-padding contract
# ---------------------------------------------------------------------------

def test_criterion_6_alignment_pads_with_exact_zeros():
    started = time.perf_counter()
    rng = np.random.default_rng(6000)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        count = int(rng.integers(1, 9))
        sequences = {
            f"v{i}": corpus.DescriptorSequence(
                video_id=f"v{i}",
                data=rng.normal(size=(int(rng.integers(1, 31)), dim)),
            )
            for i in range(count)
        }
        ids = list(sequences)
        model = pca.fit(rng.normal(size=(int(rng.integers(2, 31)), dim)), 0.9)
        aligned, l_max = pipeline.project_videos(model, sequences, ids)
        # the reference: each video's columns of one transform over the stacked rows
        lengths = [sequences[vid].frames for vid in ids]
        projected = pca.transform(model, np.vstack([sequences[vid].data for vid in ids]))
        assert l_max == max(lengths)
        for length, before, after in zip(
            lengths, np.split(projected, np.cumsum(lengths)[:-1], axis=1), aligned
        ):
            assert after.shape == (model.channels, l_max)
            assert np.array_equal(after[:, :length].view(np.int64), before.view(np.int64))
            assert np.all(after[:, length:] == 0.0)
    assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# Criterion 7: determinism
# ---------------------------------------------------------------------------

def test_criterion_7_same_seed_runs_are_byte_identical(protocol):
    assert protocol.result_b.overall_accuracy == protocol.result.overall_accuracy
    for name in REPORTS:
        assert protocol.reports_a[name] == protocol.reports_b[name], name


# ---------------------------------------------------------------------------
# Criterion 8: leakage audit
# ---------------------------------------------------------------------------

def test_criterion_8_no_fit_call_sees_test_videos(protocol):
    folds = corpus.make_loocv(protocol.manifest)
    seen: dict[int, set] = {}
    for stage, fold, ids in protocol.audit:
        held_out = set(folds[fold].test_ids)
        assert held_out.isdisjoint(ids), (
            f"fold {fold} {stage} fit saw {sorted(held_out & set(ids))}"
        )
        assert set(ids) == set(folds[fold].train_ids)
        seen.setdefault(fold, set()).add(stage)
    assert set(seen) == set(range(len(folds)))  # the audit is not vacuous
    for stages in seen.values():
        assert stages == {"pca", "cnn", "gamma", "svm"}
