import warnings

import numpy as np
import pytest

from motionpipe import corpus, pca
from motionpipe.errors import ConvergenceError, DataFormatError


def _random_spd_samples(rng, s, n, spread=None):
    """Samples with a controlled covariance spectrum."""
    if spread is None:
        spread = np.linspace(4.0, 0.5, n)
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return rng.normal(size=(s, n)) * np.sqrt(spread) @ basis.T + rng.normal(size=n)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_selects_channels_by_variance_mass():
    # two strong axes and two weak ones; variances 16, 4, 0.5, 0.25 give
    # cumulative ratios ~0.771, 0.964, 0.988, 1.0
    rng = np.random.default_rng(2)
    z = rng.normal(size=(4000, 4)) * np.array([4.0, 2.0, np.sqrt(0.5), 0.5])
    model = pca.fit(z, pov_threshold=0.9)
    assert model.channels == 2
    assert model.pov_achieved >= 0.9
    assert pca.fit(z, pov_threshold=0.5).channels == 1
    assert pca.fit(z, pov_threshold=1.0).channels == 4


def test_fit_recovers_planted_spectrum():
    rng = np.random.default_rng(3)
    spread = np.array([9.0, 4.0, 1.0, 0.25, 0.04])
    x = _random_spd_samples(rng, 6000, 5, spread)
    model = pca.fit(x, pov_threshold=1.0)
    assert np.allclose(model.eigenvalues, spread, rtol=0.15)
    # projected covariance is diagonal with the eigenvalues on it
    centered = x - x.mean(axis=0)
    proj = centered @ model.components.T
    cov = proj.T @ proj / (len(x) - 1)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-8


def test_fit_sign_convention_is_stable():
    rng = np.random.default_rng(4)
    x = _random_spd_samples(rng, 500, 6)
    model = pca.fit(x, pov_threshold=1.0)
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0.0
    again = pca.fit(x.copy(), pov_threshold=1.0)
    assert np.array_equal(model.components, again.components)


def test_fit_rank_deficient_samples():
    # S < n: the covariance has rank S - 1, so most eigenvalues are round-off
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = pca.fit(x, pov_threshold=1.0)
        again = pca.fit(x, pov_threshold=1.0)
    assert np.all(model.eigenvalues >= 0.0)
    assert np.all(np.diff(model.eigenvalues) <= 0.0)
    comp = model.components
    assert np.abs(comp @ comp.T - np.eye(model.channels)).max() < 1e-12
    assert np.array_equal(model.eigenvalues, again.eigenvalues)
    assert np.array_equal(model.components, again.components)


def test_fit_reports_solver_failure_as_convergence_error(monkeypatch):
    def failing_eigh(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    x = np.random.default_rng(6).normal(size=(10, 3))
    with pytest.raises(ConvergenceError, match="did not converge"):
        pca.fit(x, 0.9)


def test_fit_validation():
    with pytest.raises(ValueError, match="2-D"):
        pca.fit(np.zeros(5), 0.9)
    with pytest.raises(ValueError, match="at least 2"):
        pca.fit(np.zeros((1, 5)), 0.9)
    with pytest.raises(ValueError, match="finite"):
        pca.fit(np.full((3, 2), np.nan), 0.9)
    with pytest.raises(ValueError, match="pov_threshold"):
        pca.fit(np.random.default_rng(0).normal(size=(10, 3)), 0.0)
    with pytest.raises(ValueError, match="zero total variance"):
        pca.fit(np.ones((10, 3)), 0.9)


# ---------------------------------------------------------------------------
# transform / inverse_transform
# ---------------------------------------------------------------------------

def test_transform_layout_and_round_trip():
    rng = np.random.default_rng(5)
    x = _random_spd_samples(rng, 300, 6)
    model = pca.fit(x, pov_threshold=1.0)  # keep all channels: lossless
    seq = corpus.DescriptorSequence(video_id="v", data=rng.normal(size=(20, 6)))
    series = pca.transform(model, seq)
    assert series.video_id == "v"
    assert series.data.shape == (6, 20)
    expected = (seq.data.astype(np.float64) - model.mean) @ model.components.T
    assert np.allclose(series.data, expected.T)
    back = pca.inverse_transform(model, series)
    assert np.allclose(back, seq.data.astype(np.float64), atol=1e-10)


def test_transform_dimension_checks():
    rng = np.random.default_rng(6)
    model = pca.fit(rng.normal(size=(50, 4)), pov_threshold=1.0)
    seq = corpus.DescriptorSequence(video_id="v", data=np.zeros((3, 5)))
    with pytest.raises(ValueError, match="dim"):
        pca.transform(model, seq)
    series = corpus.MultiChannelSeries(video_id="v", data=np.zeros((2, 7)))
    with pytest.raises(ValueError, match="channels"):
        pca.inverse_transform(model, series)


def test_explained_variance_curve():
    model = pca.PcaModel(
        mean=np.zeros(3),
        eigenvalues=np.array([6.0, 3.0, 1.0]),
        components=np.eye(3)[:2],
        pov_achieved=0.9,
    )
    assert np.allclose(pca.explained_variance_curve(model), [0.6, 0.9, 1.0])


# ---------------------------------------------------------------------------
# PCA1 persistence
# ---------------------------------------------------------------------------

def test_model_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(7)
    model = pca.fit(_random_spd_samples(rng, 200, 5), pov_threshold=0.8)
    path = tmp_path / "model.pca"
    pca.save_model(model, path)
    back = pca.load_model(path)
    assert np.array_equal(back.mean, model.mean)
    assert np.array_equal(back.eigenvalues, model.eigenvalues)
    assert np.array_equal(back.components, model.components)
    assert abs(back.pov_achieved - model.pov_achieved) < 1e-12


def test_load_model_errors(tmp_path):
    bad = tmp_path / "bad.pca"
    bad.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(DataFormatError, match="magic"):
        pca.load_model(bad)
    short = tmp_path / "short.pca"
    short.write_bytes(b"PCA1\x01\x00")
    with pytest.raises(DataFormatError, match="truncated"):
        pca.load_model(short)
    dims = tmp_path / "dims.pca"
    dims.write_bytes(b"PCA1" + np.array([2, 5], dtype="<u4").tobytes() + bytes(160))
    with pytest.raises(DataFormatError, match="invalid dimensions"):
        pca.load_model(dims)
    sized = tmp_path / "sized.pca"
    sized.write_bytes(b"PCA1" + np.array([2, 1], dtype="<u4").tobytes() + bytes(8))
    with pytest.raises(DataFormatError, match="bytes"):
        pca.load_model(sized)
