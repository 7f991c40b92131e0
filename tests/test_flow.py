import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionpipe import flow
from motionpipe.errors import DataFormatError

import oracles


def _frame(arr):
    return flow.Frame(intensity=np.asarray(arr, dtype=np.float64))


def _pair_flow(prev, curr, alpha, iterations):
    """u and v of the one pair prev -> curr."""
    return flow.estimate_flows([prev, curr], alpha, iterations)[:, 0]


def _field_descriptor(u, v, grid, bins):
    """The descriptor row of one (H, W) flow field."""
    return flow.describe_flows(u[None], v[None], grid, bins)[0]


# ---------------------------------------------------------------------------
# estimate_flows
# ---------------------------------------------------------------------------

def test_identical_frames_give_zero_flow():
    rng = np.random.default_rng(0)
    img = rng.uniform(0.0, 1.0, size=(16, 20))
    u, v = _pair_flow(_frame(img), _frame(img), alpha=1.0, iterations=100)
    assert np.abs(u).max() < 1e-9
    assert np.abs(v).max() < 1e-9


def test_constant_frames_give_zero_flow():
    a = _frame(np.full((12, 12), 0.5))
    b = _frame(np.full((12, 12), 0.5))
    u, v = _pair_flow(a, b, alpha=1.0, iterations=100)
    assert np.abs(u).max() == 0.0
    assert np.abs(v).max() == 0.0


def test_ramp_shift_recovers_unit_horizontal_flow():
    # content moves 1 px right: curr(x) = prev(x - 1); the weak ramp
    # gradient needs a small smoothness weight and many iterations to
    # converge (verified: mean u settles near 1.0006 at these settings)
    x = np.tile(np.arange(32) / 64.0, (32, 1))
    prev = _frame(x + 1.0 / 64.0)
    curr = _frame(x)
    u, v = _pair_flow(prev, curr, alpha=0.05, iterations=2000)
    interior_u = u[8:-8, 8:-8]
    interior_v = v[8:-8, 8:-8]
    assert 0.7 <= interior_u.mean() <= 1.3
    assert np.abs(interior_v).mean() < 0.15


def test_flow_is_deterministic():
    rng = np.random.default_rng(1)
    a = _frame(rng.uniform(0, 1, size=(10, 10)))
    b = _frame(rng.uniform(0, 1, size=(10, 10)))
    u1, v1 = _pair_flow(a, b, alpha=0.5, iterations=25)
    u2, v2 = _pair_flow(a, b, alpha=0.5, iterations=25)
    assert np.array_equal(u1, u2)
    assert np.array_equal(v1, v2)


def test_estimate_flow_rejects_bad_arguments():
    a = _frame(np.zeros((10, 10)))
    b = _frame(np.zeros((10, 12)))
    with pytest.raises(ValueError, match="dimensions differ"):
        _pair_flow(a, b, alpha=1.0, iterations=100)
    with pytest.raises(ValueError, match="alpha"):
        _pair_flow(a, a, alpha=0.0, iterations=100)
    with pytest.raises(ValueError, match="iterations"):
        _pair_flow(a, a, alpha=1.0, iterations=0)


def _random_video(seed, pairs, height, width):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 1.0, size=(pairs + 1, height, width))
    images[:, :3, :3] = 0.5  # a still, flat patch: zero gradients, so zeros whose sign must match
    return [_frame(img) for img in images]


@pytest.mark.parametrize("height,width,iterations", [(9, 13, 1), (9, 13, 17), (16, 10, 40)])
def test_estimate_flow_matches_textbook_oracle_bit_for_bit(height, width, iterations):
    prev, curr = _random_video(11, 1, height, width)
    got_u, got_v = _pair_flow(prev, curr, alpha=0.7, iterations=iterations)
    u, v = oracles.horn_schunck_pair(prev.intensity, curr.intensity, 0.7, iterations)
    assert np.array_equal(got_u, u) and np.array_equal(got_v, v)
    assert np.array_equal(np.signbit(got_u), np.signbit(u))
    assert np.array_equal(np.signbit(got_v), np.signbit(v))


@pytest.mark.parametrize("pairs,iterations", [(1, 5), (7, 1), (7, 23), (9, 23)])
@pytest.mark.parametrize("chunk_pairs", [1, 3, 100])
def test_stacked_flow_equals_per_pair_flow(monkeypatch, pairs, iterations, chunk_pairs):
    # a 9 x 13 frame holds 117 values; the budget fixes how many pairs share a chunk
    monkeypatch.setattr(flow, "_CHUNK_ELEMENTS", chunk_pairs * 9 * 13)
    frames = _random_video(pairs, pairs, 9, 13)
    uv = flow.estimate_flows(frames, alpha=1.3, iterations=iterations)
    assert uv.shape == (2, pairs, 9, 13)
    for u, v, prev, curr in zip(*uv, frames, frames[1:]):
        single_u, single_v = _pair_flow(prev, curr, alpha=1.3, iterations=iterations)
        assert np.array_equal(u, single_u) and np.array_equal(v, single_v)
        assert u.flags.c_contiguous and v.flags.c_contiguous


def _assert_matches_oracle(uv, frames, alpha, iterations):
    """Each pair of the (2, T, H, W) stack equals the textbook oracle, sign bits included."""
    for u, v, prev, curr in zip(*uv, frames, frames[1:]):
        want_u, want_v = oracles.horn_schunck_pair(prev.intensity, curr.intensity, alpha,
                                                   iterations)
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
        assert np.array_equal(np.signbit(u), np.signbit(want_u))
        assert np.array_equal(np.signbit(v), np.signbit(want_v))


@pytest.mark.parametrize("height,width", [(8, 8), (8, 19), (14, 8), (11, 17)])
@pytest.mark.parametrize("pairs,chunk_pairs", [(1, 1), (2, 100), (5, 2), (20, 3), (20, 100)])
def test_estimate_flows_match_textbook_oracle_pair_by_pair(monkeypatch, height, width, pairs,
                                                           chunk_pairs):
    # chunks of 2 and 3 pairs split stacks of 5 and 20 unevenly
    monkeypatch.setattr(flow, "_CHUNK_ELEMENTS", chunk_pairs * height * width)
    frames = _random_video(pairs + height * width, pairs, height, width)
    uv = flow.estimate_flows(frames, alpha=0.7, iterations=9)
    assert uv.shape == (2, pairs, height, width)
    _assert_matches_oracle(uv, frames, 0.7, 9)


@pytest.mark.parametrize("height,width", [(8, 8), (8, 12), (12, 9)])
def test_step_frames_raise_no_floating_point_error(monkeypatch, height, width):
    # 0/1 steps give the steepest gradients; a border lane that overflowed or
    # divided by zero would raise here, although the interior stayed right
    monkeypatch.setattr(flow, "_CHUNK_ELEMENTS", 2 * height * width)
    images = np.zeros((6, height, width))
    for t, image in enumerate(images):
        image[t % 3 : t % 3 + 4, t : t + 5] = 1.0
        image[-1, -1 - t] = 1.0  # a step touching the bottom and right borders
    frames = [_frame(image) for image in images]
    with np.errstate(all="raise"):
        uv = flow.estimate_flows(frames, alpha=0.05, iterations=60)
    _assert_matches_oracle(uv, frames, 0.05, 60)


def test_estimate_flows_rejects_bad_arguments():
    frames = _random_video(0, 2, 10, 10)
    with pytest.raises(ValueError, match="at least 2 frames"):
        flow.estimate_flows(frames[:1], alpha=1.0, iterations=100)
    with pytest.raises(ValueError, match="dimensions differ"):
        flow.estimate_flows(frames + [_frame(np.zeros((10, 12)))], alpha=1.0, iterations=100)


def test_frame_rejects_non_finite_and_out_of_range():
    bad = np.zeros((10, 10))
    bad[3, 4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        flow.Frame(intensity=bad)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        flow.Frame(intensity=np.full((10, 10), 1.5))


# ---------------------------------------------------------------------------
# orientation bins
# ---------------------------------------------------------------------------

def test_orientation_bin_edges():
    # B=4 edges at [-pi, -pi/2, 0, pi/2, pi): 0 opens the third bin
    assert flow.orientation_bin(0.0, 4) == 2
    assert flow.orientation_bin(-np.pi, 4) == 0
    assert flow.orientation_bin(np.pi, 4) == 0  # pi wraps to -pi
    assert flow.orientation_bin(-np.pi / 2, 4) == 1
    assert flow.orientation_bin(np.pi / 2, 4) == 3
    assert flow.orientation_bin(np.pi / 2 - 1e-12, 4) == 2


def test_orientation_bin_covers_all_bins():
    for bins in (2, 4, 8, 12):
        theta = np.linspace(-np.pi, np.pi, 1000, endpoint=False)
        idx = flow.orientation_bin(theta, bins)
        assert set(idx.tolist()) == set(range(bins))


# ---------------------------------------------------------------------------
# describe_flows
# ---------------------------------------------------------------------------

def test_zero_flow_descriptor_uniform_histograms():
    d = _field_descriptor(np.zeros((8, 8)), np.zeros((8, 8)), grid=2, bins=4)
    assert d.shape == (28,)
    for cell in range(4):
        base = cell * 7
        assert np.all(d[base : base + 3] == 0.0)
        assert np.allclose(d[base + 3 : base + 7], 0.25)


def test_uniform_unit_flow_worked_example():
    d = _field_descriptor(np.ones((8, 8)), np.zeros((8, 8)), grid=1, bins=4)
    assert np.allclose(d, [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])


def test_descriptor_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = int(rng.integers(8, 20))
        w = int(rng.integers(8, 20))
        u = rng.normal(size=(h, w))
        v = rng.normal(size=(h, w))
        grid = int(rng.integers(1, 4))
        bins = int(rng.integers(2, 9))
        got = _field_descriptor(u, v, grid=grid, bins=bins)
        want = oracles.naive_descriptor(u, v, grid, bins)
        assert np.allclose(got, want, atol=1e-12)


def test_rotating_vectors_rolls_histogram():
    # uniform field: rotating all vectors by 90 degrees shifts the
    # orientation histogram by B/4 bins
    bins = 8
    centres = np.linspace(-np.pi, np.pi, 16, endpoint=False) + np.pi / 16
    for angle in centres:
        u1 = np.full((8, 8), np.cos(angle))
        v1 = np.full((8, 8), np.sin(angle))
        u2 = np.full((8, 8), np.cos(angle + np.pi / 2))
        v2 = np.full((8, 8), np.sin(angle + np.pi / 2))
        h1 = _field_descriptor(u1, v1, grid=1, bins=bins)[3:]
        h2 = _field_descriptor(u2, v2, grid=1, bins=bins)[3:]
        assert np.allclose(np.roll(h1, bins // 4), h2, atol=1e-12)


def test_describe_flow_validation():
    u = v = np.zeros((8, 8))
    with pytest.raises(ValueError, match="grid"):
        _field_descriptor(u, v, grid=0, bins=8)
    with pytest.raises(ValueError, match="bins"):
        _field_descriptor(u, v, grid=4, bins=1)
    with pytest.raises(ValueError, match="too small"):
        _field_descriptor(u, v, grid=9, bins=8)


def test_describe_flows_rejects_bad_stacks():
    zeros = np.zeros((2, 8, 8))
    with pytest.raises(ValueError, match="equal-shaped"):
        flow.describe_flows(zeros, np.zeros((2, 8, 9)), grid=4, bins=8)
    with pytest.raises(ValueError, match="equal-shaped"):
        flow.describe_flows(zeros[0], zeros[0], grid=4, bins=8)
    bad = zeros.copy()
    bad[1, 2, 3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        flow.describe_flows(zeros, bad, grid=4, bins=8)


@pytest.mark.parametrize("depth", [1, 2, 7])
def test_stacked_descriptors_equal_per_field_descriptors(depth):
    # 9 x 13 on a 4 x 4 grid: cells of 2 x 3 pixels, with the remainder in the
    # last row and column of cells; some cells and one whole field are still
    rng = np.random.default_rng(depth)
    u = rng.normal(size=(depth, 9, 13))
    v = rng.normal(size=(depth, 9, 13))
    u[:, :4, :6] = 0.0
    v[:, :4, :6] = 0.0
    u[depth // 2] = 0.0
    v[depth // 2] = 0.0
    rows = flow.describe_flows(u, v, grid=4, bins=8)
    assert rows.shape == (depth, oracles.descriptor_width(4, 8))
    for row, fu, fv in zip(rows, u, v):
        assert np.array_equal(row, _field_descriptor(fu, fv, grid=4, bins=8))


@settings(max_examples=30, deadline=None)
@given(
    depth=st.integers(1, 4),
    h=st.integers(8, 16),
    w=st.integers(8, 16),
    grid=st.integers(1, 4),
    bins=st.integers(2, 10),
    seed=st.integers(0, 2**31 - 1),
)
def test_descriptor_properties(depth, h, w, grid, bins, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(depth, h, w))
    v = rng.normal(size=(depth, h, w))
    rows = flow.describe_flows(u, v, grid=grid, bins=bins)
    assert rows.shape == (depth, oracles.descriptor_width(grid, bins))
    for d in rows:
        assert np.all(np.isfinite(d))
        assert d.min() >= 0.0
        for cell in range(grid * grid):
            hist = d[cell * (3 + bins) + 3 : (cell + 1) * (3 + bins)]
            assert abs(hist.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------

def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(12, 17)).astype(np.float64) / 255.0
    path = tmp_path / "frame.pgm"
    flow.write_pgm(_frame(img), path)
    back = flow.read_pgm(path)
    assert np.array_equal(back.intensity, img)


def test_pgm_parses_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    body = bytes(range(80, 80 + 8 * 10))
    path.write_bytes(b"P5 # comment\n# another comment\n 10\t8 # sizes\n255\n" + body)
    frame = flow.read_pgm(path)
    assert frame.intensity.shape == (8, 10)
    assert frame.intensity[0, 0] == 80 / 255.0


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n4 4\n255\n" + bytes(16))
    with pytest.raises(DataFormatError, match="magic"):
        flow.read_pgm(path)


def test_pgm_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n8 8\n255\n" + bytes(10))
    with pytest.raises(DataFormatError, match="truncated"):
        flow.read_pgm(path)


@pytest.mark.parametrize("sizes", [b"-3 -3", b"0 5", b"2 2", b"7 8", b"8 -1"])
def test_pgm_rejects_bad_dimensions(tmp_path, sizes):
    path = tmp_path / "dims.pgm"
    path.write_bytes(b"P5\n" + sizes + b"\n255\n" + bytes(9))
    with pytest.raises(DataFormatError, match="at least"):
        flow.read_pgm(path)


def test_pgm_rejects_wide_maxval(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n8 8\n65535\n" + bytes(128))
    with pytest.raises(DataFormatError, match="maxval"):
        flow.read_pgm(path)


@pytest.mark.parametrize("maxval", [1, 15, 100, 255])
def test_pgm_intensity_is_sample_over_maxval(tmp_path, maxval):
    path = tmp_path / "scaled.pgm"
    raster = np.arange(64) % (maxval + 1)
    raster[-1] = maxval
    path.write_bytes(f"P5\n8 8\n{maxval}\n".encode("ascii") + raster.astype(np.uint8).tobytes())
    frame = flow.read_pgm(path)
    assert np.array_equal(frame.intensity, raster.reshape(8, 8) / maxval)
    assert frame.intensity.max() == 1.0


@pytest.mark.parametrize("maxval, sample", [(15, 16), (15, 200), (1, 2), (254, 255)])
def test_pgm_rejects_sample_above_maxval(tmp_path, maxval, sample):
    path = tmp_path / "over.pgm"
    raster = bytearray(64)
    raster[37] = sample
    path.write_bytes(f"P5\n8 8\n{maxval}\n".encode("ascii") + bytes(raster))
    with pytest.raises(DataFormatError, match=f"sample {sample} exceeds maxval {maxval}"):
        flow.read_pgm(path)
