"""Dense optical flow estimation and grid-pooled flow descriptors.

Flow between consecutive grayscale frames is estimated with the classic
Horn-Schunck scheme (brightness constancy plus quadratic smoothness,
solved by Jacobi-style neighbour averaging).  All frame pairs of a video
are stacked and iterated together, in cache-sized chunks, by one loop
that returns the (2, T, H, W) u/v stack.  The loop runs over one flat
range of the padded (T, H+2, W+2) layout, where each neighbour is a
fixed offset, and scales u and v once per distinct kernel weight before
summing the shifted products.  The stack is then pooled over
a G x G grid into the (T, G*G*(3+B)) descriptor matrix, one nonnegative
row per flow field: per-cell axis magnitudes, overall mean magnitude,
and a magnitude-weighted orientation histogram.  Pooling visits each
cell once for the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arrays
from .errors import DataFormatError

# Weighted 8-neighbour average used by the Horn-Schunck update.
_AVG_KERNEL = np.array(
    [
        [1.0 / 12, 1.0 / 6, 1.0 / 12],
        [1.0 / 6, 0.0, 1.0 / 6],
        [1.0 / 12, 1.0 / 6, 1.0 / 12],
    ]
)

MIN_FRAME_SIDE = 8
_CHUNK_ELEMENTS = 2**14  # values per field in one Horn-Schunck chunk (128 KB of float64)


@dataclass(frozen=True)
class Frame:
    """A grayscale frame with intensities in [0, 1]."""

    intensity: np.ndarray  # H x W, float64

    def __post_init__(self):
        arr = np.asarray(self.intensity, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"frame intensity must be 2-D, got shape {arr.shape}")
        h, w = arr.shape
        if h < MIN_FRAME_SIDE or w < MIN_FRAME_SIDE:
            raise ValueError(f"frame must be at least {MIN_FRAME_SIDE}x{MIN_FRAME_SIDE}, got {h}x{w}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("frame intensities must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("frame intensities must lie in [0, 1]")
        object.__setattr__(self, "intensity", arr)

    @property
    def height(self) -> int:
        return self.intensity.shape[0]

    @property
    def width(self) -> int:
        return self.intensity.shape[1]


def _replicate_edges(padded: np.ndarray) -> None:
    """Fill the 1-pixel border of ``padded`` (..., H+2, W+2) from its interior.

    Rows first, then whole columns, so each corner takes the nearest
    interior corner: the same values as ``np.pad(..., mode="edge")``.
    """
    padded[..., 0, 1:-1] = padded[..., 1, 1:-1]
    padded[..., -1, 1:-1] = padded[..., -2, 1:-1]
    padded[..., :, 0] = padded[..., :, 1]
    padded[..., :, -1] = padded[..., :, -2]


def _horn_schunck(images: np.ndarray, alpha: float, iterations: int, uv_out: np.ndarray) -> None:
    """Flow for the consecutive pairs of ``images`` (T+1, H, W) into uv_out (2, T, H, W).

    Every array lives in the padded (T, H+2, W+2) layout, flattened, and
    each pass covers the one contiguous range from the first interior pixel
    to the last, so a neighbour is a flat offset dy*(W+2)+dx.  The border
    lanes inside that range compute garbage that _replicate_edges then
    overwrites; there ix, iy and it hold 0 and denom 1, so the garbage stays
    finite.  Each iteration scales u and v once per distinct kernel weight
    and sums the 8 shifted products onto zeros in row-major kernel order:
    every interior pixel gets the same products, added in the same order,
    as an 8-neighbour average on its own would give.
    """
    _, n, h, w = uv_out.shape
    row = w + 2
    size = n * (h + 2) * row
    lo, hi = row + 1, size - row - 1  # the first interior value, one past the last
    prev, curr = images[:-1], images[1:]
    pa = np.empty((n, h + 2, row))  # brightness average with a replicated border
    np.multiply(prev + curr, 0.5, out=pa[:, 1:-1, 1:-1])
    _replicate_edges(pa)
    grads = np.zeros((4, n, h + 2, row))
    grads[3] = 1.0
    ix, iy, it, denom = grads[..., 1:-1, 1:-1]
    np.subtract(pa[:, 1:-1, 2:], pa[:, 1:-1, :-2], out=ix)
    ix /= 2.0
    np.subtract(pa[:, 2:, 1:-1], pa[:, :-2, 1:-1], out=iy)
    iy /= 2.0
    np.subtract(curr, prev, out=it)
    denom[...] = alpha * alpha + ix * ix + iy * iy
    ix, iy, it, denom = grads.reshape(4, size)[:, lo:hi]

    padded = np.zeros((2, size))  # u and v
    fields = padded.reshape(2, n, h + 2, row)  # the same values, field by field
    u, v = padded[:, lo:hi]
    products = {weight: np.empty((2, size)) for weight in np.unique(_AVG_KERNEL) if weight != 0.0}
    # the 8-neighbour terms as shifted views of those products, in row-major kernel order
    terms = [
        products[_AVG_KERNEL[dy + 1, dx + 1]][:, lo + dy * row + dx : hi + dy * row + dx]
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if _AVG_KERNEL[dy + 1, dx + 1] != 0.0
    ]
    bar = np.empty((2, hi - lo))
    u_bar, v_bar = bar
    update, scratch = np.empty((2, hi - lo))
    for _ in range(iterations):
        for weight, product in products.items():
            np.multiply(padded, weight, out=product)
        np.add(terms[0], 0.0, out=bar)  # x + 0, as summed onto zeros: a -0 term gives +0
        for term in terms[1:]:
            bar += term
        np.multiply(ix, u_bar, out=update)
        np.multiply(iy, v_bar, out=scratch)
        update += scratch
        update += it
        update /= denom
        np.multiply(ix, update, out=scratch)
        np.subtract(u_bar, scratch, out=u)
        np.multiply(iy, update, out=scratch)
        np.subtract(v_bar, scratch, out=v)
        _replicate_edges(fields)
    uv_out[...] = fields[..., 1:-1, 1:-1]


def estimate_flows(frames: list[Frame], alpha: float, iterations: int) -> np.ndarray:
    """Horn-Schunck flow for every consecutive pair of ``frames``, in order.

    Returns the (2, T, H, W) stack: u and v of pair t are [0, t] and [1, t].

    All pairs of a video are stacked into (T, H, W) arrays and updated
    together, in chunks of about _CHUNK_ELEMENTS values per field so the
    working set stays in cache.  Every pixel sees the same arithmetic,
    in the same order, as it would in a pair on its own, so the result
    does not depend on how many pairs share a chunk.
    """
    if len(frames) < 2:
        raise ValueError(f"flow needs at least 2 frames, got {len(frames)}")
    shape = frames[0].intensity.shape
    for fr in frames[1:]:
        if fr.intensity.shape != shape:
            raise ValueError(f"frame dimensions differ: {shape} vs {fr.intensity.shape}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")

    images = np.stack([fr.intensity for fr in frames])
    pairs = len(frames) - 1
    uv = np.empty((2, pairs) + shape)
    step = max(1, _CHUNK_ELEMENTS // (shape[0] * shape[1]))
    for start in range(0, pairs, step):
        stop = min(start + step, pairs)
        _horn_schunck(images[start : stop + 1], alpha, iterations, uv[:, start:stop])
    return uv


def _cell_slices(size: int, grid: int) -> list[slice]:
    """Split ``size`` pixels into ``grid`` equal cells, remainder to the last."""
    step = size // grid
    return [slice(g * step, (g + 1) * step if g < grid - 1 else size) for g in range(grid)]


def orientation_bin(theta, bins: int):
    """Map angles in (-pi, pi] to indices of ``bins`` equal bins over [-pi, pi).

    The value pi wraps to -pi; each bin is half-open [low, high), so an
    angle exactly on an edge joins the bin that edge opens.  Accepts
    scalars or arrays.
    """
    t = np.where(np.asarray(theta) >= np.pi, -np.pi, theta)
    idx = np.floor((t + np.pi) * bins / (2.0 * np.pi)).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def describe_flows(u, v, grid: int, bins: int) -> np.ndarray:
    """Pool a (T, H, W) stack of flow fields into the (T, G*G*(3+B)) descriptor matrix.

    Per cell: the mean positive and mean negative rectified parts of each
    axis are combined into one magnitude per axis, plus the mean overall
    magnitude sqrt(u^2+v^2), plus a B-bin magnitude-weighted orientation
    histogram, L1-normalised (an all-zero cell yields a uniform histogram).
    Row t holds field t's cells row-major, each laid out as
    [u magnitude, v magnitude, mean magnitude, hist(0) .. hist(B-1)].

    Each cell is reduced once for the whole stack.  Every reduction sums
    in the order it would for one field on its own, so a row does not
    depend on the other fields in the stack.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 3 or u.shape != v.shape or u.shape[0] < 1:
        raise ValueError(f"u and v must be equal-shaped (T, H, W) stacks, not {u.shape}, {v.shape}")
    if grid < 1:
        raise ValueError("grid must be at least 1")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    n, height, width = u.shape
    if height < grid or width < grid:
        raise ValueError(f"flow field {height}x{width} too small for grid {grid}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("flow components must be finite")

    mag = np.sqrt(u * u + v * v)
    theta = np.arctan2(v, u)
    offsets = np.arange(n).reshape(n, 1, 1) * bins  # field t's bins follow field t-1's
    cells = [(rs, cs) for rs in _cell_slices(height, grid) for cs in _cell_slices(width, grid)]
    out = np.empty((n, len(cells), 3 + bins))
    for k, (rs, cs) in enumerate(cells):
        cu = u[:, rs, cs]
        cv = v[:, rs, cs]
        cm = mag[:, rs, cs]
        out[:, k, 0] = np.maximum(cu, 0.0).mean((1, 2)) + np.maximum(-cu, 0.0).mean((1, 2))
        out[:, k, 1] = np.maximum(cv, 0.0).mean((1, 2)) + np.maximum(-cv, 0.0).mean((1, 2))
        out[:, k, 2] = cm.mean((1, 2))
        idx = orientation_bin(theta[:, rs, cs], bins) + offsets
        hist = np.bincount(idx.ravel(), weights=cm.ravel(), minlength=n * bins).reshape(n, bins)
        total = hist.sum(axis=1, keepdims=True)
        out[:, k, 3:] = 1.0 / bins
        np.divide(hist, total, out=out[:, k, 3:], where=total > 0.0)
    return out.reshape(n, -1)


def read_pgm(path) -> Frame:
    """Read a binary (P5) 8-bit PGM file; intensity = sample / maxval."""
    with open(path, "rb") as fh:
        data = fh.read()

    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataFormatError(f"{path}: truncated PGM header")
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise DataFormatError(f"{path}: not a binary PGM (magic {magic!r})")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise DataFormatError(f"{path}: malformed PGM header") from exc
    if width < MIN_FRAME_SIDE or height < MIN_FRAME_SIDE:
        raise DataFormatError(
            f"{path}: frame must be at least {MIN_FRAME_SIDE}x{MIN_FRAME_SIDE}, got {width}x{height}"
        )
    if maxval < 1 or maxval > 255:
        raise DataFormatError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise DataFormatError(f"{path}: truncated PGM raster")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if arr.max() > maxval:
        raise DataFormatError(f"{path}: sample {arr.max()} exceeds maxval {maxval}")
    return Frame(intensity=arr.astype(np.float64) / maxval)


def write_pgm(frame: Frame, path) -> None:
    """Write a frame as a binary (P5) 8-bit PGM file."""
    arr = np.clip(np.rint(frame.intensity * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    arrays.write_file(path, header + arr.tobytes())
