"""ARR1: the one container for every file of arrays the pipeline writes.

The descriptor files, the PCA, CNN and SVM model files and the fold stage
outputs are all ARR1 files, each a set of named arrays; each reader
(``corpus.read_sequence``, each model's loader) checks what its arrays
mean.  All little-endian: the magic ``ARR1``, a u32 array count,
then per array a u32 name length, the UTF-8 name, its kind (``<f8``,
``<f4``, ``<i8`` or ``|u1``), a u32 ndim, a u32 per dimension and the
payload.  ``load`` checks every declared size against the bytes left
before it builds any array, so a bad file raises ``DataFormatError``
having allocated no more than itself.  ``write``, like the reports, the
feature and prediction tables and the manifest, goes through
``write_file``, which renames a finished temporary file into place.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import sys

import numpy as np

from .errors import DataFormatError

MAGIC = b"ARR1"
_DTYPES = {kind: np.dtype(kind.decode()) for kind in (b"<f8", b"<f4", b"<i8", b"|u1")}
_MAX_NDIM = 32  # numpy's own limit before 2.0


def write_file(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through ``path + ".tmp"``, then rename it into place.

    ``path`` holds its previous bytes or ``data``, never part of either, and
    a write that fails leaves no temporary file.
    """
    temporary = os.fspath(path) + ".tmp"
    try:
        with open(temporary, "wb") as fh:
            fh.write(data)
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def write(path, **arrays) -> None:
    """Write the named arrays (float64, float32, int64 or uint8; bytes as uint8)."""
    parts = [MAGIC, struct.pack("<I", len(arrays))]
    for name, array in arrays.items():
        array = np.frombuffer(array, np.uint8) if isinstance(array, bytes) else np.asarray(array)
        kind = array.dtype.newbyteorder("<").str.encode()
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded, kind,
                  struct.pack(f"<{1 + array.ndim}I", array.ndim, *array.shape),
                  np.ascontiguousarray(array, dtype=_DTYPES[kind]).tobytes()]
    write_file(path, b"".join(parts))


def load(path, **expected) -> dict:
    """The arrays of an ARR1 file, checked as ``name=(kind, shape)``.

    A kind is a stored kind such as ``"<f8"``, and a ``None`` in a shape
    matches any size.  The arrays are read-only views of the file's bytes,
    built once every declared size has been checked against them.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}")
    off = 4

    def take(size):
        nonlocal off
        if len(blob) - off < size:
            raise DataFormatError(f"{path}: truncated at byte {off}")
        off += size
        return off - size

    (count,) = struct.unpack_from("<I", blob, take(4))
    layout = {}  # name -> (kind, shape, payload offset)
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, take(4))
        at = take(name_len + 3)
        try:
            name = blob[at : at + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: array name is not UTF-8") from exc
        kind = blob[at + name_len : at + name_len + 3]
        if kind not in _DTYPES:
            raise DataFormatError(f"{path}: array {name!r} has unknown kind {kind!r}")
        if name in layout:
            raise DataFormatError(f"{path}: duplicate array {name!r}")
        (ndim,) = struct.unpack_from("<I", blob, take(4))
        if ndim > _MAX_NDIM:
            raise DataFormatError(f"{path}: array {name!r} has {ndim} dimensions")
        shape = struct.unpack_from(f"<{ndim}I", blob, take(4 * ndim))
        dtype = _DTYPES[kind]
        # numpy's own bound, which the other dimensions of an empty array can break
        if 0 in shape and dtype.itemsize * math.prod(filter(None, shape)) > sys.maxsize:
            raise DataFormatError(f"{path}: array {name!r} of shape {shape} is too large")
        layout[name] = (dtype, shape, take(dtype.itemsize * math.prod(shape)))
    if off != len(blob):
        raise DataFormatError(f"{path}: trailing bytes")
    arrays = {
        name: np.frombuffer(blob, dtype=kind, count=math.prod(shape), offset=at).reshape(shape)
        for name, (kind, shape, at) in layout.items()
    }
    for name, (kind, shape) in expected.items():
        if name not in arrays:
            raise DataFormatError(f"{path}: no array {name!r}")
        array = arrays[name]
        if (array.dtype != kind or array.ndim != len(shape)
                or any(want not in (None, got) for want, got in zip(shape, array.shape))):
            raise DataFormatError(
                f"{path}: array {name!r} is {array.dtype.str} {array.shape}, "
                f"expected {kind} {shape}"
            )
    return arrays
