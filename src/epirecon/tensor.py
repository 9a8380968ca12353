"""Dense float64 tensors and the lossless binary blob format.

All signal, weight and dual data in this package is carried by C-contiguous
float64 numpy arrays, read as finite; counts and shapes are read as ints, refusing
a bool or a fraction, and scalars as finite floats, refusing a bool. Blob files are
bit-exact round trips: magic "TNSB", u16 version, u16 rank, rank x u64 dims,
then row-major f64 payload, all little-endian.
"""

import math
import numbers
import struct
import sys

import numpy as np

BLOB_MAGIC = b"TNSB"
BLOB_VERSION = 1


class ShapeMismatchError(ValueError):
    """Raised when an array does not have the shape an operation requires."""

    def __init__(self, expected, actual, context=""):
        self.expected = tuple(int(s) for s in expected)
        self.actual = tuple(int(s) for s in actual)
        self.context = context
        msg = f"shape mismatch: expected {self.expected}, got {self.actual}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class NonFiniteError(FloatingPointError):
    """Raised when NaN or Inf shows up where finite data is guaranteed."""


class BlobFormatError(ValueError):
    """Raised for malformed tensor blob files."""


def as_tensor(values) -> np.ndarray:
    """Coerce to a C-contiguous float64 array (rank 0 stays rank 0)."""
    arr = np.asarray(values, dtype=np.float64)
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)


def check_shape(arr: np.ndarray, expected, context: str = "") -> None:
    if tuple(arr.shape) != tuple(expected):
        raise ShapeMismatchError(expected, arr.shape, context)


def as_count(value, least=None, name=None):
    """value as an int, refusing what int() would take silently (a bool, a
    fraction or a non-number) and, when least is given, a value below it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        problem = f"expected an integer, got {value!r}"
    elif least is None or value >= least:
        return int(value)
    else:
        problem = f"must be at least {least}, got {value}"
    raise ValueError(problem if name is None else f"{name}: {problem}")


DOMAINS = {"positive": lambda v: v > 0.0, "nonnegative": lambda v: v >= 0.0,
           "within [0, 1]": lambda v: (v >= 0.0) & (v <= 1.0)}


def as_real(value, name=None, domain=None):
    """value as a float, refusing a bool, a non-number, a non-finite number and,
    when one of DOMAINS is named, a value outside it; with a domain the refusal
    reads "{name} must be finite and {domain}, got {value!r}"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            # an int is compared exactly: math.isfinite would overflow converting it
            (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value))
            and (domain is None or DOMAINS[domain](value))):
        if domain is not None:
            raise ValueError(f"{name} must be finite and {domain}, got {value!r}")
        problem = f"expected a finite number, got {value!r}"
        raise ValueError(problem if name is None else f"{name}: {problem}")
    return float(value)


def as_shape(values, name, least=None):
    """A shape (or pool size) as a tuple of ints, each read by as_count."""
    return tuple(as_count(s, least, name) for s in values)


def ensure_finite(arr: np.ndarray, context: str = "") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr).ravel())[0])
        what = context or "array"
        raise NonFiniteError(f"{what}: non-finite entry at flat index {bad}")
    return arr


def as_array(values, name, domain=None) -> np.ndarray:
    """values as a C-contiguous float64 array, refusing a non-finite entry through
    ensure_finite and, when one of DOMAINS is named, an entry outside it."""
    arr = ensure_finite(as_tensor(values), name)
    if domain is not None and not (inside := DOMAINS[domain](arr)).all():
        bad = int(np.flatnonzero(~inside)[0])
        raise ValueError(f"{name} must be {domain}, got {arr.item(bad)} at flat index {bad}")
    return arr


def write_tensor(path, arr) -> None:
    """Write a tensor blob (bit-exact, little-endian, row-major)."""
    arr = as_tensor(arr)
    with open(path, "wb") as fh:
        fh.write(BLOB_MAGIC)
        fh.write(struct.pack("<HH", BLOB_VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a tensor blob written by write_tensor."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != BLOB_MAGIC:
        raise BlobFormatError(f"{path}: bad magic {raw[:4]!r}, expected {BLOB_MAGIC!r}")
    if len(raw) < 8:
        raise BlobFormatError(f"{path}: truncated header")
    version, rank = struct.unpack_from("<HH", raw, 4)
    if version != BLOB_VERSION:
        raise BlobFormatError(f"{path}: unsupported version {version}")
    dims_end = 8 + 8 * rank
    if len(raw) < dims_end:
        raise BlobFormatError(f"{path}: truncated dims")
    shape = struct.unpack_from(f"<{rank}Q", raw, 8) if rank else ()
    count = 1
    for s in shape:
        count *= s
    if len(raw) != dims_end + 8 * count:
        raise BlobFormatError(
            f"{path}: payload holds {(len(raw) - dims_end) // 8} scalars, "
            f"shape {shape} needs {count}"
        )
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=dims_end)
    return as_tensor(data.reshape(shape).copy())  # writable, detached from the buffer
