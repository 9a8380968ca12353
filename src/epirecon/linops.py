"""Linear operators with exact adjoints and certified operator-norm bounds.

Every operator is immutable after construction, maps a fixed input shape to
a fixed output shape, and implements the exact algebraic adjoint of its
apply (matched pairs). Weights are checked finite once, at construction;
apply and adjoint check only the input shape and return fresh arrays, which
callers may add into. `norm_bound` is a certified upper bound on the
operator norm; estimate_norm is a lower-bound diagnostic.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import (ShapeMismatchError, as_count, as_real, as_shape, as_tensor,
                     check_shape, ensure_finite)


def pad_bound(value) -> float:
    """A computed norm bound, padded by a 1e-12 relative margin against rounding."""
    return float(value) * (1.0 + 1e-12)


class LinOp:
    """Base class: subclasses set the shapes, kind, and norm_bound or _norm_bound."""

    kind = "abstract"

    @functools.cached_property
    def norm_bound(self):
        """Upper bound on the operator norm, computed once; None if the kind has none."""
        value = self._norm_bound()
        return None if value is None else pad_bound(value)

    def _norm_bound(self):
        return None

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        check_shape(x, self.input_shape, f"{self.kind}.apply input")
        return self._apply(x)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        check_shape(w, self.output_shape, f"{self.kind}.adjoint input")
        return self._adjoint(w)

    def _apply(self, x):
        raise NotImplementedError

    def _adjoint(self, w):
        raise NotImplementedError


class Dense(LinOp):
    """Matrix multiply on the flattened input."""

    kind = "dense"

    def __init__(self, matrix, input_shape=None):
        matrix = ensure_finite(as_tensor(matrix), "dense matrix")
        if matrix.ndim != 2:
            raise ValueError(f"dense operator needs a 2-d matrix, got shape {matrix.shape}")
        self.matrix = matrix
        m, n = as_shape(matrix.shape, "dense matrix shape", least=1)
        self.input_shape = (n,) if input_shape is None else as_shape(
            input_shape, "input_shape", least=1)
        if int(np.prod(self.input_shape)) != n:
            raise ShapeMismatchError((n,), self.input_shape, "dense input_shape product")
        self.output_shape = (m,)

    def _apply(self, x):
        return self.matrix @ x.ravel()

    def _adjoint(self, w):
        return (self.matrix.T @ w).reshape(self.input_shape)

    def _norm_bound(self):
        return np.linalg.norm(self.matrix, 2)


class Conv2D(LinOp):
    """2-d correlation, zero padding, stride 1, same spatial size.

    Filters are stored as (out_channels, in_channels, kh, kw). A 2-d input
    is treated as a single channel; a single-output-channel result is
    squeezed back to 2-d so one-filter convolutions preserve the image shape.

    The zero-bordered input, window copy and tap planes (0.85 MB each at
    64x64, 8 filters 5x5) live in buffers shared by the operators of one
    geometry: made per call, malloc can unmap them and fault them in again
    (2.5x a power step). Each call overwrites what it reads and never the
    border; no two threads may share a geometry.
    """

    kind = "conv2d"

    def __init__(self, filters, input_shape):
        filters = ensure_finite(as_tensor(filters), "conv2d filters")
        input_shape = as_shape(input_shape, "input_shape", least=1)
        if len(input_shape) not in (2, 3):
            raise ValueError(f"conv2d input must be 2-d or 3-d, got {input_shape}")
        in_channels = input_shape[0] if len(input_shape) == 3 else 1
        if filters.ndim == 3:
            filters = filters[:, None, :, :]
        if filters.ndim != 4:
            raise ValueError(f"conv2d filters must be 3-d or 4-d, got shape {filters.shape}")
        if filters.shape[1] != in_channels:
            raise ShapeMismatchError(
                (filters.shape[0], in_channels, filters.shape[2], filters.shape[3]),
                filters.shape, "conv2d filter channels")
        self.filters = filters
        self.input_shape = input_shape
        out_channels = filters.shape[0]
        h, w = input_shape[-2:]
        kh, kw = filters.shape[2:]
        if not (1 <= kh <= h + (kh - 1) // 2 and 1 <= kw <= w + (kw - 1) // 2):
            raise ValueError(f"conv2d kernel must be at least 1x1 and fit input {h}x{w}, "
                             f"got {kh}x{kw}")
        self.output_shape = (h, w) if out_channels == 1 else (out_channels, h, w)
        self._cols, self._wide, self._taps, self._interior, self._window = _conv_work(
            in_channels, out_channels, h, w, kh, kw)

    def _apply(self, x):
        self._interior[...] = x  # a 2-d x broadcasts over the one channel
        # tensordot(filters, window, axes=([1, 2, 3], [0, 3, 4])) with a kept window copy
        np.copyto(self._cols, self._window)
        out = np.dot(self.filters.reshape(len(self.filters), -1),
                     self._cols.reshape(self.filters[0].size, -1))
        return out.reshape(self.output_shape)

    def _adjoint(self, w):
        """col2im: contract the output channels once, giving one plane per
        input channel and kernel tap, then add each tap's plane, shifted,
        into one zero-padded buffer and crop the padding. w is first widened
        with kw - 1 zero columns to the buffer's row width, so each shift is
        one offset into the flattened buffer and each add one contiguous
        slice; what runs past a row end comes from the zero columns."""
        c_in, kh, kw = self.filters.shape[1:]
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        h, wd = w.shape[-2:]
        row = wd + kw - 1
        self._wide[..., :wd] = w  # a 2-d w broadcasts over the one channel
        np.dot(self.filters.transpose(1, 2, 3, 0).reshape(-1, len(self.filters)),
               self._wide.reshape(len(self.filters), -1), out=self._taps)
        cols = self._taps.reshape(c_in, kh, kw, h * row)
        flat = np.zeros((c_in, (h + kh) * row))
        for a in range(kh):
            for b in range(kw):
                start = a * row + b
                flat[:, start:start + h * row] += cols[:, a, b]
        padded = flat.reshape(c_in, h + kh, row)
        return np.ascontiguousarray(padded[:, ph:ph + h, pw:pw + wd]).reshape(self.input_shape)

    def _norm_bound(self):
        """Top singular value of the c_out x c_in transfer matrix over the frequencies
        of the (h+kh-1) x (w+kw-1) grid, where the operator is a crop of a circular
        correlation (Sedghi, Gupta & Long, ICLR 2019); real filters need half of them."""
        h, w = self.input_shape[-2:]
        kh, kw = self.filters.shape[2:]
        spectrum = np.fft.rfft2(self.filters, s=(h + kh - 1, w + kw - 1))
        return np.linalg.norm(spectrum, 2, axis=(0, 1)).max()


@functools.lru_cache(maxsize=8)
def _conv_work(c_in, c_out, h, w, kh, kw):
    """Conv2D work buffers for one geometry: window copy, widened output (its
    columns past w stay 0), tap planes, and the interior and transposed window
    view of a zero-bordered input (its border stays 0)."""
    padded = np.zeros((c_in, h + kh - 1, w + kw - 1))
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    window = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    return (np.zeros((c_in, kh, kw, h, w)), np.zeros((c_out, h, w + kw - 1)),
            np.zeros((c_in * kh * kw, h * (w + kw - 1))),
            padded[:, ph:ph + h, pw:pw + w], window.transpose(0, 3, 4, 1, 2))


class AvgPool2D(LinOp):
    """Non-overlapping mean pooling; sides must divide exactly.

    Exact norm: pooling P satisfies P P* = I / (ph*pw), so |P| = 1/sqrt(ph*pw).
    """

    kind = "avgpool2d"

    def __init__(self, pool, input_shape):
        ph, pw = as_shape((pool, pool) if np.isscalar(pool) else pool, "pool", least=1)
        input_shape = as_shape(input_shape, "input_shape", least=1)
        if len(input_shape) not in (2, 3):
            raise ValueError(f"avgpool2d input must be 2-d or 3-d, got {input_shape}")
        h, w = input_shape[-2:]
        if h % ph or w % pw:
            raise ValueError(
                f"pool {(ph, pw)} does not divide input {h}x{w}; "
                "implicit cropping would break adjoint exactness")
        self.pool = (ph, pw)
        self.input_shape = input_shape
        self.output_shape = input_shape[:-2] + (h // ph, w // pw)
        self.norm_bound = 1.0 / np.sqrt(ph * pw)

    def _apply(self, x):
        """mean over the window axes in numpy's order for a C-contiguous x: each
        run of contiguous entries (a window row, or when pw == w the whole
        window) summed pairwise, then the runs added in order into zeros."""
        ph, pw = self.pool
        h, w = self.input_shape[-2:]
        rows, run = (1, ph * pw) if pw == w else (ph, pw)
        runs = _pairwise_sum(x.reshape(self.input_shape[:-2] + (h // ph, rows, w // pw, run)))
        return np.add.reduce(runs, axis=-2) / (ph * pw)  # inner loop on w/pw: rows in order

    def _adjoint(self, s):
        ph, pw = self.pool
        out = np.empty(self.input_shape)  # each window's value / (ph pw), one row per band
        out.reshape(s.shape[:-1] + (ph, out.shape[-1]))[...] = \
            np.repeat(s / (ph * pw), pw, axis=-1)[..., None, :]
        return out


def _pairwise_sum(a):
    """Sum over the last axis in numpy's pairwise order (its pairwise_sum) as
    whole-array adds of strided views: below 8 terms in order, up to 128 in 8
    interleaved partial sums, above split at half rounded down to 8's multiple."""
    n = a.shape[-1]
    if n < 8:
        return sum(a[..., i] for i in range(n))  # from 0, as numpy reduces: -0.0 sums to 0.0
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(a[..., :half]) + _pairwise_sum(a[..., half:])
    r = [a[..., j] for j in range(8)]
    for i in range(8, n - n % 8, 8):
        r = [r[j] + a[..., i + j] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(n - n % 8, n):
        total += a[..., i]
    return total


class DiagonalMask(LinOp):
    """Entrywise multiplication by a fixed tensor (self-adjoint)."""

    kind = "diagonal_mask"

    def __init__(self, mask):
        self.mask = ensure_finite(as_tensor(mask), "diagonal_mask mask")
        self.input_shape = as_shape(self.mask.shape, "diagonal_mask mask shape", least=1)
        self.output_shape = self.input_shape
        self.norm_bound = float(np.max(np.abs(self.mask)))

    def _apply(self, x):
        return self.mask * x

    def _adjoint(self, w):
        return self.mask * w


class ScaledIdentity(LinOp):
    """scale * x on a fixed shape; used for the auxiliary-variable block rows."""

    kind = "scaled_identity"

    def __init__(self, shape, scale=1.0):
        self.input_shape = as_shape(shape, "shape", least=1)
        self.output_shape = self.input_shape
        if isinstance(scale, bool) or not np.isfinite(scale):  # float() reads true as 1.0
            raise ValueError(f"scaled identity needs a finite scale, got {scale!r}")
        self.scale = float(scale)
        self.norm_bound = abs(self.scale)

    def _apply(self, x):
        return self.scale * x

    def _adjoint(self, w):
        return self.scale * w


class Compose(LinOp):
    """Composition of operators, applied in the listed order."""

    kind = "compose"

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("compose needs at least one operator")
        for a, b in zip(parts, parts[1:]):
            if tuple(a.output_shape) != tuple(b.input_shape):
                raise ShapeMismatchError(a.output_shape, b.input_shape,
                                         f"compose {a.kind} -> {b.kind}")
        self.parts = parts
        self.input_shape = parts[0].input_shape
        self.output_shape = parts[-1].output_shape

    def _norm_bound(self):
        bounds = [p.norm_bound for p in self.parts]
        return None if any(b is None for b in bounds) else np.prod(bounds)

    def _apply(self, x):
        for p in self.parts:
            x = p.apply(x)
        return x

    def _adjoint(self, w):
        for p in reversed(self.parts):
            w = p.adjoint(w)
        return w


def min_coefficient(op):
    """Smallest matrix entry of the operator, or None when not certifiable.

    Used to check the nonnegativity required of carry-path weights; returns
    0.0 for structurally nonnegative kinds whose off-diagonal entries are 0.
    """
    if isinstance(op, Dense):
        return float(op.matrix.min())
    if isinstance(op, Conv2D):
        # zero padding contributes zero entries; the sign is set by filters
        return min(float(op.filters.min()), 0.0)
    if isinstance(op, DiagonalMask):
        return min(float(op.mask.min()), 0.0)
    if isinstance(op, AvgPool2D):
        return 0.0
    if isinstance(op, ScaledIdentity):
        return min(op.scale, 0.0)
    if isinstance(op, Compose):
        mins = [min_coefficient(p) for p in op.parts]
        if any(m is None for m in mins):
            return None
        # product of entrywise-nonnegative maps stays entrywise nonnegative
        return 0.0 if all(m >= 0.0 for m in mins) else None
    if op.kind == "radon":
        return 0.0  # bilinear splat weights and scale are nonnegative
    return None


@dataclass(frozen=True)
class NormEstimate:
    """Power-iteration result; `value` underestimates the true norm slightly."""

    value: float
    iterations: int
    converged: bool
    history: tuple


def estimate_norm(op, tol: float = 1e-6, max_iters: int = 500, seed: int = 0) -> NormEstimate:
    """Operator-norm estimate by power iteration on adjoint(apply(.)).

    Deterministic for a fixed seed. Rayleigh-quotient estimates are
    monotonically non-decreasing; `converged` is False if the relative
    change never fell below tol (the best estimate is still returned).
    """
    tol, max_iters = as_real(tol, "tol", "positive"), as_count(max_iters, 1, "max_iters")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=op.input_shape)
    nrm = np.sqrt(np.vdot(x, x))
    if nrm == 0.0:
        raise ValueError("degenerate start vector")
    x /= nrm
    history = []
    estimate = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        y = op.adjoint(op.apply(x))
        rayleigh = float(np.vdot(x, y))  # = |K x|^2 >= 0
        new_estimate = np.sqrt(max(rayleigh, 0.0))
        history.append(new_estimate)
        ynorm = float(np.sqrt(np.vdot(y, y)))
        if ynorm == 0.0:
            estimate = 0.0
            converged = True
            break
        done = iterations > 1 and abs(new_estimate - estimate) <= tol * max(new_estimate, 1e-300)
        estimate = new_estimate
        if done:
            converged = True
            break
        x = y / ynorm
    return NormEstimate(estimate, iterations, converged, tuple(history))


def materialize(op) -> np.ndarray:
    """Dense matrix of the operator, via basis vectors (small instances only)."""
    n = int(np.prod(op.input_shape))
    mat = np.zeros((int(np.prod(op.output_shape)), n))
    basis = np.zeros(op.input_shape)
    flat = basis.reshape(-1)
    for j in range(n):
        flat[j] = 1.0
        mat[:, j] = op.apply(basis).ravel()
        flat[j] = 0.0
    return mat


# --- descriptor (de)serialization -------------------------------------------
#
# Operators are stored in JSON manifests; tensor payloads go to blob files
# through the save/load callables (name hint -> filename / filename -> array).

def op_to_config(op, save_blob):
    if isinstance(op, Dense):
        return {"kind": op.kind, "matrix": save_blob("matrix", op.matrix),
                "input_shape": list(op.input_shape)}
    if isinstance(op, Conv2D):
        return {"kind": op.kind, "filters": save_blob("filters", op.filters),
                "input_shape": list(op.input_shape)}
    if isinstance(op, AvgPool2D):
        return {"kind": op.kind, "pool": list(op.pool), "input_shape": list(op.input_shape)}
    if isinstance(op, DiagonalMask):
        return {"kind": op.kind, "mask": save_blob("mask", op.mask)}
    if isinstance(op, ScaledIdentity):
        return {"kind": op.kind, "shape": list(op.input_shape), "scale": op.scale}
    if isinstance(op, Compose):
        return {"kind": op.kind, "parts": [op_to_config(p, save_blob) for p in op.parts]}
    if op.kind == "radon":
        g = op.geometry
        return {"kind": "radon", "geometry": {
            "image_side": g.image_side, "n_angles": g.n_angles, "n_bins": g.n_bins,
            "detector_spacing": g.detector_spacing, "scale": g.scale,
            "angles": list(g.angles)}}
    raise ValueError(f"cannot serialize operator kind {op.kind!r}")


def op_from_config(cfg, load_blob):
    if not isinstance(cfg, dict):
        raise TypeError(f"expected an operator mapping, got {cfg!r}")
    kind = cfg.get("kind")
    if kind == "dense":
        return Dense(load_blob(cfg["matrix"]), input_shape=cfg.get("input_shape"))
    if kind == "conv2d":
        return Conv2D(load_blob(cfg["filters"]), input_shape=cfg["input_shape"])
    if kind == "avgpool2d":
        return AvgPool2D(cfg["pool"], input_shape=cfg["input_shape"])
    if kind == "diagonal_mask":
        return DiagonalMask(load_blob(cfg["mask"]))
    if kind == "scaled_identity":
        return ScaledIdentity(cfg["shape"], cfg.get("scale", 1.0))
    if kind == "compose":
        return Compose([op_from_config(p, load_blob) for p in cfg["parts"]])
    if kind == "radon":
        from .radon import Radon, RadonGeometry
        g = cfg["geometry"]
        geom = RadonGeometry(image_side=g["image_side"], n_angles=g["n_angles"],
                             n_bins=g["n_bins"], detector_spacing=g["detector_spacing"],
                             scale=as_real(g["scale"], "scale"),  # null: no default here
                             angles=tuple(g["angles"]))
        return Radon(geom)
    raise ValueError(f"unknown operator kind {kind!r}")
