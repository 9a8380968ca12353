"""Parallel-beam Radon transform as a matched forward/adjoint pair.

Pixel-driven discretization: every pixel center is projected onto the
detector axis and its value is splat onto the two neighbouring bins with
linear weights. The adjoint is the exact transpose of that splat (a matched
pair), which is what the primal-dual convergence condition needs.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .linops import LinOp
from .tensor import as_count, as_real, check_shape


def _uniform_angles(n_angles: int) -> tuple:
    return tuple(np.pi * k / n_angles for k in range(n_angles))


@dataclass(frozen=True)
class RadonGeometry:
    """Acquisition geometry; angles default to uniform in [0, pi).

    scale multiplies the transform; the default 1/image_side keeps the
    operator norm O(1) across resolutions.
    """

    image_side: int
    n_angles: int
    n_bins: int
    detector_spacing: float = 1.0
    scale: float = None
    angles: tuple = field(default=None)

    def __post_init__(self):
        for name in ("image_side", "n_angles", "n_bins"):
            object.__setattr__(self, name, as_count(getattr(self, name), 1, name))
        if self.scale is None:
            object.__setattr__(self, "scale", 1.0 / self.image_side)
        for name in ("detector_spacing", "scale"):
            object.__setattr__(self, name, as_real(getattr(self, name), name, "positive"))
        if self.angles is None:
            object.__setattr__(self, "angles", _uniform_angles(self.n_angles))
        angles = tuple(as_real(a, "angles") for a in self.angles)
        if len(angles) != self.n_angles:
            raise ValueError(f"{len(angles)} angles given, n_angles={self.n_angles}")
        if any(b <= a for a, b in zip(angles, angles[1:])):
            raise ValueError("angles must be strictly increasing")
        object.__setattr__(self, "angles", angles)

    @property
    def sinogram_shape(self):
        return (self.n_angles, self.n_bins)


BLOCK_BYTES = 2**18  # one angle block's rows of a float64 table: work buffers stay in L2


@functools.lru_cache(maxsize=4)
def _radon_work(image_side, angles, n_bins, detector_spacing):
    """One geometry's splat tables, which do not depend on its scale, in blocks of consecutive
    angles: a block's first angle, bin weights and sinogram indices from its first bin (clipped
    into range, so np.take's mode="clip" is exact; writeable, as np.bincount copies a read-only
    index array per call). Two work buffers of one block, one with an extra row, that apply and
    adjoint overwrite, not thread-safe: allocated per call they page-faulted."""
    centers = np.arange(image_side) - (image_side - 1) / 2.0
    ys, xs = np.meshgrid(centers, centers, indexing="ij")
    size = max(1, BLOCK_BYTES // (8 * image_side**2))
    blocks = []
    for first in range(0, len(angles), size):
        block = np.asarray(angles[first:first + size])[:, None]
        t = np.cos(block) * xs.ravel()[None, :] + np.sin(block) * ys.ravel()[None, :]
        u = np.clip(t / detector_spacing + (n_bins - 1) / 2.0, -1.0, n_bins)  # int64-safe
        lo = np.floor(u).astype(np.int64)
        frac = u - lo
        rows = np.arange(len(block))[:, None] * n_bins
        blocks.append((first, np.where((lo >= 0) & (lo < n_bins), 1.0 - frac, 0.0),
                       np.where((lo + 1 >= 0) & (lo + 1 < n_bins), frac, 0.0),
                       rows + np.clip(lo, 0, n_bins - 1), rows + np.clip(lo + 1, 0, n_bins - 1)))
    size = min(size, len(angles))
    return tuple(blocks), np.empty((size + 1, image_side**2)), np.empty((size, image_side**2))


class Radon(LinOp):
    """Pixel-driven parallel-beam projector for a fixed geometry; the projectors of one
    geometry share its tables and work buffers (not thread-safe), of one scale its bound."""

    kind = "radon"

    def __init__(self, geometry: RadonGeometry):
        self.geometry = geometry
        n = geometry.image_side
        self.input_shape = (n, n)
        self.output_shape = geometry.sinogram_shape
        self._blocks, self._lo, self._hi = _radon_work(
            n, geometry.angles, geometry.n_bins, geometry.detector_spacing)

    def _apply(self, x):
        # per block: a bin gets the terms of its own angle only, in pixel order
        vals, sino = x.ravel()[None, :], np.empty(self.output_shape)
        for first, w_lo, w_hi, idx_lo, idx_hi in self._blocks:
            k = len(w_lo)
            rows = sino[first:first + k].ravel()  # a view: the block's rows are contiguous
            lo = np.multiply(vals, w_lo, out=self._lo[1:k + 1]).ravel()
            hi = np.multiply(vals, w_hi, out=self._hi[:k]).ravel()
            np.add(np.bincount(idx_lo.ravel(), lo, minlength=rows.size),
                   np.bincount(idx_hi.ravel(), hi, minlength=rows.size), out=rows)
        sino *= self.geometry.scale
        return sino

    def _adjoint(self, s):
        # past the first block, row 0 holds the earlier angles' sum: rows add in angle order
        back = np.empty(self._lo.shape[1])
        for first, w_lo, w_hi, idx_lo, idx_hi in self._blocks:
            k = len(w_lo)
            rows, lo, hi = s[first:first + k].ravel(), self._lo[1:k + 1], self._hi[:k]
            np.multiply(w_lo, np.take(rows, idx_lo, out=lo, mode="clip"), out=lo)
            lo += np.multiply(w_hi, np.take(rows, idx_hi, out=hi, mode="clip"), out=hi)
            if first:
                self._lo[0] = back
            np.add.reduce(self._lo[0 if first else 1:k + 1], axis=0, out=back)
        back *= self.geometry.scale
        return back.reshape(self.input_shape)

    def _norm_bound(self):
        return _cw_bound(self.geometry)


@functools.lru_cache(maxsize=4)
def _cw_bound(geometry):
    """Collatz-Wielandt: A >= 0 entrywise, so |A|^2 <= max_i (A*A x)_i / x_i over x_i > 0,
    for 10 power iterates from ones on the pixels that reach a bin (0 if none does);
    each (A*A x)_i there is positive, so one below the normal range underflowed.
    Run once per geometry, scale included, on the scaled operator."""
    op = Radon(geometry)
    reached = np.logical_or.reduce([((w_lo > 0.0) | (w_hi > 0.0)).any(axis=0)
                                    for _, w_lo, w_hi, _, _ in op._blocks]).reshape(op.input_shape)
    if not reached.any():
        return 0.0
    x = np.ones(op.input_shape)
    best = np.inf
    for _ in range(10):
        y = op.adjoint(op.apply(x))
        if not (y[reached] >= np.finfo(np.float64).tiny).all():
            return None
        best = min(best, float(np.max(y[reached] / x[reached])))
        x = y / y.max()
    return np.sqrt(best)


def ramp_filter(geometry: RadonGeometry, sinogram: np.ndarray) -> np.ndarray:
    """Ram-Lak filtering of each projection row in the frequency domain."""
    check_shape(sinogram, geometry.sinogram_shape, "ramp_filter sinogram")
    nb = geometry.n_bins
    size = 1
    while size < 2 * nb:
        size *= 2
    freqs = np.fft.rfftfreq(size, d=geometry.detector_spacing)
    spectrum = np.fft.rfft(sinogram, n=size, axis=1)
    filtered = np.fft.irfft(spectrum * np.abs(freqs)[None, :], n=size, axis=1)
    return filtered[:, :nb]
