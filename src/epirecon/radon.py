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
            object.__setattr__(self, name, as_count(getattr(self, name), name=name))
        if min(self.image_side, self.n_angles, self.n_bins) < 1:
            raise ValueError(f"degenerate geometry: image_side={self.image_side}, "
                             f"n_angles={self.n_angles}, n_bins={self.n_bins}")
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


@functools.lru_cache(maxsize=4)
def _radon_work(image_side, angles, n_bins, detector_spacing):
    """One geometry's splat tables, which do not depend on its scale: bin weights and flat
    sinogram indices (clipped into range, so np.take's mode="clip" is exact; writeable, as
    np.bincount copies a read-only index array per call), and two work buffers of their size
    that apply and adjoint overwrite, not thread-safe: allocated per call they page-faulted."""
    centers = np.arange(image_side) - (image_side - 1) / 2.0
    ys, xs = np.meshgrid(centers, centers, indexing="ij")
    angles = np.asarray(angles)[:, None]
    t = np.cos(angles) * xs.ravel()[None, :] + np.sin(angles) * ys.ravel()[None, :]
    u = np.clip(t / detector_spacing + (n_bins - 1) / 2.0, -1.0, n_bins)  # int64-safe
    lo = np.floor(u).astype(np.int64)
    frac = u - lo
    rows = np.arange(len(angles))[:, None] * n_bins
    return (np.where((lo >= 0) & (lo < n_bins), 1.0 - frac, 0.0),
            np.where((lo + 1 >= 0) & (lo + 1 < n_bins), frac, 0.0),
            rows + np.clip(lo, 0, n_bins - 1), rows + np.clip(lo + 1, 0, n_bins - 1),
            np.empty(t.shape), np.empty(t.shape))


class Radon(LinOp):
    """Pixel-driven parallel-beam projector for a fixed geometry; the projectors of one
    geometry share its tables and work buffers (not thread-safe), of one scale its bound."""

    kind = "radon"

    def __init__(self, geometry: RadonGeometry):
        self.geometry = geometry
        n = geometry.image_side
        self.input_shape = (n, n)
        self.output_shape = geometry.sinogram_shape
        (self._w_lo, self._w_hi, self._idx_lo, self._idx_hi, self._lo, self._hi) = _radon_work(
            n, geometry.angles, geometry.n_bins, geometry.detector_spacing)
        self._flat_len = geometry.n_angles * geometry.n_bins

    def _apply(self, x):
        vals = x.ravel()[None, :]
        np.multiply(vals, self._w_lo, out=self._lo)
        np.multiply(vals, self._w_hi, out=self._hi)
        sino = np.bincount(self._idx_lo.ravel(), self._lo.ravel(), minlength=self._flat_len)
        sino += np.bincount(self._idx_hi.ravel(), self._hi.ravel(), minlength=self._flat_len)
        return self.geometry.scale * sino.reshape(self.output_shape)

    def _adjoint(self, s):
        flat = s.ravel()
        lo = np.multiply(self._w_lo, np.take(flat, self._idx_lo, out=self._lo, mode="clip"),
                         out=self._lo)
        lo += np.multiply(self._w_hi, np.take(flat, self._idx_hi, out=self._hi, mode="clip"),
                          out=self._hi)
        return self.geometry.scale * lo.sum(axis=0).reshape(self.input_shape)

    def _norm_bound(self):
        return _cw_bound(self.geometry)


@functools.lru_cache(maxsize=4)
def _cw_bound(geometry):
    """Collatz-Wielandt: A >= 0 entrywise, so |A|^2 <= max_i (A*A x)_i / x_i over x_i > 0,
    for 10 power iterates from ones on the pixels that reach a bin (0 if none does);
    each (A*A x)_i there is positive, so one below the normal range underflowed.
    Run once per geometry, scale included, on the scaled operator."""
    op = Radon(geometry)
    reached = ((op._w_lo > 0.0) | (op._w_hi > 0.0)).any(axis=0).reshape(op.input_shape)
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
