"""Parallel-beam Radon transform as a matched forward/adjoint pair.

Pixel-driven discretization: every pixel center is projected onto the
detector axis and its value is splat onto the two neighbouring bins with
linear weights. The adjoint is the exact transpose of that splat (a matched
pair), which is what the primal-dual convergence condition needs.
"""

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


class Radon(LinOp):
    """Pixel-driven parallel-beam projector for a fixed geometry."""

    kind = "radon"

    def __init__(self, geometry: RadonGeometry):
        self.geometry = geometry
        n = geometry.image_side
        self.input_shape = (n, n)
        self.output_shape = geometry.sinogram_shape
        centers = np.arange(n) - (n - 1) / 2.0
        ys, xs = np.meshgrid(centers, centers, indexing="ij")
        angles = np.asarray(geometry.angles)[:, None]
        t = np.cos(angles) * xs.ravel()[None, :] + np.sin(angles) * ys.ravel()[None, :]
        nb = geometry.n_bins
        u = np.clip(t / geometry.detector_spacing + (nb - 1) / 2.0, -1.0, nb)  # int64-safe
        lo = np.floor(u).astype(np.int64)
        frac = u - lo
        self._w_lo = np.where((lo >= 0) & (lo < nb), 1.0 - frac, 0.0)
        self._w_hi = np.where((lo + 1 >= 0) & (lo + 1 < nb), frac, 0.0)
        rows = np.arange(geometry.n_angles)[:, None] * nb
        self._idx_lo = rows + np.clip(lo, 0, nb - 1)
        self._idx_hi = rows + np.clip(lo + 1, 0, nb - 1)
        self._flat_len = geometry.n_angles * nb

    def _apply(self, x):
        vals = x.ravel()[None, :]
        sino = np.bincount(self._idx_lo.ravel(), (vals * self._w_lo).ravel(),
                           minlength=self._flat_len)
        sino += np.bincount(self._idx_hi.ravel(), (vals * self._w_hi).ravel(),
                            minlength=self._flat_len)
        return self.geometry.scale * sino.reshape(self.output_shape)

    def _adjoint(self, s):
        flat = s.ravel()
        contrib = self._w_lo * flat[self._idx_lo] + self._w_hi * flat[self._idx_hi]
        return self.geometry.scale * contrib.sum(axis=0).reshape(self.input_shape)

    def _norm_bound(self):
        """Collatz-Wielandt: A >= 0 entrywise, so |A|^2 <= max_i (A*A x)_i / x_i over x_i > 0,
        for 10 power iterates from ones on the pixels that reach a bin (0 if none does);
        each (A*A x)_i there is positive, so one below the normal range underflowed."""
        reached = ((self._w_lo > 0.0) | (self._w_hi > 0.0)).any(axis=0).reshape(self.input_shape)
        if not reached.any():
            return 0.0
        x = np.ones(self.input_shape)
        best = np.inf
        for _ in range(10):
            y = self.adjoint(self.apply(x))
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
