"""Synthetic experiment builders: phantoms, measurement models, PSNR, FBP.

Three task families at configurable scale: salt-and-pepper denoising with
an identity forward, masked inpainting with additive Gaussian noise, and
parallel-beam CT with Poisson counts over a constant background. All
corruption is deterministic under the configured seed.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .linops import DiagonalMask
from .radon import Radon, RadonGeometry, ramp_filter
from .tensor import as_tensor, check_shape


@dataclass(frozen=True)
class TaskConfig:
    """One measurement setup. Fractions live in [0, 1]; images in [0, 1].

    poisson_scale is the expected count at the brightest sinogram bin;
    background is the constant Poisson background added to every bin.
    """

    kind: str  # "denoise_salt_pepper" | "inpaint" | "ct"
    image_side: int
    sp_density: float = 0.1
    mask_fraction: float = 0.3
    gaussian_sigma: float = 0.03
    poisson_scale: float = 1e4
    background: float = 50.0
    geometry: RadonGeometry = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("denoise_salt_pepper", "inpaint", "ct"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        for name in ("sp_density", "mask_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.kind == "ct" and self.geometry is None:
            side = self.image_side
            object.__setattr__(self, "geometry", RadonGeometry(
                image_side=side,
                n_angles=max(2, side),
                n_bins=int(math.ceil(side * math.sqrt(2.0))) + 1))


def make_phantom(kind: str, side: int, seed: int = 0) -> np.ndarray:
    """Deterministic test image in [0, 1]."""
    if side < 8:
        raise ValueError(f"side must be >= 8, got {side}")
    if kind == "checker":
        block = max(1, side // 8)
        idx = np.arange(side) // block
        return ((idx[:, None] + idx[None, :]) % 2).astype(np.float64)
    if kind == "smooth_blobs":
        rng = np.random.default_rng(seed)
        coords = (np.arange(side) - (side - 1) / 2.0) / side
        yy, xx = np.meshgrid(coords, coords, indexing="ij")
        img = np.zeros((side, side))
        for _ in range(6):
            cx, cy = rng.uniform(-0.35, 0.35, 2)
            width = rng.uniform(0.08, 0.25)
            amp = rng.uniform(0.3, 1.0)
            img += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width ** 2))
        lo, hi = img.min(), img.max()
        return (img - lo) / (hi - lo) if hi > lo else np.zeros_like(img)
    if kind == "shepp_logan_like":
        return _ellipse_phantom(side)
    raise ValueError(f"unknown phantom kind {kind!r}")


# (intensity, half-axis a, half-axis b, center x, center y, rotation degrees)
_ELLIPSES = (
    (1.00, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.80, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.20, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.20, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.10, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.10, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.10, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.10, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.10, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.10, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def _ellipse_phantom(side: int) -> np.ndarray:
    coords = (np.arange(side) - (side - 1) / 2.0) / (side / 2.0)
    yy, xx = np.meshgrid(-coords, coords, indexing="ij")
    img = np.zeros((side, side))
    for value, a, b, cx, cy, deg in _ELLIPSES:
        phi = math.radians(deg)
        xr = (xx - cx) * math.cos(phi) + (yy - cy) * math.sin(phi)
        yr = -(xx - cx) * math.sin(phi) + (yy - cy) * math.cos(phi)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
    return np.clip(img, 0.0, 1.0)


def corrupt(config: TaskConfig, x: np.ndarray):
    """Simulate the measurement; returns (y, forward operator or None).

    denoise: sp_density of the pixels flip to 0 or 1, identity forward.
    inpaint: mask_fraction of the pixels drop; Gaussian noise on the rest.
    ct: Poisson counts of scaled line integrals plus constant background;
        the returned Radon operator carries the count scaling.
    """
    x = as_tensor(x)
    check_shape(x, (config.image_side, config.image_side), "corrupt input")
    rng = np.random.default_rng(config.seed)
    n_pix = x.size
    if config.kind == "denoise_salt_pepper":
        y = x.copy().ravel()
        n_hit = round(config.sp_density * n_pix)
        hit = rng.permutation(n_pix)[:n_hit]
        y[hit] = rng.integers(0, 2, size=n_hit).astype(np.float64)
        return y.reshape(x.shape), None
    if config.kind == "inpaint":
        n_drop = round(config.mask_fraction * n_pix)
        dropped = rng.permutation(n_pix)[:n_drop]
        mask = np.ones(n_pix)
        mask[dropped] = 0.0
        mask = mask.reshape(x.shape)
        noise = config.gaussian_sigma * rng.standard_normal(x.shape)
        return mask * (x + noise), DiagonalMask(mask)
    sino = Radon(config.geometry).apply(x)
    peak = float(sino.max())
    count_scale = config.poisson_scale / peak if peak > 0.0 else 1.0
    mean = count_scale * sino + config.background
    y = rng.poisson(np.maximum(mean, 0.0)).astype(np.float64)
    geom = config.geometry
    scaled = RadonGeometry(image_side=geom.image_side, n_angles=geom.n_angles,
                           n_bins=geom.n_bins, detector_spacing=geom.detector_spacing,
                           scale=geom.scale * count_scale, angles=geom.angles)
    return y, Radon(scaled)


def psnr(x: np.ndarray, reference: np.ndarray, peak: float = 1.0) -> float:
    """10 log10(peak^2 / MSE); +inf sentinel for an exact match."""
    x = np.asarray(x, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    check_shape(x, reference.shape, "psnr")
    if peak <= 0.0:
        raise ValueError(f"peak must be positive, got {peak}")
    mse = float(np.mean((x - reference) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * math.log10(peak * peak / mse)


def fbp(geometry: RadonGeometry, sinogram: np.ndarray) -> np.ndarray:
    """Ram-Lak filtered backprojection, clamped to nonnegative values.

    Normalization removes both the geometry scale (applied once by the
    forward model inside the sinogram and once by the adjoint) and the
    angular Riemann-sum weight pi / n_angles.
    """
    sinogram = as_tensor(sinogram)
    check_shape(sinogram, geometry.sinogram_shape, "fbp sinogram")
    filtered = ramp_filter(geometry, sinogram)
    back = Radon(geometry).adjoint(filtered)
    img = back * math.pi / (geometry.n_angles * geometry.scale ** 2)
    return np.maximum(img, 0.0)


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM plus a JSON sidecar recording the linear rescale."""
    image = as_tensor(image)
    if image.ndim != 2:
        raise ValueError(f"pgm wants a 2-d image, got shape {image.shape}")
    lo, hi = float(image.min()), float(image.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    data = np.round((image - lo) * scale).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
        fh.write(data.tobytes(order="C"))
    with open(str(path) + ".json", "w") as fh:
        json.dump({"min": lo, "max": hi, "levels": 255}, fh, sort_keys=True)
