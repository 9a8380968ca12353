"""Synthetic experiment builders: phantoms, measurements, problems, PSNR, FBP.

Three task families at configurable scale: salt-and-pepper denoising with
an identity forward, masked inpainting with additive Gaussian noise, and
parallel-beam CT with Poisson counts over a constant background. All
corruption is deterministic under the configured seed.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .linops import DiagonalMask
from .radon import Radon, RadonGeometry, ramp_filter
from .solver import ProblemSpec, kl_fidelity, l1_fidelity, l2_fidelity
from .tensor import as_array, as_count, as_real, as_tensor, check_shape


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
        object.__setattr__(self, "image_side", as_count(self.image_side, 1, "image_side"))
        for name, domain in (("sp_density", "within [0, 1]"), ("mask_fraction", "within [0, 1]"),
                             ("gaussian_sigma", "nonnegative"), ("background", "nonnegative"),
                             ("poisson_scale", "positive")):
            object.__setattr__(self, name, as_real(getattr(self, name), name, domain))
        if self.kind == "ct" and self.geometry is None:
            object.__setattr__(self, "geometry", ct_geometry(self.image_side))
        side = None if self.geometry is None else self.geometry.image_side
        if side is not None and (self.kind, side) != ("ct", self.image_side):
            raise ValueError(f"geometry: only a ct task takes one, of its image_side "
                             f"{self.image_side}; got image_side {side} for {self.kind}")


def ct_geometry(side: int, n_angles: int = None, n_bins: int = None) -> RadonGeometry:
    """CT geometry; by default max(2, side) angles and enough bins for the diagonal."""
    return RadonGeometry(
        image_side=side,
        n_angles=max(2, side) if n_angles is None else n_angles,
        n_bins=int(math.ceil(side * math.sqrt(2.0))) + 1 if n_bins is None else n_bins)


def make_phantom(kind: str, side: int, seed: int = 0) -> np.ndarray:
    """Deterministic test image in [0, 1]."""
    side = as_count(side, 8, "image_side")
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
    return y, Radon(replace(config.geometry, scale=config.geometry.scale * count_scale))


def build_problem(task: TaskConfig, truth, regularizer, reg_weight, lam=None,
                  nonneg=None):
    """Corrupt the truth and pose its reconstruction: (ProblemSpec, init_x).

    Each kind's data term is chosen here: lam * L1 with the identity forward
    (denoise), L2 on the mask (inpaint), Poisson KL through the unscaled Radon
    transform (ct). CT divides counts and background by the count scale, and
    with them the KL term, so the problem is O(1) and reg_weight weighs the
    regularizer against the normalized term; its image stays nonnegative (it
    refuses nonneg=False) and starts at the clipped FBP. init_x is None
    otherwise, and nonneg off unless set.
    """
    if task.kind == "ct" and nonneg not in (None, True):
        raise ValueError(f"nonneg: ct keeps its image nonnegative, got {nonneg!r}")
    nonneg = bool(nonneg)
    y, forward = corrupt(task, truth)
    if task.kind == "denoise_salt_pepper":
        if lam is None:
            raise ValueError("denoise_salt_pepper needs the l1 weight lam")
        return ProblemSpec(l1_fidelity(lam), None, y, reg_weight, regularizer, nonneg), None
    if task.kind == "inpaint":
        return ProblemSpec(l2_fidelity(), forward, y, reg_weight, regularizer, nonneg), None
    geom = task.geometry
    count_scale = forward.geometry.scale / geom.scale
    problem = ProblemSpec(kl_fidelity(task.background / count_scale), Radon(geom),
                          y / count_scale, reg_weight, regularizer, nonneg=True)
    return problem, np.clip(fbp(geom, y / count_scale), 0.0, None)


def psnr(x: np.ndarray, reference: np.ndarray, peak: float = 1.0) -> float:
    """10 log10(peak^2 / MSE); +inf for an exact match, -inf past the float range."""
    x = np.asarray(x, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    check_shape(x, reference.shape, "psnr")
    peak = as_real(peak, "peak", "positive")
    with np.errstate(over="ignore"):
        mse = float(np.mean((x - reference) ** 2))
    if mse == 0.0:
        return float("inf")
    ratio = peak * peak / mse  # 0 when the MSE overflowed or dwarfs peak^2
    return 10.0 * math.log10(ratio) if ratio != 0.0 else -float("inf")


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
    image = as_array(image, "pgm image")
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
