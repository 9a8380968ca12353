import numpy as np
import pytest

from epirecon.radon import Radon, RadonGeometry
from epirecon.tensor import ShapeMismatchError


def test_zero_image_zero_sinogram():
    geom = RadonGeometry(image_side=16, n_angles=12, n_bins=24)
    assert not np.any(Radon(geom).apply(np.zeros((16, 16))))
    assert not np.any(Radon(geom).adjoint(np.zeros((12, 24))))


def test_centered_pixel_mass_constant_over_angles():
    # odd side puts one pixel exactly at the rotation center; the bilinear
    # splat conserves its unit mass at every angle (times the scale)
    geom = RadonGeometry(image_side=15, n_angles=20, n_bins=31)
    img = np.zeros((15, 15))
    img[7, 7] = 1.0
    sino = Radon(geom).apply(img)
    masses = sino.sum(axis=1)
    assert np.all(np.abs(masses - geom.scale) < 1e-6 * geom.scale)


def test_adjoint_identity(rng):
    geom = RadonGeometry(image_side=16, n_angles=12, n_bins=24)
    op = Radon(geom)
    for _ in range(100):
        x = rng.standard_normal((16, 16))
        s = rng.standard_normal((12, 24))
        lhs = np.vdot(op.apply(x), s)
        rhs = np.vdot(x, op.adjoint(s))
        allowance = 1.0 + np.linalg.norm(x) * np.linalg.norm(s)
        assert abs(lhs - rhs) <= 1e-8 * allowance


def test_default_scale_and_angles():
    geom = RadonGeometry(image_side=32, n_angles=8, n_bins=46)
    assert np.isclose(geom.scale, 1.0 / 32)
    assert len(geom.angles) == 8
    assert geom.angles[0] == 0.0
    assert geom.angles[-1] < np.pi


def test_degenerate_geometry_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        RadonGeometry(image_side=8, n_angles=0, n_bins=8)
    with pytest.raises(ValueError, match="spacing"):
        RadonGeometry(image_side=8, n_angles=4, n_bins=8, detector_spacing=0.0)
    with pytest.raises(ValueError, match="increasing"):
        RadonGeometry(image_side=8, n_angles=2, n_bins=8, angles=(0.5, 0.5))


def test_shape_mismatch():
    geom = RadonGeometry(image_side=8, n_angles=4, n_bins=12)
    op = Radon(geom)
    with pytest.raises(ShapeMismatchError):
        op.apply(np.zeros((9, 9)))
    with pytest.raises(ShapeMismatchError):
        op.adjoint(np.zeros((4, 11)))


def test_linearity(rng):
    geom = RadonGeometry(image_side=12, n_angles=7, n_bins=18)
    op = Radon(geom)
    x = rng.standard_normal((12, 12))
    y = rng.standard_normal((12, 12))
    lhs = op.apply(2.0 * x - 0.5 * y)
    rhs = 2.0 * op.apply(x) - 0.5 * op.apply(y)
    assert np.allclose(lhs, rhs, atol=1e-12)
