import numpy as np
import pytest

import epirecon as er
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


@pytest.mark.parametrize("field", ["scale", "detector_spacing"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_geometry_scalars_refused_when_built(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        RadonGeometry(image_side=8, n_angles=4, n_bins=12, **{field: bad})


def test_network_on_a_numpy_scale_saves_and_loads(tmp_path):
    # the geometry stores the float it read, so the manifest can hold it
    geom = RadonGeometry(image_side=8, n_angles=2, n_bins=12, scale=np.float32(0.125))
    assert type(geom.scale) is float
    layer = er.IcnnLayer(Radon(geom), None, np.zeros((2, 12)), er.Activation("relu"))
    er.save_weights(er.IcnnSpec((8, 8), (layer,), head=np.ones((2, 12))), tmp_path / "w")
    assert er.load_weights(tmp_path / "w").layers[0].skip.geometry == geom


def test_shape_mismatch():
    geom = RadonGeometry(image_side=8, n_angles=4, n_bins=12)
    op = Radon(geom)
    with pytest.raises(ShapeMismatchError):
        op.apply(np.zeros((9, 9)))
    with pytest.raises(ShapeMismatchError):
        op.adjoint(np.zeros((4, 11)))
