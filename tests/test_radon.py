import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import epirecon as er
from epirecon import radon
from epirecon.linops import LinOp, pad_bound
from epirecon.radon import Radon, RadonGeometry
from epirecon.tensor import ShapeMismatchError


def work_arrays(op):
    """Every array of op's geometry cache entry: each block's tables and the work buffers."""
    return [table for block in op._blocks for table in block[1:]] + [op._lo, op._hi]


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


def test_geometries_that_differ_only_in_scale_share_their_tables():
    geom = RadonGeometry(image_side=9, n_angles=5, n_bins=14)
    first, second = Radon(geom), Radon(replace(geom, scale=0.3))
    assert all(a is b for a, b in zip(work_arrays(first), work_arrays(second), strict=True))


@pytest.mark.parametrize("change", [
    {"angles": (0.0, 0.5, 1.0, 1.5, 2.5)}, {"n_bins": 15}, {"detector_spacing": 0.9},
    {"image_side": 10}])
def test_geometries_that_differ_beyond_scale_have_their_own_tables(change):
    geom = RadonGeometry(image_side=9, n_angles=5, n_bins=14)
    first, second = Radon(geom), Radon(replace(geom, **change))
    assert not any(a is b for a in work_arrays(first) for b in work_arrays(second))


def test_a_64px_geometry_work_buffers_take_one_block_whatever_its_angle_count():
    few, many = (Radon(RadonGeometry(image_side=64, n_angles=n, n_bins=92)) for n in (40, 400))
    assert few._lo.nbytes + few._hi.nbytes == many._lo.nbytes + many._hi.nbytes
    assert few._hi.nbytes <= radon.BLOCK_BYTES


def test_results_are_not_views_of_the_shared_work_buffers():
    geom = RadonGeometry(image_side=9, n_angles=5, n_bins=14)
    first, second = Radon(geom), Radon(replace(geom, scale=2.0))
    rng = np.random.default_rng(0)
    x, s = rng.standard_normal((9, 9)), rng.standard_normal((5, 14))
    sino, back = first.apply(x), first.adjoint(s)
    kept = sino.copy(), back.copy()
    second.apply(rng.standard_normal((9, 9)))
    second.adjoint(rng.standard_normal((5, 14)))
    assert sino.tobytes() == kept[0].tobytes() and back.tobytes() == kept[1].tobytes()
    sino += 1.0
    back += 1.0
    assert first.apply(x).tobytes() == kept[0].tobytes()
    assert first.adjoint(s).tobytes() == kept[1].tobytes()


def collatz_wielandt(op):
    """The bound's rule run afresh on op's own apply and adjoint."""
    x, best = np.ones(op.input_shape), np.inf
    reached = op.adjoint(op.apply(x)) > 0.0
    for _ in range(10):
        y = op.adjoint(op.apply(x))
        best = min(best, float(np.max(y[reached] / x[reached])))
        x = y / y.max()
    return pad_bound(np.sqrt(best))


def test_a_geometry_bound_is_computed_once_on_the_scaled_operator():
    geom = RadonGeometry(image_side=7, n_angles=3, n_bins=11, scale=0.3)
    misses = radon._cw_bound.cache_info().misses
    bound = Radon(geom).norm_bound
    assert bound == collatz_wielandt(Radon(geom))  # the scaled operator's own bits
    assert Radon(geom).norm_bound == bound
    assert radon._cw_bound.cache_info().misses == misses + 1
    # an underflowing iterate fails closed on every instance, not only the first
    tiny = replace(geom, scale=1e-300)
    assert Radon(tiny).norm_bound is None and Radon(tiny).norm_bound is None


def test_build_problem_builds_a_new_ct_geometry_tables_once():
    spec = er.random_admissible(3, er.ConvPoolDenseTemplate(
        side=10, filters=2, kernel=3, pool=5, hidden=4))
    geom = RadonGeometry(image_side=10, n_angles=7, n_bins=17)
    cfg = er.TaskConfig(kind="ct", image_side=10, poisson_scale=1e4, geometry=geom, seed=4)
    truth = er.make_phantom("smooth_blobs", 10, 2)
    misses = radon._radon_work.cache_info().misses
    er.build_problem(cfg, truth, spec, 4.0)
    assert radon._radon_work.cache_info().misses == misses + 1
    er.build_problem(replace(cfg, seed=5), truth, spec, 4.0)
    assert radon._radon_work.cache_info().misses == misses + 1


@pytest.mark.parametrize("call", ["apply", "adjoint"])
def test_a_64px_projection_allocates_under_a_quarter_of_a_table(call):
    # the products go to the geometry's work buffers; made per call, each was
    # a table-sized temporary that malloc could unmap and fault in again
    op = Radon(RadonGeometry(image_side=64, n_angles=40, n_bins=92))
    arg = np.ones(op.input_shape if call == "apply" else op.output_shape)
    getattr(op, call)(arg)
    tracemalloc.start()
    try:
        getattr(op, call)(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(block[1].nbytes for block in op._blocks) / 4  # the w_lo table


class Unblocked(LinOp):
    """The projector with all angles in one table: one multiply over all of them, two
    bincounts, and the back-splat summed over the angles by sum(axis=0)."""

    kind = "unblocked_radon"

    def __init__(self, geom):
        self.input_shape, self.output_shape = (geom.image_side,) * 2, geom.sinogram_shape
        self.scale, nb = geom.scale, geom.n_bins
        centers = np.arange(geom.image_side) - (geom.image_side - 1) / 2.0
        ys, xs = np.meshgrid(centers, centers, indexing="ij")
        angles = np.asarray(geom.angles)[:, None]
        t = np.cos(angles) * xs.ravel()[None, :] + np.sin(angles) * ys.ravel()[None, :]
        u = np.clip(t / geom.detector_spacing + (nb - 1) / 2.0, -1.0, nb)
        lo = np.floor(u).astype(np.int64)
        frac, rows = u - lo, np.arange(geom.n_angles)[:, None] * nb
        self.w_lo = np.where((lo >= 0) & (lo < nb), 1.0 - frac, 0.0)
        self.w_hi = np.where((lo + 1 >= 0) & (lo + 1 < nb), frac, 0.0)
        self.idx_lo = rows + np.clip(lo, 0, nb - 1)
        self.idx_hi = rows + np.clip(lo + 1, 0, nb - 1)

    def _apply(self, x):
        n = int(np.prod(self.output_shape))
        sino = np.bincount(self.idx_lo.ravel(), (x.ravel() * self.w_lo).ravel(), minlength=n)
        sino += np.bincount(self.idx_hi.ravel(), (x.ravel() * self.w_hi).ravel(), minlength=n)
        return self.scale * sino.reshape(self.output_shape)

    def _adjoint(self, s):
        back = self.w_lo * s.ravel()[self.idx_lo] + self.w_hi * s.ravel()[self.idx_hi]
        return self.scale * back.sum(axis=0).reshape(self.input_shape)


def assert_bitwise_unblocked(geom):
    op, ref = Radon(geom), Unblocked(geom)
    rng = np.random.default_rng(geom.n_angles)
    x, s = rng.standard_normal(op.input_shape), rng.standard_normal(op.output_shape)
    signed_zeros = np.where(rng.random(op.output_shape) < 0.5, -0.0, s)
    for arg in (x, np.abs(x), -np.zeros(op.input_shape)):
        assert op.apply(arg).tobytes() == ref.apply(arg).tobytes()
    for arg in (s, signed_zeros, -np.zeros(op.output_shape)):
        assert op.adjoint(arg).tobytes() == ref.adjoint(arg).tobytes()
    assert Radon(geom).norm_bound == collatz_wielandt(ref)


@pytest.mark.parametrize("geom, blocks", [
    (RadonGeometry(image_side=16, n_angles=12, n_bins=24), (12,)),
    (RadonGeometry(image_side=64, n_angles=40, n_bins=92), (8,) * 5),
    (RadonGeometry(image_side=64, n_angles=42, n_bins=92, detector_spacing=1.3), (8,) * 5 + (2,)),
    (RadonGeometry(image_side=33, n_angles=45, n_bins=48, scale=0.2), (30, 15)),
    # a detector 64.4 pixels wide: the corners, 5% of the pixel-angle pairs, project off it
    (RadonGeometry(image_side=64, n_angles=17, n_bins=92, detector_spacing=0.7), (8, 8, 1))],
    ids=["one_block", "full_blocks", "partial_last_block", "33px", "clipped_detector"])
def test_blocked_projector_is_bitwise_the_unblocked_one(geom, blocks):
    assert tuple(len(block[1]) for block in Radon(geom)._blocks) == blocks
    assert_bitwise_unblocked(geom)


def test_small_blocks_on_a_small_geometry_are_bitwise_the_unblocked_projector(monkeypatch):
    # on this narrow detector the first block reaches 86 of the 144 pixels, and the
    # bound's last bit depends on the pixels only later blocks reach
    geom = RadonGeometry(image_side=12, n_angles=10, n_bins=5, detector_spacing=0.8)
    monkeypatch.setattr(radon, "BLOCK_BYTES", 3 * 8 * 12**2)
    radon._radon_work.cache_clear()
    radon._cw_bound.cache_clear()
    try:
        op = Radon(geom)
        blocks = [(block[0], len(block[1])) for block in op._blocks]
        assert blocks == [(0, 3), (3, 3), (6, 3), (9, 1)]
        assert op._lo.shape == (4, 144) and op._hi.shape == (3, 144)
        assert_bitwise_unblocked(geom)
    finally:
        radon._radon_work.cache_clear()
        radon._cw_bound.cache_clear()
