import json
import math
import warnings

import numpy as np
import pytest

import epirecon as er
from epirecon.radon import Radon, RadonGeometry
from epirecon.solver import L1Fidelity, L2Fidelity
from epirecon.tasks import write_pgm


def test_checker_alternates():
    img = er.make_phantom("checker", 8)
    assert img.shape == (8, 8)
    assert set(np.unique(img)) == {0.0, 1.0}
    assert img[0, 0] != img[0, 1]
    assert img[0, 0] != img[1, 0]


def test_phantoms_deterministic_and_in_range():
    for kind in ("checker", "smooth_blobs", "shepp_logan_like"):
        a = er.make_phantom(kind, 32, 7)
        b = er.make_phantom(kind, 32, 7)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0
    blobs = er.make_phantom("smooth_blobs", 32, 1)
    assert blobs.min() == 0.0 and blobs.max() == 1.0
    with pytest.raises(ValueError, match="side"):
        er.make_phantom("checker", 4)
    with pytest.raises(ValueError, match="phantom"):
        er.make_phantom("noise", 16)


def test_phantom_reads_its_side_as_a_count_of_at_least_8():
    # 8.5 used to give a 9 x 9 image, and True was compared as 1
    for side in (8.5, True, "16"):
        with pytest.raises(ValueError, match=rf"^image_side: expected an integer, got {side!r}$"):
            er.make_phantom("checker", side)
    with pytest.raises(ValueError, match=r"^image_side: must be at least 8, got 7$"):
        er.make_phantom("smooth_blobs", 7)
    assert er.make_phantom("checker", np.int64(8)).tobytes() == \
        er.make_phantom("checker", 8.0).tobytes() == er.make_phantom("checker", 8).tobytes()


def test_denoise_zero_density_is_identity():
    x = er.make_phantom("smooth_blobs", 16, 0)
    cfg = er.TaskConfig(kind="denoise_salt_pepper", image_side=16, sp_density=0.0, seed=1)
    y, forward = er.corrupt(cfg, x)
    assert forward is None
    assert np.array_equal(y, x)


def test_denoise_density_hits_expected_count():
    x = er.make_phantom("smooth_blobs", 16, 0)
    cfg = er.TaskConfig(kind="denoise_salt_pepper", image_side=16, sp_density=0.25, seed=3)
    y, _ = er.corrupt(cfg, x)
    changed = np.flatnonzero(y != x)
    assert len(changed) <= round(0.25 * x.size)
    assert np.all(np.isin(y.ravel()[changed], (0.0, 1.0)))
    # same seed reproduces the corruption bitwise
    y2, _ = er.corrupt(cfg, x)
    assert np.array_equal(y, y2)


def test_seed_changes_data_not_structure():
    x = er.make_phantom("smooth_blobs", 16, 0)
    for kind, kwargs in [("denoise_salt_pepper", {"sp_density": 0.2}),
                         ("inpaint", {"mask_fraction": 0.3, "gaussian_sigma": 0.03}),
                         ("ct", {"poisson_scale": 1e3, "background": 50.0})]:
        a, fa = er.corrupt(er.TaskConfig(kind=kind, image_side=16, seed=1, **kwargs), x)
        b, fb = er.corrupt(er.TaskConfig(kind=kind, image_side=16, seed=2, **kwargs), x)
        assert a.shape == b.shape
        assert not np.array_equal(a, b)
        if fa is not None:
            assert fa.output_shape == fb.output_shape


def test_inpaint_full_mask_kills_everything():
    x = er.make_phantom("smooth_blobs", 16, 0)
    cfg = er.TaskConfig(kind="inpaint", image_side=16, mask_fraction=1.0,
                        gaussian_sigma=0.0, seed=2)
    y, forward = er.corrupt(cfg, x)
    assert not np.any(y)
    assert not np.any(forward.mask)


def test_inpaint_mask_is_orthogonal_projection(rng):
    x = er.make_phantom("smooth_blobs", 16, 5)
    cfg = er.TaskConfig(kind="inpaint", image_side=16, mask_fraction=0.3,
                        gaussian_sigma=0.03, seed=9)
    _, forward = er.corrupt(cfg, x)
    kept = forward.mask.sum()
    assert kept == x.size - round(0.3 * x.size)
    v = rng.standard_normal(x.shape)
    # A = A* = A^2 up to 1e-12
    assert np.max(np.abs(forward.apply(v) - forward.adjoint(v))) <= 1e-12
    assert np.max(np.abs(forward.apply(forward.apply(v)) - forward.apply(v))) <= 1e-12


def test_psnr_formulas():
    x = er.make_phantom("smooth_blobs", 16, 0)
    assert er.psnr(x, x) == float("inf")
    offset = er.psnr(x + 0.1, x)
    assert abs(offset - 20.0) < 1e-12  # mse = 0.01 on a peak-1 scale
    # raising only the peak shifts by 20 log10(peak)
    assert abs(er.psnr(x + 0.1, x, peak=255.0)
               - (offset + 20.0 * math.log10(255.0))) < 1e-9
    # scaling data and peak together shifts nothing
    assert abs(er.psnr((x + 0.1) * 255.0, x * 255.0, peak=255.0) - offset) < 1e-9
    with pytest.raises(Exception):
        er.psnr(x, x[:8])


def test_psnr_is_minus_inf_past_the_float_range():
    zero = np.zeros(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        assert er.psnr(np.full(4, 1e200), zero) == -float("inf")  # the MSE overflows
        assert er.psnr(np.full(4, 1e-3), zero, peak=1e-200) == -float("inf")  # peak^2 is 0
        # the same formula just inside the range
        assert er.psnr(np.full(4, 1e150), zero) == 10.0 * math.log10(1.0 / 1e300)
        assert er.psnr(np.full(4, 1e-3), zero, peak=1e-160) == \
            10.0 * math.log10(1e-160 * 1e-160 / 1e-6)


def test_ct_counts_nonnegative_and_deterministic():
    x = er.make_phantom("shepp_logan_like", 16)
    cfg = er.TaskConfig(kind="ct", image_side=16, poisson_scale=1e3,
                        background=50.0, seed=11)
    y, forward = er.corrupt(cfg, x)
    assert np.all(y >= 0.0)
    assert y.shape == forward.output_shape
    y2, _ = er.corrupt(cfg, x)
    assert np.array_equal(y, y2)
    # forward carries the count scaling: peak of Ax is poisson_scale
    assert np.isclose(forward.apply(x).max(), 1e3)


def test_ct_high_count_limit_matches_mean():
    # with ~1e6 expected counts the relative deviation on bright bins
    # stays below 1% (law of large numbers), across 20 seeds
    x = er.make_phantom("shepp_logan_like", 16)
    for seed in range(20):
        cfg = er.TaskConfig(kind="ct", image_side=16, poisson_scale=1e6,
                            background=50.0, seed=seed)
        y, forward = er.corrupt(cfg, x)
        mean = forward.apply(x) + 50.0
        bright = mean > 0.5 * mean.max()
        rel = np.abs(y[bright] - mean[bright]) / mean[bright]
        assert rel.max() < 0.01


def test_fbp_zero_and_linearity(rng):
    geom = RadonGeometry(image_side=16, n_angles=12, n_bins=24)
    assert not np.any(er.fbp(geom, np.zeros((12, 24))))
    s = np.abs(rng.standard_normal((12, 24)))
    a = er.fbp(geom, 3.0 * s)
    b = 3.0 * er.fbp(geom, s)
    assert np.allclose(a, b, atol=1e-12)  # nonneg clamp commutes with a positive scale


def test_fbp_beats_plain_adjoint():
    side = 64
    phantom = er.make_phantom("smooth_blobs", side, 4)
    geom = RadonGeometry(image_side=side, n_angles=60,
                         n_bins=int(np.ceil(side * np.sqrt(2))) + 1)
    sino = Radon(geom).apply(phantom)
    recon = er.fbp(geom, sino)
    backproj = Radon(geom).adjoint(sino)
    assert er.psnr(recon, phantom) > er.psnr(backproj, phantom)
    assert er.psnr(recon, phantom) > 15.0


def test_write_pgm_and_sidecar(tmp_path):
    img = er.make_phantom("smooth_blobs", 16, 3) * 0.5 + 0.25
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n16 16\n255\n")
    assert len(raw) == len(b"P5\n16 16\n255\n") + 256
    sidecar = json.loads((tmp_path / "img.pgm.json").read_text())
    assert np.isclose(sidecar["min"], img.min())
    assert np.isclose(sidecar["max"], img.max())
    with pytest.raises(ValueError, match=r"^pgm wants a 2-d image, got shape \(16,\)$"):
        write_pgm(tmp_path / "row.pgm", img[0])


def test_task_config_validation():
    with pytest.raises(ValueError, match="unknown task"):
        er.TaskConfig(kind="deblur", image_side=16)
    with pytest.raises(ValueError, match="sp_density"):
        er.TaskConfig(kind="denoise_salt_pepper", image_side=16, sp_density=1.5)
    cfg = er.TaskConfig(kind="ct", image_side=16)
    assert cfg.geometry is not None
    assert cfg.geometry.n_bins >= 16


def test_task_config_refuses_a_geometry_it_would_ignore_or_cannot_use():
    geometry = er.RadonGeometry(image_side=16, n_angles=4, n_bins=24)
    for kind in ("denoise_salt_pepper", "inpaint"):
        with pytest.raises(ValueError, match=f"^geometry: .* for {kind}$"):
            er.TaskConfig(kind=kind, image_side=16, geometry=geometry)
    with pytest.raises(ValueError, match="^geometry: .* image_side 12; got image_side 16 for ct$"):
        er.TaskConfig(kind="ct", image_side=12, geometry=geometry)
    assert er.TaskConfig(kind="ct", image_side=16, geometry=geometry).geometry is geometry
    assert er.TaskConfig(kind="inpaint", image_side=16).geometry is None


@pytest.mark.parametrize("field, bad", [
    ("poisson_scale", np.nan), ("poisson_scale", np.inf), ("poisson_scale", 0.0),
    ("background", np.nan), ("background", np.inf), ("background", -5.0),
    ("gaussian_sigma", np.nan), ("gaussian_sigma", np.inf), ("gaussian_sigma", -0.1)])
def test_task_config_scalars_refused_when_built(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        er.TaskConfig(kind="ct", image_side=16, **{field: bad})


def test_build_problem_matches_hand_normalized_ct():
    # the normalization written out from corrupt's count-scaled Radon
    spec = er.random_admissible(3, er.ConvPoolDenseTemplate(
        side=16, filters=2, kernel=3, pool=4, hidden=4))
    truth = er.make_phantom("smooth_blobs", 16, 2)
    geom = RadonGeometry(image_side=16, n_angles=10, n_bins=24)
    cfg = er.TaskConfig(kind="ct", image_side=16, poisson_scale=1e5,
                        background=20.0, geometry=geom, seed=9)
    y, scaled = er.corrupt(cfg, truth)
    count_scale = scaled.geometry.scale / geom.scale
    counts = y / count_scale
    problem, init_x = er.build_problem(cfg, truth, spec, 4.0)
    assert problem.forward.geometry == geom
    assert problem.measurement.tobytes() == counts.tobytes()
    assert problem.fidelity.background.tobytes() == \
        np.full(y.shape, 20.0 / count_scale).tobytes()
    assert init_x.tobytes() == np.clip(er.fbp(geom, counts), 0.0, None).tobytes()
    assert problem.nonneg and problem.fidelity.dualize and problem.reg_weight == 4.0
    assert er.build_problem(cfg, truth, spec, 4.0, nonneg=True)[0].nonneg
    with pytest.raises(ValueError, match="nonneg: ct keeps its image nonnegative, got False"):
        er.build_problem(cfg, truth, spec, 4.0, nonneg=False)  # it was set True silently


def test_build_problem_data_term_per_kind():
    spec = er.random_admissible(3, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    truth = er.make_phantom("smooth_blobs", 8, 2)
    cfg = er.TaskConfig(kind="denoise_salt_pepper", image_side=8, seed=1)
    problem, init_x = er.build_problem(cfg, truth, spec, 1.0, lam=0.5, nonneg=True)
    assert isinstance(problem.fidelity, L1Fidelity)
    assert problem.fidelity.weight == 0.5 and problem.forward is None
    assert problem.nonneg and init_x is None
    with pytest.raises(ValueError, match="lam"):
        er.build_problem(cfg, truth, spec, 1.0)
    cfg = er.TaskConfig(kind="inpaint", image_side=8, seed=1)
    problem, init_x = er.build_problem(cfg, truth, spec, 1.0)
    assert isinstance(problem.fidelity, L2Fidelity)
    assert isinstance(problem.forward, er.DiagonalMask)
    assert not problem.nonneg and init_x is None
