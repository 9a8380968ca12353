import re
import struct

import numpy as np
import pytest

import epirecon as er
from epirecon.blocks import assemble_blocks
from epirecon.tensor import (BlobFormatError, NonFiniteError, as_real, as_tensor,
                             ensure_finite, read_tensor, write_tensor)
from conftest import make_relu_1d


def test_blob_round_trip_bitwise(tmp_path, rng):
    for shape in [(), (4,), (3, 5), (2, 3, 4)]:
        arr = rng.standard_normal(shape)
        path = tmp_path / "t.tnsb"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert back.tobytes() == np.asarray(arr, dtype=np.float64).tobytes()


def test_blob_header_layout(tmp_path):
    # magic, u16 version=1, u16 rank, u64 dims, f64 payload, little-endian
    arr = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "t.tnsb"
    write_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"TNSB"
    assert struct.unpack_from("<HH", raw, 4) == (1, 2)
    assert struct.unpack_from("<QQ", raw, 8) == (2, 3)
    assert struct.unpack_from("<6d", raw, 24) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert len(raw) == 24 + 48


def test_blob_errors(tmp_path):
    good = tmp_path / "good.tnsb"
    write_tensor(good, np.arange(6.0).reshape(2, 3))
    raw = bytearray(good.read_bytes())

    bad_magic = tmp_path / "magic.tnsb"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(BlobFormatError, match="magic"):
        read_tensor(bad_magic)

    bad_version = tmp_path / "version.tnsb"
    bad_version.write_bytes(raw[:4] + struct.pack("<HH", 9, 2) + bytes(raw[8:]))
    with pytest.raises(BlobFormatError, match="version"):
        read_tensor(bad_version)

    truncated = tmp_path / "short.tnsb"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(BlobFormatError, match="payload"):
        read_tensor(truncated)


def test_ensure_finite_reports_position():
    arr = np.array([1.0, np.nan, 2.0])
    with pytest.raises(NonFiniteError, match="index 1"):
        ensure_finite(arr, "probe")
    ensure_finite(np.zeros(3))


def test_as_tensor_contiguous_float64():
    arr = as_tensor([[1, 2], [3, 4]])
    assert arr.dtype == np.float64
    assert arr.flags.c_contiguous


def refusal(name, domain, value):
    return f"^{re.escape(f'{name} must be finite and {domain}, got {value!r}')}$"


@pytest.mark.parametrize("domain, inside, outside", [
    ("positive", (1e-30, 2.5), (0.0, -1.0)),
    ("nonnegative", (0.0, 2.5), (-1e-30,)),
    ("within [0, 1]", (0.0, 0.5, 1.0), (-0.5, 1.5))])
def test_as_real_reads_a_named_domain(domain, inside, outside):
    for value in inside:
        for read in (as_real(value, "x", domain), as_real(np.float32(value), "x", domain)):
            assert type(read) is float and read == np.float32(value)
    for value in outside + (True, "0.5", None, np.nan, np.inf, -np.inf, 10 ** 400, -10 ** 400):
        with pytest.raises(ValueError, match=refusal("x", domain, value)):
            as_real(value, "x", domain)


X, REFERENCE = np.full(3, 0.1), np.zeros(3)
# every scalar setting a builder reads through as_real: (name, domain, the
# value as the builder stores it, or psnr's result for its peak)
SETTINGS = {
    "geometry detector_spacing": ("detector_spacing", "positive", lambda v: er.RadonGeometry(
        image_side=8, n_angles=4, n_bins=12, detector_spacing=v).detector_spacing),
    "geometry scale": ("scale", "positive", lambda v: er.RadonGeometry(
        image_side=8, n_angles=4, n_bins=12, scale=v).scale),
    "l1_fidelity": ("fidelity weight", "positive", lambda v: er.l1_fidelity(v).weight),
    "l2_fidelity": ("fidelity weight", "positive", lambda v: er.l2_fidelity(v).weight),
    "reg_weight": ("reg_weight", "nonnegative", lambda v: er.ProblemSpec(
        er.l2_fidelity(), None, np.array([1.0]), v, make_relu_1d()).reg_weight),
    "dual scales": ("dual scales", "positive", lambda v: er.compute_step_sizes(
        assemble_blocks(make_relu_1d()), scales=(v,)).scales[0]),
    "ConstantStep": ("step", "positive", lambda v: er.ConstantStep(v).step),
    "DiminishingStep": ("initial step", "positive", lambda v: er.DiminishingStep(v).initial),
    **{f"task {name}": (name, domain, lambda v, name=name: getattr(er.TaskConfig(
        kind="denoise_salt_pepper", image_side=16, **{name: v}), name))
       for name, domain in (("sp_density", "within [0, 1]"), ("mask_fraction", "within [0, 1]"),
                            ("gaussian_sigma", "nonnegative"), ("background", "nonnegative"),
                            ("poisson_scale", "positive"))},
    "psnr peak": ("peak", "positive", lambda v: er.psnr(X, REFERENCE, peak=v)),
}


@pytest.mark.parametrize("site", SETTINGS)
def test_scalar_setting_is_read_as_a_float_or_refused_naming_it(site):
    name, domain, build = SETTINGS[site]
    stored = build(np.float32(0.375))
    assert type(stored) is float and stored == build(0.375)
    below = -0.5 if domain == "positive" else -1e-300
    for value in (True, "0.5", np.nan, np.inf, -np.inf, 10 ** 400, below) + (
            (1.5,) if domain == "within [0, 1]" else ()):
        with pytest.raises(ValueError, match=refusal(name, domain, value)):
            build(value)


def test_an_int_beyond_the_float_range_is_refused_as_a_value():
    # math.isfinite converts an int to float first, which overflowed; with a
    # domain the two tests above refuse it
    assert as_real(2 ** 1023) == 2.0 ** 1023
    for value in (10 ** 400, -10 ** 400):
        with pytest.raises(ValueError, match=f"^x: expected a finite number, got {value}$"):
            as_real(value, "x")
