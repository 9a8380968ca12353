import re
import struct

import numpy as np
import pytest

import epirecon as er
from epirecon.blocks import assemble_blocks
from epirecon.tensor import (BlobFormatError, NonFiniteError, as_array, as_real, as_tensor,
                             ensure_finite, read_tensor, write_tensor)
from epirecon.verify import moreau_conjugate_prox
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

    # cut inside the version and rank, then inside the second of the two dims
    for cut, problem in ((6, "truncated header"), (20, "truncated dims")):
        truncated.write_bytes(bytes(raw[:cut]))
        with pytest.raises(BlobFormatError, match=f"short.tnsb: {problem}$"):
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
    text = (f"{name}: expected a finite number, got {value!r}" if domain is None
            else f"{name} must be finite and {domain}, got {value!r}")
    return f"^{re.escape(text)}$"


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
# every scalar setting a builder reads through as_real: (name, domain or None,
# the value as the builder stores it, or psnr's result for its peak)
SETTINGS = {
    "scaled identity scale": ("scaled identity scale", None,
                              lambda v: er.ScaledIdentity((2,), v).scale),
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
    "leaky_relu alpha": ("leaky_relu alpha", None, lambda v: er.Activation("leaky_relu", v).alpha),
    "dense hidden_alpha": ("hidden_alpha", None, lambda v: er.random_admissible(
        0, er.DenseTemplate(2, (3,), hidden_alpha=v)).layers[0].activation.alpha),
}


@pytest.mark.parametrize("site", SETTINGS)
def test_scalar_setting_is_read_as_a_float_or_refused_naming_it(site):
    name, domain, build = SETTINGS[site]
    stored = build(np.float32(0.375))
    assert type(stored) is float and stored == build(0.375)
    outside = {None: (), "positive": (-0.5,), "nonnegative": (-1e-300,),
               "within [0, 1]": (-1e-300, 1.5)}[domain]
    for value in (True, "0.5", (0.5,), np.nan, np.inf, -np.inf, 10 ** 400) + outside:
        with pytest.raises(ValueError, match=refusal(name, domain, value)):
            build(value)


GEOMETRY = {"image_side": 8, "n_angles": 4, "n_bins": 12}


def conv_network(**sizes):
    return er.random_admissible(0, er.ConvPoolDenseTemplate(
        **{"side": 8, "filters": 2, "kernel": 3, "pool": 4, "hidden": 2, **sizes}))


def dense_network(**sizes):
    return er.random_admissible(0, er.DenseTemplate(**{"input_dim": 2, "hidden_dims": (3,),
                                                       **sizes}))


# every count a builder reads through as_count at least 1: (name, the count as
# the builder stores it, or the size the network it draws has)
COUNTS = {
    **{f"geometry {name}": (name, lambda v, name=name: getattr(
        er.RadonGeometry(**{**GEOMETRY, name: v}), name)) for name in GEOMETRY},
    "template side": ("side", lambda v: conv_network(side=v).input_shape[0]),
    "template filters": ("filters", lambda v: len(conv_network(filters=v).layers[0].skip.filters)),
    "template kernel": ("kernel",
                        lambda v: conv_network(kernel=v).layers[0].skip.filters.shape[-1]),
    "template pool": ("pool", lambda v: conv_network(pool=v).layers[1].carry.parts[0].pool[0]),
    "template hidden": ("hidden", lambda v: conv_network(hidden=v).head.size),
    "dense input_dim": ("input_dim", lambda v: dense_network(input_dim=v).input_shape[0]),
    "dense hidden_dims": ("hidden_dims",
                          lambda v: dense_network(hidden_dims=(3, v)).layers[1].bias.size),
    "dense readout_dim": ("readout_dim", lambda v: dense_network(readout_dim=v).head.size),
    "task image_side": ("image_side", lambda v: er.TaskConfig(
        kind="denoise_salt_pepper", image_side=v).image_side),
}


@pytest.mark.parametrize("site", COUNTS)
def test_count_is_read_as_an_int_or_refused_naming_it(site):
    # a template's bool or fraction failed inside numpy with a TypeError naming no field
    name, build = COUNTS[site]
    assert build(np.int64(4)) == build(4.0) == 4
    for value in (True, 2.5, "4", None):
        with pytest.raises(ValueError,
                           match=f"^{name}: expected an integer, got {re.escape(repr(value))}$"):
            build(value)
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"^{name}: must be at least 1, got {value}$"):
            build(value)


def test_an_int_beyond_the_float_range_is_refused_as_a_value():
    # math.isfinite converts an int to float first, which overflowed; with a
    # domain the two tests above refuse it
    assert as_real(2 ** 1023) == 2.0 ** 1023
    for value in (10 ** 400, -10 ** 400):
        with pytest.raises(ValueError, match=f"^x: expected a finite number, got {value}$"):
            as_real(value, "x")


RELU = er.Activation("relu")
LAYER_2 = er.IcnnLayer(er.Dense([[1.0], [2.0]]), None, [0.0, 0.0], RELU)
DOUBLE = er.Dense([[1.0], [1.0]])  # (1,) -> (2,), so a KL measurement has two counts


def array_refusal(name, domain, value, index):
    return f"^{re.escape(f'{name} must be {domain}, got {value} at flat index {index}')}$"


def pair(v):
    """An array whose entry at flat index 1 is v."""
    return np.array([0.5, v])


def reg_problem(fidelity, measurement):
    return er.ProblemSpec(fidelity, DOUBLE, measurement, 1.0, make_relu_1d())


# every array a builder, checked prox or write_pgm reads through as_array:
# (name in the refusal, domain or None, a call reading v at flat index 1); a
# non-finite KL count is refused earlier, as a measurement entry
ARRAYS = {
    "Dense": ("dense matrix", None, lambda v: er.Dense([pair(v)])),
    "Conv2D": ("conv2d filters", None, lambda v: er.Conv2D(pair(v).reshape(1, 1, 2), (3, 3))),
    "DiagonalMask": ("diagonal_mask mask", None, lambda v: er.DiagonalMask(pair(v))),
    "IcnnLayer bias": ("icnn bias", None, lambda v: er.IcnnLayer(DOUBLE, None, pair(v), RELU)),
    "IcnnSpec head": ("icnn head", None, lambda v: er.IcnnSpec((1,), (LAYER_2,), head=pair(v))),
    "measurement": ("measurement", None, lambda v: reg_problem(er.l2_fidelity(), pair(v))),
    "kl background": ("kl background", "nonnegative",
                      lambda v: reg_problem(er.kl_fidelity(pair(v)), np.ones(2))),
    "kl counts": (("measurement", "kl counts"), "nonnegative",
                  lambda v: reg_problem(er.kl_fidelity(1.0), pair(v))),
    "soft_shrink threshold": ("step", "positive", lambda v: er.soft_shrink(np.zeros(2), pair(v))),
    "soft_shrink center": ("center", None, lambda v: er.soft_shrink(np.zeros(2), 0.1, pair(v))),
    "readout sigma": ("step", "positive",
                      lambda v: er.readout_conjugate_prox(np.zeros(2), pair(v), 1.0)),
    "readout cap": ("readout weights", "nonnegative",
                    lambda v: er.readout_conjugate_prox(np.zeros(2), 1.0, pair(v))),
    "readout bias": ("bias", None,
                     lambda v: er.readout_conjugate_prox(np.zeros(2), 1.0, 1.0, pair(v))),
    "kl sigma": ("step", "positive", lambda v: er.kl_conjugate_prox(np.zeros(2), pair(v), 1.0, 0.5)),
    "kl counts prox": ("counts", "nonnegative",
                       lambda v: er.kl_conjugate_prox(np.zeros(2), 1.0, pair(v), 0.5)),
    "kl background prox": ("background", "nonnegative",
                           lambda v: er.kl_conjugate_prox(np.zeros(2), 1.0, 1.0, pair(v))),
    "moreau step": ("step", "positive", lambda v: moreau_conjugate_prox(
        lambda step, point: point, pair(v), np.zeros(2))),
    "write_pgm": ("pgm image", None, lambda v: er.write_pgm("image.pgm", pair(v).reshape(1, 2))),
}


@pytest.mark.parametrize("site", ARRAYS)
def test_array_input_is_refused_naming_it_when_not_finite_or_outside_its_domain(
        site, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # write_pgm's file
    names, domain, build = ARRAYS[site]
    finite_name, domain_name = names if isinstance(names, tuple) else (names, names)
    build(0.375)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteError,
                           match=f"^{re.escape(finite_name)}: non-finite entry at flat index 1$"):
            build(value)
    outside = {"positive": (0.0, -0.5), "nonnegative": (-1e-300,), None: ()}[domain]
    for value in outside:
        with pytest.raises(ValueError, match=array_refusal(domain_name, domain, value, 1)):
            build(value)


@pytest.mark.parametrize("domain, inside, outside", [
    ("positive", (1e-300, 2.5), (0.0, -1.0)),
    ("nonnegative", (0.0, 2.5), (-1e-300,)),
    ("within [0, 1]", (0.0, 0.5, 1.0), (-0.5, 1.5))])
def test_as_array_reads_a_named_domain_entrywise(domain, inside, outside):
    arr = as_array(np.array(inside)[::-1], "x", domain)  # a negative stride
    assert arr.dtype == np.float64 and arr.flags.c_contiguous
    assert arr.tolist() == list(inside[::-1])
    assert as_array(inside[0], "x", domain).shape == ()
    for value in outside:
        with pytest.raises(ValueError, match=array_refusal("x", domain, value, 2)):
            as_array([[inside[0], inside[-1]], [value, value]], "x", domain)
