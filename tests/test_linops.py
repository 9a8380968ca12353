import numpy as np
import pytest

import epirecon as er
from epirecon.linops import min_coefficient, op_from_config, op_to_config
from epirecon.tensor import ShapeMismatchError
from epirecon.verify import default_operator_set


def test_diagonal_mask_identity(rng):
    op = er.DiagonalMask(np.ones((3, 3)))
    x = rng.standard_normal((3, 3))
    assert np.array_equal(op.apply(x), x)
    assert np.array_equal(op.adjoint(x), op.apply(x))  # self-adjoint


def test_dense_hand_values():
    op = er.Dense([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(op.apply([1.0, 1.0]), [3.0, 7.0])
    # adjoint of (1, 0) is the first row of the transpose
    assert np.allclose(op.adjoint([1.0, 0.0]), [1.0, 2.0])


def test_conv2d_scalar_filter():
    op = er.Conv2D(2.0 * np.ones((1, 1, 1)), (3, 3))
    out = op.apply(np.ones((3, 3)))
    assert out.shape == (3, 3)
    assert np.allclose(out, 2.0)


def test_conv2d_zero_padding_same_size(rng):
    op = er.Conv2D(rng.standard_normal((3, 3, 3)), (5, 7))
    out = op.apply(rng.standard_normal((5, 7)))
    assert out.shape == (3, 5, 7)
    # a centered 3x3 averaging filter sees zeros outside the image
    avg = er.Conv2D(np.ones((1, 3, 3)) / 9.0, (3, 3))
    out = avg.apply(np.ones((3, 3)))
    assert np.isclose(out[0, 0], 4.0 / 9.0)
    assert np.isclose(out[1, 1], 1.0)


def test_avgpool_inner_product_pairs(rng):
    op = er.AvgPool2D(2, (2, 2))
    x = rng.standard_normal((2, 2))
    s = rng.standard_normal((1, 1))
    assert np.isclose(op.apply(x)[0, 0], x.mean())
    assert np.allclose(op.adjoint(s), s[0, 0] / 4.0)
    assert np.isclose(np.vdot(op.apply(x), s), np.vdot(x, op.adjoint(s)))


def test_conv2d_results_survive_later_calls(rng):
    # the operator keeps its work buffers; what it returns must not alias them
    for filters, shape in (((1, 3, 3), (6, 6)), ((3, 2, 3, 3), (2, 6, 6))):
        op = er.Conv2D(rng.standard_normal(filters), shape)
        x, w = rng.standard_normal(op.input_shape), rng.standard_normal(op.output_shape)
        fx, aw = op.apply(x), op.adjoint(w)
        kept = fx.copy(), aw.copy()
        op.adjoint(rng.standard_normal(op.output_shape))
        op.apply(rng.standard_normal(op.input_shape))
        assert np.array_equal(fx, kept[0]) and np.array_equal(aw, kept[1])
        fresh = er.Conv2D(op.filters, shape)
        assert np.array_equal(fx, fresh.apply(x)) and np.array_equal(aw, fresh.adjoint(w))


def _pool_cases():
    """(pool, input shape): square pools 1-17 on 2-d inputs of several windows
    per row and on 3-d inputs of one window per row (pw == w, where numpy sums
    each band of rows as one run), non-square pools, a row run above 128."""
    for p in range(1, 18):
        yield (p, p), (2 * p, 3 * p)
        yield (p, p), (3, 2 * p, p)
    yield from (((5, 6), (2, 10, 24)), ((6, 5), (12, 15)), ((2, 12), (3, 12, 12)),
                ((12, 2), (24, 6)), ((2, 136), (4, 272)))


@pytest.mark.parametrize("pool, shape", list(_pool_cases()))
def test_avgpool_is_bytewise_mean_and_broadcast_divide(rng, pool, shape):
    # apply reproduces mean's summation order and the adjoint spreads the same
    # quotient, so both match the numpy forms byte for byte
    op = er.AvgPool2D(pool, shape)
    (ph, pw), (h, w) = pool, shape[-2:]
    s = rng.standard_normal(op.output_shape)
    for x in (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4), np.full(shape, -0.0)):
        mean = x.reshape(shape[:-2] + (h // ph, ph, w // pw, pw)).mean(axis=(-3, -1))
        assert op.apply(x).tobytes() == mean.tobytes()
    spread = np.empty(shape)
    np.divide(s[..., None, :, None], ph * pw,
              out=spread.reshape(s.shape[:-1] + (ph, s.shape[-1], pw)))
    assert op.adjoint(s).tobytes() == spread.tobytes()


def test_conv2d_of_one_geometry_applied_in_turn_match_their_matrices(rng):
    # operators of one geometry share the padded window; each call must
    # rewrite all of it that it reads
    ops = [er.Conv2D(rng.standard_normal((2, 3, 3)), (5, 6)) for _ in range(2)]
    mats = [er.materialize(op) for op in ops]
    for x in rng.standard_normal((3, 5, 6)):
        for op, mat in zip(ops, mats):
            assert np.allclose(op.apply(x).ravel(), mat @ x.ravel(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("filters_shape", [(2, 0, 3), (2, 3, 0), (1, 1, 0, 0)])
def test_conv2d_refuses_a_kernel_with_a_zero_side(filters_shape):
    with pytest.raises(ValueError, match="kernel must be at least 1x1 and fit"):
        er.Conv2D(np.zeros(filters_shape), (4, 4))


def test_avgpool_rejects_non_divisible():
    with pytest.raises(ValueError, match="does not divide"):
        er.AvgPool2D(3, (8, 8))


EMPTY = {"scaled_identity": lambda s: er.ScaledIdentity((s, 8)),
         "dense_rows": lambda s: er.Dense(np.zeros((max(s, 0), 3))),
         "dense_columns": lambda s: er.Dense(np.zeros((2, max(s, 0)))),
         "dense_input_shape": lambda s: er.Dense(np.zeros((2, 4)), input_shape=(s, 4)),
         "conv2d": lambda s: er.Conv2D(np.ones((1, 1, 1)), (s, 4)),
         "avgpool2d": lambda s: er.AvgPool2D(1, (4, s)),
         "network": lambda s: er.IcnnSpec((s,), ())}


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("build", EMPTY.values(), ids=EMPTY)
def test_no_operator_or_network_builds_on_an_empty_shape(build, size):
    # a matrix takes no negative side, so the dense dims try 0 twice
    with pytest.raises(ValueError, match="must be at least 1"):
        build(size)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scaled_identity_refuses_non_finite_scale(bad):
    with pytest.raises(ValueError, match="finite scale"):
        er.ScaledIdentity((2, 2), bad)


def test_shape_mismatch_errors_name_shapes():
    op = er.Dense(np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError, match=r"expected \(3,\), got \(4,\)"):
        op.apply(np.ones(4))
    with pytest.raises(ShapeMismatchError, match=r"expected \(2,\), got \(3,\)"):
        op.adjoint(np.ones(3))


@pytest.mark.parametrize("filters_shape, input_shape", [
    ((3, 2, 3), (6, 7)),        # even x odd kernel
    ((2, 4, 4), (3, 3)),        # kernel larger than the image (allowed)
    ((1, 2, 3, 3), (2, 5, 5)),  # 3-d input, one filter: output squeezed to 2-d
])
def test_conv2d_adjoint_matches_materialized_transpose(rng, filters_shape, input_shape):
    op = er.Conv2D(rng.standard_normal(filters_shape), input_shape)
    mat = er.materialize(op)
    w = rng.standard_normal(op.output_shape)
    expected = (mat.T @ w.ravel()).reshape(op.input_shape)
    assert np.max(np.abs(op.adjoint(w) - expected)) <= 1e-12


def test_apply_adjoint_output_layout(rng):
    # the tensor contract: C-contiguous float64 of the declared shape
    for name, op in default_operator_set():
        for out, shape in ((op.apply(rng.standard_normal(op.input_shape)), op.output_shape),
                           (op.adjoint(rng.standard_normal(op.output_shape)), op.input_shape)):
            assert out.dtype == np.float64, name
            assert out.shape == tuple(shape), name
            assert out.flags.c_contiguous, name


def test_apply_adjoint_return_fresh_arrays(rng):
    # network sweeps add in place into what apply/adjoint return, so a result
    # may share memory neither with the input nor with the previous result
    ops = default_operator_set()
    assert {"compose", "radon"} <= {op.kind for _, op in ops}
    for name, op in ops:
        for fn, shape in ((op.apply, op.input_shape), (op.adjoint, op.output_shape)):
            v = rng.standard_normal(shape)
            first, second = fn(v), fn(v)
            assert not np.shares_memory(first, v), name
            assert not np.shares_memory(second, v), name
            assert not np.shares_memory(second, first), name


def test_estimate_norm_diagonal_cases():
    est = er.estimate_norm(er.Dense(np.diag([3.0, 1.0])))
    assert est.converged and abs(est.value - 3.0) < 1e-6
    est = er.estimate_norm(er.DiagonalMask(np.array([0.0, 1.0, 1.0])))
    assert abs(est.value - 1.0) < 1e-6


def test_estimate_norm_monotone_history(rng):
    mat = rng.standard_normal((10, 6))
    est = er.estimate_norm(er.Dense(mat), tol=1e-10, max_iters=300, seed=2)
    hist = np.array(est.history)
    assert np.all(np.diff(hist) >= -1e-12)


def test_estimate_norm_certifies_random_inputs(rng):
    op = er.Conv2D(rng.standard_normal((2, 3, 3)), (6, 6))
    est = er.estimate_norm(op, tol=1e-9, max_iters=2000)
    assert est.converged
    for _ in range(50):
        x = rng.standard_normal(op.input_shape)
        assert np.linalg.norm(op.apply(x)) <= (est.value + 1e-6) * np.linalg.norm(x)


def test_estimate_norm_nonconvergence_flag(rng):
    mat = rng.standard_normal((12, 12))
    est = er.estimate_norm(er.Dense(mat), tol=1e-15, max_iters=2, seed=0)
    assert not est.converged
    assert est.iterations == 2
    assert est.value > 0.0


def test_estimate_norm_rejects_bad_tol():
    with pytest.raises(ValueError, match="tol"):
        er.estimate_norm(er.Dense(np.eye(2)), tol=0.0)


@pytest.mark.parametrize("name, value, match", [
    ("tol", np.nan, "finite and positive"), ("tol", np.inf, "finite and positive"),
    ("tol", True, "finite and positive"), ("max_iters", 0, "at least 1"),
    ("max_iters", -3, "at least 1"), ("max_iters", True, "expected an integer"),
    ("max_iters", 2.5, "expected an integer")])
def test_estimate_norm_refuses_a_bad_tolerance_or_iteration_count(name, value, match):
    # a NaN tol ran every step to report converged=False, 0 steps reported 0.0 as the
    # estimate, True read as 1 step and 2.5 raised a TypeError from range()
    with pytest.raises(ValueError, match=f"{name}.*{match}"):
        er.estimate_norm(er.Dense(np.eye(2)), **{name: value})


def test_estimate_norm_reads_a_whole_float_iteration_count():
    assert er.estimate_norm(er.Dense(np.diag([3.0, 1.0])), max_iters=40.0) == er.estimate_norm(
        er.Dense(np.diag([3.0, 1.0])), max_iters=40)


def test_compose_shapes_and_norm_bound(rng):
    pool = er.AvgPool2D(2, (4, 4))
    dense = er.Dense(rng.standard_normal((3, 4)), input_shape=(2, 2))
    comp = er.Compose([pool, dense])
    assert comp.input_shape == (4, 4)
    assert comp.output_shape == (3,)
    product = pool.norm_bound * dense.norm_bound
    assert product <= comp.norm_bound <= product * (1.0 + 1e-11)
    known = er.Compose([pool, er.ScaledIdentity((2, 2), 2.0)])
    assert np.isclose(known.norm_bound, 2.0 * 0.5)
    with pytest.raises(ShapeMismatchError):
        er.Compose([dense, pool])


@pytest.mark.parametrize("seed", [1000, 49])
def test_conv_bound_is_tight_at_64(seed):
    # the first conv of the 64x64 study network (seed 1000 is the benchmark's)
    spec = er.random_admissible(seed, er.ConvPoolDenseTemplate(
        side=64, filters=8, kernel=5, pool=8, hidden=16))
    conv = spec.layers[0].skip
    est = er.estimate_norm(conv, tol=1e-10, max_iters=20000)
    assert est.converged
    assert est.value <= conv.norm_bound <= 1.005 * est.value


def test_min_coefficient():
    assert min_coefficient(er.Dense([[0.5, 0.0], [1.0, 2.0]])) == 0.0
    assert min_coefficient(er.Dense([[0.5, -1e-9]])) == -1e-9
    assert min_coefficient(er.AvgPool2D(2, (4, 4))) == 0.0
    comp = er.Compose([er.AvgPool2D(2, (4, 4)),
                       er.Dense(np.ones((2, 4)), input_shape=(2, 2))])
    assert min_coefficient(comp) == 0.0
    mixed = er.Compose([er.AvgPool2D(2, (4, 4)),
                        er.Dense(-np.ones((2, 4)), input_shape=(2, 2))])
    assert min_coefficient(mixed) is None


def test_serialization_round_trip(tmp_path, rng):
    from epirecon.tensor import read_tensor, write_tensor
    blobs = {}

    def save_blob(hint, arr):
        name = f"{hint}_{len(blobs)}.tnsb"
        write_tensor(tmp_path / name, arr)
        blobs[name] = True
        return name

    def load_blob(name):
        return read_tensor(tmp_path / name)

    ops = [op for _, op in default_operator_set(6)
           if op.kind != "flat_block"]  # block operators are assembled, not stored
    for op in ops:
        cfg = op_to_config(op, save_blob)
        back = op_from_config(cfg, load_blob)
        x = rng.standard_normal(op.input_shape)
        assert np.array_equal(op.apply(x), back.apply(x))
