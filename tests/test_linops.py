import numpy as np
import pytest

import epirecon as er
from epirecon.linops import min_coefficient, op_from_config, op_to_config
from epirecon.tensor import ShapeMismatchError
from epirecon.verify import default_operator_set, jacobi_spectral_norm


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


def test_avgpool_rejects_non_divisible():
    with pytest.raises(ValueError, match="does not divide"):
        er.AvgPool2D(3, (8, 8))


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


def test_adjoint_identity_all_kinds(rng):
    # |<Kx, w> - <x, K*w>| <= 1e-8 (1 + |x||w|) on random pairs
    from epirecon.verify import _adjoint_gap
    for name, op in default_operator_set(3):
        for _ in range(100):
            gap, allowance = _adjoint_gap(op, rng)
            assert gap <= 1e-8 * allowance, name


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


def test_linearity_all_kinds(rng):
    from epirecon.blocks import BlockOperator
    for name, op in default_operator_set(4):
        if isinstance(op, BlockOperator):
            continue
        x = rng.standard_normal(op.input_shape)
        y = rng.standard_normal(op.input_shape)
        a, b = 1.7, -0.3
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(rhs))), name


def test_estimate_norm_diagonal_cases():
    est = er.estimate_norm(er.Dense(np.diag([3.0, 1.0])))
    assert est.converged and abs(est.value - 3.0) < 1e-6
    est = er.estimate_norm(er.DiagonalMask(np.array([0.0, 1.0, 1.0])))
    assert abs(est.value - 1.0) < 1e-6


def test_estimate_norm_matches_jacobi_oracle(rng):
    mat = rng.standard_normal((8, 8))
    est = er.estimate_norm(er.Dense(mat), tol=1e-12, max_iters=10000, seed=5)
    oracle = jacobi_spectral_norm(mat)
    assert abs(est.value - oracle) < 1e-5 * max(1.0, oracle)


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
