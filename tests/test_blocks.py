import numpy as np
import pytest

import epirecon as er
from epirecon.blocks import assemble_blocks
from epirecon.verify import jacobi_spectral_norm


def two_layer_dense(seed=7):
    # hidden leaky layer with skip, relu readout over a nonneg head
    return er.random_admissible(seed, er.DenseTemplate(
        input_dim=3, hidden_dims=(4,), readout_dim=2, skip_all=True))


def test_two_layer_block_structure(rng):
    spec = two_layer_dense()
    assembly = assemble_blocks(spec)
    assert [b.kind for b in assembly.blocks] == ["epigraph", "readout"]
    k1, k2 = assembly.blocks
    x = rng.standard_normal(3)
    z1 = rng.standard_normal(4)
    # K1 u = (V0 x, z1)
    p, q = k1.operator.apply([x, z1])
    assert np.allclose(p, spec.layers[0].skip.apply(x))
    assert np.array_equal(q, z1)
    # K2 u = V1 x + W1 z1
    out, = k2.operator.apply([x, z1])
    expected = spec.layers[1].skip.apply(x) + spec.layers[1].carry.apply(z1)
    assert np.allclose(out, expected)
    # bias shifts carry (b0, 0) and b1
    assert np.array_equal(k1.shift[0], spec.layers[0].bias)
    assert not np.any(k1.shift[1])
    assert np.array_equal(k2.shift[0], spec.layers[1].bias)
    # shifted block rows reproduce the layerwise constraint left-hand sides
    assert np.allclose(p + k1.shift[0], spec.layers[0].preactivation(x, None))
    assert np.allclose(out + k2.shift[0], spec.layers[1].preactivation(x, z1))


def test_fidelity_block_prepended(rng):
    spec = two_layer_dense()
    fwd = er.Dense(rng.standard_normal((5, 3)))
    assembly = assemble_blocks(spec, forward=fwd)
    assert assembly.blocks[0].kind == "fidelity"
    x = rng.standard_normal(3)
    out, = assembly.blocks[0].operator.apply([x, np.zeros(4)])
    assert np.allclose(out, fwd.apply(x))


def test_blockwise_apply_matches_dense_materialization(rng):
    # 4-pixel toy network: blockwise apply equals the dense matrix action
    spec = er.random_admissible(9, er.DenseTemplate(
        input_dim=4, hidden_dims=(3,), readout_dim=2, skip_all=True))
    assembly = assemble_blocks(spec, forward=er.DiagonalMask(np.array([1.0, 0.0, 1.0, 1.0])))
    for block in assembly.blocks:
        mat = er.materialize(block.operator.flat())
        for _ in range(10):
            us = [rng.standard_normal(s) for s in block.operator.input_shapes]
            blockwise = np.concatenate([o.ravel() for o in block.operator.apply(us)])
            dense = mat @ np.concatenate([u.ravel() for u in us])
            assert np.allclose(blockwise, dense, atol=1e-12)
            # adjoint is the transpose of the same matrix
            ws = [rng.standard_normal(s) for s in block.operator.output_shapes]
            adj = np.concatenate([a.ravel() for a in block.operator.adjoint(ws)])
            assert np.allclose(adj, mat.T @ np.concatenate([w.ravel() for w in ws]),
                               atol=1e-12)


def test_block_adjoint_identity(rng):
    spec = er.random_admissible(15, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    assembly = assemble_blocks(spec)
    for block in assembly.blocks:
        op = block.operator.flat()
        for _ in range(50):
            u = rng.standard_normal(op.input_shape)
            w = rng.standard_normal(op.output_shape)
            lhs = np.vdot(op.apply(u), w)
            rhs = np.vdot(u, op.adjoint(w))
            allowance = 1.0 + np.sqrt(np.vdot(u, u) * np.vdot(w, w))
            assert abs(lhs - rhs) <= 1e-8 * allowance


def test_residual_layer_difference_row(rng):
    spec = er.random_admissible(17, er.DenseTemplate(
        input_dim=4, hidden_dims=(4, 4), skip_all=True, residual_layers=(2,)))
    assembly = assemble_blocks(spec)
    block = assembly.blocks[1]  # epigraph block of the residual layer
    x = rng.standard_normal(4)
    z1 = rng.standard_normal(4)
    z2 = rng.standard_normal(4)
    _, q = block.operator.apply([x, z1, z2])
    assert np.allclose(q, z2 - z1)


def test_residual_final_layer_rejected():
    l1 = er.IcnnLayer(er.Dense(np.ones((1, 1))), None, np.zeros(1),
                      er.Activation("relu"))
    l2 = er.IcnnLayer(None, er.Dense(np.ones((1, 1))), np.zeros(1),
                      er.Activation("identity"), residual=True)
    spec = er.IcnnSpec((1,), (l1, l2))
    with pytest.raises(ValueError, match="residual final layer"):
        assemble_blocks(spec)


def test_estimate_block_norm_matches_materialized(rng):
    spec = two_layer_dense(23)
    assembly = assemble_blocks(spec)
    for block in assembly.blocks:
        flat = block.operator.flat()
        est = er.estimate_norm(flat, tol=1e-11, max_iters=5000)
        oracle = jacobi_spectral_norm(er.materialize(flat))
        assert abs(est.value - oracle) <= 1e-6 * max(1.0, oracle)
