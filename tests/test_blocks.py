import numpy as np
import pytest

import epirecon as er
from epirecon.blocks import BlockOperator, assemble_blocks
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
    # each block keeps its layer's bias
    assert np.array_equal(k1.bias, spec.layers[0].bias)
    assert np.array_equal(k2.bias, spec.layers[1].bias)
    # bias-shifted preactivation rows reproduce the layerwise constraint left-hand sides
    assert np.allclose(p + k1.bias, spec.layers[0].preactivation(x, None))
    assert np.allclose(out + k2.bias, spec.layers[1].preactivation(x, z1))


def test_block_rows_keep_the_sign_of_a_zero():
    # a row is its first entry plus the others, not a sum from +0.0, so a
    # kept row is bitwise what its layer's paths give, -0.0 included
    ident = er.ScaledIdentity((3,), 1.0)
    op = BlockOperator([[(0, ident)], [(0, ident), (1, ident)]], [(3,), (3,)])
    zero = np.full(3, -0.0)
    for out in (op.apply([zero, zero]), op.apply([zero, zero], out=[np.ones(3), np.ones(3)])):
        assert all(np.signbit(row).all() for row in out)


def test_fidelity_block_prepended(rng):
    spec = two_layer_dense()
    fwd = er.Dense(rng.standard_normal((5, 3)))
    assembly = assemble_blocks(spec, forward=fwd)
    assert assembly.blocks[0].kind == "fidelity"
    assert assembly.blocks[0].bias is None
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
            # given out, the adjoint is added into what out holds
            filled = [rng.standard_normal(s) for s in block.operator.input_shapes]
            out = block.operator.adjoint(ws, out=[f.copy() for f in filled])
            assert np.allclose(np.concatenate([o.ravel() for o in out]),
                               np.concatenate([f.ravel() for f in filled]) + adj, atol=1e-12)


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


def test_block_operator_refuses_a_mismatched_entry_or_count():
    with pytest.raises(ValueError, match=r"^block entry emits \(3,\), row is \(2,\)$"):
        BlockOperator([[(0, er.Dense(np.ones((2, 2)))), (1, er.Dense(np.ones((3, 4))))]],
                      [(2,), (4,)])
    op = BlockOperator([[(0, er.Dense(np.ones((2, 2)))), (1, er.Dense(np.ones((2, 4))))]],
                       [(2,), (4,)])
    with pytest.raises(ValueError, match="^expected 2 primal slots, got 1$"):
        op.apply([np.ones(2)])
    with pytest.raises(ValueError, match="^expected 1 dual rows, got 2$"):
        op.adjoint([np.ones(2), np.ones(2)])


def test_assemble_blocks_refuses_a_forward_of_another_input_shape():
    # the fidelity block's operator refuses it: slot 0 holds the network input
    with pytest.raises(ValueError, match=r"^block entry at slot 0 expects \(2,\), "
                                         r"primal slot holds \(3,\)$"):
        assemble_blocks(two_layer_dense(), forward=er.Dense(np.ones((3, 2))))
