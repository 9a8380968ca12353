"""Block operators coupling the image with the auxiliary activation variables.

The constrained reformulation of the regularized problem works on the
stacked primal u = (x, z_1, ..., z_{L-1}). Each network layer i < L yields a
two-row block: the preactivation row skip/carry-maps u onto the layer input,
and an identity row picks out z_i (minus z_{i-1}, or x, for residual
layers). The final layer yields a single preactivation row whose dual is
handled by the readout conjugate prox, and an optional leading block carries
the measurement operator when the data term is dualized.
"""

from dataclasses import dataclass

import numpy as np

from .icnn import IcnnSpec
from .linops import LinOp, ScaledIdentity


class BlockOperator:
    """Stacked linear map from a list of primal tensors to a list of rows; a
    row is a nonempty tuple of (slot, LinOp) entries, shaped as its first."""

    kind = "block_row"

    def __init__(self, rows, input_shapes):
        self.rows = tuple(tuple(row) for row in rows)
        self.input_shapes = tuple(tuple(s) for s in input_shapes)
        self.output_shapes = tuple(tuple(row[0][1].output_shape) for row in self.rows)
        for row, shape in zip(self.rows, self.output_shapes):
            for slot, op in row:
                if tuple(op.input_shape) != self.input_shapes[slot]:
                    raise ValueError(
                        f"block entry at slot {slot} expects {tuple(op.input_shape)}, "
                        f"primal slot holds {self.input_shapes[slot]}")
                if tuple(op.output_shape) != shape:
                    raise ValueError(f"block entry emits {tuple(op.output_shape)}, "
                                     f"row is {shape}")

    def apply(self, us, out=None):
        """One array per row, each its first entry plus the others in order
        (not summed from zero, which would turn a -0.0 into 0.0); written into
        out (one array per row) when given."""
        if len(us) != len(self.input_shapes):
            raise ValueError(f"expected {len(self.input_shapes)} primal slots, got {len(us)}")
        if out is None:
            out = [np.empty(shape) for shape in self.output_shapes]
        for row, acc in zip(self.rows, out):
            slot, op = row[0]
            acc[...] = op.apply(us[slot])
            for slot, op in row[1:]:
                acc += op.apply(us[slot])
        return out

    def adjoint(self, ws, out=None):
        """One array per primal slot, zero where no row touches it; when out
        (one array per slot) is given, the adjoint is added into it."""
        if len(ws) != len(self.rows):
            raise ValueError(f"expected {len(self.rows)} dual rows, got {len(ws)}")
        if out is None:
            out = [np.zeros(shape) for shape in self.input_shapes]
        for row, w in zip(self.rows, ws):
            for slot, op in row:  # each entry's adjoint checks w's shape
                out[slot] += op.adjoint(w)
        return out

    def flat(self):
        """This operator as a LinOp on the concatenated, flattened slots."""
        return FlatBlockOperator(self)


def split(vec, shapes):
    """Views of a flat vector as consecutive arrays of the given shapes."""
    ends = np.cumsum([int(np.prod(s)) for s in shapes])[:-1]
    return [part.reshape(s) for part, s in zip(np.split(vec, ends), shapes)]


def _concat(parts):
    return np.concatenate([np.ravel(p) for p in parts])


class FlatBlockOperator(LinOp):
    """A BlockOperator on stacked vectors, so that estimate_norm, materialize
    and the verify suites serve block operators like any other LinOp."""

    kind = "flat_block"

    def __init__(self, block: BlockOperator):
        self.block = block
        self.input_shape = (sum(int(np.prod(s)) for s in block.input_shapes),)
        self.output_shape = (sum(int(np.prod(s)) for s in block.output_shapes),)

    def _apply(self, x):
        return _concat(self.block.apply(split(x, self.block.input_shapes)))

    def _adjoint(self, w):
        return _concat(self.block.adjoint(split(w, self.block.output_shapes)))


@dataclass(frozen=True)
class ConstraintBlock:
    """One dual block: its operator, layer bias and prox family.

    kind is "fidelity" (measurement operator row), "epigraph" (activation
    epigraph constraint of a hidden layer) or "readout" (final-layer term).
    bias is the layer bias, which shifts the preactivation row; the
    fidelity block has none.
    """

    kind: str
    operator: BlockOperator
    bias: np.ndarray = None
    negative_slope: float = 0.0


@dataclass(frozen=True)
class BlockAssembly:
    """The dual blocks, and the network and forward map they were built from."""

    blocks: tuple
    primal_shapes: tuple
    regularizer: IcnnSpec
    forward: LinOp = None


def assemble_blocks(spec: IcnnSpec, forward: LinOp = None) -> BlockAssembly:
    """Build the dual blocks for the stacked primal.

    forward, when given, contributes the leading measurement block for a
    dualized data term. Residual layers turn the identity row into a
    difference row z_i - z_prev; a residual final layer has no such row to
    absorb it and is rejected.
    """
    primal_shapes = [tuple(spec.input_shape)]
    for layer in spec.layers[:-1]:
        primal_shapes.append(tuple(layer.output_shape))
    blocks = []
    if forward is not None:  # its BlockOperator refuses an input shape other than slot 0's
        blocks.append(ConstraintBlock("fidelity", BlockOperator([[(0, forward)]], primal_shapes)))
    depth = spec.depth
    for i, layer in enumerate(spec.layers, start=1):
        entries = []
        if layer.skip is not None:
            entries.append((0, layer.skip))
        if layer.carry is not None:
            entries.append((i - 1, layer.carry))
        rows = [entries]
        if i < depth:
            ident = [(i, ScaledIdentity(layer.output_shape, 1.0))]
            if layer.residual:
                prev_slot = i - 1 if i > 1 else 0
                ident.append((prev_slot, ScaledIdentity(primal_shapes[prev_slot], -1.0)))
            rows.append(ident)
        elif layer.residual:
            raise ValueError(
                "residual final layer is not supported by the block solver; "
                "evaluation and subgradients still handle it")
        blocks.append(ConstraintBlock("epigraph" if i < depth else "readout",
                                      BlockOperator(rows, primal_shapes), layer.bias,
                                      layer.activation.negative_slope))
    return BlockAssembly(tuple(blocks), tuple(primal_shapes), spec, forward)
