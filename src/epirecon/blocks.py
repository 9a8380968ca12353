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
from .tensor import check_shape


@dataclass(frozen=True)
class BlockRow:
    """One output component: sum of sub-operators applied to primal slots."""

    entries: tuple  # ((slot, LinOp), ...)
    output_shape: tuple

    def apply(self, us):
        out = np.zeros(self.output_shape)
        for slot, op in self.entries:
            out += op.apply(us[slot])
        return out


class BlockOperator:
    """Stacked linear map from a list of primal tensors to a list of rows."""

    kind = "block_row"

    def __init__(self, rows, input_shapes):
        self.rows = tuple(rows)
        self.input_shapes = tuple(tuple(s) for s in input_shapes)
        self.output_shapes = tuple(row.output_shape for row in self.rows)
        for row in self.rows:
            for slot, op in row.entries:
                if tuple(op.input_shape) != self.input_shapes[slot]:
                    raise ValueError(
                        f"block entry at slot {slot} expects {tuple(op.input_shape)}, "
                        f"primal slot holds {self.input_shapes[slot]}")
                if tuple(op.output_shape) != row.output_shape:
                    raise ValueError(
                        f"block entry emits {tuple(op.output_shape)}, "
                        f"row is {row.output_shape}")

    def apply(self, us):
        if len(us) != len(self.input_shapes):
            raise ValueError(f"expected {len(self.input_shapes)} primal slots, got {len(us)}")
        return [row.apply(us) for row in self.rows]

    def adjoint(self, ws):
        if len(ws) != len(self.rows):
            raise ValueError(f"expected {len(self.rows)} dual rows, got {len(ws)}")
        out = [np.zeros(shape) for shape in self.input_shapes]
        for row, w in zip(self.rows, ws):
            check_shape(np.asarray(w), row.output_shape, "block adjoint row")
            for slot, op in row.entries:
                out[slot] += op.adjoint(w)
        return out

    def flat(self):
        """This operator as a LinOp on the concatenated, flattened slots."""
        return FlatBlockOperator(self)


def _split(vec, shapes):
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
        return _concat(self.block.apply(_split(x, self.block.input_shapes)))

    def _adjoint(self, w):
        return _concat(self.block.adjoint(_split(w, self.block.output_shapes)))


@dataclass(frozen=True)
class ConstraintBlock:
    """One dual block: its operator, bias shift and prox family.

    kind is "fidelity" (measurement operator row), "epigraph" (activation
    epigraph constraint of a hidden layer) or "readout" (final-layer term).
    shift holds the layer bias per row (zero on identity rows).
    """

    kind: str
    operator: BlockOperator
    shift: tuple
    negative_slope: float = 0.0


@dataclass(frozen=True)
class BlockAssembly:
    blocks: tuple
    primal_shapes: tuple


def assemble_blocks(spec: IcnnSpec, forward: LinOp = None) -> BlockAssembly:
    """Build the dual blocks (and bias shifts) for the stacked primal.

    forward, when given, contributes the leading measurement block for a
    dualized data term. Residual layers turn the identity row into a
    difference row z_i - z_prev; a residual final layer has no such row to
    absorb it and is rejected.
    """
    primal_shapes = [tuple(spec.input_shape)]
    for layer in spec.layers[:-1]:
        primal_shapes.append(tuple(layer.output_shape))
    blocks = []
    if forward is not None:
        if tuple(forward.input_shape) != tuple(spec.input_shape):
            raise ValueError(
                f"forward operator expects {tuple(forward.input_shape)}, "
                f"network input is {tuple(spec.input_shape)}")
        row = BlockRow(((0, forward),), tuple(forward.output_shape))
        blocks.append(ConstraintBlock(
            kind="fidelity",
            operator=BlockOperator([row], primal_shapes),
            shift=(np.zeros(forward.output_shape),)))
    depth = spec.depth
    for i, layer in enumerate(spec.layers, start=1):
        entries = []
        if layer.skip is not None:
            entries.append((0, layer.skip))
        if layer.carry is not None:
            entries.append((i - 1, layer.carry))
        pre_row = BlockRow(tuple(entries), tuple(layer.output_shape))
        if i < depth:
            ident = [(i, ScaledIdentity(layer.output_shape, 1.0))]
            if layer.residual:
                prev_slot = i - 1 if i > 1 else 0
                ident.append((prev_slot, ScaledIdentity(primal_shapes[prev_slot], -1.0)))
            aux_row = BlockRow(tuple(ident), tuple(layer.output_shape))
            blocks.append(ConstraintBlock(
                kind="epigraph",
                operator=BlockOperator([pre_row, aux_row], primal_shapes),
                shift=(layer.bias, np.zeros(layer.output_shape)),
                negative_slope=layer.activation.negative_slope))
        else:
            if layer.residual:
                raise ValueError(
                    "residual final layer is not supported by the block solver; "
                    "evaluation and subgradients still handle it")
            blocks.append(ConstraintBlock(
                kind="readout",
                operator=BlockOperator([pre_row], primal_shapes),
                shift=(layer.bias,),
                negative_slope=layer.activation.negative_slope))
    return BlockAssembly(tuple(blocks), tuple(primal_shapes))
