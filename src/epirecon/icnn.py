"""Input-convex network regularizers: evaluation, subgradients, admissibility.

A network is a chain of layers z_i = act(skip(x) + carry(z_{i-1}) + bias),
optionally residual (z_i additionally gains z_{i-1}, or x for the first
layer). The scalar output is act(s_L) for a scalar final preactivation s_L,
or head . act(s_L) when a nonnegative readout vector `head` is present.
Convexity in x holds whenever every carry path is entrywise nonnegative and
every activation is convex and non-decreasing; validate() certifies this.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linops
from .tensor import (NonFiniteError, as_tensor, check_shape, ensure_finite, read_tensor,
                     write_tensor)


class AdmissibilityError(ValueError):
    """Raised when weights violate the convexity-certifying constraints."""


class WeightsFormatError(ValueError):
    """Raised for malformed weight containers."""


@dataclass(frozen=True)
class Activation:
    """Componentwise piecewise-linear activation.

    negative_slope is the slope left of the origin: 0 for relu, alpha in
    [0,1) for leaky relu, 1 for identity. That same slope is the declared
    subdifferential selection at the kink.
    """

    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("relu", "leaky_relu", "identity"):
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "leaky_relu" and not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"leaky_relu slope must lie in [0, 1), got {self.alpha}")

    @property
    def negative_slope(self) -> float:
        if self.kind == "relu":
            return 0.0
        if self.kind == "leaky_relu":
            return self.alpha
        return 1.0

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """max(t, a t), as t * derivative(t): the same bits for finite t."""
        return np.asarray(t, dtype=np.float64) * self.derivative(t)

    def derivative(self, t: np.ndarray) -> np.ndarray:
        """1 where t > 0, else a: branch-free, and exact as a + fl(1 - a) rounds to 1."""
        a = self.negative_slope
        return (t > 0.0) * (1.0 - a) + a


RELU = Activation("relu")


@dataclass(frozen=True)
class IcnnLayer:
    """One layer: activation(skip(x) + carry(z_prev) + bias), maybe residual.

    skip may be None for layers past the first (no direct path from the
    input); carry must be None on the first layer.
    """

    skip: object  # LinOp or None
    carry: object  # LinOp or None
    bias: np.ndarray
    activation: Activation
    residual: bool = False

    def __post_init__(self):
        object.__setattr__(self, "bias", ensure_finite(as_tensor(self.bias), "icnn bias"))

    @property
    def output_shape(self):
        op = self.skip if self.skip is not None else self.carry
        return tuple(op.output_shape)

    def preactivation(self, x, z_prev, skipped=None):
        """skip(x) + carry(z_prev) + bias in a fresh array; skipped, when given,
        is skip(x) already applied, and is only read."""
        if skipped is None and self.skip is not None:
            skipped = self.skip.apply(x)
        if self.carry is None:
            return skipped + self.bias
        s = self.carry.apply(z_prev)
        if skipped is not None:
            s += skipped
        s += self.bias
        return s

    def step(self, x, z_prev, skipped=None):
        """(activation slope at the preactivation, output); z_prev is None on
        the first layer, where a residual layer adds x instead."""
        out = self.preactivation(x, z_prev, skipped)
        slope = self.activation.derivative(out)
        out *= slope  # the activation, as in Activation.__call__
        if self.residual:
            out += x if z_prev is None else z_prev
        return slope, out


@dataclass(frozen=True)
class IcnnSpec:
    """Full network: input shape, layer chain, optional nonnegative readout."""

    input_shape: tuple
    layers: tuple
    head: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(s) for s in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.head is not None:
            object.__setattr__(self, "head", ensure_finite(as_tensor(self.head), "icnn head"))

    @property
    def depth(self) -> int:
        return len(self.layers)

    def readout_weights(self) -> np.ndarray:
        """Effective head vector: explicit head, or 1 for a scalar final layer."""
        if self.head is not None:
            return self.head
        return np.ones(self.layers[-1].output_shape)


@dataclass(frozen=True)
class Violation:
    layer: object  # 1-based layer index, or None for spec-level findings
    code: str
    detail: str

    def __str__(self):
        where = f"layer {self.layer}" if self.layer is not None else "spec"
        return f"{where}: {self.code}: {self.detail}"


@dataclass
class AdmissibilityReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, layer, code, detail):
        self.violations.append(Violation(layer, code, detail))

    def __str__(self):
        if self.ok:
            return "admissible"
        return "\n".join(str(v) for v in self.violations)


def _check_nonneg_op(report, layer_idx, op, label):
    low = linops.min_coefficient(op)
    if low is None:
        report.add(layer_idx, "uncertifiable_sign",
                   f"{label} ({op.kind}) nonnegativity cannot be certified")
    elif low < 0.0:
        where = ""
        if isinstance(op, linops.Dense):
            idx = np.unravel_index(int(np.argmin(op.matrix)), op.matrix.shape)
            where = f" at entry {tuple(int(i) for i in idx)}"
        elif isinstance(op, linops.Conv2D):
            idx = np.unravel_index(int(np.argmin(op.filters)), op.filters.shape)
            where = f" at filter entry {tuple(int(i) for i in idx)}"
        report.add(layer_idx, "negative_carry_weight",
                   f"{label} has negative coefficient {low:.9g}{where}")


def validate(spec: IcnnSpec) -> AdmissibilityReport:
    """Collect every violated admissibility constraint (empty report = ok)."""
    report = AdmissibilityReport()
    if not spec.layers:
        report.add(None, "empty_network", "at least one layer is required")
        return report
    prev_shape = None
    for i, layer in enumerate(spec.layers, start=1):
        if i == 1 and layer.skip is None:
            report.add(i, "missing_skip", "first layer needs the input path")
            continue
        if i == 1 and layer.carry is not None:
            report.add(i, "unexpected_carry", "first layer has no previous activation")
        if layer.skip is None and layer.carry is None:
            report.add(i, "empty_layer", "layer has neither input nor carry path")
            continue
        out_shape = layer.output_shape
        if layer.skip is not None:
            if tuple(layer.skip.input_shape) != spec.input_shape:
                report.add(i, "skip_shape",
                           f"input path expects {tuple(layer.skip.input_shape)}, "
                           f"network input is {spec.input_shape}")
            if tuple(layer.skip.output_shape) != out_shape:
                report.add(i, "path_shape",
                           f"input path output {tuple(layer.skip.output_shape)} "
                           f"!= layer output {out_shape}")
        if layer.carry is not None:
            if prev_shape is not None and tuple(layer.carry.input_shape) != prev_shape:
                report.add(i, "carry_shape",
                           f"carry path expects {tuple(layer.carry.input_shape)}, "
                           f"previous layer emits {prev_shape}")
            if tuple(layer.carry.output_shape) != out_shape:
                report.add(i, "path_shape",
                           f"carry path output {tuple(layer.carry.output_shape)} "
                           f"!= layer output {out_shape}")
            _check_nonneg_op(report, i, layer.carry, "carry path")
        if tuple(layer.bias.shape) != out_shape:
            report.add(i, "bias_shape",
                       f"bias shape {tuple(layer.bias.shape)} != layer output {out_shape}")
        if layer.residual:
            ref = prev_shape if i > 1 else spec.input_shape
            if ref != out_shape:
                report.add(i, "residual_shape",
                           f"residual needs matching shapes, input {ref} vs output {out_shape}")
        prev_shape = out_shape
    final_shape = spec.layers[-1].output_shape
    if spec.head is not None:
        if tuple(spec.head.shape) != final_shape:
            report.add(None, "head_shape",
                       f"head shape {tuple(spec.head.shape)} != final layer output {final_shape}")
        elif spec.head.size and float(spec.head.min()) < 0.0:
            idx = int(np.argmin(spec.head))
            report.add(None, "negative_head_weight",
                       f"head entry {idx} = {float(spec.head.min()):.9g}")
    elif int(np.prod(final_shape)) != 1:
        report.add(None, "non_scalar_output",
                   f"final layer output {final_shape} is not scalar and no head is set")
    return report


def require_admissible(spec: IcnnSpec) -> IcnnSpec:
    report = validate(spec)
    if not report.ok:
        raise AdmissibilityError(str(report))
    return spec


def forward(spec: IcnnSpec, x: np.ndarray, skips: list = None):
    """(value, trace of hidden activations); a list skips receives each skip(x) or None."""
    x = as_tensor(x)
    check_shape(x, spec.input_shape, "icnn forward input")
    trace = []
    z = None
    for i, layer in enumerate(spec.layers, start=1):
        if skips is not None:
            skips.append(None if layer.skip is None else layer.skip.apply(x))
        _, z = layer.step(x, z, skips[-1] if skips else None)
        if i < spec.depth:
            trace.append(z)
    value = float(np.vdot(spec.readout_weights(), z))
    return value, trace


def value_and_subgradient(spec: IcnnSpec, x: np.ndarray):
    """Regularizer value plus a reverse-mode subgradient in one sweep.

    Kinks take the left-branch slope (0 for relu, the negative slope for
    leaky relu), a fixed and therefore reproducible selection.
    """
    x = as_tensor(x)
    check_shape(x, spec.input_shape, "icnn subgradient input")
    slopes = []
    z = None
    for layer in spec.layers:
        slope, z = layer.step(x, z)
        slopes.append(slope)
    value = float(np.vdot(spec.readout_weights(), z))
    x_terms = []  # summed in order into the first, an array the sweep owns
    cot = spec.readout_weights().copy()
    for i in range(spec.depth, 0, -1):
        layer = spec.layers[i - 1]
        d_pre = slopes[i - 1]
        d_pre *= cot
        if layer.residual and i == 1:
            x_terms.append(cot)
        if layer.skip is not None:
            x_terms.append(layer.skip.adjoint(d_pre))
        if i > 1:
            below = (layer.carry.adjoint(d_pre) if layer.carry is not None
                     else np.zeros(spec.layers[i - 2].output_shape))
            if layer.residual:
                below += cot
            cot = below
    grad_x = x_terms[0]
    for term in x_terms[1:]:
        grad_x += term
    return value, grad_x


# --- random admissible specs -------------------------------------------------

@dataclass(frozen=True)
class DenseTemplate:
    """Fully-connected chain on a flat input.

    hidden_dims are the widths of z_1..z_{L-1}; readout_dim is the width of
    the final preactivation, read out through a nonnegative head vector.
    residual_layers lists 1-based hidden layers that get a residual pass.
    skip_all gives every layer a direct path from the input.
    """

    input_dim: int
    hidden_dims: tuple
    readout_dim: int = 1
    hidden_alpha: float = 0.2
    final_activation: str = "relu"
    skip_all: bool = False
    residual_layers: tuple = ()


@dataclass(frozen=True)
class ConvPoolDenseTemplate:
    """Convolution + pooling + fully-connected readout on a square image."""

    side: int
    filters: int = 8
    kernel: int = 5
    pool: int = 8
    hidden: int = 16
    alpha: float = 0.2


def random_admissible(seed: int, template) -> IcnnSpec:
    """Draw admissible weights for the template, deterministically per seed."""
    rng = np.random.default_rng(seed)
    if isinstance(template, DenseTemplate):
        spec = _random_dense(rng, template)
    elif isinstance(template, ConvPoolDenseTemplate):
        spec = _random_conv(rng, template)
    else:
        raise TypeError(f"unsupported template type {type(template).__name__}")
    return require_admissible(spec)


def _random_dense(rng, tpl: DenseTemplate) -> IcnnSpec:
    dims = list(tpl.hidden_dims) + [tpl.readout_dim]
    layers = []
    prev = None
    for i, width in enumerate(dims, start=1):
        final = i == len(dims)
        residual = (not final) and i in tpl.residual_layers
        if residual and width != (prev if i > 1 else tpl.input_dim):
            raise ValueError(f"residual layer {i} needs width {prev or tpl.input_dim}")
        skip = None
        if i == 1 or tpl.skip_all:
            skip = linops.Dense(rng.normal(0.0, 1.0, (width, tpl.input_dim))
                                / np.sqrt(tpl.input_dim))
        carry = None
        if i > 1:
            carry = linops.Dense(rng.uniform(0.0, 1.0, (width, prev)) / np.sqrt(prev))
        bias = rng.normal(0.0, 0.3, width)
        act = Activation("leaky_relu", tpl.hidden_alpha) if not final else \
            Activation(tpl.final_activation,
                       tpl.hidden_alpha if tpl.final_activation == "leaky_relu" else 0.0)
        layers.append(IcnnLayer(skip, carry, bias, act, residual))
        prev = width
    head = rng.uniform(0.2, 1.0, tpl.readout_dim) / tpl.readout_dim
    return IcnnSpec((tpl.input_dim,), layers, head)


def _random_conv(rng, tpl: ConvPoolDenseTemplate) -> IcnnSpec:
    if tpl.side % tpl.pool:
        raise ValueError(f"pool {tpl.pool} does not divide side {tpl.side}")
    filters = rng.normal(0.0, 1.0, (tpl.filters, tpl.kernel, tpl.kernel))
    # zero-centered filters respond to structure, not brightness, which keeps
    # the downstream relus straddling their kinks on [0, 1] images
    filters -= filters.mean(axis=(1, 2), keepdims=True)
    conv = linops.Conv2D(filters / tpl.kernel, (tpl.side, tpl.side))
    bias1 = rng.normal(0.0, 0.05, conv.output_shape)
    layer1 = IcnnLayer(conv, None, bias1, Activation("leaky_relu", tpl.alpha))
    pool = linops.AvgPool2D(tpl.pool, conv.output_shape)
    pooled = int(np.prod(pool.output_shape))
    fc = linops.Dense(rng.uniform(0.0, 1.0, (tpl.hidden, pooled)) / np.sqrt(pooled),
                      input_shape=pool.output_shape)
    carry = linops.Compose([pool, fc])
    bias2 = rng.normal(0.0, 0.05, tpl.hidden)
    layer2 = IcnnLayer(None, carry, bias2, RELU)
    head = rng.uniform(0.2, 1.0, tpl.hidden) / tpl.hidden
    return IcnnSpec((tpl.side, tpl.side), (layer1, layer2), head)


# --- weights container --------------------------------------------------------

MANIFEST_NAME = "manifest.json"


def save_weights(spec: IcnnSpec, path) -> None:
    """Write a weights directory: manifest.json plus one blob per tensor."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    def saver(prefix):
        def save_blob(hint, arr):
            fname = f"{prefix}_{hint}.tnsb"
            write_tensor(path / fname, arr)
            return fname
        return save_blob

    layers_cfg = []
    for i, layer in enumerate(spec.layers):
        save_blob = saver(f"layer{i}")
        cfg = {
            "skip": linops.op_to_config(layer.skip, save_blob) if layer.skip is not None else None,
            "carry": linops.op_to_config(layer.carry, save_blob) if layer.carry is not None else None,
            "bias": save_blob("bias", layer.bias),
            "activation": {"kind": layer.activation.kind, "alpha": layer.activation.alpha},
            "residual": layer.residual,
        }
        layers_cfg.append(cfg)
    manifest = {
        "format": "icnn-weights",
        "version": 1,
        "input_shape": list(spec.input_shape),
        "layers": layers_cfg,
        "head": None,
    }
    if spec.head is not None:
        write_tensor(path / "head.tnsb", spec.head)
        manifest["head"] = "head.tnsb"
    with open(path / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_weights(path, allow_inadmissible: bool = False) -> IcnnSpec:
    """Load a weights directory; rejects inadmissible weights unless overridden."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise WeightsFormatError(f"{path}: missing {MANIFEST_NAME}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise WeightsFormatError(f"{manifest_path}: invalid JSON: {exc}") from exc
    if manifest.get("format") != "icnn-weights":
        raise WeightsFormatError(f"{manifest_path}: not an icnn-weights manifest")

    loaded = []

    def load_blob(fname):
        blob = path / fname
        if not blob.exists():
            raise WeightsFormatError(f"{path}: manifest references missing blob {fname!r}")
        loaded.append(fname)
        return read_tensor(blob)

    try:
        layers = []
        for cfg in manifest["layers"]:
            act_cfg = cfg["activation"]
            layers.append(IcnnLayer(
                skip=linops.op_from_config(cfg["skip"], load_blob) if cfg["skip"] else None,
                carry=linops.op_from_config(cfg["carry"], load_blob) if cfg["carry"] else None,
                bias=load_blob(cfg["bias"]),
                activation=Activation(act_cfg["kind"], act_cfg.get("alpha", 0.0)),
                residual=bool(cfg.get("residual", False)),
            ))
        head = load_blob(manifest["head"]) if manifest.get("head") else None
        spec = IcnnSpec(tuple(manifest["input_shape"]), layers, head)
    except KeyError as exc:
        raise WeightsFormatError(f"{manifest_path}: missing field {exc}") from exc
    except NonFiniteError as exc:  # objects are built right after their blob is read
        raise WeightsFormatError(f"{path}: blob {loaded[-1]!r} refused: {exc}") from exc
    report = validate(spec)
    if not report.ok and not allow_inadmissible:
        raise AdmissibilityError(f"{path}: {report}")
    return spec
