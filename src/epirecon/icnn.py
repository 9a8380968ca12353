"""Input-convex network regularizers: evaluation, subgradients, admissibility.

A network is a chain of layers z_i = act(skip(x) + carry(z_{i-1}) + bias),
optionally residual (z_i additionally gains z_{i-1}, or x for the first
layer). The scalar output is act(s_L) for a scalar final preactivation s_L,
or head . act(s_L) when a nonnegative readout vector `head` is present.
Convexity in x holds whenever every carry path is entrywise nonnegative and
every activation is convex and non-decreasing; validate() certifies this.
"""

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import linops
from .tensor import (NonFiniteError, as_array, as_count, as_real, as_shape, as_tensor,
                     check_shape, read_tensor, write_tensor)


class AdmissibilityError(ValueError):
    """Raised when weights violate the convexity-certifying constraints."""


class WeightsFormatError(ValueError):
    """Raised for malformed weight containers."""


@dataclass(frozen=True)
class Activation:
    """Componentwise piecewise-linear activation.

    negative_slope is the slope left of the origin: 0 for relu, alpha in
    [0,1) for leaky relu, 1 for identity. That same slope is the declared
    subdifferential selection at the kink. Only leaky relu takes an alpha.
    """

    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("relu", "leaky_relu", "identity"):
            raise ValueError(f"unknown activation kind {self.kind!r}")
        leaky = self.kind == "leaky_relu"
        if leaky:
            object.__setattr__(self, "alpha", as_real(self.alpha, "leaky_relu alpha"))
        if not (0.0 <= self.alpha < 1.0 if leaky else self.alpha == 0.0):
            raise ValueError(f"{self.kind} alpha must {'lie in [0, 1)' if leaky else 'be 0'}, "
                             f"got {self.alpha!r}")

    @property
    def negative_slope(self) -> float:
        if self.kind == "relu":
            return 0.0
        if self.kind == "leaky_relu":
            return self.alpha
        return 1.0

    def __call__(self, t: np.ndarray, out=None) -> np.ndarray:
        """max(t, a t) for a > 0, else t * (t > 0): in two passes the bits of
        t * derivative(t) on every float (max(t, 0 t) would make +inf NaN)."""
        t, a = np.asarray(t, dtype=np.float64), self.negative_slope
        return np.maximum(t, t * a, out=out) if a > 0.0 else np.multiply(t, t > 0.0, out=out)

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
        object.__setattr__(self, "bias", as_array(self.bias, "icnn bias"))
        if not isinstance(self.residual, bool):  # bool() would read [] as False
            raise TypeError(f"residual: expected a flag, got {self.residual!r}")

    @property
    def output_shape(self):
        op = self.skip if self.skip is not None else self.carry
        return tuple(op.output_shape)

    def preactivation(self, x, z_prev, row=None):
        """skip(x) + carry(z_prev) + bias, summed into the fresh array the carry
        path returns, or the skip path on a layer without a carry; row, when
        given, is skip(x) + carry(z_prev) (PDHG keeps it), so nothing is applied."""
        if row is not None:
            return row + self.bias
        s = self.skip.apply(x) if self.carry is None else self.carry.apply(z_prev)
        if self.carry is not None and self.skip is not None:
            s += self.skip.apply(x)
        s += self.bias
        return s

    def output(self, x, z_prev, row=None):
        """activation(preactivation), plus z_prev when residual; z_prev is None
        on the first layer, where a residual layer adds x instead."""
        out = self.preactivation(x, z_prev, row)
        self.activation(out, out=out)
        if self.residual:
            out += x if z_prev is None else z_prev
        return out

    def step(self, x, z_prev):
        """(activation slope at the preactivation, output), as in output."""
        out = self.preactivation(x, z_prev)
        slope = self.activation.derivative(out)
        out *= slope  # the activation's bits
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
        object.__setattr__(self, "input_shape", as_shape(self.input_shape, "input_shape", least=1))
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.head is not None:
            object.__setattr__(self, "head", as_array(self.head, "icnn head"))

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
        if layer.skip is None and layer.carry is None:  # no output shape to check on
            report.add(i, "empty_layer", "layer has neither input nor carry path")
            return report
        out_shape = layer.output_shape  # the input path's, when there is one
        if layer.skip is not None and tuple(layer.skip.input_shape) != spec.input_shape:
            report.add(i, "skip_shape", f"input path expects {tuple(layer.skip.input_shape)}, "
                                        f"network input is {spec.input_shape}")
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


def forward(spec: IcnnSpec, x: np.ndarray, first=None):
    """(value, trace of hidden activations); first, when given, is layer 1's
    skip(x) (PDHG keeps it), so layer 1 applies nothing."""
    x = as_tensor(x)
    check_shape(x, spec.input_shape, "icnn forward input")
    trace, z = [], None
    for layer in spec.layers:
        z = layer.output(x, z, first if z is None else None)
        trace.append(z)
    return float(np.vdot(spec.readout_weights(), z)), trace[:-1]


def value_and_subgradient(spec: IcnnSpec, x: np.ndarray):
    """Regularizer value plus a reverse-mode subgradient in one sweep.

    Kinks take the left-branch slope (0 for relu, the negative slope for
    leaky relu), a fixed and therefore reproducible selection.
    """
    x = as_tensor(x)
    check_shape(x, spec.input_shape, "icnn subgradient input")
    slopes, z = [], None
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
    tpl = replace(tpl, **{name: as_count(getattr(tpl, name), 1, name)  # named before the draws
                          for name in ("input_dim", "readout_dim")},
                  hidden_dims=as_shape(tpl.hidden_dims, "hidden_dims", 1),
                  hidden_alpha=as_real(tpl.hidden_alpha, "hidden_alpha"))
    dims = list(tpl.hidden_dims) + [tpl.readout_dim]
    layers = []
    prev = None
    for i, width in enumerate(dims, start=1):
        final = i == len(dims)
        residual = (not final) and i in tpl.residual_layers
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
    tpl = replace(tpl, **{name: as_count(getattr(tpl, name), 1, name)  # named before the draws
                          for name in ("side", "filters", "kernel", "pool", "hidden")})
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

MANIFEST_NAME, MANIFEST_VERSION = "manifest.json", 1


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
        layers_cfg.append({
            "skip": linops.op_to_config(layer.skip, save_blob) if layer.skip is not None else None,
            "carry": linops.op_to_config(layer.carry, save_blob) if layer.carry is not None else None,
            "bias": save_blob("bias", layer.bias),
            "activation": {"kind": layer.activation.kind, "alpha": layer.activation.alpha},
            "residual": layer.residual,
        })
    if spec.head is not None:
        write_tensor(path / "head.tnsb", spec.head)
    manifest = {"format": "icnn-weights", "version": MANIFEST_VERSION,
                "input_shape": list(spec.input_shape),
                "layers": layers_cfg, "head": None if spec.head is None else "head.tnsb"}
    with open(path / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_weights(path) -> IcnnSpec:
    """Load a weights directory; rejects inadmissible weights."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise WeightsFormatError(f"{path}: missing {MANIFEST_NAME}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise WeightsFormatError(f"{manifest_path}: invalid JSON: {exc}") from exc
    loaded = []

    def load_blob(fname):
        if not (path / fname).is_file():  # path / a non-string raises a TypeError
            raise ValueError(f"missing blob {fname!r}")
        loaded.append(fname)
        return read_tensor(path / fname)

    entry = "format"  # the manifest entry being read, for error messages
    try:
        if not isinstance(manifest, dict) or manifest.get("format") != "icnn-weights":
            raise ValueError("not an icnn-weights manifest")
        entry = "version"
        version = manifest["version"]
        if type(version) is not int or version != MANIFEST_VERSION:  # nor 1.0 nor true
            raise ValueError(f"unsupported version {version!r}, expected {MANIFEST_VERSION}")
        layers, entry = [], "layers"
        for i, cfg in enumerate(manifest["layers"]):
            entry = f"layers[{i}]"
            act_cfg = cfg["activation"]
            layers.append(IcnnLayer(
                *[None if cfg[k] is None else linops.op_from_config(cfg[k], load_blob)
                  for k in ("skip", "carry")],  # a mapping each, or null for none
                bias=load_blob(cfg["bias"]),
                activation=Activation(act_cfg["kind"], act_cfg.get("alpha", 0.0)),
                residual=cfg.get("residual", False),
            ))
        entry = "network"
        head = None if manifest.get("head") is None else load_blob(manifest["head"])
        spec = IcnnSpec(tuple(manifest["input_shape"]), layers, head)
    except KeyError as exc:
        raise WeightsFormatError(f"{manifest_path}: missing field {exc}") from exc
    except NonFiniteError as exc:  # objects are built right after their blob is read
        raise WeightsFormatError(f"{path}: blob {loaded[-1]!r} refused: {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:  # a value a constructor refused
        raise WeightsFormatError(f"{manifest_path}: {entry} refused: {exc}") from exc
    report = validate(spec)
    if not report.ok:
        raise AdmissibilityError(f"{manifest_path}: network refused: {report}")
    return spec
