"""Block primal-dual solver for the epigraph-constrained reformulation,
plus step-size certification and subgradient baselines.

The solver runs the three-phase update (proximal primal step, extrapolation
with factor 1, per-block dual proxes) over the stacked primal
u = (x, z_1, ..., z_{L-1}). Hidden-layer duals are handled through the
leaky-relu epigraph projection, the final-layer dual through the readout
conjugate clip, and a dualized data term through its conjugate prox. Step
sizes are derived from certified operator-norm bounds so that the diagonal
preconditioner satisfies the contraction condition.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import icnn as icnn_mod
from . import prox
from .blocks import BlockAssembly, assemble_blocks
from .icnn import IcnnSpec, require_admissible
from .linops import DiagonalMask, estimate_norm
from .tensor import NonFiniteError, as_tensor, check_shape


class CertificationError(ValueError):
    """Raised when a step-size configuration violates its norm inequality."""


class DivergenceError(RuntimeError):
    """Raised when an iterate stops being finite."""

    def __init__(self, iteration, where):
        self.iteration = iteration
        self.where = where
        super().__init__(f"non-finite iterate in {where} at iteration {iteration}")


# --- problem description ------------------------------------------------------

@dataclass(frozen=True)
class Fidelity:
    """Data term f(A x; y); `dualize` moves it to a dual block.

    Each subclass gives value(fwd, y) -> (value, left the domain),
    residual_subgradient(fwd, y) in measurement space, conjugate_prox and,
    where one exists, primal_prox. bind() validates the term against the
    forward operator and measurement once, when the ProblemSpec is built.
    """

    weight: float = 1.0
    dualize: bool = False

    def __post_init__(self):
        if self.weight <= 0.0:
            raise ValueError(f"fidelity weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class L1Fidelity(Fidelity):
    """weight * |A x - y|_1; kept primal only with the identity forward."""

    def bind(self, forward, measurement):
        if not self.dualize and forward is not None:
            raise ValueError("l1 fidelity kept primal requires an identity forward; "
                             "set dualize=True for a general operator")
        return self

    def value(self, fwd, y):
        return self.weight * float(np.sum(np.abs(fwd - y))), False

    def residual_subgradient(self, fwd, y):
        return self.weight * np.sign(fwd - y)

    def conjugate_prox(self, wbar, sigma, y):
        return prox.l1_conjugate_prox(wbar, sigma, self.weight, y)

    def primal_prox(self, xbar, tau, y, forward):
        return prox.soft_shrink(xbar, tau * self.weight, y)


@dataclass(frozen=True)
class L2Fidelity(Fidelity):
    """(weight/2) * |A x - y|^2; kept primal with an identity or diagonal forward."""

    def bind(self, forward, measurement):
        if not self.dualize and forward is not None \
                and not isinstance(forward, DiagonalMask):
            raise ValueError("l2 fidelity kept primal requires a diagonal forward; "
                             "set dualize=True for a general operator")
        return self

    def value(self, fwd, y):
        diff = fwd - y
        return 0.5 * self.weight * float(np.vdot(diff, diff)), False

    def residual_subgradient(self, fwd, y):
        return self.weight * (fwd - y)

    def conjugate_prox(self, wbar, sigma, y):
        return prox.l2_conjugate_prox(wbar, sigma, y, self.weight)

    def primal_prox(self, xbar, tau, y, forward):
        diag = forward.mask if isinstance(forward, DiagonalMask) else 1.0
        return (xbar + tau * self.weight * diag * y) / (1.0 + tau * self.weight * diag * diag)


@dataclass(frozen=True)
class KLFidelity(Fidelity):
    """Poisson term sum(A x + b - y) + y.log(y / (A x + b)); it has no primal prox."""

    background: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        if self.background is None:
            raise ValueError("kl fidelity needs a background level")
        if not self.dualize:
            raise ValueError("kl fidelity has no primal prox; set dualize=True")

    def bind(self, forward, measurement):
        bg = as_tensor(np.broadcast_to(self.background, measurement.shape))
        return replace(self, background=bg)

    def value(self, fwd, y):
        mean = fwd + self.background
        bad = ((y > 0.0) & (mean <= 0.0)) | ((y <= 0.0) & (mean < 0.0))
        if np.any(bad):
            return float("inf"), True
        val = float(np.sum(fwd - y + self.background))
        pos = y > 0.0
        val += float(np.sum(y[pos] * np.log(y[pos] / mean[pos])))
        return val, False

    def residual_subgradient(self, fwd, y):
        mean = fwd + self.background
        if np.any(mean <= 0.0):
            raise ValueError("kl fidelity domain (forward + background <= 0)")
        return 1.0 - y / mean

    def conjugate_prox(self, wbar, sigma, y):
        return prox.kl_conjugate_prox(wbar, sigma, y, self.background)


def l1_fidelity(weight, dualize=False):
    return L1Fidelity(weight, dualize)


def l2_fidelity(weight=1.0, dualize=False):
    return L2Fidelity(weight, dualize)


def kl_fidelity(background, dualize=True):
    return KLFidelity(dualize=dualize, background=background)


@dataclass(frozen=True)
class ProblemSpec:
    """One reconstruction instance: fidelity, forward map, data, regularizer."""

    fidelity: Fidelity
    forward: object  # LinOp or None (identity)
    measurement: np.ndarray
    reg_weight: float
    regularizer: IcnnSpec
    nonneg: bool = False

    def __post_init__(self):
        object.__setattr__(self, "measurement", as_tensor(self.measurement))
        if self.reg_weight < 0.0:
            raise ValueError(f"reg_weight must be nonnegative, got {self.reg_weight}")
        require_admissible(self.regularizer)
        expected = (tuple(self.forward.output_shape) if self.forward is not None
                    else tuple(self.regularizer.input_shape))
        check_shape(self.measurement, expected, "measurement")
        if self.forward is not None:
            check_shape(np.empty(self.forward.input_shape), self.regularizer.input_shape,
                        "forward operator input")
        object.__setattr__(self, "fidelity",
                           self.fidelity.bind(self.forward, self.measurement))

    def apply_forward(self, x):
        return x if self.forward is None else self.forward.apply(x)

    def adjoint_forward(self, w):
        return w if self.forward is None else self.forward.adjoint(w)


# --- objectives ---------------------------------------------------------------

@dataclass(frozen=True)
class ObjectiveReport:
    primal: float          # fidelity + gamma * regularizer at x
    reformulated: float    # fidelity + gamma * final-layer term at (x, z)
    feasibility: float     # largest positive epigraph-constraint violation
    data_term: float
    reg_term: float
    infeasible_data: bool = False


def evaluate_objectives(problem: ProblemSpec, x, z=None) -> ObjectiveReport:
    """Objectives of the nested and the constrained formulation at (x, z).

    With z equal to the network trace the two objectives agree and the
    feasibility residual is zero; any z >= trace layerwise keeps feasibility
    zero and can only raise the reformulated value.
    """
    spec = problem.regularizer
    reg_value, _ = icnn_mod.forward(spec, x)
    data, infeasible = problem.fidelity.value(problem.apply_forward(x),
                                              problem.measurement)
    reg_term = problem.reg_weight * reg_value
    primal = data + reg_term
    if z is None:
        return ObjectiveReport(primal, primal, 0.0, data, reg_term, infeasible)
    if len(z) != spec.depth - 1:
        raise ValueError(f"expected {spec.depth - 1} auxiliary tensors, got {len(z)}")
    feas = 0.0
    prev = None
    for i, layer in enumerate(spec.layers, start=1):
        s = layer.preactivation(x, prev)
        implied = layer.activation(s)
        if layer.residual:
            implied = implied + (prev if i > 1 else x)
        if i < spec.depth:
            gap = implied - z[i - 1]
            feas = max(feas, float(np.max(np.maximum(gap, 0.0), initial=0.0)))
            prev = z[i - 1]
        else:
            final_term = float(np.vdot(spec.readout_weights(), implied))
    reformulated = data + problem.reg_weight * final_term
    return ObjectiveReport(primal, reformulated, feas, data, reg_term, infeasible)


# --- step sizes ---------------------------------------------------------------

def assemble_problem(problem: ProblemSpec) -> BlockAssembly:
    """Dual blocks of the problem; a dualized fidelity leads as its own block."""
    if problem.fidelity.dualize and problem.forward is None:
        raise ValueError("dualized fidelity needs an explicit forward operator")
    return assemble_blocks(
        problem.regularizer,
        forward=problem.forward if problem.fidelity.dualize else None)


@dataclass(frozen=True)
class EntryNorm:
    value: float
    exact: bool
    converged: bool = True
    iterations: int = 0


def certify_norms(assembly: BlockAssembly, tol=1e-6, max_iters=500, seed=0) -> dict:
    """Norm bound per block entry: exact where known, power iteration otherwise."""
    norms = {}
    counter = 0
    for bi, block in enumerate(assembly.blocks):
        for ri, row in enumerate(block.operator.rows):
            for ei, (_, op) in enumerate(row.entries):
                if op.norm_bound is not None:
                    norms[(bi, ri, ei)] = EntryNorm(float(op.norm_bound), True)
                else:
                    est = estimate_norm(op, tol=tol, max_iters=max_iters, seed=seed + counter)
                    norms[(bi, ri, ei)] = EntryNorm(est.value, False, est.converged,
                                                    est.iterations)
                counter += 1
    return norms


@dataclass(frozen=True)
class StepSizes:
    """Primal steps per slot, dual steps per block, and their certificates."""

    tau: tuple
    sigma: tuple
    scales: tuple
    norms: dict
    certificates: dict
    inflation: float


def compute_step_sizes(assembly: BlockAssembly, scales=None, norms=None,
                       inflation=1.01, norm_seed=0) -> StepSizes:
    """Diagonal steps satisfying the preconditioned contraction condition.

    Per dual block, sigma = scale / max(preactivation-row norms)^2; per
    primal slot, tau = 1 / sum of (row-width * sigma * norm^2) over every
    entry touching the slot. Estimated norms are inflated by the given
    safety factor so the strict inequality survives estimation error.
    """
    if norms is None:
        norms = certify_norms(assembly, seed=norm_seed)
    expected = {(bi, ri, ei) for bi, block in enumerate(assembly.blocks)
                for ri, row in enumerate(block.operator.rows)
                for ei in range(len(row.entries))}
    missing = sorted(expected - norms.keys())
    if missing:
        raise CertificationError(f"no norm bound for entry {missing[0]}")
    extra = sorted(norms.keys() - expected, key=repr)
    if extra:
        raise CertificationError(f"norm bound for entry {extra[0]!r}, which the "
                                 "block assembly does not have")
    nblocks = len(assembly.blocks)
    if scales is None:
        scales = (1.0,) * nblocks
    scales = tuple(float(s) for s in scales)
    if len(scales) != nblocks:
        raise ValueError(f"need {nblocks} dual scales, got {len(scales)}")
    if any(s <= 0.0 for s in scales):
        raise ValueError("dual scales must be positive")

    def bound(key):
        en = norms[key]
        if en.value < 0.0 or not np.isfinite(en.value):
            raise CertificationError(f"invalid norm bound {en.value} for entry {key}")
        return en.value if en.exact else en.value * inflation

    sigma = []
    for bi, block in enumerate(assembly.blocks):
        row_norms = [bound((bi, 0, ei)) for ei in range(len(block.operator.rows[0].entries))]
        peak = max(row_norms) if row_norms else 0.0
        sigma.append(scales[bi] / peak ** 2 if peak > 0.0 else scales[bi])
    nslots = len(assembly.primal_shapes)
    denominators = [0.0] * nslots
    terms = [[] for _ in range(nslots)]
    for bi, block in enumerate(assembly.blocks):
        for ri, row in enumerate(block.operator.rows):
            width = len(row.entries)
            for ei, (slot, _) in enumerate(row.entries):
                b = bound((bi, ri, ei))
                denominators[slot] += width * sigma[bi] * b * b
                terms[slot].append((width * sigma[bi], b))
    tau = []
    certificates = {}
    for slot, denom in enumerate(denominators):
        if denom <= 0.0:
            raise CertificationError(f"primal slot {slot} is not touched by any dual block")
        tau.append(1.0 / denom)
        certificates[slot] = (tau[slot] * denom, tuple(terms[slot]))
    for slot, (value, _) in certificates.items():
        if value > 1.0 + 1e-9:
            raise CertificationError(
                f"contraction certificate violated at primal slot {slot}: {value} > 1")
    return StepSizes(tuple(tau), tuple(sigma), scales, dict(norms),
                     certificates, inflation)


# --- iterate containers -------------------------------------------------------

@dataclass
class SaddleState:
    x: np.ndarray
    z: list
    x_relaxed: np.ndarray
    z_relaxed: list
    duals: list  # one list of row arrays per dual block
    iteration: int = 0

    def primal(self):
        return [self.x] + list(self.z)

    def relaxed(self):
        return [self.x_relaxed] + list(self.z_relaxed)


CSV_HEADER = "iter,objective_P,objective_P1,data_term,reg_term,feasibility,psnr,seconds"


@dataclass
class RunMetrics:
    """Per-iteration records of one solver run."""

    iterations: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    reformulated: list = field(default_factory=list)
    data_term: list = field(default_factory=list)
    reg_term: list = field(default_factory=list)
    feasibility: list = field(default_factory=list)
    psnr: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def record(self, iteration, report: ObjectiveReport, psnr_value, elapsed):
        self.iterations.append(int(iteration))
        self.objective.append(report.primal)
        self.reformulated.append(report.reformulated)
        self.data_term.append(report.data_term)
        self.reg_term.append(report.reg_term)
        self.feasibility.append(report.feasibility)
        self.psnr.append(float("nan") if psnr_value is None else psnr_value)
        self.seconds.append(elapsed)

    def running_min_objective(self):
        return list(np.minimum.accumulate(self.objective)) if self.objective else []

    def rows(self, timing=False):
        for k in range(len(self.iterations)):
            secs = self.seconds[k] if timing else 0.0
            yield (self.iterations[k], self.objective[k], self.reformulated[k],
                   self.data_term[k], self.reg_term[k], self.feasibility[k],
                   self.psnr[k], secs)

    def write_csv(self, path, timing=False):
        """Deterministic CSV: 17 significant digits, timing zeroed unless asked."""
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in self.rows(timing=timing):
                fh.write(f"{row[0]}," + ",".join(f"{v:.17g}" for v in row[1:]) + "\n")


# --- initialization -----------------------------------------------------------

def default_initial_image(problem: ProblemSpec) -> np.ndarray:
    """Measurement itself for (masked) identity forwards, else a
    least-squares-scaled backprojection."""
    if problem.forward is None:
        x0 = problem.measurement.copy()
    elif isinstance(problem.forward, DiagonalMask):
        x0 = problem.forward.adjoint(problem.measurement)
    else:
        bp = problem.adjoint_forward(problem.measurement)
        resp = problem.apply_forward(bp)
        denom = float(np.vdot(resp, resp))
        scale = float(np.vdot(resp, problem.measurement)) / denom if denom > 0.0 else 0.0
        x0 = scale * bp
    if problem.nonneg:
        x0 = np.maximum(x0, 0.0)
    return x0


def initial_state(problem: ProblemSpec, assembly: BlockAssembly,
                  init_x=None) -> SaddleState:
    """Feasible start: trace auxiliaries at the initial image, zero duals."""
    x0 = as_tensor(init_x) if init_x is not None else default_initial_image(problem)
    check_shape(x0, problem.regularizer.input_shape, "initial image")
    _, trace = icnn_mod.forward(problem.regularizer, x0)
    duals = [[np.zeros(s) for s in block.operator.output_shapes] for block in assembly.blocks]
    return SaddleState(x=x0, z=[t.copy() for t in trace],
                       x_relaxed=x0.copy(), z_relaxed=[t.copy() for t in trace],
                       duals=duals)


# --- dual proxes --------------------------------------------------------------

def _dual_update(problem, block, sigma, current, applied, cap):
    if block.kind == "fidelity":
        tilde = current[0] + sigma * applied[0]
        return [problem.fidelity.conjugate_prox(tilde, sigma, problem.measurement)]
    if block.kind == "epigraph":
        bias = block.shift[0]
        tilde_p = current[0] + sigma * applied[0]
        tilde_q = current[1] + sigma * applied[1]
        proj_p, proj_q = prox.project_epigraph_leaky_relu(
            block.negative_slope, tilde_p / sigma + bias, tilde_q / sigma)
        return [tilde_p - sigma * (proj_p - bias), tilde_q - sigma * proj_q]
    tilde = current[0] + sigma * applied[0]
    return [prox.readout_conjugate_prox(tilde, sigma, cap, block.shift[0],
                                        block.negative_slope)]


def _check_finite(state: SaddleState, iteration):
    if not np.all(np.isfinite(state.x)):
        raise DivergenceError(iteration, "primal image")
    for j, zj in enumerate(state.z, start=1):
        if not np.all(np.isfinite(zj)):
            raise DivergenceError(iteration, f"auxiliary block {j}")
    for bi, rows in enumerate(state.duals):
        for arr in rows:
            if not np.all(np.isfinite(arr)):
                raise DivergenceError(iteration, f"dual block {bi}")


# --- the solver ---------------------------------------------------------------

def pdhg_solve(problem: ProblemSpec, steps: StepSizes = None, *, budget: int,
               scales=None, init_x=None, init: SaddleState = None,
               ground_truth=None, metrics_every: int = 1, norm_seed: int = 0):
    """Run the block primal-dual iteration for `budget` iterations.

    Returns (final SaddleState, RunMetrics). Step sizes are derived (and
    certified) from power-iteration norm bounds unless given. metrics_every
    controls how often objectives are evaluated; the final iterate is
    always recorded. A supplied init state is advanced in place, which is
    what makes warm restarts cheap.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    assembly = assemble_problem(problem)
    if steps is None:
        steps = compute_step_sizes(assembly, scales=scales, norm_seed=norm_seed)
    if len(steps.tau) != len(assembly.primal_shapes) or \
            len(steps.sigma) != len(assembly.blocks):
        raise CertificationError("step sizes do not match the block structure")
    state = init if init is not None else initial_state(problem, assembly, init_x)
    from .tasks import psnr as psnr_fn

    metrics = RunMetrics()
    metrics.notes["solver"] = "pdhg"
    metrics.notes["step_sizes"] = steps
    started = time.perf_counter()

    def observe(iteration):
        try:
            report = evaluate_objectives(problem, state.x, state.z)
        except NonFiniteError as exc:
            raise DivergenceError(iteration, "objective evaluation") from exc
        pv = psnr_fn(state.x, ground_truth) if ground_truth is not None else None
        metrics.record(iteration, report, pv, time.perf_counter() - started)

    _check_finite(state, state.iteration)
    observe(state.iteration)
    tau = steps.tau
    cap = problem.reg_weight * problem.regularizer.readout_weights()
    for _ in range(budget):
        k = state.iteration + 1
        primal = state.primal()
        grads = [np.zeros(s) for s in assembly.primal_shapes]
        for bi, block in enumerate(assembly.blocks):
            try:
                adj = block.operator.adjoint(state.duals[bi])
            except NonFiniteError as exc:
                raise DivergenceError(k, f"dual block {bi} ({block.kind})") from exc
            for j in range(len(grads)):
                grads[j] += adj[j]
        new_x = primal[0] - tau[0] * grads[0]
        if not problem.fidelity.dualize:
            new_x = problem.fidelity.primal_prox(new_x, tau[0], problem.measurement,
                                                 problem.forward)
        if problem.nonneg:
            new_x = np.maximum(new_x, 0.0)
        new_z = [primal[j] - tau[j] * grads[j] for j in range(1, len(primal))]
        state.x_relaxed = 2.0 * new_x - state.x
        state.z_relaxed = [2.0 * nz - oz for nz, oz in zip(new_z, state.z)]
        state.x, state.z = new_x, new_z
        if not np.all(np.isfinite(new_x)):
            raise DivergenceError(k, "primal image")
        relaxed = state.relaxed()
        for bi, block in enumerate(assembly.blocks):
            try:
                applied = block.operator.apply(relaxed)
                state.duals[bi] = _dual_update(problem, block, steps.sigma[bi],
                                               state.duals[bi], applied, cap)
            except NonFiniteError as exc:
                raise DivergenceError(k, f"dual block {bi} ({block.kind})") from exc
        state.iteration = k
        _check_finite(state, k)
        if metrics_every and k % metrics_every == 0:
            observe(k)
    if metrics.iterations[-1] != state.iteration:
        observe(state.iteration)
    return state, metrics


# --- subgradient baselines ----------------------------------------------------

@dataclass(frozen=True)
class ConstantStep:
    step: float

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("step must be positive")

    def at(self, k):
        return self.step

    def label(self):
        return f"sm_c({self.step:g})"


@dataclass(frozen=True)
class DiminishingStep:
    """Initial step divided by the iteration counter."""

    initial: float

    def __post_init__(self):
        if self.initial <= 0.0:
            raise ValueError("initial step must be positive")

    def at(self, k):
        return self.initial / k

    def label(self):
        return f"sm_d({self.initial:g})"


def subgradient_solve(problem: ProblemSpec, mode, *, budget: int, init_x=None,
                      ground_truth=None, metrics_every: int = 1):
    """Projected subgradient descent on the nested objective.

    mode is ConstantStep or DiminishingStep. The auxiliary variables are
    implicitly the network trace, so the reformulated objective equals the
    nested one and feasibility is identically zero. Each iteration shares
    one forward application between the step and the recorded objective.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    x = as_tensor(init_x) if init_x is not None else default_initial_image(problem)
    check_shape(x, problem.regularizer.input_shape, "initial image")
    from .tasks import psnr as psnr_fn

    metrics = RunMetrics()
    metrics.notes["solver"] = mode.label()
    started = time.perf_counter()

    def observe(iteration, current, data_value, reg_value):
        reg_term = problem.reg_weight * reg_value
        total = data_value + reg_term
        report = ObjectiveReport(total, total, 0.0, data_value, reg_term,
                                 not np.isfinite(data_value))
        pv = psnr_fn(current, ground_truth) if ground_truth is not None else None
        metrics.record(iteration, report, pv, time.perf_counter() - started)

    for k in range(budget + 1):
        fwd = problem.apply_forward(x)
        reg_value, reg_grad = icnn_mod.value_and_subgradient(problem.regularizer, x)
        if (metrics_every and k % metrics_every == 0) or k in (0, budget):
            data_value, _ = problem.fidelity.value(fwd, problem.measurement)
            observe(k, x, data_value, reg_value)
        if k == budget:
            break
        try:
            residual = problem.fidelity.residual_subgradient(fwd, problem.measurement)
        except ValueError as exc:  # iterate k left the data term's domain
            raise DivergenceError(k, str(exc)) from exc
        g = problem.adjoint_forward(residual)
        if problem.reg_weight > 0.0:
            g = g + problem.reg_weight * reg_grad
        x = x - mode.at(k + 1) * g
        if problem.nonneg:
            x = np.maximum(x, 0.0)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(k + 1, "subgradient iterate")
    return x, metrics


# --- iterations to threshold --------------------------------------------------

_REFERENCE_FLOOR = 1e-12


def iterations_to_threshold(metrics: RunMetrics, reference_value: float,
                            target_rel_error: float):
    """First recorded iteration whose objective crosses the relative-error
    threshold, or None; returns (iteration, used_absolute_fallback)."""
    absolute = abs(reference_value) <= _REFERENCE_FLOOR
    for it, value in zip(metrics.iterations, metrics.objective):
        if absolute:
            hit = abs(value - reference_value) < target_rel_error
        else:
            hit = (value - reference_value) / abs(reference_value) < target_rel_error
        if hit:
            return it, absolute
    return None, absolute
