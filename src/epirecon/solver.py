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

import copy
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import icnn as icnn_mod
from . import prox
from .blocks import BlockAssembly, assemble_blocks, split
from .icnn import IcnnSpec, require_admissible
from .linops import DiagonalMask
from .tensor import as_tensor, check_shape, ensure_finite


class CertificationError(ValueError):
    """Raised when a step-size configuration violates its norm inequality;
    block is the index of the dual block at fault, when there is one."""

    def __init__(self, message, block=None):
        super().__init__(message)
        self.block = block


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
    residual_subgradient(fwd, y) in measurement space, dual_kernel(sigma, y),
    the prox kernel (see prox) of its conjugate at step sigma, and, where
    one exists, primal_kernel(tau, y, forward), that of the term itself.
    bind() validates the term against the forward operator and measurement
    once, when the ProblemSpec is built.
    """

    weight: float = 1.0
    dualize: bool = False

    def __post_init__(self):
        if not 0.0 < self.weight < np.inf:
            raise ValueError(f"fidelity weight must be finite and positive, "
                             f"got {self.weight}")


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

    def dual_kernel(self, sigma, y):
        return prox.l1_conjugate_kernel(sigma, self.weight, y)

    def primal_kernel(self, tau, y, forward):
        return prox.shrink_kernel(tau * self.weight, y)


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

    def dual_kernel(self, sigma, y):
        return prox.l2_conjugate_kernel(sigma, y, self.weight)

    def primal_kernel(self, tau, y, forward):
        """(xbar + tau w d y) / (1 + tau w d^2) for the forward's diagonal d."""
        diag = forward.mask if isinstance(forward, DiagonalMask) else 1.0
        return prox.ratio_kernel(tau * self.weight * diag * y,
                                 1.0 + tau * self.weight * diag * diag)


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
        bg = ensure_finite(bg, "kl background")
        prox._check_nonnegative(bg, "kl background")
        prox._check_nonnegative(measurement, "kl counts")
        return replace(self, background=bg)

    def _domain(self, fwd, y):
        """(A x + b, y > 0, out of the domain: A x + b <= 0 where y > 0, < 0 where y = 0)."""
        mean = fwd + self.background
        pos = y > 0.0
        return mean, pos, np.where(pos, mean <= 0.0, mean < 0.0).any()

    def value(self, fwd, y):
        mean, pos, bad = self._domain(fwd, y)
        if bad:
            return float("inf"), True
        val = float(np.sum(fwd - y + self.background))
        val += float(np.sum(y[pos] * np.log(y[pos] / mean[pos])))
        return val, False

    def residual_subgradient(self, fwd, y):
        mean, pos, bad = self._domain(fwd, y)  # a zero count gives 1, also at A x + b = 0
        if bad:
            raise ValueError("kl fidelity domain (forward + background out of range)")
        return 1.0 - np.divide(y, mean, out=np.zeros(mean.shape), where=pos)

    def dual_kernel(self, sigma, y):
        return prox.kl_conjugate_kernel(sigma, y, self.background, y.shape)


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
        object.__setattr__(self, "measurement",
                           ensure_finite(as_tensor(self.measurement), "measurement"))
        if not 0.0 <= self.reg_weight < np.inf:
            raise ValueError(f"reg_weight must be finite and nonnegative, "
                             f"got {self.reg_weight}")
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
    reg_value, trace = icnn_mod.forward(spec, x, skips := [])
    data, infeasible = problem.fidelity.value(problem.apply_forward(x),
                                              problem.measurement)
    reg_term = problem.reg_weight * reg_value
    primal = data + reg_term
    if z is None:
        return ObjectiveReport(primal, primal, 0.0, data, reg_term, infeasible)
    if len(z) != spec.depth - 1:
        raise ValueError(f"expected {spec.depth - 1} auxiliary tensors, got {len(z)}")
    # layer 1 reads no z: its output is trace[0]; later layers reuse forward's skips
    feas = 0.0
    for i, layer in enumerate(spec.layers[:-1], start=1):
        gap = trace[0] if i == 1 else layer.step(x, z[i - 2], skips[i - 1])[1]
        gap -= z[i - 1]  # in place: the implied output is a fresh array
        feas = max(feas, float(np.max(gap, initial=0.0)))
    final_term = reg_value if spec.depth == 1 else float(np.vdot(
        spec.readout_weights(), spec.layers[-1].step(x, z[-1], skips[-1])[1]))
    reformulated = data + problem.reg_weight * final_term
    return ObjectiveReport(primal, reformulated, feas, data, reg_term, infeasible)


# --- step sizes ---------------------------------------------------------------

def _dualized_forward(problem: ProblemSpec):
    """The forward map of the leading fidelity block, None when there is none."""
    if not problem.fidelity.dualize:
        return None
    if problem.forward is None:
        raise ValueError("dualized fidelity needs an explicit forward operator")
    return problem.forward


def assemble_problem(problem: ProblemSpec) -> BlockAssembly:
    """Dual blocks of the problem; a dualized fidelity leads as its own block."""
    return assemble_blocks(problem.regularizer, forward=_dualized_forward(problem))


def certify_norms(assembly: BlockAssembly) -> dict:
    """Each block entry's (block, row, entry) certified norm_bound; a missing
    or non-finite one fails closed, naming the entry and the operator kind."""
    norms = {}
    for bi, block in enumerate(assembly.blocks):
        for ri, row in enumerate(block.operator.rows):
            for ei, (_, op) in enumerate(row.entries):
                bound = op.norm_bound
                if bound is None or not 0.0 <= bound < np.inf:
                    raise CertificationError(f"no finite norm bound for entry "
                                             f"{(bi, ri, ei)} ({op.kind}): {bound}",
                                             block=bi)
                norms[(bi, ri, ei)] = float(bound)
    return norms


@dataclass(frozen=True)
class StepSizes:
    """Primal steps per slot, dual steps per block, and their certificates,
    together with the block assembly they were certified on."""

    tau: tuple
    sigma: tuple
    scales: tuple
    norms: dict
    certificates: dict
    assembly: BlockAssembly


def compute_step_sizes(assembly: BlockAssembly, scales=None, norm_seed=None) -> StepSizes:
    """Diagonal steps satisfying the preconditioned contraction condition.

    Per dual block, sigma = scale / max(preactivation-row norms)^2; per
    primal slot, tau = 1 / sum of (row-width * sigma * norm^2) over every
    entry touching the slot; each norm is the entry's certified bound.
    A sigma or tau outside (0, inf) in floating point raises
    CertificationError naming its block or slot. norm_seed is ignored (the
    benchmark's workloads still pass it).
    """
    norms = certify_norms(assembly)
    nblocks = len(assembly.blocks)
    if scales is None:
        scales = (1.0,) * nblocks
    scales = tuple(float(s) for s in scales)
    if len(scales) != nblocks:
        raise ValueError(f"need {nblocks} dual scales, got {len(scales)}")
    if not all(0.0 < s < np.inf for s in scales):
        raise ValueError(f"dual scales must be finite and positive, got {scales}")

    sigma = []
    for bi, block in enumerate(assembly.blocks):
        row_norms = [norms[(bi, 0, ei)] for ei in range(len(block.operator.rows[0].entries))]
        peak = max(row_norms) if row_norms else 0.0
        try:
            step = scales[bi] / peak ** 2 if peak > 0.0 else scales[bi]
        except (OverflowError, ZeroDivisionError):  # peak ** 2 left the float range
            step = None
        if step is None or not 0.0 < step < np.inf:
            raise CertificationError(
                f"dual block {bi} ({block.kind}): sigma = scale {scales[bi]} / norm "
                f"bound {peak} squared is not a float in (0, inf)", block=bi)
        sigma.append(step)
    terms = [[] for _ in assembly.primal_shapes]  # (row-width * sigma, norm) per slot
    for bi, block in enumerate(assembly.blocks):
        for ri, row in enumerate(block.operator.rows):
            for ei, (slot, _) in enumerate(row.entries):
                terms[slot].append((len(row.entries) * sigma[bi], norms[(bi, ri, ei)]))
    tau = []
    certificates = {}
    for slot, slot_terms in enumerate(terms):
        denom = sum(w * b * b for w, b in slot_terms)
        if denom <= 0.0:
            raise CertificationError(f"primal slot {slot} is not touched by any dual block")
        tau.append(1.0 / denom)
        if not 0.0 < tau[slot] < np.inf:
            raise CertificationError(f"primal slot {slot}: tau = 1 / {denom} is not "
                                     f"a float in (0, inf)")
        value = tau[slot] * denom
        if not value <= 1.0 + 1e-9:
            raise CertificationError(
                f"contraction certificate violated at primal slot {slot}: {value} > 1")
        certificates[slot] = (value, tuple(slot_terms))
    return StepSizes(tuple(tau), tuple(sigma), scales, norms, certificates, assembly)


# --- iterate containers -------------------------------------------------------

@dataclass
class SaddleState:
    x: np.ndarray
    z: list
    x_relaxed: np.ndarray
    z_relaxed: list
    duals: list  # one list of row arrays per dual block
    iteration: int = 0


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
    _, trace = icnn_mod.forward(problem.regularizer, x0)  # checks x0's shape
    duals = [[np.zeros(s) for s in block.operator.output_shapes] for block in assembly.blocks]
    return SaddleState(x=x0, z=[t.copy() for t in trace],
                       x_relaxed=x0.copy(), z_relaxed=[t.copy() for t in trace],
                       duals=duals)


def _check_finite(state: SaddleState, iteration):
    """Names the first iterate the state holds that is not finite. K u is
    not scanned: a clipping dual prox can map its overflow back to finite
    duals, which is why the relaxed points are checked here."""
    for prefix, x, z in (("", state.x, state.z),
                         ("relaxed ", state.x_relaxed, state.z_relaxed)):
        if not np.all(np.isfinite(x)):
            raise DivergenceError(iteration, f"{prefix}primal image")
        for j, zj in enumerate(z, start=1):
            if not np.all(np.isfinite(zj)):
                raise DivergenceError(iteration, f"{prefix}auxiliary block {j}")
    for bi, rows in enumerate(state.duals):
        for arr in rows:
            if not np.all(np.isfinite(arr)):
                raise DivergenceError(iteration, f"dual block {bi}")


# --- the solve plan -----------------------------------------------------------

class SolvePlan:
    """The buffers and bound prox kernels of one PDHG run, built once.

    One private flat buffer holds the primal slots u = (x, z_1, ...), their
    relaxed points and the duals, so that the divergence guard is one
    reduction. step() only does arithmetic, written through out= into
    buffers the plan owns, in the floating-point order of the three-phase
    update: each block's adjoint is summed into a zeroed buffer and then
    added to the gradient, and each dual prox gets c + sigma * (K u_bar).
    The blocks run one after another, so they share their work buffers.
    Nothing is checked per iteration: the steps were certified, the
    fidelity's data were checked when its ProblemSpec was built, and the
    readout cap is checked here.
    """

    def __init__(self, problem: ProblemSpec, steps: StepSizes, state: SaddleState):
        assembly = steps.assembly
        shapes = assembly.primal_shapes
        n = sum(math.prod(s) for s in shapes)
        dual_sizes = [sum(math.prod(s) for s in block.operator.output_shapes)
                      for block in assembly.blocks]
        self.buf = np.empty(2 * n + sum(dual_sizes))
        self.finite = np.empty(self.buf.shape, dtype=bool)
        self.u_flat, self.relaxed_flat, *dual_flats = split(
            self.buf, [(n,), (n,)] + [(d,) for d in dual_sizes])
        self.u = split(self.u_flat, shapes)
        self.relaxed = split(self.relaxed_flat, shapes)
        self.duals = [split(flat, block.operator.output_shapes)
                      for flat, block in zip(dual_flats, assembly.blocks)]
        for dst, src in zip(self.u + self.relaxed,
                            [state.x, *state.z, state.x_relaxed, *state.z_relaxed]):
            np.copyto(dst, src)
        for dst_rows, src_rows in zip(self.duals, state.duals):
            for dst, src in zip(dst_rows, src_rows):
                np.copyto(dst, src)
        self.iteration = state.iteration

        # the primal phase (gradient, adjoint sums) and the dual phase (tilde,
        # scaled) of an iteration never overlap, so they share one buffer
        most = max(dual_sizes)
        work = np.empty(max(2 * n, 2 * most))
        self.grad = work[:n]
        self.grads = split(self.grad, shapes)
        self.adjoint = split(work[n:2 * n], shapes)  # each block writes its slots
        self.tau = steps.tau
        self.blocks = [(block.operator, rows) for block, rows in zip(assembly.blocks,
                                                                     self.duals)]
        fidelity = problem.fidelity
        self.primal_prox = None if fidelity.dualize else fidelity.primal_kernel(
            steps.tau[0], problem.measurement, problem.forward)
        self.nonneg = problem.nonneg
        cap = prox._check_nonnegative(
            problem.reg_weight * problem.regularizer.readout_weights(), "readout weights")
        tilde, scaled = work[:most], work[most:2 * most]
        self.dual_steps = [self._dual_step(problem, block, sigma, flat, rows, cap,
                                           tilde[:flat.size], scaled[:flat.size])
                           for block, sigma, flat, rows
                           in zip(assembly.blocks, steps.sigma, dual_flats, self.duals)]

    def _dual_step(self, problem, block, sigma, dual, rows, cap, tilde, scaled):
        """The block's dual update from the relaxed point; tilde and scaled
        are work buffers of the block's dual size."""
        op, relaxed = block.operator, self.relaxed
        tilde_rows = split(tilde, op.output_shapes)
        if block.kind == "epigraph":
            # rows = tilde - sigma * (P(tilde / sigma + bias) - bias), P the projection
            bias = block.shift[0]
            pbar, qbar = split(scaled, op.output_shapes)
            project = prox.epigraph_kernel(block.negative_slope, pbar.shape)

            def dual_prox():
                np.divide(tilde, sigma, out=scaled)
                np.add(pbar, bias, out=pbar)
                project(pbar, qbar, rows[0], rows[1])
                np.subtract(rows[0], bias, out=rows[0])
                np.multiply(dual, sigma, out=dual)
                np.subtract(tilde, dual, out=dual)
        else:
            kernel = (problem.fidelity.dual_kernel(sigma, problem.measurement)
                      if block.kind == "fidelity" else
                      prox.readout_kernel(sigma, cap, block.shift[0], block.negative_slope))

            def dual_prox():
                kernel(tilde_rows[0], rows[0])

        def dual_step():
            op.apply(relaxed, out=tilde_rows)
            np.multiply(tilde, sigma, out=tilde)
            np.add(dual, tilde, out=tilde)  # c + sigma * (K u_bar)
            dual_prox()
        return dual_step

    def step(self):
        """One iteration: primal step, extrapolation by 1, dual proxes."""
        grad, grads, adj = self.grad, self.grads, self.adjoint
        grad.fill(0.0)
        for op, rows in self.blocks:
            op.adjoint(rows, out=adj)
            for slot in op.slots:
                np.add(grads[slot], adj[slot], out=grads[slot])
        for g, t in zip(grads, self.tau):
            np.multiply(g, t, out=g)
        np.subtract(self.u_flat, grad, out=grad)  # the new u, x before its prox
        if self.primal_prox is not None:
            self.primal_prox(grads[0], grads[0])
        if self.nonneg:
            np.maximum(grads[0], 0.0, out=grads[0])
        np.multiply(grad, 2.0, out=self.relaxed_flat)
        np.subtract(self.relaxed_flat, self.u_flat, out=self.relaxed_flat)
        np.copyto(self.u_flat, grad)
        for dual_step in self.dual_steps:
            dual_step()
        self.iteration += 1

    def view(self) -> SaddleState:
        """The iterates as views into the plan's buffer."""
        x, *z = self.u
        x_relaxed, *z_relaxed = self.relaxed
        return SaddleState(x, z, x_relaxed, z_relaxed, self.duals, self.iteration)

    def guard(self):
        """One reduction over every iterate; the per-array scan runs only
        when it fails, to name the iterate that is not finite."""
        if not np.isfinite(self.buf, out=self.finite).all():
            _check_finite(self.view(), self.iteration)


# --- the solver ---------------------------------------------------------------

def pdhg_solve(problem: ProblemSpec, steps: StepSizes = None, *, budget: int,
               scales=None, init_x=None, init: SaddleState = None,
               ground_truth=None, metrics_every: int = 1):
    """Run the block primal-dual iteration for `budget` iterations.

    Returns (final SaddleState, RunMetrics). Step sizes are derived (and
    certified) from the operators' norm bounds unless given; given steps
    run on the block assembly they were certified on, which must have been
    built for this problem's regularizer and dualized forward map (the
    same objects). metrics_every controls how often objectives are
    evaluated; the final iterate is always recorded. A supplied init state
    is only read; the returned state owns its arrays, so it can be the init
    of a later call that continues the run.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if steps is None:
        steps = compute_step_sizes(assemble_problem(problem), scales=scales)
    assembly = steps.assembly
    if assembly.regularizer is not problem.regularizer:
        raise CertificationError("step sizes were certified for another regularizer")
    if assembly.forward is not _dualized_forward(problem):
        raise CertificationError("step sizes were certified for another forward operator")
    plan = SolvePlan(problem, steps, init if init is not None
                     else initial_state(problem, assembly, init_x))
    from .tasks import psnr as psnr_fn

    metrics = RunMetrics()
    metrics.notes["solver"] = "pdhg"
    metrics.notes["step_sizes"] = steps
    started = time.perf_counter()

    def observe(iteration):
        x = plan.u[0]
        report = evaluate_objectives(problem, x, plan.u[1:])
        pv = psnr_fn(x, ground_truth) if ground_truth is not None else None
        metrics.record(iteration, report, pv, time.perf_counter() - started)

    plan.guard()
    observe(plan.iteration)
    for _ in range(budget):
        plan.step()
        plan.guard()
        if metrics_every and plan.iteration % metrics_every == 0:
            observe(plan.iteration)
    if metrics.iterations[-1] != plan.iteration:
        observe(plan.iteration)
    final = plan.view()
    del plan  # frees the work buffers before the iterates are copied out
    return copy.deepcopy(final), metrics


# --- subgradient baselines ----------------------------------------------------

@dataclass(frozen=True)
class ConstantStep:
    step: float

    def __post_init__(self):
        if not 0.0 < self.step < np.inf:
            raise ValueError(f"step must be finite and positive, got {self.step}")

    def at(self, k):
        return self.step

    def label(self):
        return f"sm_c({self.step:g})"


@dataclass(frozen=True)
class DiminishingStep:
    """Initial step divided by the iteration counter."""

    initial: float

    def __post_init__(self):
        if not 0.0 < self.initial < np.inf:
            raise ValueError(f"initial step must be finite and positive, got {self.initial}")

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
