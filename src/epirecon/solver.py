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
from itertools import accumulate, pairwise, zip_longest

import numpy as np

from . import icnn as icnn_mod
from . import prox
from .blocks import BlockAssembly, BlockOperator, assemble_blocks, split
from .icnn import IcnnSpec, require_admissible
from .linops import DiagonalMask
from .tensor import as_array, as_count, as_real, as_tensor, check_shape


class CertificationError(ValueError):
    """Raised when a step-size configuration violates its norm inequality;
    block is the index of the dual block at fault, when there is one."""

    def __init__(self, message, block=None):
        super().__init__(message)
        self.block = block


class DivergenceError(RuntimeError):
    """Raised when an iterate stops being finite; block is the index of the
    dual block whose iterate failed, when it is a dual one."""

    def __init__(self, iteration, where, block=None):
        self.iteration = iteration
        self.where = where
        self.block = block
        super().__init__(f"non-finite iterate in {where} at iteration {iteration}")


# --- problem description ------------------------------------------------------

@dataclass(frozen=True)
class Fidelity:
    """Data term f(A x; y); bind() checks it once, when the ProblemSpec is
    built, and keeps it primal through a forward of a type in primal_forwards
    (None is the identity), dualized through any other (`dualize`).

    Each subclass gives value(fwd, y) (+inf where A x left the domain),
    residual_subgradient(fwd, y) in measurement space, dual_kernel(sigma, y),
    the prox kernel (see prox) of its conjugate at step sigma, and, where
    one exists, primal_kernel(tau, y, forward), that of the term itself.
    """

    weight: float = 1.0
    dualize: bool = field(default=False, init=False)
    primal_forwards = ()

    def __post_init__(self):
        object.__setattr__(self, "weight", as_real(self.weight, "fidelity weight", "positive"))

    def bind(self, forward, measurement, **checked):
        """A copy with the checked fields, dualized unless the forward is a primal one."""
        bound = replace(self, **checked)
        object.__setattr__(bound, "dualize", not isinstance(forward, self.primal_forwards))
        return bound


@dataclass(frozen=True)
class L1Fidelity(Fidelity):
    """weight * |A x - y|_1; kept primal with the identity forward."""

    primal_forwards = (type(None),)

    def value(self, fwd, y):
        return self.weight * float(np.sum(np.abs(fwd - y)))

    def residual_subgradient(self, fwd, y):
        return self.weight * np.sign(fwd - y)

    def dual_kernel(self, sigma, y):
        return prox.l1_conjugate_kernel(sigma, self.weight, y)

    def primal_kernel(self, tau, y, forward):
        return prox.shrink_kernel(tau * self.weight, y)


@dataclass(frozen=True)
class L2Fidelity(Fidelity):
    """(weight/2) * |A x - y|^2; kept primal with an identity or diagonal forward."""

    primal_forwards = (type(None), DiagonalMask)

    def value(self, fwd, y):
        diff = fwd - y
        return 0.5 * self.weight * float(np.vdot(diff, diff))

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
    """Poisson term sum(A x + b - y) + y.log(y / (A x + b)); no primal prox, no weight."""

    background: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()  # refuses a bool, which equals 1.0
        if self.weight != 1.0:
            raise ValueError(f"kl fidelity takes no weight, got {self.weight}")
        if self.background is None:
            raise ValueError("kl fidelity needs a background level")

    def bind(self, forward, y):
        if forward is None:
            raise ValueError("dualized fidelity needs an explicit forward operator")
        bg = as_array(np.broadcast_to(self.background, y.shape), "kl background", "nonnegative")
        as_array(y, "kl counts", "nonnegative")
        return super().bind(forward, y, background=bg)

    def _domain(self, fwd, y):
        """(A x + b, y > 0, out of the domain: A x + b <= 0 where y > 0, < 0 where y = 0)."""
        mean = fwd + self.background
        pos = y > 0.0
        return mean, pos, np.where(pos, mean <= 0.0, mean < 0.0).any()

    def value(self, fwd, y):
        mean, pos, bad = self._domain(fwd, y)
        if bad:
            return float("inf")
        val = float(np.sum(fwd - y + self.background))
        return val + float(np.sum(y[pos] * np.log(y[pos] / mean[pos])))

    def residual_subgradient(self, fwd, y):
        mean, pos, bad = self._domain(fwd, y)  # a zero count gives 1, also at A x + b = 0
        if bad:
            raise ValueError("kl fidelity domain (forward + background out of range)")
        return 1.0 - np.divide(y, mean, out=np.zeros(mean.shape), where=pos)

    def dual_kernel(self, sigma, y):
        return prox.kl_conjugate_kernel(sigma, y, self.background, y.shape)


l1_fidelity, l2_fidelity = L1Fidelity, L2Fidelity  # each takes its weight


def kl_fidelity(background):
    return KLFidelity(background=background)


@dataclass(frozen=True)
class ProblemSpec:
    """One reconstruction instance: fidelity, forward map, data, regularizer."""

    fidelity: Fidelity
    forward: object  # LinOp or None (identity)
    measurement: np.ndarray
    reg_weight: float
    regularizer: IcnnSpec
    nonneg: bool = False
    readout_cap: np.ndarray = field(init=False, repr=False)  # reg_weight * head

    def __post_init__(self):
        object.__setattr__(self, "measurement", as_array(self.measurement, "measurement"))
        object.__setattr__(self, "reg_weight",
                           as_real(self.reg_weight, "reg_weight", "nonnegative"))
        require_admissible(self.regularizer)
        head = self.regularizer.readout_weights()
        with np.errstate(over="ignore"):  # a product of two checked factors can overflow
            cap = self.reg_weight * head
        if not np.isfinite(cap).all():
            raise ValueError(f"readout cap = reg_weight × head is not finite: reg_weight "
                             f"{self.reg_weight!r}, largest head entry {float(head.max())!r}")
        object.__setattr__(self, "readout_cap", cap)
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


def evaluate_objectives(problem: ProblemSpec, x, z=None, rows=None) -> ObjectiveReport:
    """Objectives of the nested and the constrained formulation at (x, z).

    With z equal to the network trace the two objectives agree and the
    feasibility residual is zero; any z >= trace layerwise keeps feasibility
    zero and can only raise the reformulated value. rows, when given, is row
    0 of each dual block's K u at (x, z), in block order (PDHG keeps them):
    A x for a dualized data term, then each layer's skip(x) + carry(z_{i-1}).
    The data term, layer 1 of the nested trace, every feasibility gap and
    the final term then read their rows; only the nested trace's layers
    past the first are applied.
    """
    spec = problem.regularizer
    fwd, *pre = [None] * (spec.depth + 1) if rows is None else (
        rows if problem.fidelity.dualize else [None, *rows])
    reg_value, trace = icnn_mod.forward(spec, x, first=pre[0])
    data = problem.fidelity.value(problem.apply_forward(x) if fwd is None else fwd,
                                  problem.measurement)
    reg_term = problem.reg_weight * reg_value
    primal = data + reg_term
    if z is None:
        return ObjectiveReport(primal, primal, 0.0, data, reg_term)
    if len(z) != spec.depth - 1:
        raise ValueError(f"expected {spec.depth - 1} auxiliary tensors, got {len(z)}")
    # layer 1 reads no z: its output is trace[0]
    feas = 0.0
    for i, layer in enumerate(spec.layers[:-1], start=1):
        gap = trace[0] if i == 1 else layer.output(x, z[i - 2], pre[i - 1])
        gap -= z[i - 1]  # in place: the implied output is a fresh array
        feas = max(feas, float(np.max(gap, initial=0.0)))
    final_term = reg_value if spec.depth == 1 else float(np.vdot(
        spec.readout_weights(), spec.layers[-1].output(x, z[-1], pre[-1])))
    reformulated = data + problem.reg_weight * final_term
    return ObjectiveReport(primal, reformulated, feas, data, reg_term)


# --- step sizes ---------------------------------------------------------------

def _dualized_forward(problem: ProblemSpec):
    """The forward map of the leading fidelity block, None when there is none."""
    return problem.forward if problem.fidelity.dualize else None


def assemble_problem(problem: ProblemSpec) -> BlockAssembly:
    """Dual blocks of the problem; a dualized fidelity leads as its own block."""
    return assemble_blocks(problem.regularizer, forward=_dualized_forward(problem))


def certify_norms(assembly: BlockAssembly) -> dict:
    """Each block entry's (block, row, entry) certified norm_bound; a missing
    or non-finite one fails closed, naming the entry and the operator kind."""
    norms = {}
    for bi, block in enumerate(assembly.blocks):
        for ri, row in enumerate(block.operator.rows):
            for ei, (_, op) in enumerate(row):
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
    scales = tuple(as_real(s, "dual scales", "positive") for s in scales)
    if len(scales) != nblocks:
        raise ValueError(f"need {nblocks} dual scales, got {len(scales)}")

    sigma = []
    for bi, block in enumerate(assembly.blocks):
        peak = max(norms[(bi, 0, ei)] for ei in range(len(block.operator.rows[0])))
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
            for ei, (slot, _) in enumerate(row):
                terms[slot].append((len(row) * sigma[bi], norms[(bi, ri, ei)]))
    tau = []
    certificates = {}
    for slot, slot_terms in enumerate(terms):
        denom = sum(w * b * b for w, b in slot_terms)
        if denom <= 0.0:  # assemble_blocks touches every slot, so its terms are 0
            raise CertificationError(f"primal slot {slot}: the row-width * sigma * norm^2 "
                                     f"terms on it sum to 0, so tau = 1 / 0")
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
    duals: list  # one list of row arrays per dual block
    iteration: int = 0


CSV_HEADER = "iter,objective_P,objective_P1,data_term,reg_term,feasibility,psnr,seconds"


@dataclass
class RunMetrics:
    """Per-iteration records of one solver run, one row per recorded
    iteration in CSV column order; psnr is NaN without a ground truth, and
    seconds count from `started`."""

    ground_truth: np.ndarray = None
    started: float = field(default_factory=time.perf_counter)
    rows: list = field(default_factory=list)

    def record(self, iteration, report: ObjectiveReport, x):
        value = float("nan")
        if self.ground_truth is not None:
            from .tasks import psnr  # tasks imports this module
            value = psnr(x, self.ground_truth)
        self.rows.append((int(iteration), report.primal, report.reformulated,
                          report.data_term, report.reg_term, report.feasibility,
                          value, time.perf_counter() - self.started))

    # read-only columns: tuples, so that an append fails loudly
    iterations = property(lambda self: tuple(row[0] for row in self.rows))
    objective = property(lambda self: tuple(row[1] for row in self.rows))
    feasibility = property(lambda self: tuple(row[5] for row in self.rows))
    psnr = property(lambda self: tuple(row[6] for row in self.rows))

    def write_csv(self, path, timing=False):
        """Deterministic CSV: 17 significant digits, timing zeroed unless asked."""
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for iteration, *values, seconds in self.rows:
                values.append(seconds if timing else 0.0)
                fh.write(f"{iteration}," + ",".join(f"{v:.17g}" for v in values) + "\n")


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
    return SaddleState(x=x0, z=[t.copy() for t in trace], duals=duals)


# --- the solve plan -----------------------------------------------------------

def _dual_kernel(problem, block, sigma):
    """The kernel of the block's conjugate prox at step sigma."""
    if block.kind == "epigraph":
        return prox.epigraph_conjugate_kernel(sigma, block.bias, block.negative_slope,
                                              block.operator.output_shapes[0])
    if block.kind == "readout":
        return prox.readout_kernel(sigma, problem.readout_cap, block.bias, block.negative_slope)
    return problem.fidelity.dual_kernel(sigma, problem.measurement)


class SolvePlan:
    """The buffers, the stacked operator K and the bound prox kernels of one
    PDHG run, built once.

    K stacks every dual block's rows, in block order, over u = (x, z_1, ...).
    One flat buffer holds a half of K u, u, the duals and a second half, each
    block contiguous in each. No relaxed point u_bar = 2 u+ - u is formed
    (PDLP keeps K x alike): a step applies K to u+ into one half and, in
    whole-half passes, turns the other, which held K u, into
    c + sigma * (K u+ + (K u+ - K u)), sigma per block, the dual proxes'
    input; the halves then swap roles. A record reads row 0 of each block's
    kept half (kept_rows): A x of a dualized data term and each layer's
    skip(x) + carry(z_{i-1}). K u0 is applied when the plan is built, so a
    warm restart continues a run bitwise. step() checks nothing and writes
    only into the plan's buffers: the steps were certified, and the data and
    network checked when the ProblemSpec was built.
    """

    def __init__(self, problem: ProblemSpec, steps: StepSizes, state: SaddleState):
        blocks, shapes = steps.assembly.blocks, steps.assembly.primal_shapes
        self.K = BlockOperator([row for b in blocks for row in b.operator.rows], shapes)
        # each block's rows a:b of K, and the size of its stretch of a half or of the duals
        spans = list(pairwise(accumulate([len(b.operator.rows) for b in blocks], initial=0)))
        sizes = [(sum(math.prod(s) for s in b.operator.output_shapes),) for b in blocks]
        n, nd = sum(map(math.prod, shapes)), sum(map(math.prod, self.K.output_shapes))
        self.buf = np.zeros(n + 3 * nd)
        self.finite = np.empty(self.buf.shape, dtype=bool)
        self.u_flat, self.dual_flat = self.buf[nd:n + nd], self.buf[n + nd:n + 2 * nd]
        self.u = split(self.u_flat, shapes)
        self.dual_rows = split(self.dual_flat, self.K.output_shapes)
        self.duals = [self.dual_rows[a:b] for a, b in spans]
        # the state's first missing, extra or misshapen array is refused (copyto would broadcast)
        pairs = [("primal image", self.u[0], state.x)] + [
            (f"auxiliary block {j}", *p) for j, p in enumerate(zip_longest(self.u[1:], state.z), 1)]
        for b, (rows, given) in enumerate(zip_longest(self.duals, state.duals, fillvalue=())):
            pairs += [(f"dual block {b} row {r}", *p) for r, p in enumerate(zip_longest(rows, given))]
        for name, dst, src in pairs:
            if src is None or dst is None:
                raise ValueError(f"init state: {name} is {'missing' if src is None else 'extra'}")
            check_shape(np.asarray(src), dst.shape, f"init state {name}")
            np.copyto(dst, src)
        self.iteration = state.iteration
        # the two K u halves as K's rows; per block, its stretch of each half and of the duals
        self.halves = (self.buf[:nd], self.buf[n + 2 * nd:])
        self.half_rows = [split(half, self.K.output_shapes) for half in self.halves]
        stretches = [split(part, sizes) for part in (*self.halves, self.dual_flat)]
        self.K.apply(self.u, out=self.half_rows[0])  # K u0
        self.keep = 0  # the half holding K u of the current u
        # per value of keep, row 0 of each block's kept half, in block order
        self.kept_rows = [[rows[a] for a, _ in spans] for rows in self.half_rows]
        # per value of keep, the guard's window: u, the duals and the fresh half
        self.windows = [(self.buf[lo:hi], self.finite[lo:hi])
                        for lo, hi in ((nd, n + 3 * nd), (0, n + 2 * nd))]
        # per value of keep, (name, dual block, view) of each stretch of the
        # window in report order: the image, the auxiliaries, the duals, then K u_bar
        named = [("primal image", None, self.u[0])] + [
            (f"auxiliary block {j}", None, z) for j, z in enumerate(self.u[1:], 1)] + [
            (f"dual block {bi}", bi, flat) for bi, flat in enumerate(stretches[2])]
        self.iterates = [named + [(f"relaxed K u of dual block {bi}", bi, stretch)
                                  for bi, stretch in enumerate(stretches[1 - k])] for k in (0, 1)]

        self.grad = np.empty(n)
        self.grads = split(self.grad, shapes)
        self.tau = steps.tau
        self.primal_prox = None if problem.fidelity.dualize else problem.fidelity.primal_kernel(
            steps.tau[0], problem.measurement, problem.forward)
        self.nonneg = problem.nonneg
        # per value of keep, each block's fresh stretch and sigma, and its kernel and arrays
        self.scaled = [list(zip(stretches[1 - k], steps.sigma)) for k in (0, 1)]
        kernels = [_dual_kernel(problem, b, sigma) for b, sigma in zip(blocks, steps.sigma)]
        self.kernels = [[(kernel, (*self.half_rows[1 - k][a:b], *self.dual_rows[a:b]))
                         for kernel, (a, b) in zip(kernels, spans)] for k in (0, 1)]

    def step(self):
        """One iteration: primal step, extrapolation by 1, dual proxes."""
        grad, grads, u = self.grad, self.grads, self.u
        grad.fill(0.0)
        self.K.adjoint(self.dual_rows, out=grads)
        for g, t in zip(grads, self.tau):
            np.multiply(g, t, out=g)
        np.subtract(self.u_flat, grad, out=self.u_flat)  # u+, x before its prox
        if self.primal_prox is not None:
            self.primal_prox(u[0], u[0])
        if self.nonneg:
            np.maximum(u[0], 0.0, out=u[0])
        keep = self.keep = 1 - self.keep
        kept, fresh = self.halves[keep], self.halves[1 - keep]
        self.K.apply(u, out=self.half_rows[keep])  # K u+, kept for the next iteration
        np.subtract(kept, fresh, out=fresh)
        np.add(kept, fresh, out=fresh)  # K u_bar = K u+ + (K u+ - K u)
        for stretch, sigma in self.scaled[keep]:
            np.multiply(stretch, sigma, out=stretch)
        np.add(self.dual_flat, fresh, out=fresh)  # c + sigma * (K u_bar)
        for kernel, arrays in self.kernels[keep]:
            kernel(*arrays)
        self.iteration += 1

    def view(self) -> SaddleState:
        """The iterates as views into the plan's buffer."""
        x, *z = self.u
        return SaddleState(x, z, self.duals, self.iteration)

    def guard(self):
        """One reduction over u, the duals and the fresh c + sigma * (K u_bar), whose
        overflow a clipping dual prox can hide; on failure it names the first
        stretch that is not all finite, an iterate before a K u_bar stretch."""
        values, finite = self.windows[self.keep]
        if not np.isfinite(values, out=finite).all():
            raise DivergenceError(self.iteration, *next(
                (name, bi) for name, bi, view in self.iterates[self.keep]
                if not np.isfinite(view).all()))


# --- the solver ---------------------------------------------------------------

def pdhg_solve(problem: ProblemSpec, steps: StepSizes = None, *, budget: int,
               init_x=None, init: SaddleState = None, ground_truth=None,
               metrics_every: int = 1):
    """Run the block primal-dual iteration for `budget` iterations.

    Returns (final SaddleState, RunMetrics). Step sizes are derived (and
    certified) at unit dual scales unless given; given steps
    run on the block assembly they were certified on, which must have been
    built for this problem's regularizer and dualized forward map (the
    same objects). metrics_every controls how often objectives are
    evaluated; the final iterate is always recorded. A supplied init state,
    of the plan's array count and shapes, is only read; the returned state
    owns its arrays, so it can be the init of a later call that continues it.
    """
    budget = as_count(budget, 1, "budget")
    metrics_every = as_count(metrics_every, 0, "metrics_every")
    if steps is None:
        steps = compute_step_sizes(assemble_problem(problem))
    assembly = steps.assembly
    if assembly.regularizer is not problem.regularizer:
        raise CertificationError("step sizes were certified for another regularizer")
    if assembly.forward is not _dualized_forward(problem):
        raise CertificationError("step sizes were certified for another forward operator")
    state = init if init is not None else initial_state(problem, assembly, init_x)
    metrics = RunMetrics(ground_truth)

    def observe():
        x, *z = plan.u
        rows = plan.kept_rows[plan.keep]
        metrics.record(plan.iteration, evaluate_objectives(problem, x, z, rows=rows), x)

    with np.errstate(over="ignore", invalid="ignore"):  # the guard reports a non-finite iterate
        plan = SolvePlan(problem, steps, state)
        plan.guard()
        observe()
        for _ in range(budget):
            plan.step()
            plan.guard()
            if metrics_every and plan.iteration % metrics_every == 0:
                observe()
        if metrics.rows[-1][0] != plan.iteration:
            observe()
    final = plan.view()
    del plan  # frees the work buffers before the iterates are copied out
    return copy.deepcopy(final), metrics


# --- subgradient baselines ----------------------------------------------------

@dataclass(frozen=True)
class ConstantStep:
    step: float

    def __post_init__(self):
        object.__setattr__(self, "step", as_real(self.step, "step", "positive"))

    def at(self, k):
        return self.step


@dataclass(frozen=True)
class DiminishingStep:
    """Initial step divided by the iteration counter."""

    initial: float

    def __post_init__(self):
        object.__setattr__(self, "initial", as_real(self.initial, "initial step", "positive"))

    def at(self, k):
        return self.initial / k


def subgradient_solve(problem: ProblemSpec, mode, *, budget: int, init_x=None,
                      ground_truth=None, metrics_every: int = 1):
    """Projected subgradient descent on the nested objective.

    mode is ConstantStep or DiminishingStep. The auxiliary variables are
    implicitly the network trace, so the reformulated objective equals the
    nested one and feasibility is identically zero. Each iteration shares
    one forward application between the step and the recorded objective.
    """
    budget = as_count(budget, 1, "budget")
    metrics_every = as_count(metrics_every, 0, "metrics_every")
    x = as_tensor(init_x) if init_x is not None else default_initial_image(problem)
    metrics = RunMetrics(ground_truth)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing objective records inf
        for k in range(budget + 1):
            fwd = problem.apply_forward(x)
            reg_value, reg_grad = icnn_mod.value_and_subgradient(problem.regularizer, x)
            if (metrics_every and k % metrics_every == 0) or k in (0, budget):
                data_value = problem.fidelity.value(fwd, problem.measurement)
                reg_term = problem.reg_weight * reg_value
                total = data_value + reg_term
                metrics.record(k, ObjectiveReport(total, total, 0.0, data_value, reg_term), x)
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
    for it, value, *_ in metrics.rows:
        if absolute:
            hit = abs(value - reference_value) < target_rel_error
        else:
            hit = (value - reference_value) / abs(reference_value) < target_rel_error
        if hit:
            return it, absolute
    return None, absolute
