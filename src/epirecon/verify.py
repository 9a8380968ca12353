"""Independent numeric oracles and the bundled property-test suites.

The oracles deliberately avoid the code paths they check: spectral norms
come from cyclic Jacobi sweeps instead of power iteration, proxes from
golden-section search instead of closed forms, projections from 2-d grid
refinement, and minimizers of small convex problems from coarse-to-fine
grid search (sound because the objectives are convex).
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import icnn as icnn_mod
from . import linops, prox, solver
from .blocks import assemble_blocks
from .icnn import ConvPoolDenseTemplate, DenseTemplate, random_admissible
from .radon import Radon, RadonGeometry

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# --- oracles -------------------------------------------------------------------

def golden_section_vec(f, lo, hi, tol=1e-10, max_iter=120):
    """Elementwise golden-section minimizer over per-lane brackets."""
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    for _ in range(max_iter):
        span = hi - lo
        if float(span.max(initial=0.0)) <= tol:
            break
        c = hi - _INVPHI * span
        d = lo + _INVPHI * span
        take_left = f(c) <= f(d)
        hi = np.where(take_left, d, hi)
        lo = np.where(take_left, lo, c)
    return (lo + hi) / 2.0


def moreau_conjugate_prox(prox_fn, step, xbar):
    """Prox of step*h^* from the prox of h: xbar - step * prox_{h/step}(xbar/step).

    prox_fn(step, point) must evaluate prox of step*h at point.
    """
    step = prox._check_step(step)
    xbar = np.asarray(xbar, dtype=np.float64)
    return xbar - step * prox_fn(1.0 / step, xbar / step)


def jacobi_spectral_norm(mat, max_sweeps=100, tol=1e-13):
    """Largest singular value via cyclic Jacobi on the Gram matrix."""
    mat = np.asarray(mat, dtype=np.float64)
    s = mat.T @ mat
    n = s.shape[0]
    if n == 0:
        return 0.0
    scale = max(float(np.abs(np.diag(s)).max(initial=0.0)), 1.0)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = s[p, q]
                off = max(off, abs(apq))
                if abs(apq) <= tol * scale:
                    continue
                theta = (s[q, q] - s[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sn = t * c
                rot_p = c * s[:, p] - sn * s[:, q]
                rot_q = sn * s[:, p] + c * s[:, q]
                s[:, p], s[:, q] = rot_p, rot_q
                rot_p = c * s[p, :] - sn * s[q, :]
                rot_q = sn * s[p, :] + c * s[q, :]
                s[p, :], s[q, :] = rot_p, rot_q
        if off <= tol * scale:
            break
    return math.sqrt(max(float(np.diag(s).max()), 0.0))


def grid_project_epigraph(alpha, pbar, qbar, rounds=12, pts=41):
    """Projection onto the leaky-relu epigraph by grid refinement.

    A point inside the set is its own projection; otherwise the projection
    lies on the boundary graph (p, max(p, alpha*p)), so the search refines a
    grid over p of the squared distance to that graph. The distance along
    the boundary of a convex set is unimodal, and its curvature in p is at
    least 2, so shrinking the window to the cells around each grid argmin
    cannot lose the minimizer. (A naive masked 2-d grid is biased near the
    boundary by the transverse quantization, which is why the refinement
    runs along the graph instead.)
    """
    pb = np.atleast_1d(np.asarray(pbar, dtype=np.float64)).ravel()
    qb = np.atleast_1d(np.asarray(qbar, dtype=np.float64)).ravel()
    out_p = pb.copy()
    out_q = qb.copy()
    outside = np.maximum(pb, alpha * pb) > qb
    for i in np.flatnonzero(outside):
        cp, cq = pb[i], qb[i]
        # the foot's p-coordinate is bounded by the projected point's size
        hw = 2.0 * max(1.0, abs(cp), abs(cq))
        bp = 0.0
        for _ in range(rounds):
            ps = np.linspace(bp - hw, bp + hw, pts)
            qs = np.maximum(ps, alpha * ps)
            dist = (ps - cp) ** 2 + (qs - cq) ** 2
            bp = ps[int(np.argmin(dist))]
            hw = 1.6 * (2.0 * hw / (pts - 1))
        out_p[i] = bp
        out_q[i] = max(bp, alpha * bp)
    shape = np.shape(pbar)
    return out_p.reshape(shape), out_q.reshape(shape)


def kl_conjugate_oracle(wbar, sigma, counts, background, outer_tol=1e-9):
    """Prox of the kl-fidelity conjugate by nested 1-d golden section.

    The conjugate value is itself evaluated numerically (inner maximization
    over the photon mean), so nothing here shares a formula with the
    closed-form implementation.
    """
    wb = np.atleast_1d(np.asarray(wbar, dtype=np.float64)).ravel()
    y = np.broadcast_to(np.asarray(counts, dtype=np.float64), wb.shape).ravel()
    r = np.broadcast_to(np.asarray(background, dtype=np.float64), wb.shape).ravel()
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), wb.shape).ravel()

    def fidelity(w):
        mean = w + r
        val = np.where(mean >= 0.0, w - y + r, np.inf)
        pos = y > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            logterm = np.where(pos & (mean > 0.0), y * np.log(y / np.maximum(mean, 1e-300)),
                               np.where(pos, np.inf, 0.0))
        return val + logterm

    def conjugate(v):
        w_hi = y / np.maximum(1.0 - v, 1e-9) + r + 10.0
        w_lo = -r + 1e-12
        w_star = golden_section_vec(lambda w: -(w * v - fidelity(w)), w_lo, w_hi, tol=1e-11)
        return w_star * v - fidelity(w_star)

    # the prox output v* satisfies v* <= min(1, wbar + sigma*bg); when v* <= 0
    # the photon mean is at most the counts, giving v* >= wbar - sigma*counts
    v_lo = np.minimum(0.0, wb - sig * y) - 1.0
    v_hi = np.minimum(1.0 - 1e-9, wb + sig * r + 1.0)
    v_lo = np.minimum(v_lo, v_hi - 1e-6)
    result = golden_section_vec(
        lambda v: (v - wb) ** 2 / (2.0 * sig) + conjugate(v), v_lo, v_hi, tol=outer_tol)
    return result.reshape(np.shape(wbar))


def refine_grid_minimize(f_batch, lower, upper, rounds=12, pts=13):
    """Coarse-to-fine grid minimization of a convex function on a box.

    Convexity keeps the continuous minimizer within one cell of each grid
    argmin, so shrinking the window to the surrounding cells is sound.
    """
    lower = np.asarray(lower, dtype=np.float64).copy()
    upper = np.asarray(upper, dtype=np.float64).copy()
    orig_lo, orig_hi = lower.copy(), upper.copy()
    n = lower.size
    best = None
    best_val = np.inf
    for _ in range(rounds):
        axes = [np.linspace(lower[d], upper[d], pts) for d in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        vals = f_batch(points)
        k = int(np.argmin(vals))
        best, best_val = points[k], float(vals[k])
        cell = (upper - lower) / (pts - 1)
        lower = np.maximum(orig_lo, best - 1.6 * cell)
        upper = np.minimum(orig_hi, best + 1.6 * cell)
    return best, best_val


def icnn_batch_values(spec, points):
    """Regularizer values on a batch of flat inputs, computed directly from
    the dense layer matrices (independent of the forward implementation)."""
    acts = None
    for i, layer in enumerate(spec.layers, start=1):
        pre = np.zeros((points.shape[0],) + layer.output_shape)
        if layer.skip is not None:
            pre += points @ layer.skip.matrix.T
        if layer.carry is not None:
            pre += acts @ layer.carry.matrix.T
        pre += layer.bias
        a = layer.activation.negative_slope
        out = np.maximum(pre, a * pre)
        if layer.residual:
            out = out + (acts if i > 1 else points)
        acts = out
    values = acts @ spec.readout_weights()
    return values


# --- suite harness -------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    seed: int

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag:4s}  {self.name:24s} {self.seconds:7.2f}s  {self.detail}"


def _timed(name, seed, fn):
    started = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # suites report, never crash the runner
        passed, detail = False, f"exception: {exc}"
    return SuiteResult(name, passed, detail, time.perf_counter() - started, seed)


def default_operator_set(seed=0):
    """Named operators exercising every kind, plus assembled network blocks."""
    rng = np.random.default_rng(seed)
    ops = [
        ("dense_7x5", linops.Dense(rng.standard_normal((7, 5)))),
        ("conv2d_2f3x3", linops.Conv2D(rng.standard_normal((2, 3, 3)), (6, 6))),
        ("conv2d_even2x2", linops.Conv2D(rng.standard_normal((1, 2, 2)), (5, 5))),
        ("conv2d_multi_in", linops.Conv2D(rng.standard_normal((3, 2, 3, 3)), (2, 6, 6))),
        ("avgpool_2x2", linops.AvgPool2D(2, (2, 6, 6))),
        ("diagonal_mask", linops.DiagonalMask((rng.uniform(0, 1, (6, 6)) > 0.4) * 1.0)),
        ("scaled_identity", linops.ScaledIdentity((4, 4), -1.0)),
        ("compose_pool_dense", linops.Compose([
            linops.AvgPool2D(2, (8, 8)),
            linops.Dense(rng.standard_normal((3, 16)), input_shape=(4, 4))])),
        ("radon_16x16", Radon(RadonGeometry(image_side=16, n_angles=12, n_bins=24))),
    ]
    net = random_admissible(seed + 1, ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    assembly = assemble_blocks(net, forward=Radon(
        RadonGeometry(image_side=8, n_angles=6, n_bins=13)))
    for i, block in enumerate(assembly.blocks):
        ops.append((f"block_{block.kind}_{i}", block.operator.flat()))
    deep = random_admissible(seed + 2, DenseTemplate(
        input_dim=4, hidden_dims=(4, 4), readout_dim=2, skip_all=True,
        residual_layers=(2,)))
    deep_assembly = assemble_blocks(deep)
    for i, block in enumerate(deep_assembly.blocks):
        ops.append((f"dense_block_{block.kind}_{i}", block.operator.flat()))
    return ops


def _adjoint_gap(op, rng):
    x = rng.standard_normal(op.input_shape)
    w = rng.standard_normal(op.output_shape)
    lhs = float(np.vdot(op.apply(x), w))
    rhs = float(np.vdot(x, op.adjoint(w)))
    nx = float(np.sqrt(np.vdot(x, x)))
    nw = float(np.sqrt(np.vdot(w, w)))
    return abs(lhs - rhs), 1.0 + nx * nw


def adjoint_suite(named_ops=None, pairs=100, seed=0, tol=1e-8):
    """<Kx, w> == <x, K*w> within tol*(1 + |x||w|) on random pairs."""
    def run():
        ops = named_ops if named_ops is not None else default_operator_set(seed)
        rng = np.random.default_rng(seed + 17)
        worst = (0.0, "")
        for name, op in ops:
            for _ in range(pairs):
                gap, allowance = _adjoint_gap(op, rng)
                rel = gap / (tol * allowance)
                if rel > worst[0]:
                    worst = (rel, name)
                if gap > tol * allowance:
                    return False, f"adjoint identity broken for {name}: gap {gap:.3e}"
        return True, f"{len(ops)} operators x {pairs} pairs, worst {worst[0]:.3f}*tol ({worst[1]})"
    return _timed("adjoint", seed, run)


def linearity_suite(named_ops=None, trials=20, seed=0, rel_tol=1e-10):
    def run():
        ops = named_ops if named_ops is not None else default_operator_set(seed)
        rng = np.random.default_rng(seed + 29)
        for name, op in ops:
            for _ in range(trials):
                x = rng.standard_normal(op.input_shape)
                y = rng.standard_normal(op.input_shape)
                a, b = rng.uniform(-2, 2, 2)
                lhs = op.apply(a * x + b * y)
                rhs = a * op.apply(x) + b * op.apply(y)
                scale = float(np.max(np.abs(rhs))) + 1.0
                if float(np.max(np.abs(lhs - rhs))) > rel_tol * scale:
                    return False, f"linearity broken for {name}"
        return True, f"{trials} combinations per operator"
    return _timed("linearity", seed, run)


def norm_oracle_suite(seed=0, tol=1e-5):
    """Power-iteration norms against the Jacobi oracle on small dense ops."""
    def run():
        rng = np.random.default_rng(seed + 41)
        cases = [
            ("dense_8x8", linops.Dense(rng.standard_normal((8, 8)))),
            ("dense_diag", linops.Dense(np.diag([3.0, 1.0]))),
            ("conv_small", linops.Conv2D(rng.standard_normal((2, 3, 3)), (5, 5))),
            ("radon_tiny", Radon(RadonGeometry(image_side=8, n_angles=6, n_bins=13))),
            ("mask", linops.DiagonalMask(np.array([1.0, 0.0, 1.0]))),
        ]
        worst = 0.0
        for name, op in cases:
            est = linops.estimate_norm(op, tol=1e-10, max_iters=5000, seed=seed)
            oracle = jacobi_spectral_norm(linops.materialize(op))
            gap = abs(est.value - oracle) / max(oracle, 1.0)
            worst = max(worst, gap)
            if gap > tol:
                return False, f"norm mismatch for {name}: {est.value} vs {oracle}"
        return True, f"{len(cases)} operators, worst relative gap {worst:.2e}"
    return _timed("norm-vs-oracle", seed, run)


def prox_oracle_suite(instances=300, seed=0, tol=1e-6):
    """Closed-form scalar proxes against golden-section minimization."""
    def run():
        rng = np.random.default_rng(seed + 53)
        n = instances
        xb = rng.uniform(-4, 4, n)
        step = rng.uniform(0.05, 3.0, n)
        center = rng.uniform(-2, 2, n)
        weight = rng.uniform(0.1, 2.0, n)
        got = prox.soft_shrink(xb, step * weight, center)
        want = golden_section_vec(
            lambda v: (v - xb) ** 2 / (2 * step) + weight * np.abs(v - center),
            xb - 5 * step * weight - 1, xb + 5 * step * weight + 1, tol=1e-10)
        if np.max(np.abs(got - want)) > tol:
            return False, f"soft_shrink mismatch {np.max(np.abs(got - want)):.2e}"
        cap = rng.uniform(0.0, 2.0, n)
        bias = rng.uniform(-1.5, 1.5, n)
        slope = rng.choice([0.0, 0.2, 1.0], n)
        got = prox.readout_conjugate_prox(xb, step, cap, bias, 0.0)
        want = golden_section_vec(
            lambda v: (v - xb) ** 2 / (2 * step)
            + np.where((v >= 0.0) & (v <= cap), -bias * v, np.inf),
            np.zeros(n) - 1e-9, cap + 1e-9, tol=1e-10)
        if np.max(np.abs(got - want)) > tol:
            return False, f"readout conjugate mismatch {np.max(np.abs(got - want)):.2e}"
        for s in (0.0, 0.2, 1.0):
            sel = slope == s
            if not np.any(sel):
                continue
            got = prox.readout_conjugate_prox(xb[sel], step[sel], cap[sel], bias[sel], s)
            lowcap = s * cap[sel]
            want = golden_section_vec(
                lambda v: (v - xb[sel]) ** 2 / (2 * step[sel])
                + np.where((v >= lowcap - 1e-12) & (v <= cap[sel] + 1e-12),
                           -bias[sel] * v, np.inf),
                lowcap - 1e-9, cap[sel] + 1e-9, tol=1e-10)
            if np.max(np.abs(got - want)) > tol:
                return False, f"readout slope {s} mismatch"
        y = rng.uniform(0.0, 5.0, n)
        y[rng.uniform(size=n) < 0.2] = 0.0
        r = rng.uniform(0.0, 2.0, n)
        sig = rng.uniform(0.1, 2.0, n)
        got = prox.kl_conjugate_prox(xb, sig, y, r)
        want = kl_conjugate_oracle(xb, sig, y, r)
        if np.max(np.abs(got - want)) > tol:
            return False, f"kl conjugate mismatch {np.max(np.abs(got - want)):.2e}"
        return True, f"{n} instances per prox family"
    return _timed("prox-vs-oracle", seed, run)


def epigraph_suite(instances=200, seed=0, tol=1e-6):
    """Leaky-relu epigraph projection against the grid-search oracle."""
    def run():
        rng = np.random.default_rng(seed + 67)
        for alpha in (0.0, 0.2):
            pb = rng.uniform(-3, 3, instances)
            qb = rng.uniform(-3, 3, instances)
            p, q = prox.project_epigraph_leaky_relu(alpha, pb, qb)
            gp, gq = grid_project_epigraph(alpha, pb, qb)
            gap = float(np.max(np.hypot(p - gp, q - gq)))
            if gap > tol:
                return False, f"alpha={alpha}: projection off oracle by {gap:.2e}"
            if np.any(np.maximum(p, alpha * p) > q + 1e-12):
                return False, f"alpha={alpha}: membership violated"
            p2, q2 = prox.project_epigraph_leaky_relu(alpha, p, q)
            if not (np.array_equal(p, p2) and np.array_equal(q, q2)):
                return False, f"alpha={alpha}: projection not bitwise idempotent"
        return True, f"{instances} points per slope, membership and idempotence ok"
    return _timed("epigraph-projection", seed, run)


def convexity_suite(specs=8, triples=400, seed=0, tol=1e-9):
    """Jensen inequality sampling on random admissible networks."""
    def run():
        rng = np.random.default_rng(seed + 71)
        templates = [
            DenseTemplate(input_dim=4, hidden_dims=(5,), readout_dim=3),
            DenseTemplate(input_dim=3, hidden_dims=(4, 4), skip_all=True),
            DenseTemplate(input_dim=4, hidden_dims=(4, 4), skip_all=True,
                          residual_layers=(2,)),
            DenseTemplate(input_dim=2, hidden_dims=(6,), final_activation="identity"),
        ]
        for s in range(specs):
            spec = random_admissible(seed + 100 + s, templates[s % len(templates)])
            dim = spec.input_shape[0]
            for _ in range(triples):
                a = rng.uniform(-3, 3, dim)
                b = rng.uniform(-3, 3, dim)
                lam = rng.uniform()
                fa, _ = icnn_mod.forward(spec, a)
                fb, _ = icnn_mod.forward(spec, b)
                fm, _ = icnn_mod.forward(spec, lam * a + (1 - lam) * b)
                slack = tol * (1.0 + abs(fa) + abs(fb))
                if fm > lam * fa + (1 - lam) * fb + slack:
                    return False, f"jensen violated on spec {s}"
        return True, f"{specs} networks x {triples} triples"
    return _timed("convexity", seed, run)


def equivalence_suite(instances=5, seed=0, budget=20000,
                      gap_tol=1e-4, arg_tol=1e-3):
    """Solver on the constrained form against grid search on the nested form."""
    def run():
        worst_gap, worst_arg = 0.0, 0.0
        for idx in range(instances):
            dim = 2 + idx % 3
            spec = random_admissible(seed + 300 + idx, DenseTemplate(
                input_dim=dim, hidden_dims=(3,), readout_dim=2))
            rng = np.random.default_rng(seed + 400 + idx)
            y = rng.uniform(-0.5, 0.5, dim)
            problem = solver.ProblemSpec(
                fidelity=solver.l2_fidelity(), forward=None, measurement=y,
                reg_weight=0.3, regularizer=spec)

            def objective(points):
                fid = 0.5 * np.sum((points - y) ** 2, axis=1)
                return fid + problem.reg_weight * icnn_batch_values(spec, points)

            x_star, f_star = refine_grid_minimize(
                objective, np.full(dim, -3.0), np.full(dim, 3.0))
            state, _ = solver.pdhg_solve(problem, budget=budget, metrics_every=0,
                                         init_x=np.zeros(dim))
            f_pd = float(objective(state.x[None, :])[0])
            gap = f_pd - f_star
            arg = float(np.max(np.abs(state.x - x_star)))
            worst_gap, worst_arg = max(worst_gap, gap), max(worst_arg, arg)
            if gap > gap_tol or arg > arg_tol:
                return False, (f"instance {idx} (dim {dim}): gap {gap:.2e}, "
                               f"arg distance {arg:.2e}")
        return True, f"{instances} instances, worst gap {worst_gap:.2e}, arg {worst_arg:.2e}"
    return _timed("equivalence-small", seed, run)


def certificate_suite(seed=0, tol=1e-6):
    """Materialized scaled block norm under the certified step sizes."""
    def run():
        net = random_admissible(seed + 500, ConvPoolDenseTemplate(
            side=8, filters=2, kernel=3, pool=4, hidden=4))
        for forward in (None, Radon(RadonGeometry(image_side=8, n_angles=6, n_bins=13))):
            assembly = assemble_blocks(net, forward=forward)
            steps = solver.compute_step_sizes(assembly, norm_seed=seed)
            rows = []
            for bi, block in enumerate(assembly.blocks):
                mat = linops.materialize(block.operator.flat())
                rows.append(math.sqrt(steps.sigma[bi]) * mat)
            stacked = np.vstack(rows)
            col_scale = np.concatenate([
                np.full(int(np.prod(s)), math.sqrt(steps.tau[j]))
                for j, s in enumerate(assembly.primal_shapes)])
            norm = jacobi_spectral_norm(stacked * col_scale[None, :])
            if norm > 1.0 + tol:
                return False, f"scaled block norm {norm} exceeds 1"
        return True, "preconditioned norm <= 1 with and without a fidelity block"
    return _timed("step-certificates", seed, run)


def run_all_suites(seed=0):
    return [
        adjoint_suite(pairs=30, seed=seed),
        linearity_suite(seed=seed),
        norm_oracle_suite(seed=seed),
        prox_oracle_suite(seed=seed),
        epigraph_suite(seed=seed),
        convexity_suite(seed=seed),
        equivalence_suite(instances=3, seed=seed, budget=12000),
        certificate_suite(seed=seed),
    ]
