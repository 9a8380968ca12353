"""Independent numeric oracles and the bundled property-test suites.

The oracles deliberately avoid the code paths they check: spectral norms
come from cyclic Jacobi sweeps instead of power iteration, proxes and
epigraph projections from golden-section search instead of closed forms,
and minimizers of small convex problems from coarse-to-fine grid search
(sound because the objectives are convex).
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import icnn as icnn_mod
from . import linops, prox, solver, tensor
from .blocks import assemble_blocks
from .icnn import ConvPoolDenseTemplate, DenseTemplate, random_admissible
from .radon import Radon, RadonGeometry

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# --- oracles -------------------------------------------------------------------

def golden_section_vec(f, lo, hi, tol=1e-10):
    """Elementwise golden-section minimizer over per-lane brackets (at most 120 steps)."""
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    for _ in range(120):
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
    step = tensor.as_array(step, "step", "positive")
    xbar = np.asarray(xbar, dtype=np.float64)
    return xbar - step * prox_fn(1.0 / step, xbar / step)


def jacobi_spectral_norm(mat):
    """Largest singular value by one-sided cyclic Jacobi: rows p, q of B = matᵀ
    turn by the angle that zeroes entry (p, q) of the Gram matrix B Bᵀ. A sweep
    meets every pair once in round-robin order (row 0 stays, the rest move one
    seat per round; an odd n gets a zero row), each round's pairs in adjacent
    rows, so its disjoint rotations are whole-array updates of two row views.
    It stops after 100 sweeps, or once no Gram entry off the diagonal exceeds tol * scale."""
    b, tol = np.asarray(mat, dtype=np.float64).T, 1e-13
    n = b.shape[0]
    half = (n + 1) // 2
    b = np.concatenate([b, np.zeros((2 * half - n, b.shape[1]))])
    scale = max(float(np.einsum("ij,ij->i", b, b).max()), 1.0)
    def seating(r):  # round r's pairs (ring[k], ring[-1-k]) in rows 2k, 2k+1
        ring = np.concatenate(([0], np.roll(np.arange(1, 2 * half), r)))
        return np.stack([ring[:half], ring[::-1][:half]], axis=1).ravel()
    move = np.argsort(seating(0))[seating(1)]  # the same for every round
    b = b[seating(0)]
    for _ in range(100):
        off = 0.0
        for _ in range(2 * half - 1):
            pairs = b.reshape(half, 2, -1)
            gpq = np.einsum("ij,ij->i", pairs[:, 0], pairs[:, 1])
            off = max(off, float(np.abs(gpq).max()))
            turn = np.flatnonzero(np.abs(gpq) > tol * scale)
            if turn.size:
                bp, bq, gpq = pairs[turn, 0], pairs[turn, 1], gpq[turn]
                theta = (np.einsum("ij,ij->i", bq, bq)
                         - np.einsum("ij,ij->i", bp, bp)) / (2.0 * gpq)
                t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(1.0, theta))
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                sn = t[:, None] * c
                pairs[turn, 0], pairs[turn, 1] = c * bp - sn * bq, sn * bp + c * bq
            b = b[move]
        if off <= tol * scale:
            break
    return math.sqrt(float(np.einsum("ij,ij->i", b, b).max()))


def golden_project_epigraph(alpha, pbar, qbar):
    """Projection onto the leaky-relu epigraph by golden-section search.

    A point inside the set is its own projection; otherwise the projection is
    the boundary point (p, max(p, alpha*p)) nearest to it, whose p lies within
    2*max(1, |pbar|, |qbar|) of 0. The squared distance is unimodal in p: it is
    convex on each side of the kink, and where the kink is concave (qbar > 0)
    an outside point has pbar > qbar > 0, so the distance falls all the way
    to a minimizer right of 0.
    """
    pb = np.asarray(pbar, dtype=np.float64)
    qb = np.asarray(qbar, dtype=np.float64)
    half = 2.0 * np.maximum(1.0, np.maximum(np.abs(pb), np.abs(qb)))
    p = golden_section_vec(lambda p: (p - pb) ** 2 + (np.maximum(p, alpha * p) - qb) ** 2,
                           -half, half)
    inside = np.maximum(pb, alpha * pb) <= qb
    return np.where(inside, pb, p), np.where(inside, qb, np.maximum(p, alpha * p))


def kl_conjugate_oracle(wbar, sigma, counts, background):
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
        lambda v: (v - wb) ** 2 / (2.0 * sig) + conjugate(v), v_lo, v_hi, tol=1e-9)
    return result.reshape(np.shape(wbar))


def refine_grid_minimize(f_batch, lower, upper):
    """Coarse-to-fine grid minimization of a convex function on a box: 12
    rounds of 13 points per axis. Convexity keeps the continuous minimizer
    within one cell of each grid argmin, so shrinking the window to the
    surrounding cells is sound.
    """
    lower = np.asarray(lower, dtype=np.float64).copy()
    upper = np.asarray(upper, dtype=np.float64).copy()
    orig_lo, orig_hi = lower.copy(), upper.copy()
    n = lower.size
    best = None
    best_val, pts = np.inf, 13
    for _ in range(12):
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


def _require(ok, message):
    """Fail the running suite with message unless ok; a NaN gap fails `gap <= tol`."""
    if not ok:
        raise AssertionError(message)


def _timed(name, seed, fn):
    """Run a suite body, which returns its PASS detail or fails through _require."""
    started = time.perf_counter()
    try:
        passed, detail = True, fn()
    except AssertionError as exc:  # from _require: its message is the detail
        passed, detail = False, str(exc)
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
    conv = assemble_blocks(random_admissible(seed + 1, ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4)),
        forward=Radon(RadonGeometry(image_side=8, n_angles=6, n_bins=13)))
    deep = assemble_blocks(random_admissible(seed + 2, DenseTemplate(
        input_dim=4, hidden_dims=(4, 4), readout_dim=2, skip_all=True, residual_layers=(2,))))
    return ops + [(f"{prefix}block_{block.kind}_{i}", block.operator.flat())
                  for prefix, assembly in (("", conv), ("dense_", deep))
                  for i, block in enumerate(assembly.blocks)]


def adjoint_suite(named_ops=None, pairs=100, seed=0):
    """<Kx, w> == <x, K*w> within tol*(1 + |x||w|), tol = 1e-8, on random pairs."""
    def run():
        ops = named_ops if named_ops is not None else default_operator_set(seed)
        rng, tol = np.random.default_rng(seed + 17), 1e-8
        worst = (0.0, "")
        for name, op in ops:
            for _ in range(pairs):
                x = rng.standard_normal(op.input_shape)
                w = rng.standard_normal(op.output_shape)
                gap = abs(float(np.vdot(op.apply(x), w)) - float(np.vdot(x, op.adjoint(w))))
                allowance = 1.0 + float(np.sqrt(np.vdot(x, x))) * float(np.sqrt(np.vdot(w, w)))
                _require(gap <= tol * allowance,
                         f"adjoint identity broken for {name}: gap {gap:.3e}")
                worst = max(worst, (gap / (tol * allowance), name))
        return (f"{len(ops)} operators x {pairs} pairs, "
                f"worst gap {worst[0]:.1e}*tol ({worst[1]})")
    return _timed("adjoint", seed, run)


def linearity_suite(seed=0):
    def run():
        ops, trials, rel_tol = default_operator_set(seed), 20, 1e-10
        rng = np.random.default_rng(seed + 29)
        for name, op in ops:
            for _ in range(trials):
                x = rng.standard_normal(op.input_shape)
                y = rng.standard_normal(op.input_shape)
                a, b = rng.uniform(-2, 2, 2)
                lhs = op.apply(a * x + b * y)
                rhs = a * op.apply(x) + b * op.apply(y)
                scale = float(np.max(np.abs(rhs))) + 1.0
                _require(float(np.max(np.abs(lhs - rhs))) <= rel_tol * scale,
                         f"linearity broken for {name}")
        return f"{trials} combinations per operator"
    return _timed("linearity", seed, run)


def norm_oracle_suite(seed=0, tol=1e-5):
    """Power-iteration norms and certified norm bounds against the Jacobi oracle."""
    def run():
        rng = np.random.default_rng(seed + 41)
        cases = [
            ("dense_8x8", linops.Dense(rng.standard_normal((8, 8)))),
            ("dense_rect", linops.Dense(rng.standard_normal((12, 5)))),
            ("dense_diag", linops.Dense(np.diag([3.0, 1.0]))),
            ("conv_small", linops.Conv2D(rng.standard_normal((2, 3, 3)), (5, 5))),
            ("radon_tiny", Radon(RadonGeometry(image_side=8, n_angles=6, n_bins=13))),
            ("radon_16", Radon(RadonGeometry(image_side=16, n_angles=12, n_bins=24))),
            ("mask", linops.DiagonalMask(np.array([1.0, 0.0, 1.0]))),
            ("conv_multi_in_out", linops.Conv2D(rng.standard_normal((3, 2, 3, 3)), (2, 5, 5))),
            ("conv_single_2d", linops.Conv2D(rng.standard_normal((1, 3, 3)), (6, 6))),
            ("conv_even_4x2", linops.Conv2D(rng.standard_normal((2, 4, 2)), (6, 5))),
            ("compose_pool_dense", linops.Compose([linops.AvgPool2D(2, (4, 4)), linops.Dense(
                rng.standard_normal((3, 4)), input_shape=(2, 2))])),
            ("radon_unreached", Radon(RadonGeometry(image_side=8, n_angles=2, n_bins=4))),
        ]
        worst = 0.0
        for name, op in cases:
            est = linops.estimate_norm(op, tol=1e-11, max_iters=20000, seed=seed)
            oracle = jacobi_spectral_norm(linops.materialize(op))
            gap = abs(est.value - oracle) / max(oracle, 1.0)
            _require(gap <= tol and oracle <= op.norm_bound,
                     f"norm mismatch for {name}: estimate {est.value}, "
                     f"bound {op.norm_bound}, oracle {oracle}")
            worst = max(worst, gap)
        return f"{len(cases)} operators, worst relative gap {worst:.2e}, bounds hold"
    return _timed("norm-vs-oracle", seed, run)


def _require_hits(family, branches):
    """Fail naming the first branch (name -> hit mask) that no sample reached."""
    for name, hit in branches.items():
        _require(np.any(hit), f"{family}: branch {name!r} never hit")


def _require_close(gaps, family, gap, tol):
    """Fail unless every pointwise gap is at most tol; record family's worst in gaps."""
    gap = float(np.max(gap))
    _require(gap <= tol, f"{family} off its oracle by {gap:.2e}")
    gaps[family] = max(gaps.get(family, 0.0), gap)


def prox_oracle_suite(instances=300, seed=0):
    """Closed-form scalar proxes against golden-section minimization; every
    branch of the shrink, readout and KL forms must be hit."""
    def run():
        rng, tol = np.random.default_rng(seed + 53), 1e-6
        n = instances
        gaps = {}
        xb = rng.uniform(-4, 4, n)
        step = rng.uniform(0.05, 3.0, n)
        center = rng.uniform(-2, 2, n)
        weight = rng.uniform(0.1, 2.0, n)
        diff, thr = xb - center, step * weight
        _require_hits("shrink", {"above": diff > thr, "dead zone": np.abs(diff) <= thr,
                                 "below": diff < -thr})
        got = prox.soft_shrink(xb, thr, center)
        want = golden_section_vec(
            lambda v: (v - xb) ** 2 / (2 * step) + weight * np.abs(v - center),
            xb - 5 * thr - 1, xb + 5 * thr + 1, tol=1e-10)
        _require_close(gaps, "shrink", np.abs(got - want), tol)
        cap = rng.uniform(0.0, 2.0, n)
        bias = rng.uniform(-1.5, 1.5, n)
        slope = rng.choice([0.0, 0.2, 1.0], n)
        for s in (0.0, 0.2, 1.0):
            sel = slope == s
            wb, sg, hi, b = xb[sel], step[sel], cap[sel], bias[sel]
            lo, shifted = s * hi, wb + sg * b
            hits = {"below": shifted < lo, "above": shifted > hi}
            if s < 1.0:  # the identity readout's box is the single point cap
                hits["inside"] = (shifted >= lo) & (shifted <= hi)
            _require_hits(f"readout slope {s}", hits)
            got = prox.readout_conjugate_prox(wb, sg, hi, b, s)
            want = golden_section_vec(lambda v: (v - wb) ** 2 / (2 * sg) - b * v, lo, hi,
                                      tol=1e-10)  # the conjugate's box is the bracket
            _require_close(gaps, "readout", np.abs(got - want), tol)
        y = rng.uniform(0.0, 5.0, n)
        y[rng.uniform(size=n) < 0.2] = 0.0
        _require_hits("kl", {"zero count": y == 0.0, "positive count": y > 0.0})
        r = rng.uniform(0.0, 2.0, n)
        sig = rng.uniform(0.1, 2.0, n)
        _require_close(gaps, "kl", np.abs(prox.kl_conjugate_prox(xb, sig, y, r)
                                          - kl_conjugate_oracle(xb, sig, y, r)), tol)
        # conjugates of weight*|w - m|_1, <v, m> on |v| <= weight, and of
        # (weight/2)|w - m|^2, <v, m> + |v|^2 / (2 weight), whose prox is within |xb - sig*m| < 8
        m = rng.uniform(-2, 2, n)
        for family, got, conj, lo, hi in (
                ("l1", prox.l1_conjugate_kernel(sig, weight, m)(xb, np.empty(n)),
                 lambda v: v * m, -weight, weight),
                ("l2", prox.l2_conjugate_kernel(sig, m, weight)(xb, np.empty(n)),
                 lambda v: v * m + v * v / (2 * weight), -8.0, 8.0)):
            want = golden_section_vec(lambda v: (v - xb) ** 2 / (2 * sig) + conj(v), lo, hi,
                                      tol=1e-10)
            _require_close(gaps, family, np.abs(got - want), tol)
        worst = ", ".join(f"{family} {gap:.1e}" for family, gap in gaps.items())
        return f"{n} instances per prox family, all branches hit, worst gaps: {worst}"
    return _timed("prox-vs-oracle", seed, run)


def epigraph_suite(instances=200, seed=0):
    """Leaky-relu epigraph projection and the PDHG plan's conjugate kernel
    against the golden-section oracle, and the cone properties that kernel
    uses; all four branches must be hit."""
    def run():
        rng, tol = np.random.default_rng(seed + 67), 1e-6
        gaps = {}
        for alpha in (0.0, 0.2):
            pb = rng.uniform(-3, 3, instances)
            qb = rng.uniform(-3, 3, instances)
            inside = np.maximum(pb, alpha * pb) <= qb
            right = ~inside & (np.abs(qb) <= pb)
            left = ~inside & (qb <= alpha * pb) & (pb <= -alpha * qb)
            _require_hits(f"alpha={alpha}", {"inside": inside, "right": right, "left": left,
                                              "corner": ~(inside | right | left)})
            p, q = prox.project_epigraph_leaky_relu(alpha, pb, qb)
            gp, gq = golden_project_epigraph(alpha, pb, qb)
            _require_close(gaps, "epigraph", np.hypot(p - gp, q - gq), tol)
            # the conjugate kernel the PDHG plan runs is v - P(v), here at v = (pb, qb)
            sigma, bias = 0.5, np.linspace(-1.0, 1.0, instances)
            cp, cq = prox.epigraph_conjugate_kernel(sigma, bias, alpha, pb.shape)(
                pb - sigma * bias, qb, np.empty(pb.shape), np.empty(pb.shape))
            _require_close(gaps, "epigraph conjugate",
                           np.hypot(cp - (pb - gp), cq - (qb - gq)), tol)
            _require(np.all(np.maximum(p, alpha * p) <= q + 1e-12),
                     f"alpha={alpha}: membership violated")
            p2, q2 = prox.project_epigraph_leaky_relu(alpha, p, q)
            _require(np.array_equal(p, p2) and np.array_equal(q, q2),
                     f"alpha={alpha}: projection not bitwise idempotent")
            # the PDHG dual step relies on E being a cone: P(t v) = t P(v),
            # bitwise for powers of two, and P(v) orthogonal to v - P(v)
            for t, scale_tol in ((2.0 ** -20, 0.0), (2.0 ** 20, 0.0), (0.37, 1e-12), (3e3, 1e-12)):
                pt, qt = prox.project_epigraph_leaky_relu(alpha, t * pb, t * qb)
                gap = np.max(np.hypot(pt - t * p, qt - t * q) / (t * np.hypot(pb, qb)))
                _require(gap <= scale_tol, f"alpha={alpha}: P({t:g} v) off {t:g} P(v) "
                                           f"by {gap:.1e} relative")
            inner = np.abs(p * (pb - p) + q * (qb - q)) / (pb * pb + qb * qb)
            _require(np.max(inner) <= 1e-12,
                     f"alpha={alpha}: P(v) not orthogonal to v - P(v): {np.max(inner):.1e}")
        return (f"{instances} points per slope, all four branches hit, worst gaps "
                f"{gaps['epigraph']:.1e}, conjugate kernel {gaps['epigraph conjugate']:.1e}, "
                f"membership, idempotence, homogeneity and orthogonality ok")
    return _timed("epigraph-projection", seed, run)


def convexity_suite(specs=8, triples=400, seed=0):
    """Jensen inequality sampling on random admissible networks."""
    def run():
        rng, tol = np.random.default_rng(seed + 71), 1e-9
        templates = [
            DenseTemplate(input_dim=4, hidden_dims=(5,), readout_dim=3),
            DenseTemplate(input_dim=3, hidden_dims=(4, 4), skip_all=True),
            DenseTemplate(input_dim=4, hidden_dims=(4, 4), skip_all=True, residual_layers=(2,)),
            DenseTemplate(input_dim=3, hidden_dims=(3,), skip_all=True, residual_layers=(1,)),
            DenseTemplate(input_dim=2, hidden_dims=(6,), final_activation="identity"),
            ConvPoolDenseTemplate(side=8, filters=2, kernel=3, pool=4, hidden=4),
        ]
        worst = -np.inf
        for s in range(specs):
            spec = random_admissible(seed + 100 + s, templates[s % len(templates)])
            for _ in range(triples):
                a = rng.uniform(-3, 3, spec.input_shape)
                b = rng.uniform(-3, 3, spec.input_shape)
                lam = rng.uniform()
                fa, _ = icnn_mod.forward(spec, a)
                fb, _ = icnn_mod.forward(spec, b)
                fm, _ = icnn_mod.forward(spec, lam * a + (1 - lam) * b)
                excess = (fm - lam * fa - (1 - lam) * fb) / (1.0 + abs(fa) + abs(fb))
                _require(excess <= tol, f"jensen violated on spec {s}")
                worst = max(worst, excess)
        return f"{specs} networks x {triples} triples, worst Jensen excess {worst:.1e}"
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
            _require(gap <= gap_tol and arg <= arg_tol,
                     f"instance {idx} (dim {dim}): gap {gap:.2e}, arg distance {arg:.2e}")
            worst_gap, worst_arg = max(worst_gap, gap), max(worst_arg, arg)
        return f"{instances} instances, worst gap {worst_gap:.2e}, arg {worst_arg:.2e}"
    return _timed("equivalence-small", seed, run)


def preconditioned_norm(steps) -> float:
    """Jacobi norm of S^1/2 K T^1/2, the steps' materialized block operator
    scaled by sqrt(sigma) per row and sqrt(tau) per column; at most 1 certifies."""
    assembly = steps.assembly
    rows = [math.sqrt(steps.sigma[bi]) * linops.materialize(block.operator.flat())
            for bi, block in enumerate(assembly.blocks)]
    cols = np.concatenate([np.full(int(np.prod(s)), math.sqrt(steps.tau[j]))
                           for j, s in enumerate(assembly.primal_shapes)])
    return jacobi_spectral_norm(np.vstack(rows) * cols[None, :])


def certificate_suite(seed=0):
    """Materialized scaled block norm under the certified step sizes, at most 1 + 1e-6."""
    def run():
        net = random_admissible(seed + 500, ConvPoolDenseTemplate(
            side=8, filters=2, kernel=3, pool=4, hidden=4))
        for forward in (None, Radon(RadonGeometry(image_side=8, n_angles=6, n_bins=13))):
            steps = solver.compute_step_sizes(assemble_blocks(net, forward=forward))
            norm = preconditioned_norm(steps)
            _require(norm <= 1.0 + 1e-6, f"scaled block norm {norm} exceeds 1")
        return "preconditioned norm <= 1 with and without a fidelity block"
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
