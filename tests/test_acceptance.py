"""Acceptance criteria: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The comparative-study
criterion builds thirty 64x64 instances and dominates the runtime.
"""

import json
import math
import time

import numpy as np

import epirecon as er
from epirecon import prox
from epirecon.blocks import assemble_blocks
from epirecon.cli import cmd_solve
from epirecon.radon import Radon, RadonGeometry
from epirecon.solver import compute_step_sizes, iterations_to_threshold
from epirecon.verify import (default_operator_set, equivalence_suite,
                             golden_section_vec, grid_project_epigraph,
                             jacobi_spectral_norm, kl_conjugate_oracle,
                             _adjoint_gap)


def report(name, detail):
    print(f"\nPASS {name}: {detail}")


# --- criterion 1: prox exactness vs numeric oracles --------------------------

def test_criterion_1_prox_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 1000

    xb = rng.uniform(-4, 4, n)
    step = rng.uniform(0.05, 3.0, n)
    center = rng.uniform(-2, 2, n)
    weight = rng.uniform(0.1, 2.0, n)
    got = prox.soft_shrink(xb, step * weight, center)
    want = golden_section_vec(
        lambda v: (v - xb) ** 2 / (2 * step) + weight * np.abs(v - center),
        xb - 5 * step * weight - 1, xb + 5 * step * weight + 1, tol=1e-10)
    shrink_gap = float(np.max(np.abs(got - want)))
    assert shrink_gap < 1e-6
    diff = xb - center
    assert np.any(diff > step * weight) and np.any(diff < -step * weight)
    assert np.any(np.abs(diff) <= step * weight)  # every shrink branch hit

    y = rng.uniform(0.0, 5.0, n)
    y[rng.uniform(size=n) < 0.15] = 0.0
    r = rng.uniform(0.0, 2.0, n)
    sig = rng.uniform(0.1, 2.0, n)
    got = prox.kl_conjugate_prox(xb, sig, y, r)
    want = kl_conjugate_oracle(xb, sig, y, r)
    kl_gap = float(np.max(np.abs(got - want)))
    assert kl_gap < 1e-6
    assert np.any(y == 0.0) and np.any(y > 0.0)

    epi_gap = 0.0
    for alpha in (0.0, 0.2):
        pb = rng.uniform(-4, 4, n)
        qb = rng.uniform(-4, 4, n)
        p, q = prox.project_epigraph_leaky_relu(alpha, pb, qb)
        gp, gq = grid_project_epigraph(alpha, pb, qb)
        epi_gap = max(epi_gap, float(np.max(np.hypot(p - gp, q - gq))))
        assert epi_gap < 1e-6
        inside = np.maximum(pb, alpha * pb) <= qb
        right = ~inside & (np.abs(qb) <= pb)
        left = ~inside & (qb <= alpha * pb) & (pb <= -alpha * qb)
        corner = ~(inside | right | left)
        assert inside.any() and right.any() and left.any() and corner.any()

    cap = rng.uniform(0.0, 2.0, n)
    bias = rng.uniform(-1.5, 1.5, n)
    got = prox.readout_conjugate_prox(xb, step, cap, bias)
    want = golden_section_vec(
        lambda v: (v - xb) ** 2 / (2 * step)
        + np.where((v >= 0) & (v <= cap), -bias * v, np.inf),
        np.zeros(n), cap, tol=1e-10)
    readout_gap = float(np.max(np.abs(got - want)))
    assert readout_gap < 1e-6
    shifted = xb + step * bias
    assert np.any(shifted < 0) and np.any(shifted > cap)
    assert np.any((shifted >= 0) & (shifted <= cap))

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("criterion-1 prox exactness",
           f"1000 instances/family, worst gaps: shrink {shrink_gap:.1e}, "
           f"kl {kl_gap:.1e}, epigraph {epi_gap:.1e}, readout {readout_gap:.1e} "
           f"({elapsed:.1f}s)")


# --- criterion 2: adjoint identities and norm certificates --------------------

def test_criterion_2_adjoints_and_norms():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    ops = default_operator_set(7)
    assert any(op.kind == "radon" for _, op in ops)
    worst = 0.0
    for name, op in ops:
        for _ in range(100):
            gap, allowance = _adjoint_gap(op, rng)
            worst = max(worst, gap / allowance)
            assert gap <= 1e-8 * allowance, name

    norm_cases = [
        ("dense_8x8", er.Dense(rng.standard_normal((8, 8)))),
        ("dense_rect", er.Dense(rng.standard_normal((12, 5)))),
        ("conv", er.Conv2D(rng.standard_normal((2, 3, 3)), (6, 6))),
        ("radon_16", Radon(RadonGeometry(image_side=16, n_angles=12, n_bins=24))),
        ("mask", er.DiagonalMask((rng.uniform(size=9) > 0.3) * 1.0)),
    ]
    worst_norm = 0.0
    for name, op in norm_cases:
        est = er.estimate_norm(op, tol=1e-11, max_iters=20000, seed=3)
        oracle = jacobi_spectral_norm(er.materialize(op))
        gap = abs(est.value - oracle) / max(oracle, 1.0)
        worst_norm = max(worst_norm, gap)
        assert gap < 1e-5, name
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("criterion-2 adjoints+norms",
           f"{len(ops)} operators x 100 pairs, worst adjoint gap "
           f"{worst:.1e} of 1e-8 budget; norm-vs-Jacobi {worst_norm:.1e} ({elapsed:.1f}s)")


# --- criterion 3: convexity sampling ------------------------------------------

def test_criterion_3_convexity():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    templates = [
        er.DenseTemplate(input_dim=4, hidden_dims=(5,), readout_dim=3),
        er.DenseTemplate(input_dim=3, hidden_dims=(4, 4), skip_all=True),
        er.DenseTemplate(input_dim=4, hidden_dims=(4, 4), skip_all=True,
                         residual_layers=(2,)),
        er.DenseTemplate(input_dim=3, hidden_dims=(3,), skip_all=True,
                         residual_layers=(1,)),
        er.DenseTemplate(input_dim=2, hidden_dims=(6,), final_activation="identity"),
        er.ConvPoolDenseTemplate(side=8, filters=2, kernel=3, pool=4, hidden=4),
    ]
    checked = 0
    for s in range(20):
        spec = er.random_admissible(1000 + s, templates[s % len(templates)])
        shape = spec.input_shape
        for _ in range(1000):
            a = rng.uniform(-2, 2, shape)
            b = rng.uniform(-2, 2, shape)
            lam = rng.uniform()
            fa, _ = er.forward(spec, a)
            fb, _ = er.forward(spec, b)
            fm, _ = er.forward(spec, lam * a + (1 - lam) * b)
            assert fm <= lam * fa + (1 - lam) * fb + 1e-9 * (1 + abs(fa) + abs(fb))
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("criterion-3 convexity",
           f"{checked} Jensen triples over 20 networks incl. residual variants, "
           f"zero violations ({elapsed:.1f}s)")


# --- criterion 4: equivalence with the nested problem -------------------------

def test_criterion_4_equivalence():
    started = time.perf_counter()
    result = equivalence_suite(instances=25, seed=404, budget=20000,
                               gap_tol=1e-4, arg_tol=1e-3)
    assert result.passed, result.detail
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report("criterion-4 equivalence", f"{result.detail} ({elapsed:.1f}s)")


# --- criterion 5: step-size validity and feasibility decay ---------------------

def _desk_instances():
    """Small instances of the three task families with tuned dual scales."""
    out = []
    spec8 = er.random_admissible(550, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    truth8 = er.make_phantom("smooth_blobs", 8, 5)
    cfg = er.TaskConfig(kind="denoise_salt_pepper", image_side=8, sp_density=0.1, seed=15)
    y, _ = er.corrupt(cfg, truth8)
    out.append(("denoise", er.ProblemSpec(er.l1_fidelity(0.02), None, y, 20.0, spec8),
                (5.0, 5.0), 4000))
    cfg = er.TaskConfig(kind="inpaint", image_side=8, mask_fraction=0.3,
                        gaussian_sigma=0.03, seed=16)
    y, fwd = er.corrupt(cfg, truth8)
    out.append(("inpaint", er.ProblemSpec(er.l2_fidelity(), fwd, y, 2.0, spec8),
                (5.0, 5.0), 4000))
    spec12 = er.random_admissible(551, er.ConvPoolDenseTemplate(
        side=12, filters=2, kernel=3, pool=4, hidden=4))
    truth12 = er.make_phantom("smooth_blobs", 12, 6)
    geom = RadonGeometry(image_side=12, n_angles=12, n_bins=18)
    cfg = er.TaskConfig(kind="ct", image_side=12, poisson_scale=1e4,
                        background=50.0, geometry=geom, seed=17)
    y, fwd = er.corrupt(cfg, truth12)
    out.append(("ct", er.ProblemSpec(er.kl_fidelity(50.0), fwd, y, 20.0, spec12,
                                     nonneg=True), (100.0, 50.0, 5.0), 4000))
    return out


def test_criterion_5_certificates_and_feasibility():
    started = time.perf_counter()
    lines = []
    for name, problem, scales, budget in _desk_instances():
        assembly = assemble_blocks(
            problem.regularizer,
            forward=problem.forward if problem.fidelity.dualize else None)
        steps = compute_step_sizes(assembly, scales=scales, norm_seed=5)
        for slot, (value, _) in steps.certificates.items():
            assert value <= 1.0 + 1e-12, (name, slot)
        rows = [math.sqrt(steps.sigma[bi]) * er.materialize(b.operator.flat())
                for bi, b in enumerate(assembly.blocks)]
        cols = np.concatenate([np.full(int(np.prod(s)), math.sqrt(steps.tau[j]))
                               for j, s in enumerate(assembly.primal_shapes)])
        scaled_norm = jacobi_spectral_norm(np.vstack(rows) * cols[None, :])
        assert scaled_norm <= 1.0 + 1e-6, name
        _, metrics = er.pdhg_solve(problem, steps=steps, budget=10 * budget,
                                   metrics_every=0)
        assert metrics.feasibility[-1] <= 1e-6, (name, metrics.feasibility[-1])
        lines.append(f"{name}: |S^1/2 K T^1/2|={scaled_norm:.6f}, "
                     f"feasibility@{10 * budget}={metrics.feasibility[-1]:.1e}")
    elapsed = time.perf_counter() - started
    report("criterion-5 step sizes", "; ".join(lines) + f" ({elapsed:.0f}s)")


# --- criterion 6: directional reproduction of the solver comparison -----------

STUDY = {
    "denoise": dict(budget=150, scales=(0.5, 0.01),
                    smc=(0.1, 0.5, 1.0, 2.0), smd=(1.0, 3.0, 5.0, 10.0)),
    "inpaint": dict(budget=150, scales=(0.1, 0.001),
                    smc=(0.5, 1.0, 1.5, 2.0), smd=(1.0, 5.0, 10.0, 30.0)),
    "ct": dict(budget=350, scales=(0.3, 0.1, 0.003),
               smc=(0.003, 0.01, 0.03, 0.1), smd=(0.03, 0.1, 0.3, 1.0)),
}


def _study_instance(task, seed):
    side = 64
    spec = er.random_admissible(seed + 1000, er.ConvPoolDenseTemplate(
        side=side, filters=8, kernel=5, pool=8, hidden=16))
    truth = er.make_phantom("smooth_blobs", side, seed)
    if task == "denoise":
        cfg = er.TaskConfig(kind="denoise_salt_pepper", image_side=side,
                            sp_density=0.1, seed=seed + 7)
        y, _ = er.corrupt(cfg, truth)
        return er.ProblemSpec(er.l1_fidelity(0.02), None, y, 30.0, spec), None
    if task == "inpaint":
        cfg = er.TaskConfig(kind="inpaint", image_side=side, mask_fraction=0.3,
                            gaussian_sigma=0.03, seed=seed + 7)
        y, fwd = er.corrupt(cfg, truth)
        return er.ProblemSpec(er.l2_fidelity(), fwd, y, 3.0, spec), None
    geom = RadonGeometry(image_side=side, n_angles=40, n_bins=92)
    cfg = er.TaskConfig(kind="ct", image_side=side, poisson_scale=1e6,
                        background=50.0, geometry=geom, seed=seed + 7)
    y, fwd = er.corrupt(cfg, truth)
    # normalize counts to O(1): same minimizers, numerically well conditioned
    count_scale = fwd.geometry.scale / geom.scale
    problem = er.ProblemSpec(er.kl_fidelity(50.0 / count_scale), Radon(geom),
                             y / count_scale, 10.0, spec, nonneg=True)
    return problem, np.clip(er.fbp(geom, y / count_scale), 0.0, None)


def test_criterion_6_comparative_study():
    started = time.perf_counter()
    summary = []
    for task, cfg in STUDY.items():
        wins = 0
        counts = []
        for seed in range(10):
            problem, init = _study_instance(task, seed)
            assembly = assemble_blocks(
                problem.regularizer,
                forward=problem.forward if problem.fidelity.dualize else None)
            steps = compute_step_sizes(assembly, scales=cfg["scales"], norm_seed=seed)
            _, ref_m = er.pdhg_solve(problem, steps=steps, budget=10 * cfg["budget"],
                                     init_x=init, metrics_every=10)
            reference = float(np.min(ref_m.objective))
            _, pd_m = er.pdhg_solve(problem, steps=steps, budget=cfg["budget"],
                                    init_x=init)
            pd_hit, _ = iterations_to_threshold(pd_m, reference, 1e-3)
            # baselines only need to run to the primal-dual hit: any later
            # crossing cannot change who needed strictly fewer iterations
            sm_budget = pd_hit if pd_hit is not None else cfg["budget"]
            sm_best = None
            for grid, ctor in ((cfg["smc"], er.ConstantStep),
                               (cfg["smd"], er.DiminishingStep)):
                for step in grid:
                    _, sm_m = er.subgradient_solve(problem, ctor(step),
                                                   budget=sm_budget, init_x=init)
                    hit, _ = iterations_to_threshold(sm_m, reference, 1e-3)
                    if hit is not None and (sm_best is None or hit < sm_best):
                        sm_best = hit
            if pd_hit is not None and (sm_best is None or pd_hit < sm_best):
                wins += 1
            counts.append((pd_hit, sm_best))
        assert wins >= 8, f"{task}: only {wins}/10 seeds won ({counts})"
        hits = [c[0] for c in counts if c[0] is not None]
        summary.append(f"{task} {wins}/10 (median pdhg hit "
                       f"{int(np.median(hits)) if hits else '-'})")
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report("criterion-6 comparative study",
           "; ".join(summary) + f" ({elapsed:.0f}s)")


# --- criterion 7: the epigraph-vs-graph fixture --------------------------------

def test_criterion_7_nonconvexity_fixture():
    pts_p = np.array([-1.0, 1.0, 0.0])
    pts_q = np.array([0.0, 1.0, 0.5])
    p, q = prox.project_epigraph_leaky_relu(0.0, pts_p, pts_q)
    assert np.array_equal(p, pts_p) and np.array_equal(q, pts_q)
    # the two endpoints satisfy the graph equality, their midpoint does not:
    # the graph of max(., 0) is not convex, its epigraph is
    assert pts_q[0] == max(pts_p[0], 0.0)
    assert pts_q[1] == max(pts_p[1], 0.0)
    assert pts_q[2] != max(pts_p[2], 0.0)
    report("criterion-7 fixture",
           "(-1,0), (1,1) and their midpoint are projection fixed points; "
           "the midpoint violates the graph equality")


# --- criterion 8: bitwise-deterministic CLI outputs ----------------------------

def test_criterion_8_cli_determinism(tmp_path):
    config = {
        "seed": 12,
        "task": {"kind": "denoise_salt_pepper", "image_side": 16, "sp_density": 0.1,
                 "phantom": "smooth_blobs", "lam": 0.02, "gamma": 20.0},
        "weights": {"random": {"arch": "conv_pool_dense", "filters": 2, "kernel": 3,
                               "pool": 4, "hidden": 4}},
        "solvers": [{"kind": "pdhg", "scales": {"c1": 0.5, "c2": 0.01}},
                    {"kind": "sm_d", "step0": 1.0}],
        "budget": 40,
        "reference_multiplier": 2,
        "output_dir": None,
    }
    outputs = []
    for run in ("a", "b"):
        cfg = dict(config)
        cfg["output_dir"] = str(tmp_path / run)
        path = tmp_path / f"{run}.json"
        path.write_text(json.dumps(cfg))
        assert cmd_solve(path) == 0
        outputs.append({f.name: f.read_bytes()
                        for f in sorted((tmp_path / run).glob("*_metrics.csv"))})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    report("criterion-8 determinism",
           f"{len(outputs[0])} metrics CSVs bitwise identical across reruns")
