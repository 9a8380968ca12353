"""Acceptance criteria: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The comparative-study
criterion builds thirty 64x64 instances and dominates the runtime.
"""

import json
import time

import numpy as np

import epirecon as er
from epirecon import prox
from epirecon.cli import cmd_solve
from epirecon.radon import RadonGeometry
from epirecon.solver import (assemble_problem, compute_step_sizes,
                             iterations_to_threshold)
from epirecon.verify import (adjoint_suite, convexity_suite, default_operator_set,
                             epigraph_suite, equivalence_suite, norm_oracle_suite,
                             preconditioned_norm, prox_oracle_suite)
from conftest import CT12_SCALES, make_ct12_problem


def report(name, detail):
    print(f"\nPASS {name}: {detail}")


# --- criterion 1: prox exactness vs numeric oracles --------------------------

def test_criterion_1_prox_exactness():
    started = time.perf_counter()
    results = [prox_oracle_suite(instances=1000, seed=101),
               epigraph_suite(instances=1000, seed=101)]
    for result in results:
        assert result.passed, result.detail
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("criterion-1 prox exactness",
           "; ".join(r.detail for r in results) + f" ({elapsed:.1f}s)")


# --- criterion 2: adjoint identities and norm certificates --------------------

def test_criterion_2_adjoints_and_norms():
    started = time.perf_counter()
    assert any(op.kind == "radon" for _, op in default_operator_set(7))
    results = [adjoint_suite(pairs=100, seed=7), norm_oracle_suite(seed=202, tol=1e-5)]
    for result in results:
        assert result.passed, result.detail
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("criterion-2 adjoints+norms",
           "; ".join(r.detail for r in results) + f" ({elapsed:.1f}s)")


# --- criterion 3: convexity sampling ------------------------------------------

def test_criterion_3_convexity():
    started = time.perf_counter()
    result = convexity_suite(specs=20, triples=1000, seed=303)
    assert result.passed, result.detail
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("criterion-3 convexity", f"{result.detail} ({elapsed:.1f}s)")


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
    problem, _ = er.build_problem(cfg, truth8, spec8, 20.0, lam=0.02)
    out.append(("denoise", problem, (5.0, 5.0), 4000))
    cfg = er.TaskConfig(kind="inpaint", image_side=8, mask_fraction=0.3,
                        gaussian_sigma=0.03, seed=16)
    problem, _ = er.build_problem(cfg, truth8, spec8, 2.0)
    out.append(("inpaint", problem, (5.0, 5.0), 4000))
    out.append(("ct", make_ct12_problem(), CT12_SCALES, 4000))
    return out


def test_criterion_5_certificates_and_feasibility():
    started = time.perf_counter()
    lines = []
    for name, problem, scales, budget in _desk_instances():
        steps = compute_step_sizes(assemble_problem(problem), scales=scales)
        for slot, (value, _) in steps.certificates.items():
            assert value <= 1.0 + 1e-12, (name, slot)
        scaled_norm = preconditioned_norm(steps)
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
        return er.build_problem(cfg, truth, spec, 30.0, lam=0.02)
    if task == "inpaint":
        cfg = er.TaskConfig(kind="inpaint", image_side=side, mask_fraction=0.3,
                            gaussian_sigma=0.03, seed=seed + 7)
        return er.build_problem(cfg, truth, spec, 3.0)
    geom = RadonGeometry(image_side=side, n_angles=40, n_bins=92)
    cfg = er.TaskConfig(kind="ct", image_side=side, poisson_scale=1e6,
                        background=50.0, geometry=geom, seed=seed + 7)
    return er.build_problem(cfg, truth, spec, 10.0)


def test_criterion_6_comparative_study():
    started = time.perf_counter()
    summary = []
    for task, cfg in STUDY.items():
        wins = 0
        counts = []
        for seed in range(10):
            problem, init = _study_instance(task, seed)
            steps = compute_step_sizes(assemble_problem(problem), scales=cfg["scales"])
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
