"""The four benchmark workloads: how each job is built, run, timed and checked.

A job is one fresh instance whose seed derives from the workload seed and
the job index. It runs the workload's solver sequence through the public
API of `epirecon` and returns a JobResult holding the timings, the quality
guards and the raw outputs the checker needs. The `verify` oracles are
only used by the checker and are never timed.

The 64x64 workloads reconstruct with one fixed regularizer each, as a
trained network would be used: weights and the norm-estimation seed are
constants of the workload, while the phantom and the noise come from the
job seed. Power iteration then does the same work in every job; with
per-job weights its iteration count varies from about 180 to 500 and the
set-up time with it, which no run of a few jobs can average out.
"""

import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from epirecon import blocks, cli, icnn, solver, tasks
from epirecon.radon import Radon, RadonGeometry
from epirecon.verify import icnn_batch_values, refine_grid_minimize

# Acceptance bound on the final epigraph violation of the PDHG iterate. At
# 64x64 after 100 iterations the seed code sits near 1e-2; a broken
# projection or step certificate leaves violations of order one. The tiny
# problems run the criterion-4 budget and reach round-off.
FEASIBILITY_BOUND_IMAGE = 0.05
FEASIBILITY_BOUND_TINY = 1e-6
# Criterion-4 tolerances of the tiny problems against the grid oracle.
GRID_GAP_TOL = 1e-4
ARGMIN_TOL = 1e-3
# Certificates are tau * sum(...) = 1 up to rounding; the acceptance suite
# (criterion 5) accepts the same 1e-12.
CERTIFICATE_TOL = 1e-12
# The regularizer of the 64x64 library workloads: the criterion-6 network of
# study seed 0, with its norm seed.
WEIGHTS_SEED = 1000
NORM_SEED = 0
# Seed offset between the set-up builds of one tiny job; larger than any job
# seed of a workload seed below 10**9, so the builds never repeat a job.
TINY_SEED_STRIDE = 2**40
# The swept config is the same in every job and run (see Workload).
SWEEP_CONFIG_SEED = 0


@dataclass(frozen=True)
class Workload:
    """Sizes and solver settings of one workload.

    kind is "image" (a 64x64 task family), "tiny" (criterion-4 dense
    problems) or "sweep" (an inpainting library job plus one cmd_sweep).
    Each job builds `setup_repeats` batches of `setup_batch` set-ups and
    times each batch as one interval; setup_s is the median of the batch
    means. On tiny the builds are distinct problems (the next dims and
    seeds). One build lasts about 0.5 ms, but power iteration makes a few
    seeds in a few hundred take 5 to 20 times that, so one job's mean
    jumped with them; the median over many short batches does not.
    The sweep's config seed is fixed: cmd_sweep derives the network and
    the norm seed from it, so a per-job seed would make the sweep's
    power-iteration work, two thirds of its time, vary by job.
    """

    name: str
    kind: str
    task: str = ""
    side: int = 64
    filters: int = 8
    kernel: int = 5
    pool: int = 8
    hidden: int = 16
    n_angles: int = 40
    n_bins: int = 92
    scales: tuple = ()
    sm_step: float = 0.0
    sm_step0: float = 0.0
    budget: int = 100
    observed_budget: int = 100
    subgrad_budget: int = 100
    setup_repeats: int = 1
    setup_batch: int = 1
    sweep_grid: dict = field(default_factory=dict)
    sweep_budget: int = 40


WORKLOADS = {
    "denoise64": Workload(
        name="denoise64", kind="image", task="denoise", scales=(0.5, 0.01),
        sm_step=0.5, sm_step0=3.0),
    "ct64": Workload(
        name="ct64", kind="image", task="ct", scales=(0.3, 0.1, 0.003),
        sm_step=0.01, sm_step0=0.1),
    "tiny_dense": Workload(
        name="tiny_dense", kind="tiny", budget=20000, observed_budget=2000,
        subgrad_budget=2000, setup_repeats=10, setup_batch=6, sm_step=0.1,
        sm_step0=1.0),
    "sweep_inpaint64": Workload(
        name="sweep_inpaint64", kind="sweep", task="inpaint", scales=(0.1, 0.001),
        sm_step=1.0, sm_step0=5.0,
        sweep_grid={"c1": [0.03, 0.1, 0.3], "c2": [0.0003, 0.001, 0.003]}),
}


def small(wl: Workload) -> Workload:
    """The same workload at a size that runs in seconds (self-test only)."""
    if wl.kind == "tiny":
        return replace(wl, budget=4000, observed_budget=100, subgrad_budget=50)
    return replace(wl, side=16, filters=2, kernel=3, pool=4, hidden=4,
                   n_angles=12, n_bins=24, budget=40, observed_budget=20,
                   subgrad_budget=10, sweep_budget=5)


def job_seed(seed: int, job: int) -> int:
    # numpy generators need a nonnegative seed
    return 1000 * (int(seed) % 2**32) + int(job)


@dataclass
class Instance:
    problem: object
    steps: object
    init_x: object
    truth: object
    corrupted: object  # the image the solvers must beat: data, or FBP for CT
    dim: int = 0


@dataclass
class JobResult:
    job: int
    timings: dict = field(default_factory=dict)  # metric -> [(value, iterations)]
    quality: dict = field(default_factory=dict)  # guard -> list of values
    outputs: dict = field(default_factory=dict)  # raw data for the checker


# --- instance builders ---------------------------------------------------------

def _image_instance(wl: Workload, seed: int) -> Instance:
    """Built like the criterion-6 study instance (tests/test_acceptance.py),
    with the workload's fixed network and norm seed."""
    side = wl.side
    spec = icnn.random_admissible(WEIGHTS_SEED, icnn.ConvPoolDenseTemplate(
        side=side, filters=wl.filters, kernel=wl.kernel, pool=wl.pool, hidden=wl.hidden))
    truth = tasks.make_phantom("smooth_blobs", side, seed)
    init = None
    if wl.task == "denoise":
        cfg = tasks.TaskConfig(kind="denoise_salt_pepper", image_side=side,
                               sp_density=0.1, seed=seed + 7)
        y, _ = tasks.corrupt(cfg, truth)
        problem = solver.ProblemSpec(solver.l1_fidelity(0.02), None, y, 30.0, spec)
        corrupted = y
    elif wl.task == "inpaint":
        cfg = tasks.TaskConfig(kind="inpaint", image_side=side, mask_fraction=0.3,
                               gaussian_sigma=0.03, seed=seed + 7)
        y, fwd = tasks.corrupt(cfg, truth)
        problem = solver.ProblemSpec(solver.l2_fidelity(), fwd, y, 3.0, spec)
        corrupted = y
    else:
        geom = RadonGeometry(image_side=side, n_angles=wl.n_angles, n_bins=wl.n_bins)
        cfg = tasks.TaskConfig(kind="ct", image_side=side, poisson_scale=1e6,
                               background=50.0, geometry=geom, seed=seed + 7)
        y, fwd = tasks.corrupt(cfg, truth)
        # counts normalized to O(1) as in the acceptance study
        count_scale = fwd.geometry.scale / geom.scale
        problem = solver.ProblemSpec(solver.kl_fidelity(50.0 / count_scale), Radon(geom),
                                     y / count_scale, 10.0, spec, nonneg=True)
        init = np.clip(tasks.fbp(geom, y / count_scale), 0.0, None)
        corrupted = init
    assembly = blocks.assemble_blocks(
        problem.regularizer, forward=problem.forward if problem.fidelity.dualize else None)
    steps = solver.compute_step_sizes(assembly, scales=wl.scales, norm_seed=NORM_SEED)
    return Instance(problem, steps, init, truth, corrupted)


def _tiny_instance(job: int, seed: int) -> Instance:
    """One criterion-4 problem (verify.equivalence_suite): dims cycle 2, 3, 4."""
    dim = 2 + job % 3
    spec = icnn.random_admissible(seed + 300, icnn.DenseTemplate(
        input_dim=dim, hidden_dims=(3,), readout_dim=2))
    y = np.random.default_rng(seed + 400).uniform(-0.5, 0.5, dim)
    problem = solver.ProblemSpec(fidelity=solver.l2_fidelity(), forward=None,
                                 measurement=y, reg_weight=0.3, regularizer=spec)
    steps = solver.compute_step_sizes(blocks.assemble_blocks(spec), norm_seed=seed)
    return Instance(problem, steps, np.zeros(dim), None, None, dim)


# --- one job -------------------------------------------------------------------

def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - started


def timed_pdhg(inst: Instance, budget: int, metrics_every: int):
    """((final state, RunMetrics), seconds) of one PDHG solve of the instance."""
    return _timed(solver.pdhg_solve, inst.problem, steps=inst.steps, budget=budget,
                  init_x=inst.init_x, ground_truth=inst.truth,
                  metrics_every=metrics_every)


def _sweep_config(wl: Workload, out_dir) -> dict:
    return {
        "seed": SWEEP_CONFIG_SEED,
        "task": {"kind": "inpaint", "image_side": wl.side, "mask_fraction": 0.3,
                 "gaussian_sigma": 0.03, "phantom": "smooth_blobs", "gamma": 3.0},
        "weights": {"random": {"arch": "conv_pool_dense", "filters": wl.filters,
                               "kernel": wl.kernel, "pool": wl.pool,
                               "hidden": wl.hidden}},
        "sweep": wl.sweep_grid,
        "budget": wl.sweep_budget,
        "output_dir": str(out_dir),
    }


def run_job(wl: Workload, seed: int, job: int, work_dir, tracer=None,
            with_sweep=True) -> JobResult:
    """Build one instance and run the workload's solver sequence on it.

    tracer, when given, is told the job id and the phase of every call.
    The sweep part writes its artifacts under work_dir.
    """
    s = job_seed(seed, job)
    res = JobResult(job=job)

    def phase(name):
        if tracer is not None:
            tracer.set_phase(job, name)

    job_started = time.perf_counter()
    phase("setup")
    # Build 0 is the job's own instance; each sample is one batch's mean.
    res.timings["setup_s"] = []
    for batch in range(wl.setup_repeats):
        started = time.perf_counter()
        for r in range(batch * wl.setup_batch, (batch + 1) * wl.setup_batch):
            if wl.kind == "tiny":
                built = _tiny_instance(job + r, s + r * TINY_SEED_STRIDE)
            else:
                built = _image_instance(wl, s)
            if r == 0:
                inst = built
        t = time.perf_counter() - started
        res.timings["setup_s"].append((t / wl.setup_batch, wl.setup_batch))
    res.outputs["instance"] = inst

    for label, budget, every in (("pdhg", wl.budget, 0),
                                 ("pdhg_observed", wl.observed_budget, 1)):
        phase(label)
        (state, m), t = timed_pdhg(inst, budget, every)
        res.timings[f"{label}_iter_ms"] = [(1e3 * t / budget, budget)]
        res.outputs[label] = (state.x, m)
    m = res.outputs["pdhg"][1]

    res.timings["subgrad_iter_ms"] = []
    for label, mode in (("sm_c", solver.ConstantStep(wl.sm_step)),
                        ("sm_d", solver.DiminishingStep(wl.sm_step0))):
        phase(label)
        (x, sm), t = _timed(solver.subgradient_solve, inst.problem, mode,
                            budget=wl.subgrad_budget, init_x=inst.init_x,
                            ground_truth=inst.truth)
        res.timings["subgrad_iter_ms"].append((1e3 * t / wl.subgrad_budget,
                                               wl.subgrad_budget))
        res.outputs[label] = (x, sm)

    if wl.kind == "sweep" and with_sweep:
        phase("sweep")
        out_dir = work_dir / f"sweep-job{job}"
        config_path = work_dir / f"sweep-job{job}.json"
        config_path.write_text(json.dumps(_sweep_config(wl, out_dir)))
        code, t = _timed(cli.cmd_sweep, str(config_path), jobs=1)
        res.timings["sweep_s"] = [(t, 1)]
        res.outputs["sweep"] = (code, out_dir, config_path)
    phase("")
    res.timings["job_s"] = [(time.perf_counter() - job_started, 1)]

    res.quality["pdhg_final_objective"] = [m.objective[-1]]
    res.quality["pdhg_final_feasibility"] = [m.feasibility[-1]]
    if inst.truth is not None:
        res.quality["pdhg_final_psnr_db"] = [m.psnr[-1]]
    res.quality["subgrad_final_objective"] = [res.outputs[k][1].objective[-1]
                                              for k in ("sm_c", "sm_d")]
    return res


# --- checks --------------------------------------------------------------------

def check_job(wl: Workload, res: JobResult) -> list:
    """Every failed output check of one job, as readable strings.

    Also stores the derived quality guards (grid gap, sweep best) in res.
    """
    fails = []
    inst = res.outputs["instance"]
    for slot, (value, _) in sorted(inst.steps.certificates.items()):
        if not value <= 1.0 + CERTIFICATE_TOL:
            fails.append(f"certificate slot {slot}: {value} > 1")

    for name in ("pdhg", "pdhg_observed", "sm_c", "sm_d"):
        x, metrics = res.outputs[name]
        first, last = metrics.objective[0], metrics.objective[-1]
        if not np.all(np.isfinite(x)):
            fails.append(f"{name}: non-finite final image")
        if not (math.isfinite(first) and math.isfinite(last)):
            fails.append(f"{name}: non-finite objective ({first} -> {last})")
        elif last > first:
            fails.append(f"{name}: final objective {last} above initial {first}")

    x, m = res.outputs["pdhg"]
    bound = FEASIBILITY_BOUND_TINY if wl.kind == "tiny" else FEASIBILITY_BOUND_IMAGE
    if not m.feasibility[-1] <= bound:
        fails.append(f"pdhg: final feasibility {m.feasibility[-1]} above {bound}")

    if inst.truth is not None:
        # PSNR of the returned image, not of the solver's own record
        final_psnr = tasks.psnr(x, inst.truth) if np.all(np.isfinite(x)) else float("nan")
        baseline = tasks.psnr(inst.corrupted, inst.truth)
        if not final_psnr > baseline:
            fails.append(f"pdhg: PSNR {final_psnr:.3f} dB does not beat the "
                         f"corrupted data ({baseline:.3f} dB)")

    if wl.kind == "tiny":
        problem = inst.problem
        spec, y = problem.regularizer, problem.measurement

        def objective(points):
            fid = 0.5 * np.sum((points - y) ** 2, axis=1)
            return fid + problem.reg_weight * icnn_batch_values(spec, points)

        x_star, f_star = refine_grid_minimize(
            objective, np.full(inst.dim, -3.0), np.full(inst.dim, 3.0))
        gap = float(objective(x[None, :])[0]) - f_star
        arg = float(np.max(np.abs(x - x_star)))
        res.quality["grid_gap"] = [gap]
        if not gap <= GRID_GAP_TOL:
            fails.append(f"tiny: grid gap {gap:.3e} above {GRID_GAP_TOL}")
        if not arg <= ARGMIN_TOL:
            fails.append(f"tiny: argmin distance {arg:.3e} above {ARGMIN_TOL}")

    if "sweep" in res.outputs:
        fails.extend(_check_sweep(wl, res))
    return fails


def _check_sweep(wl: Workload, res: JobResult) -> list:
    """Checks the sweep artifacts, keeps the CSV for the rerun check, and
    removes the files."""
    code, out_dir, config_path = res.outputs.pop("sweep")
    fails = []
    combos = math.prod(len(v) for v in wl.sweep_grid.values())
    if code != 0:
        fails.append(f"sweep: exit code {code}")
    try:
        csv = (out_dir / "sweep.csv").read_bytes()
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return fails + [f"sweep: unreadable output ({exc})"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        config_path.unlink(missing_ok=True)
    res.outputs["sweep_csv"] = csv
    rows = csv.decode().splitlines()[1:]
    if len(rows) != combos:
        fails.append(f"sweep: {len(rows)} CSV rows, expected {combos}")
    values = [float(r.split(",")[-2]) for r in rows]
    if not all(math.isfinite(v) for v in values):
        fails.append("sweep: non-finite average objective")
    best = summary.get("best", {})
    scales = best.get("scales", {})
    if set(scales) != set(wl.sweep_grid) or any(
            scales[k] not in wl.sweep_grid[k] for k in scales):
        fails.append(f"sweep: summary names no grid combination ({best})")
    elif values and best.get("avg_objective") != min(values):
        fails.append("sweep: summary best is not the lowest average objective")
    res.quality["sweep_best_avg_objective"] = [best.get("avg_objective", float("nan"))]
    return fails


def check_repeat(first: JobResult, again: JobResult) -> list:
    """Reproducibility contract: a rerun of a job gives a bitwise-equal final
    image, and every run of the fixed sweep config a bitwise-equal sweep.csv."""
    fails = []
    if first.job == again.job:
        a, b = first.outputs["pdhg"][0], again.outputs["pdhg"][0]
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            fails.append(f"job {again.job}: rerun changed the final PDHG image")
    csv_a, csv_b = first.outputs.get("sweep_csv"), again.outputs.get("sweep_csv")
    if csv_a is not None and csv_b is not None and csv_a != csv_b:
        fails.append(f"job {again.job}: the fixed sweep config gave another sweep.csv")
    return fails
