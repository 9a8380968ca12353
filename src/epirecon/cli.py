"""Command-line workflow: build a task, run solvers, emit reproducible artifacts.

Subcommands:
  solve <config.json>         run every configured solver on one instance
  sweep <config.json>         Cartesian sweep over dual-scale hyperparameters
  verify                      run the bundled property-test suites
  norm <weights-dir>          print operator-norm estimates for stored weights
  adjoint-test <weights-dir>  run the adjoint identity on stored weights

One global seed fans out to the components at fixed offsets (phantom +11,
noise +23, weights +37, norm estimation +53), so every artifact is a pure
function of (config, seed). Timing columns are zeroed in CSV output unless
`record_timing` is set, keeping reruns bitwise identical.
"""

import argparse
import functools
import itertools
import json
import math
import sys
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import icnn as icnn_mod
from . import solver as solver_mod
from . import tasks as tasks_mod
from .icnn import ConvPoolDenseTemplate, DenseTemplate
from .radon import RadonGeometry
from .tensor import write_tensor
from .verify import run_all_suites

SEED_PHANTOM = 11
SEED_NOISE = 23
SEED_WEIGHTS = 37
SEED_NORMS = 53


class ConfigError(ValueError):
    """Raised for malformed or incomplete run configurations."""


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


def load_config(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _build_weights(cfg, side, seed):
    where = "weights"
    if "path" in cfg:
        return icnn_mod.load_weights(cfg["path"])
    rnd = _require(cfg, "random", where)
    arch = _require(rnd, "arch", where)
    if arch == "conv_pool_dense":
        template = ConvPoolDenseTemplate(
            side=side,
            filters=int(rnd.get("filters", 8)),
            kernel=int(rnd.get("kernel", 5)),
            pool=int(rnd.get("pool", 8)),
            hidden=int(rnd.get("hidden", 16)),
            alpha=float(rnd.get("alpha", 0.2)))
    elif arch == "dense":
        template = DenseTemplate(
            input_dim=int(_require(rnd, "input_dim", where)),
            hidden_dims=tuple(int(d) for d in _require(rnd, "hidden_dims", where)),
            readout_dim=int(rnd.get("readout_dim", 1)),
            hidden_alpha=float(rnd.get("alpha", 0.2)))
    else:
        raise ConfigError(f"{where}: unknown arch {arch!r}")
    return icnn_mod.random_admissible(seed + int(rnd.get("seed_offset", 0)), template)


class Instance:
    """One fully built reconstruction problem plus its provenance."""

    def __init__(self, config, seed_override=None, budget_override=None):
        self.config = config
        self.seed = int(config.get("seed", 0)) if seed_override is None else int(seed_override)
        self.budget = int(_require(config, "budget", "config")) \
            if budget_override is None else int(budget_override)
        task = _require(config, "task", "config")
        kind = _require(task, "kind", "task")
        side = int(_require(task, "image_side", "task"))
        phantom_kind = _require(task, "phantom", "task")
        self.ground_truth = tasks_mod.make_phantom(phantom_kind, side,
                                                   self.seed + SEED_PHANTOM)
        geometry = None
        if kind == "ct":
            geometry = RadonGeometry(
                image_side=side,
                n_angles=int(task.get("n_angles", max(2, side))),
                n_bins=int(task.get("n_bins", int(math.ceil(side * math.sqrt(2))) + 1)))
        self.task_config = tasks_mod.TaskConfig(
            kind=kind,
            image_side=side,
            sp_density=float(_require(task, "sp_density", "task"))
            if kind == "denoise_salt_pepper" else 0.0,
            mask_fraction=float(_require(task, "mask_fraction", "task"))
            if kind == "inpaint" else 0.0,
            gaussian_sigma=float(_require(task, "gaussian_sigma", "task"))
            if kind == "inpaint" else 0.0,
            poisson_scale=float(_require(task, "poisson_scale", "task"))
            if kind == "ct" else 1e4,
            background=float(_require(task, "background", "task"))
            if kind == "ct" else 0.0,
            geometry=geometry,
            fidelity_weight=float(task["lam"]) if "lam" in task else None,
            reg_weight=float(task["gamma"]) if "gamma" in task else None,
            seed=self.seed + SEED_NOISE)
        self.measurement, forward = tasks_mod.corrupt(self.task_config, self.ground_truth)
        weights = _build_weights(_require(config, "weights", "config"), side,
                                 self.seed + SEED_WEIGHTS)
        if kind == "denoise_salt_pepper":
            fidelity = solver_mod.l1_fidelity(float(_require(task, "lam", "task")))
            reg_weight = float(_require(task, "gamma", "task"))
            nonneg = bool(task.get("nonneg", False))
        elif kind == "inpaint":
            fidelity = solver_mod.l2_fidelity()
            reg_weight = float(_require(task, "gamma", "task"))
            nonneg = bool(task.get("nonneg", False))
        else:
            fidelity = solver_mod.kl_fidelity(self.task_config.background)
            reg_weight = float(_require(task, "gamma", "task"))
            nonneg = True
        self.problem = solver_mod.ProblemSpec(
            fidelity=fidelity, forward=forward, measurement=self.measurement,
            reg_weight=reg_weight, regularizer=weights, nonneg=nonneg)
        self.init_x = None
        if kind == "ct" and bool(task.get("fbp_init", True)):
            recon = tasks_mod.fbp(forward.geometry, self.measurement)
            self.init_x = np.clip(recon, 0.0, None)
        self.record_timing = bool(config.get("record_timing", False))
        self.rel_error_target = float(config.get("rel_error_target", 1e-3))
        self.reference_multiplier = int(config.get("reference_multiplier", 10))

    def scales_list(self, scale_cfg):
        """Map {"c0": ..., "c1": ..., ...} onto the ordered dual blocks."""
        has_fid = self.problem.fidelity.dualize
        depth = self.problem.regularizer.depth
        keys = (["c0"] if has_fid else []) + [f"c{i}" for i in range(1, depth + 1)]
        return tuple(float(scale_cfg.get(k, 1.0)) for k in keys)

    @functools.cached_property
    def assembly(self):
        return solver_mod.assemble_problem(self.problem)

    @functools.cached_property
    def norms(self):
        """Certified entry norms of the block operator. They do not depend on
        the dual scales, so every PDHG run of the instance shares them; a
        process that already holds them may assign this attribute."""
        return solver_mod.certify_norms(self.assembly, seed=self.seed + SEED_NORMS)

    def run_pdhg(self, scale_cfg, budget):
        """PDHG with steps certified for these dual scales from the shared norms."""
        steps = solver_mod.compute_step_sizes(
            self.assembly, scales=self.scales_list(scale_cfg), norms=self.norms)
        return solver_mod.pdhg_solve(
            self.problem, steps, budget=budget,
            init_x=self.init_x, ground_truth=self.ground_truth)


def _solver_name(entry, index):
    return f"{entry['kind']}{index}"


def _run_entry(instance, entry, budget):
    problem = instance.problem
    kind = entry.get("kind")
    if kind == "pdhg":
        state, metrics = instance.run_pdhg(entry.get("scales", {}), budget)
        return state.x, metrics
    if kind == "sm_c":
        mode = solver_mod.ConstantStep(float(_require(entry, "step", "solver entry")))
    elif kind == "sm_d":
        mode = solver_mod.DiminishingStep(float(_require(entry, "step0", "solver entry")))
    else:
        raise ConfigError(f"unknown solver kind {kind!r}")
    x, metrics = solver_mod.subgradient_solve(
        problem, mode, budget=budget, init_x=instance.init_x,
        ground_truth=instance.ground_truth)
    return x, metrics


def _json_safe(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return _json_safe(float(value))
    return value


def _steps_summary(steps):
    return {
        "tau": [float(t) for t in steps.tau],
        "sigma": [float(s) for s in steps.sigma],
        "scales": [float(c) for c in steps.scales],
        "inflation": steps.inflation,
        "norms": {f"block{b}_row{r}_entry{e}": {
                      "value": en.value, "exact": en.exact,
                      "iterations": en.iterations, "converged": en.converged}
                  for (b, r, e), en in sorted(steps.norms.items())},
        "certificates": {f"slot{slot}": value
                         for slot, (value, _) in sorted(steps.certificates.items())},
    }


def cmd_solve(config_path, seed=None, budget=None):
    config = load_config(config_path)
    instance = Instance(config, seed_override=seed, budget_override=budget)
    out_dir = Path(_require(config, "output_dir", "config"))
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = _require(config, "solvers", "config")
    if not entries:
        raise ConfigError("config: at least one solver entry is required")

    pdhg_entries = [e for e in entries if e.get("kind") == "pdhg"]
    ref_entry = pdhg_entries[0] if pdhg_entries else {"kind": "pdhg", "scales": {}}
    ref_budget = instance.budget * instance.reference_multiplier
    _, ref_metrics = _run_entry(instance, ref_entry, ref_budget)
    reference = float(np.min(ref_metrics.objective))

    summary = {
        "seed": instance.seed,
        "seeds": {"phantom": instance.seed + SEED_PHANTOM,
                  "noise": instance.seed + SEED_NOISE,
                  "weights": instance.seed + SEED_WEIGHTS,
                  "norms": instance.seed + SEED_NORMS},
        "budget": instance.budget,
        "reference": {"objective": reference,
                      "rule": "min objective of the long reference run",
                      "budget": ref_budget,
                      "solver": "pdhg",
                      "scales": ref_entry.get("scales", {})},
        "rel_error_target": instance.rel_error_target,
        "solvers": {},
    }
    for idx, entry in enumerate(entries):
        name = _solver_name(entry, idx)
        final_x, metrics = _run_entry(instance, entry, instance.budget)
        metrics.write_csv(out_dir / f"{name}_metrics.csv", timing=instance.record_timing)
        write_tensor(out_dir / f"{name}_final.tnsb", final_x)
        image = final_x if final_x.ndim == 2 else final_x.reshape(
            instance.task_config.image_side, -1)
        tasks_mod.write_pgm(out_dir / f"{name}_final.pgm", image)
        hit, used_abs = solver_mod.iterations_to_threshold(
            metrics, reference, instance.rel_error_target)
        entry_summary = {
            "kind": entry.get("kind"),
            "final_objective": metrics.objective[-1],
            "final_psnr": metrics.psnr[-1],
            "iterations_to_threshold": hit,
            "threshold_used_absolute_fallback": used_abs,
        }
        if "step_sizes" in metrics.notes:
            entry_summary["step_sizes"] = _steps_summary(metrics.notes["step_sizes"])
        summary["solvers"][name] = entry_summary
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_json_safe(summary), fh, indent=2, sort_keys=True)
    return 0


def _sweep_combos(sweep_cfg):
    keys = [k for k in ("c0", "c1", "c2", "c3", "c4") if k in sweep_cfg]
    if not keys:
        raise ConfigError("sweep: no scale grids given (expected c0/c1/c2 lists)")
    grids = [[float(v) for v in sweep_cfg[k]] for k in keys]
    return keys, list(itertools.product(*grids))


def _sweep_point(instance, scale_cfg):
    _, metrics = instance.run_pdhg(scale_cfg, instance.budget)
    trailing = metrics.objective[1:]  # rows for iterations 1..budget
    return {"avg_objective": float(np.mean(trailing)),
            "final_objective": float(metrics.objective[-1])}


def _sweep_worker(args):
    config, scale_cfg, seed, budget, norms = args
    instance = Instance(config, seed_override=seed, budget_override=budget)
    instance.norms = norms
    return _sweep_point(instance, scale_cfg)


def cmd_sweep(config_path, seed=None, budget=None, jobs=1):
    config = load_config(config_path)
    instance = Instance(config, seed_override=seed, budget_override=budget)
    out_dir = Path(_require(config, "output_dir", "config"))
    out_dir.mkdir(parents=True, exist_ok=True)
    keys, combos = _sweep_combos(_require(config, "sweep", "config"))
    scale_cfgs = [dict(zip(keys, combo)) for combo in combos]
    if jobs > 1:
        work = [(config, scale_cfg, instance.seed, instance.budget, instance.norms)
                for scale_cfg in scale_cfgs]
        with get_context("spawn").Pool(jobs) as pool:
            results = pool.map(_sweep_worker, work)
    else:
        results = [_sweep_point(instance, scale_cfg) for scale_cfg in scale_cfgs]
    rows = []
    for combo, res in zip(combos, results):
        rows.append(tuple(combo) + (res["avg_objective"], res["final_objective"]))
    with open(out_dir / "sweep.csv", "w") as fh:
        fh.write(",".join(keys + ["avg_objective", "final_objective"]) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    best_idx = int(np.argmin([r[-2] for r in rows]))
    summary = {
        "seed": instance.seed,
        "budget": instance.budget,
        "grid_keys": keys,
        "combinations": len(rows),
        "best": {"scales": dict(zip(keys, combos[best_idx])),
                 "avg_objective": rows[best_idx][-2],
                 "final_objective": rows[best_idx][-1]},
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_json_safe(summary), fh, indent=2, sort_keys=True)
    return 0


def cmd_verify(seed=0):
    results = run_all_suites(seed)
    print(f"{'status':6s} {'suite':24s} {'runtime':>9s}  detail")
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} suites failed "
              f"(reproduce with seed {seed})")
        return 1
    print(f"all {len(results)} suites passed")
    return 0


def _weights_operators(weights_dir):
    spec = icnn_mod.load_weights(weights_dir)
    from .blocks import assemble_blocks
    named = []
    for i, layer in enumerate(spec.layers, start=1):
        if layer.skip is not None:
            named.append((f"layer{i}_skip", layer.skip))
        if layer.carry is not None:
            named.append((f"layer{i}_carry", layer.carry))
    assembly = assemble_blocks(spec)
    for i, block in enumerate(assembly.blocks):
        named.append((f"block_{block.kind}_{i}", block.operator))
    return spec, named


def cmd_norm(weights_dir, seed=0):
    from .blocks import BlockOperator, estimate_block_norm
    from .linops import estimate_norm
    _, named = _weights_operators(weights_dir)
    print(f"{'operator':24s} {'norm':>14s} {'iters':>6s} {'converged':>10s}")
    for name, op in named:
        if isinstance(op, BlockOperator):
            est = estimate_block_norm(op, seed=seed)
        else:
            est = estimate_norm(op, seed=seed)
        print(f"{name:24s} {est.value:14.8g} {est.iterations:6d} {str(est.converged):>10s}")
    return 0


def cmd_adjoint_test(weights_dir, seed=0):
    from .verify import adjoint_suite
    _, named = _weights_operators(weights_dir)
    result = adjoint_suite(named, pairs=100, seed=seed)
    print(result.line())
    return 0 if result.passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="epirecon",
        description="variational reconstruction with learned convex regularizers")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run configured solvers on one instance")
    p_solve.add_argument("config")
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--budget", type=int, default=None)
    p_sweep = sub.add_parser("sweep", help="sweep dual-scale hyperparameters")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--budget", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_verify = sub.add_parser("verify", help="run the bundled property suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_norm = sub.add_parser("norm", help="print norm estimates for stored weights")
    p_norm.add_argument("weights_dir")
    p_norm.add_argument("--seed", type=int, default=0)
    p_adj = sub.add_parser("adjoint-test", help="adjoint identity for stored weights")
    p_adj.add_argument("weights_dir")
    p_adj.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.config, seed=args.seed, budget=args.budget)
        if args.command == "sweep":
            return cmd_sweep(args.config, seed=args.seed, budget=args.budget,
                             jobs=args.jobs)
        if args.command == "verify":
            return cmd_verify(seed=args.seed)
        if args.command == "norm":
            return cmd_norm(args.weights_dir, seed=args.seed)
        if args.command == "adjoint-test":
            return cmd_adjoint_test(args.weights_dir, seed=args.seed)
    except (ConfigError, icnn_mod.WeightsFormatError, icnn_mod.AdmissibilityError,
            solver_mod.CertificationError, solver_mod.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
