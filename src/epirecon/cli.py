"""Command-line workflow: build a task, run solvers, emit reproducible artifacts.

Subcommands (the COMMANDS table): `solve` and `sweep` run a JSON config,
`verify` runs the property suites, `norm` and `adjoint-test` check stored weights.

One global seed fans out to the components at fixed offsets (phantom +11,
noise +23, weights +37), so every artifact is a pure function of (config,
seed). Timing columns are zeroed in CSV output unless `record_timing` is
set, keeping reruns bitwise identical.
"""

import argparse
import contextlib
import itertools
import json
import math
import sys
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import icnn as icnn_mod
from . import linops
from . import solver as solver_mod
from . import tasks as tasks_mod
from .tensor import write_tensor
from .verify import adjoint_suite, run_all_suites

SEEDS = {"phantom": 11, "noise": 23, "weights": 37}  # offsets from the seed


class ConfigError(ValueError):
    """Raised for malformed or incomplete run configurations."""


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


@contextlib.contextmanager
def _refused(where):
    """Report a plain ValueError, TypeError or OverflowError (int of inf), a value
    a builder or conversion refused, as a ConfigError naming `where`; subclasses pass."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        if type(exc) not in (ValueError, TypeError, OverflowError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def _number(convert, mapping, key, where, default=None):
    """convert(mapping[key]) or, when the key is absent, the default or a missing field."""
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    with _refused(f"{where} {key}"):
        return convert(value)


def _count(value):
    """int(value) for a count, refusing a bool or a fraction, which int() truncates."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _at_least_one(value, where):
    if value < 1:
        raise ConfigError(f"{where}: must be at least 1, got {value}")
    return value


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
    if "path" in cfg:
        spec = icnn_mod.load_weights(cfg["path"])
        if tuple(spec.input_shape) != (side, side):
            raise ConfigError(f"weights: network input shape {tuple(spec.input_shape)} "
                              f"does not match the task image shape {(side, side)}")
        return spec
    rnd = _require(cfg, "random", "weights")
    arch = _require(rnd, "arch", "weights")
    if arch != "conv_pool_dense":
        raise ConfigError(f"weights: unknown arch {arch!r}")
    defaults = {"filters": 8, "kernel": 5, "pool": 8, "hidden": 16, "alpha": 0.2, "seed_offset": 0}
    fields = {k: _number(_count if type(d) is int else float, rnd, k, "weights", d)
              for k, d in defaults.items()}
    offset = fields.pop("seed_offset")
    with _refused("weights"):
        template = icnn_mod.ConvPoolDenseTemplate(side=side, **fields)
        return icnn_mod.random_admissible(seed + offset, template)


# the task fields each kind requires, beside image_side, phantom and gamma
TASK_FIELDS = {"denoise_salt_pepper": ("sp_density", "lam"),
               "inpaint": ("mask_fraction", "gaussian_sigma"),
               "ct": ("poisson_scale", "background")}


class Instance:
    """One fully built reconstruction problem plus its provenance."""

    def __init__(self, config, seed_override=None, budget_override=None):
        self.seed = _number(_count, config, "seed", "config", 0) \
            if seed_override is None else int(seed_override)
        self.budget = _at_least_one(_number(_count, config, "budget", "config"), "config budget") \
            if budget_override is None else _at_least_one(int(budget_override), "--budget")
        task = _require(config, "task", "config")
        kind = _require(task, "kind", "task")
        if not isinstance(kind, str) or kind not in TASK_FIELDS:
            raise ConfigError(f"task: unknown task kind {kind!r}")
        side = _number(_count, task, "image_side", "task")
        if side < 8:  # the phantoms' minimum, refused before the network is built
            raise ConfigError(f"task image_side: must be at least 8, got {side}")
        fields = {k: _number(float, task, k, "task") for k in TASK_FIELDS[kind]}
        lam = fields.pop("lam", None)
        gamma = _number(float, task, "gamma", "task")
        shape = {k: _number(_count, task, k, "task") for k in ("n_angles", "n_bins") if k in task}
        weights = _build_weights(_require(config, "weights", "config"), side,
                                 self.seed + SEEDS["weights"])
        with _refused("task"):
            self.ground_truth = tasks_mod.make_phantom(_require(task, "phantom", "task"),
                                                       side, self.seed + SEEDS["phantom"])
            geometry = tasks_mod.ct_geometry(side, **shape) if kind == "ct" else None
            task_config = tasks_mod.TaskConfig(kind=kind, image_side=side, geometry=geometry,
                                               seed=self.seed + SEEDS["noise"], **fields)
        with _refused("task gamma" if lam is None else "task gamma or lam"):
            self.problem, self.init_x = tasks_mod.build_problem(
                task_config, self.ground_truth, weights, gamma, lam=lam,
                nonneg=bool(task.get("nonneg", False)))
        if not task.get("fbp_init", True):
            self.init_x = None
        # dual-scale keys in block order; c0 only when the fidelity is dualized
        self.scale_keys = (["c0"] if self.problem.fidelity.dualize else []) + \
            [f"c{i}" for i in range(1, weights.depth + 1)]
        self.record_timing = bool(config.get("record_timing", False))
        self.rel_error_target = _number(float, config, "rel_error_target", "config", 1e-3)
        self.reference_multiplier = _at_least_one(_number(
            _count, config, "reference_multiplier", "config", 10), "config reference_multiplier")
        with _refused("weights"):
            self.assembly = solver_mod.assemble_problem(self.problem)

    def check_scale_keys(self, scale_cfg, where):
        unknown = sorted(set(scale_cfg) - set(self.scale_keys))
        if unknown:
            raise ConfigError(f"{where}: unknown dual-scale key {unknown[0]!r}; this "
                              f"instance has {', '.join(self.scale_keys)}")

    def steps(self, scale_cfg):
        """PDHG steps certified for these dual scales; scale_cfg maps
        {"c0": ..., "c1": ..., ...} onto the ordered dual blocks."""
        self.check_scale_keys(scale_cfg, "pdhg scales")
        scales = tuple(_number(float, scale_cfg, k, "pdhg scales", 1.0)
                       for k in self.scale_keys)
        with _refused(f"pdhg scales {scale_cfg}"):
            try:
                return solver_mod.compute_step_sizes(self.assembly, scales=scales)
            except solver_mod.CertificationError as exc:
                field = scale_cfg if exc.block is None else self.scale_keys[exc.block]
                raise ConfigError(f"pdhg scales {field}: {exc}") from exc

    def run(self, method, budget):
        """(final image, metrics) of PDHG on certified steps or of a subgradient rule."""
        kwargs = dict(budget=budget, init_x=self.init_x, ground_truth=self.ground_truth)
        if isinstance(method, solver_mod.StepSizes):
            try:
                state, metrics = solver_mod.pdhg_solve(self.problem, method, **kwargs)
            except solver_mod.DivergenceError as exc:
                if exc.block is None:
                    raise
                raise ConfigError(f"pdhg scales {self.scale_keys[exc.block]}: {exc}") from exc
            return state.x, metrics
        return solver_mod.subgradient_solve(self.problem, method, **kwargs)


STEP_RULES = {"sm_c": (solver_mod.ConstantStep, "step"),
              "sm_d": (solver_mod.DiminishingStep, "step0")}


def _method(instance, entry):
    """Certified PDHG steps or the subgradient step rule of one solver entry."""
    kind = entry.get("kind")
    if kind == "pdhg":
        return instance.steps(entry.get("scales", {}))
    if not isinstance(kind, str) or kind not in STEP_RULES:
        raise ConfigError(f"unknown solver kind {kind!r}")
    rule, key = STEP_RULES[kind]
    value = _number(float, entry, key, f"solver entry {kind}")
    with _refused(f"solver entry {kind} {key}"):
        return rule(value)


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
        "norms": {f"block{b}_row{r}_entry{e}": value
                  for (b, r, e), value in sorted(steps.norms.items())},
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

    methods = [_method(instance, e) for e in entries]  # refuse bad entries before any solve
    ref_entry = next((e for e in entries if e.get("kind") == "pdhg"),
                     {"kind": "pdhg", "scales": {}})
    ref_budget = instance.budget * instance.reference_multiplier
    _, ref_metrics = instance.run(_method(instance, ref_entry), ref_budget)
    reference = float(np.min(ref_metrics.objective))

    summary = {
        "seed": instance.seed,
        "seeds": {k: instance.seed + offset for k, offset in SEEDS.items()},
        "budget": instance.budget,
        "reference": {"objective": reference,
                      "rule": "min objective of the long reference run",
                      "budget": ref_budget,
                      "solver": "pdhg",
                      "scales": ref_entry.get("scales", {})},
        "rel_error_target": instance.rel_error_target,
        "solvers": {},
    }
    for idx, (entry, method) in enumerate(zip(entries, methods)):
        name = f"{entry['kind']}{idx}"
        final_x, metrics = instance.run(method, instance.budget)
        metrics.write_csv(out_dir / f"{name}_metrics.csv", timing=instance.record_timing)
        write_tensor(out_dir / f"{name}_final.tnsb", final_x)
        tasks_mod.write_pgm(out_dir / f"{name}_final.pgm", final_x)
        hit, used_abs = solver_mod.iterations_to_threshold(
            metrics, reference, instance.rel_error_target)
        entry_summary = {
            "kind": entry.get("kind"),
            "final_objective": metrics.objective[-1],
            "final_psnr": metrics.psnr[-1],
            "iterations_to_threshold": hit,
            "threshold_used_absolute_fallback": used_abs,
        }
        if isinstance(method, solver_mod.StepSizes):
            entry_summary["step_sizes"] = _steps_summary(method)
        summary["solvers"][name] = entry_summary
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_json_safe(summary), fh, indent=2, sort_keys=True)
    return 0


def _sweep_combos(instance, sweep_cfg):
    instance.check_scale_keys(sweep_cfg, "sweep")
    keys = [k for k in instance.scale_keys if k in sweep_cfg]
    if not keys:
        raise ConfigError(f"sweep: no scale grids given (expected {instance.scale_keys})")
    grids = [_number(lambda grid: [float(v) for v in grid], sweep_cfg, k, "sweep") for k in keys]
    for key, grid in zip(keys, grids):
        _at_least_one(len(grid), f"sweep {key} grid size")
    return keys, list(itertools.product(*grids))


def _sweep_point(instance, scale_cfg):
    _, metrics = instance.run(instance.steps(scale_cfg), instance.budget)
    trailing = metrics.objective[1:]  # rows for iterations 1..budget
    return {"avg_objective": float(np.mean(trailing)),
            "final_objective": float(metrics.objective[-1])}


def _sweep_worker(args):
    config, scale_cfg, seed, budget = args
    instance = Instance(config, seed_override=seed, budget_override=budget)
    return _sweep_point(instance, scale_cfg)


def cmd_sweep(config_path, seed=None, budget=None, jobs=1):
    _at_least_one(jobs, "--jobs")
    config = load_config(config_path)
    instance = Instance(config, seed_override=seed, budget_override=budget)
    keys, combos = _sweep_combos(instance, _require(config, "sweep", "config"))
    out_dir = Path(_require(config, "output_dir", "config"))
    out_dir.mkdir(parents=True, exist_ok=True)
    scale_cfgs = [dict(zip(keys, combo)) for combo in combos]
    workers = min(jobs, len(combos))  # more would sit idle
    if workers > 1:
        work = [(config, scale_cfg, instance.seed, instance.budget)
                for scale_cfg in scale_cfgs]
        with get_context("spawn").Pool(workers) as pool:
            results = pool.map(_sweep_worker, work)
    else:
        results = [_sweep_point(instance, scale_cfg) for scale_cfg in scale_cfgs]
    rows = [tuple(combo) + (res["avg_objective"], res["final_objective"])
            for combo, res in zip(combos, results)]
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
        named.append((f"block_{block.kind}_{i}", block.operator.flat()))
    return spec, named


def cmd_norm(weights_dir, seed=0):
    _, named = _weights_operators(weights_dir)
    print(f"{'operator':24s} {'bound':>14s} {'estimate':>14s} {'ratio':>9s} iters converged")
    for name, op in named:
        est = linops.estimate_norm(op, seed=seed)
        bound = op.norm_bound
        ratio = f"{bound / est.value:9.6f}" if bound is not None and est.value > 0 else "-"
        bound = "-" if bound is None else f"{bound:14.8g}"
        print(f"{name:24s} {bound:>14s} {est.value:14.8g} {ratio:>9s} "
              f"{est.iterations:5d} {est.converged}")
    return 0


def cmd_adjoint_test(weights_dir, seed=0):
    _, named = _weights_operators(weights_dir)
    result = adjoint_suite(named, pairs=100, seed=seed)
    print(result.line())
    return 0 if result.passed else 1


# subcommand: (function, positional argument, help)
COMMANDS = {
    "solve": (cmd_solve, "config_path", "run configured solvers on one instance"),
    "sweep": (cmd_sweep, "config_path", "sweep dual-scale hyperparameters"),
    "verify": (cmd_verify, None, "run the bundled property suites"),
    "norm": (cmd_norm, "weights_dir", "print norm bounds and estimates for stored weights"),
    "adjoint-test": (cmd_adjoint_test, "weights_dir", "adjoint identity for stored weights"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="epirecon",
        description="variational reconstruction with learned convex regularizers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, positional, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if positional is not None:
            p.add_argument(positional)
        if positional == "config_path":  # seed and budget default to the config's
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--budget", type=int, default=None)
        else:
            p.add_argument("--seed", type=int, default=0)
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1)
    args = vars(parser.parse_args(argv))
    try:
        return COMMANDS[args.pop("command")][0](**args)
    except (ConfigError, icnn_mod.WeightsFormatError, icnn_mod.AdmissibilityError,
            solver_mod.CertificationError, solver_mod.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
