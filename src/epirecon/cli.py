"""Command-line workflow: build a task, run solvers, emit reproducible artifacts.

Subcommands (the COMMANDS table): `solve` and `sweep` run a JSON config, read
through one schema (CONFIG) that gives each field's type and default; `verify`
runs the property suites, `norm` and `adjoint-test` check stored weights.

One global seed fans out to the components at fixed offsets (phantom +11,
noise +23, weights +37), so every artifact is a pure function of (config,
seed). Timing columns are zeroed in CSV output unless `record_timing` is set.
"""

import argparse
import contextlib
import dataclasses
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
from .tensor import as_count, as_real, write_tensor
from .verify import adjoint_suite, run_all_suites

SEEDS = {"phantom": 11, "noise": 23, "weights": 37}  # offsets from the seed


class ConfigError(ValueError):
    """Raised for malformed or incomplete run configurations."""


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


# --- the config schema ------------------------------------------------------
# Every config field: (type, default or REQUIRED[, domain]). A type is a JSON
# type (float: a finite number, int: an integral number, bool, str, dict), a
# nested table, or [type] for a list of that type. A domain is given only where
# no builder checks one. A field given as a dict of tables is a kind: its value
# picks the table whose fields join the mapping's. The dual-scale keys of a pdhg
# entry's scales read as SCALE, the sweep's as GRID (absent: not swept).
REQUIRED = object()
AT_LEAST_0, AT_LEAST_1 = ("at least 0", lambda v: v >= 0), ("at least 1", lambda v: v >= 1)
POSITIVE, NON_EMPTY = ("positive", lambda v: v > 0), ("non-empty", len)
SOLVER = {"kind": {"pdhg": {"scales": (dict, {})}, "sm_c": {"step": (float, REQUIRED)},
                   "sm_d": {"step0": (float, REQUIRED)}}}
TASK = {"kind": {"denoise_salt_pepper": {"sp_density": (float, REQUIRED),
                                         "lam": (float, REQUIRED), "nonneg": (bool, False)},
                 "inpaint": {"mask_fraction": (float, REQUIRED),
                             "gaussian_sigma": (float, REQUIRED), "nonneg": (bool, False)},
                 "ct": {"poisson_scale": (float, REQUIRED), "background": (float, REQUIRED),
                        "n_angles": (int, None), "n_bins": (int, None),
                        "fbp_init": (bool, True)}},
        "image_side": (int, REQUIRED), "phantom": (str, REQUIRED), "gamma": (float, REQUIRED)}
RANDOM = {"arch": {"conv_pool_dense": {  # the template's sizes and defaults
    f.name: (f.type, f.default) for f in dataclasses.fields(icnn_mod.ConvPoolDenseTemplate)
    if f.name != "side"}}, "seed_offset": (int, 0)}
CONFIG = {"seed": (int, 0, AT_LEAST_0), "budget": (int, REQUIRED, AT_LEAST_1),
          "task": (TASK, REQUIRED),
          "weights": ({"path": (str, None), "random": (RANDOM, None)}, REQUIRED),
          "solvers": ([SOLVER], ()), "sweep": (dict, {}), "output_dir": (str, REQUIRED),
          "reference_multiplier": (int, 10, AT_LEAST_1),
          "rel_error_target": (float, 1e-3, POSITIVE), "record_timing": (bool, False)}
SCALE, GRID = (float, 1.0), ([float], None, NON_EMPTY)
NAMES = {float: "number", int: "integer", bool: "flag", str: "string", dict: "mapping",
         list: "list"}


def _value(value, spec, where):
    """value converted through its field's (type, default[, domain])."""
    kind, _, *domain = spec
    if isinstance(kind, dict):
        return _read(value, kind, where)
    python = list if isinstance(kind, list) else kind
    with _refused(where):
        if python is int:  # int() would truncate a bool or a fraction
            value = as_count(value)
        elif python is float:  # json reads NaN and Infinity
            value = as_real(value)
        elif not isinstance(value, python):
            raise TypeError(f"expected a {NAMES[python]}, got {value!r}")
    if python is list:
        value = [_value(item, (kind[0], None), f"{where}[{i}]") for i, item in enumerate(value)]
    for text, holds in domain:
        if not holds(value):
            raise ConfigError(f"{where}: must be {text}, got {value}")
    return value


def _field(mapping, key, spec, where):
    """mapping[key] converted through its spec, or the default of a field left out."""
    if key in mapping:
        return _value(mapping[key], spec, f"{where} {key}")
    if spec[1] is REQUIRED:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return spec[1]


def _read(mapping, table, where):
    """The fields of a config mapping converted through its table, defaults
    filled in; an unknown, missing or mistyped field is a ConfigError naming it."""
    _value(mapping, (dict, None), where)
    for key, spec in table.items():
        if isinstance(spec, dict):  # a kind
            kind = _field(mapping, key, (str, REQUIRED), where)
            if kind not in spec:
                raise ConfigError(f"{where} {key}: unknown {key} {kind!r}")
            table = {**table, key: (str, REQUIRED), **spec[kind]}
            break
    unknown = [key for key in mapping if key not in table]
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r}")
    return {key: _field(mapping, key, spec, where) for key, spec in table.items()}


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _build_weights(cfg, side, seed):
    """The network of a read weights mapping: stored at its path, or random."""
    if (cfg["path"] is None) == (cfg["random"] is None):
        raise ConfigError("config weights: give one of 'path' and 'random'")
    if cfg["path"] is not None:
        spec = icnn_mod.load_weights(cfg["path"])
        if tuple(spec.input_shape) != (side, side):
            raise ConfigError(f"weights: network input shape {tuple(spec.input_shape)} "
                              f"does not match the task image shape {(side, side)}")
        return spec
    sizes = {k: v for k, v in cfg["random"].items() if k not in ("arch", "seed_offset")}
    with _refused("weights"):
        template = icnn_mod.ConvPoolDenseTemplate(side=side, **sizes)
        return icnn_mod.random_admissible(seed + cfg["random"]["seed_offset"], template)


class Instance:
    """One fully built reconstruction problem plus its provenance; `config`
    holds the config's fields as read through CONFIG."""

    def __init__(self, config, seed_override=None, budget_override=None):
        self.config = _read(config, CONFIG, "config")
        self.seed = self.config["seed"] if seed_override is None \
            else _value(seed_override, CONFIG["seed"], "--seed")
        self.budget = self.config["budget"] if budget_override is None \
            else _value(budget_override, CONFIG["budget"], "--budget")
        task = self.config["task"]
        kind, side = task["kind"], task["image_side"]
        measured = {f.name: task[f.name] for f in dataclasses.fields(tasks_mod.TaskConfig)
                    if f.name in task}  # kind, image_side and the kind's own fields
        with _refused("task"):  # the phantom refuses a side too small, before the network
            self.ground_truth = tasks_mod.make_phantom(task["phantom"], side,
                                                       self.seed + SEEDS["phantom"])
            geometry = tasks_mod.ct_geometry(side, task["n_angles"], task["n_bins"]) \
                if kind == "ct" else None
            task_config = tasks_mod.TaskConfig(geometry=geometry,
                                               seed=self.seed + SEEDS["noise"], **measured)
        weights = _build_weights(self.config["weights"], side, self.seed + SEEDS["weights"])
        lam = task["lam"] if kind == "denoise_salt_pepper" else None
        with _refused("task gamma" if lam is None else "task gamma or lam"):
            self.problem, self.init_x = tasks_mod.build_problem(
                task_config, self.ground_truth, weights, task["gamma"], lam=lam,
                nonneg=task.get("nonneg"))  # ct has none: its image stays nonnegative
        self.init_x = self.init_x if task.get("fbp_init") else None
        # dual-scale keys in block order; c0 only when the fidelity is dualized
        self.scale_keys = (["c0"] if self.problem.fidelity.dualize else []) + \
            [f"c{i}" for i in range(1, weights.depth + 1)]
        with _refused("weights"):
            self.assembly = solver_mod.assemble_problem(self.problem)

    def read_scales(self, scale_cfg, spec, where):
        """A mapping keyed by dual scale read with one spec for each key."""
        unknown = sorted(set(scale_cfg) - set(self.scale_keys))
        if unknown:
            raise ConfigError(f"{where}: unknown dual-scale key {unknown[0]!r}; this "
                              f"instance has {', '.join(self.scale_keys)}")
        return _read(scale_cfg, dict.fromkeys(self.scale_keys, spec), where)

    def steps(self, scale_cfg):
        """PDHG steps certified for these dual scales; scale_cfg maps
        {"c0": ..., "c1": ..., ...} onto the ordered dual blocks."""
        scales = self.read_scales(scale_cfg, SCALE, "pdhg scales")
        with _refused(f"pdhg scales {scale_cfg}"):
            try:
                return solver_mod.compute_step_sizes(self.assembly,
                                                     scales=tuple(scales.values()))
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
        try:
            return solver_mod.subgradient_solve(self.problem, method, **kwargs)
        except solver_mod.DivergenceError as exc:  # the kl term's A x + b > 0 fails at x0
            if exc.iteration or not isinstance(self.problem.fidelity, solver_mod.KLFidelity):
                raise
            kind = "sm_c" if isinstance(method, solver_mod.ConstantStep) else "sm_d"
            raise ConfigError(f"task background: solver entry {kind}: {exc}") from exc


def _method(instance, entry):
    """Certified PDHG steps or the subgradient step rule of one read solver entry."""
    if entry["kind"] == "pdhg":
        return instance.steps(entry["scales"])
    key, rule = ("step", solver_mod.ConstantStep) if entry["kind"] == "sm_c" \
        else ("step0", solver_mod.DiminishingStep)
    with _refused(f"solver entry {entry['kind']} {key}"):
        return rule(entry[key])


def _json_safe(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def cmd_solve(config_path, seed=None, budget=None):
    instance = Instance(load_config(config_path), seed_override=seed, budget_override=budget)
    entries = instance.config["solvers"]
    if not entries:
        raise ConfigError("config solvers: at least one solver entry is required")
    methods = [_method(instance, e) for e in entries]  # refuse bad entries before any solve
    out_dir = Path(instance.config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ref_entry = next((e for e in entries if e["kind"] == "pdhg"),
                     {"kind": "pdhg", "scales": {}})
    ref_budget = instance.budget * instance.config["reference_multiplier"]
    _, ref_metrics = instance.run(_method(instance, ref_entry), ref_budget)
    reference = float(np.min(ref_metrics.objective))
    summary = {"seed": instance.seed, "budget": instance.budget, "solvers": {},
               "seeds": {k: instance.seed + offset for k, offset in SEEDS.items()},
               "reference": {"objective": reference, "budget": ref_budget, "solver": "pdhg",
                             "rule": "min objective of the long reference run",
                             "scales": ref_entry["scales"]},
               "rel_error_target": instance.config["rel_error_target"]}
    runs = [instance.run(method, instance.budget) for method in methods]  # then write
    for idx, (entry, method, (final_x, metrics)) in enumerate(zip(entries, methods, runs)):
        name = f"{entry['kind']}{idx}"
        metrics.write_csv(out_dir / f"{name}_metrics.csv",
                          timing=instance.config["record_timing"])
        write_tensor(out_dir / f"{name}_final.tnsb", final_x)
        tasks_mod.write_pgm(out_dir / f"{name}_final.pgm", final_x)
        hit, used_abs = solver_mod.iterations_to_threshold(
            metrics, reference, instance.config["rel_error_target"])
        summary["solvers"][name] = {
            "kind": entry["kind"], "final_objective": metrics.objective[-1],
            "final_psnr": metrics.psnr[-1], "iterations_to_threshold": hit,
            "threshold_used_absolute_fallback": used_abs}
        if isinstance(method, solver_mod.StepSizes):
            summary["solvers"][name]["step_sizes"] = {
                "tau": list(method.tau), "sigma": list(method.sigma),
                "scales": list(method.scales),
                "norms": {f"block{b}_row{r}_entry{e}": value
                          for (b, r, e), value in sorted(method.norms.items())},
                "certificates": {f"slot{slot}": value
                                 for slot, (value, _) in sorted(method.certificates.items())}}
    _write_summary(out_dir, summary)
    return 0


def _write_summary(out_dir, summary):
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_json_safe(summary), fh, indent=2, sort_keys=True)


def _sweep_point(instance, scale_cfg):
    """(mean objective over iterations 1..budget, final objective) at these scales."""
    _, metrics = instance.run(instance.steps(scale_cfg), instance.budget)
    return float(np.mean(metrics.objective[1:])), float(metrics.objective[-1])


def _sweep_worker(args):
    config, scale_cfg, seed, budget = args
    return _sweep_point(Instance(config, seed_override=seed, budget_override=budget), scale_cfg)


def cmd_sweep(config_path, seed=None, budget=None, jobs=1):
    jobs = _value(jobs, (int, 1, AT_LEAST_1), "--jobs")
    config = load_config(config_path)
    instance = Instance(config, seed_override=seed, budget_override=budget)
    grids = {k: grid for k, grid in instance.read_scales(
        instance.config["sweep"], GRID, "sweep").items() if grid is not None}
    if not grids:
        raise ConfigError(f"sweep: no scale grids given (expected {instance.scale_keys})")
    keys, combos = list(grids), list(itertools.product(*grids.values()))
    out_dir = Path(instance.config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    scale_cfgs = [dict(zip(keys, combo)) for combo in combos]
    workers = min(jobs, len(combos))  # more would sit idle
    if workers > 1:
        with get_context("spawn").Pool(workers) as pool:
            results = pool.map(_sweep_worker, [(config, scale_cfg, instance.seed, instance.budget)
                                               for scale_cfg in scale_cfgs])
    else:
        results = [_sweep_point(instance, scale_cfg) for scale_cfg in scale_cfgs]
    rows = [combo + result for combo, result in zip(combos, results)]
    with open(out_dir / "sweep.csv", "w") as fh:
        fh.write(",".join(keys + ["avg_objective", "final_objective"]) + "\n")
        fh.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    best = rows[int(np.argmin([r[-2] for r in rows]))]
    _write_summary(out_dir, {"seed": instance.seed, "budget": instance.budget,
                             "grid_keys": keys, "combinations": len(rows),
                             "best": {"scales": dict(zip(keys, best)), "avg_objective": best[-2],
                                      "final_objective": best[-1]}})
    return 0


def cmd_verify(seed=0):
    results = run_all_suites(seed)
    failed = sum(not r.passed for r in results)
    print(f"{'status':6s} {'suite':24s} {'runtime':>9s}  detail")
    print(*(r.line() for r in results), sep="\n")
    print(f"{failed} of {len(results)} suites failed (reproduce with seed {seed})" if failed
          else f"all {len(results)} suites passed")
    return 1 if failed else 0


def _weights_operators(weights_dir):
    """(name, operator) of each stored layer operator and each flat network block."""
    spec = icnn_mod.load_weights(weights_dir)
    from .blocks import assemble_blocks
    return [(f"layer{i}_{part}", op) for i, layer in enumerate(spec.layers, start=1)
            for part, op in (("skip", layer.skip), ("carry", layer.carry)) if op is not None] + \
        [(f"block_{block.kind}_{i}", block.operator.flat())
         for i, block in enumerate(assemble_blocks(spec).blocks)]


def cmd_norm(weights_dir, seed=0):
    named = _weights_operators(weights_dir)
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
    named = _weights_operators(weights_dir)
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
        # seed and budget default to the config's
        p.add_argument("--seed", type=int, default=None if positional == "config_path" else 0)
        if positional == "config_path":
            p.add_argument("--budget", type=int, default=None)
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1)
    args = vars(parser.parse_args(argv))
    command = COMMANDS[args.pop("command")][0]
    try:
        if "config_path" not in args:  # solve and sweep read theirs with the config
            args["seed"] = _value(args["seed"], CONFIG["seed"], "--seed")
        return command(**args)
    except (ConfigError, icnn_mod.WeightsFormatError, icnn_mod.AdmissibilityError,
            solver_mod.CertificationError, solver_mod.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
