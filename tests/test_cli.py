import contextlib
import inspect
import json
import math
import re
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import epirecon as er
from epirecon import cli, linops, prox
from epirecon import solver as solver_mod
from epirecon.cli import (SEEDS, ConfigError, Instance, cmd_solve, cmd_sweep,
                          load_config, main)
from epirecon.tensor import BlobFormatError, read_tensor, write_tensor
from epirecon.verify import adjoint_suite, epigraph_suite, prox_oracle_suite
from conftest import operator_network


def denoise_config(tmp_path, out_name="out", budget=40):
    return {
        "seed": 7,
        "task": {"kind": "denoise_salt_pepper", "image_side": 8, "sp_density": 0.1,
                 "phantom": "smooth_blobs", "lam": 0.02, "gamma": 10.0},
        "weights": {"random": {"arch": "conv_pool_dense", "filters": 2, "kernel": 3,
                               "pool": 4, "hidden": 4}},
        "solvers": [
            {"kind": "pdhg", "scales": {"c1": 1.0, "c2": 1.0}},
            {"kind": "sm_c", "step": 0.05},
            {"kind": "sm_d", "step0": 0.5},
        ],
        "budget": budget,
        "reference_multiplier": 3,
        "output_dir": str(tmp_path / out_name),
    }


def field_at(cfg, path):
    """The value at a key path of a config."""
    for key in path:
        cfg = cfg[key]
    return cfg


def set_field(cfg, path, value):
    """cfg with the field at a key path set to value, in place."""
    field_at(cfg, path[:-1])[path[-1]] = value
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def count_computed_bounds(monkeypatch, cfg):
    """Record the calls of linops.pad_bound, which every computed norm bound
    passes once (exact bounds are not computed). Returns the emptied call
    list and how many bounds certifying one instance of cfg computed."""
    calls = []
    real = linops.pad_bound

    def counting(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(linops, "pad_bound", counting)
    solver_mod.certify_norms(Instance(cfg).assembly)
    per_instance = len(calls)
    assert per_instance  # the conv and the pool-dense carry compute theirs
    calls.clear()
    return calls, per_instance


def test_solve_writes_artifacts(tmp_path):
    cfg = denoise_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert cmd_solve(path) == 0
    out = Path(cfg["output_dir"])
    for name in ("pdhg0", "sm_c1", "sm_d2"):
        assert (out / f"{name}_metrics.csv").exists()
        assert (out / f"{name}_final.pgm").exists()
        assert (out / f"{name}_final.tnsb").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reference"]["budget"] == 3 * cfg["budget"]
    assert "pdhg0" in summary["solvers"]
    steps = summary["solvers"]["pdhg0"]["step_sizes"]
    assert "certificates" in steps and "inflation" not in steps
    assert steps["norms"] and all(isinstance(v, float) and v > 0.0
                                  for v in steps["norms"].values())
    header = (out / "pdhg0_metrics.csv").read_text().splitlines()[0]
    assert header == "iter,objective_P,objective_P1,data_term,reg_term,feasibility,psnr,seconds"


def test_solve_invalid_json_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    rc = main(["solve", str(bad)])
    assert rc == 2
    with pytest.raises(ConfigError, match="line 1"):
        load_config(bad)


def test_solve_missing_field_named(tmp_path):
    cfg = denoise_config(tmp_path)
    del cfg["task"]["lam"]
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match="lam"):
        cmd_solve(path)


def test_solve_bitwise_deterministic(tmp_path):
    cfg_a = denoise_config(tmp_path, "out_a", budget=25)
    cfg_b = denoise_config(tmp_path, "out_b", budget=25)
    cmd_solve(write_config(tmp_path, cfg_a, "a.json"))
    cmd_solve(write_config(tmp_path, cfg_b, "b.json"))
    for name in ("pdhg0", "sm_c1", "sm_d2"):
        csv_a = (Path(cfg_a["output_dir"]) / f"{name}_metrics.csv").read_bytes()
        csv_b = (Path(cfg_b["output_dir"]) / f"{name}_metrics.csv").read_bytes()
        assert csv_a == csv_b
        img_a = (Path(cfg_a["output_dir"]) / f"{name}_final.tnsb").read_bytes()
        img_b = (Path(cfg_b["output_dir"]) / f"{name}_final.tnsb").read_bytes()
        assert img_a == img_b


def test_seed_override_changes_output(tmp_path):
    cfg = denoise_config(tmp_path, "out_s", budget=10)
    path = write_config(tmp_path, cfg)
    assert cmd_solve(path, seed=99) == 0
    base = json.loads((Path(cfg["output_dir"]) / "summary.json").read_text())
    assert base["seed"] == 99
    assert base["seeds"]["phantom"] == 99 + 11


def test_sweep_grid_rows_and_argmin(tmp_path):
    cfg = denoise_config(tmp_path, "out_sweep", budget=15)
    cfg["sweep"] = {"c1": [0.5, 1.0], "c2": [0.5, 1.0]}
    path = write_config(tmp_path, cfg)
    assert cmd_sweep(path) == 0
    out = Path(cfg["output_dir"])
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "c1,c2,avg_objective,final_objective"
    assert len(lines) == 5  # header + 2x2 grid
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    summary = json.loads((out / "summary.json").read_text())
    best = summary["best"]
    avg_col = [r[2] for r in rows]
    best_row = rows[int(np.argmin(avg_col))]
    assert np.isclose(best["avg_objective"], min(avg_col))
    assert np.isclose(best["scales"]["c1"], best_row[0])
    assert np.isclose(best["scales"]["c2"], best_row[1])


def test_sweep_certifies_norms_once(tmp_path, monkeypatch):
    cfg = denoise_config(tmp_path, "out_once", budget=5)
    cfg["sweep"] = {"c1": [0.5, 1.0], "c2": [0.5, 1.0]}
    calls, expected = count_computed_bounds(monkeypatch, cfg)
    assert cmd_sweep(write_config(tmp_path, cfg)) == 0
    assert len(calls) == expected


def test_sweep_assembles_blocks_once_per_instance(tmp_path, monkeypatch):
    cfg = denoise_config(tmp_path, "out_assemble", budget=5)
    cfg["sweep"] = {"c1": [0.5, 1.0], "c2": [0.5, 1.0]}
    assembled, instances = [], []
    real_assemble, real_init = solver_mod.assemble_blocks, Instance.__init__

    def counting_assemble(*args, **kwargs):
        assembled.append(args)
        return real_assemble(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        instances.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "assemble_blocks", counting_assemble)
    monkeypatch.setattr(Instance, "__init__", counting_init)
    assert cmd_sweep(write_config(tmp_path, cfg)) == 0
    assert len(instances) == 1
    assert len(assembled) == len(instances)


def test_solve_certifies_norms_once(tmp_path, monkeypatch):
    cfg = denoise_config(tmp_path, "out_solve_once", budget=5)
    cfg["solvers"] = [{"kind": "pdhg", "scales": {"c1": 1.0, "c2": 1.0}},
                      {"kind": "pdhg", "scales": {"c1": 0.5, "c2": 2.0}}]
    calls, expected = count_computed_bounds(monkeypatch, cfg)
    assert cmd_solve(write_config(tmp_path, cfg)) == 0
    assert len(calls) == expected
    summary = json.loads((Path(cfg["output_dir"]) / "summary.json").read_text())
    norms = [summary["solvers"][name]["step_sizes"]["norms"] for name in ("pdhg0", "pdhg1")]
    assert norms[0] == norms[1]


def test_sweep_parallel_matches_serial(tmp_path):
    outputs = []
    for jobs in (1, 2):
        cfg = denoise_config(tmp_path, f"out_jobs{jobs}", budget=10)
        cfg["sweep"] = {"c1": [0.5, 1.0], "c2": [0.5, 1.0]}
        assert cmd_sweep(write_config(tmp_path, cfg, f"jobs{jobs}.json"), jobs=jobs) == 0
        out = Path(cfg["output_dir"])
        outputs.append(((out / "sweep.csv").read_bytes(),
                        (out / "summary.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_sweep_single_cell_matches_solve(tmp_path):
    cfg = denoise_config(tmp_path, "out_sw1", budget=15)
    cfg["sweep"] = {"c1": [1.0], "c2": [1.0]}
    sweep_path = write_config(tmp_path, cfg, "sw.json")
    assert cmd_sweep(sweep_path) == 0
    sweep_rows = (Path(cfg["output_dir"]) / "sweep.csv").read_text().splitlines()
    final_from_sweep = float(sweep_rows[1].split(",")[-1])

    cfg2 = denoise_config(tmp_path, "out_sv1", budget=15)
    cfg2["solvers"] = [{"kind": "pdhg", "scales": {"c1": 1.0, "c2": 1.0}}]
    solve_path = write_config(tmp_path, cfg2, "sv.json")
    assert cmd_solve(solve_path) == 0
    summary = json.loads((Path(cfg2["output_dir"]) / "summary.json").read_text())
    assert np.isclose(summary["solvers"]["pdhg0"]["final_objective"], final_from_sweep)


def test_verify_command_passes():
    assert main(["verify", "--seed", "1"]) == 0


def test_suites_fail_on_a_branch_never_hit_or_a_nan_result(monkeypatch):
    # one instance misses a shrink branch, three points an epigraph branch
    result = prox_oracle_suite(instances=1)
    assert not result.passed
    assert re.fullmatch(r"shrink: branch '(above|dead zone|below)' never hit", result.detail)
    result = epigraph_suite(instances=3)
    assert not result.passed
    assert re.fullmatch(r"alpha=0\.0: branch '(inside|right|left|corner)' never hit",
                        result.detail)
    monkeypatch.setattr(prox, "soft_shrink", lambda x, thr, center: np.full_like(x, np.nan))
    result = prox_oracle_suite()
    assert (result.passed, result.detail) == (False, "shrink off its oracle by nan")


# (kernel builder, its line, the broken line, family whose oracle gap fails)
EPIGRAPH_MUTANTS = {
    "left_foot_max": ("epigraph_kernel", "np.minimum(q, 0.0, out=q)",
                      "np.maximum(q, 0.0, out=q)", "epigraph"),
    "right_foot_unclamped": ("epigraph_kernel", "np.maximum(right, 0.0, out=right)",
                             "pass", "epigraph"),
    "bias_subtracted": ("epigraph_conjugate_kernel", "np.add(pbar, shift, out=pbar)",
                        "np.subtract(pbar, shift, out=pbar)", "epigraph conjugate"),
}


@pytest.mark.parametrize("mutant", EPIGRAPH_MUTANTS)
def test_epigraph_suite_catches_a_wrong_projection(monkeypatch, mutant):
    name, line, broken, family = EPIGRAPH_MUTANTS[mutant]
    source = textwrap.dedent(inspect.getsource(getattr(prox, name)))
    assert line in source
    namespace = dict(vars(prox))  # the broken builder reads the other kernels from prox
    exec(source.replace(line, broken), namespace)
    monkeypatch.setattr(prox, name, namespace[name])
    result = epigraph_suite()
    assert not result.passed
    assert re.fullmatch(rf"{family} off its oracle by \S+", result.detail), result.detail


def test_adjoint_suite_catches_injected_sign_flip():
    for broken in (np.negative, lambda w: np.full_like(w, np.nan)):  # a NaN gap fails too
        class BrokenAdjoint(er.Dense):
            def _adjoint(self, w):
                return broken(super()._adjoint(w))

        bad = BrokenAdjoint(np.array([[1.0, 2.0], [3.0, 4.0]]))
        result = adjoint_suite([("sabotaged_dense", bad)], pairs=10, seed=0)
        assert not result.passed
        assert "sabotaged_dense" in result.detail


def test_norm_and_adjoint_test_commands(tmp_path, capsys):
    spec = er.random_admissible(3, er.DenseTemplate(input_dim=3, hidden_dims=(4,)))
    er.save_weights(spec, tmp_path / "w")
    assert main(["norm", str(tmp_path / "w")]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split()[:4] == ["operator", "bound", "estimate", "ratio"]
    rows = {line.split()[0]: line.split() for line in lines}
    for name in ("layer1_skip", "layer2_carry"):  # bound over power estimate
        assert 1.0 <= float(rows[name][3]) <= 1.001
    block = next(row for name, row in rows.items() if name.startswith("block_readout"))
    assert block[1] == "-" and block[3] == "-"  # flat block views have no bound
    assert main(["adjoint-test", str(tmp_path / "w")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_non_finite_head_blob_is_a_weights_error(tmp_path, capsys):
    spec = er.random_admissible(3, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    er.save_weights(spec, tmp_path / "w")
    head = spec.head.copy()
    head[1] = np.nan
    write_tensor(tmp_path / "w" / "head.tnsb", head)
    cfg = denoise_config(tmp_path, "out_nan", budget=5)
    cfg["weights"] = {"path": str(tmp_path / "w")}
    path = write_config(tmp_path, cfg)
    for argv in (["solve", str(path)], ["norm", str(tmp_path / "w")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "blob 'head.tnsb' refused" in err and "icnn head" in err
    assert not list(Path(cfg["output_dir"]).glob("*_metrics.csv"))


def test_readout_cap_overflow_exits_2_naming_task_gamma(tmp_path, capsys):
    # gamma and every saved head entry pass their checks, but gamma × 1e300
    # overflows the readout cap; the run diverged at iteration 1 and blamed a
    # pdhg scale
    spec = er.random_admissible(3, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    er.save_weights(spec, tmp_path / "w")
    head = spec.head.copy()
    head[1] = 1e300
    write_tensor(tmp_path / "w" / "head.tnsb", head)
    cfg = denoise_config(tmp_path, "out_cap", budget=5)
    cfg["task"] = {"kind": "inpaint", "image_side": 8, "phantom": "smooth_blobs",
                   "mask_fraction": 0.3, "gaussian_sigma": 0.03, "gamma": 1e10}
    cfg["weights"] = {"path": str(tmp_path / "w")}
    assert main(["solve", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: task gamma: readout cap = reg_weight × head is not finite")
    assert "pdhg scales" not in err
    assert not list(Path(cfg["output_dir"]).glob("*.csv"))


# manifest edit, entry named and message of each malformed weights manifest
MALFORMED = {
    "operator_kind": (lambda m: m["layers"][0]["skip"].update(kind="conv3d"),
                      "layers[0]", "unknown operator kind 'conv3d'"),
    "activation_kind": (lambda m: m["layers"][0]["activation"].update(kind="tanh"),
                        "layers[0]", "unknown activation kind 'tanh'"),
    "compose_chain": (lambda m: m["layers"][1]["carry"]["parts"].reverse(),
                      "layers[1]", "compose dense -> avgpool2d"),
    "version_99": (lambda m: m.update(version=99), "version", "unsupported version 99"),
    "version_string": (lambda m: m.update(version="x"), "version", "unsupported version 'x'"),
    "version_true": (lambda m: m.update(version=True), "version", "unsupported version True"),
    "residual_list": (lambda m: m["layers"][0].update(residual=[]),
                      "layers[0]", "residual: expected a flag, got []"),
    "input_shape_fraction": (lambda m: m.update(input_shape=[8.5, 8]),
                             "network", "input_shape: expected an integer, got 8.5"),
    "operator_input_shape_fraction": (
        lambda m: m["layers"][0]["skip"].update(input_shape=[8, 8.5]),
        "layers[0]", "input_shape: expected an integer, got 8.5"),
    "pool_fraction": (lambda m: m["layers"][1]["carry"]["parts"][0].update(pool=[4.5, 4.5]),
                      "layers[1]", "pool: expected an integer, got 4.5"),
    "mask_empty": (lambda m: m["layers"][0].update(skip={"kind": "diagonal_mask",
                                                         "mask": "empty.tnsb"}),
                   "layers[0]", "mask shape: must be at least 1, got 0"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_weights_manifest_exits_2_naming_the_entry(tmp_path, capsys, case):
    edit, entry, message = MALFORMED[case]
    spec = er.random_admissible(3, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    er.save_weights(spec, tmp_path / "w")
    write_tensor(tmp_path / "w" / "empty.tnsb", np.zeros(0))  # a blob of shape (0,)
    manifest_path = tmp_path / "w" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    cfg = denoise_config(tmp_path, "out_malformed", budget=5)
    cfg["weights"] = {"path": str(tmp_path / "w")}
    for argv in (["norm", str(tmp_path / "w")], ["solve", str(write_config(tmp_path, cfg))]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"manifest.json: {entry} refused" in err and message in err
    assert not Path(cfg["output_dir"]).exists()


NETWORKS = {"conv": lambda: er.random_admissible(3, er.ConvPoolDenseTemplate(
    side=8, filters=2, kernel=3, pool=4, hidden=4)), "operators": operator_network}
# a blob's header: magic, u16 version, u16 rank, then u64 dims, then the payload
BLOB_MUTANTS = {"magic": lambda raw: b"TNSA" + raw[4:],
                "version": lambda raw: raw[:4] + b"\x02" + raw[5:],
                "rank": lambda raw: raw[:6] + bytes([raw[6] + 1]) + raw[7:],
                "dim": lambda raw: raw[:8] + bytes([raw[8] + 1]) + raw[9:],
                "truncated": lambda raw: raw[:-8], "extra": lambda raw: raw + raw[-8:]}


def manifest_entry(path):
    """The entry a load error names for a manifest leaf at a key path."""
    if path[0] == "layers":
        return f"layers[{path[1]}]"
    return path[0] if path[0] in ("format", "version") else "network"


@pytest.mark.parametrize("network", NETWORKS)
def test_every_manifest_and_blob_mutation_exits_0_or_2_naming_it(tmp_path, capsys, network):
    # every leaf of the saved manifest takes each config mutant, and every blob
    # each header corruption; `norm` never ends in a traceback, and it must exit
    # 2 naming the entry for another JSON class, a non-finite number or a
    # fraction for an integer, and naming the blob for a header that no longer
    # parses (a zero bias reads as a well-formed blob of shape (1, 0) once its
    # rank is raised; the network refuses that shape)
    weights = tmp_path / "w"
    er.save_weights(NETWORKS[network](), weights)
    manifest = json.loads((weights / "manifest.json").read_text())
    failures = []

    def check(what, named, must):
        try:
            code, err = main(["norm", str(weights)]), capsys.readouterr().err
        except Exception as exc:
            code, err = "traceback", f"{type(exc).__name__}: {exc}"
        capsys.readouterr()
        if not (code == 2 and (named in err or not must) or code == 0 and not must):
            failures.append(f"{what}: exit {code}: {err.strip()}")

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for path in leaf_paths(manifest):
            for value in MUTANTS:
                edited = set_field(json.loads(json.dumps(manifest)), path, value)
                (weights / "manifest.json").write_text(json.dumps(edited))
                field = next(key for key in reversed(path) if isinstance(key, str))
                check(f"{path}={value!r}", f"manifest.json: {manifest_entry(path)} refused",
                      must_refuse(field_at(manifest, path), value, field))
        (weights / "manifest.json").write_text(json.dumps(manifest))
        for blob in sorted(weights.glob("*.tnsb")):
            raw = blob.read_bytes()
            for name, corrupt in BLOB_MUTANTS.items():
                blob.write_bytes(corrupt(raw))
                with contextlib.suppress(BlobFormatError):
                    read_tensor(blob)
                    check(f"{blob.name} {name}", "network refused", True)
                    continue
                check(f"{blob.name} {name}", blob.name, True)
            blob.write_bytes(raw)
    assert not failures, "\n".join(failures)


def test_missing_weights_dir_is_config_error(tmp_path):
    rc = main(["norm", str(tmp_path / "nope")])
    assert rc == 2


# refusals of a whole config: (command, edit of the denoise config, or None
# for a config path that does not exist, and the text of the refusal)
WHOLE_CONFIG = {
    "weights path and random": ("solve", lambda cfg: cfg["weights"].update(path="w"),
                                "config weights: give one of 'path' and 'random'"),
    "weights neither": ("solve", lambda cfg: cfg.update(weights={}),
                        "config weights: give one of 'path' and 'random'"),
    "no solvers": ("solve", lambda cfg: cfg.update(solvers=[]),
                   "config solvers: at least one solver entry is required"),
    "no scale grid": ("sweep", lambda cfg: None,
                      "sweep: no scale grids given (expected ['c1', 'c2'])"),
    "no config file": ("solve", None, "config file {path} does not exist"),
}


@pytest.mark.parametrize("case", WHOLE_CONFIG)
def test_whole_config_refusal_exits_2_with_its_text(tmp_path, capsys, case):
    command, edit, text = WHOLE_CONFIG[case]
    cfg = denoise_config(tmp_path)
    path = tmp_path / "absent.json"
    if edit is not None:
        edit(cfg)
        path = write_config(tmp_path, cfg)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {text.format(path=path)}\n"
    assert not (tmp_path / "out").exists()


def test_scale_keys_follow_the_dual_blocks(tmp_path):
    # c0 exists only when the fidelity is dualized (ct), never for denoise
    ct = denoise_config(tmp_path, "out_ct")
    ct["task"] = {"kind": "ct", "image_side": 8, "phantom": "smooth_blobs",
                  "poisson_scale": 1e3, "background": 5.0, "gamma": 1.0}
    assert Instance(ct).scale_keys == ["c0", "c1", "c2"]
    cfg = denoise_config(tmp_path, "out_c0", budget=5)
    cfg["sweep"] = {"c0": [0.5, 1.0], "c1": [1.0]}
    path = write_config(tmp_path, cfg, "c0.json")
    with pytest.raises(ConfigError, match="unknown dual-scale key 'c0'"):
        cmd_sweep(path)
    assert main(["sweep", str(path)]) == 2
    assert not (Path(cfg["output_dir"]) / "sweep.csv").exists()


def test_pdhg_entry_rejects_unknown_scale_key(tmp_path):
    cfg = denoise_config(tmp_path, "out_c7", budget=5)
    cfg["solvers"].append({"kind": "pdhg", "scales": {"c1": 1.0, "c7": 2.0}})
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match="unknown dual-scale key 'c7'"):
        cmd_solve(path)
    assert main(["solve", str(path)]) == 2
    assert not list(Path(cfg["output_dir"]).glob("*_metrics.csv"))  # nothing ran


def test_dense_weights_arch_is_unknown(tmp_path):
    cfg = denoise_config(tmp_path, "out_dense", budget=5)
    cfg["weights"] = {"random": {"arch": "dense", "input_dim": 64, "hidden_dims": [4]}}
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match="unknown arch 'dense'"):
        cmd_solve(path)
    assert main(["solve", str(path)]) == 2


def test_weights_path_input_shape_must_match_image(tmp_path):
    for side in (8, 16):
        spec = er.random_admissible(3, er.ConvPoolDenseTemplate(
            side=side, filters=2, kernel=3, pool=4, hidden=4))
        er.save_weights(spec, tmp_path / f"w{side}")
    cfg = denoise_config(tmp_path, "out_path", budget=5)  # 8x8 image
    cfg["weights"] = {"path": str(tmp_path / "w8")}
    assert Instance(cfg).problem.regularizer.input_shape == (8, 8)
    cfg["weights"] = {"path": str(tmp_path / "w16")}
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=r"\(16, 16\) does not match .* \(8, 8\)"):
        cmd_solve(path)
    assert main(["solve", str(path)]) == 2


def test_step_outside_the_float_range_exits_2_naming_its_scale(tmp_path, capsys):
    # first-layer filters this small square to 0.0 in floating point, so
    # sigma_1 = c1 / norm^2 is no float (a ZeroDivisionError traceback before)
    spec = er.random_admissible(3, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    first = spec.layers[0]
    tiny = replace(first, skip=er.Conv2D(first.skip.filters * 1e-170,
                                         first.skip.input_shape))
    er.save_weights(replace(spec, layers=(tiny,) + spec.layers[1:]), tmp_path / "w")
    cfg = denoise_config(tmp_path, "out_tiny", budget=5)
    cfg["weights"] = {"path": str(tmp_path / "w")}
    assert main(["solve", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pdhg scales c1: dual block 0 (epigraph)")
    assert not list(Path(cfg["output_dir"]).glob("*_metrics.csv"))


def ct_config(tmp_path, out_name="out_ct", budget=5):
    cfg = denoise_config(tmp_path, out_name, budget)
    cfg["task"] = {"kind": "ct", "image_side": 8, "phantom": "smooth_blobs",
                   "poisson_scale": 1e3, "background": 5.0, "gamma": 1.0,
                   "n_angles": 6}
    cfg["solvers"] = [{"kind": "pdhg", "scales": {"c0": 1.0, "c1": 1.0, "c2": 1.0}}]
    return cfg


def test_ct_instance_problem_is_build_problem(tmp_path):
    cfg = ct_config(tmp_path)
    instance = Instance(cfg)
    seed = cfg["seed"]
    spec = er.random_admissible(seed + SEEDS["weights"], er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    truth = er.make_phantom("smooth_blobs", 8, seed + SEEDS["phantom"])
    task = er.TaskConfig(kind="ct", image_side=8, poisson_scale=1e3, background=5.0,
                         geometry=er.RadonGeometry(image_side=8, n_angles=6, n_bins=13),
                         seed=seed + SEEDS["noise"])
    problem, init_x = er.build_problem(task, truth, spec, 1.0)
    got = instance.problem
    assert got.forward.geometry == problem.forward.geometry
    assert got.measurement.tobytes() == problem.measurement.tobytes()
    assert got.fidelity.background.tobytes() == problem.fidelity.background.tobytes()
    assert (got.reg_weight, got.nonneg) == (problem.reg_weight, problem.nonneg)
    assert instance.init_x.tobytes() == init_x.tobytes()
    cfg["task"]["fbp_init"] = False
    assert Instance(cfg).init_x is None


NAN = float("nan")
# a path under "sweep" runs the sweep command, every other path solve
REFUSED = [(ct_config, ("task", "background"), -5.0),
           (ct_config, ("task", "poisson_scale"), NAN),
           (denoise_config, ("task", "gamma"), NAN),
           (denoise_config, ("task", "lam"), NAN),
           (denoise_config, ("solvers", 0, "scales", "c1"), NAN),
           (denoise_config, ("solvers", 1, "step"), NAN),
           (denoise_config, ("solvers", 2, "step0"), NAN),
           (denoise_config, ("budget",), 0),
           (denoise_config, ("reference_multiplier",), 0),
           (denoise_config, ("sweep", "c2"), []),
           # run settings outside their JSON type or domain, which no builder
           # sees: each exited 0 before, and a negative seed exited 2 naming task
           (denoise_config, ("rel_error_target",), NAN),
           (denoise_config, ("rel_error_target",), True),
           (denoise_config, ("rel_error_target",), "1e-2"),
           (denoise_config, ("rel_error_target",), 0.0),
           (denoise_config, ("rel_error_target",), -1.0),
           (denoise_config, ("task", "nonneg"), "x"),
           (denoise_config, ("task", "nonneg"), None),
           (denoise_config, ("task", "fbp_init"), True),  # a field of another kind
           (denoise_config, ("record_timing",), {}),
           (denoise_config, ("record_timing",), 1),
           (denoise_config, ("seed",), -12),
           (ct_config, ("task", "nonneg"), False)]  # ct has no such field


@pytest.mark.parametrize("make_config, path, value", REFUSED,
                         ids=[path[-1] for _, path, _ in REFUSED])
def test_refused_value_exits_2_naming_its_field(tmp_path, capsys, make_config, path,
                                                value):
    _assert_refused(tmp_path, capsys, make_config, path, value)


# values that ended in a traceback before: int() of a JSON Infinity (an
# OverflowError), an unhashable kind, a pool that int() turns into 0 (a
# ZeroDivisionError) and a kernel with a zero side; and counts that int()
# truncated into another network, which exited 0
TRACEBACKS = {"seed=Infinity": (denoise_config, ("seed",), float("inf")),
              "hidden=-Infinity": (denoise_config, ("weights", "random", "hidden"),
                                   -float("inf")),
              "task kind=[]": (denoise_config, ("task", "kind"), []),
              "solver kind={}": (denoise_config, ("solvers", 0, "kind"), {}),
              "pool=0": (denoise_config, ("weights", "random", "pool"), 0),
              "pool=-0.0": (denoise_config, ("weights", "random", "pool"), -0.0),
              "pool=1e-300": (denoise_config, ("weights", "random", "pool"), 1e-300),
              "denoise kernel=0": (denoise_config, ("weights", "random", "kernel"), 0),
              "ct kernel=0": (ct_config, ("weights", "random", "kernel"), 0),
              "filters=2.5": (denoise_config, ("weights", "random", "filters"), 2.5),
              "hidden=true": (denoise_config, ("weights", "random", "hidden"), True)}


@pytest.mark.parametrize("case", TRACEBACKS)
def test_former_traceback_exits_2_naming_its_field(tmp_path, capsys, case):
    _assert_refused(tmp_path, capsys, *TRACEBACKS[case])


def test_ct_at_a_vanishing_count_scale_reports_minus_inf_psnr(tmp_path):
    # the normalized problem is O(1e300): the squared error of the image
    # overflows, which psnr reports as -inf; a small c0 keeps the KL dual in range
    cfg = ct_config(tmp_path)
    cfg["task"]["poisson_scale"] = 1e-300
    cfg["solvers"][0]["scales"]["c0"] = 1e-200
    assert main(["solve", str(write_config(tmp_path, cfg))]) == 0
    summary = json.loads((Path(cfg["output_dir"]) / "summary.json").read_text())
    assert summary["solvers"]["pdhg0"]["final_psnr"] == "-inf"


def test_diverging_dual_block_names_its_scale_key(tmp_path, capsys):
    # at unit c0 the KL conjugate kernel squares a shift of about 1e300 and
    # the fidelity dual overflows at iteration 1; the refusal names c0
    cfg = ct_config(tmp_path)
    cfg["task"]["poisson_scale"] = 1e-300
    with warnings.catch_warnings():  # the overflow is the guard's to report
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pdhg scales c0: ") and "dual block 0 at iteration 1" in err
    assert not list(Path(cfg["output_dir"]).glob("*.csv"))


@pytest.mark.parametrize("entry", [{"kind": "sm_c", "step": 0.05},
                                   {"kind": "sm_d", "step0": 0.5}], ids=["sm_c", "sm_d"])
def test_ct_baseline_outside_the_kl_domain_names_the_background(tmp_path, capsys, entry):
    # the clipped FBP start has zero forward bins, where a zero background
    # leaves the KL subgradient undefined at iteration 0
    cfg = ct_config(tmp_path)
    cfg["task"]["background"] = 0.0
    cfg["solvers"].append(entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: task background: solver entry {entry['kind']}: ")
    assert "at iteration 0" in err
    assert not list(Path(cfg["output_dir"]).glob("*.csv"))


def full_config(tmp_path, kind):
    """The 8x8 test config of a task kind at budget 2 with a unit reference
    multiplier, every optional field written out."""
    cfg = (ct_config if kind == "ct" else denoise_config)(tmp_path, "out_full", budget=2)
    if kind == "inpaint":
        cfg["task"] = {"kind": "inpaint", "image_side": 8, "phantom": "smooth_blobs",
                       "mask_fraction": 0.3, "gaussian_sigma": 0.03, "gamma": 10.0}
    if kind == "ct":
        cfg["task"]["n_bins"] = 13
        cfg["solvers"] += [{"kind": "sm_c", "step": 0.05}, {"kind": "sm_d", "step0": 0.5}]
    cfg["task"].update({"fbp_init": True} if kind == "ct" else {"nonneg": False})
    cfg["weights"]["random"].update(alpha=0.2, seed_offset=0)
    cfg.update(reference_multiplier=1, record_timing=False, rel_error_target=1e-3)
    return cfg


def leaf_paths(node, path=()):
    """The key path of every scalar in a config, output_dir aside."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, path + (key,))
        elif key != "output_dir":
            yield path + (key,)


MUTANTS = [None, "x", -1, 0, 0.0, -0.0, NAN, float("inf"), -float("inf"), [], {}, True,
           2.5, 1e-300]
JSON_CLASSES = [(bool, "bool"), ((int, float), "number"), (str, "string"),
                (type(None), "null"), (list, "list"), (dict, "mapping")]


def json_class(value):
    return next(name for kind, name in JSON_CLASSES if isinstance(value, kind))


# config fields and manifest entries that size a network or an operator
SIZES = ("filters", "kernel", "pool", "hidden", "input_shape", "shape", "image_side",
         "n_angles", "n_bins")


def must_refuse(base, value, field=None):
    """Whether a mutant of a field must exit 2: another JSON class than the
    base value's, a non-finite number, a fraction for a count (an integer
    base value), or a size below 1. The last two cover values that once
    ended in a traceback (a pool or kernel of 0), that int() truncated into
    another network, or that built an operator on an empty shape."""
    if json_class(value) != json_class(base):
        return True
    if json_class(value) != "number":
        return False
    return (not math.isfinite(value) or (isinstance(base, int) and not float(value).is_integer())
            or (field in SIZES and value < 1))


@pytest.mark.parametrize("kind", ["denoise", "inpaint", "ct"])
def test_every_field_mutation_exits_0_or_2_naming_its_field(tmp_path, capsys, kind):
    # one field at a time takes each mutant value; a refusal names the field,
    # except a vanishing CT count scale, refused by the dual block it
    # overflows, and writes no CSV
    base = full_config(tmp_path, kind)
    out = Path(base["output_dir"])
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for path in leaf_paths(base):
            for value in MUTANTS:
                cfg = set_field(json.loads(json.dumps(base)), path, value)
                for csv in out.glob("*.csv"):
                    csv.unlink()
                code = main(["solve", str(write_config(tmp_path, cfg))])
                err = capsys.readouterr().err
                name = "pdhg scales c0" if (path[-1], value) == ("poisson_scale", 1e-300) \
                    else path[-1]
                refused = code == 2 and name in err and not list(out.glob("*.csv"))
                if not refused and (code != 0 or must_refuse(field_at(base, path), value,
                                                             path[-1])):
                    failures.append(f"{path}={value!r}: exit {code}: {err.strip()}")
    assert not failures, "\n".join(failures)


def test_misspelled_key_exits_2_naming_it(tmp_path, capsys):
    # each mapping of each full config gets one key with its last letter
    # dropped (scale, lam, filter, ...), beside the key itself
    failures = []
    for kind in ("denoise", "inpaint", "ct"):
        base = full_config(tmp_path, kind)
        for path in mapping_paths(base):
            cfg = json.loads(json.dumps(base))
            mapping = field_at(cfg, path)
            first = next(iter(mapping))
            typo = first[:-1]
            mapping[typo] = mapping[first]
            code = main(["solve", str(write_config(tmp_path, cfg))])
            err = capsys.readouterr().err
            if code != 2 or f"{typo!r}" not in err or Path(cfg["output_dir"]).exists():
                failures.append(f"{kind} {path} {typo!r}: exit {code}: {err.strip()}")
    assert not failures, "\n".join(failures)


def mapping_paths(node, path=()):
    """The key path of every mapping in a config, the config itself first."""
    if isinstance(node, dict):
        yield path
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from mapping_paths(value, path + (key,))


def _assert_refused(tmp_path, capsys, make_config, path, value):
    cfg = make_config(tmp_path, "out_refused")
    cfg["sweep"] = {"c1": [1.0], "c2": [0.01]}
    set_field(cfg, path, value)
    command = "sweep" if path[0] == "sweep" else "solve"
    assert main([command, str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path[-1] in err
    assert not list(Path(cfg["output_dir"]).glob("*.csv"))


def test_budget_and_jobs_flags_are_bounded(tmp_path, capsys, monkeypatch):
    sizes = []

    def pool(workers):  # records its worker count and maps serially: starts no process
        sizes.append(workers)
        return contextlib.nullcontext(SimpleNamespace(map=lambda fn, work: list(map(fn, work))))

    monkeypatch.setattr(cli, "get_context", lambda method: SimpleNamespace(Pool=pool))
    cfg = denoise_config(tmp_path, "out_flags", budget=3)
    cfg["sweep"] = {"c1": [0.5, 1.0, 2.0]}
    path = str(write_config(tmp_path, cfg))
    for argv in (["solve", path, "--budget"], ["sweep", path, "--budget"],
                 ["sweep", path, "--jobs"]):
        for value in ("0", "-3"):
            assert main(argv + [value]) == 2
            assert f"{argv[-1]}: must be at least 1" in capsys.readouterr().err
    for command in ("solve", "sweep"):  # a seed below 0 ran before
        assert main([command, path, "--seed", "-1"]) == 2
        assert "--seed: must be at least 0, got -1" in capsys.readouterr().err
    assert not Path(cfg["output_dir"]).exists()
    for jobs in ("1", "2", "64"):
        assert main(["sweep", path, "--jobs", jobs]) == 0
    assert sizes == [2, 3]  # 1 runs serially; 64 starts one worker per combination


def test_weights_and_verify_commands_refuse_a_seed_below_0(tmp_path, capsys):
    # norm ended in a numpy traceback, verify failed three suites, and
    # adjoint-test passed only because its suite adds 17 to the seed
    spec = er.random_admissible(3, er.DenseTemplate(input_dim=3, hidden_dims=(4,)))
    er.save_weights(spec, tmp_path / "w")
    for argv in (["verify"], ["norm", str(tmp_path / "w")],
                 ["adjoint-test", str(tmp_path / "w")]):
        for seed in ("-1", "-17"):
            assert main(argv + ["--seed", seed]) == 2
            assert f"--seed: must be at least 0, got {seed}" in capsys.readouterr().err


NOT_NUMBERS = [("solve", ("task", "gamma"), "abc"),
               ("solve", ("task", "gamma"), None),
               ("solve", ("budget",), "x"),
               ("solve", ("solvers", 0, "scales", "c1"), "x"),
               ("solve", ("solvers", 1, "step"), "x"),
               ("solve", ("weights", "random", "filters"), "x"),
               ("sweep", ("sweep", "c1"), ["x"])]


@pytest.mark.parametrize("command, path, value", NOT_NUMBERS,
                         ids=[f"{path[-1]}={value}" for _, path, value in NOT_NUMBERS])
def test_non_numeric_value_exits_2_naming_its_field(tmp_path, capsys, command, path,
                                                    value):
    cfg = denoise_config(tmp_path, "out_not_number")
    cfg["sweep"] = {"c1": [1.0]}
    set_field(cfg, path, value)
    assert main([command, str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path[-1] in err
    assert not list((tmp_path / "out_not_number").glob("*.csv"))


README = Path(__file__).resolve().parents[1] / "README.md"


def spec_rows(field, spec):
    """(field, type, default) of one schema field and of the fields it nests,
    written as the README's table writes them."""
    kind, default, *domain = spec
    nested = kind[0] if isinstance(kind, list) else kind
    if isinstance(kind, list):
        name = "list of " + ("mappings" if isinstance(nested, dict) else "numbers")
    else:
        name = cli.NAMES[dict if isinstance(kind, dict) else kind]
    name += "".join(f", {text}" for text, _ in domain)
    yield field, name, ("required" if default is cli.REQUIRED
                        else "-" if default is None else json.dumps(default))
    if isinstance(nested, dict):
        yield from table_rows(nested, field + ("[]." if isinstance(kind, list) else "."))


def table_rows(table, prefix=""):
    for key, spec in table.items():
        if isinstance(spec, dict):  # a kind, then the fields its values add, each once
            yield prefix + key, "string", "required"
            yield from dict.fromkeys(row for fields in spec.values()
                                     for row in table_rows(fields, prefix))
        else:
            yield from spec_rows(prefix + key, spec)


def test_readme_field_table_is_the_schema():
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")[:3]]
            for line in README.read_text().splitlines() if line.startswith("| `")]
    schema = [*table_rows(cli.CONFIG), *spec_rows("solvers[].scales.c<i>", cli.SCALE),
              *spec_rows("sweep.c<i>", cli.GRID)]
    assert len(rows) == len(set(map(tuple, rows)))
    assert sorted(map(tuple, rows)) == sorted(schema)


def test_readme_minimal_config_builds_an_instance():
    text = README.read_text()
    start = text.index("```json", text.index("A minimal config:")) + len("```json")
    config = json.loads(text[start:text.index("```", start)])
    instance = Instance(config)
    assert instance.scale_keys == ["c1", "c2"]
    for entry in instance.config["solvers"]:  # certified steps or a step rule each
        cli._method(instance, entry)
