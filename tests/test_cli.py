import json
from pathlib import Path

import numpy as np
import pytest

import epirecon as er
from epirecon import solver as solver_mod
from epirecon.cli import (ConfigError, Instance, cmd_solve, cmd_sweep, load_config,
                          main)
from epirecon.verify import adjoint_suite


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


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def estimated_entries(cfg):
    """Block entries whose norm comes from power iteration, not a known bound."""
    return sum(op.norm_bound is None
               for block in Instance(cfg).assembly.blocks
               for row in block.operator.rows for _, op in row.entries)


def count_norm_estimates(monkeypatch):
    calls = []
    real = solver_mod.estimate_norm

    def counting(op, **kwargs):
        calls.append(op)
        return real(op, **kwargs)

    monkeypatch.setattr(solver_mod, "estimate_norm", counting)
    return calls


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
    assert "certificates" in steps
    assert not all(norm["exact"] for norm in steps["norms"].values())
    for norm in steps["norms"].values():
        assert norm["converged"] is True
        if norm["exact"]:
            assert norm["iterations"] == 0
        else:
            assert norm["iterations"] > 0
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
    expected = estimated_entries(cfg)
    assert expected > 0
    calls = count_norm_estimates(monkeypatch)
    assert cmd_sweep(write_config(tmp_path, cfg)) == 0
    assert len(calls) == expected


def test_solve_certifies_norms_once(tmp_path, monkeypatch):
    cfg = denoise_config(tmp_path, "out_solve_once", budget=5)
    cfg["solvers"] = [{"kind": "pdhg", "scales": {"c1": 1.0, "c2": 1.0}},
                      {"kind": "pdhg", "scales": {"c1": 0.5, "c2": 2.0}}]
    expected = estimated_entries(cfg)
    calls = count_norm_estimates(monkeypatch)
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


def test_adjoint_suite_catches_injected_sign_flip():
    class BrokenAdjoint(er.Dense):
        def _adjoint(self, w):
            return -super()._adjoint(w)

    bad = BrokenAdjoint(np.array([[1.0, 2.0], [3.0, 4.0]]))
    result = adjoint_suite([("sabotaged_dense", bad)], pairs=10, seed=0)
    assert not result.passed
    assert "sabotaged_dense" in result.detail


def test_norm_and_adjoint_test_commands(tmp_path, capsys):
    spec = er.random_admissible(3, er.DenseTemplate(input_dim=3, hidden_dims=(4,)))
    er.save_weights(spec, tmp_path / "w")
    assert main(["norm", str(tmp_path / "w")]) == 0
    out = capsys.readouterr().out
    assert "layer1_skip" in out and "block_readout" in out
    assert main(["adjoint-test", str(tmp_path / "w")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_missing_weights_dir_is_config_error(tmp_path):
    rc = main(["norm", str(tmp_path / "nope")])
    assert rc == 2


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
