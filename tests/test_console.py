"""The `epirecon` entry point run as a child process, the way a user runs it.

Each test runs `python -m epirecon.cli` in tmp_path with RuntimeWarnings as
errors and checks the exit status `__main__` passes to sys.exit and the text on
stderr, which in-process calls of cli.main cannot see. The child imports
epirecon through the caller's PYTHONPATH: the checkout under `PYTHONPATH=src`,
the installed package without it. Checks that repeat a test of test_cli.py keep
both forms: verify, norm and adjoint-test (test_verify_command_passes,
test_norm_and_adjoint_test_commands), solve and sweep
(test_solve_writes_artifacts, test_sweep_grid_rows_and_argmin) and the
refusals (test_misspelled_key_exits_2_naming_it,
test_weights_and_verify_commands_refuse_a_seed_below_0, the manifest mutation
test and test_refused_value_exits_2_naming_its_field).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import epirecon as er
from conftest import operator_network

NETWORK = {"filters": 2, "kernel": 3, "pool": 4, "hidden": 4}
DENOISE = {"seed": 0,
           "task": {"kind": "denoise_salt_pepper", "image_side": 16, "sp_density": 0.1,
                    "phantom": "smooth_blobs", "lam": 0.02, "gamma": 10.0},
           "weights": {"random": {"arch": "conv_pool_dense", **NETWORK}},
           "solvers": [{"kind": "pdhg", "scales": {"c1": 1.0, "c2": 1.0}},
                       {"kind": "sm_c", "step": 0.05}],
           "sweep": {"c1": [0.5, 1.0], "c2": [1.0]},
           "budget": 20, "reference_multiplier": 2, "output_dir": "out"}
CT = {key: value for key, value in DENOISE.items() if key != "sweep"} | {
    "task": {"kind": "ct", "image_side": 16, "phantom": "smooth_blobs",
             "poisson_scale": 1000.0, "background": 5.0, "gamma": 1.0},
    "solvers": [{"kind": "pdhg", "scales": {"c0": 1.0, "c1": 1.0, "c2": 1.0}},
                {"kind": "sm_c", "step": 0.05}]}


def python(tmp_path, *args):
    """Run python on args in tmp_path, with RuntimeWarnings as errors."""
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    if "PYTHONPATH" in env:  # made absolute: tier-1's src is relative to the checkout
        env["PYTHONPATH"] = os.pathsep.join(
            str(Path(entry).resolve()) for entry in env["PYTHONPATH"].split(os.pathsep))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def epirecon(tmp_path, cfg, argv):
    """Run the entry point on argv in tmp_path, with cfg as config.json."""
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return python(tmp_path, "-m", "epirecon.cli", *argv)


@pytest.fixture
def weights(tmp_path):
    """tmp_path holding the 16² network as `weights`, the skip-path network of
    conftest as `skip`, and as `bad` the first with a skip that is not a mapping."""
    template = er.ConvPoolDenseTemplate(side=16, **NETWORK)
    er.save_weights(er.random_admissible(0, template), tmp_path / "weights")
    er.save_weights(operator_network(side=16), tmp_path / "skip")
    shutil.copytree(tmp_path / "weights", tmp_path / "bad")
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    manifest["layers"][0]["skip"] = "x"
    (tmp_path / "bad" / "manifest.json").write_text(json.dumps(manifest))
    return tmp_path


def test_the_child_imports_the_tested_copy(tmp_path):
    done = python(tmp_path, "-c", "import epirecon; print(epirecon.__file__)")
    assert Path(done.stdout.strip()).resolve() == Path(er.__file__).resolve(), done.stderr


SOLVE, SUMMARY = ["solve", "config.json"], ["summary.json"]
PASSES = {  # config.json, the arguments and the artifacts they leave in out/
    "verify": (None, ["verify"], []),
    "norm": (None, ["norm", "weights"], []),
    "adjoint-test": (None, ["adjoint-test", "weights"], []),
    "solve": (DENOISE, SOLVE, SUMMARY),
    "sweep": (DENOISE, ["sweep", "config.json"], SUMMARY + ["sweep.csv"]),
    "stored": ({**DENOISE, "weights": {"path": "weights"}}, SOLVE, SUMMARY),
    "skip": ({**DENOISE, "weights": {"path": "skip"}}, SOLVE, SUMMARY),  # reads the kept K u
    "ct": (CT, SOLVE, SUMMARY),  # the KL dual block; its record reads the kept A x
}
REFUSALS = {  # config.json, the arguments and the text stderr must hold
    "misspelled": ({key.replace("multiplier", "multipler"): value
                    for key, value in DENOISE.items()}, SOLVE,
                   "unknown field 'reference_multipler'"),
    "seed": (None, ["verify", "--seed", "-1"], "--seed: must be at least 0"),
    "skip": (None, ["norm", "bad"], "layers[0] refused"),
    "nonneg": (CT | {"task": CT["task"] | {"nonneg": False}}, SOLVE, "unknown field 'nonneg'"),
}


@pytest.mark.parametrize("cfg, argv, artifacts", PASSES.values(), ids=list(PASSES))
def test_command_exits_0(weights, cfg, argv, artifacts):
    done = epirecon(weights, cfg, argv)
    assert done.returncode == 0, done.stderr
    assert all((weights / "out" / name).stat().st_size for name in artifacts)


@pytest.mark.parametrize("cfg, argv, message", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal_exits_2_naming_it(weights, cfg, argv, message):
    done = epirecon(weights, cfg, argv)
    assert done.returncode == 2 and message in done.stderr, done.stderr
