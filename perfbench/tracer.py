"""Span tracing around the public functions of each `epirecon` module.

The wrappers live here, in the benchmark, and are installed by rebinding
names: every module attribute that holds a traced function object is
replaced (so `linops.ensure_finite` and `tensor.ensure_finite` are both
covered), and traced methods are replaced on their class. uninstall()
puts every original back.

A span is (name, start, end, parent, job, phase). Aggregates (calls, total
and self time per phase and name) are kept for every span; raw spans are
kept up to a cap and written out at the end. Self time is the span minus
the time its direct child spans cover. Bookkeeping that inspects arguments
(epigraph branch shares, bytes, power-iteration counts) runs with the span
clock stopped, so it shows in the traced wall time but in no span.
"""

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

from epirecon import blocks, cli, icnn, linops, prox, radon, solver, tasks, tensor

# raw spans kept per run; later spans still count in the aggregates
SPAN_CAP = 100_000

# (owner, attribute, span name); a None name means "named by the operator kind"
FUNCTIONS = [
    (tensor, "ensure_finite", "tensor.ensure_finite"),
    (tensor, "check_shape", "tensor.check_shape"),
    (linops, "estimate_norm", "linops.estimate_norm"),
    (radon, "ramp_filter", "radon.ramp_filter"),
    (icnn, "forward", "icnn.forward"),
    (icnn, "value_and_subgradient", "icnn.value_and_subgradient"),
    (icnn, "random_admissible", "icnn.random_admissible"),
    (icnn, "require_admissible", "icnn.require_admissible"),
    (blocks, "assemble_blocks", "blocks.assemble_blocks"),
    (prox, "project_epigraph_leaky_relu", "prox.project_epigraph_leaky_relu"),
    (prox, "readout_conjugate_prox", "prox.readout_conjugate_prox"),
    (prox, "kl_conjugate_prox", "prox.kl_conjugate_prox"),
    (prox, "soft_shrink", "prox.soft_shrink"),
    (solver, "pdhg_solve", "solver.pdhg_solve"),
    (solver, "subgradient_solve", "solver.subgradient_solve"),
    (solver, "evaluate_objectives", "solver.evaluate_objectives"),
    (solver, "compute_step_sizes", "solver.compute_step_sizes"),
    (solver, "certify_norms", "solver.certify_norms"),
    (tasks, "make_phantom", "tasks.make_phantom"),
    (tasks, "corrupt", "tasks.corrupt"),
    (tasks, "fbp", "tasks.fbp"),
    (tasks, "psnr", "tasks.psnr"),
    (cli, "cmd_sweep", "cli.cmd_sweep"),
]
METHODS = [
    (linops.LinOp, "apply", None),
    (linops.LinOp, "adjoint", None),
    (radon.Radon, "__init__", "radon.Radon"),
    (blocks.BlockOperator, "apply", "blocks.apply"),
    (blocks.BlockOperator, "adjoint", "blocks.adjoint"),
    (solver.ProblemSpec, "__post_init__", "solver.ProblemSpec"),
    (cli.Instance, "__init__", "cli.Instance"),
]
LINOP_KINDS = ["dense", "conv2d", "avgpool2d", "diagonal_mask", "scaled_identity",
               "compose"]


def linop_span(kind, method):
    return f"radon.{method}" if kind == "radon" else f"linops.{kind}.{method}"


SPAN_NAMES = ([name for _, _, name in FUNCTIONS]
              + [linop_span(k, m) for k in LINOP_KINDS + ["radon"]
                 for m in ("apply", "adjoint")]
              + [name for _, _, name in METHODS if name is not None])

# kernels whose computed bytes (array arguments plus results) are reported
BYTES_SPANS = ["linops.conv2d.apply", "linops.conv2d.adjoint", "linops.dense.apply",
               "linops.dense.adjoint", "radon.apply", "radon.adjoint",
               "prox.project_epigraph_leaky_relu", "prox.readout_conjugate_prox",
               "prox.kl_conjugate_prox", "prox.soft_shrink"]
EPIGRAPH_BRANCHES = ("inside", "right", "left", "corner")


def _nbytes(values):
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, (tuple, list)):
            total += _nbytes(v)
    return total


def epigraph_branches(alpha, pbar, qbar):
    """Entries per projection branch, first match wins as in the projection."""
    pbar = np.asarray(pbar, dtype=np.float64)
    qbar = np.asarray(qbar, dtype=np.float64)
    inside = np.maximum(pbar, alpha * pbar) <= qbar
    rest = ~inside
    right = rest & (np.abs(qbar) <= pbar)
    rest &= ~right
    left = rest & (qbar <= alpha * pbar) & (pbar <= -alpha * qbar)
    n_in, n_right, n_left = int(inside.sum()), int(right.sum()), int(left.sum())
    return n_in, n_right, n_left, pbar.size - n_in - n_right - n_left


class Tracer:
    """Collects spans from the installed wrappers; one per traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, job, phase]
        self.dropped = 0
        self.stack = []          # open frames: [span index, start, child time]
        self.calls = defaultdict(int)      # (phase, name) -> calls
        self.total = defaultdict(float)    # (phase, name) -> seconds
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)  # name -> bookkeeping sums
        self.job = -1
        self.phase = ""
        self.paused = 0.0        # seconds of bookkeeping removed from the clock
        self.enabled = True      # False passes calls straight through
        self._originals = []

    def set_phase(self, job, phase):
        self.job, self.phase = job, phase

    def clock(self):
        return time.perf_counter() - self.paused

    # --- wrappers --------------------------------------------------------------

    def _enter(self, name):
        start = self.clock()
        idx = -1
        if len(self.spans) < SPAN_CAP:
            parent = self.stack[-1][0] if self.stack else -1
            idx = len(self.spans)
            self.spans.append([name, start, None, parent, self.job, self.phase])
        else:
            self.dropped += 1
        self.stack.append([idx, start, 0.0])

    def _exit(self, name):
        end = self.clock()
        idx, start, child = self.stack.pop()
        duration = end - start
        if idx >= 0:
            self.spans[idx][2] = end
        if self.stack:
            self.stack[-1][2] += duration
        key = (self.phase, name)
        self.calls[key] += 1
        self.total[key] += duration
        self.self_time[key] += duration - child

    def _bookkeep(self, name, args, result):
        started = time.perf_counter()
        if name in BYTES_SPANS:
            self.counters[name + ".bytes"] += _nbytes(args) + _nbytes((result,))
        if name == "prox.project_epigraph_leaky_relu":
            for branch, n in zip(EPIGRAPH_BRANCHES, epigraph_branches(*args[:3])):
                self.counters["epigraph." + branch] += n
        elif name == "linops.estimate_norm":
            self.counters["estimate_norm.iters"] += result.iterations
            self.counters["estimate_norm.converged"] += bool(result.converged)
        self.paused += time.perf_counter() - started

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = name if name is not None else linop_span(args[0].kind, fn.__name__)
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            tracer._bookkeep(span, args[1:] if name is None else args, result)
            return result

        return traced

    # --- install / uninstall -----------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "epirecon" or n.startswith("epirecon.")]
        for owner, attr, name in FUNCTIONS:
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapped)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._originals.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))

    def uninstall(self):
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    # --- results -----------------------------------------------------------------

    def summed(self, table, name, phases=None):
        return sum(v for (ph, n), v in table.items()
                   if n == name and (phases is None or ph in phases))

    def write(self, path):
        """Raw spans as JSON lines; times in seconds on the span clock."""
        with open(path, "w") as fh:
            for name, start, end, parent, job, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "phase": phase}) + "\n")


def layer_metrics(tracer: Tracer, jobs: int, pdhg_iterations: int,
                  overhead_frac: float) -> dict:
    """Per-layer metrics per job from a finished traced run."""
    out = {}
    per_job = 1.0 / max(jobs, 1)
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (tracer.summed(tracer.calls, name) * per_job, "count")
        out[f"{name}.self_ms"] = (1e3 * tracer.summed(tracer.self_time, name) * per_job,
                                  "ms")
    for name in BYTES_SPANS:
        out[f"{name}.bytes"] = (tracer.counters[name + ".bytes"] * per_job,
                                "bytes_computed")
    projected = sum(tracer.counters["epigraph." + b] for b in EPIGRAPH_BRANCHES)
    for b in EPIGRAPH_BRANCHES:
        share = tracer.counters["epigraph." + b] / projected if projected else 0.0
        out[f"prox.epigraph.{b}_frac"] = (share, "fraction")
    norms = tracer.summed(tracer.calls, "linops.estimate_norm")
    out["linops.estimate_norm.iters"] = (tracer.counters["estimate_norm.iters"] * per_job,
                                         "count")
    out["linops.estimate_norm.converged_frac"] = (
        tracer.counters["estimate_norm.converged"] / norms if norms else 0.0, "fraction")
    for name in ("tensor.ensure_finite", "tensor.check_shape"):
        calls = tracer.summed(tracer.calls, name, phases={"pdhg"})
        out[f"{name}.calls_per_pdhg_iter"] = (
            calls / pdhg_iterations if pdhg_iterations else 0.0, "count")
    out["linops.estimate_norm.sweep_calls"] = (
        tracer.summed(tracer.calls, "linops.estimate_norm", phases={"sweep"}) * per_job,
        "count")
    out["prox.project_epigraph_leaky_relu.subgrad_calls"] = (
        tracer.summed(tracer.calls, "prox.project_epigraph_leaky_relu",
                      phases={"sm_c", "sm_d"}) * per_job, "count")
    for solve, key in (("solver.pdhg_solve", "trace.pdhg_cover_frac"),
                       ("solver.subgradient_solve", "trace.subgrad_cover_frac")):
        total = tracer.summed(tracer.total, solve)
        own = tracer.summed(tracer.self_time, solve)
        out[key] = ((total - own) / total if total else 0.0, "fraction")
    out["trace.overhead_frac"] = (overhead_frac, "fraction")
    out["trace.jobs"] = (float(jobs), "count")
    return out
