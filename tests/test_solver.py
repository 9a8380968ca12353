import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import epirecon as er
from epirecon import prox
from epirecon import solver as solver_mod
from epirecon import tensor as tensor_mod
from epirecon.blocks import BlockOperator, assemble_blocks
from epirecon.solver import (CertificationError, DivergenceError, KLFidelity, RunMetrics,
                             SaddleState, SolvePlan, assemble_problem, compute_step_sizes,
                             initial_state)
from epirecon.tensor import NonFiniteError, ShapeMismatchError
from epirecon.verify import icnn_batch_values, preconditioned_norm, refine_grid_minimize
from conftest import CT12_SCALES, make_ct12_problem, make_relu_1d, make_two_layer_1d


def scalar_chain_spec(v0=2.0, w1=1.0):
    # hidden layer V0 with identity row, readout through W1 (no x path)
    l1 = er.IcnnLayer(er.Dense([[v0]]), None, [0.0], er.Activation("leaky_relu", 0.2))
    l2 = er.IcnnLayer(None, er.Dense([[w1]]), [0.0], er.Activation("relu"))
    return er.IcnnSpec((1,), (l1, l2))


def test_step_sizes_match_hand_substitution():
    # |V0| = 2, |W1 P| = 1, unit scales: sigma = (1/4, 1), tau = (1, 0.8);
    # the norms are the bounds of the Dense([[v]]) entries and the identity row
    assembly = assemble_blocks(scalar_chain_spec(2.0, 1.0))
    steps = compute_step_sizes(assembly, scales=(1.0, 1.0))
    assert np.allclose(list(steps.norms.values()), [2.0, 1.0, 1.0], rtol=1e-11)
    assert np.isclose(steps.sigma[0], 0.25)
    assert np.isclose(steps.sigma[1], 1.0)
    assert np.isclose(steps.tau[0], 1.0)
    assert np.isclose(steps.tau[1], 0.8)


def test_step_sizes_dualized_fidelity_form():
    # |A| = |V0| = 1, unit scales: tau_x = 1 / (sigma0 + sigma1) = 0.5
    assembly = assemble_blocks(scalar_chain_spec(1.0, 1.0),
                               forward=er.Dense([[1.0]]))
    steps = compute_step_sizes(assembly, scales=(1.0, 1.0, 1.0))
    assert np.allclose(list(steps.norms.values()), 1.0, rtol=1e-11)
    assert np.isclose(steps.tau[0], 0.5)
    assert np.isclose(steps.tau[1], 0.5)


def test_step_sizes_certified_on_materialized_instance():
    spec = er.random_admissible(3, er.DenseTemplate(
        input_dim=4, hidden_dims=(3,), readout_dim=2, skip_all=True))
    assembly = assemble_blocks(spec, forward=er.DiagonalMask(np.ones(4)))
    steps = compute_step_sizes(assembly, scales=(2.0, 0.7, 1.3))
    assert preconditioned_norm(steps) <= 1.0 + 1e-6
    for value, _ in steps.certificates.values():
        assert value <= 1.0 + 1e-12


class Unbounded(er.LinOp):
    """A 1x1 identity whose kind gives no norm bound."""

    kind = "unbounded"
    input_shape = output_shape = (1,)

    def _apply(self, x):
        return x.copy()

    _adjoint = _apply


class NanBound(Unbounded):
    kind = "nan_bound"

    def _norm_bound(self):
        return float("nan")


def test_step_sizes_fail_closed_on_bad_norms():
    for forward in (Unbounded(), NanBound()):
        assembly = assemble_blocks(scalar_chain_spec(), forward=forward)
        with pytest.raises(CertificationError,
                           match=rf"entry \(0, 0, 0\) \({forward.kind}\)"):
            compute_step_sizes(assembly)


@pytest.mark.parametrize("weight, scales, where, block", [
    (1e-170, None, "dual block 0", 0),   # norm^2 underflows to 0.0
    (1e160, None, "dual block 0", 0),    # norm^2 overflows
    (1.0, (1e-320,), "primal slot 0", None),  # sigma subnormal, tau = 1/sigma overflows
], ids=["tiny_norm", "huge_norm", "subnormal_scale"])
def test_step_sizes_outside_the_float_range_fail_certification(weight, scales, where,
                                                               block):
    with pytest.raises(CertificationError, match=rf"{where}\b.* not a float in \(0, inf\)") \
            as info:
        compute_step_sizes(assemble_blocks(make_relu_1d(weight)), scales=scales)
    assert info.value.block == block


@pytest.mark.parametrize("solve", [
    lambda spec: compute_step_sizes(assemble_blocks(spec)),
    lambda spec: er.pdhg_solve(er.ProblemSpec(er.l2_fidelity(), None, np.zeros(1), 1.0, spec),
                               budget=1)], ids=["compute_step_sizes", "pdhg_solve"])
def test_step_sizes_refuse_a_slot_whose_norm_bounds_are_0(solve):
    # the zero skip touches the image, but with bound 0: tau would be 1 / 0
    with pytest.raises(CertificationError, match=r"^primal slot 0: tau = 1 / 0\.0 \(its row-width "
                       r"\* sigma \* norm\^2 sum\) is not a float in \(0, inf\)$"):
        solve(scalar_chain_spec(v0=0.0))


def reference_steps(assembly, scales):
    """compute_step_sizes' docstring rule in Python floats, from the certified
    norms: (sigma, tau, certificates), or ("block" or "slot", index) of the
    first step outside (0, inf)."""
    norms = solver_mod.certify_norms(assembly)
    entries = [(bi, ri, len(row), slot, norms[(bi, ri, ei)])  # block, row, width, slot, norm
               for bi, block in enumerate(assembly.blocks)
               for ri, row in enumerate(block.operator.rows)
               for ei, (slot, _) in enumerate(row)]
    sigma = []
    for bi, scale in enumerate(scales):
        peak = max(bound for b, ri, _, _, bound in entries if (b, ri) == (bi, 0))
        try:
            step = scale / peak ** 2 if peak > 0.0 else scale
        except (OverflowError, ZeroDivisionError):
            return "block", bi
        if not 0.0 < step < math.inf:
            return "block", bi
        sigma.append(step)
    tau, certificates = [], {}
    for slot in range(len(assembly.primal_shapes)):
        terms = tuple((width * sigma[bi], bound)
                      for bi, _, width, s, bound in entries if s == slot)
        denom = sum(w * b * b for w, b in terms)
        if not (denom > 0.0 and 0.0 < 1.0 / denom < math.inf):
            return "slot", slot
        tau.append(1.0 / denom)
        certificates[slot] = (tau[slot] * denom, terms)
    return sigma, tau, certificates


def scaled_dense_network(rng, factor):
    """A random admissible dense network with its skip and carry matrices times factor."""
    spec = er.random_admissible(int(rng.integers(1 << 30)), er.DenseTemplate(
        input_dim=int(rng.integers(1, 5)), readout_dim=int(rng.integers(1, 4)),
        hidden_dims=tuple(rng.integers(1, 5, rng.integers(1, 4))), skip_all=bool(rng.integers(2))))
    scaled = lambda op: None if op is None else er.Dense(op.matrix * factor)
    return replace(spec, layers=[replace(layer, skip=scaled(layer.skip), carry=scaled(layer.carry))
                                 for layer in spec.layers])


@pytest.mark.parametrize("peak, scale_exponents", [(1.0, (-20.0, 3.0)), (1e154, (-3.0, 3.0)),
                                                    (1e-162, (-322.0, -300.0))])
def test_step_sizes_equal_their_rule_in_python_floats_bitwise(peak, scale_exponents):
    # sigma and the slot terms are collected in one walk of the blocks; near
    # 1e154 a squared peak overflows and near 1e-162 it underflows, and tiny
    # sigmas push tau out of range, so refusals of both kinds are compared too
    rng = np.random.default_rng(int(-math.log10(peak)) + 200)
    outcomes = []
    for _ in range(10):
        assembly = assemble_blocks(scaled_dense_network(rng, peak * 10.0 ** rng.uniform(-1.0, 1.0)))
        scales = [float(s) for s in 10.0 ** rng.uniform(*scale_exponents, len(assembly.blocks))]
        expected = reference_steps(assembly, scales)
        outcomes.append(expected[0] if isinstance(expected[0], str) else "steps")
        if outcomes[-1] == "steps":
            steps = compute_step_sizes(assembly, scales=scales)
            # repr round-trips a float, so equal reprs are equal bits
            assert repr((steps.sigma, steps.tau, steps.certificates)) == \
                repr((tuple(expected[0]), tuple(expected[1]), expected[2]))
            continue
        with pytest.raises(CertificationError) as info:
            compute_step_sizes(assembly, scales=scales)
        where, index = expected
        assert str(info.value).startswith(f"dual block {index} " if where == "block"
                                          else f"primal slot {index}: tau = 1 / ")
        assert info.value.block == (index if where == "block" else None)
    assert "steps" in outcomes, outcomes


def test_step_sizes_reject_wrong_scale_count():
    assembly = assemble_blocks(scalar_chain_spec())
    with pytest.raises(ValueError, match="dual scales"):
        compute_step_sizes(assembly, scales=(1.0,))


def test_pdhg_zero_regularizer_reaches_measurement():
    spec = make_relu_1d()
    y = np.array([0.7])
    problem = er.ProblemSpec(er.l2_fidelity(), None, y, 0.0, spec)
    state, _ = er.pdhg_solve(problem, budget=100, init_x=np.array([-3.0]),
                             metrics_every=0)
    assert abs(state.x[0] - y[0]) <= 1e-8


def test_pdhg_1d_toy_minimizer():
    # min 0.5 (x - 2)^2 + max(x, 0) has the unique minimizer x = 1
    spec = make_relu_1d()
    problem = er.ProblemSpec(er.l2_fidelity(), None, np.array([2.0]), 1.0, spec)
    state, metrics = er.pdhg_solve(problem, budget=2000, init_x=np.array([0.0]),
                                   metrics_every=0)
    assert abs(state.x[0] - 1.0) <= 1e-5
    assert metrics.objective[-1] <= 1.5 + 1e-6


def test_pdhg_stationary_at_converged_state():
    spec = scalar_chain_spec(1.5, 0.8)
    problem = er.ProblemSpec(er.l2_fidelity(), None, np.array([1.2]), 2.0, spec)
    state, _ = er.pdhg_solve(problem, budget=5000, init_x=np.array([0.3]),
                             metrics_every=0)
    frozen = np.array(state.x)
    state2, _ = er.pdhg_solve(problem, budget=10, init=state, metrics_every=0)
    assert np.max(np.abs(state2.x - frozen)) <= 1e-8


def test_pdhg_feasibility_decays():
    # quick qualitative check; the strict 1e-6 long-run bound lives in the
    # acceptance suite at ten times the task budget
    spec = er.random_admissible(8, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    x_true = er.make_phantom("smooth_blobs", 8, 2)
    cfg = er.TaskConfig(kind="denoise_salt_pepper", image_side=8, sp_density=0.1, seed=4)
    y, _ = er.corrupt(cfg, x_true)
    problem = er.ProblemSpec(er.l1_fidelity(0.02), None, y, 20.0, spec)
    steps = compute_step_sizes(assemble_problem(problem), scales=(5.0, 5.0))
    _, metrics = er.pdhg_solve(problem, steps, budget=3000, metrics_every=100)
    early = max(metrics.feasibility[1:6])
    assert metrics.feasibility[-1] <= 1e-4
    assert metrics.feasibility[-1] < early


def test_pdhg_divergence_guard_reports_location():
    spec = make_relu_1d()
    problem = er.ProblemSpec(er.l2_fidelity(), None, np.array([2.0]), 1.0, spec)
    from epirecon.blocks import assemble_blocks as ab
    assembly = ab(spec)
    state = initial_state(problem, assembly, init_x=np.array([1.0]))
    state.x[0] = np.nan
    with pytest.raises(DivergenceError, match=r"primal image at iteration 0"):
        er.pdhg_solve(problem, budget=5, init=state, metrics_every=0)
    state = initial_state(problem, assembly, init_x=np.array([1.0]))
    state.duals[0][0][0] = np.inf
    with pytest.raises(DivergenceError, match=r"dual block 0"):
        er.pdhg_solve(problem, budget=5, init=state, metrics_every=0)


def test_pdhg_guard_catches_relaxed_point_overflow():
    # x+ = 1 - tau * 1e308 stays finite but K x_bar = K x+ + (K x+ - K x)
    # overflows; the readout clip maps it back into [0, cap], so only the
    # readout block's K x_bar shows it
    spec = make_relu_1d()
    problem = er.ProblemSpec(er.l1_fidelity(0.1), None, np.array([2.0]), 1.0, spec)
    state = initial_state(problem, assemble_blocks(spec), init_x=np.array([1.0]))
    state.duals[0][0][0] = 1e308
    with warnings.catch_warnings(), pytest.raises(
            DivergenceError, match=r"relaxed K u of dual block 0 at iteration 1") as info:
        warnings.simplefilter("error", RuntimeWarning)  # the overflow is the guard's to report
        er.pdhg_solve(problem, budget=5, init=state, metrics_every=0)
    assert info.value.block == 0


def test_subgradient_objective_overflow_records_inf():
    # a step of 1e308 keeps the iterates finite (about 8e306) but overflows
    # the L1 data term's sum: the run records inf instead of raising
    spec = er.random_admissible(44, er.ConvPoolDenseTemplate(side=8, filters=2, kernel=3,
                                                             pool=4, hidden=4))
    truth = er.make_phantom("smooth_blobs", 8, 18)
    task = er.TaskConfig(kind="denoise_salt_pepper", image_side=8, seed=30)
    problem, init = er.build_problem(task, truth, spec, 10.0, lam=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, metrics = er.subgradient_solve(problem, er.ConstantStep(1e308), budget=3,
                                          init_x=init)
    assert np.all(np.isfinite(x))
    assert np.isfinite(metrics.objective[0]) and metrics.objective[-1] == np.inf


def test_subgradient_iterate_overflow_raises_divergence():
    # x = 1e10 - 1e308 * (1e10 - 2) overflows to -inf after the first step
    problem = er.ProblemSpec(er.l2_fidelity(), None, np.array([2.0]), 0.0, make_relu_1d())
    with pytest.raises(DivergenceError, match="^non-finite iterate in subgradient iterate "
                                              "at iteration 1$"):
        er.subgradient_solve(problem, er.ConstantStep(1e308), budget=3,
                             init_x=np.array([1e10]))


def depth3_dualized_problem(measurement=(0.0, 0.0)):
    spec = er.random_admissible(3, er.DenseTemplate(input_dim=3, hidden_dims=(4, 5),
                                                    readout_dim=2))
    forward = er.Dense(np.random.default_rng(4).uniform(-1.0, 1.0, (2, 3)))
    return er.ProblemSpec(er.l2_fidelity(), forward, np.array(measurement),
                          0.3, spec)


# the arrays of each iterate in the init state, under the name the guard
# gives it: the image, both auxiliaries, the fidelity block and the layer blocks
POISONED = {"primal image": lambda state: [state.x],
            "auxiliary block 1": lambda state: [state.z[0]],
            "auxiliary block 2": lambda state: [state.z[1]],
            **{f"dual block {b}": (lambda state, b=b: state.duals[b]) for b in range(4)}}


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("name", POISONED)
def test_pdhg_guard_names_a_poisoned_iterate_from_its_offset(name, position):
    problem = depth3_dualized_problem()
    assembly = assemble_problem(problem)
    assert len(assembly.blocks) == 4 and len(assembly.primal_shapes) == 3
    state = initial_state(problem, assembly)
    POISONED[name](state)[position].flat[position] = np.nan  # first or last entry
    with pytest.raises(DivergenceError) as info:
        er.pdhg_solve(problem, budget=3, init=state, metrics_every=0)
    block = int(name.split()[-1]) if name.startswith("dual") else None
    assert (info.value.where, info.value.iteration, info.value.block) == (name, 0, block)


@pytest.mark.parametrize("keep", [0, 1])
def test_pdhg_guard_reads_the_fresh_k_u_half_and_names_its_block(keep):
    # the buffer is [K u half 0, u, duals, K u half 1]: the guard reads the half
    # that is not kept, and a non-finite entry there names its dual block
    problem = depth3_dualized_problem()
    steps = compute_step_sizes(assemble_problem(problem))
    plan = SolvePlan(problem, steps, initial_state(problem, steps.assembly))
    sizes = [sum(math.prod(s) for s in block.operator.output_shapes)
             for block in steps.assembly.blocks]
    n = sum(math.prod(s) for s in steps.assembly.primal_shapes)
    halves = (0, n + 2 * sum(sizes))
    plan.keep = keep
    for block, start in enumerate(np.cumsum([0] + sizes[:-1])):
        plan.buf[halves[keep] + start] = np.nan  # the kept half is not read
        plan.guard()
        plan.buf[halves[1 - keep] + start] = np.inf
        with pytest.raises(DivergenceError) as info:
            plan.guard()
        assert (info.value.where, info.value.block) == (f"relaxed K u of dual block {block}",
                                                        block)
        plan.buf[halves[1 - keep] + start] = 0.0


def dense_problem():
    spec = er.random_admissible(5, er.DenseTemplate(input_dim=3, hidden_dims=(4,),
                                                    readout_dim=2))
    y = np.random.default_rng(9).uniform(-0.5, 0.5, 3)
    return er.ProblemSpec(er.l2_fidelity(), None, y, 0.3, spec), None


@pytest.mark.parametrize("make", [dense_problem, lambda: (make_ct12_problem(), CT12_SCALES)],
                         ids=["dense", "ct12"])
def test_pdhg_warm_restart_continues_the_run_bitwise(make):
    problem, scales = make()
    steps = compute_step_sizes(assemble_problem(problem), scales=scales)

    def saddle_bytes(state):
        arrays = [state.x, *state.z, *(d for rows in state.duals for d in rows)]
        return [a.tobytes() for a in arrays]

    whole, _ = er.pdhg_solve(problem, steps, budget=70, metrics_every=0)
    first, _ = er.pdhg_solve(problem, steps, budget=30, metrics_every=0)
    kept = saddle_bytes(first)
    rest, _ = er.pdhg_solve(problem, steps, budget=40, init=first, metrics_every=0)
    assert rest.iteration == whole.iteration == 70
    assert saddle_bytes(rest) == saddle_bytes(whole)
    assert saddle_bytes(first) == kept  # the init state is only read
    for state in (whole, rest):
        for other in [*state.z, *(d for rows in state.duals for d in rows)]:
            assert not np.shares_memory(state.x, other)


def conv_denoise_problem():
    # a conv network under a primal l1 data term: its kept rows are V1 x and
    # the carry W2 z1 through pool and dense
    spec = er.random_admissible(7, er.ConvPoolDenseTemplate(
        side=12, filters=2, kernel=3, pool=4, hidden=4))
    truth = er.make_phantom("smooth_blobs", 12, 6)
    cfg = er.TaskConfig(kind="denoise_salt_pepper", image_side=12, seed=5)
    return er.build_problem(cfg, truth, spec, 10.0, lam=0.02)[0], None


def skip_residual_problem():
    # every layer reads x, so rows past layer 1 hold two entries, and layer 2 is
    # residual; the data term is dualized
    spec = er.random_admissible(6, er.DenseTemplate(
        input_dim=3, hidden_dims=(4, 4, 3), readout_dim=2, skip_all=True,
        residual_layers=(2,)))
    forward = er.Dense(np.random.default_rng(8).uniform(-1.0, 1.0, (4, 3)))
    return er.ProblemSpec(er.l2_fidelity(), forward, np.array([0.3, -0.2, 0.5, 0.1]),
                          0.5, spec), None


@pytest.mark.parametrize("make", [lambda: (depth3_dualized_problem((0.4, -0.7)), None),
                                  lambda: (make_ct12_problem(), CT12_SCALES),
                                  conv_denoise_problem, skip_residual_problem],
                         ids=["dense", "ct12", "conv_denoise", "skip_residual"])
def test_pdhg_records_equal_a_fresh_evaluation_bitwise(make, monkeypatch):
    # the record reads A x and each layer's skip(x) + carry(z) from the kept
    # half of K u; every recorded column must be what a fresh evaluation,
    # applying each operator at that (x, z), gives
    problem, scales = make()
    truth = np.full(problem.regularizer.input_shape, 0.5)
    evaluate, seen = solver_mod.evaluate_objectives, []

    def keeping(problem, x, z=None, rows=None):
        assert rows is not None  # the kept rows stand in for the applies
        seen.append((x.copy(), [a.copy() for a in z]))
        return evaluate(problem, x, z, rows=rows)

    monkeypatch.setattr(solver_mod, "evaluate_objectives", keeping)
    steps = compute_step_sizes(assemble_problem(problem), scales=scales)
    _, metrics = er.pdhg_solve(problem, steps, budget=20, ground_truth=truth)
    assert [row[0] for row in metrics.rows] == list(range(21))
    for (_, *recorded, _), (x, z) in zip(metrics.rows, seen):
        report = evaluate(problem, x, z)
        fresh = [report.primal, report.reformulated, report.data_term, report.reg_term,
                 report.feasibility, er.psnr(x, truth)]
        assert np.array(recorded).tobytes() == np.array(fresh).tobytes()


def inpaint_problem():
    # a masked l2 data term stays primal: its prox divides by 1 + tau w d^2 on the
    # mask's diagonal d; the image is kept nonnegative
    spec = er.random_admissible(7, er.ConvPoolDenseTemplate(
        side=12, filters=2, kernel=3, pool=4, hidden=4))
    truth = er.make_phantom("smooth_blobs", 12, 6)
    cfg = er.TaskConfig(kind="inpaint", image_side=12, seed=5)
    return er.build_problem(cfg, truth, spec, 10.0, nonneg=True)[0], None


def textbook_pdhg(problem, steps, budget):
    """(u, duals) after `budget` PDHG iterations written block by block: each
    block's operator applied into fresh arrays, the epigraph and readout duals
    through the checked public proxes, and K u_bar formed as
    K u+ + (K u+ - K u), the rounding the plan keeps (K (2 u+ - u) is not it)."""
    assembly, fidelity = steps.assembly, problem.fidelity
    state = initial_state(problem, assembly)
    u, duals = [state.x, *state.z], state.duals
    ku = [block.operator.apply(u) for block in assembly.blocks]
    cap = problem.reg_weight * problem.regularizer.readout_weights()
    for _ in range(budget):
        grad = [np.zeros(shape) for shape in assembly.primal_shapes]
        for block, rows in zip(assembly.blocks, duals):  # summed into grad in block order
            block.operator.adjoint(rows, out=grad)
        u = [v - tau * g for v, tau, g in zip(u, steps.tau, grad)]
        if not fidelity.dualize:
            u[0] = fidelity.primal_kernel(steps.tau[0], problem.measurement,
                                          problem.forward)(u[0], np.empty(u[0].shape))
        if problem.nonneg:
            u[0] = np.maximum(u[0], 0.0)
        ku_plus = [block.operator.apply(u) for block in assembly.blocks]
        for b, (block, sigma) in enumerate(zip(assembly.blocks, steps.sigma)):
            v = [c + sigma * (kp + (kp - k)) for c, kp, k in zip(duals[b], ku_plus[b], ku[b])]
            if block.kind == "epigraph":  # Moreau: v - P(v) at v = (pbar + sigma bias, qbar)
                p, q = v[0] + sigma * block.bias, v[1]
                foot = prox.project_epigraph_leaky_relu(block.negative_slope, p, q)
                duals[b] = [p - foot[0], q - foot[1]]
            elif block.kind == "readout":
                duals[b] = [prox.readout_conjugate_prox(v[0], sigma, cap, block.bias,
                                                        block.negative_slope)]
            else:
                duals[b] = [fidelity.dual_kernel(sigma, problem.measurement)(
                    v[0], np.empty(v[0].shape))]
        ku = ku_plus
    return u, duals


@pytest.mark.parametrize("make", [lambda: (depth3_dualized_problem((0.4, -0.7)), None),
                                  lambda: (make_ct12_problem(), CT12_SCALES),
                                  conv_denoise_problem, skip_residual_problem,
                                  inpaint_problem],
                         ids=["dense", "ct12", "conv_denoise", "skip_residual", "inpaint"])
def test_pdhg_equals_a_textbook_block_loop_bitwise(make):
    # the plan's stacked operator and whole-half passes only reorder work that
    # touches disjoint entries, so its iterates are the block loop's, byte for byte
    problem, scales = make()
    steps = compute_step_sizes(assemble_problem(problem), scales=scales)
    state, _ = er.pdhg_solve(problem, steps, budget=40, metrics_every=0)
    u, duals = textbook_pdhg(problem, steps, 40)
    assert [a.tobytes() for a in (state.x, *state.z)] == [a.tobytes() for a in u]
    assert [[a.tobytes() for a in rows] for rows in state.duals] == \
        [[a.tobytes() for a in rows] for rows in duals]


def test_pdhg_step_applies_and_adjoins_the_stacked_operator_once(monkeypatch):
    # one apply and one adjoint of K per iteration, whatever the block count
    problem = depth3_dualized_problem((0.4, -0.7))
    steps = compute_step_sizes(assemble_problem(problem))
    assert len(steps.assembly.blocks) == 4
    plan = SolvePlan(problem, steps, initial_state(problem, steps.assembly))
    calls = []
    for name in ("apply", "adjoint"):
        def counting(self, *args, _real=getattr(BlockOperator, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(BlockOperator, name, counting)
    for _ in range(3):
        calls.clear()
        plan.step()
        assert sorted(calls) == ["adjoint", "apply"]


SOLVES = {"pdhg": er.pdhg_solve,
          "subgradient": lambda problem, **kw: er.subgradient_solve(
              problem, er.ConstantStep(0.1), **kw)}


@pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES)
def test_solvers_refuse_a_non_finite_start_naming_init_x(solve):
    # a NaN start ran and ended in a DivergenceError blaming the primal image at
    # iteration 0 (PDHG) or the subgradient iterate at iteration 1
    problem = er.ProblemSpec(er.l2_fidelity(), None, np.array([0.7]), 1.0, make_relu_1d())
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteError, match=r"^init_x: non-finite entry at flat index 0$"):
            solve(problem, budget=1, init_x=np.array([bad]))


def test_pdhg_refuses_init_together_with_init_x():
    # a given init state used to win, and init_x was dropped without a word
    problem = er.ProblemSpec(er.l2_fidelity(), None, np.array([0.7]), 1.0, make_relu_1d())
    state, _ = er.pdhg_solve(problem, budget=1)
    with pytest.raises(ValueError, match=r"^pdhg_solve starts at init or at init_x, not both$"):
        er.pdhg_solve(problem, budget=1, init=state, init_x=np.array([0.5]))


@pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES)
def test_solvers_refuse_counts_that_int_would_take(solve):
    # a bool or a fraction ran (budget=True as 1 iteration, metrics_every=2.5
    # recorded 0, 5 and 10), budget=2.5 was a TypeError of range(), and a
    # negative metrics_every acted as its absolute value
    problem, _ = dense_problem()
    for name, value in [("budget", True), ("budget", 2.5), ("budget", 0), ("budget", -3),
                        ("metrics_every", True), ("metrics_every", 2.5),
                        ("metrics_every", -3)]:
        kwargs = dict(budget=10, metrics_every=5) | {name: value}
        with pytest.raises(ValueError, match=f"^{name}: "):
            solve(problem, **kwargs)
    assert solve(problem, budget=10.0, metrics_every=5)[1].iterations == (0, 5, 10)
    assert solve(problem, budget=10, metrics_every=0)[1].iterations == (0, 10)


@pytest.mark.parametrize("rule", [er.ConstantStep, er.DiminishingStep])
def test_step_rules_refuse_a_bool_step(rule):
    with pytest.raises(ValueError, match="step must be finite and positive, got True"):
        rule(True)
    assert rule(1.0).at(1) == 1.0


def test_pdhg_validates_proxes_per_solve_not_per_iteration(monkeypatch):
    # every binding of the array reader and of the prox kernel builders counts;
    # a plan builds its kernels once, whatever the budget
    problem = make_ct12_problem()
    steps = compute_step_sizes(assemble_problem(problem), scales=CT12_SCALES)
    calls = []
    bindings = [(module, name) for key, module in list(sys.modules.items())
                if key.partition(".")[0] == "epirecon"
                for name, value in vars(module).items() if value is tensor_mod.as_array]
    bindings += [(prox, name) for name in vars(prox) if name.endswith("_kernel")]
    for module, name in bindings:
        real = getattr(module, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    counts = []
    for budget in (10, 200):
        calls.clear()
        er.pdhg_solve(problem, steps, budget=budget, metrics_every=0)
        counts.append(len(calls))
    assert counts[0] > 0 and counts[0] == counts[1]


def test_pdhg_init_state_of_another_layout_is_refused_naming_the_first_at_fault():
    problem, _ = dense_problem()  # image (3,), auxiliary (4,), dual rows [(4,), (4,)], [(2,)]
    good, _ = er.pdhg_solve(problem, budget=1, metrics_every=0)
    x, z, (epi, readout) = good.x, good.z, good.duals
    cases = [
        (SaddleState(np.zeros(1), z, good.duals), ShapeMismatchError,
         r"^init state primal image: shape mismatch: expected \(3,\), got \(1,\)$"),
        (SaddleState(x, [], []), ValueError, "^init state: auxiliary block 1 is missing$"),
        (SaddleState(x, z + [z[0]], good.duals), ValueError,
         "^init state: auxiliary block 2 is extra$"),
        (SaddleState(x, [z[0][:2]], good.duals), ShapeMismatchError,
         "^init state auxiliary block 1: shape mismatch"),
        (SaddleState(x, z, []), ValueError, "^init state: dual block 0 row 0 is missing$"),
        (SaddleState(x, z, [epi[:1], readout]), ValueError,
         "^init state: dual block 0 row 1 is missing$"),
        (SaddleState(x, z, [epi, readout + [readout[0]]]), ValueError,
         "^init state: dual block 1 row 1 is extra$"),
        (SaddleState(x, z, [epi, [np.zeros(3)]]), ShapeMismatchError,
         "^init state dual block 1 row 0: shape mismatch"),
        (SaddleState(x, z, [epi, readout, [np.zeros(1)]]), ValueError,
         "^init state: dual block 2 row 0 is extra$"),
    ]
    for state, error, message in cases:
        with pytest.raises(error, match=message):
            er.pdhg_solve(problem, budget=1, init=state, metrics_every=0)
    er.pdhg_solve(problem, budget=1, init=good, metrics_every=0)


def test_pdhg_refuses_steps_certified_for_another_network():
    template = er.DenseTemplate(input_dim=3, hidden_dims=(4,), readout_dim=2)
    spec, other = er.random_admissible(1, template), er.random_admissible(2, template)
    assert spec.depth == other.depth
    problem = er.ProblemSpec(er.l2_fidelity(), None, np.zeros(3), 0.3, spec)
    steps = compute_step_sizes(assemble_blocks(other))
    with pytest.raises(CertificationError, match="another regularizer"):
        er.pdhg_solve(problem, steps, budget=1)
    er.pdhg_solve(problem, compute_step_sizes(assemble_blocks(spec)), budget=1)


def test_pdhg_refuses_steps_certified_for_another_forward():
    spec = scalar_chain_spec()
    problem = er.ProblemSpec(er.l2_fidelity(), er.Dense([[1.0]]),
                             np.array([0.5]), 1.0, spec)
    for forward in (er.Dense([[1.0]]), None):
        steps = compute_step_sizes(assemble_blocks(spec, forward=forward))
        with pytest.raises(CertificationError, match="another forward operator"):
            er.pdhg_solve(problem, steps, budget=1)


@pytest.mark.parametrize("fidelity, data_term", [
    (er.l1_fidelity(0.05), lambda r: 0.05 * np.sum(np.abs(r), axis=1)),
    (er.l2_fidelity(1.5), lambda r: 0.75 * np.sum(r * r, axis=1)),
], ids=["l1", "l2"])
def test_pdhg_dualized_fidelity_matches_grid_minimizer(fidelity, data_term):
    # the conjugate prox runs in its own dual block; grid search as in equivalence_suite
    spec = er.random_admissible(305, er.DenseTemplate(
        input_dim=2, hidden_dims=(3,), readout_dim=2))
    forward = er.Dense([[1.0, 0.5], [-0.3, 1.2], [0.4, -0.7]])
    y = np.array([0.3, -0.2, 0.5])
    problem = er.ProblemSpec(fidelity, forward, y, 1.0, spec)

    def objective(points):
        return data_term(points @ forward.matrix.T - y) + icnn_batch_values(spec, points)

    x_star, f_star = refine_grid_minimize(objective, np.full(2, -3.0), np.full(2, 3.0))
    state, _ = er.pdhg_solve(problem, budget=5000, metrics_every=0, init_x=np.zeros(2))
    assert float(objective(state.x[None, :])[0]) - f_star <= 1e-4
    assert np.max(np.abs(state.x - x_star)) <= 1e-3


def test_evaluate_objectives_trace_relations(rng):
    spec = er.random_admissible(12, er.DenseTemplate(
        input_dim=3, hidden_dims=(4,), readout_dim=2, skip_all=True))
    y = rng.uniform(-1, 1, 3)
    problem = er.ProblemSpec(er.l2_fidelity(), None, y, 0.7, spec)
    x = rng.uniform(-1, 1, 3)
    _, trace = er.forward(spec, x)
    at_trace = er.evaluate_objectives(problem, x, [t.copy() for t in trace])
    assert at_trace.feasibility == 0.0
    assert np.isclose(at_trace.reformulated, at_trace.primal)
    above = er.evaluate_objectives(problem, x, [t + 1.0 for t in trace])
    assert above.feasibility == 0.0
    assert above.reformulated >= above.primal - 1e-9
    below = er.evaluate_objectives(problem, x, [t - 1.0 for t in trace])
    assert np.isclose(below.feasibility, 1.0)


def test_evaluate_objectives_refuses_a_wrong_auxiliary_count():
    problem = er.ProblemSpec(er.l2_fidelity(), er.Dense([[1.0]]), np.array([2.0]), 1.0,
                             make_two_layer_1d())
    with pytest.raises(ValueError, match="^expected 1 auxiliary tensors, got 2$"):
        er.evaluate_objectives(problem, np.array([1.0]), [np.zeros(1), np.zeros(1)])


def test_kl_fidelity_needs_a_background():
    with pytest.raises(ValueError, match="^kl fidelity needs a background level$"):
        KLFidelity()


def test_evaluate_objectives_kl_domain_flag():
    spec = make_relu_1d()
    fid = er.kl_fidelity(np.array([0.0]))
    problem = er.ProblemSpec(fid, er.Dense([[1.0]]), np.array([2.0]), 1.0, spec)
    report = er.evaluate_objectives(problem, np.array([-1.0]))
    assert report.data_term == np.inf and report.primal == np.inf
    ok = er.evaluate_objectives(problem, np.array([1.0]))
    assert np.isfinite(ok.primal)


def test_subgradient_kl_domain_exit_reports_its_iteration():
    # x0 = 1 lies in the domain; the step of 50 carries x1 = -74 out of it
    problem = er.ProblemSpec(er.kl_fidelity(np.array([0.0])), er.Dense([[1.0]]),
                             np.array([0.5]), 1.0, make_relu_1d())
    with pytest.raises(DivergenceError, match="kl fidelity domain") as info:
        er.subgradient_solve(problem, er.ConstantStep(50.0), budget=5,
                             init_x=np.array([1.0]))
    assert info.value.iteration == 1


def test_kl_residual_and_value_share_one_domain():
    # a zero count allows A x + b = 0 (residual 1, no 0/0); a positive count
    # needs A x + b > 0; both methods refuse exactly the same points
    y = np.array([0.0, 0.0, 2.0])
    fid = er.kl_fidelity(0.0).bind(er.Dense(np.eye(3)), y)  # kl refuses no forward
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fwd = np.array([0.0, 3.0, 4.0])
        assert np.isfinite(fid.value(fwd, y))
        assert fid.residual_subgradient(fwd, y).tolist() == [1.0, 1.0, 0.5]
        for bad in ([-1e-3, 3.0, 4.0], [0.0, 3.0, 0.0]):
            assert fid.value(np.array(bad), y) == np.inf
            with pytest.raises(ValueError, match="kl fidelity domain"):
                fid.residual_subgradient(np.array(bad), y)


def test_subgradient_ct_with_zero_background_and_zero_counts():
    # at the clipped FBP start some zero counts meet A x0 = 0, which the value
    # accepts; the subgradient step must accept them too (PDHG always did)
    problem, init = er.build_problem(
        er.TaskConfig(kind="ct", image_side=16, background=0.0, seed=3),
        er.make_phantom("smooth_blobs", 16, 0),
        er.random_admissible(1, er.ConvPoolDenseTemplate(side=16, filters=2, kernel=3,
                                                         pool=4, hidden=4)), 1.0)
    mean = problem.apply_forward(init) + problem.fidelity.background
    assert np.any((problem.measurement == 0.0) & (mean == 0.0))
    assert np.isfinite(problem.fidelity.value(problem.apply_forward(init), problem.measurement))
    _, metrics = er.subgradient_solve(problem, er.ConstantStep(0.01), budget=5, init_x=init)
    assert len(metrics.objective) == 6 and np.all(np.isfinite(metrics.objective))


def test_subgradient_leaves_init_x_unchanged():
    # a residual first layer adds x into the sweep's own arrays, never into x
    spec = er.random_admissible(5, er.DenseTemplate(
        input_dim=3, hidden_dims=(3,), skip_all=True, residual_layers=(1,)))
    problem = er.ProblemSpec(er.l2_fidelity(), None, np.array([0.3, -0.2, 0.5]), 0.7,
                             spec, nonneg=True)
    init = np.array([0.4, -0.1, 0.2])
    kept = init.copy()
    er.subgradient_solve(problem, er.ConstantStep(0.1), budget=3, init_x=init)
    assert init.tobytes() == kept.tobytes()


def test_subgradient_constant_step_halves_error():
    spec = make_relu_1d()
    y = np.array([2.0])
    problem = er.ProblemSpec(er.l2_fidelity(), None, y, 0.0, spec)
    _, metrics = er.subgradient_solve(problem, er.ConstantStep(0.5), budget=6,
                                      init_x=np.array([10.0]))
    errors = np.sqrt(2.0 * np.array(metrics.objective))  # |x - y| from the objective
    ratios = errors[1:] / errors[:-1]
    assert np.allclose(ratios, 0.5)


def test_subgradient_diminishing_reaches_1d_minimizer():
    spec = make_relu_1d()
    problem = er.ProblemSpec(er.l2_fidelity(), None, np.array([2.0]), 1.0, spec)
    x, _ = er.subgradient_solve(problem, er.DiminishingStep(1.0),
                                budget=10000, init_x=np.array([5.0]), metrics_every=0)
    assert abs(x[0] - 1.0) <= 1e-2


def test_smd_running_min_settles_on_desk_instance():
    # running-min objective is Cauchy (within 1e-4) over the trailing 20%
    spec = er.random_admissible(44, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    truth = er.make_phantom("smooth_blobs", 8, 3)
    cfg = er.TaskConfig(kind="inpaint", image_side=8, mask_fraction=0.3,
                        gaussian_sigma=0.03, seed=6)
    y, fwd = er.corrupt(cfg, truth)
    problem = er.ProblemSpec(er.l2_fidelity(), fwd, y, 2.0, spec)
    _, metrics = er.subgradient_solve(problem, er.DiminishingStep(1.0), budget=5000)
    rm = np.minimum.accumulate(metrics.objective)
    tail = rm[int(0.8 * len(rm)):]
    assert max(tail) - min(tail) <= 1e-4 * (1.0 + abs(tail[-1]))


def objective_record(values):
    """RunMetrics with the given objectives at iterations 0, 1, ..."""
    return RunMetrics(rows=[(k, v, v, v, 0.0, 0.0, float("nan"), 0.0)
                            for k, v in enumerate(values)])


def test_running_min_non_increasing(rng):
    values = rng.uniform(0, 1, 50)
    metrics = objective_record([float(v) for v in values])
    with pytest.raises(AttributeError):  # columns are read-only tuples
        metrics.objective.append(0.0)


def test_iterations_to_threshold_first_crossing():
    metrics = objective_record([2.0, 1.5, 1.0009, 1.0005, 1.0001, 1.00005])
    hit, used_abs = er.iterations_to_threshold(metrics, 1.0, 1e-3)
    assert hit == 2 and not used_abs  # fires at the first crossing only
    miss, _ = er.iterations_to_threshold(metrics, 1.0, 1e-6)
    assert miss is None


def test_stop_rule_absolute_fallback_flagged():
    # a numerically zero reference falls back to an absolute test, flagged
    metrics = objective_record([2e-3, 5e-4])
    hit, used_abs = er.iterations_to_threshold(metrics, 0.0, 1e-3)
    assert hit == 1 and used_abs


def test_pdhg_bitwise_deterministic():
    spec = er.random_admissible(6, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    x_true = er.make_phantom("checker", 8)
    cfg = er.TaskConfig(kind="denoise_salt_pepper", image_side=8, sp_density=0.2, seed=5)
    y, _ = er.corrupt(cfg, x_true)
    problem = er.ProblemSpec(er.l1_fidelity(0.05), None, y, 5.0, spec)
    runs = []
    for _ in range(2):
        steps = compute_step_sizes(assemble_problem(problem), scales=(0.5, 0.5))
        state, metrics = er.pdhg_solve(problem, steps, budget=50, ground_truth=x_true)
        runs.append((state.x.tobytes(), list(metrics.objective),
                     list(metrics.feasibility), list(metrics.psnr)))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]
    assert runs[0][3] == runs[1][3]


# (fidelity, forward, dualized): a term stays primal only where its prox
# through the forward is explicit, and the rest go to their own dual block
ROLES = {"l1 identity": (er.l1_fidelity(0.1), None, False),
         "l1 mask": (er.l1_fidelity(0.1), er.DiagonalMask(np.array([0.5])), True),
         "l1 dense": (er.l1_fidelity(0.1), er.Dense([[2.0]]), True),
         "l2 identity": (er.l2_fidelity(), None, False),
         "l2 mask": (er.l2_fidelity(), er.DiagonalMask(np.array([0.5])), False),
         "l2 dense": (er.l2_fidelity(), er.Dense([[2.0]]), True),
         "kl dense": (er.kl_fidelity(1.0), er.Dense([[2.0]]), True)}


@pytest.mark.parametrize("role", ROLES)
def test_the_forward_map_picks_the_data_terms_block(role):
    fidelity, forward, dualized = ROLES[role]
    problem = er.ProblemSpec(fidelity, forward, np.array([1.0]), 1.0, make_relu_1d())
    assert problem.fidelity.dualize is dualized and not fidelity.dualize  # bind copies
    blocks = assemble_problem(problem).blocks
    assert (blocks[0].kind == "fidelity") is dualized and len(blocks) == 1 + dualized
    state, _ = er.pdhg_solve(problem, budget=5)
    assert np.all(np.isfinite(state.x))


def test_kl_fidelity_takes_no_weight():
    # its weight is fixed at 1, not a setting: passing one, even 1.0, is an error
    for weight in (True, 1.0, 2.0):
        with pytest.raises(TypeError, match="unexpected keyword argument 'weight'"):
            KLFidelity(weight=weight, background=np.array([1.0]))
    assert KLFidelity(background=np.array([1.0])).weight == 1.0


def test_settings_the_code_would_ignore_are_refused():
    for kind, alpha in (("relu", 0.5), ("identity", np.nan), ("relu", "x")):
        with pytest.raises(ValueError, match=f"{kind} alpha must be 0"):
            er.Activation(kind, alpha)


def test_problem_spec_validation():
    spec = make_relu_1d()
    with pytest.raises(ValueError, match="reg_weight"):
        er.ProblemSpec(er.l2_fidelity(), None, np.array([1.0]), -0.1, spec)



def test_readout_cap_overflow_refused_when_built():
    # reg_weight and the head each pass their checks, but the readout cap, their
    # product, overflows; a plan clipping to it diverged at iteration 1 and blamed
    # a dual block. The refusal is a plain ValueError, which the CLI names.
    spec = depth3_dualized_problem().regularizer
    spec = replace(spec, head=np.array([spec.head[0], 1e300]))
    y = np.zeros(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow is the check's to report
        with pytest.raises(ValueError) as info:
            er.ProblemSpec(er.l2_fidelity(), None, y, 1e10, spec)
    assert type(info.value) is ValueError
    assert str(info.value) == ("readout cap = reg_weight × head is not finite: "
                               "reg_weight 10000000000.0, largest head entry 1e+300")
    problem = er.ProblemSpec(er.l2_fidelity(), None, y, 1e8, spec)  # 1e308 is finite
    assert problem.readout_cap[1] == 1e308


@pytest.mark.parametrize("fidelity", [er.kl_fidelity(1.0)], ids=["kl"])
def test_dualized_fidelity_without_forward_refused_when_built(fidelity):
    # refused by the ProblemSpec, before a subgradient baseline could run on it;
    # l1 and l2 are primal on the identity
    with pytest.raises(ValueError, match="dualized fidelity needs an explicit forward"):
        er.ProblemSpec(fidelity, None, np.array([1.0]), 1.0, make_relu_1d())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_data_refused_when_built(bad):
    spec = make_relu_1d()
    with pytest.raises(NonFiniteError, match="diagonal_mask mask"):
        er.DiagonalMask(np.array([bad]))
    with pytest.raises(NonFiniteError, match="measurement"):
        er.ProblemSpec(er.l2_fidelity(), None, np.array([bad]), 1.0, spec)
    with pytest.raises(NonFiniteError, match="kl background"):
        er.ProblemSpec(er.kl_fidelity(bad), er.Dense([[1.0]]), np.array([1.0]),
                       1.0, spec)


# NaN compares false with every bound, so each check must be written to
# fail closed on it; inf is refused too, since no scalar here may be infinite
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reg_weight_refused_when_built(bad):
    with pytest.raises(ValueError, match="reg_weight must be finite"):
        er.ProblemSpec(er.l2_fidelity(), None, np.array([1.0]), bad, make_relu_1d())


@pytest.mark.parametrize("make", [er.l1_fidelity, er.l2_fidelity],
                         ids=["l1_fidelity", "l2_fidelity"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fidelity_weight_refused_when_built(make, bad):
    with pytest.raises(ValueError, match="fidelity weight must be finite"):
        make(bad)


@pytest.mark.parametrize("rule", [er.ConstantStep, er.DiminishingStep])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_rule_refused_when_built(rule, bad):
    with pytest.raises(ValueError, match="step must be finite"):
        rule(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dual_scales_refused_when_certified(bad):
    assembly = assemble_blocks(scalar_chain_spec())
    with pytest.raises(ValueError, match="dual scales must be finite"):
        compute_step_sizes(assembly, scales=(1.0, bad))


def test_kl_bind_refuses_negative_background_and_counts():
    spec, fwd = make_relu_1d(), er.Dense([[1.0]])
    with pytest.raises(ValueError, match="kl background must be nonnegative"):
        er.ProblemSpec(er.kl_fidelity(-1.0), fwd, np.array([1.0]), 1.0, spec)
    with pytest.raises(ValueError, match="kl counts must be nonnegative"):
        er.ProblemSpec(er.kl_fidelity(1.0), fwd, np.array([-1.0]), 1.0, spec)


def _start(forward, y, nonneg=False):
    spec = er.random_admissible(3, er.DenseTemplate(input_dim=6, hidden_dims=(3,)))
    problem = er.ProblemSpec(er.l2_fidelity(), forward, y, 1.0, spec, nonneg)
    return solver_mod.default_initial_image(problem)


def test_default_start_is_the_measurement_for_the_identity_and_a_0_1_mask(rng):
    # the bits of the identity's copy and the mask's product, which the least-squares
    # start replaced, also where |y|^2 under- or overflows (a NaN start, unscaled)
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    base = rng.standard_normal(6)
    for y in (base, mask * base, np.zeros(6), np.array([1.0, -0.0, 0.0, -2.0, 0.0, 3.0]),
              base * 1e-170, base * 1e160, np.array([1e300, -1e-300, 5.0, -3.0, 0.0, 1.0])):
        for nonneg in (False, True):
            clip = np.maximum if nonneg else lambda v, _: v
            assert _start(None, y, nonneg).tobytes() == clip(y.copy(), 0.0).tobytes()
            assert (_start(er.DiagonalMask(mask), y, nonneg).tobytes()
                    == clip(mask * y, 0.0).tobytes())


def test_default_start_is_the_least_squares_backprojection(rng):
    # a 0.5 mask over y = 0.5 x starts at x (the mask's own adjoint gave 0.25 x); on a
    # dense forward the start keeps the unscaled formula's bits, and scales with y by
    # powers of 2 where |y|^2 over- or underflows (a NaN or zero start, unscaled)
    x = rng.standard_normal(6)
    assert np.array_equal(_start(er.DiagonalMask(np.full(6, 0.5)), 0.5 * x), x)
    forward, y = er.Dense(rng.standard_normal((9, 6))), rng.standard_normal(9)
    bp = forward.adjoint(y)
    resp = forward.apply(bp)
    expected = float(np.vdot(resp, y)) / float(np.vdot(resp, resp)) * bp
    assert _start(forward, y).tobytes() == expected.tobytes()
    for k in (-560, 530):
        assert _start(forward, np.ldexp(y, k)).tobytes() == np.ldexp(expected, k).tobytes()
    # s = 2^1064 is past the float range, the start y * 2^532 is not
    y = np.array([1.0, -2.0, 3.0, 0.0, 5.0, 6.0])
    assert np.array_equal(_start(er.ScaledIdentity((6,), 2.0**-532), y), y * 2.0**532)


def test_initial_state_is_feasible():
    spec = er.random_admissible(19, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    y = er.make_phantom("smooth_blobs", 8, 1)
    problem = er.ProblemSpec(er.l1_fidelity(0.1), None, y, 1.0, spec)
    assembly = assemble_blocks(spec)
    state = initial_state(problem, assembly)
    report = er.evaluate_objectives(problem, state.x, state.z)
    assert report.feasibility == 0.0
    assert np.array_equal(state.x, y)
    assert all(not np.any(d) for rows in state.duals for d in rows)
