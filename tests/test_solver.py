import warnings

import numpy as np
import pytest

import epirecon as er
from epirecon import prox
from epirecon import solver as solver_mod
from epirecon.blocks import assemble_blocks
from epirecon.solver import (CertificationError, DivergenceError, RunMetrics,
                             assemble_problem, compute_step_sizes, initial_state)
from epirecon.tensor import NonFiniteError
from epirecon.verify import preconditioned_norm
from conftest import CT12_SCALES, make_ct12_problem, make_relu_1d


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
    _, metrics = er.pdhg_solve(problem, budget=3000, scales=(5.0, 5.0),
                               metrics_every=100)
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
    # x+ = 1 - tau * 1e308 stays finite but x_bar = 2 x+ - x overflows; the
    # readout clip maps K x_bar back into [0, cap], so only x_bar shows it
    spec = make_relu_1d()
    problem = er.ProblemSpec(er.l1_fidelity(0.1), None, np.array([2.0]), 1.0, spec)
    state = initial_state(problem, assemble_blocks(spec), init_x=np.array([1.0]))
    state.duals[0][0][0] = 1e308
    with np.errstate(over="ignore"), \
            pytest.raises(DivergenceError, match=r"relaxed primal image at iteration 1"):
        er.pdhg_solve(problem, budget=5, init=state, metrics_every=0)


def count_locating_scans(monkeypatch):
    """Iterations at which the guard's per-array scan ran."""
    calls = []
    real = solver_mod._check_finite

    def counting(state, iteration):
        calls.append(iteration)
        return real(state, iteration)

    monkeypatch.setattr(solver_mod, "_check_finite", counting)
    return calls


def test_pdhg_guard_scans_only_after_the_reduction_fails(monkeypatch):
    calls = count_locating_scans(monkeypatch)
    spec = make_relu_1d()
    problem = er.ProblemSpec(er.l2_fidelity(), None, np.array([2.0]), 1.0, spec)
    er.pdhg_solve(problem, budget=50, init_x=np.array([1.0]), metrics_every=0)
    assert calls == []
    assembly = assemble_blocks(spec)
    nan_image = initial_state(problem, assembly, init_x=np.array([1.0]))
    nan_image.x[0] = np.nan
    inf_dual = initial_state(problem, assembly, init_x=np.array([1.0]))
    inf_dual.duals[0][0][0] = np.inf
    for state in (nan_image, inf_dual):
        with pytest.raises(DivergenceError):
            er.pdhg_solve(problem, budget=5, init=state, metrics_every=0)
        assert calls == [0]
        calls.clear()
    l1_problem = er.ProblemSpec(er.l1_fidelity(0.1), None, np.array([2.0]), 1.0, spec)
    overflow = initial_state(l1_problem, assembly, init_x=np.array([1.0]))
    overflow.duals[0][0][0] = 1e308
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        er.pdhg_solve(l1_problem, budget=5, init=overflow, metrics_every=0)
    assert calls == [1]


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
        arrays = [state.x, *state.z, state.x_relaxed, *state.z_relaxed,
                  *(d for rows in state.duals for d in rows)]
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


def test_pdhg_validates_proxes_per_solve_not_per_iteration(monkeypatch):
    problem = make_ct12_problem()
    steps = compute_step_sizes(assemble_problem(problem), scales=CT12_SCALES)
    calls = []
    for name in ("_check_step", "_check_nonnegative"):
        real = getattr(prox, name)

        def counting(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(prox, name, counting)
    counts = []
    for budget in (10, 200):
        calls.clear()
        er.pdhg_solve(problem, steps, budget=budget, metrics_every=0)
        counts.append(len(calls))
    assert counts[0] == counts[1]


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
    problem = er.ProblemSpec(er.l2_fidelity(dualize=True), er.Dense([[1.0]]),
                             np.array([0.5]), 1.0, spec)
    for forward in (er.Dense([[1.0]]), None):
        steps = compute_step_sizes(assemble_blocks(spec, forward=forward))
        with pytest.raises(CertificationError, match="another forward operator"):
            er.pdhg_solve(problem, steps, budget=1)


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


def test_evaluate_objectives_kl_domain_flag():
    spec = make_relu_1d()
    fid = er.kl_fidelity(np.array([0.0]))
    problem = er.ProblemSpec(fid, er.Dense([[1.0]]), np.array([2.0]), 1.0, spec)
    report = er.evaluate_objectives(problem, np.array([-1.0]))
    assert report.infeasible_data and report.primal == np.inf
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
    fid = er.kl_fidelity(0.0).bind(None, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fwd = np.array([0.0, 3.0, 4.0])
        assert fid.value(fwd, y)[1] is False
        assert fid.residual_subgradient(fwd, y).tolist() == [1.0, 1.0, 0.5]
        for bad in ([-1e-3, 3.0, 4.0], [0.0, 3.0, 0.0]):
            assert fid.value(np.array(bad), y) == (np.inf, True)
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
    assert problem.fidelity.value(problem.apply_forward(init), problem.measurement)[1] is False
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
    x, metrics = er.subgradient_solve(problem, er.DiminishingStep(1.0),
                                      budget=10000, init_x=np.array([5.0]),
                                      metrics_every=0)
    assert abs(x[0] - 1.0) <= 1e-2
    assert metrics.notes["solver"] == "sm_d(1)"


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
    rm = metrics.running_min_objective()
    tail = rm[int(0.8 * len(rm)):]
    assert max(tail) - min(tail) <= 1e-4 * (1.0 + abs(tail[-1]))


def test_running_min_non_increasing(rng):
    metrics = RunMetrics()
    values = rng.uniform(0, 1, 50)
    for k, v in enumerate(values):
        metrics.iterations.append(k)
        metrics.objective.append(float(v))
    rm = metrics.running_min_objective()
    assert np.all(np.diff(rm) <= 0.0 + 1e-15)
    assert rm == list(np.minimum.accumulate(values))


def test_iterations_to_threshold_first_crossing():
    metrics = RunMetrics()
    for k, v in enumerate([2.0, 1.5, 1.0009, 1.0005, 1.0001, 1.00005]):
        metrics.iterations.append(k)
        metrics.objective.append(v)
    hit, used_abs = er.iterations_to_threshold(metrics, 1.0, 1e-3)
    assert hit == 2 and not used_abs  # fires at the first crossing only
    miss, _ = er.iterations_to_threshold(metrics, 1.0, 1e-6)
    assert miss is None


def test_stop_rule_absolute_fallback_flagged():
    # a numerically zero reference falls back to an absolute test, flagged
    metrics = RunMetrics()
    for k, v in enumerate([2e-3, 5e-4]):
        metrics.iterations.append(k)
        metrics.objective.append(v)
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
        state, metrics = er.pdhg_solve(problem, budget=50, scales=(0.5, 0.5),
                                       ground_truth=x_true)
        runs.append((state.x.tobytes(), list(metrics.objective),
                     list(metrics.feasibility), list(metrics.psnr)))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]
    assert runs[0][3] == runs[1][3]


def test_problem_spec_validation():
    spec = make_relu_1d()
    with pytest.raises(ValueError, match="kl fidelity has no primal prox"):
        er.kl_fidelity(np.array([1.0]), dualize=False)
    with pytest.raises(ValueError, match="identity forward"):
        er.ProblemSpec(er.l1_fidelity(0.1), er.Dense([[2.0]]), np.array([1.0]),
                       1.0, spec)
    with pytest.raises(ValueError, match="diagonal forward"):
        er.ProblemSpec(er.l2_fidelity(), er.Dense([[1.0], [1.0]]),
                       np.array([1.0, 1.0]), 1.0, spec)
    with pytest.raises(ValueError, match="reg_weight"):
        er.ProblemSpec(er.l2_fidelity(), None, np.array([1.0]), -0.1, spec)


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


@pytest.mark.parametrize("make", [er.l1_fidelity, er.l2_fidelity])
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
