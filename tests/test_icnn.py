import functools

import numpy as np
import pytest

import epirecon as er
from epirecon.icnn import AdmissibilityError, WeightsFormatError
from epirecon.tensor import NonFiniteError, read_tensor, write_tensor
from conftest import make_relu_1d, make_two_layer_1d


def test_forward_relu_1d():
    spec = make_relu_1d()
    val, trace = er.forward(spec, [-3.0])
    assert val == 0.0 and trace == []
    val, trace = er.forward(spec, [2.0])
    assert val == 2.0 and trace == []


def test_forward_two_layer_hand_value():
    spec = make_two_layer_1d()
    val, trace = er.forward(spec, [1.0])
    assert val == 2.0
    assert len(trace) == 1 and np.allclose(trace[0], [1.0])


def test_forward_residual_first_layer():
    # z = x + relu(x): x=1 -> 2, x=-1 -> -1
    layer = er.IcnnLayer(er.Dense([[1.0]]), None, [0.0], er.Activation("relu"),
                         residual=True)
    spec = er.IcnnSpec((1,), (layer,))
    assert er.forward(spec, [1.0])[0] == 2.0
    assert er.forward(spec, [-1.0])[0] == -1.0


def test_subgradient_relu_kink_convention():
    spec = make_relu_1d()
    assert er.value_and_subgradient(spec, [2.0])[1][0] == 1.0
    assert er.value_and_subgradient(spec, [0.0])[1][0] == 0.0  # left-branch slope at the kink
    assert er.value_and_subgradient(spec, [-1.0])[1][0] == 0.0


SLOPES = [0.0, 0.2, 0.7, 1.0 - 2.0 ** -53]


@pytest.mark.parametrize("act", [er.Activation("relu"), er.Activation("identity")]
                         + [er.Activation("leaky_relu", a) for a in SLOPES])
def test_activation_and_derivative_match_the_select(act):
    a = act.negative_slope
    t = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.5, -2.5, 1e300, -1e300])
    assert act.derivative(t).tobytes() == np.where(t > 0.0, 1.0, a).tobytes()
    assert act(t).tobytes() == np.maximum(t, a * t).tobytes()
    for zero in (0.0, -0.0):  # the kink takes the left slope, on 0-d input too
        d = act.derivative(np.array(zero))
        assert np.shape(d) == () and np.asarray(d).tobytes() == np.float64(a).tobytes()
    assert np.asarray(act.derivative(np.array(3.0))).tobytes() == np.float64(1.0).tobytes()


def test_branch_free_derivative_is_exact_for_sampled_slopes():
    # (t > 0) * (1 - a) + a is 1 exactly when a + fl(1 - a) rounds to 1
    a = np.random.default_rng(0).uniform(0.0, 1.0, 200_000)
    assert np.all(a + (1.0 - a) == 1.0)


def _naive_layer(layer, x, z_prev, first):
    """(preactivation, output) of one layer in plain numpy."""
    paths = [op.apply(v) for op, v in ((layer.skip, x), (layer.carry, z_prev))
             if op is not None]
    s = functools.reduce(np.add, paths) + layer.bias
    a = layer.activation.negative_slope
    out = np.maximum(s, a * s)
    if layer.residual:
        out = out + (x if first else z_prev)
    return s, out


def _naive_value_and_subgradient(spec, x):
    """Layer-by-layer reference: value, then the reverse sweep term by term."""
    pres, z = [], None
    for i, layer in enumerate(spec.layers, start=1):
        s, z = _naive_layer(layer, x, z, i == 1)
        pres.append(s)
    value = float(np.vdot(spec.readout_weights(), z))
    grad_terms, cot = [], spec.readout_weights()
    for i in range(spec.depth, 0, -1):
        layer = spec.layers[i - 1]
        d = cot * np.where(pres[i - 1] > 0.0, 1.0, layer.activation.negative_slope)
        prev_terms = []
        if layer.residual:
            (grad_terms if i == 1 else prev_terms).append(cot)
        if layer.skip is not None:
            grad_terms.append(layer.skip.adjoint(d))
        if layer.carry is not None:
            prev_terms.append(layer.carry.adjoint(d))
        if i > 1:
            cot = (functools.reduce(np.add, prev_terms) if prev_terms
                   else np.zeros(spec.layers[i - 2].output_shape))
    return value, functools.reduce(np.add, grad_terms)


def _naive_record(problem, x, z):
    """evaluate_objectives recomputed: nested value, then each layer at (x, z)."""
    spec = problem.regularizer
    value = _naive_value_and_subgradient(spec, x)[0]
    data, _ = problem.fidelity.value(problem.apply_forward(x), problem.measurement)
    feas, prev = 0.0, None
    for i, layer in enumerate(spec.layers, start=1):
        _, implied = _naive_layer(layer, x, prev, i == 1)
        if i < spec.depth:
            feas = max(feas, float(np.max(np.maximum(implied - z[i - 1], 0.0), initial=0.0)))
            prev = z[i - 1]
        else:
            final = float(np.vdot(spec.readout_weights(), implied))
    w = problem.reg_weight
    return data + w * value, data + w * final, feas, data, w * value


EQUIVALENCE_TEMPLATES = [
    er.DenseTemplate(input_dim=4, hidden_dims=(4, 4), readout_dim=2, skip_all=True,
                     residual_layers=(2,)),
    er.DenseTemplate(input_dim=3, hidden_dims=(3,), skip_all=True, residual_layers=(1,)),
    er.DenseTemplate(input_dim=5, hidden_dims=(6, 4), readout_dim=3,
                     final_activation="identity"),
    er.DenseTemplate(input_dim=5, hidden_dims=(6,), readout_dim=2, skip_all=True,
                     final_activation="leaky_relu"),
    er.ConvPoolDenseTemplate(side=16, filters=2, kernel=3, pool=4, hidden=4),
]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("tpl", EQUIVALENCE_TEMPLATES)
def test_sweeps_bitwise_equal_naive_recomputation(tpl, rng):
    spec = er.random_admissible(7, tpl)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, spec.input_shape)
        value, grad = er.value_and_subgradient(spec, x)
        ref_value, ref_grad = _naive_value_and_subgradient(spec, x)
        assert _bits(value) == _bits(ref_value)
        assert grad.shape == ref_grad.shape and _bits(grad) == _bits(ref_grad)
        y = rng.uniform(-1.0, 1.0, spec.input_shape)
        problem = er.ProblemSpec(er.l2_fidelity(), None, y, 0.7, spec)
        _, trace = er.forward(spec, x)
        z = [t + rng.normal(0.0, 0.3, t.shape) for t in trace]  # on both sides of the trace
        report = er.evaluate_objectives(problem, x, z)
        got = (report.primal, report.reformulated, report.feasibility, report.data_term,
               report.reg_term)
        assert _bits(got) == _bits(_naive_record(problem, x, z))


def _min_preactivation_margin(spec, x):
    z = None
    margin = np.inf
    for i, layer in enumerate(spec.layers, start=1):
        s = layer.preactivation(x, z)
        margin = min(margin, float(np.min(np.abs(s))))
        out = layer.activation(s)
        z = out + (z if i > 1 else x) if layer.residual else out
    return margin


def test_subgradient_matches_finite_differences(rng):
    spec = er.random_admissible(11, er.DenseTemplate(
        input_dim=4, hidden_dims=(5,), readout_dim=3, skip_all=True))
    # sample a point away from every activation kink so the function is
    # locally smooth and central differences are valid
    x = rng.uniform(-1.0, 1.0, 4)
    while _min_preactivation_margin(spec, x) < 1e-3:
        x = rng.uniform(-1.0, 1.0, 4)
    g = er.value_and_subgradient(spec, x)[1]
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fp, _ = er.forward(spec, x + e)
        fm, _ = er.forward(spec, x - e)
        fd = (fp - fm) / (2.0 * h)
        assert abs(g[i] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_subgradient_inequality_sampled(rng):
    spec = er.random_admissible(13, er.DenseTemplate(
        input_dim=3, hidden_dims=(4,), readout_dim=2))
    for _ in range(200):
        x = rng.uniform(-2, 2, 3)
        y = rng.uniform(-2, 2, 3)
        fx, _ = er.forward(spec, x)
        fy, _ = er.forward(spec, y)
        g = er.value_and_subgradient(spec, x)[1]
        assert fy >= fx + np.vdot(g, y - x) - 1e-9


def test_validate_clean_network():
    spec = er.random_admissible(1, er.DenseTemplate(input_dim=3, hidden_dims=(4,)))
    assert er.validate(spec).ok


def test_validate_reports_negative_carry_entry():
    l1 = er.IcnnLayer(er.Dense(np.ones((2, 2))), None, np.zeros(2),
                      er.Activation("relu"))
    carry = np.ones((1, 2))
    carry[0, 1] = -1e-9
    l2 = er.IcnnLayer(None, er.Dense(carry), np.zeros(1), er.Activation("identity"))
    report = er.validate(er.IcnnSpec((2,), (l1, l2)))
    assert not report.ok
    msg = str(report)
    assert "layer 2" in msg and "(0, 1)" in msg and "-1e-09" in msg


def test_validate_reports_residual_shape_break():
    l1 = er.IcnnLayer(er.Dense(np.ones((3, 2))), None, np.zeros(3),
                      er.Activation("relu"), residual=True)
    l2 = er.IcnnLayer(None, er.Dense(np.ones((1, 3))), np.zeros(1),
                      er.Activation("identity"))
    report = er.validate(er.IcnnSpec((2,), (l1, l2)))
    assert any(v.code == "residual_shape" for v in report.violations)


def test_validate_non_scalar_output():
    l1 = er.IcnnLayer(er.Dense(np.ones((3, 2))), None, np.zeros(3),
                      er.Activation("relu"))
    report = er.validate(er.IcnnSpec((2,), (l1,)))
    assert any(v.code == "non_scalar_output" for v in report.violations)


def test_random_admissible_deterministic():
    tpl = er.DenseTemplate(input_dim=3, hidden_dims=(4, 4), skip_all=True)
    a = er.random_admissible(21, tpl)
    b = er.random_admissible(21, tpl)
    for la, lb in zip(a.layers, b.layers):
        if la.skip is not None:
            assert np.array_equal(la.skip.matrix, lb.skip.matrix)
        if la.carry is not None:
            assert np.array_equal(la.carry.matrix, lb.carry.matrix)
        assert np.array_equal(la.bias, lb.bias)
    assert np.array_equal(a.head, b.head)


def test_random_admissible_always_validates():
    templates = [
        er.DenseTemplate(input_dim=2, hidden_dims=(3,)),
        er.DenseTemplate(input_dim=4, hidden_dims=(4, 4), skip_all=True,
                         residual_layers=(2,)),
        er.ConvPoolDenseTemplate(side=8, filters=2, kernel=3, pool=4, hidden=4),
    ]
    for seed in range(100):
        spec = er.random_admissible(seed, templates[seed % len(templates)])
        assert er.validate(spec).ok


def test_convexity_jensen_sampling(rng):
    for seed in range(5):
        spec = er.random_admissible(seed + 50, er.DenseTemplate(
            input_dim=3, hidden_dims=(3,), skip_all=True,
            residual_layers=(1,) if seed % 2 else ()))
        for _ in range(200):
            a = rng.uniform(-3, 3, 3)
            b = rng.uniform(-3, 3, 3)
            lam = rng.uniform()
            fa, _ = er.forward(spec, a)
            fb, _ = er.forward(spec, b)
            fm, _ = er.forward(spec, lam * a + (1 - lam) * b)
            assert fm <= lam * fa + (1 - lam) * fb + 1e-9 * (1 + abs(fa) + abs(fb))


def test_trace_is_minimal_over_feasible_auxiliaries(rng):
    # every feasible auxiliary stack built above the trace can only raise the
    # final-layer value (the trace is the least element of the feasible set)
    spec = er.random_admissible(31, er.DenseTemplate(
        input_dim=3, hidden_dims=(4, 3), readout_dim=2, skip_all=True))
    x = rng.uniform(-1, 1, 3)
    r_val, trace = er.forward(spec, x)
    for _ in range(100):
        z_prev = None
        feasible = []
        for i, layer in enumerate(spec.layers[:-1], start=1):
            implied = layer.activation(layer.preactivation(x, z_prev))
            bumped = implied + rng.uniform(0.0, 0.5, implied.shape)
            feasible.append(bumped)
            z_prev = bumped
        final = spec.layers[-1]
        value = float(np.vdot(spec.readout_weights(),
                              final.activation(final.preactivation(x, z_prev))))
        assert value >= r_val - 1e-9
        for z, t in zip(feasible, trace):
            assert np.all(z >= t - 1e-12)


def test_save_load_round_trip_bitwise(tmp_path):
    spec = er.random_admissible(41, er.ConvPoolDenseTemplate(
        side=8, filters=2, kernel=3, pool=4, hidden=4))
    er.save_weights(spec, tmp_path / "w")
    back = er.load_weights(tmp_path / "w")
    assert back.input_shape == spec.input_shape
    assert np.array_equal(back.head, spec.head)
    assert np.array_equal(back.layers[0].skip.filters, spec.layers[0].skip.filters)
    assert np.array_equal(back.layers[0].bias, spec.layers[0].bias)
    carry_a = back.layers[1].carry.parts[1].matrix
    carry_b = spec.layers[1].carry.parts[1].matrix
    assert np.array_equal(carry_a, carry_b)
    assert back.layers[1].activation == spec.layers[1].activation


def test_load_rejects_tampered_negative_carry(tmp_path):
    spec = er.random_admissible(42, er.DenseTemplate(input_dim=2, hidden_dims=(3,)))
    er.save_weights(spec, tmp_path / "w")
    blob = tmp_path / "w" / "layer1_matrix.tnsb"
    mat = read_tensor(blob)
    mat[0, 0] = -1e-9
    write_tensor(blob, mat)
    with pytest.raises(AdmissibilityError, match="negative"):
        er.load_weights(tmp_path / "w")
    # the override flag loads it anyway
    loaded = er.load_weights(tmp_path / "w", allow_inadmissible=True)
    assert loaded.layers[1].carry.matrix[0, 0] == -1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_network_tensors_refused_when_built(bad):
    # validate() passed a NaN carry weight or head entry: nan < 0 is False
    with pytest.raises(NonFiniteError, match="dense matrix"):
        er.Dense([[0.5, bad]])
    filters = np.ones((2, 3, 3))
    filters[1, 0, 2] = bad
    with pytest.raises(NonFiniteError, match="conv2d filters"):
        er.Conv2D(filters, (6, 6))
    relu = er.Activation("relu")
    with pytest.raises(NonFiniteError, match="icnn bias"):
        er.IcnnLayer(er.Dense([[1.0]]), None, [bad], relu)
    layer = er.IcnnLayer(er.Dense([[1.0], [2.0]]), None, [0.0, 0.0], relu)
    with pytest.raises(NonFiniteError, match="icnn head"):
        er.IcnnSpec((1,), (layer,), head=[1.0, bad])


@pytest.mark.parametrize("blob", ["layer0_matrix.tnsb", "layer1_matrix.tnsb",
                                  "layer1_bias.tnsb", "head.tnsb"])
def test_load_names_the_non_finite_blob(tmp_path, blob):
    spec = er.random_admissible(42, er.DenseTemplate(input_dim=2, hidden_dims=(3,)))
    er.save_weights(spec, tmp_path / "w")
    arr = read_tensor(tmp_path / "w" / blob)
    arr.ravel()[-1] = np.nan
    write_tensor(tmp_path / "w" / blob, arr)
    with pytest.raises(WeightsFormatError, match=f"blob '{blob}' refused"):
        er.load_weights(tmp_path / "w", allow_inadmissible=True)


def test_load_missing_blob_error(tmp_path):
    spec = er.random_admissible(43, er.DenseTemplate(input_dim=2, hidden_dims=(3,)))
    er.save_weights(spec, tmp_path / "w")
    (tmp_path / "w" / "layer0_bias.tnsb").unlink()
    with pytest.raises(WeightsFormatError, match="missing blob"):
        er.load_weights(tmp_path / "w")


def test_load_missing_manifest(tmp_path):
    with pytest.raises(WeightsFormatError, match="manifest"):
        er.load_weights(tmp_path)


def test_activation_domain():
    with pytest.raises(ValueError):
        er.Activation("leaky_relu", 1.0)
    with pytest.raises(ValueError):
        er.Activation("softplus")
    assert er.Activation("leaky_relu", 0.2).negative_slope == 0.2
    assert er.Activation("identity").negative_slope == 1.0
