import itertools
from decimal import Decimal, localcontext

import numpy as np
import pytest

from epirecon import prox
from epirecon.verify import moreau_conjugate_prox


def test_soft_shrink_paper_cases():
    # threshold tau*lambda = 0.5 around center 0
    assert prox.soft_shrink(np.array([2.0]), 0.5)[0] == 1.5
    assert prox.soft_shrink(np.array([0.3]), 0.5)[0] == 0.0  # dead zone -> center
    assert prox.soft_shrink(np.array([-2.0]), 0.5)[0] == -1.5
    got = prox.soft_shrink(np.array([1.4]), 0.5, center=1.2)
    assert got[0] == 1.2


def test_epigraph_feasible_points_fixed():
    for alpha in (0.0, 0.2, 0.7):
        p, q = prox.project_epigraph_leaky_relu(alpha, np.array([-1.0, 1.0]),
                                                np.array([0.0, 1.0]))
        assert np.allclose(p, [-1.0, 1.0])
        assert np.allclose(q, [0.0, 1.0])


def test_epigraph_hand_cases():
    # alpha 0, point (1, -1): |q| <= p branch collapses to the corner
    p, q = prox.project_epigraph_leaky_relu(0.0, np.array([1.0]), np.array([-1.0]))
    assert p[0] == 0.0 and q[0] == 0.0
    # alpha 0.2, point (-1, -1): left-edge foot ((p+aq)/(1+a^2), a*that)
    p, q = prox.project_epigraph_leaky_relu(0.2, np.array([-1.0]), np.array([-1.0]))
    assert np.isclose(p[0], -1.2 / 1.04)
    assert np.isclose(q[0], -0.24 / 1.04)
    # alpha 1: the halfplane p <= q, every outside foot is ((p+q)/2, (p+q)/2)
    pb = np.array([3.0, -1.0, 1.0, 0.5, 1.0])
    qb = np.array([1.0, -3.0, -3.0, -0.5, 2.0])
    p, q = prox.project_epigraph_leaky_relu(1.0, pb, qb)
    assert p.tolist() == [2.0, -2.0, -1.0, 0.0, 1.0]
    assert q.tolist() == [2.0, -2.0, -1.0, 0.0, 2.0]


def test_epigraph_zero_dim_inputs():
    cases = [(0.2, -1.0, -1.0), (0.2, 2.0, 0.5), (0.0, 1.0, -3.0), (0.7, -1.0, 3.0)]
    for alpha, pb, qb in cases:
        want_p, want_q = prox.project_epigraph_leaky_relu(alpha, np.array([pb]),
                                                          np.array([qb]))
        for args in ((pb, qb), (np.float64(pb), np.float64(qb)),
                     (np.array(pb), np.array(qb))):
            p, q = prox.project_epigraph_leaky_relu(alpha, *args)
            assert np.shape(p) == () and np.shape(q) == ()
            assert p == want_p[0] and q == want_q[0]


def test_epigraph_branch_boundary_ties_unchanged(rng):
    # q == p > 0 and (t, alpha*t), t < 0, lie on the epigraph boundary:
    # returned bitwise, signs of zero included
    for alpha in (0.0, 0.2, 0.7, 1.0):
        right = rng.uniform(0.1, 5.0, 50)
        t = -rng.uniform(0.1, 5.0, 50)
        pb = np.concatenate([right, t])
        qb = np.concatenate([right, alpha * t])
        p, q = prox.project_epigraph_leaky_relu(alpha, pb, qb)
        assert p.tobytes() == pb.tobytes() and q.tobytes() == qb.tobytes(), alpha


def test_epigraph_membership_idempotence_branches(rng):
    for alpha in (0.0, 0.2, 0.9):
        pb = rng.uniform(-5, 5, 500)
        qb = rng.uniform(-5, 5, 500)
        p, q = prox.project_epigraph_leaky_relu(alpha, pb, qb)
        assert np.all(np.maximum(p, alpha * p) <= q + 1e-12)
        p2, q2 = prox.project_epigraph_leaky_relu(alpha, p, q)
        assert np.array_equal(p, p2) and np.array_equal(q, q2)
    # hit each branch deliberately (alpha = 0.2)
    cases = {
        "inside": (-1.0, 1.0),
        "right_edge": (2.0, 1.0),
        "left_edge": (-2.0, -1.0),
        "corner": (0.5, -2.0),
    }
    expected = {
        "inside": (-1.0, 1.0),
        "right_edge": (1.5, 1.5),
        "left_edge": ((-2.0 + 0.2 * -1.0) / 1.04, 0.2 * (-2.0 + 0.2 * -1.0) / 1.04),
        "corner": (0.0, 0.0),
    }
    for name, (pb, qb) in cases.items():
        p, q = prox.project_epigraph_leaky_relu(0.2, np.array([pb]), np.array([qb]))
        assert np.isclose(p[0], expected[name][0]), name
        assert np.isclose(q[0], expected[name][1]), name


def test_epigraph_continuous_across_branch_boundaries():
    alpha = 0.2
    eps = 1e-10
    # straddle the inside/right-edge boundary q = p (p > 0)
    for base in (0.5, 2.0):
        p_in, q_in = prox.project_epigraph_leaky_relu(alpha, np.array([base]),
                                                      np.array([base + eps]))
        p_out, q_out = prox.project_epigraph_leaky_relu(alpha, np.array([base]),
                                                        np.array([base - eps]))
        assert abs(p_in[0] - p_out[0]) < 1e-9 and abs(q_in[0] - q_out[0]) < 1e-9
    # straddle the right-edge/corner boundary q = -p (p > 0)
    p_a, q_a = prox.project_epigraph_leaky_relu(alpha, np.array([1.0]),
                                                np.array([-1.0 + eps]))
    p_b, q_b = prox.project_epigraph_leaky_relu(alpha, np.array([1.0]),
                                                np.array([-1.0 - eps]))
    assert abs(p_a[0] - p_b[0]) < 1e-9 and abs(q_a[0] - q_b[0]) < 1e-9
    # straddle the corner/left-edge boundary p = -alpha q (q < 0)
    p_a, q_a = prox.project_epigraph_leaky_relu(alpha, np.array([0.2 - eps]),
                                                np.array([-1.0]))
    p_b, q_b = prox.project_epigraph_leaky_relu(alpha, np.array([0.2 + eps]),
                                                np.array([-1.0]))
    assert abs(p_a[0] - p_b[0]) < 1e-9 and abs(q_a[0] - q_b[0]) < 1e-9


def test_readout_conjugate_hand_values():
    got = prox.readout_conjugate_prox(np.array([2.0, -0.5, 0.3]), 1.0, 1.0, 0.0)
    assert np.allclose(got, [1.0, 0.0, 0.3])
    # degenerate zero cap pins the dual at zero
    got = prox.readout_conjugate_prox(np.array([5.0, -3.0]), 2.0, 0.0, 1.0)
    assert np.allclose(got, 0.0)
    # identity readout (slope 1) pins the dual at the cap
    got = prox.readout_conjugate_prox(np.array([-7.0, 9.0]), 0.5, 2.0, 0.0, 1.0)
    assert np.allclose(got, 2.0)


def test_readout_conjugate_moreau_identity(rng):
    # wbar = prox_{sigma f*}(wbar) + sigma * prox_{f/sigma}(wbar/sigma)
    for _ in range(100):
        cap = rng.uniform(0.0, 3.0)
        bias = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.1, 3.0)
        wbar = rng.uniform(-4.0, 4.0)
        conj = prox.readout_conjugate_prox(np.array([wbar]), sigma, cap, bias)[0]

        def primal_prox(step, point):
            # prox of step * cap * max(w + bias, 0), exact scalar form
            lo = point - step * cap
            if lo + bias > 0.0:
                return np.asarray(lo)
            if np.asarray(point) + bias < 0.0:
                return np.asarray(point)
            return np.asarray(-bias)

        direct = moreau_conjugate_prox(primal_prox, sigma, np.array([wbar]))[0]
        assert abs(conj - direct) < 1e-10


def test_kl_conjugate_hand_values():
    got = prox.kl_conjugate_prox(np.array([3.0, 0.4]), 1.0, 0.0, 0.0)
    assert np.allclose(got, [1.0, 0.4])  # conjugate of a linear term clips at 1
    got = prox.kl_conjugate_prox(np.array([1.0]), 1.0, 1.0, 0.0)
    assert got[0] == 0.0


def test_kl_conjugate_dual_feasibility(rng):
    n = 400
    wb = rng.uniform(-3, 5, n)
    sig = rng.uniform(0.1, 2.0, n)
    y = rng.uniform(0.1, 5.0, n)
    r = rng.uniform(0.0, 2.0, n)
    v = prox.kl_conjugate_prox(wb, sig, y, r)
    assert np.all(np.isfinite(v))
    assert np.all(v < 1.0)  # strict wherever counts are positive


def kl_root(wbar, sigma, counts, background):
    """The KL conjugate prox's root from the floats' exact values, to 700 digits: what
    cancels at a near 1e308 still leaves 60."""
    with localcontext() as ctx:
        ctx.prec = 700
        wbar, sigma, counts, background = map(Decimal, (wbar, sigma, counts, background))
        a = wbar - 1 + sigma * background
        return (a + 2 - (a * a + 4 * sigma * counts).sqrt()) / 2


# (wbar, sigma, counts, background), with a = wbar - 1 + sigma*background of either sign
KL_GRID = list(itertools.product([-1e8, -10.0, 0.5, 1e2, 1e4, 1e6, 1e8, 1e10], [0.01, 1.0],
                                 [0.0, 5.0], [0.0, 50.0]))


def test_kl_conjugate_is_exact_and_below_1_across_magnitudes():
    # (wbar + 1 + sigma*bg - sqrt(...)) / 2 cancelled for large wbar: off by up to 2.5e-11
    # at 1e6 and 5.3e-9 at 1e8, and exactly 1.0 at six points where the root is below 1
    for point in KL_GRID:
        got = prox.kl_conjugate_prox(np.array([point[0]]), *point[1:])[0]
        exact = kl_root(*point)
        assert abs(Decimal(got) - exact) <= Decimal(1e-14) * abs(exact), point
        assert point[2] == 0.0 or got < 1.0, point


def test_kl_conjugate_does_not_overflow_where_its_square_does():
    # a = 1e300 - 1: a^2 overflows, a hypot of the halves does not; the
    # overwritten square raises no warning (RuntimeWarnings are errors here)
    for wbar, counts in ((1e300, 5e300), (1.5e308, 1e300)):
        got = prox.kl_conjugate_prox(np.array([wbar]), 1.0, counts, 0.0)[0]
        exact = kl_root(wbar, 1.0, counts, 0.0)
        assert abs(Decimal(got) - exact) <= Decimal(1e-14) * abs(exact)


def test_kl_conjugate_keeps_its_closed_form_bits_where_a_is_not_positive(rng):
    wbar = rng.uniform(-5.0, 0.0, 500)
    sigma, counts, background = (rng.uniform(lo, hi, 500) for lo, hi in ((0.1, 2.0), (0.0, 5.0),
                                                                         (0.0, 0.5)))
    assert np.all(wbar - 1.0 + sigma * background <= 0.0)
    a = wbar - 1.0 + sigma * background
    closed = (wbar + 1.0 + sigma * background - np.sqrt(a * a + 4.0 * sigma * counts)) * 0.5
    assert prox.kl_conjugate_prox(wbar, sigma, counts, background).tobytes() == closed.tobytes()


def test_kl_rejects_negative_parameters():
    with pytest.raises(ValueError, match="counts"):
        prox.kl_conjugate_prox(np.zeros(2), 1.0, np.array([-1.0, 0.0]), 0.0)
    with pytest.raises(ValueError, match="background"):
        prox.kl_conjugate_prox(np.zeros(2), 1.0, 0.0, np.array([-1.0, 0.0]))


def test_moreau_identity_random_piecewise(rng):
    # x = prox_{tau h}(x) + tau * prox_{h*/tau}(x/tau) for h(v) = w|v - c|
    for _ in range(100):
        tau = rng.uniform(0.1, 3.0)
        w = rng.uniform(0.1, 2.0)
        c = rng.uniform(-1.0, 1.0)
        x = rng.uniform(-4.0, 4.0)

        def prox_h(step, point):
            return prox.soft_shrink(np.asarray(point), step * w, c)

        lhs = prox_h(tau, np.array([x]))[0]
        conj = moreau_conjugate_prox(prox_h, 1.0 / tau, np.array([x / tau]))[0]
        assert abs((lhs + tau * conj) - x) < 1e-10


def test_moreau_trivial_cases():
    # h = indicator of {0} -> h* = 0 -> conjugate prox is the identity
    def prox_zero_point(step, point):
        return np.zeros_like(np.asarray(point))

    x = np.array([1.7, -2.3])
    assert np.allclose(moreau_conjugate_prox(prox_zero_point, 1.3, x), x)

    # h(v) = v^2/2 is self-conjugate: prox_{h*}(x) = x/2 at unit step
    def prox_quad(step, point):
        return np.asarray(point) / (1.0 + step)

    assert np.allclose(moreau_conjugate_prox(prox_quad, 1.0, x), x / 2.0)


def test_firm_nonexpansiveness_all_proxes(rng):
    # |P(x) - P(y)|^2 <= <P(x) - P(y), x - y> + 1e-10
    n = 200
    x = rng.uniform(-4, 4, n)
    y = rng.uniform(-4, 4, n)

    def check(px, py):
        lhs = (px - py) ** 2
        rhs = (px - py) * (x - y)
        assert np.all(lhs <= rhs + 1e-10)

    check(prox.soft_shrink(x, 0.7, 0.3), prox.soft_shrink(y, 0.7, 0.3))
    check(prox.readout_conjugate_prox(x, 0.8, 1.5, 0.2),
          prox.readout_conjugate_prox(y, 0.8, 1.5, 0.2))
    check(prox.kl_conjugate_prox(x, 0.8, 2.0, 0.5),
          prox.kl_conjugate_prox(y, 0.8, 2.0, 0.5))
    px = np.stack(prox.project_epigraph_leaky_relu(0.2, x, y))
    qs = rng.uniform(-4, 4, (2, n))
    py = np.stack(prox.project_epigraph_leaky_relu(0.2, qs[0], qs[1]))
    lhs = np.sum((px - py) ** 2, axis=0)
    rhs = (px[0] - py[0]) * (x - qs[0]) + (px[1] - py[1]) * (y - qs[1])
    assert np.all(lhs <= rhs + 1e-10)


def test_step_validation():
    with pytest.raises(ValueError, match="step"):
        prox.soft_shrink(np.zeros(2), -1.0)
    with pytest.raises(ValueError, match="step"):
        prox.soft_shrink(np.zeros(2), 0.0)
    # elementwise steps broadcast
    got = prox.soft_shrink(np.array([2.0, 2.0]), np.array([0.5, 1.5]))
    assert np.allclose(got, [1.5, 0.5])
