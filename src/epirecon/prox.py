"""Exact proximal operators and epigraphical projections.

Everything here is componentwise and accepts scalar or (broadcastable)
array step sizes. The projection onto a leaky-relu epigraph and the
readout-conjugate clip are the two nonstandard maps; both come with an
independent numeric oracle (golden-section / grid search, see verify) in
the test suite.
"""

import numpy as np

from .tensor import check_shape


def _check_step(step):
    step = np.asarray(step, dtype=np.float64)
    if np.any(step <= 0.0) or not np.all(np.isfinite(step)):
        raise ValueError("step must be positive and finite")
    return step


def soft_shrink(xbar, threshold, center=0.0):
    """Prox of threshold * |. - center|_1 (threshold = step * weight).

    Componentwise: xbar - t where xbar - center > t, xbar + t where
    xbar - center < -t, center inside the dead zone.
    """
    xbar = np.asarray(xbar, dtype=np.float64)
    t = _check_step(threshold)
    diff = xbar - center
    return np.where(diff > t, xbar - t, np.where(diff < -t, xbar + t, center))


def project_epigraph_leaky_relu(alpha, pbar, qbar):
    """Componentwise Euclidean projection onto {(p, q) : max(p, alpha*p) <= q}.

    Four branches, first match wins at ties:
      inside the epigraph           -> unchanged
      |q| <= p                      -> foot on the right edge q = p
      q <= alpha*p and p <= -alpha*q -> foot on the left edge q = alpha*p
      otherwise                     -> the corner (0, 0)
    alpha = 0 is the plain relu; alpha = 1 degenerates to the halfplane p <= q.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"negative slope must lie in [0, 1], got {alpha}")
    pbar = np.asarray(pbar, dtype=np.float64)
    qbar = np.asarray(qbar, dtype=np.float64)
    check_shape(qbar, pbar.shape, "epigraph projection")
    inside = np.maximum(pbar, alpha * pbar) <= qbar
    right = np.abs(qbar) <= pbar
    mid_r = (pbar + qbar) / 2.0
    left = (qbar <= alpha * pbar) & (pbar <= -alpha * qbar)
    foot_l = (pbar + alpha * qbar) / (1.0 + alpha * alpha)
    p = np.where(inside, pbar,
                 np.where(right, mid_r,
                          np.where(left, foot_l, 0.0)))
    q = np.where(inside, qbar,
                 np.where(right, mid_r,
                          np.where(left, alpha * foot_l, 0.0)))
    return p, q


def readout_conjugate_prox(wbar, sigma, cap, bias=0.0, negative_slope=0.0):
    """Prox of the conjugate of w -> sum_i cap_i * act(w_i + bias_i).

    For the piecewise-linear act with slopes (negative_slope, 1) and
    cap >= 0, the conjugate is -<bias, v> plus the indicator of the box
    [negative_slope*cap, cap], so the prox is the componentwise clip
      clip(wbar + sigma*bias, negative_slope*cap, cap).
    negative_slope 0 covers relu, 1 covers the identity readout.
    """
    sigma = _check_step(sigma)
    cap = np.asarray(cap, dtype=np.float64)
    if np.any(cap < 0.0):
        raise ValueError("readout weights must be nonnegative")
    if not 0.0 <= negative_slope <= 1.0:
        raise ValueError(f"negative slope must lie in [0, 1], got {negative_slope}")
    shifted = np.asarray(wbar, dtype=np.float64) + sigma * bias
    return np.clip(shifted, negative_slope * cap, cap)


def kl_conjugate_prox(wbar, sigma, counts, background):
    """Prox of the conjugate of w -> sum(w - counts + bg) + counts.log(counts/(w+bg)).

    Componentwise closed form
      (wbar + 1 + sigma*bg - sqrt((wbar - 1 + sigma*bg)^2 + 4*sigma*counts)) / 2.
    The output is < 1 strictly wherever counts > 0 (dual feasibility).
    """
    sigma = _check_step(sigma)
    counts = np.asarray(counts, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if np.any(counts < 0.0):
        raise ValueError("counts must be nonnegative")
    if np.any(background < 0.0):
        raise ValueError("background must be nonnegative")
    wbar = np.asarray(wbar, dtype=np.float64)
    shift = sigma * background
    return 0.5 * (wbar + 1.0 + shift
                  - np.sqrt((wbar - 1.0 + shift) ** 2 + 4.0 * sigma * counts))


def l1_conjugate_prox(wbar, sigma, weight, measurement):
    """Prox of the conjugate of w -> weight*|w - measurement|_1: a shifted box clip."""
    sigma = _check_step(sigma)
    return np.clip(np.asarray(wbar, dtype=np.float64) - sigma * measurement, -weight, weight)


def l2_conjugate_prox(wbar, sigma, measurement, weight=1.0):
    """Prox of the conjugate of w -> (weight/2)*|w - measurement|^2."""
    sigma = _check_step(sigma)
    return (np.asarray(wbar, dtype=np.float64) - sigma * measurement) / (1.0 + sigma / weight)
