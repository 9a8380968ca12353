"""Exact proximal operators and epigraphical projections.

Everything here is componentwise and accepts scalar or (broadcastable)
array step sizes. The projection onto a leaky-relu epigraph and the
readout-conjugate clip are the two nonstandard maps; both come with an
independent numeric oracle (golden-section search, see verify) in the
test suite.
"""

import numpy as np

from .tensor import as_array, as_real, check_shape


def _out(*operands):
    """A new float array of the operands' broadcast shape."""
    return np.empty(np.broadcast_shapes(*(np.shape(v) for v in operands)))


# --- formula kernels ------------------------------------------------------------
# Each builder fixes a prox's step and data and returns its formula as a
# kernel that checks nothing and writes its result into preallocated float
# arrays. The public functions check their arguments, then build and call
# the same kernel; the PDHG solve plan builds each kernel once, on steps and
# data already checked, and calls it every iteration.

def shrink_kernel(threshold, center=0.0):
    """kernel(xbar, out): soft_shrink at threshold around center; out may be xbar."""
    def kernel(xbar, out):
        diff = xbar - center
        np.copyto(out, np.where(diff > threshold, xbar - threshold,
                                np.where(diff < -threshold, xbar + threshold, center)))
        return out
    return kernel


def clip_kernel(shift, lo, hi):
    """kernel(wbar, out): clip(wbar + shift, lo, hi); out may be wbar."""
    def kernel(wbar, out):
        np.add(wbar, shift, out=out)
        return out.clip(lo, hi, out=out)
    return kernel


def ratio_kernel(shift, denom):
    """kernel(wbar, out): (wbar + shift) / denom; out may be wbar."""
    def kernel(wbar, out):
        np.add(wbar, shift, out=out)
        return np.divide(out, denom, out=out)
    return kernel


def epigraph_kernel(alpha, shape):
    """kernel(pbar, qbar, p, q): the projection of project_epigraph_leaky_relu
    on arrays of `shape`, into p and q (not aliasing pbar or qbar)."""
    right = np.empty(shape)
    inside = np.empty(shape, dtype=bool)
    ray = 1.0 + alpha * alpha  # squared length of (1, alpha)

    def kernel(pbar, qbar, p, q):
        np.multiply(pbar, alpha, out=q)  # scratch for max(p, alpha*p)
        np.maximum(pbar, q, out=q)
        np.less_equal(q, qbar, out=inside)
        np.add(pbar, qbar, out=right)
        np.multiply(right, 0.5, out=right)
        np.maximum(right, 0.0, out=right)  # r
        np.multiply(qbar, alpha, out=q)
        np.add(pbar, q, out=q)
        np.divide(q, ray, out=q)
        np.minimum(q, 0.0, out=q)  # l
        np.add(right, q, out=p)
        np.multiply(q, alpha, out=q)
        np.add(right, q, out=q)
        np.copyto(p, pbar, where=inside)
        np.copyto(q, qbar, where=inside)
        return p, q
    return kernel


def epigraph_conjugate_kernel(sigma, bias, alpha, shape):
    """kernel(pbar, qbar, p, q): into p and q, the prox at step sigma of the conjugate
    of the indicator of {max(p + bias, alpha*(p + bias)) <= q}. The epigraph E is a
    cone, so sigma * P(v / sigma) = P(v), and by Moreau the prox is v - P(v) at
    v = (pbar + sigma*bias, qbar), which the call leaves in pbar."""
    shift = sigma * bias
    project = epigraph_kernel(alpha, shape)

    def kernel(pbar, qbar, p, q):
        np.add(pbar, shift, out=pbar)
        project(pbar, qbar, p, q)
        np.subtract(pbar, p, out=p)
        return p, np.subtract(qbar, q, out=q)
    return kernel


def readout_kernel(sigma, cap, bias=0.0, negative_slope=0.0):
    """kernel(wbar, out) of readout_conjugate_prox at step sigma."""
    return clip_kernel(sigma * bias, negative_slope * cap, cap)


def kl_conjugate_kernel(sigma, counts, background, shape):
    """kernel(wbar, out) of kl_conjugate_prox at step sigma on arrays of `shape`; out may
    be wbar. Where a = wbar - 1 + sigma*bg > 0 the root is taken without cancellation,
    as 1 - 2*sigma*counts / (a + sqrt(a^2 + 4*sigma*counts)), from halves that do not overflow;
    where a^2 overflows with a < 0, as 1 + a/2 - hypot(a/2, sqrt(sigma*counts))."""
    shift = sigma * background
    spread = 4.0 * sigma * counts
    half = np.sqrt(sigma * counts)  # sqrt(spread) / 2
    a, root = np.empty(shape), np.empty(shape)
    ahead, huge = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)

    def kernel(wbar, out):
        np.subtract(wbar, 1.0, out=a)
        np.add(a, shift, out=a)
        np.square(a, out=root)
        np.add(root, spread, out=root)
        np.sqrt(root, out=root)
        np.add(wbar, 1.0, out=out)
        np.add(out, shift, out=out)
        np.subtract(out, root, out=out)
        np.multiply(out, 0.5, out=out)
        if not (np.greater(a, 0.0, out=ahead).any() | np.isinf(root, out=huge).any()):
            return out
        np.multiply(a, 0.5, out=a)
        np.hypot(a, half, out=root)
        np.subtract(a, root, out=out, where=huge)
        np.add(out, 1.0, out=out, where=huge)
        np.add(a, root, out=a)  # (a + sqrt(a^2 + spread)) / 2
        np.divide(spread, a, out=a, where=ahead)
        np.multiply(a, 0.25, out=a, where=ahead)
        return np.subtract(1.0, a, out=out, where=ahead)
    return kernel


def l1_conjugate_kernel(sigma, weight, measurement):
    """kernel(wbar, out): prox at step sigma of the conjugate of weight*|w - measurement|_1."""
    return clip_kernel(-(sigma * measurement), -weight, weight)


def l2_conjugate_kernel(sigma, measurement, weight=1.0):
    """kernel(wbar, out): prox at step sigma of the conjugate of (weight/2)*|w - measurement|^2."""
    return ratio_kernel(-(sigma * measurement), 1.0 + sigma / weight)


# --- checked proxes -------------------------------------------------------------

def soft_shrink(xbar, threshold, center=0.0):
    """Prox of threshold * |. - center|_1 (threshold = step * weight).

    Componentwise: xbar - t where xbar - center > t, xbar + t where
    xbar - center < -t, center inside the dead zone.
    """
    xbar = np.asarray(xbar, dtype=np.float64)
    t, center = as_array(threshold, "step", "positive"), as_array(center, "center")
    return shrink_kernel(t, center)(xbar, _out(xbar, t, center))


def project_epigraph_leaky_relu(alpha, pbar, qbar):
    """Componentwise Euclidean projection onto {(p, q) : max(p, alpha*p) <= q}.

    Four branches, first match wins at ties:
      inside the epigraph           -> unchanged
      |q| <= p                      -> foot on the right edge q = p
      q <= alpha*p and p <= -alpha*q -> foot on the left edge q = alpha*p
      otherwise                     -> the corner (0, 0)
    alpha = 0 is the plain relu; alpha = 1 degenerates to the halfplane p <= q.

    Branch-free: outside the epigraph the foot is r*(1, 1) + l*(1, alpha)
    with the right-ray foot r = max((p+q)/2, 0) and the left-ray foot
    l = min((p + alpha*q)/(1 + alpha^2), 0). At most one of the two is
    nonzero (both vanish in the corner), so each branch's foot comes out
    exactly; inside points are copied back unchanged.
    """
    alpha = as_real(alpha, "negative slope", "within [0, 1]")
    pbar = np.asarray(pbar, dtype=np.float64)
    qbar = np.asarray(qbar, dtype=np.float64)
    check_shape(qbar, pbar.shape, "epigraph projection")
    # out= buffers throughout: a ufunc on 0-d operands without out= returns
    # a numpy scalar, which cannot be written in place
    return epigraph_kernel(alpha, pbar.shape)(pbar, qbar, np.empty(pbar.shape),
                                              np.empty(pbar.shape))


def readout_conjugate_prox(wbar, sigma, cap, bias=0.0, negative_slope=0.0):
    """Prox of the conjugate of w -> sum_i cap_i * act(w_i + bias_i).

    For the piecewise-linear act with slopes (negative_slope, 1) and
    cap >= 0, the conjugate is -<bias, v> plus the indicator of the box
    [negative_slope*cap, cap], so the prox is the componentwise clip
      clip(wbar + sigma*bias, negative_slope*cap, cap).
    negative_slope 0 covers relu, 1 covers the identity readout.
    """
    sigma = as_array(sigma, "step", "positive")
    cap = as_array(cap, "readout weights", "nonnegative")
    bias = as_array(bias, "bias")
    negative_slope = as_real(negative_slope, "negative slope", "within [0, 1]")
    return readout_kernel(sigma, cap, bias, negative_slope)(
        wbar, _out(wbar, sigma, cap, bias))


def kl_conjugate_prox(wbar, sigma, counts, background):
    """Prox of the conjugate of w -> sum(w - counts + bg) + counts.log(counts/(w+bg)).

    Componentwise closed form
      (wbar + 1 + sigma*bg - sqrt((wbar - 1 + sigma*bg)^2 + 4*sigma*counts)) / 2.
    The output is < 1 strictly wherever counts > 0 (dual feasibility).
    """
    sigma = as_array(sigma, "step", "positive")
    counts = as_array(counts, "counts", "nonnegative")
    background = as_array(background, "background", "nonnegative")
    out = _out(wbar, sigma, counts, background)
    with np.errstate(over="ignore", invalid="ignore"):  # the a > 0 root overwrites a^2
        return kl_conjugate_kernel(sigma, counts, background, out.shape)(wbar, out)

