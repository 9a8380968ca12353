import numpy as np
import pytest

import epirecon as er


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_relu_1d(weight=1.0):
    """R(x) = relu(weight * x) on scalars."""
    layer = er.IcnnLayer(er.Dense([[weight]]), None, [0.0], er.Activation("relu"))
    return er.IcnnSpec((1,), (layer,))


def make_two_layer_1d():
    """z1 = relu(x); R = x + z1 (identity final layer, both weights 1)."""
    l1 = er.IcnnLayer(er.Dense([[1.0]]), None, [0.0], er.Activation("relu"))
    l2 = er.IcnnLayer(er.Dense([[1.0]]), er.Dense([[1.0]]), [0.0],
                      er.Activation("identity"))
    return er.IcnnSpec((1,), (l1, l2))


CT12_SCALES = (100.0, 50.0, 5.0)


def make_ct12_problem():
    """Criterion 5's 12x12 CT desk problem (KL dualized through Radon); its
    dual scales are CT12_SCALES."""
    spec = er.random_admissible(551, er.ConvPoolDenseTemplate(
        side=12, filters=2, kernel=3, pool=4, hidden=4))
    truth = er.make_phantom("smooth_blobs", 12, 6)
    geom = er.RadonGeometry(image_side=12, n_angles=12, n_bins=18)
    cfg = er.TaskConfig(kind="ct", image_side=12, poisson_scale=1e4,
                        background=50.0, geometry=geom, seed=17)
    problem, _ = er.build_problem(cfg, truth, spec, 20.0)
    return problem


def operator_network(side=8):
    """A side x side network of three layers: a scaled_identity skip (relu), a
    radon skip and carry (relu) and a dense carry (identity) to a scalar."""
    bins = side * 3 // 2
    geometry = er.RadonGeometry(image_side=side, n_angles=2, n_bins=bins)
    first = er.IcnnLayer(er.ScaledIdentity((side, side), 0.5), None, np.zeros((side, side)),
                         er.Activation("relu"))
    second = er.IcnnLayer(er.Radon(geometry), er.Radon(geometry), np.zeros((2, bins)),
                          er.Activation("relu"))
    third = er.IcnnLayer(None, er.Dense(np.full((1, 2 * bins), 0.1), input_shape=(2, bins)),
                         np.zeros(1), er.Activation("identity"))
    return er.IcnnSpec((side, side), (first, second, third))


class CustomOp(er.LinOp):
    """The identity on (2,) as an operator kind the package does not know."""

    kind = "custom"
    input_shape = output_shape = (2,)

    def _apply(self, x):
        return x.copy()

    def _adjoint(self, w):
        return w.copy()
