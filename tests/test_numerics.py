import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ahmca.errors import NonFiniteError
from ahmca.numerics import check_finite, grad_check, sigmoid
from oracles import sigmoid as sigmoid_expression


def test_check_finite_rejects_nan():
    with pytest.raises(NonFiniteError):
        check_finite(np.array([[np.nan, 0.0]]))
    with pytest.raises(NonFiniteError):
        check_finite(np.array([np.inf]))
    x = np.array([1.0, -2.0])
    assert check_finite(x) is x


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (2, 3), elements=st.floats(-30, 30)))
def test_sigmoid_symmetry(x):
    s = sigmoid(x) + sigmoid(-x)
    assert np.allclose(s, 1.0, atol=1e-12)


def test_sigmoid_saturates():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert np.array_equal(s, [0.0, 0.5, 1.0])
    assert sigmoid(np.zeros(3, dtype=np.float32)).dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_sigmoid_out_is_bitwise(dtype):
    x = np.random.default_rng(3).normal(0, 8, (5, 4, 2, 3)).astype(dtype)
    x[0, 0, 0] = [-1000, 0, 1000]
    want = sigmoid_expression(x)
    assert sigmoid(x).tobytes() == want.tobytes()
    out = np.empty_like(x)
    assert sigmoid(x, out=out) is out
    assert out.tobytes() == want.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sigmoid(x, out=x) is x
    assert x.tobytes() == want.tobytes()


def test_grad_check_square():
    def f(params):
        w = params["w"]
        return float(w[0] ** 2), {"w": 2 * w}

    rep = grad_check(f, {"w": np.array([3.0])}, tolerance=1e-6)
    assert rep.passed
    assert rep.worst < 1e-6


def test_grad_check_sigmoid_affine_chain():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(3)

    def f(params):
        W, b = params["W"], params["b"]
        z = W @ x + b
        s = sigmoid(z)
        loss = float(s.sum())
        dz = s * (1 - s)
        return loss, {"W": np.outer(dz, x), "b": dz}

    point = {"W": rng.standard_normal((3, 3)), "b": rng.standard_normal(3)}
    rep = grad_check(f, point, tolerance=1e-6)
    assert rep.passed


def test_grad_check_catches_wrong_gradient():
    def f(params):
        w = params["w"]
        return float(w[0] ** 2), {"w": 3 * w}  # deliberately wrong

    rep = grad_check(f, {"w": np.array([2.0])}, tolerance=1e-6)
    assert not rep.passed


def test_grad_check_nonfinite_loss():
    def f(params):
        return float("nan"), {"w": np.zeros(1)}

    with pytest.raises(NonFiniteError):
        grad_check(f, {"w": np.zeros(1)})
