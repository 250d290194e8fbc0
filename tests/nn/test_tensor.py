"""Autograd correctness: every op is checked against numerical gradients."""

import numpy as np
import pytest

from repro.nn import Tensor, concat, matmul_const, stack


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn w.r.t. array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(op, shape, seed=0, scale=1.0, tol=1e-5):
    """Compare autograd with numerical gradient for a unary tensor op."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * scale
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    loss = (out * out).sum()
    loss.backward()

    def scalar_fn(arr):
        o = op(Tensor(arr))
        return float((o.data ** 2).sum())

    expected = numerical_grad(scalar_fn, x.copy())
    np.testing.assert_allclose(t.grad, expected, rtol=tol, atol=tol)


class TestElementwiseOps:
    def test_add(self):
        check_gradient(lambda t: t + 3.0, (3, 4))

    def test_sub(self):
        check_gradient(lambda t: 5.0 - t, (3, 4))

    def test_mul(self):
        check_gradient(lambda t: t * 2.5, (3, 4))

    def test_div(self):
        check_gradient(lambda t: t / 2.0, (4,))

    def test_rdiv(self):
        check_gradient(lambda t: 1.0 / t, (4,), scale=1.0, seed=3)

    def test_pow(self):
        check_gradient(lambda t: (t * t + 1.0) ** 1.5, (3,))

    def test_neg(self):
        check_gradient(lambda t: -t, (2, 3))

    def test_exp(self):
        check_gradient(lambda t: t.exp(), (3, 3), scale=0.5)

    def test_log(self):
        check_gradient(lambda t: (t * t + 1.0).log(), (4,))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh(), (5,))

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid(), (5,))

    def test_abs(self):
        check_gradient(lambda t: (t + 10.0).abs(), (4,))

    def test_relu_grad_zero_below(self):
        t = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.0, 1.0, 1.0])

    def test_leaky_relu(self):
        t = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        t.leaky_relu(0.1).sum().backward()
        np.testing.assert_allclose(t.grad, [0.1, 1.0])


class TestMatmul:
    def test_matmul_2d(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        ((a @ b) ** 2).sum().backward()
        a_num = numerical_grad(
            lambda arr: float(((arr @ b.data) ** 2).sum()), a.data.copy())
        b_num = numerical_grad(
            lambda arr: float(((a.data @ arr) ** 2).sum()), b.data.copy())
        np.testing.assert_allclose(a.grad, a_num, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(b.grad, b_num, rtol=1e-5, atol=1e-6)

    def test_matmul_vector(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        v = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        (a @ v).sum().backward()
        np.testing.assert_allclose(v.grad, [4.0, 6.0])
        np.testing.assert_allclose(a.grad, [[1.0, -1.0], [1.0, -1.0]])

    def test_matmul_const(self):
        m = np.array([[0.5, 0.5], [1.0, 0.0]])
        x = Tensor(np.array([[1.0], [3.0]]), requires_grad=True)
        out = matmul_const(m, x)
        np.testing.assert_allclose(out.data, [[2.0], [1.0]])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, m.T @ np.ones((2, 1)))


class TestPackedOps:
    """The ops a pack of zero-padded nets leans on."""

    def test_getitem_basic_slices(self):
        check_gradient(lambda t: t[1:, ::2] * 1.5, (3, 5))
        check_gradient(lambda t: t[..., 2], (2, 3, 4))
        check_gradient(lambda t: t[None, 0, 1:3], (3, 4))

    def test_getitem_advanced_index_accumulates_repeats(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        t[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0])

    def test_batched_matmul_const(self):
        m = np.random.default_rng(2).normal(size=(3, 4, 5))
        check_gradient(lambda t: matmul_const(m, t), (3, 5, 2))

    def test_stacked_rows_times_matrix(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        ((a @ b) ** 2).sum().backward()
        a_num = numerical_grad(
            lambda arr: float(((arr @ b.data) ** 2).sum()), a.data.copy())
        b_num = numerical_grad(
            lambda arr: float(((a.data @ arr) ** 2).sum()), b.data.copy())
        np.testing.assert_allclose(a.grad, a_num, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(b.grad, b_num, rtol=1e-5, atol=1e-6)

    def test_key_masked_softmax(self):
        keep = np.array([[True, True, True, True],
                         [True, True, False, False]])
        bias = np.where(keep, 0.0, -np.inf)[:, None, :]
        check_gradient(lambda t: t.softmax(axis=-1, scale=0.7, bias=bias),
                       (2, 3, 4), tol=1e-4)
        t = Tensor(np.random.default_rng(4).normal(size=(2, 3, 4)),
                   requires_grad=True)
        out = t.softmax(axis=-1, bias=bias)
        assert np.all(out.data[1, :, 2:] == 0.0)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0)
        (out * Tensor(np.arange(24.0).reshape(2, 3, 4))).sum().backward()
        assert np.all(t.grad[1, :, 2:] == 0.0)


class TestReductionsAndShape:
    def test_sum_axis(self):
        check_gradient(lambda t: t.sum(axis=0), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda t: t.sum(axis=1, keepdims=True), (3, 4))

    def test_mean(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 3), 1.0 / 6.0))

    def test_mean_axis(self):
        check_gradient(lambda t: t.mean(axis=-1), (4, 5))

    def test_max(self):
        t = Tensor(np.array([1.0, 5.0, 3.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_reshape(self):
        check_gradient(lambda t: t.reshape(6), (2, 3))

    def test_transpose(self):
        check_gradient(lambda t: t.T, (2, 3))

    def test_getitem(self):
        t = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        t[1].sum().backward()
        expected = np.zeros((3, 4))
        expected[1] = 1.0
        np.testing.assert_allclose(t.grad, expected)


class TestSoftmaxConcat:
    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        s = t.softmax(axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4))

    def test_softmax_gradient(self):
        check_gradient(lambda t: t.softmax(axis=-1), (3, 5), tol=1e-4)

    def test_softmax_stable_large_logits(self):
        t = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        s = t.softmax(axis=-1).data
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s.sum(), 1.0)

    def test_concat_values_and_grads(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(2 * np.ones((2, 2)), requires_grad=True)
        c = concat([a, b], axis=-1)
        assert c.shape == (2, 5)
        (c * np.arange(5.0)).sum().backward()
        np.testing.assert_allclose(a.grad, np.tile([0.0, 1.0, 2.0], (2, 1)))
        np.testing.assert_allclose(b.grad, np.tile([3.0, 4.0], (2, 1)))

    def test_stack(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        s = stack([a, b], axis=0)
        assert s.shape == (2, 3)
        s[0].sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.zeros(3))

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat([])


class TestBackwardMechanics:
    def test_broadcasting_add_bias(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_reused_tensor_accumulates(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        y = t * t  # t used twice
        y.backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_diamond_graph(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        a = t * 2.0
        b = t * 5.0
        (a + b).backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_backward_nonscalar_raises(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_without_grad_raises(self):
        t = Tensor(np.ones(1))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_detach_cuts_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        out = d * 3.0
        assert not out.requires_grad

    def test_no_grad_tracking_for_constants(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3))
        assert not (a + b).requires_grad

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(np.ones(4), requires_grad=True)
        x = t
        for _ in range(3000):
            x = x * 1.0001
        x.sum().backward()
        assert t.grad is not None
