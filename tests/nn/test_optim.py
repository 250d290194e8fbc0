"""Optimizers, schedules and losses: convergence on analytic problems."""

import numpy as np
import pytest

from repro.nn import (Adam, AdamW, CosineSchedule, Linear, SGD, Tensor,
                      huber_loss, mae_loss, mse_loss)
from repro.nn.layers import Parameter


def quadratic_descent(optimizer_cls, **kwargs):
    """Minimize ||x - target||^2; returns the final parameter value."""
    p = Parameter(np.array([5.0, -3.0]))
    target = np.array([1.0, 2.0])
    opt = optimizer_cls([p], **kwargs)
    for _ in range(300):
        opt.zero_grad()
        loss = ((p - Tensor(target)) ** 2).sum()
        loss.backward()
        opt.step()
    return p.data


class TestOptimizers:
    def test_sgd_converges(self):
        final = quadratic_descent(SGD, lr=0.1)
        np.testing.assert_allclose(final, [1.0, 2.0], atol=1e-4)

    def test_sgd_momentum_converges(self):
        final = quadratic_descent(SGD, lr=0.05, momentum=0.9)
        np.testing.assert_allclose(final, [1.0, 2.0], atol=1e-3)

    def test_adam_converges(self):
        final = quadratic_descent(Adam, lr=0.1)
        np.testing.assert_allclose(final, [1.0, 2.0], atol=1e-3)

    def test_adamw_converges(self):
        final = quadratic_descent(AdamW, lr=0.1, weight_decay=1e-4)
        np.testing.assert_allclose(final, [1.0, 2.0], atol=1e-2)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([10.0]))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()  # zero data gradient
        opt.step()
        assert abs(p.data[0]) < 10.0

    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_negative_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_skips_none_grads(self):
        p1 = Parameter(np.array([1.0]))
        p2 = Parameter(np.array([2.0]))
        opt = Adam([p1, p2], lr=0.1)
        (p1 * 2.0).sum().backward()
        opt.step()  # p2 has no grad; must not crash
        np.testing.assert_allclose(p2.data, [2.0])


class TestAdamWDecoupledDecay:
    def test_decay_applied_exactly_once_per_step(self):
        """A zero-gradient parameter shrinks by exactly lr * wd * value."""
        p = Parameter(np.array([10.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        # Decoupled decay only (the Adam update of a zero grad is zero).
        assert p.data[0] == pytest.approx(10.0 * (1.0 - 0.1 * 0.5))
        opt.step()
        assert p.data[0] == pytest.approx(10.0 * (1.0 - 0.1 * 0.5) ** 2)

    def test_decay_not_folded_into_moments(self):
        """Decoupled decay must leave the Adam moments untouched."""
        p = Parameter(np.array([10.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_allclose(opt._m[0], [0.0])
        np.testing.assert_allclose(opt._v[0], [0.0])

    def test_weight_decay_attribute_stable(self):
        """No temporary self.weight_decay=0 mutation, even mid-step."""
        p = Parameter(np.array([1.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.25)
        p.grad = np.array([0.3])
        opt.step()
        assert opt.weight_decay == 0.25
        assert opt.decoupled is True

    def test_survives_exception_in_step(self):
        """A crash inside step() must not leave weight_decay zeroed."""
        p = Parameter(np.array([1.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.25)
        p.grad = np.array([float("nan")])  # survives: no exception path
        opt.step()
        assert opt.weight_decay == 0.25
        # Force a real failure: corrupt internal state so step() raises.
        opt._m = np.zeros(2)  # wrong size -> broadcast error
        p.grad = np.array([0.5])
        with pytest.raises(ValueError):
            opt.step()
        assert opt.weight_decay == 0.25

    def test_matches_adam_with_decoupled_flag(self):
        """AdamW is exactly Adam(decoupled=True) — same trajectory."""
        rng = np.random.default_rng(3)
        start = rng.normal(size=4)
        grads = [rng.normal(size=4) for _ in range(5)]
        pa = Parameter(start.copy())
        pw = Parameter(start.copy())
        adam = Adam([pa], lr=0.05, weight_decay=0.1, decoupled=True)
        adamw = AdamW([pw], lr=0.05, weight_decay=0.1)
        for grad in grads:
            pa.grad = grad.copy()
            pw.grad = grad.copy()
            adam.step()
            adamw.step()
        np.testing.assert_array_equal(pa.data, pw.data)


class TestGradClipping:
    def test_clip_reduces_norm(self):
        p = Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1)
        p.grad = np.full(4, 10.0)
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(2))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([0.3, 0.4])
        opt.clip_grad_norm(10.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])


class TestCosineSchedule:
    def test_warmup_then_decay(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0)
        sched = CosineSchedule(opt, total_steps=10, warmup_steps=2)
        lrs = [sched.step() for _ in range(10)]
        assert lrs[0] == pytest.approx(0.5)
        assert lrs[1] == pytest.approx(1.0)
        assert lrs[-1] == pytest.approx(0.0, abs=1e-9)
        assert all(a >= b for a, b in zip(lrs[1:], lrs[2:]))

    def test_invalid_total_steps(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            CosineSchedule(Adam([p], lr=1.0), total_steps=0)


class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 2.0]))
        target = Tensor(np.array([0.0, 4.0]))
        assert mse_loss(pred, target).item() == pytest.approx(2.5)

    def test_mae_value(self):
        pred = Tensor(np.array([1.0, 2.0]))
        target = Tensor(np.array([0.0, 4.0]))
        assert mae_loss(pred, target).item() == pytest.approx(1.5)

    def test_huber_between_mse_and_mae_in_tails(self):
        pred = Tensor(np.array([100.0]))
        target = Tensor(np.array([0.0]))
        h = huber_loss(pred, target, delta=1.0).item()
        assert h < mse_loss(pred, target).item()
        assert h == pytest.approx(99.0, rel=0.02)

    def test_huber_quadratic_near_zero(self):
        pred = Tensor(np.array([0.01]))
        target = Tensor(np.array([0.0]))
        h = huber_loss(pred, target, delta=1.0).item()
        assert h == pytest.approx(0.5 * 0.01 ** 2, rel=1e-3)

    def test_huber_invalid_delta(self):
        with pytest.raises(ValueError):
            huber_loss(Tensor(np.zeros(1)), Tensor(np.zeros(1)), delta=0.0)

    def test_losses_backprop(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        target = Tensor(np.array([0.0, 0.0]))
        for loss_fn in (mse_loss, mae_loss, huber_loss):
            pred.zero_grad()
            loss_fn(pred, target).backward()
            assert pred.grad is not None


class TestLinearRegressionEndToEnd:
    def test_fits_line(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        true_w = np.array([[2.0], [-1.0], [0.5]])
        y = x @ true_w + 0.3
        layer = Linear(3, 1, rng)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            loss = mse_loss(layer(Tensor(x)), Tensor(y))
            loss.backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=1e-2)
        np.testing.assert_allclose(layer.bias.data, [0.3], atol=1e-2)


def reference_adam_step(params, moments, t, lr, betas, eps, weight_decay,
                        decoupled):
    """The per-parameter Adam update the flat-buffer step replaced."""
    beta1, beta2 = betas
    bias1, bias2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for p, (m, v) in zip(params, moments):
        if p.grad is None:
            continue
        grad = p.grad
        if weight_decay:
            if decoupled:
                p.data -= lr * weight_decay * p.data
            else:
                grad = grad + weight_decay * p.data
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad ** 2
        p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def reference_clip(params, max_norm):
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad ** 2))
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0.0:
        for p in params:
            if p.grad is not None:
                p.grad *= max_norm / norm


def _params(seed):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.normal(size=shape))
            for shape in ((3, 4), (4,), (2, 3, 2), (1,))]


class TestFlatBuffers:
    def test_parameters_are_views_of_one_buffer(self):
        params = _params(0)
        values = [p.data.copy() for p in params]
        Adam(params, lr=0.1)
        bases = {id(p.data.base) for p in params}
        assert len(bases) == 1 and params[0].data.base is not None
        assert {id(p.grad_view.base) for p in params} != bases
        for p, value in zip(params, values):
            np.testing.assert_array_equal(p.data, value)

    def test_state_dict_round_trips_into_the_views(self, rng):
        model = Linear(3, 2, rng)
        opt = Adam(model.parameters(), lr=0.1)
        saved = model.state_dict()
        model(Tensor(np.ones((4, 3)))).sum().backward()
        opt.step()
        assert not np.array_equal(model.weight.data, saved["weight"])
        model.load_state_dict(saved)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, saved[name])
        assert model.weight.data.base is model.bias.data.base
        model.zero_grad()
        model(Tensor(np.ones((4, 3)))).sum().backward()
        opt.step()
        assert not np.array_equal(model.weight.data, saved["weight"])

    @pytest.mark.parametrize("weight_decay,decoupled",
                             [(0.0, False), (0.1, False), (0.1, True)])
    def test_steps_are_bitwise_the_per_parameter_update(self, weight_decay,
                                                        decoupled):
        flat, ref = _params(1), _params(1)
        opt = Adam(flat, lr=0.05, weight_decay=weight_decay,
                   decoupled=decoupled)
        moments = [(np.zeros_like(p.data), np.zeros_like(p.data))
                   for p in ref]
        rng = np.random.default_rng(2)
        for t in range(1, 6):
            grads = [rng.normal(size=p.data.shape) * 3.0 for p in ref]
            # Step 3 leaves the second parameter without a gradient.
            for p, q, grad in zip(flat, ref, grads):
                skip = t == 3 and p is flat[1]
                p.grad = None if skip else grad.copy()
                q.grad = None if skip else grad.copy()
            assert opt.clip_grad_norm(2.0) == pytest.approx(
                np.sqrt(sum(np.sum(q.grad ** 2) for q in ref
                            if q.grad is not None)))
            reference_clip(ref, 2.0)
            opt.step()
            reference_adam_step(ref, moments, t, 0.05, (0.9, 0.999), 1e-8,
                                weight_decay, decoupled)
            for p, q in zip(flat, ref):
                assert p.data.tobytes() == q.data.tobytes()

    def test_assigned_gradient_is_clipped_and_stepped(self):
        p, other = Parameter(np.zeros(4)), Parameter(np.ones(2))
        opt = SGD([p, other], lr=0.5)
        p.grad = np.full(4, 10.0)
        assert opt.clip_grad_norm(1.0) == pytest.approx(20.0)
        np.testing.assert_allclose(p.grad, 0.5)
        opt.step()
        np.testing.assert_allclose(p.data, -0.25)
        np.testing.assert_array_equal(other.data, [1.0, 1.0])

    def test_parameter_without_gradient_is_untouched(self):
        p1, p2 = Parameter(np.array([1.0])), Parameter(np.array([2.0]))
        opt = Adam([p1, p2], lr=0.1, weight_decay=0.5, decoupled=True)
        for _ in range(3):
            opt.zero_grad()
            (p1 * 2.0).sum().backward()
            opt.clip_grad_norm(0.1)
            opt.step()
        np.testing.assert_array_equal(p2.data, [2.0])
        np.testing.assert_array_equal(opt._m[1:], [0.0])
        assert p1.data[0] < 1.0

    def test_sgd_momentum_matches_per_parameter_update(self):
        flat, ref = _params(3), _params(3)
        opt = SGD(flat, lr=0.1, momentum=0.9, weight_decay=0.01)
        velocity = [np.zeros_like(p.data) for p in ref]
        rng = np.random.default_rng(4)
        for _ in range(4):
            for p, q in zip(flat, ref):
                p.grad = rng.normal(size=p.data.shape)
                q.grad = p.grad.copy()
            opt.step()
            for q, v in zip(ref, velocity):
                grad = q.grad + 0.01 * q.data
                v *= 0.9
                v += grad
                q.data -= 0.1 * v
        for p, q in zip(flat, ref):
            assert p.data.tobytes() == q.data.tobytes()
