"""Trainer behaviour: convergence, early stopping, best-state restore."""

import numpy as np
import pytest

from repro.nn import Adam, Linear, MLP, Module, Tensor, Trainer, mse_loss


class ToyModel(Module):
    """y = w x regression over (x, y) sample tuples."""

    def __init__(self, rng):
        super().__init__()
        self.layer = Linear(1, 1, rng)

    def forward(self, x):
        return self.layer(x)


def make_samples(rng, n=64, slope=3.0, noise=0.0):
    xs = rng.normal(size=(n, 1))
    return [(x.reshape(1, 1), slope * x.reshape(1, 1)
             + noise * rng.normal(size=(1, 1))) for x in xs]


def loss_fn(model, batch):
    xs, ys = zip(*batch)
    return mse_loss(model(Tensor(np.vstack(xs))), Tensor(np.vstack(ys)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestTrainerFit:
    def test_converges_on_linear_data(self, rng):
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), loss_fn)
        history = trainer.fit(make_samples(rng), epochs=60, batch_size=8)
        assert history.final_train_loss < 1e-3
        np.testing.assert_allclose(model.layer.weight.data, [[3.0]], atol=0.05)

    def test_history_records_epochs(self, rng):
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), loss_fn)
        history = trainer.fit(make_samples(rng, n=8), epochs=5, batch_size=4)
        assert len(history) == 5
        assert all(e.seconds >= 0 for e in history.epochs)

    def test_early_stopping(self, rng):
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), loss_fn)
        samples = make_samples(rng, n=32)
        val = make_samples(rng, n=8)
        history = trainer.fit(samples, epochs=500, batch_size=8,
                              val_samples=val, patience=5)
        assert len(history) < 500

    def test_best_state_restored(self, rng):
        """After early stopping, evaluation equals the best recorded value."""
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.2), loss_fn)
        samples = make_samples(rng, n=16, noise=0.5)
        val = make_samples(rng, n=8, noise=0.5)
        history = trainer.fit(samples, epochs=40, batch_size=4,
                              val_samples=val, patience=100)
        final_val = trainer.evaluate(val)
        assert final_val == pytest.approx(history.best_val_loss, rel=1e-6)

    def test_model_left_in_eval_mode(self, rng):
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), loss_fn)
        trainer.fit(make_samples(rng, n=4), epochs=1)
        assert not model.training

    def test_invalid_epochs(self, rng):
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), loss_fn)
        with pytest.raises(ValueError):
            trainer.fit([], epochs=0)

    def test_invalid_batch_size(self, rng):
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), loss_fn)
        with pytest.raises(ValueError):
            trainer.fit(make_samples(rng, n=4), epochs=1, batch_size=0)

    def test_grad_clip_allows_training(self, rng):
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), loss_fn,
                          grad_clip=0.5)
        history = trainer.fit(make_samples(rng), epochs=100, batch_size=16)
        assert history.final_train_loss < 0.05


class TestTrainerWithSchedule:
    def test_cosine_schedule_steps_each_epoch(self, rng):
        from repro.nn import CosineSchedule

        model = ToyModel(rng)
        opt = Adam(model.parameters(), lr=0.1)
        trainer = Trainer(model, opt, loss_fn)
        sched = CosineSchedule(opt, total_steps=10)
        history = trainer.fit(make_samples(rng, n=8), epochs=10,
                              batch_size=4, schedule=sched)
        lrs = [e.lr for e in history.epochs]
        # LR recorded per epoch decays towards zero under the cosine.
        assert lrs[-1] < lrs[0]
        assert opt.lr < 0.1


class TestEvaluateMode:
    """evaluate() leaves the model in the mode it found it in."""

    def test_eval_mode_kept_after_fit(self, rng):
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), loss_fn)
        samples = make_samples(rng, n=8)
        trainer.fit(samples, epochs=1, batch_size=4)
        trainer.evaluate(samples)
        assert not model.training
        assert not any(p.requires_grad for p in model.parameters())
        assert not model(Tensor(np.ones((1, 1)))).requires_grad

    def test_train_mode_restored(self, rng):
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), loss_fn)
        trainer.evaluate(make_samples(rng, n=5), batch_size=2)
        assert model.training
        assert all(p.requires_grad for p in model.parameters())

    def test_minibatched_mean_equals_per_sample_mean(self, rng):
        model = ToyModel(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), loss_fn)
        samples = make_samples(rng, n=7, noise=0.3)
        per_sample = np.mean([loss_fn(model, [s]).item() for s in samples])
        assert trainer.evaluate(samples, batch_size=3) == pytest.approx(
            per_sample, rel=1e-12)
