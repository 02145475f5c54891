"""AMSGrad optimizer (Adam with a running maximum of the second moment) and the
one epoch loop that drives it for task training and basis pretraining."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class AMSGrad:
    """Per-parameter adaptive steps; weight decay enters as an L2 gradient term."""

    beta1 = 0.9  # decay of the first-moment estimate
    beta2 = 0.999  # decay of the second-moment estimate
    eps = 1e-8  # added to the root of the largest second moment

    def __init__(self, params, learning_rate: float = 1e-3, weight_decay: float = 0.0):
        self.params: list[Tensor] = list(params)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]
        self.v = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]
        self.v_max = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            if self.weight_decay:
                g = g + self.weight_decay * p.data.astype(np.float64)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            np.maximum(self.v_max[i], self.v[i] / bc2, out=self.v_max[i])
            step = self.learning_rate * (self.m[i] / bc1) / (np.sqrt(self.v_max[i]) + self.eps)
            p.data -= step.astype(p.data.dtype)


def check_run_config(config) -> None:
    """Raise ValueError unless ``config`` has int ``epochs`` and ``batch_size`` >= 1 and a finite
    ``learning_rate`` and ``weight_decay`` >= 0: a negative rate ascends, a NaN one poisons."""
    for name, least in (("epochs", 1), ("batch_size", 1),
                        ("learning_rate", 0), ("weight_decay", 0)):
        value = getattr(config, name)
        if name in ("epochs", "batch_size") and (
                isinstance(value, bool) or not isinstance(value, (int, np.integer))):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if not (np.isfinite(value) and value >= least):
            raise ValueError(f"{name} must be finite and >= {least}, got {value!r}")


def _run_epochs(params, config, n: int, rng: np.random.Generator, batch_loss,
                fields: tuple, diverged: type, drop_last: bool = False):
    """Run ``config.epochs`` AMSGrad epochs over ``n`` shuffled items; yield each epoch's row.

    ``batch_loss(indices)`` returns (loss tensor, terms summed over the batch,
    batch weight); the row maps each field to its summed terms over the summed
    weights. ``drop_last`` skips a short last batch. A non-finite loss raises ``diverged``.
    """
    optimizer = AMSGrad(params, config.learning_rate, config.weight_decay)
    batch = min(config.batch_size, n)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sums = np.zeros(len(fields))
        weight = 0
        for start in range(0, n - batch + 1 if drop_last else n, batch):
            loss, terms, w = batch_loss(perm[start:start + batch])
            if not np.isfinite(loss.item()):
                detail = " ".join(f"{f}={t / w}" for f, t in zip(fields, terms))
                raise diverged(f"non-finite loss at epoch {epoch}: {detail}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            sums += terms
            weight += w
        yield {"epoch": epoch, **dict(zip(fields, (sums / weight).tolist()))}
