"""AMSGrad optimizer (Adam with a running maximum of the second moment) and the
one epoch loop that drives it for task training and basis pretraining."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class AMSGrad:
    """Per-parameter adaptive steps; weight decay enters as an L2 gradient term.

    The moments ``m``, ``v`` and ``v_max`` are kept in each parameter's own dtype and
    updated in place, in the order of the textbook expressions, so a float64 model
    steps as a float64 formula does. A step works in one scratch array of a parameter's
    size at a time and in the parameter's gradient, which it leaves holding scratch
    values. A training loop runs ``zero_grad`` -> forward -> backward -> ``step``, so
    no gradient is held through the next forward.
    """

    beta1 = 0.9  # decay of the first-moment estimate
    beta2 = 0.999  # decay of the second-moment estimate
    eps = 1e-8  # added to the root of the largest second moment

    def __init__(self, params, learning_rate: float = 1e-3, weight_decay: float = 0.0):
        self.params: list[Tensor] = list(params)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.v_max = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v, v_max in zip(self.params, self.m, self.v, self.v_max):
            g = p.grad
            if g is None:
                continue
            scratch = np.empty_like(m)
            if self.weight_decay:
                g += np.multiply(p.data, self.weight_decay, out=scratch)
            # m = beta1 * m + (1 - beta1) * g
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=scratch)
            # v = beta2 * v + (1 - beta2) * g * g
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=scratch)
            v += np.multiply(scratch, g, out=scratch)
            np.maximum(v_max, np.divide(v, bc2, out=scratch), out=v_max)
            # step = learning_rate * (m / bc1) / (sqrt(v_max) + eps), the root in g
            np.sqrt(v_max, out=g)
            g += self.eps
            np.divide(m, bc1, out=scratch)
            scratch *= self.learning_rate
            scratch /= g
            p.data -= scratch


def _require_int(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an int (NumPy integers too, bools not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")


def check_run_config(config) -> None:
    """Raise ValueError unless ``config`` has int ``epochs`` and ``batch_size`` >= 1 and a finite
    ``learning_rate`` and ``weight_decay`` >= 0: a negative rate ascends, a NaN one poisons."""
    for name, least in (("epochs", 1), ("batch_size", 1),
                        ("learning_rate", 0), ("weight_decay", 0)):
        value = getattr(config, name)
        if name in ("epochs", "batch_size"):
            _require_int(name, value)
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
            optimizer.zero_grad()
            loss, terms, w = batch_loss(perm[start:start + batch])
            if not np.isfinite(loss.item()):
                detail = " ".join(f"{f}={t / w}" for f, t in zip(fields, terms))
                raise diverged(f"non-finite loss at epoch {epoch}: {detail}")
            loss.backward()
            optimizer.step()
            sums += terms
            weight += w
        yield {"epoch": epoch, **dict(zip(fields, (sums / weight).tolist()))}
