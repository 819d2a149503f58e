"""Tape operations that the tests compose and ``gcnmt`` never records.

``gcnmt.tensor`` keeps only the operations the package runs. The oracles
(``layer_oracle``, ``tf_oracle``) and the tests also need ``sub``, ``mul``,
``neg``, ``sigmoid``, ``softmax``, ``stack0`` and ``tsum``, each one node
with its adjoint under the rule ``tensor.node`` states, and ``grad_check``,
which compares ``backward`` against central differences. ``Tensor`` has no
``-``, ``*``, ``/`` or unary ``-`` operator: ``a * b`` is written
``mul(a, b)``, ``a - b`` ``sub(a, b)``, ``s - a`` ``sub(s, a)``, ``-a``
``neg(a)`` and ``a / s`` ``mul(a, 1.0 / float(s))``, the calls those
operators made.
"""

from dataclasses import dataclass

import numpy as np

from gcnmt.tensor import (
    ShapeError,
    Tensor,
    _as_tensor,
    _unbroadcast,
    backward,
    no_grad,
    node,
    zero_grads,
)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError as e:
        raise ShapeError(f"sub shapes {a.shape} and {b.shape} do not broadcast") from e

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return node(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul shapes {a.shape} and {b.shape} do not broadcast") from e

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return node(data, (a, b), bwd)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return node(-a.data, (a,), lambda g: (-g,))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))
    return node(data, (a,), lambda g: (g * data * (1.0 - data),))


def softmax(a, mask=None) -> Tensor:
    """Exp-normalize over the last axis; ``mask`` (True = keep) zeroes entries exactly."""
    a = _as_tensor(a)
    z = a.data
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), z.shape)
        if not m.any(axis=-1).all():
            raise ValueError("softmax: at least one unmasked position required")
        z = np.where(m, z, -np.inf)
    with np.errstate(invalid="ignore"):
        z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return node(y, (a,), bwd)


def stack0(tensors) -> Tensor:
    """Stack same-shaped tensors along a new leading axis."""
    ts = [_as_tensor(t) for t in tensors]
    return node(np.stack([t.data for t in ts]), tuple(ts), tuple)  # g[i] to ts[i]


def tsum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis)

    def bwd(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return node(data, (a,), bwd)


@dataclass
class GradCheckEntry:
    max_rel_err: float
    n_flagged: int

    @property
    def ok(self) -> bool:
        return self.n_flagged == 0


def grad_check(f, params: dict, epsilon: float = 1e-4, tolerance: float = 1e-4):
    """Compare backward gradients of ``f(params)`` against central differences.

    Returns ``{name: GradCheckEntry}`` where a coordinate is flagged when
    |analytic - numeric| / max(1, |numeric|) exceeds ``tolerance``. ``f``
    must be deterministic (fix any dropout masks and RNG up front).
    """
    zero_grads(params)
    loss = f(params)
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    report = {}
    with no_grad():
        for name, p in params.items():
            ana = analytic[name]
            max_err = 0.0
            flagged = 0
            for i in np.ndindex(p.shape):  # in place: .data may be any layout
                orig = p.data[i]
                p.data[i] = orig + epsilon
                lp = f(params).item()
                p.data[i] = orig - epsilon
                lm = f(params).item()
                p.data[i] = orig
                numeric = (lp - lm) / (2.0 * epsilon)
                if not (np.isfinite(numeric) and np.isfinite(ana[i])):
                    raise ValueError(f"grad_check: non-finite value at {name}{list(i)}")
                err = abs(ana[i] - numeric) / max(1.0, abs(numeric))
                max_err = max(max_err, err)
                if err > tolerance:
                    flagged += 1
            report[name] = GradCheckEntry(max_rel_err=max_err, n_flagged=flagged)
    return report
