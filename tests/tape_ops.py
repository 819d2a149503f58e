"""Tape operations that the tests compose and ``gcnmt`` never records.

``gcnmt.tensor`` keeps only the operations the package records: the layer
nodes call ``tensor.node`` themselves, and the tape joins them with
``gather_rows`` and ``reshape`` alone. The oracles (``layer_oracle``,
``tf_oracle``, ``beam_oracle``) and the tests also need ``add``, ``sub``,
``mul``, ``neg``, ``matmul``, ``relu``, ``sigmoid``, ``tanh``,
``softmax``, ``concat``, ``slice_rows``, ``transpose``, ``stack0``,
``tsum`` and ``weighted_sum``, each one node with its adjoint under the
rule ``tensor.node`` states, and ``grad_check``, which compares
``backward`` against central differences. ``Tensor`` has no operators:
``a + b`` is written ``add(a, b)``, ``a * b`` ``mul(a, b)``, ``a - b``
``sub(a, b)``, ``s - a`` ``sub(s, a)``, ``-a`` ``neg(a)`` and ``a / s``
``mul(a, 1.0 / float(s))``, the calls those operators made.
"""

from dataclasses import dataclass

import numpy as np

from gcnmt.tensor import (
    ShapeError,
    Tensor,
    _as_tensor,
    backward,
    no_grad,
    node,
    zero_grads,
)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add shapes {a.shape} and {b.shape} do not broadcast") from e

    def bwd(g):
        ga, gb = _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
        return ga, (gb.copy() if np.may_share_memory(ga, gb) else gb)

    return node(data, (a, b), bwd)


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


def matmul(a, b) -> Tensor:
    """``a`` (..., k) times ``b`` (k, m) or (k,); each gradient is one GEMM."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim == 0 or b.ndim not in (1, 2):
        raise ShapeError(f"matmul needs a >=1-d a and a 1-d or 2-d b, "
                         f"got {a.shape} and {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} are incompatible") from e

    def bwd(g):
        A2 = a.data.reshape(-1, a.shape[-1])
        B2 = b.data if b.ndim == 2 else b.data[:, None]
        G2 = g.reshape(A2.shape[0], B2.shape[1])
        return (G2 @ B2.T).reshape(a.shape), (A2.T @ G2).reshape(b.shape)

    return node(data, (a, b), bwd)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    data = np.maximum(a.data, 0.0)
    return node(data, (a,), lambda g: (g * (a.data > 0.0),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))
    return node(data, (a,), lambda g: (g * data * (1.0 - data),))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    data = np.tanh(a.data)
    return node(data, (a,), lambda g: (g * (1.0 - data * data),))


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


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def bwd(g):
        return tuple(np.split(g, sizes, axis=axis))

    return node(data, tuple(ts), bwd)


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of the leading axis; the adjoint hands back a
    zero array of ``a``'s shape holding them."""
    a = _as_tensor(a)
    data = a.data[start:stop].copy()

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return node(data, (a,), bwd)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)
    return node(data, (a,), lambda g: (np.transpose(g, inv),))


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


def weighted_sum(w, a) -> Tensor:
    """``sum_i w[..., i] * a[..., i, :]``: weights ``w`` (..., n) over rows
    ``a`` (..., n, d), or over one ``(n, d)`` shared by every leading index,
    give (..., d). One ``np.matmul``; no (..., n, d) product is kept."""
    w, a = _as_tensor(w), _as_tensor(a)
    if w.ndim == 0 or a.ndim < 2:
        raise ShapeError(f"weighted_sum needs a >=1-d w and a >=2-d a, "
                         f"got {w.shape} and {a.shape}")
    try:
        data = np.matmul(w.data[..., None, :], a.data)[..., 0, :]
    except ValueError as e:
        raise ShapeError(f"weighted_sum shapes {w.shape} and {a.shape} "
                         f"are incompatible") from e

    def bwd(g):
        gw = np.matmul(a.data, g[..., :, None])[..., 0]
        ga = w.data[..., :, None] * g[..., None, :]
        return _unbroadcast(gw, w.shape), _unbroadcast(ga, a.shape)

    return node(data, (w, a), bwd)


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
