"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in row-major numpy arrays. Every operation on tensors that
require gradients records its inputs and an adjoint rule; ``backward``
replays those rules in reverse topological order and accumulates
gradients additively. ``node`` is the constructor every operation uses,
and a layer may call it too: the whole-sequence GRU and the GCN layer
(``encoders``), teacher forcing's decoder recurrence (``decoder``) and the
projected NLL loss (``training``) compute their forward pass in numpy and
record one node with a hand-derived adjoint that keeps only the arrays it
needs. The module holds only what training records, plus ``log_softmax``,
which decoding reads scores from; the rest of decoding (attention keys,
initial state, attention and GRU steps) is plain numpy. Every array an
adjoint returns is ``backward``'s to write (``node`` states the rule), so
``backward`` adds each later gradient in place into the first one to reach
a node and hands a leaf its gradient without a copy. Every adjoint returns
dense arrays: ``gather_rows`` and ``slice_rows`` hand back a zero array of
the parent's shape holding the rows they read, which costs nothing extra
because training gathers from each embedding once per step.
``backward`` consumes the graph it walks: each node drops its parents and
its adjoint once the adjoint has run, so the tape is freed as it goes, and
a second ``backward`` through the same nodes raises ``ValueError``. One
compute graph is single-threaded; separate graphs are independent.
Checkpoints have one form too: ``save_checkpoint`` writes little-endian
float64 in C order, and ``load_checkpoint`` reads only that, straight into
the parameters' arrays.
"""

from __future__ import annotations

import contextlib
import zipfile

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "no_grad",
    "node",
    "matmul",
    "add",
    "relu",
    "log_softmax",
    "concat",
    "gather_rows",
    "slice_rows",
    "reshape",
    "transpose",
    "backward",
    "zero_grads",
    "save_checkpoint",
    "load_checkpoint",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(data, parents, backward_fn) -> Tensor:
    """A tensor holding ``data``; it records ``parents`` and its adjoint when
    gradients are enabled and some parent requires them.

    ``backward_fn(g)`` takes the gradient of the output and returns one
    gradient per parent, in order: None or an array of that parent's shape
    that ``backward`` may write. That array may be ``g`` itself, a view of
    ``g`` or a new array; it is never a forward value or an array the
    adjoint keeps, and no two returned arrays overlap.
    ``g`` is ``backward``'s too, so the adjoint may overwrite it.
    """
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


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


def log_softmax(a) -> Tensor:
    """Log of the exp-normalization over the last axis."""
    a = _as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lsm = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def bwd(g):
        return (g - np.exp(lsm) * g.sum(axis=-1, keepdims=True),)

    return node(lsm, (a,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def bwd(g):
        return tuple(np.split(g, sizes, axis=axis))

    return node(data, tuple(ts), bwd)


def gather_rows(a, idx) -> Tensor:
    """Index the leading axis with an integer array of any shape."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)  # repeated rows add up
        return (ga,)

    return node(data, (a,), bwd)


def slice_rows(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    data = a.data[start:stop].copy()

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return node(data, (a,), bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)
    return node(data, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)
    return node(data, (a,), lambda g: (np.transpose(g, inv),))


def _consumed(g):
    raise ValueError("backward: the graph was consumed by an earlier backward; "
                     "record it again")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every leaf tensor that
    requires gradients, that is one created directly rather than by an
    operation. Gradients of intermediate nodes are passed on to their
    parents and not kept: their ``.grad`` stays None.

    Every array an adjoint returns is ``backward``'s to write (``node``),
    so the first gradient that reaches a node becomes its accumulator and
    each later one is added into it in place. An accumulator that is a view
    takes the sum in a new array instead, so that the larger array it views
    can be freed before the node is reached. A leaf takes its gradient as
    its ``.grad`` without a copy; a leaf that already has a ``.grad`` gets
    the sum in a new array, so no array a caller holds is ever written.

    The graph is consumed: as each node is reached it drops its parents and
    its adjoint, so the forward values they kept are freed once its adjoint
    has run, and a caller that still holds ``loss`` holds no tape. A later
    ``backward`` that reaches a consumed node raises ``ValueError``; leaves
    are untouched and take part in any new graph."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    seen = set()
    topo = []
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    pending = {id(loss): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()  # reverse topological order; drops topo's reference
        g = pending.pop(id(node), None)
        parents, adjoint = node._parents, node._backward
        if adjoint is not None:
            node._parents, node._backward = (), _consumed
        if g is None:
            continue
        if adjoint is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        for p, pg in zip(parents, adjoint(g)):
            if pg is None or not p.requires_grad:
                continue
            acc = pending.get(id(p))
            if acc is None:
                acc = pg
            elif acc.base is not None:  # a view: the sum frees the array it views
                acc = acc + pg
            else:
                acc += pg  # stored back: a shape-() gradient is a numpy scalar
            pending[id(p)] = acc


def zero_grads(params: dict) -> None:
    """Clear the gradients of ``params`` (name -> Tensor); the training loop
    calls this between steps."""
    for p in params.values():
        p.grad = None


def save_checkpoint(path, params: dict) -> None:
    """Write a flat archive of parameter paths to little-endian float64
    arrays in C order, whatever the layout of each ``.data``.

    The container is numpy's ``.npz`` format: a zip archive holding one
    ``.npy`` member per parameter path.
    """
    np.savez(path, **{name: np.asarray(p.data, dtype="<f8", order="C")
                      for name, p in params.items()})


_READ_BYTES = 1 << 18  # bytes per read from an archive member


def _npy_shape(fh):
    """The shape of a ``.npy`` stream of C-order ``<f8`` data, leaving ``fh``
    at the first byte of the data; any other dtype or order raises."""
    fmt = np.lib.format
    version = fmt.read_magic(fh)
    read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
    shape, fortran_order, dtype = read_header(fh)
    if dtype.hasobject:
        raise ValueError("object arrays are not supported")
    if dtype != "<f8" or fortran_order:
        order = "Fortran" if fortran_order else "C"
        raise ValueError(f"dtype {dtype.str} in {order} order is not supported; "
                         f"a checkpoint holds <f8 in C order")
    return shape


def _read_npy_data(fh, dest: np.ndarray) -> None:
    """Read the data of a ``.npy`` stream of ``dest``'s shape, C-order
    ``<f8``, straight into ``dest``'s memory, a chunk at a time."""
    if dest.dtype != "<f8" or not dest.flags.c_contiguous:
        # reshape(-1) of any other array is a copy: the data would be lost
        raise ValueError(f"the model's array is not C-order <f8 ({dest.dtype.str})")
    raw = memoryview(dest.reshape(-1).view(np.uint8))
    for i in range(0, len(raw), _READ_BYTES):
        chunk = raw[i:i + _READ_BYTES]
        if fh.readinto(chunk) != len(chunk):
            raise ValueError("truncated array data")


def load_checkpoint(path, params: dict) -> None:
    """Read a ``save_checkpoint`` archive one member at a time into
    ``params`` (path -> Tensor).

    The archive's names must be exactly ``params``' names, checked before
    any member is read, and each member is read straight into that tensor's
    existing ``.data``, which keeps its identity and layout. Each member's
    header is checked before any of its bytes is written: a shape other than
    the tensor's, or data other than little-endian float64 in C order (what
    ``save_checkpoint`` writes), raises and names the parameter. The data is
    read with no intermediate copy, so each tensor's ``.data`` must be C-order
    float64, as the model builds its parameters.

    A file that is not a zip archive raises ``ValueError`` naming the file,
    and a corrupt, truncated or unsupported member ``ValueError`` naming the
    file and the member. A load that fails partway leaves the tensors
    read before that member with their new values, and one that fails
    partway through a member (a truncated member, or a checksum that only
    fails at its end) leaves that parameter partly written: throw such a
    model away.
    """
    try:
        with zipfile.ZipFile(path) as zf:
            names = [m[:-len(".npy")] for m in zf.namelist() if m.endswith(".npy")]
            if set(names) != set(params):
                raise ValueError(f"checkpoint mismatch: "
                                 f"missing={sorted(set(params) - set(names))}, "
                                 f"extra={sorted(set(names) - set(params))}")
            for name in names:
                dest = params[name].data
                try:
                    with zf.open(name + ".npy") as fh:
                        shape = _npy_shape(fh)
                        if shape != dest.shape:
                            raise ValueError(f"shape {shape} != model {dest.shape}")
                        _read_npy_data(fh, dest)
                except (zipfile.BadZipFile, NotImplementedError, OSError,
                        RuntimeError, ValueError) as e:
                    # besides BadZipFile, zipfile raises NotImplementedError or
                    # RuntimeError (encrypted) for garbled member flags and
                    # OSError for a garbled offset
                    raise ValueError(f"checkpoint {path}, member {name}.npy: {e}") from e
    except zipfile.BadZipFile as e:
        raise ValueError(f"checkpoint {path}: {e}") from e
