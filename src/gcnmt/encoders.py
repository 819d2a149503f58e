"""Source-side encoders: embeddings, BiRNN/CNN bases, and GCN layers.

The GCN update for node v sums gated messages over its neighborhood:

    h'_v = relu( sum_{u in N(v)} g(u,v) * (W_dir(u,v) h_u + b_lab(u,v)) )

with N(v) covering annotated in-edges, annotated out-edges and a self
loop. Direction-specific matrices, per-label bias vectors and per-edge
scalar gates are all learned. Layers stack, each wrapped in a residual
connection, and a layer may read the semantic graph, the syntactic graph,
both at once (distinct W per graph, shared self-loop) or neither
(self-loop ablation). Each graph reaches the GCN as one ``(E, 3)`` array
of (head, dependent, label id) rows, built once per batch. A batch may
mix source lengths: the base encoders take its padding mask
(``encode_pipeline``).

``gru_sequence`` and ``gcn_layer`` compute in numpy and record one tape
node each (``tensor.node``) with a hand-derived adjoint, which keeps only
the arrays it reads: the GRU's gates and candidate for every step; the
GCN's output, self-loop transform and gate, and each direction's pre-gate
messages, gates and dropout mask. Source rows are gathered again from
``H`` in the adjoint. The BiRNN runs each direction as one
``gru_sequence`` node, in training and in inference. ``gru_cell`` is one
GRU step in numpy that records nothing; it serves the decoder's inference
steps. The GRU step, its adjoint and its weight gradients are written
once here and shared with the decoder's teacher-forcing node. Every
gradient an adjoint returns is a new array, which ``backward`` may write,
and the GCN's adjoint reuses its incoming gradient as its first buffer
(``tensor.node``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import ConfigError, ExperimentConfig
from .corpus import Batch
from .tensor import (
    Tensor,
    concat,
    gather_rows,
    matmul,
    node,
    relu,
    reshape,
    slice_rows,
    transpose,
)

INIT_SCALE = 0.08


def _uniform(rng, shape) -> Tensor:
    return Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape), requires_grad=True)


@dataclass
class GruParams:
    """Update/reset-gate recurrence weights; w_* read the input, u_* the state."""

    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor

    def named(self, prefix: str):
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}

    def tensors(self):
        """The nine tensors in field order, as adjoints return their gradients."""
        return tuple(getattr(self, f.name) for f in fields(self))


def init_gru(rng, in_dim: int, hidden: int) -> GruParams:
    return GruParams(
        w_z=_uniform(rng, (in_dim, hidden)), u_z=_uniform(rng, (hidden, hidden)),
        b_z=_uniform(rng, (hidden,)),
        w_r=_uniform(rng, (in_dim, hidden)), u_r=_uniform(rng, (hidden, hidden)),
        b_r=_uniform(rng, (hidden,)),
        w_h=_uniform(rng, (in_dim, hidden)), u_h=_uniform(rng, (hidden, hidden)),
        b_h=_uniform(rng, (hidden,)),
    )


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _fold(x):
    """``x`` with its leading axes folded into rows: (rows, last)."""
    return x.reshape(-1, x.shape[-1])


def _gru_gates(xw_z, xw_r, xw_h, h, p: GruParams):
    """One GRU step over its input projections ``x @ w_*``, computed by the
    caller: (new state, z, r, cand)."""
    z = _sigmoid(xw_z + h @ p.u_z.data + p.b_z.data)
    r = _sigmoid(xw_r + h @ p.u_r.data + p.b_r.data)
    cand = np.tanh(xw_h + (r * h) @ p.u_h.data + p.b_h.data)
    return z * h + (1.0 - z) * cand, z, r, cand


def _gru_step_adjoint(g, h, z, r, cand, p: GruParams):
    """One GRU step's adjoint for the gradient ``g`` of its new state:
    (dz, dr, dc, dh_prev), the first three taken at the pre-activations of
    ``z``, ``r`` and ``cand``."""
    dz = g * (h - cand) * z * (1.0 - z)
    dc = g * (1.0 - z) * (1.0 - cand * cand)
    drh = dc @ p.u_h.data.T
    dr = drh * h * r * (1.0 - r)
    dh = g * z + drh * r + dz @ p.u_z.data.T + dr @ p.u_r.data.T
    return dz, dr, dc, dh


def _gru_input_grad(dz, dr, dc, p: GruParams):
    """The gradient of the GRU input ``x`` from the pre-activation gradients."""
    return dz @ p.w_z.data.T + dr @ p.w_r.data.T + dc @ p.w_h.data.T


def _gru_weight_grads(X, H, RH, dz, dr, dc):
    """The nine parameter gradients, in ``GruParams`` order, from stacked
    rows of inputs ``X``, previous states ``H``, ``r * H`` and the
    pre-activation gradients: one GEMM or column sum each."""
    return [X.T @ dz, H.T @ dz, dz.sum(axis=0),
            X.T @ dr, H.T @ dr, dr.sum(axis=0),
            X.T @ dc, RH.T @ dc, dc.sum(axis=0)]


def gru_cell(x_t, h_prev, params: GruParams) -> Tensor:
    """One GRU step in numpy; accepts a single vector or a (batch, dim)
    matrix, and records nothing::

        z = sigmoid(x w_z + h u_z + b_z)
        r = sigmoid(x w_r + h u_r + b_r)
        cand = tanh(x w_h + (r * h) u_h + b_h)
        h' = z * h + (1 - z) * cand

    Decoding runs it once per step; training runs whole sequences
    (``gru_sequence`` and ``decoder.teacher_forcing_recurrence``) through
    the same step code.
    """
    x, h = (v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)
            for v in (x_t, h_prev))
    p = params
    return Tensor(_gru_gates(x @ p.w_z.data, x @ p.w_r.data, x @ p.w_h.data, h, p)[0])


def gru_sequence(xs, params: GruParams, reverse: bool = False, mask=None):
    """Every state of a GRU run from a zero state over the leading axis of
    ``xs``, (n, in) or (n, batch, in); the output is (n, hidden) or
    (n, batch, hidden), position by position. With ``reverse`` the GRU
    reads the last position first, so output ``t`` has read ``n-1 .. t``.

    ``mask``, shaped like ``xs`` without its last axis, is False where the
    state is held at zero: the state read next is the zero start state, and
    the adjoint drops the gradient reaching that state. With ``reverse``
    and each row's padding after its real positions, a row's real states
    are those of its real positions run alone.

    One tape node over ``xs`` and the nine parameters. The input
    projections ``x @ w_*`` are one GEMM each over all n * batch rows, and
    the loop does only the recurrent ``h @ u_*`` products, step by step as
    ``gru_cell`` does. The adjoint runs backpropagation through time one
    step adjoint at a time, then forms the input gradient and each weight
    gradient with one GEMM over every row.
    """
    xs_t = xs if isinstance(xs, Tensor) else Tensor(xs)
    p = params
    n, hidden = xs_t.shape[0], p.u_z.shape[0]
    if n < 1:
        raise ValueError("gru_sequence: empty input")
    X = _fold(xs_t.data)
    B = X.shape[0] // n
    held = None if mask is None else ~np.asarray(mask, dtype=bool).reshape(n, B)
    XZ, XR, XH = ((X @ w.data).reshape(n, B, hidden) for w in (p.w_z, p.w_r, p.w_h))
    Z, R, C = (np.empty((n, B, hidden)) for _ in range(3))
    S = np.zeros((n + 1, B, hidden))  # the zero start state and every output
    # out[t] is position t's state; prev[t] the state it read
    out, prev = (S[:n], S[1:]) if reverse else (S[1:], S[:n])
    order = range(n - 1, -1, -1) if reverse else range(n)
    for t in order:
        out[t], Z[t], R[t], C[t] = _gru_gates(XZ[t], XR[t], XH[t], prev[t], p)
        if held is not None:
            out[t, held[t]] = 0.0

    def bwd(g):
        g = g.reshape(n, B, hidden)
        dZ, dR, dC = (np.empty((n, B, hidden)) for _ in range(3))
        dh = 0.0
        for t in reversed(order):
            gt = g[t] + dh
            if held is not None:
                gt[held[t]] = 0.0
            dZ[t], dR[t], dC[t], dh = _gru_step_adjoint(gt, prev[t], Z[t], R[t], C[t], p)
        dz, dr, dc = _fold(dZ), _fold(dR), _fold(dC)
        return (_gru_input_grad(dz, dr, dc, p).reshape(xs_t.shape),
                *_gru_weight_grads(X, _fold(prev), _fold(R * prev), dz, dr, dc))

    return node(out.reshape(xs_t.shape[:-1] + (hidden,)), (xs_t, *p.tensors()), bwd)


def birnn_encode(embeddings, fwd: GruParams, bwd: GruParams, mask=None):
    """Concatenate forward and backward GRU states per position.

    ``embeddings`` is (len, emb) for one sentence or (len, batch, emb) for a
    batch; the output matches with last dimension 2 * hidden. ``mask``
    (len, batch), True on real positions, marks each row's right padding:
    the backward GRU holds its zero state there (``gru_sequence``), so every
    real position's output is that of the row encoded alone. The forward
    GRU needs no mask, since the padding comes after every real position.
    """
    emb = embeddings if isinstance(embeddings, Tensor) else Tensor(embeddings)
    return concat([gru_sequence(emb, fwd),
                   gru_sequence(emb, bwd, reverse=True, mask=mask)], axis=-1)


def cnn_encode(embeddings, w_filter: Tensor, b_filter: Tensor, mask=None):
    """Per-position affine over a zero-padded window, ReLU. The window is
    ``w_filter``'s row count over the embedding width, and must be odd.
    Where ``mask`` (len, batch) is False the window reads zeros, as past
    either end, so every real position's output is that of the row encoded
    alone."""
    emb = embeddings if isinstance(embeddings, Tensor) else Tensor(embeddings)
    n = emb.shape[0]
    window, rest = divmod(w_filter.shape[0], emb.shape[-1])
    if rest or window % 2 == 0:
        raise ValueError(f"cnn filter of {w_filter.shape[0]} rows is not an odd "
                         f"window over embeddings of width {emb.shape[-1]}")
    if mask is not None:
        keep = np.asarray(mask, dtype=np.float64)[..., None]
        emb = node(emb.data * keep, (emb,), lambda g: (g * keep,))
    pad = Tensor(np.zeros((window // 2,) + emb.shape[1:]))
    padded = concat([pad, emb, pad], axis=0)
    # shift k is emb moved by k - window // 2 rows, zeros past either end
    shifts = [slice_rows(padded, k, k + n) for k in range(window)]
    return relu(matmul(concat(shifts, axis=-1), w_filter) + b_filter)


# Base encoders, one replaceable part under the GCN stack. They call the
# module-level functions by name, so a wrapper set on the module sees them.
@dataclass
class BiRNN:
    """Forward and backward GRUs, concatenated per position (2 * hidden)."""

    gru_fwd: GruParams
    gru_bwd: GruParams

    def named(self, prefix: str):
        return {**self.gru_fwd.named(f"{prefix}.gru_fwd"),
                **self.gru_bwd.named(f"{prefix}.gru_bwd")}

    def __call__(self, embeddings, mask=None):
        return birnn_encode(embeddings, self.gru_fwd, self.gru_bwd, mask)


@dataclass
class CNN:
    """Zero-padded window, affine, ReLU (hidden); ``w`` is
    (window * emb, hidden), so its shape holds the window."""

    w: Tensor
    b: Tensor

    def named(self, prefix: str):
        return {f"{prefix}.cnn.w": self.w, f"{prefix}.cnn.b": self.b}

    def __call__(self, embeddings, mask=None):
        return cnn_encode(embeddings, self.w, self.b, mask)


@dataclass
class GcnGraphParams:
    """Per-graph direction matrices, label biases and gate parameters."""

    w_in: Tensor
    w_out: Tensor
    b_in: Tensor        # (n_labels, d)
    b_out: Tensor       # (n_labels, d)
    gate_w_in: Tensor   # (d,)
    gate_w_out: Tensor  # (d,)
    gate_b_in: Tensor   # (n_labels,)
    gate_b_out: Tensor  # (n_labels,)

    def named(self, prefix: str):
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}


@dataclass
class GcnLayerParams:
    """One GCN layer: per-graph parameters plus the shared self-loop block."""

    graphs: dict          # graph name -> GcnGraphParams
    w_loop: Tensor
    b_loop: Tensor
    gate_w_loop: Tensor
    gate_b_loop: Tensor   # shape (1,)

    def named(self, prefix: str):
        out = {f"{prefix}.{k}": getattr(self, k) for k in
               ("w_loop", "b_loop", "gate_w_loop", "gate_b_loop")}
        for name, gp in self.graphs.items():
            out.update(gp.named(f"{prefix}.{name}"))
        return out


def init_gcn_layer(rng, d: int, label_counts: dict) -> GcnLayerParams:
    """``label_counts`` maps graph name -> label inventory size."""
    graphs = {}
    for name, n_labels in label_counts.items():
        graphs[name] = GcnGraphParams(
            w_in=_uniform(rng, (d, d)), w_out=_uniform(rng, (d, d)),
            b_in=_uniform(rng, (n_labels, d)), b_out=_uniform(rng, (n_labels, d)),
            gate_w_in=_uniform(rng, (d,)), gate_w_out=_uniform(rng, (d,)),
            gate_b_in=_uniform(rng, (n_labels,)), gate_b_out=_uniform(rng, (n_labels,)),
        )
    # near-identity self-loop transform keeps the base encoder signal early on
    w_loop = Tensor(0.5 * np.eye(d) + rng.uniform(-0.01, 0.01, size=(d, d)),
                    requires_grad=True)
    return GcnLayerParams(
        graphs=graphs,
        w_loop=w_loop,
        b_loop=_uniform(rng, (d,)),
        gate_w_loop=_uniform(rng, (d,)),
        gate_b_loop=_uniform(rng, (1,)),
    )


def _add_rows(acc, idx, rows):
    """``np.add.at(acc, idx, rows)`` as a Python loop over rows: the same
    sums in the same order, and several times faster for rows as wide as
    the GCN's (``np.add.at`` wins only below about 100 columns)."""
    for i, row in zip(idx.tolist(), rows):
        acc[i] += row
    return acc


def gcn_layer(H, edges, params: GcnLayerParams, edge_retain: float = 1.0, rng=None):
    """Apply one gated GCN layer to node states ``H`` (n_nodes, d).

    ``edges`` maps graph name -> an ``(E, 3)`` array (or a list) of
    (head, dep, label_id) rows. During training each annotated-edge
    message is dropped independently with probability 1 - edge_retain;
    self-loop messages are never dropped.

    One tape node over ``H``, the self-loop parameters and the parameters
    of each graph that has edges. Per graph, the ``in`` direction sends
    head -> dependent and ``out`` dependent -> head; each direction draws
    its dropout mask (``rng.random(n_edges)``) in that order.
    """
    H = H if isinstance(H, Tensor) else Tensor(H)
    n = H.shape[0]
    X = H.data
    loop_gate = _sigmoid(X @ params.gate_w_loop.data[:, None] + params.gate_b_loop.data)
    loop = X @ params.w_loop.data + params.b_loop.data
    total = loop_gate * loop
    parents = [H, params.w_loop, params.b_loop, params.gate_w_loop, params.gate_b_loop]
    saved = []  # per direction: edges, parameters, pre-gate message, gate, keep
    for name, gp in params.graphs.items():
        rows = np.asarray(edges.get(name, ()), dtype=np.intp).reshape(-1, 3)
        if not len(rows):
            continue
        heads, deps, labs = rows.T
        if heads.max(initial=-1) >= n or deps.max(initial=-1) >= n \
                or heads.min(initial=0) < 0 or deps.min(initial=0) < 0:
            raise ValueError(f"gcn_layer: edge endpoint out of range for {n} nodes")
        # in: dependent v receives from head u; out: head u receives from v
        for src, dst, w, b, gw, gb in (
            (heads, deps, gp.w_in, gp.b_in, gp.gate_w_in, gp.gate_b_in),
            (deps, heads, gp.w_out, gp.b_out, gp.gate_w_out, gp.gate_b_out),
        ):
            h_src = X[src]
            msg = h_src @ w.data + b.data[labs]
            g = _sigmoid(h_src @ gw.data[:, None] + gb.data[labs][:, None])
            gated = g * msg
            keep = None
            if edge_retain < 1.0:
                if rng is None:
                    raise ValueError("gcn_layer: edge dropout requires an rng")
                keep = (rng.random(len(src)) < edge_retain).astype(np.float64)[:, None]
                gated = gated * keep
            _add_rows(total, dst, gated)
            parents += [w, b, gw, gb]
            saved.append((src, dst, labs, w, b, gw, gb, msg, g, keep))
    out = np.maximum(total, 0.0)

    def bwd(grad):
        dt = np.multiply(grad, out > 0.0, out=grad)  # grad is ours (tensor.node)
        d_loop = dt * loop_gate
        d_gate = (dt * loop).sum(axis=1, keepdims=True) * loop_gate * (1.0 - loop_gate)
        dX = d_loop @ params.w_loop.data.T + d_gate * params.gate_w_loop.data
        grads = [dX, X.T @ d_loop, d_loop.sum(axis=0),
                 (X.T @ d_gate)[:, 0], d_gate.sum(axis=0)]
        for src, dst, labs, w, b, gw, gb, msg, g, keep in saved:
            d_gated = dt[dst] if keep is None else dt[dst] * keep
            d_msg = d_gated * g
            d_pre = (d_gated * msg).sum(axis=1, keepdims=True) * g * (1.0 - g)
            h_src = X[src]
            _add_rows(dX, src, d_msg @ w.data.T + d_pre * gw.data)
            grads += [h_src.T @ d_msg, _add_rows(np.zeros_like(b.data), labs, d_msg),
                      (h_src.T @ d_pre)[:, 0],
                      _add_rows(np.zeros_like(gb.data), labs, d_pre[:, 0])]
        return grads

    return node(out, parents, bwd)


@dataclass
class EncoderOutput:
    states: Tensor        # (batch, len, width) or (len, width)
    mask: np.ndarray      # bool, matching leading dims


@dataclass
class EncoderStack:
    """Embeddings, one base encoder, and the configured GCN blocks."""

    embedding: Tensor
    base: BiRNN | CNN
    blocks: list                   # one list of GcnLayerParams per recipe block
    label_vocabs: dict             # graph name -> LabelVocab

    def parameters(self):
        out = {"encoder.embedding": self.embedding, **self.base.named("encoder")}
        for bi, layers in enumerate(self.blocks):
            for li, layer in enumerate(layers):
                out.update(layer.named(f"gcn.{bi}.{li}"))
        return out


def build_encoder(cfg: ExperimentConfig, vocab_size: int, label_vocabs: dict,
                  rng) -> EncoderStack:
    cfg.validate()
    emb = _uniform(rng, (vocab_size, cfg.emb_size))
    if cfg.encoder == "birnn":
        base = BiRNN(init_gru(rng, cfg.emb_size, cfg.hidden_size),
                     init_gru(rng, cfg.emb_size, cfg.hidden_size))
    else:
        base = CNN(_uniform(rng, (cfg.cnn_window * cfg.emb_size, cfg.hidden_size)),
                   _uniform(rng, (cfg.hidden_size,)))
    d = cfg.enc_width
    blocks = []
    for graphs, k in cfg.blocks:
        for g in graphs:
            if g not in label_vocabs:
                raise ConfigError(f"recipe needs {g!r} labels but none were provided")
        counts = {g: len(label_vocabs[g]) for g in graphs}
        blocks.append([init_gcn_layer(rng, d, counts) for _ in range(k)])
    return EncoderStack(embedding=emb, base=base, blocks=blocks,
                        label_vocabs=dict(label_vocabs))


def encode_pipeline(batch: Batch, config: ExperimentConfig, params: EncoderStack,
                    mode: str = "infer", edge_retain: float = 1.0, rng=None,
                    src_ids=None) -> EncoderOutput:
    """Embed, run the base encoder, then the residual GCN stack.

    ``src_ids`` overrides ``batch.src`` (the training loop passes
    word-dropped ids). Edge dropout applies only when ``mode == "train"``.
    A batch may mix source lengths: the base encoder gets its padding mask,
    and the GCN needs none, since no edge reaches a padded position. Every
    real position's state is then that of its
    sentence encoded alone, up to rounding; padded states are not, and
    ``mask`` keeps them out of the decoder. A batch with no padding passes
    no mask and runs the unmasked code.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be train or infer, got {mode!r}")
    ids = batch.src if src_ids is None else src_ids
    B, L = ids.shape
    emb = gather_rows(params.embedding, ids.T)  # (L, B, emb)
    base = params.base(emb, None if batch.src_mask.all() else batch.src_mask.T)
    d = base.shape[-1]
    H = reshape(transpose(base, (1, 0, 2)), (B * L, d))

    retain = edge_retain if mode == "train" else 1.0
    arrays = {}  # graph -> (E, 3) edges in sentence order, sentence i at i * L
    for g in dict.fromkeys(g for graphs, _ in config.blocks for g in graphs):
        per_sent = batch.sem_edges if g == "sem" else batch.syn_edges
        if per_sent is None:
            raise ValueError(f"recipe reads {g!r} graph absent from the batch")
        vocab = params.label_vocabs[g]
        arrays[g] = np.array([(i * L + u, i * L + v, vocab.id(lab))
                              for i, sent_edges in enumerate(per_sent)
                              for u, v, lab in sent_edges], dtype=np.intp).reshape(-1, 3)
    for layers, (graphs, _) in zip(params.blocks, config.blocks):
        edges = {g: arrays[g] for g in graphs}
        for layer in layers:
            H = gcn_layer(H, edges, layer, edge_retain=retain, rng=rng) + H
    states = reshape(H, (B, L, d))
    return EncoderOutput(states=states, mask=batch.src_mask.copy())
