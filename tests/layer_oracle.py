"""Reference layers composed of tape operations, one node per operation.

These are the original bodies of ``gcnmt.encoders.gru_cell``,
``gcnmt.decoder.attention_keys``, ``gcnmt.decoder.attention``,
``gcnmt.decoder.init_state``, ``gcnmt.encoders.gcn_layer`` (with the
residual ``add`` the encoder stack once recorded after it),
``gcnmt.encoders.cnn_encode`` and ``gcnmt.training.nll_loss``, kept
verbatim as the oracle that the implementations must match in value and,
where they record, in every gradient; ``assert_matches_reference`` makes
that comparison. ``gru_cell``, ``attention_keys``, ``attention`` and
``init_state`` now compute decoding's steps in numpy and record nothing,
so they are checked in value only. ``reference_recurrence_step`` composes
one teacher-forcing step from them (the embedding row, attention and the
GRU update), and the whole-sequence nodes ``gcnmt.encoders.birnn_encode``
and ``gcnmt.decoder.teacher_forcing_recurrence`` are checked against their
per-step compositions: two ``reference_gru_sequence`` runs of one
``reference_gru_cell`` per step, concatenated into batch-major rows, or
one ``reference_recurrence_step`` per step (from ``reference_init_state``
over ``reference_attention_keys``).
``scatter_add_rows`` is the tape op the composed GCN needs. The composed
ops the package does not record (``add``, ``sub``, ``mul``, ``neg``,
``matmul``, ``relu``, ``sigmoid``, ``tanh``, ``softmax``, ``concat``,
``slice_rows``, ``transpose``, ``tsum``) come from ``tape_ops``, and each
operator the bodies used on tensors is spelled as the call it made
(``a + b`` is ``add(a, b)``), so the oracles compute what they computed
before, bit for bit.
"""

from functools import reduce

import numpy as np
import numpy.testing as npt

from gcnmt.decoder import AttentionParams, DecoderParams
from gcnmt.encoders import EncoderOutput, GcnLayerParams, GruParams
from gcnmt.tensor import Tensor, backward, gather_rows, log_softmax, node, reshape
from tape_ops import (
    add,
    concat,
    matmul,
    mul,
    neg,
    relu,
    sigmoid,
    slice_rows,
    softmax,
    stack0,
    sub,
    tanh,
    transpose,
    tsum,
)


def scatter_add_rows(a, idx, num_rows: int) -> Tensor:
    """Sum rows of ``a`` into ``num_rows`` output rows given by ``idx``."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = np.zeros((num_rows,) + a.shape[1:])
    np.add.at(out, idx, a.data)
    return node(out, (a,), lambda g: (g[idx],))


def reference_gru_cell(x_t, h_prev, params: GruParams):
    """One GRU step; accepts a single vector or a (batch, dim) matrix."""
    z = sigmoid(add(add(matmul(x_t, params.w_z), matmul(h_prev, params.u_z)), params.b_z))
    r = sigmoid(add(add(matmul(x_t, params.w_r), matmul(h_prev, params.u_r)), params.b_r))
    cand = tanh(add(add(matmul(x_t, params.w_h), matmul(mul(r, h_prev), params.u_h)),
                    params.b_h))
    return add(mul(z, h_prev), mul(sub(1.0, z), cand))


def reference_gru_sequence(xs, params: GruParams, reverse: bool = False, mask=None):
    """Every state of a GRU run from a zero state over the leading axis of
    ``xs``, one ``reference_gru_cell`` per position (the last position first
    when ``reverse``), stacked position by position. Where ``mask`` (shaped
    like ``xs`` without its last axis) is False the state is multiplied by
    zero, so it is held at zero and passes no gradient back."""
    xs = xs if isinstance(xs, Tensor) else Tensor(xs)
    n = xs.shape[0]
    h = Tensor(np.zeros(xs.shape[1:-1] + (params.u_z.shape[0],)))
    keep = None if mask is None else np.asarray(mask, dtype=np.float64)[..., None]
    states = [None] * n
    for t in (reversed(range(n)) if reverse else range(n)):
        h = reference_gru_cell(gather_rows(xs, t), h, params)
        if keep is not None:
            h = mul(h, Tensor(keep[t]))
        states[t] = h
    return stack0(states)


def _batch_major(y):
    """Time-major ``y`` (len, batch, width) as batch-major (batch * len, width) rows."""
    n, B, width = y.shape
    return reshape(transpose(y, (1, 0, 2)), (B * n, width))


def reference_birnn_encode(embeddings, fwd: GruParams, bwd: GruParams, mask=None):
    """Both directions' ``reference_gru_sequence`` over (len, batch, emb)
    embeddings, the backward one held at zero where ``mask`` (len, batch)
    is False, concatenated per position into batch-major rows."""
    both = concat([reference_gru_sequence(embeddings, fwd),
                   reference_gru_sequence(embeddings, bwd, reverse=True, mask=mask)],
                  axis=-1)
    return _batch_major(both)


def reference_cnn_encode(embeddings, w_filter, b_filter, mask=None):
    """The zero-padded window over (len, batch, emb) embeddings, which read
    zeros where ``mask`` (len, batch) is False, one shifted slice per window
    slot, an affine map and a ReLU, as batch-major rows."""
    emb = embeddings if isinstance(embeddings, Tensor) else Tensor(embeddings)
    n = emb.shape[0]
    window = w_filter.shape[0] // emb.shape[-1]
    if mask is not None:
        emb = mul(emb, Tensor(np.asarray(mask, dtype=np.float64)[..., None]))
    pad = Tensor(np.zeros((window // 2,) + emb.shape[1:]))
    padded = concat([pad, emb, pad], axis=0)
    # shift k is emb moved by k - window // 2 rows, zeros past either end
    shifts = [slice_rows(padded, k, k + n) for k in range(window)]
    return _batch_major(relu(add(matmul(concat(shifts, axis=-1), w_filter), b_filter)))


def reference_attention_keys(enc: EncoderOutput, params: AttentionParams) -> Tensor:
    """The attention keys ``states @ v_enc`` as one tape ``matmul``."""
    return matmul(enc.states, params.v_enc)


def reference_recurrence_step(y_prev_id, s_prev, enc: EncoderOutput,
                              params: DecoderParams, keys):
    """One teacher-forcing step: the embedding row, attention (``keys`` from
    ``reference_attention_keys``) and the GRU update; returns (new state,
    output features ``[s_t; context; emb]``)."""
    emb = gather_rows(params.embedding, np.asarray(y_prev_id, dtype=np.intp))
    _, context = reference_attention(s_prev, enc, params.attn, keys)
    s_t = reference_gru_cell(concat([emb, context], axis=-1), s_prev, params.gru)
    return s_t, concat([s_t, context, emb], axis=-1)


def reference_teacher_forcing_recurrence(y_prev_ids, enc: EncoderOutput,
                                         params: DecoderParams):
    """Every step's ``[s_t; context; emb]`` features under teacher forcing,
    one ``reference_recurrence_step`` per step from ``reference_init_state``
    over ``reference_attention_keys``, as time-major (T * B, F) rows."""
    ids = np.asarray(y_prev_ids)
    keys = reference_attention_keys(enc, params.attn)
    s, features = reference_init_state(enc, params), []
    for t in range(ids.shape[1]):
        s, f = reference_recurrence_step(ids[:, t], s, enc, params, keys)
        features.append(f)
    return concat(features, axis=0)


def reference_attention(s_prev: Tensor, enc: EncoderOutput, params: AttentionParams,
                        keys: Tensor | None = None):
    """Masked additive attention; returns (weights, context).

    Per sentence: s_prev (h,), states (len, d) -> weights (len,), context (d,).
    Batched: s_prev (B, h), states (B, len, d) -> (B, len), (B, d).
    Beam: s_prev (k, h), one sentence's states (len, d) -> (k, len), (k, d).
    ``keys`` is ``reference_attention_keys(enc, params)``, computed here when
    omitted.
    """
    states = enc.states
    if not bool(np.asarray(enc.mask).any(axis=-1).all()):
        raise ValueError("attention: all source positions masked")
    if keys is None:
        keys = reference_attention_keys(enc, params)
    proj_s = matmul(s_prev, params.u_dec)
    proj_s = reshape(proj_s, proj_s.shape[:-1] + (1, proj_s.shape[-1]))
    scores = matmul(tanh(add(keys, proj_s)), params.score_v)
    weights = softmax(scores, mask=enc.mask)
    context = tsum(mul(reshape(weights, weights.shape + (1,)), states), axis=-2)
    return weights, context


def reference_init_state(enc: EncoderOutput, params: DecoderParams) -> Tensor:
    """tanh-affine of the masked average of encoder states."""
    mask = np.asarray(enc.mask, dtype=np.float64)
    denom = mask.sum(axis=-1, keepdims=True)
    avg = tsum(mul(enc.states, Tensor(mask[..., None] / denom[..., None])), axis=-2)
    return tanh(add(matmul(avg, params.w_init), params.b_init))


def reference_gcn_layer(H, edges, params: GcnLayerParams, edge_retain: float = 1.0,
                        rng=None):
    """Apply one gated GCN layer and its residual connection to node
    states ``H`` (n_nodes, d).

    ``edges`` maps graph name -> list of (head, dep, label_id); a bare list
    is accepted when the layer reads a single graph. During training each
    annotated-edge message is dropped independently with probability
    1 - edge_retain; self-loop messages are never dropped.
    """
    H = H if isinstance(H, Tensor) else Tensor(H)
    n = H.shape[0]
    if not isinstance(edges, dict):
        if len(params.graphs) > 1:
            raise ValueError("gcn_layer: dict of edge lists required for fused layers")
        name = next(iter(params.graphs)) if params.graphs else "sem"
        edges = {name: edges}

    loop_gate = sigmoid(add(matmul(H, reshape(params.gate_w_loop, (-1, 1))),
                            params.gate_b_loop))
    total = mul(loop_gate, add(matmul(H, params.w_loop), params.b_loop))

    for name, gp in params.graphs.items():
        edge_list = edges.get(name, [])
        if not edge_list:
            continue
        heads = np.asarray([e[0] for e in edge_list], dtype=np.intp)
        deps = np.asarray([e[1] for e in edge_list], dtype=np.intp)
        labs = np.asarray([e[2] for e in edge_list], dtype=np.intp)
        if heads.max(initial=-1) >= n or deps.max(initial=-1) >= n \
                or heads.min(initial=0) < 0 or deps.min(initial=0) < 0:
            raise ValueError(f"gcn_layer: edge endpoint out of range for {n} nodes")
        # in: dependent v receives from head u; out: head u receives from v
        for src, dst, w, b, gw, gb in (
            (heads, deps, gp.w_in, gp.b_in, gp.gate_w_in, gp.gate_b_in),
            (deps, heads, gp.w_out, gp.b_out, gp.gate_w_out, gp.gate_b_out),
        ):
            h_src = gather_rows(H, src)
            msg = add(matmul(h_src, w), gather_rows(b, labs))
            g = sigmoid(add(matmul(h_src, reshape(gw, (-1, 1))),
                            reshape(gather_rows(gb, labs), (-1, 1))))
            msg = mul(g, msg)
            if edge_retain < 1.0:
                if rng is None:
                    raise ValueError("gcn_layer: edge dropout requires an rng")
                keep = (rng.random(len(src)) < edge_retain).astype(np.float64)
                msg = mul(msg, Tensor(keep[:, None]))
            total = add(total, scatter_add_rows(msg, dst, n))
    return add(relu(total), H)


def reference_nll_loss(logits, targets, mask):
    """Mean negative log-likelihood over unmasked steps.

    ``logits`` has vocabulary on the last axis; ``targets`` and ``mask``
    match the leading axes.
    """
    logits_t = logits if isinstance(logits, Tensor) else Tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    mask = np.asarray(mask, dtype=np.float64)
    if logits_t.shape[:-1] != targets.shape or targets.shape != mask.shape:
        raise ValueError(
            f"nll_loss shapes disagree: logits {logits_t.shape}, "
            f"targets {targets.shape}, mask {mask.shape}")
    total = mask.sum()
    if total == 0:
        raise ValueError("nll_loss: all target steps masked")
    vocab = logits_t.shape[-1]
    lsm = log_softmax(logits_t)
    flat = reshape(lsm, (-1,))
    picks = gather_rows(flat, np.arange(targets.size) * vocab + targets.ravel())
    return mul(neg(tsum(mul(picks, Tensor(mask.ravel())))), 1.0 / float(total))


def _outputs_and_grads(layer, leaves: dict):
    """The forward arrays of ``layer()`` (one tensor or a tuple) and each
    leaf's gradient of a fixed random weighting of them."""
    for t in leaves.values():
        t.grad = None
    outs = layer()
    outs = outs if isinstance(outs, tuple) else (outs,)
    rng = np.random.default_rng(0)
    backward(reduce(add, [tsum(mul(o, Tensor(rng.uniform(-1, 1, o.shape)))) for o in outs]))
    return [o.data for o in outs], {k: t.grad for k, t in leaves.items()}


def assert_matches_reference(layer, reference, leaves: dict, atol=1e-12):
    """``layer()`` and ``reference()`` agree within ``atol`` in every output
    and in the gradient of every leaf (None on both sides or arrays)."""
    got, got_grads = _outputs_and_grads(layer, leaves)
    want, want_grads = _outputs_and_grads(reference, leaves)
    for g, w in zip(got, want, strict=True):
        npt.assert_allclose(g, w, rtol=0, atol=atol)
    for name in leaves:
        g, w = got_grads[name], want_grads[name]
        assert (g is None) == (w is None), name
        if g is not None:
            npt.assert_allclose(g, w, rtol=0, atol=atol, err_msg=name)
