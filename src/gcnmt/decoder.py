"""Attention-based GRU decoder with greedy and beam search.

Scoring is additive attention over encoder states; the attention keys
``states @ v_enc`` are computed once per encode and read by every step,
and the context is one matmul of the weights over the states, so no
(batch, len, width) product is formed per step. The GRU consumes the
previous target embedding concatenated with the context vector, and the
output projection reads [state; context; previous embedding]. One
attention step (``_attend``) serves training and decoding alike.

A step reads the context only through linear maps: the context rows of
the GRU input weights and of ``w_out``. Where every row attends over one
sentence's (len, d) states (beam search, ``score_sequence``),
``context_table`` multiplies the states by those rows once per encode,
and each step takes ``weights @ table`` instead of forming the context
and multiplying it by them: per step this skips the width-d context rows
of ``w_out``, the largest read of a beam step. A greedy batch keeps the
direct product, since its rows have their own (B, len, d) states, and a
per-row table would hold B * len * (3 hidden + vocab) floats.

Only training records: teacher forcing runs the attention keys, the
initial state and every step's attention and GRU update as one tape node
(``teacher_forcing_recurrence``, with backpropagation through time in its
adjoint) and projects every step's features once per batch, inside its
loss node (``training.nll_loss``). Decoding computes in numpy:
``attention_keys``, ``init_state`` and ``decoder_step`` (the attention
step, the GRU step and the projection) record nothing, so greedy and beam
search need no ``no_grad`` and their ``Tensor`` results have no parents
even with gradients enabled. A source row whose every position is masked
raises ``ValueError`` before the initial state divides by its length.

A greedy batch may mix source lengths: its states are zero-padded to the
longest source, and ``mask`` keeps the padding out of attention (masked
softmax) and out of the initial state (masked mean). Beam search is
length-unnormalized: finished hypotheses compete in a completed pool and
the highest-scoring completed hypothesis wins (best live one at max_len if
nothing finished). It batches the beam: the live hypotheses are the batch
dimension of one ``decoder_step`` per time step, and the candidates are
ranked by score descending, then token id ascending, then hypothesis index
ascending.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS, EOS
from .encoders import (
    EncoderOutput,
    GruParams,
    _gru_gates,
    _gru_input_grad,
    _gru_step_adjoint,
    _gru_weight_grads,
    _uniform,
    gru_cell,
    init_gru,
)
from .tensor import Tensor, gather_rows, log_softmax, node


@dataclass
class AttentionParams:
    u_dec: Tensor    # (dec_hidden, attn)
    v_enc: Tensor    # (enc_width, attn)
    score_v: Tensor  # (attn,)

    def named(self, prefix: str):
        return {f"{prefix}.{k}": getattr(self, k) for k in
                ("u_dec", "v_enc", "score_v")}


@dataclass
class DecoderParams:
    embedding: Tensor          # (tgt_vocab, emb)
    gru: GruParams             # input dim = emb + enc_width
    attn: AttentionParams
    w_init: Tensor             # (enc_width, dec_hidden)
    b_init: Tensor
    w_out: Tensor              # (dec_hidden + enc_width + emb, tgt_vocab)
    b_out: Tensor

    def named(self, prefix: str = "decoder"):
        out = {f"{prefix}.embedding": self.embedding,
               f"{prefix}.w_init": self.w_init, f"{prefix}.b_init": self.b_init,
               f"{prefix}.w_out": self.w_out, f"{prefix}.b_out": self.b_out}
        out.update(self.gru.named(f"{prefix}.gru"))
        out.update(self.attn.named(f"{prefix}.attn"))
        return out


def build_decoder(vocab_size: int, emb_size: int, dec_hidden: int, enc_width: int,
                  attn_size: int, rng) -> DecoderParams:
    return DecoderParams(
        embedding=_uniform(rng, (vocab_size, emb_size)),
        gru=init_gru(rng, emb_size + enc_width, dec_hidden),
        attn=AttentionParams(
            u_dec=_uniform(rng, (dec_hidden, attn_size)),
            v_enc=_uniform(rng, (enc_width, attn_size)),
            score_v=_uniform(rng, (attn_size,)),
        ),
        w_init=_uniform(rng, (enc_width, dec_hidden)),
        b_init=_uniform(rng, (dec_hidden,)),
        w_out=_uniform(rng, (dec_hidden + enc_width + emb_size, vocab_size)),
        b_out=_uniform(rng, (vocab_size,)),
    )


@dataclass
class Hypothesis:
    """Beam-search bookkeeping: token ids, cumulative log-prob, decoder state."""

    tokens: list = field(default_factory=list)
    score: float = 0.0
    state: Tensor | None = None

    @property
    def finished(self) -> bool:
        return bool(self.tokens) and self.tokens[-1] == EOS

    def translation(self):
        return self.tokens[:-1] if self.finished else list(self.tokens)


def attention_keys(enc: EncoderOutput, params: AttentionParams) -> np.ndarray:
    """Encoder-side attention projection ``states @ v_enc`` in numpy; it does
    not change between decoder steps, so decoding computes it once per encode."""
    return enc.states.data @ params.v_enc.data


def _source_mask(mask) -> np.ndarray:
    """``mask`` as bool; a row with every source position masked raises the
    attention error, before anything divides by the row's length."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("attention: all source positions masked")
    return mask


def _attend(s, keys, mask, attn: AttentionParams):
    """Masked additive attention weights in numpy: (tanh(keys + s u_dec),
    weights), with ``keys`` from ``attention_keys``; shapes as ``attention``."""
    mask = _source_mask(mask)
    pre = np.tanh(keys + (s @ attn.u_dec.data)[..., None, :])
    scores = np.where(mask, pre @ attn.score_v.data, -np.inf)
    with np.errstate(invalid="ignore"):
        scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    return pre, e / e.sum(axis=-1, keepdims=True)


def _context(weights, states):
    """The attention context ``weights @ states`` per row: (..., len) weights
    over (..., len, d) states, or over one sentence's (len, d)."""
    return np.matmul(weights[..., None, :], states)[..., 0, :]


def attention(s_prev: Tensor, enc: EncoderOutput, params: AttentionParams,
              keys: np.ndarray):
    """Masked additive attention; returns (weights, context), recording nothing.

    Per sentence: s_prev (h,), states (len, d) -> weights (len,), context (d,).
    Batched: s_prev (B, h), states (B, len, d) -> (B, len), (B, d).
    Beam: s_prev (k, h), one sentence's states (len, d) -> (k, len), (k, d).
    ``keys`` is ``attention_keys(enc, params)``.
    """
    _, weights = _attend(s_prev.data, keys, enc.mask, params)
    return Tensor(weights), Tensor(_context(weights, enc.states.data))


def _init_state(states, mask, params: DecoderParams):
    """The initial state ``tanh(mean @ w_init + b_init)`` in numpy, where
    ``mean`` is the masked mean of ``states``, one ``_context`` of the
    weights ``mask / length``; returns (those weights, mean, state)."""
    m = _source_mask(mask).astype(np.float64)
    weights = m / m.sum(axis=-1, keepdims=True)
    mean = _context(weights, states)
    return weights, mean, np.tanh(mean @ params.w_init.data + params.b_init.data)


def init_state(enc: EncoderOutput, params: DecoderParams) -> Tensor:
    """tanh-affine of the masked average of encoder states, recording nothing."""
    return Tensor(_init_state(enc.states.data, enc.mask, params)[2])


def teacher_forcing_recurrence(y_prev_ids, enc: EncoderOutput,
                               params: DecoderParams) -> Tensor:
    """Every step's attention and GRU update under teacher forcing, as one
    tape node; returns the time-major (T * B, F) feature rows ``[s_t;
    context; emb]`` that ``training.nll_loss`` reads.

    ``y_prev_ids`` is (B, T), step t reading column t, and ``enc`` holds
    (B, len, d) states and their mask. The node computes the attention keys
    ``states @ v_enc`` and the initial state (``init_state``) itself. The
    target embeddings are gathered once, and each step runs ``_attend`` and
    the GRU step, the arithmetic of ``decoder_step`` without its projection.
    The node's parents are the embeddings, the states, ``v_enc``, ``u_dec``,
    ``score_v``, ``w_init``, ``b_init`` and the nine GRU tensors. Its
    adjoint runs backpropagation through time with the GRU step adjoint of
    ``encoders``; after the loop, the gradients of ``score_v``, ``u_dec``
    and the GRU weights are one GEMM each, and the states' gradient is its
    own batched matmul plus the initial state's term plus the keys' term,
    added in that order. It keeps every step's ``tanh(keys + s u_dec)``,
    attention weights, GRU inputs, states and gates.
    """
    ids = np.asarray(y_prev_ids, dtype=np.intp)
    emb = gather_rows(params.embedding, ids.T)  # (T, B, emb)
    a, p = params.attn, params.gru
    states = enc.states.data  # (B, len, d)
    mean_w, mean, s0 = _init_state(states, enc.mask, params)
    keys = attention_keys(enc, a)
    steps, B, E = emb.shape
    hidden, width = p.u_z.shape[0], states.shape[-1]
    S = np.empty((steps + 1, B, hidden))  # s0 and every step's state
    S[0] = s0
    X = np.empty((steps, B, E + width))  # the GRU inputs [emb; context]
    X[..., :E] = emb.data
    PRE = np.empty((steps,) + keys.shape)  # tanh(keys + s u_dec)
    W = np.empty((steps,) + mean_w.shape)  # attention weights
    Z, R, C = (np.empty((steps, B, hidden)) for _ in range(3))
    for t in range(steps):
        PRE[t], W[t] = _attend(S[t], keys, enc.mask, a)
        X[t, :, E:] = _context(W[t], states)
        x = X[t]
        S[t + 1], Z[t], R[t], C[t] = _gru_gates(x @ p.w_z.data, x @ p.w_r.data,
                                                x @ p.w_h.data, S[t], p)
    features = np.concatenate([S[1:], X[..., E:], X[..., :E]], axis=-1)

    def bwd(g):
        G = g.reshape(steps, B, -1)
        dZ, dR, dC = (np.empty((steps, B, hidden)) for _ in range(3))
        dX = np.empty(X.shape)
        dctx = dX[..., E:]  # the context's gradient, through the GRU and the features
        dscores = np.empty(W.shape)
        dproj = np.empty((steps, B, a.u_dec.shape[1]))
        dkeys = np.zeros(PRE.shape[1:])
        ds = 0.0  # the gradient reaching s_t from step t + 1
        for t in reversed(range(steps)):
            dZ[t], dR[t], dC[t], dh = _gru_step_adjoint(G[t, :, :hidden] + ds, S[t], Z[t],
                                                        R[t], C[t], p)
            dX[t] = _gru_input_grad(dZ[t], dR[t], dC[t], p)
            dctx[t] += G[t, :, hidden:hidden + width]
            dw = np.matmul(states, dctx[t][:, :, None])[..., 0]
            dscores[t] = W[t] * (dw - (dw * W[t]).sum(axis=-1, keepdims=True))
            dpre = dscores[t][..., None] * a.score_v.data * (1.0 - PRE[t] * PRE[t])
            dkeys += dpre
            dproj[t] = dpre.sum(axis=1)
            ds = dh + dproj[t] @ a.u_dec.data.T
        dz, dr, dc = (d.reshape(steps * B, hidden) for d in (dZ, dR, dC))
        dinit = ds * (1.0 - s0 * s0)  # through the initial state's tanh
        rows, dkeys = states.reshape(-1, width), dkeys.reshape(-1, dkeys.shape[-1])
        dstates = np.matmul(W.transpose(1, 2, 0), dctx.transpose(1, 0, 2))
        dstates += mean_w[..., None] * (dinit @ params.w_init.data.T)[:, None, :]
        dstates += (dkeys @ a.v_enc.data.T).reshape(states.shape)
        prev = S[:steps].reshape(-1, hidden)
        return (dX[..., :E] + G[..., hidden + width:], dstates, rows.T @ dkeys,
                prev.T @ dproj.reshape(-1, dproj.shape[-1]),
                PRE.reshape(-1, PRE.shape[-1]).T @ dscores.reshape(-1),
                mean.T @ dinit, dinit.sum(axis=0),
                *_gru_weight_grads(X.reshape(steps * B, -1), prev,
                                   (R * S[:steps]).reshape(-1, hidden), dz, dr, dc))

    return node(features.reshape(steps * B, -1),
                (emb, enc.states, a.v_enc, a.u_dec, a.score_v, params.w_init,
                 params.b_init, *p.tensors()), bwd)


def context_table(enc: EncoderOutput, params: DecoderParams) -> np.ndarray:
    """Decoding's per-encode product of one sentence's (len, d) states with
    every weight block that reads the context: the context rows of the GRU
    input weights ``w_z``, ``w_r`` and ``w_h`` and of ``w_out``, side by side
    in a (len, 3 * hidden + vocab) array. A step's ``weights @ table`` is
    then the context's share of its GRU input projections and its logits."""
    emb, hidden = params.embedding.shape[1], params.gru.u_z.shape[0]
    width = enc.states.shape[-1]
    g = params.gru
    blocks = [w.data[emb:] for w in (g.w_z, g.w_r, g.w_h)]
    blocks.append(params.w_out.data[hidden:hidden + width])
    return np.concatenate([enc.states.data @ w for w in blocks], axis=-1)


def decoder_step(y_prev_id, s_prev: Tensor, enc: EncoderOutput,
                 params: DecoderParams, keys: np.ndarray | None = None,
                 table: np.ndarray | None = None):
    """One decoding step in numpy: attention, the GRU update and the
    projection of ``[s_t; context; emb]``; returns (new state, unnormalized
    vocab logits), neither of which records. ``keys`` is
    ``attention_keys(enc, params.attn)``, computed here when omitted.

    Batched (B, len, d) states give each row its own context, which is
    formed and projected directly. One sentence's (len, d) states, shared
    by every row, are read through ``table``, ``context_table(enc,
    params)`` (computed here when omitted): the context enters the GRU
    input projections and the logits as ``weights @ table``, and the
    context rows of the weights are not read.
    """
    if keys is None:
        keys = attention_keys(enc, params.attn)
    emb = params.embedding.data[np.asarray(y_prev_id, dtype=np.intp)]
    w_out = params.w_out.data
    if enc.states.ndim == 3:
        context = attention(s_prev, enc, params.attn, keys)[1].data
        s_t = gru_cell(np.concatenate([emb, context], axis=-1), s_prev, params.gru)
        features = np.concatenate([s_t.data, context, emb], axis=-1)
        return s_t, Tensor(features @ w_out + params.b_out.data)
    if table is None:
        table = context_table(enc, params)
    _, weights = _attend(s_prev.data, keys, enc.mask, params.attn)
    via_context = weights @ table  # (..., 3 * hidden + vocab)
    g, E = params.gru, emb.shape[-1]
    hidden = g.u_z.shape[0]
    xw = [emb @ w.data[:E] + via_context[..., i * hidden:(i + 1) * hidden]
          for i, w in enumerate((g.w_z, g.w_r, g.w_h))]
    s_t = _gru_gates(*xw, s_prev.data, g)[0]
    logits = (s_t @ w_out[:hidden] + via_context[..., 3 * hidden:]
              + emb @ w_out[-E:] + params.b_out.data)
    return Tensor(s_t), Tensor(logits)


def score_sequence(enc: EncoderOutput, params: DecoderParams, tokens) -> float:
    """Cumulative log-probability of ``tokens`` (EOS appended if absent)
    for one sentence's (len, d) states."""
    seq = list(tokens)
    if not seq or seq[-1] != EOS:
        seq = seq + [EOS]
    keys = attention_keys(enc, params.attn)
    table = context_table(enc, params)
    s = init_state(enc, params)
    prev = BOS
    total = 0.0
    for tok in seq:
        s, logits = decoder_step(prev, s, enc, params, keys, table)
        total += float(log_softmax(logits).data[tok])
        prev = tok
    return total


def greedy_decode(enc: EncoderOutput, params: DecoderParams, max_len: int):
    """Argmax decoding for a single sentence; returns ids without BOS/EOS."""
    one = EncoderOutput(states=Tensor(enc.states.data[None]), mask=enc.mask[None])
    return greedy_decode_batch(one, params, max_len)[0]


def greedy_decode_batch(enc: EncoderOutput, params: DecoderParams, max_len: int):
    """Batched argmax decoding; returns one id list per sentence.

    Rows may have different source lengths: padded positions carry
    ``mask`` False and never reach attention or the initial state. Each
    step's argmax goes into a ``(steps, B)`` matrix, and each row is cut
    at its first EOS at the end; a finished row feeds EOS back in.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    B = enc.states.shape[0]
    keys = attention_keys(enc, params.attn)
    s = init_state(enc, params)
    prev = np.full(B, BOS, dtype=np.intp)
    done = np.zeros(B, dtype=bool)
    steps = []
    for _ in range(max_len):
        s, logits = decoder_step(prev, s, enc, params, keys)
        toks = np.argmax(logits.data, axis=-1)
        steps.append(toks)
        done |= toks == EOS
        prev = np.where(done, EOS, toks)
        if done.all():
            break
    ids = np.stack(steps)
    eos = ids == EOS
    ends = np.where(eos.any(axis=0), eos.argmax(axis=0), len(steps))
    return [ids[:end, i].tolist() for i, end in enumerate(ends)]


def beam_decode(enc: EncoderOutput, params: DecoderParams, beam: int,
                max_len: int) -> Hypothesis:
    """Length-unnormalized beam search over one sentence.

    The live hypotheses form the batch: each time step runs one batched
    ``decoder_step`` over them and keeps the ``beam`` best of the flattened
    (hypothesis, token) scores, ordered by score descending, then token id
    ascending, then live-hypothesis index ascending.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    states = init_state(enc, params).data[None]   # (k, h), k live hypotheses
    prev = np.array([BOS], dtype=np.intp)
    scores = np.zeros(1)
    tokens = [[]]
    completed = []
    keys = attention_keys(enc, params.attn)
    table = context_table(enc, params)
    for _ in range(max_len):
        # the sentence's (len, d) states are shared by the (k, h) batch
        s_t, logits = decoder_step(prev, Tensor(states), enc, params, keys, table)
        vocab = logits.shape[-1]
        total = (scores[:, None] + log_softmax(logits).data).ravel()
        n = min(beam, total.size)
        # every candidate tied with the n-th best, then the exact order
        kth = -np.partition(-total, n - 1)[n - 1]
        cand = np.flatnonzero(total >= kth)
        hyp_idx, tok_idx = np.divmod(cand, vocab)
        top = np.lexsort((hyp_idx, tok_idx, -total[cand]))[:n]
        keep = []
        for j in top:
            h, tok = int(hyp_idx[j]), int(tok_idx[j])
            if tok == EOS:
                completed.append(Hypothesis(tokens=tokens[h] + [tok],
                                            score=float(total[cand[j]]),
                                            state=Tensor(s_t.data[h])))
            else:
                keep.append(j)
        if not keep:
            break
        tokens = [tokens[hyp_idx[j]] + [int(tok_idx[j])] for j in keep]
        states = s_t.data[hyp_idx[keep]]
        prev = tok_idx[keep]
        scores = total[cand[keep]]
    if completed:
        return max(completed, key=lambda h: h.score)
    return Hypothesis(tokens=tokens[0], score=float(scores[0]),
                      state=Tensor(states[0]))
