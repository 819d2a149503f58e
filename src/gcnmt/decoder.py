"""Attention-based GRU decoder with greedy and beam search.

Scoring is additive attention over encoder states; the attention keys
``states @ v_enc`` are computed once per encode and passed to every step,
and the context is ``tensor.weighted_sum`` of the weights over the states,
so no (batch, len, width) product is formed per step. The GRU update is
``encoders.gru_cell``, one tape node per step.
The GRU consumes the previous target embedding concatenated with the
context vector, and the output projection reads [state; context; previous
embedding]. A step is the recurrence (``recurrence_step``) followed by the
projection (``output_logits``): decoding runs both per step, while teacher
forcing runs the recurrence per step and projects every step's features
once per batch, inside its loss node (``training.nll_loss``). A greedy
batch may mix source lengths: its states are zero-padded to the longest
source, and ``mask`` keeps the padding out of attention (masked softmax)
and out of the initial state (masked mean). Beam search is
length-unnormalized: finished hypotheses compete in a completed pool
and the highest-scoring completed hypothesis wins (best live one at
max_len if nothing finished). It batches the beam: the live hypotheses
are the batch dimension of one ``decoder_step`` per time step, and the
candidates are ranked by score descending, then token id ascending, then
hypothesis index ascending.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS, EOS
from .encoders import EncoderOutput, GruParams, _uniform, gru_cell, init_gru
from .tensor import (
    Tensor,
    concat,
    gather_rows,
    log_softmax,
    matmul,
    no_grad,
    reshape,
    softmax,
    tanh,
    weighted_sum,
)


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


def attention_keys(enc: EncoderOutput, params: AttentionParams) -> Tensor:
    """Encoder-side attention projection ``states @ v_enc``; it does not
    change between decoder steps, so callers compute it once per encode."""
    return matmul(enc.states, params.v_enc)


def attention(s_prev: Tensor, enc: EncoderOutput, params: AttentionParams,
              keys: Tensor):
    """Masked additive attention; returns (weights, context).

    Per sentence: s_prev (h,), states (len, d) -> weights (len,), context (d,).
    Batched: s_prev (B, h), states (B, len, d) -> (B, len), (B, d).
    Beam: s_prev (k, h), one sentence's states (len, d) -> (k, len), (k, d).
    ``keys`` is ``attention_keys(enc, params)``.
    """
    states = enc.states
    if not bool(np.asarray(enc.mask).any(axis=-1).all()):
        raise ValueError("attention: all source positions masked")
    proj_s = matmul(s_prev, params.u_dec)
    proj_s = reshape(proj_s, proj_s.shape[:-1] + (1, proj_s.shape[-1]))
    scores = matmul(tanh(keys + proj_s), params.score_v)
    weights = softmax(scores, mask=enc.mask)
    return weights, weighted_sum(weights, states)


def init_state(enc: EncoderOutput, params: DecoderParams) -> Tensor:
    """tanh-affine of the masked average of encoder states, taken with one
    ``weighted_sum`` of the weights ``mask / length``."""
    mask = np.asarray(enc.mask, dtype=np.float64)
    denom = mask.sum(axis=-1, keepdims=True)
    avg = weighted_sum(mask / denom, enc.states)
    return tanh(matmul(avg, params.w_init) + params.b_init)


def recurrence_step(y_prev_id, s_prev: Tensor, enc: EncoderOutput,
                    params: DecoderParams, keys: Tensor):
    """Attention (``keys`` from ``attention_keys``) and GRU update; returns
    (new state, output features ``[s_t; context; emb]``) for ``output_logits``."""
    ids = np.asarray(y_prev_id, dtype=np.intp)
    emb = gather_rows(params.embedding, ids)
    _, context = attention(s_prev, enc, params.attn, keys)
    x = concat([emb, context], axis=-1)
    s_t = gru_cell(x, s_prev, params.gru)
    return s_t, concat([s_t, context, emb], axis=-1)


def output_logits(features: Tensor, params: DecoderParams) -> Tensor:
    """Unnormalized vocabulary logits of one or many steps' features."""
    return matmul(features, params.w_out) + params.b_out


def decoder_step(y_prev_id, s_prev: Tensor, enc: EncoderOutput,
                 params: DecoderParams, keys: Tensor | None = None):
    """One decoding step; returns (new state, unnormalized vocab logits).
    ``keys`` is ``attention_keys(enc, params.attn)``, computed here when omitted."""
    if keys is None:
        keys = attention_keys(enc, params.attn)
    s_t, features = recurrence_step(y_prev_id, s_prev, enc, params, keys)
    return s_t, output_logits(features, params)


def score_sequence(enc: EncoderOutput, params: DecoderParams, tokens) -> float:
    """Cumulative log-probability of ``tokens`` (EOS appended if absent)."""
    seq = list(tokens)
    if not seq or seq[-1] != EOS:
        seq = seq + [EOS]
    with no_grad():
        keys = attention_keys(enc, params.attn)
        s = init_state(enc, params)
        prev = BOS
        total = 0.0
        for tok in seq:
            s, logits = decoder_step(prev, s, enc, params, keys)
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
    with no_grad():
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
    with no_grad():
        states = init_state(enc, params).data[None]   # (k, h), k live hypotheses
        prev = np.array([BOS], dtype=np.intp)
        scores = np.zeros(1)
        tokens = [[]]
        completed = []
        keys = attention_keys(enc, params.attn)
        for _ in range(max_len):
            # the sentence's (len, d) states broadcast against the (k, h) batch
            s_t, logits = decoder_step(prev, Tensor(states), enc, params, keys)
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
