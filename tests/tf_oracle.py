"""Reference teacher forcing, in two forms that the fused loss must match.

``reference_teacher_forcing_loss`` runs one composed step
(``layer_oracle.reference_recurrence_step``), attention keys and output
projection ``matmul(f, w_out) + b_out`` per time step and stacks the
logits to (T, B, vocab): the original per-step body of
``gcnmt.training.teacher_forcing_loss``, which the batched implementation
must match in loss and in every parameter gradient.

``composed_teacher_forcing_loss`` is the batched body as it was before the
projection and the loss became one node: the same recurrence node as
``gcnmt.training.teacher_forcing_loss`` builds the features, then
``matmul(features, w_out) + b_out`` projects them and ``logits_nll_loss``
takes the loss. It does the same arithmetic in the same order as
``gcnmt.training.nll_loss``, so the two must agree bit for bit.

``logits_nll_loss`` is the former one-node NLL over logits, kept verbatim.
Every tape op used here is one ``gcnmt`` records, except ``stack0``; it and
the other ops ``gcnmt`` does not record (``sub``, ``mul``, ``neg``,
``sigmoid``, ``softmax``, ``tsum``) and ``grad_check`` live in
``tape_ops``.
"""

import numpy as np

from gcnmt.corpus import PAD
from gcnmt.decoder import attention_keys, init_state, teacher_forcing_recurrence
from gcnmt.encoders import encode_pipeline
from gcnmt.tensor import Tensor, matmul, node
from gcnmt.training import word_dropout
from layer_oracle import reference_recurrence_step
from tape_ops import stack0


def logits_nll_loss(logits, targets, mask):
    """Mean negative log-likelihood over unmasked steps.

    ``logits`` has vocabulary on the last axis; ``targets`` and ``mask``
    match the leading axes. One tape node: log-softmax, the pick of each
    target and the masked mean, with the adjoint
    ``(exp(log_softmax) - onehot) * mask * g / total``, so no dense zero
    gradient of the log-probabilities is built for the picks.
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
    z = logits_t.data - logits_t.data.max(axis=-1, keepdims=True)
    lsm = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    rows, cols = np.arange(targets.size), targets.ravel()
    picks = lsm.reshape(-1, vocab)[rows, cols]
    loss = -(picks * mask.ravel()).sum() * (1.0 / total)

    def bwd(g):
        d = np.exp(lsm)
        d.reshape(-1, vocab)[rows, cols] -= 1.0
        d *= (g * (1.0 / total) * mask)[..., None]
        return (d,)

    return node(np.asarray(loss), (logits_t,), bwd)


def _inputs(model, batch, train_cfg, rng):
    src_ids = word_dropout(batch.src, train_cfg.word_retain, rng)
    tgt_in = word_dropout(batch.tgt[:, :-1], train_cfg.word_retain, rng)
    tgt_out = batch.tgt[:, 1:]
    mask = tgt_out != PAD
    enc = encode_pipeline(batch, model.config, model.encoder, mode="train",
                          edge_retain=train_cfg.edge_retain, rng=rng,
                          src_ids=src_ids)
    return enc, tgt_in, tgt_out, mask


def reference_teacher_forcing_loss(model, batch, train_cfg, rng):
    """Cross-entropy of the batch under teacher forcing, step by step."""
    enc, tgt_in, tgt_out, mask = _inputs(model, batch, train_cfg, rng)
    dec = model.decoder
    s = init_state(enc, dec)
    step_logits = []
    for t in range(tgt_in.shape[1]):
        s, f = reference_recurrence_step(tgt_in[:, t], s, enc, dec,
                                         attention_keys(enc, dec.attn))
        step_logits.append(matmul(f, dec.w_out) + dec.b_out)
    all_logits = stack0(step_logits)  # (T, B, vocab)
    return logits_nll_loss(all_logits, tgt_out.T, mask.T)


def composed_teacher_forcing_loss(model, batch, train_cfg, rng):
    """Cross-entropy of the batch with one projection over every step's
    features and a separate loss node."""
    enc, tgt_in, tgt_out, mask = _inputs(model, batch, train_cfg, rng)
    dec = model.decoder
    features = teacher_forcing_recurrence(tgt_in, init_state(enc, dec), enc, dec,
                                          attention_keys(enc, dec.attn))
    logits = matmul(features, dec.w_out) + dec.b_out
    return logits_nll_loss(logits, tgt_out.T.ravel(), mask.T.ravel())
