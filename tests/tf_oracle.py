"""Reference teacher forcing: one ``decoder_step``, attention keys and
output projection per time step, logits stacked to (T, B, vocab).

This is the original per-step body of
``gcnmt.training.teacher_forcing_loss``, kept verbatim as the oracle that
the batched-projection implementation must match in loss and in every
parameter gradient.
"""

from gcnmt.corpus import PAD
from gcnmt.decoder import decoder_step, init_state
from gcnmt.encoders import encode_pipeline
from gcnmt.tensor import stack0
from gcnmt.training import nll_loss, word_dropout


def reference_teacher_forcing_loss(model, batch, mode, train_cfg, rng):
    """Cross-entropy of the batch under teacher forcing."""
    if mode == "train":
        src_ids = word_dropout(batch.src, train_cfg.word_retain, rng, mode)
        tgt_in = word_dropout(batch.tgt[:, :-1], train_cfg.word_retain, rng, mode)
    else:
        src_ids = batch.src
        tgt_in = batch.tgt[:, :-1]
    tgt_out = batch.tgt[:, 1:]
    mask = tgt_out != PAD
    enc = encode_pipeline(batch, model.config, model.encoder, mode=mode,
                          edge_retain=train_cfg.edge_retain, rng=rng,
                          src_ids=src_ids)
    s = init_state(enc, model.decoder)
    step_logits = []
    for t in range(tgt_in.shape[1]):
        s, logits = decoder_step(tgt_in[:, t], s, enc, model.decoder)
        step_logits.append(logits)
    all_logits = stack0(step_logits)  # (T, B, vocab)
    return nll_loss(all_logits, tgt_out.T, mask.T)
