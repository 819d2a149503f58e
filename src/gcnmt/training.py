"""Maximum-likelihood training: loss, dropout, Adam, the training loop.

Batches are bucketed by exact source length, so a batched forward pass is
numerically identical to encoding each sentence alone. The loop is
deterministic given the seed: initialization, shuffling and dropout all
draw from one generator in a fixed order. Teacher forcing runs the decoder
over every step, with its attention keys and initial state, as one tape
node (``decoder.teacher_forcing_recurrence``); the output projection,
log-softmax, target picks and masked mean over every step of a batch are
then one more (``nll_loss``) over its features, ``w_out`` and ``b_out``.
A training step clears the gradients before its forward pass, so the
previous step's gradients are freed before the new tape is recorded, and
``backward`` hands the gradients the fused nodes return to the parameters
without copying.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ExperimentConfig, TrainConfig
from .corpus import PAD, SPECIALS, UNK, Batch, bucket_indices, make_batch
from .decoder import teacher_forcing_recurrence
from .encoders import encode_pipeline
from .evaluation import bleu, translate_corpus
from .model import Model, build_model, save_model
from .tensor import Tensor, backward, load_checkpoint, node, zero_grads


# Rows per block of nll_loss's log-sum-exp: exp of one block is its only
# logits-wide scratch array.
_LSE_ROWS = 64


def nll_loss(x, targets, mask, w_out: Tensor, b_out: Tensor) -> Tensor:
    """Mean negative log-likelihood of the logits ``x @ w_out + b_out`` over
    unmasked steps.

    ``w_out`` is (F, vocab) and ``b_out`` (vocab,); ``targets`` and ``mask``
    match the leading axes of ``x``. One tape node over ``x``, ``w_out`` and
    ``b_out``: it keeps one logits-sized buffer, holding the log-softmax
    (its log-sum-exp takes ``exp`` a block of ``_LSE_ROWS`` rows at a time,
    each row reduced on its own), and its adjoint turns that buffer into
    the logit gradient
    ``(exp(log_softmax) - onehot) * mask * g / total`` in place, so no other
    logits-sized array is kept or built by the adjoint. The gradients it
    returns are new arrays (``tensor.node``). Each operation and its order
    are those of the projection, the bias add and the log-softmax composed,
    so the loss and every gradient are bit-identical to them for 2-d ``x``.
    """
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    targets = np.asarray(targets, dtype=np.intp)
    mask = np.asarray(mask, dtype=np.float64)
    if x_t.shape[:-1] != targets.shape or targets.shape != mask.shape:
        raise ValueError(
            f"nll_loss shapes disagree: x {x_t.shape}, "
            f"targets {targets.shape}, mask {mask.shape}")
    total = mask.sum()
    if total == 0:
        raise ValueError("nll_loss: all target steps masked")
    buf = np.matmul(x_t.data, w_out.data)
    buf += b_out.data
    buf -= buf.max(axis=-1, keepdims=True)
    vocab = buf.shape[-1]
    flat = buf.reshape(-1, vocab)
    lse = np.empty((len(flat), 1))
    scratch = np.empty((min(_LSE_ROWS, len(flat)), vocab))
    for lo in range(0, len(flat), _LSE_ROWS):
        blk = flat[lo:lo + _LSE_ROWS]
        np.exp(blk, out=scratch[:len(blk)]).sum(axis=-1, keepdims=True,
                                                out=lse[lo:lo + _LSE_ROWS])
    flat -= np.log(lse, out=lse)  # log-softmax
    rows, cols = np.arange(targets.size), targets.ravel()
    picks = flat[rows, cols]
    loss = -(picks * mask.ravel()).sum() * (1.0 / total)

    def bwd(g):
        d = np.exp(buf, out=buf)  # the log-softmax is not needed again
        d2 = d.reshape(-1, vocab)
        d2[rows, cols] -= 1.0
        d *= (g * (1.0 / total) * mask)[..., None]
        x2 = x_t.data.reshape(-1, x_t.shape[-1])
        return (d2 @ w_out.data.T).reshape(x_t.shape), x2.T @ d2, d2.sum(axis=0)

    return node(np.asarray(loss), (x_t, w_out, b_out), bwd)


def word_dropout(ids, retain: float, rng):
    """Replace non-special tokens by UNK with probability 1 - retain; at
    ``retain == 1`` a copy, with nothing drawn from ``rng``."""
    if not 0.0 < retain <= 1.0:
        raise ValueError(f"retain must lie in (0, 1], got {retain}")
    ids = np.asarray(ids, dtype=np.intp)
    if retain == 1.0:
        return ids.copy()
    drop = rng.random(ids.shape) >= retain
    drop &= ids >= len(SPECIALS)  # PAD/UNK/BOS/EOS are exempt
    out = ids.copy()
    out[drop] = UNK
    return out


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    step: int = 0
    moments: dict = field(default_factory=dict)


# Elements per block of the Adam pass: a block of the parameter, its
# moments, its gradient and two scratch arrays stay in cache together.
_ADAM_BLOCK = 8192


def adam_step(params: dict, state: AdamState, lr: float, l2: float = 0.0) -> None:
    """Bias-corrected Adam update in place; L2 is added to the gradients.

    Every gradient is checked before anything changes, so a non-finite one
    leaves the parameters, the moments and ``state.step`` as they were.
    Each parameter is updated in one pass over blocks of ``_ADAM_BLOCK``
    elements, through two scratch blocks. Per element the operations and
    their order are those of the whole-array formula, so the result is
    bit-identical to it::

        g = grad + l2 * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / c1) / (sqrt(v / c2) + eps)

    The moments and each ``p.data`` are updated in place.
    """
    # one sum per gradient is the fast test; the elementwise one decides only
    # when the sum is not finite, since finite values can overflow the sum
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            g = p.grad
            if g is not None and not np.isfinite(g.sum()) and not np.isfinite(g).all():
                raise FloatingPointError(f"adam_step: non-finite gradient for {name}")
    state.step += 1
    t = state.step
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    scratch_g, scratch_u = np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)
    for name, p in params.items():
        if name not in state.moments:
            state.moments[name] = (np.zeros(p.shape), np.zeros(p.shape))
        m, v = (x.reshape(-1) for x in state.moments[name])
        data = p.data.reshape(-1)  # a copy only if p.data is not C-contiguous
        grad = None if p.grad is None else p.grad.reshape(-1)
        for lo in range(0, data.size, _ADAM_BLOCK):
            blk = slice(lo, lo + _ADAM_BLOCK)
            x, mb, vb = data[blk], m[blk], v[blk]
            g, u = scratch_g[:x.size], scratch_u[:x.size]
            np.multiply(x, l2, out=g)  # g
            np.add(0.0 if grad is None else grad[blk], g, out=g)
            mb *= b1  # m
            mb += np.multiply(g, 1.0 - b1, out=u)
            np.multiply(g, 1.0 - b2, out=u)  # v
            vb *= b2
            vb += np.multiply(u, g, out=u)
            np.divide(mb, c1, out=g)  # p; g is no longer needed
            g *= lr
            np.divide(vb, c2, out=u)
            np.sqrt(u, out=u)
            u += eps
            x -= np.divide(g, u, out=g)
        if not p.data.flags.c_contiguous:
            p.data[...] = data.reshape(p.shape)


def teacher_forcing_loss(model: Model, batch: Batch, train_cfg: TrainConfig,
                         rng) -> Tensor:
    """Cross-entropy of the batch under teacher forcing, with ``train_cfg``'s
    word and edge dropout; at ``word_retain == edge_retain == 1`` nothing is
    dropped or drawn from ``rng``, which may then be None."""
    src_ids = word_dropout(batch.src, train_cfg.word_retain, rng)
    tgt_in = word_dropout(batch.tgt[:, :-1], train_cfg.word_retain, rng)
    tgt_out = batch.tgt[:, 1:]
    mask = tgt_out != PAD
    enc = encode_pipeline(batch, model.config, model.encoder, mode="train",
                          edge_retain=train_cfg.edge_retain, rng=rng,
                          src_ids=src_ids)
    dec = model.decoder
    features = teacher_forcing_recurrence(tgt_in, enc, dec)
    # one projection and loss over every step: (T·B, F) rows in time-major order
    return nll_loss(features, tgt_out.T.ravel(), mask.T.ravel(), dec.w_out, dec.b_out)


def bucket_batches(pairs, src_vocab, tgt_vocab, bpe, train_cfg: TrainConfig, rng=None):
    """Group sentence pairs into batches of uniform source length."""
    return [make_batch([pairs[i] for i in idx], src_vocab, tgt_vocab, bpe,
                       max_len=train_cfg.max_sentence_len)
            for idx in bucket_indices(pairs, train_cfg.batch_size, rng)]


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    val_bleu: float
    seconds: float


@dataclass
class TrainResult:
    model: Model
    history: list
    best_epoch: int
    best_val_bleu: float
    best_checkpoint: str | None


def translate_pairs(model: Model, pairs, src_vocab, tgt_vocab, bpe,
                    train_cfg: TrainConfig):
    """Greedy-decode a list of pairs whatever the configured decoding mode,
    as validation does; returns detokenized word lists in input order."""
    greedy = replace(model, config=replace(model.config, decode="greedy"))
    return translate_corpus(greedy, pairs, src_vocab, tgt_vocab, bpe, train_cfg)


def train(train_cfg: TrainConfig, exp_cfg: ExperimentConfig, train_pairs,
          val_pairs, src_vocab, tgt_vocab, bpe, label_vocabs,
          out_dir=None) -> TrainResult:
    """Train a model from scratch; returns history and the best model.

    The best epoch is the first with the highest validation BLEU; without
    validation pairs there is nothing to select on, and it is the last.
    The returned model holds that epoch's parameters. Writes per-epoch
    checkpoints, ``best.npz`` (the best epoch's) and a tab-separated metrics
    log under ``out_dir`` unless it is None or empty; a best epoch before
    the last is then read back from ``best.npz`` at the end. Without
    ``out_dir``, one in-memory copy of the parameters is kept, taken at a
    new best that is not the last epoch, so a single epoch makes no copy.
    """
    train_cfg.validate()
    exp_cfg.validate()
    if not train_pairs:
        raise ValueError("train: empty corpus")
    rng = np.random.default_rng(train_cfg.rng_seed)
    model = build_model(exp_cfg, len(src_vocab), len(tgt_vocab), label_vocabs, rng)
    params = model.parameters()
    state = AdamState()
    refs = [list(tgt) for _, tgt in val_pairs]
    history = []
    best_epoch, best_bleu = 0, -1.0
    best_path = None
    best_params = None  # the in-memory copy of a best epoch before the last
    metrics_fh = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        metrics_fh = open(os.path.join(out_dir, "metrics.tsv"), "w", encoding="utf-8")
    try:
        for epoch in range(1, train_cfg.epochs + 1):
            t0 = time.time()
            batches = bucket_batches(train_pairs, src_vocab, tgt_vocab, bpe,
                                     train_cfg, rng=rng)
            total_loss, total_steps = 0.0, 0
            for batch in batches:
                zero_grads(params)  # frees the last step's gradients before this forward
                loss = teacher_forcing_loss(model, batch, train_cfg, rng)
                value = loss.item()
                if not np.isfinite(value):
                    raise FloatingPointError(f"non-finite training loss at epoch {epoch}")
                n_steps = int((batch.tgt[:, 1:] != PAD).sum())
                total_loss += value * n_steps
                total_steps += n_steps
                backward(loss)
                adam_step(params, state, train_cfg.learning_rate, train_cfg.l2_coeff)
            train_loss = total_loss / max(1, total_steps)
            val_bleu = 0.0
            if val_pairs:
                hyps = translate_pairs(model, val_pairs, src_vocab, tgt_vocab, bpe,
                                       train_cfg)
                val_bleu = bleu(hyps, refs).bleu
            seconds = time.time() - t0
            history.append(EpochMetrics(epoch, train_loss, val_bleu, seconds))
            if metrics_fh is not None:
                metrics_fh.write(f"{epoch}\t{train_loss:.6f}\t{val_bleu:.2f}\t"
                                 f"{seconds:.2f}\n")
                metrics_fh.flush()
            if out_dir and epoch % train_cfg.checkpoint_every == 0:
                save_model(os.path.join(out_dir, f"epoch_{epoch:04d}.npz"), model)
            if val_bleu > best_bleu or not val_pairs:
                best_bleu, best_epoch = val_bleu, epoch
                if out_dir:
                    best_path = os.path.join(out_dir, "best.npz")
                    save_model(best_path, model)
                elif val_pairs and epoch < train_cfg.epochs:
                    if best_params is None:
                        best_params = {k: np.empty_like(p.data) for k, p in params.items()}
                    for k, p in params.items():
                        best_params[k][...] = p.data
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    if best_epoch < train_cfg.epochs:
        if best_path is not None:
            load_checkpoint(best_path, params)
        else:
            for k, p in params.items():
                p.data[...] = best_params[k]
    return TrainResult(model=model, history=history, best_epoch=best_epoch,
                       best_val_bleu=best_bleu, best_checkpoint=best_path)
