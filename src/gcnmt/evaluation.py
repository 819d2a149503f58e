"""BLEU, corpus translation, preprocessing.

BLEU follows the original corpus definition: clipped modified n-gram
precisions up to order 4, geometric mean, multiplicative brevity penalty,
no smoothing. Text is scored case-sensitively after whitespace splitting
of detokenized output.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, TrainConfig
from .corpus import (
    LabelVocab,
    bucket_indices,
    build_vocab,
    ingest_conll,
    learn_bpe,
    make_batch,
    read_lines,
    read_text,
    rejoin_bpe,
    segment,
)
from .decoder import beam_decode, greedy_decode_batch
from .encoders import EncoderOutput, encode_pipeline
from .tensor import Tensor, no_grad

MAX_ORDER = 4


def _pad_outputs(encs) -> EncoderOutput:
    """Stack encoder outputs of different source lengths into one batch,
    zero-padded to the longest, with ``mask`` False on the padding."""
    length = max(e.states.shape[1] for e in encs)
    states = np.concatenate([np.pad(e.states.data,
                                    ((0, 0), (0, length - e.states.shape[1]), (0, 0)))
                             for e in encs])
    mask = np.concatenate([np.pad(e.mask, ((0, 0), (0, length - e.mask.shape[1])))
                           for e in encs])
    return EncoderOutput(Tensor(states), mask)


def translate_corpus(model, pairs, src_vocab, tgt_vocab, bpe,
                     train_cfg: TrainConfig):
    """Translate honoring the configured decoding mode (greedy or beam);
    returns detokenized word lists in input order.

    The one corpus-translation loop: sentences are encoded in exact-length
    buckets of at most ``train_cfg.batch_size`` with no length limit, since
    the base encoders have no mask. Greedy decoding gathers consecutive
    buckets into groups of at most ``batch_size`` sentences that may mix
    source lengths: each group is zero-padded to its longest source, and the
    decoder masks the padding in attention and in its initial state. A group
    is decoded as soon as the next bucket would overflow it. Beam search
    runs sentence by sentence.
    """
    cfg = model.config
    hyps = [None] * len(pairs)

    def emit(idx, outs):
        for i, ids in zip(idx, outs):
            pieces = [tgt_vocab.token(t) for t in ids]
            hyps[i] = rejoin_bpe(pieces) if bpe is not None else pieces

    def decode_group(group, encs):
        emit(group, greedy_decode_batch(_pad_outputs(encs), model.decoder,
                                        cfg.max_decode_len))

    group, encs = [], []
    for idx in bucket_indices(pairs, train_cfg.batch_size):
        # targets are never read here: each row gets an empty one, unsegmented
        batch = make_batch([(pairs[i][0], []) for i in idx], src_vocab, tgt_vocab)
        with no_grad():
            enc = encode_pipeline(batch, cfg, model.encoder, mode="infer")
        if cfg.decode != "greedy":
            emit(idx, [beam_decode(EncoderOutput(Tensor(enc.states.data[j]), enc.mask[j]),
                                   model.decoder, cfg.beam_size,
                                   cfg.max_decode_len).translation()
                       for j in range(len(idx))])
            continue
        if len(group) + len(idx) > train_cfg.batch_size:
            decode_group(group, encs)
            group, encs = [], []
        group += idx
        encs.append(enc)
    if group:
        decode_group(group, encs)
    return hyps


@dataclass
class BleuReport:
    bleu: float
    precisions: list
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    def format(self) -> str:
        ps = "/".join(f"{p * 100:.1f}" for p in self.precisions)
        return (f"BLEU = {self.bleu:.2f} (BP={self.brevity_penalty:.3f}, "
                f"p1..p4={ps})")


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses, references) -> BleuReport:
    """Corpus-level case-sensitive BLEU-4 with a single reference per pair."""
    if len(hypotheses) != len(references):
        raise ValueError(f"bleu: {len(hypotheses)} hypotheses vs "
                         f"{len(references)} references")
    if not hypotheses:
        raise ValueError("bleu: empty corpus")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = list(hyp), list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += max(0, len(hyp) - n + 1)
            matches[n - 1] += sum(min(c, ref_counts[g])
                                  for g, c in hyp_counts.items())
    precisions = [m / t if t > 0 else 0.0 for m, t in zip(matches, totals)]
    if hyp_len == 0:
        bp = 0.0 if ref_len > 0 else 1.0
    else:
        bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    if min(precisions) > 0.0:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
    else:
        score = 0.0
    return BleuReport(bleu=100.0 * score, precisions=precisions,
                      brevity_penalty=bp, hyp_length=hyp_len, ref_length=ref_len)


def _read_pairs(conll_path, tgt_path):
    sentences = ingest_conll(read_text(conll_path))
    targets = [line.split() for line in read_lines(tgt_path)]
    if len(sentences) != len(targets):
        raise ValueError(f"{conll_path}: {len(sentences)} sentences but "
                         f"{tgt_path}: {len(targets)} targets")
    return list(zip(sentences, targets))


@dataclass
class PreprocessResult:
    src_vocab: object
    tgt_vocab: object
    bpe: object
    label_vocabs: dict


def preprocess(train_pairs, exp_cfg: ExperimentConfig,
               train_cfg: TrainConfig) -> PreprocessResult:
    """Build vocabularies, BPE and edge-label inventories from training data."""
    src_vocab = build_vocab((s.tokens for s, _ in train_pairs),
                            min_count=train_cfg.min_count)
    tgt_corpus = [tgt for _, tgt in train_pairs]
    bpe = learn_bpe(tgt_corpus, exp_cfg.bpe_merges) if exp_cfg.bpe_merges > 0 else None
    tgt_vocab = build_vocab((segment(bpe, tgt) for tgt in tgt_corpus), min_count=1)
    label_vocabs = {
        "sem": build_vocab(([lab for _, _, lab in s.sem_edges] for s, _ in train_pairs),
                           min_count=2, cls=LabelVocab),
        "syn": build_vocab(([lab for _, _, lab in s.syn_edges] for s, _ in train_pairs),
                           min_count=2, cls=LabelVocab),
    }
    return PreprocessResult(src_vocab=src_vocab, tgt_vocab=tgt_vocab, bpe=bpe,
                            label_vocabs=label_vocabs)
