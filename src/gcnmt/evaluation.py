"""Cased corpus-level BLEU and the experiment pipeline.

BLEU follows the original corpus definition: clipped modified n-gram
precisions up to order 4, geometric mean, multiplicative brevity penalty,
no smoothing. Text is scored case-sensitively after whitespace splitting
of detokenized output.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass

from .config import (
    GRIDS,
    ConfigError,
    DataPaths,
    ExperimentConfig,
    TrainConfig,
)
from .corpus import (
    build_label_vocab,
    build_vocab,
    ingest_conll,
    learn_bpe,
    segment,
)
from .decoder import _sentence_view, beam_decode
from .training import decode_pairs, train, translate_pairs

MAX_ORDER = 4


def translate_corpus(model, pairs, src_vocab, tgt_vocab, bpe,
                     train_cfg: TrainConfig):
    """Translate honoring the configured decoding mode (greedy or beam);
    returns detokenized word lists in input order."""
    cfg = model.config
    if cfg.decode == "greedy":
        return translate_pairs(model, pairs, src_vocab, tgt_vocab, bpe, train_cfg)
    return decode_pairs(
        model, pairs, src_vocab, tgt_vocab, bpe, train_cfg.batch_size,
        lambda enc: [beam_decode(_sentence_view(enc, i), model.decoder, cfg.beam_size,
                                 cfg.max_decode_len).translation()
                     for i in range(enc.states.shape[0])])


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
    with open(conll_path, encoding="utf-8") as fh:
        sentences = ingest_conll(fh.read())
    with open(tgt_path, encoding="utf-8") as fh:
        targets = [line.split() for line in fh if line.strip()]
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
        "sem": build_label_vocab([s.sem_edges for s, _ in train_pairs]),
        "syn": build_label_vocab([s.syn_edges for s, _ in train_pairs]),
    }
    return PreprocessResult(src_vocab=src_vocab, tgt_vocab=tgt_vocab, bpe=bpe,
                            label_vocabs=label_vocabs)


@dataclass
class ExperimentSummary:
    recipe: str
    encoder: str
    test_bleu: float
    best_val_bleu: float
    best_epoch: int
    out_dir: str

    def row(self) -> str:
        return (f"{self.encoder}\t{self.recipe}\t{self.test_bleu:.2f}\t"
                f"{self.best_val_bleu:.2f}\t{self.best_epoch}")


def run_experiment(exp_cfg: ExperimentConfig, train_cfg: TrainConfig,
                   paths: DataPaths) -> ExperimentSummary:
    """Preprocess, train, translate the test set and score one configuration."""
    stage = "preprocess"
    try:
        train_pairs = _read_pairs(paths.train_conll, paths.train_tgt)
        val_pairs = (_read_pairs(paths.val_conll, paths.val_tgt)
                     if paths.val_conll else train_pairs)
        test_pairs = (_read_pairs(paths.test_conll, paths.test_tgt)
                      if paths.test_conll else val_pairs)
        prep = preprocess(train_pairs, exp_cfg, train_cfg)

        stage = "train"
        result = train(train_cfg, exp_cfg, train_pairs, val_pairs,
                       prep.src_vocab, prep.tgt_vocab, prep.bpe,
                       prep.label_vocabs, out_dir=paths.out_dir)

        stage = "translate"
        hyps = translate_corpus(result.model, test_pairs, prep.src_vocab,
                                prep.tgt_vocab, prep.bpe, train_cfg)
        if paths.out_dir:
            with open(os.path.join(paths.out_dir, "test.hyp.txt"), "w",
                      encoding="utf-8") as fh:
                for words in hyps:
                    fh.write(" ".join(words) + "\n")

        stage = "score"
        report = bleu(hyps, [tgt for _, tgt in test_pairs])
    except Exception as e:
        raise RuntimeError(f"experiment failed during {stage}: {e}") from e
    return ExperimentSummary(recipe=exp_cfg.recipe, encoder=exp_cfg.encoder,
                             test_bleu=report.bleu,
                             best_val_bleu=result.best_val_bleu,
                             best_epoch=result.best_epoch,
                             out_dir=paths.out_dir or "")


def run_grid(grid_name: str, exp_cfg: ExperimentConfig, train_cfg: TrainConfig,
             paths: DataPaths):
    """Run every recipe of a named grid; returns one summary per recipe."""
    if grid_name not in GRIDS:
        raise ConfigError(f"unknown grid {grid_name!r}; known: {sorted(GRIDS)}")
    summaries = []
    base_out = paths.out_dir
    for recipe in GRIDS[grid_name]:
        cfg = ExperimentConfig(**{**exp_cfg.__dict__, "recipe": recipe})
        cell_paths = DataPaths(**{**paths.__dict__,
                                  "out_dir": os.path.join(base_out,
                                                          recipe.replace(":", ""))})
        summaries.append(run_experiment(cfg, train_cfg, cell_paths))
    return summaries
