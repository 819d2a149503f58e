"""Command-line interface: preprocess, train, translate, score, and
experiment runs over one configuration or a named grid."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import (
    GRIDS,
    ConfigError,
    DataPaths,
    ExperimentConfig,
    TrainConfig,
    load_config,
)
from .corpus import (
    BpeModel,
    CorpusError,
    LabelVocab,
    Vocabulary,
    ingest_conll,
    read_lines,
    read_text,
    segment,
)
from .evaluation import PreprocessResult, _read_pairs, bleu, preprocess, translate_corpus
from .model import build_model, load_model_params
from .training import train


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (key = value lines)")
    p.add_argument("--encoder", choices=["birnn", "cnn"])
    p.add_argument("--recipe", help="GCN recipe, e.g. none, sem:2, syn:2+sem:1")
    p.add_argument("--decode", choices=["greedy", "beam"])
    p.add_argument("--beam", type=int, dest="beam_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--seed", type=int, dest="rng_seed")
    p.add_argument("--bpe-merges", type=int, dest="bpe_merges")
    p.add_argument("--train-conll", dest="train_conll")
    p.add_argument("--train-tgt", dest="train_tgt")
    p.add_argument("--val-conll", dest="val_conll")
    p.add_argument("--val-tgt", dest="val_tgt")
    p.add_argument("--test-conll", dest="test_conll")
    p.add_argument("--test-tgt", dest="test_tgt")
    p.add_argument("--out-dir", dest="out_dir")


def _load_configs(args):
    if args.config:
        exp, trn, paths = load_config(args.config)
    else:
        exp, trn, paths = ExperimentConfig(), TrainConfig(), DataPaths()
    for section in (exp, trn, paths):
        for key in vars(section):
            value = getattr(args, key, None)
            if value is not None:
                setattr(section, key, value)
    if args.beam_size is not None and args.decode is None:
        exp.decode = "beam"
    exp.validate()
    trn.validate()
    return exp, trn, paths


def _save_prep(prep, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    prep.src_vocab.save(os.path.join(out_dir, "src_vocab.txt"))
    prep.tgt_vocab.save(os.path.join(out_dir, "tgt_vocab.txt"))
    bpe_path = os.path.join(out_dir, "bpe.txt")
    if prep.bpe is not None:
        prep.bpe.save(bpe_path)
    elif os.path.exists(bpe_path):  # an earlier run's model; _load_prep would read it
        os.remove(bpe_path)
    prep.label_vocabs["sem"].save(os.path.join(out_dir, "sem_labels.txt"))
    prep.label_vocabs["syn"].save(os.path.join(out_dir, "syn_labels.txt"))


def _load_prep(out_dir: str):
    bpe_path = os.path.join(out_dir, "bpe.txt")
    return PreprocessResult(
        src_vocab=Vocabulary.load(os.path.join(out_dir, "src_vocab.txt")),
        tgt_vocab=Vocabulary.load(os.path.join(out_dir, "tgt_vocab.txt")),
        bpe=BpeModel.load(bpe_path) if os.path.exists(bpe_path) else None,
        label_vocabs={
            "sem": LabelVocab.load(os.path.join(out_dir, "sem_labels.txt")),
            "syn": LabelVocab.load(os.path.join(out_dir, "syn_labels.txt")),
        },
    )


def _trainable(pairs, prep, trn: TrainConfig, command: str):
    """The training pairs that ``make_batch`` accepts at ``max_sentence_len``:
    at most that many source tokens and target pieces. The others are left
    out with one line on stderr; ``ConfigError`` if none is left."""
    limit = trn.max_sentence_len
    kept = [(s, t) for s, t in pairs
            if len(s.tokens) <= limit and len(segment(prep.bpe, t)) <= limit]
    if not kept:
        raise ConfigError(f"every training pair is longer than "
                          f"max_sentence_len = {limit}")
    if len(kept) < len(pairs):
        print(f"gcnmt {command}: left out {len(pairs) - len(kept)} of {len(pairs)} "
              f"training pairs longer than max_sentence_len = {limit}", file=sys.stderr)
    return kept


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
        if paths.out_dir:
            _save_prep(prep, paths.out_dir)
        fitting = _trainable(train_pairs, prep, train_cfg, "experiment")

        stage = "train"
        result = train(train_cfg, exp_cfg, fitting, val_pairs,
                       prep.src_vocab, prep.tgt_vocab, prep.bpe,
                       prep.label_vocabs, out_dir=paths.out_dir)

        stage = "translate"
        if result.best_checkpoint is not None:
            load_model_params(result.best_checkpoint, result.model)
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
    """Run every recipe of a named grid; returns one summary per recipe.

    Each cell writes under ``out_dir/<recipe>``; an empty ``out_dir`` stays
    empty for every cell, so the grid writes no files."""
    if grid_name not in GRIDS:
        raise ConfigError(f"unknown grid {grid_name!r}; known: {sorted(GRIDS)}")
    summaries = []
    base_out = paths.out_dir
    for recipe in GRIDS[grid_name]:
        cfg = ExperimentConfig(**{**exp_cfg.__dict__, "recipe": recipe})
        cell_out = os.path.join(base_out, recipe.replace(":", "")) if base_out else ""
        cell_paths = DataPaths(**{**paths.__dict__, "out_dir": cell_out})
        summaries.append(run_experiment(cfg, train_cfg, cell_paths))
    return summaries


def cmd_preprocess(args) -> int:
    exp, trn, paths = _load_configs(args)
    if not paths.out_dir:
        raise ConfigError("--out-dir must name a directory: preprocess writes "
                          "its vocabularies there")
    pairs = _read_pairs(paths.train_conll, paths.train_tgt)
    prep = preprocess(pairs, exp, trn)
    _save_prep(prep, paths.out_dir)
    print(f"preprocess: {len(pairs)} pairs, src vocab {len(prep.src_vocab)}, "
          f"tgt vocab {len(prep.tgt_vocab)} -> {paths.out_dir}")
    return 0


def cmd_train(args) -> int:
    exp, trn, paths = _load_configs(args)
    pairs = _read_pairs(paths.train_conll, paths.train_tgt)
    val_pairs = (_read_pairs(paths.val_conll, paths.val_tgt)
                 if paths.val_conll else pairs)
    prep = preprocess(pairs, exp, trn)
    if paths.out_dir:  # empty: train and report, write no files
        _save_prep(prep, paths.out_dir)
    result = train(trn, exp, _trainable(pairs, prep, trn, "train"), val_pairs,
                   prep.src_vocab, prep.tgt_vocab, prep.bpe, prep.label_vocabs,
                   out_dir=paths.out_dir)
    print(f"train: best epoch {result.best_epoch}, "
          f"val BLEU {result.best_val_bleu:.2f}, "
          f"checkpoint {result.best_checkpoint}")
    return 0


def cmd_translate(args) -> int:
    exp, trn, paths = _load_configs(args)
    prep = _load_prep(paths.out_dir)
    rng = np.random.default_rng(trn.rng_seed)
    model = build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                        prep.label_vocabs, rng)
    load_model_params(args.checkpoint, model)
    pairs = _read_pairs(args.input, args.input_tgt) if args.input_tgt else None
    if pairs is None:
        pairs = [(s, []) for s in ingest_conll(read_text(args.input))]
    # opened before the decode, so a bad output path fails at once, and after
    # the checkpoint and input were read, so a bad one leaves the file as it is
    with (open(args.output, "w", encoding="utf-8") if args.output
          else contextlib.nullcontext(sys.stdout)) as out:
        for words in translate_corpus(model, pairs, prep.src_vocab, prep.tgt_vocab,
                                      prep.bpe, trn):
            out.write(" ".join(words) + "\n")
    return 0


def cmd_score(args) -> int:
    hyps = [line.split() for line in read_lines(args.hyp)]
    refs = [line.split() for line in read_lines(args.ref)]
    report = bleu(hyps, refs)
    print(report.format())
    return 0


def cmd_experiment(args) -> int:
    exp, trn, paths = _load_configs(args)
    print("encoder\trecipe\ttest_bleu\tbest_val_bleu\tbest_epoch")
    if args.grid:
        for summary in run_grid(args.grid, exp, trn, paths):
            print(summary.row())
    else:
        print(run_experiment(exp, trn, paths).row())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcnmt",
        description="NMT with graph-convolutional encoders over "
                    "semantic-role and dependency graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="build vocabularies, BPE and labels")
    _add_override_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model")
    _add_override_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="translate an annotated corpus")
    _add_override_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="annotated source (column text)")
    p.add_argument("--input-tgt", dest="input_tgt")
    p.add_argument("--output")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("score", help="corpus BLEU of hypothesis vs reference file")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("experiment", help="run one config or a named grid")
    _add_override_flags(p)
    p.add_argument("--grid", choices=sorted(GRIDS))
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, CorpusError, OSError, RuntimeError,
            ValueError) as e:
        print(f"gcnmt {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
