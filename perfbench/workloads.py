"""The benchmark workloads: seeded inputs, set-up, one unit of timed work
and the output checks.

Every call into the program goes through a module attribute at call time
(``evaluation.preprocess``, not a name imported once), so the tracer's
wrappers see the benchmark's own calls as well as the program's.

All workloads are closed-loop with one caller: this is an offline batch
system, so each unit of work starts when the previous one has finished.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import subprocess
import sys
import time
from collections import Counter

import numpy as np

from gcnmt import corpus, decoder, encoders, evaluation, model, tensor, training
from gcnmt.config import ExperimentConfig, TrainConfig

from synth import MAX_LEN, MIN_LEN, CorpusSpec, make_corpus

# BiRNN + syntactic GCN layer + semantic GCN layer, word-level target side.
EXP = ExperimentConfig(encoder="birnn", recipe="syn:1+sem:1", emb_size=128,
                       hidden_size=256, attn_size=64, max_decode_len=20,
                       bpe_merges=0)
BEAM = dataclasses.replace(EXP, decode="beam", beam_size=12)
# Nearly every one of the 2000 target types occurs, so V hardly depends on the seed.
VOCAB_SPEC = CorpusSpec(n_pairs=1024, src_types=2000, tgt_types=2000, zipf_s=0.7)
LENGTHS = range(MIN_LEN, MAX_LEN + 1)
# One train() call costs about the same per batch whatever the batch size,
# so the shard spans the lengths in 3 buckets to keep a unit near 2 s: short
# units let the machine-speed calibration follow the machine closely.
TRAIN_LENGTHS = (8, 15, 22)
TRAIN_PER_LENGTH = 16           # 48 pairs in 3 partly filled batches of 32
GREEDY_PER_LENGTH = 16          # 17 lengths -> 272 sentences
BEAM_LENGTHS = (16,)
GREEDY_SAMPLE = 6
# About 20k target word types, so apply_bpe's cache has a real hit rate.
PREP_SPEC = CorpusSpec(n_pairs=5000, src_types=20000, tgt_types=80000)
PREP_MERGES = 16
SETUP_REPEATS = 9
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Ops:
    """Operations attempted and failed: an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # the run goes on and reports the failure
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            return None

    def check(self, name, fn, *args) -> None:
        """Count ``fn(*args)`` as one operation that fails unless it is true."""
        ok = self.run(name, fn, *args)
        if ok is not None and not ok:
            self.failures.append(f"{name}: check failed")


def by_length(pairs, lengths, per_length):
    """The first ``per_length`` pairs of each source length, in corpus order."""
    taken = Counter()
    out = []
    for pair in pairs:
        n = len(pair[0].tokens)
        if n in lengths and taken[n] < per_length:
            taken[n] += 1
            out.append(pair)
    return out


@dataclasses.dataclass
class ModelState:
    prep: object
    saved: object
    model: object


class Workload:
    uses_tape = False

    @staticmethod
    def same(a, b) -> bool:
        """Whether two units gave the same outputs."""
        return a == b


class ModelWorkload(Workload):
    """Shared set-up of the model workloads, as ``gcnmt translate`` does it:
    vocabularies and label inventories from the corpus, a seeded model,
    ``save_model`` and ``load_model_params`` into a freshly built one."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.corpus = make_corpus(VOCAB_SPEC, seed)
        self.train_cfg = TrainConfig(epochs=1, batch_size=64, rng_seed=seed)

    def setup(self):
        t0 = time.perf_counter()
        prep = evaluation.preprocess(self.corpus, EXP, self.train_cfg)
        sizes = (len(prep.src_vocab), len(prep.tgt_vocab), prep.label_vocabs)
        saved = model.build_model(EXP, *sizes, np.random.default_rng(self.seed))
        path = os.path.join(self.workdir, "model.npz")
        model.save_model(path, saved)
        loaded = model.build_model(EXP, *sizes, np.random.default_rng(self.seed + 1))
        model.load_model_params(path, loaded)
        return ModelState(prep, saved, loaded), time.perf_counter() - t0

    def check_setup(self, state, ops):
        ops.check("checkpoint round trip", lambda: all(
            np.array_equal(p.data, state.model.parameters()[k].data)
            for k, p in state.saved.parameters().items()))

    def record(self, state) -> dict:
        return {
            "model": dataclasses.asdict(EXP),
            "parameters": sum(p.data.size for p in state.model.parameters().values()),
            "vocab_pairs": len(self.corpus),
            "src_vocab": len(state.prep.src_vocab),
            "tgt_vocab": len(state.prep.tgt_vocab),
            "labels": {g: len(v) for g, v in state.prep.label_vocabs.items()},
        }


@contextlib.contextmanager
def recording_losses(losses):
    """Record the value of every training-step loss."""
    original = training.teacher_forcing_loss

    def recorder(*args, **kwargs):
        loss = original(*args, **kwargs)
        losses.append(loss.item())
        return loss

    training.teacher_forcing_loss = recorder
    try:
        yield losses
    finally:
        training.teacher_forcing_loss = original


class TrainGcn(ModelWorkload):
    """One epoch of ``training.train`` over a length-stratified shard."""

    name = "train-gcn"
    metric = "train_tok_per_s"
    uses_tape = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pairs = by_length(self.corpus, set(TRAIN_LENGTHS), TRAIN_PER_LENGTH)
        self.tokens = sum(len(tgt) + 1 for _, tgt in self.pairs)  # with EOS
        self.train_cfg = TrainConfig(epochs=1, batch_size=32, rng_seed=seed)

    def unit(self, state):
        prep = state.prep
        with recording_losses([]) as losses:
            t0 = time.perf_counter()
            result = training.train(self.train_cfg, EXP, self.pairs, [],
                                    prep.src_vocab, prep.tgt_vocab, None,
                                    prep.label_vocabs)
            seconds = time.perf_counter() - t0
        return self.tokens, seconds, (losses, result.history[0].train_loss)

    def check_outputs(self, state, outputs, ops):
        losses, epoch_loss = outputs
        ops.check("every step's loss is finite",
                  lambda: bool(losses) and all(math.isfinite(v) for v in losses))
        ops.check("epoch loss is finite", lambda: math.isfinite(epoch_loss))

    def record(self, state):
        out = super().record(state)
        out.update(train_pairs=len(self.pairs), target_tokens=self.tokens,
                   batch_size=self.train_cfg.batch_size,
                   word_retain=self.train_cfg.word_retain,
                   edge_retain=self.train_cfg.edge_retain)
        return out


def sentence_view(state, pair):
    """The encoder output of one sentence alone, as greedy/beam search take it."""
    prep = state.prep
    batch = corpus.make_batch([pair], prep.src_vocab, prep.tgt_vocab)
    with tensor.no_grad():
        enc = encoders.encode_pipeline(batch, EXP, state.model.encoder, mode="infer")
    length, width = enc.states.shape[1:]
    return encoders.EncoderOutput(states=tensor.reshape(enc.states, (length, width)),
                                  mask=enc.mask[0])


def decoded_tokens(hyps, max_len):
    """Decoder steps behind ``hyps``: each runs to max_len or stops at EOS."""
    return sum(min(len(h) + 1, max_len) for h in hyps)


def contains(hyps, expected) -> bool:
    """``expected`` hypotheses all occur in ``hyps``, counted as multisets."""
    return not (Counter(map(tuple, expected)) - Counter(map(tuple, hyps)))


class Translate(ModelWorkload):
    """Greedy ``translate_corpus`` over mixed-length sentences in batches of 64.

    The weights are untrained, so hypotheses run to ``max_decode_len``
    unless EOS happens to win; tokens are counted as decoder steps taken.
    """

    name = "translate"
    metric = "greedy_tok_per_s"
    config = EXP

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pairs = by_length(self.corpus, set(LENGTHS), GREEDY_PER_LENGTH)

    def unit(self, state):
        translator = dataclasses.replace(state.model, config=self.config)
        prep = state.prep
        t0 = time.perf_counter()
        hyps = evaluation.translate_corpus(translator, self.pairs, prep.src_vocab,
                                           prep.tgt_vocab, None, self.train_cfg)
        seconds = time.perf_counter() - t0
        return decoded_tokens(hyps, EXP.max_decode_len), seconds, hyps

    def check_outputs(self, state, hyps, ops):
        ops.check("one hypothesis per sentence", lambda: len(hyps) == len(self.pairs))
        step = len(self.pairs) // GREEDY_SAMPLE
        for i in range(0, step * GREEDY_SAMPLE, step):
            ops.check(f"greedy sentence {i} alone", self._greedy_alone, state, hyps, i)

    def _greedy_alone(self, state, hyps, i):
        ids = decoder.greedy_decode(sentence_view(state, self.pairs[i]),
                                    state.model.decoder, EXP.max_decode_len)
        return contains(hyps, [[state.prep.tgt_vocab.token(t) for t in ids]])

    def record(self, state):
        out = super().record(state)
        out.update(sentences=len(self.pairs), decode=self.config.decode,
                   beam_size=self.config.beam_size,
                   max_decode_len=EXP.max_decode_len,
                   batch_size=self.train_cfg.batch_size)
        return out


class TranslateBeam(Translate):
    """``translate_corpus`` with beam 12 over a few sentences."""

    name = "translate-beam"
    metric = "beam_tok_per_s"
    config = BEAM

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pairs = by_length(self.corpus, set(BEAM_LENGTHS), 1)

    def check_outputs(self, state, hyps, ops):
        ops.check("one hypothesis per sentence", lambda: len(hyps) == len(self.pairs))
        for i, pair in enumerate(self.pairs):
            ops.check(f"beam sentence {i}", self._beam_alone, state, hyps, pair)

    def _beam_alone(self, state, hyps, pair):
        """Beam 12 alone gives a returned hypothesis whose score is
        ``score_sequence`` of its tokens, and beam 1 equals greedy."""
        view = sentence_view(state, pair)
        params, max_len = state.model.decoder, EXP.max_decode_len
        best = decoder.beam_decode(view, params, BEAM.beam_size, max_len)
        expected = decoder.score_sequence(view, params, best.tokens)
        score = best.score
        if not best.finished:  # score_sequence appends EOS; add its log-prob
            with tensor.no_grad():
                _, logits = decoder.decoder_step(best.tokens[-1], best.state, view, params)
            score += float(tensor.log_softmax(logits).data[corpus.EOS])
        words = [state.prep.tgt_vocab.token(t) for t in best.translation()]
        one = decoder.beam_decode(view, params, 1, max_len).translation()
        greedy = decoder.greedy_decode(view, params, max_len)
        return contains(hyps, [words]) and abs(score - expected) <= 1e-9 and one == greedy


class Preprocess(Workload):
    """CoNLL text plus targets through ``ingest_conll``, ``preprocess`` with
    a small BPE and ``bucket_batches``; no tensor work."""

    name = "preprocess"
    metric = "preprocess_pairs_per_s"

    def __init__(self, seed: int, workdir: str):
        pairs = make_corpus(PREP_SPEC, seed)
        self.sentences = [s for s, _ in pairs]
        self.targets = [t for _, t in pairs]
        self.conll = corpus.serialize_conll(self.sentences)
        self.tgt_text = "".join(" ".join(t) + "\n" for t in self.targets)
        self.exp = dataclasses.replace(EXP, bpe_merges=PREP_MERGES)
        self.train_cfg = TrainConfig(batch_size=64, max_sentence_len=400)

    def setup(self):
        """Import the program in a fresh interpreter, as every ``gcnmt`` command does."""
        probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import gcnmt.cli; "
                 "print(time.perf_counter() - t)")
        done = subprocess.run([sys.executable, "-c", probe, SRC], check=True,
                              capture_output=True, text=True, timeout=60)
        return None, float(done.stdout.split()[-1])

    def check_setup(self, state, ops):
        pass

    @staticmethod
    def same(a, b) -> bool:
        def key(outputs):
            sentences, prep, batches = outputs
            return (sentences, prep.bpe.merges, prep.src_vocab.id_to_token,
                    prep.tgt_vocab.id_to_token,
                    [(x.src.tobytes(), x.tgt.tobytes()) for x in batches])
        return key(a) == key(b)

    def unit(self, state):
        t0 = time.perf_counter()
        sentences = corpus.ingest_conll(self.conll)
        pairs = list(zip(sentences, (line.split() for line in self.tgt_text.splitlines())))
        prep = evaluation.preprocess(pairs, self.exp, self.train_cfg)
        batches = training.bucket_batches(pairs, prep.src_vocab, prep.tgt_vocab,
                                          prep.bpe, self.train_cfg)
        seconds = time.perf_counter() - t0
        return len(pairs), seconds, (sentences, prep, batches)

    def check_outputs(self, state, outputs, ops):
        sentences, prep, batches = outputs
        bpe = prep.bpe
        ops.check("ingest returns the generated sentences",
                  lambda: sentences == self.sentences)
        ops.check("merges learned as requested", lambda: len(bpe.merges) == PREP_MERGES)
        ops.check("BPE round trip of every target", lambda: all(
            corpus.rejoin_bpe(corpus.segment(bpe, t)) == t for t in self.targets))
        ops.check("batches hold every pair and target piece", lambda: (
            sum(b.size for b in batches) == len(self.targets)
            and sum(int((b.tgt != corpus.PAD).sum()) for b in batches)
            == sum(len(corpus.segment(bpe, t)) + 2 for t in self.targets)))

    def record(self, state):
        return {
            "pairs": len(self.targets),
            "target_tokens": sum(map(len, self.targets)),
            "target_types": len({w for t in self.targets for w in t}),
            "source_types": len({w for s in self.sentences for w in s.tokens}),
            "conll_bytes": len(self.conll),
            "bpe_merges": PREP_MERGES,
        }


WORKLOADS = {w.name: w for w in (TrainGcn, Translate, TranslateBeam, Preprocess)}
