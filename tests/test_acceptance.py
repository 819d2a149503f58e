"""Acceptance suite: one numbered pass/fail line per criterion."""

import itertools
import time

import numpy as np

from gcnmt import tensor as T
from gcnmt.config import ExperimentConfig, TrainConfig
from gcnmt.corpus import (
    EOS,
    AnnotatedSentence,
    apply_bpe,
    ingest_conll,
    learn_bpe,
    rejoin_bpe,
    serialize_conll,
)
from gcnmt.decoder import (
    beam_decode,
    build_decoder,
    greedy_decode,
    score_sequence,
)
from gcnmt.encoders import EncoderOutput, build_encoder, encode_pipeline, gcn_layer, init_gcn_layer
from gcnmt.evaluation import bleu, preprocess
from gcnmt.model import build_model
from gcnmt.training import bucket_batches, teacher_forcing_loss, train, translate_pairs
import tape_ops as TO


def _report(num, name, ok):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_gradient_suite():
    # full BiRNN+Sem(2L) model, GCN width d = 8, one 4-token sentence
    # with 3 semantic edges; every learnable parameter must pass a
    # central finite-difference check at relative error <= 1e-4
    t0 = time.time()
    sent = AnnotatedSentence(
        tokens=["a", "b", "c", "d"],
        sem_edges=[(1, 0, "A0"), (1, 2, "A1"), (3, 2, "A2")], syn_edges=[])
    pairs = [(sent, ["x", "y"])]
    exp = ExperimentConfig(encoder="birnn", recipe="sem:2", emb_size=6,
                           hidden_size=4, attn_size=5, decode="greedy",
                           max_decode_len=5, bpe_merges=0)
    assert exp.enc_width == 8
    tc = TrainConfig(min_count=1, batch_size=1, word_retain=1.0, edge_retain=1.0)
    prep = preprocess(pairs, exp, tc)
    model = build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                        prep.label_vocabs, np.random.default_rng(0))
    (batch,) = bucket_batches(pairs, prep.src_vocab, prep.tgt_vocab, None, tc)

    def f(_):
        return teacher_forcing_loss(model, batch, tc, None)

    report = TO.grad_check(f, model.parameters(), epsilon=1e-4, tolerance=1e-4)
    elapsed = time.time() - t0
    bad = [k for k, e in report.items() if not e.ok]
    _report(1, "gradient-suite", not bad and elapsed <= 60.0)


def test_criterion_2_selfloop_equivalence():
    # a GCN layer over an edgeless graph must equal an independent numpy
    # oracle for the gated per-position affine + ReLU, plus the residual
    # input the layer adds, within 1e-9
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        params = init_gcn_layer(rng, d, {"sem": 3})
        H = rng.uniform(-2, 2, (n, d))
        out = gcn_layer(T.Tensor(H), {"sem": []}, params).data
        gate = 1.0 / (1.0 + np.exp(-(H @ params.gate_w_loop.data
                                     + params.gate_b_loop.data[0])))
        oracle = np.maximum(0.0, gate[:, None]
                            * (H @ params.w_loop.data + params.b_loop.data)) + H
        worst = max(worst, float(np.abs(out - oracle).max()))
    _report(2, "selfloop-equivalence", worst <= 1e-9)


def test_criterion_3_permutation_equivariance():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        n_lab = 3
        params = init_gcn_layer(rng, d, {"sem": n_lab})
        H = rng.uniform(-2, 2, (n, d))
        edges = [(int(rng.integers(n)), int(rng.integers(n)),
                  int(rng.integers(n_lab)))
                 for _ in range(int(rng.integers(0, 2 * n)))]
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        out = gcn_layer(T.Tensor(H), {"sem": edges}, params).data
        perm_edges = [(int(inv[u]), int(inv[v]), lab) for u, v, lab in edges]
        out_p = gcn_layer(T.Tensor(H[perm]), {"sem": perm_edges}, params).data
        worst = max(worst, float(np.abs(out_p - out[perm]).max()))
    _report(3, "permutation-equivariance", worst <= 1e-9)


def test_criterion_4_selfloop_recipe_ignores_edges():
    sents = [AnnotatedSentence(tokens=["a", "b", "c"],
                               sem_edges=[(0, 1, "A0"), (2, 1, "A1")],
                               syn_edges=[(1, 0, "sbj"), (1, 2, "obj")]),
             AnnotatedSentence(tokens=["c", "b", "a"],
                               sem_edges=[(1, 0, "A0")],
                               syn_edges=[(0, 2, "obj")])]
    pairs = [(s, ["x"]) for s in sents]
    exp = ExperimentConfig(encoder="birnn", recipe="selfloop:2", emb_size=6,
                           hidden_size=4, bpe_merges=0)
    tc = TrainConfig(min_count=1, batch_size=4)
    prep = preprocess(pairs, exp, tc)
    enc = build_encoder(exp, len(prep.src_vocab), prep.label_vocabs,
                        np.random.default_rng(3))
    (batch,) = bucket_batches(pairs, prep.src_vocab, prep.tgt_vocab, None, tc)
    with_edges = encode_pipeline(batch, exp, enc).states.data
    batch.sem_edges = [[] for _ in batch.sem_edges]
    batch.syn_edges = [[] for _ in batch.syn_edges]
    without = encode_pipeline(batch, exp, enc).states.data
    _report(4, "selfloop-edge-independence",
            np.array_equal(with_edges, without))


def _random_decoder(seed, vocab=6, width=4):
    rng = np.random.default_rng(seed)
    params = build_decoder(vocab, 3, 4, width, 3, rng)
    for t in params.named().values():
        t.data *= 2.0
    return params


def test_criterion_5_beam_greedy_equivalence():
    rng = np.random.default_rng(4)
    ok = True
    for m in range(20):
        params = _random_decoder(100 + m)
        for _ in range(5):
            L = int(rng.integers(1, 6))
            enc = EncoderOutput(states=T.Tensor(rng.uniform(-1, 1, (L, 4))),
                                mask=np.ones(L, dtype=bool))
            greedy = greedy_decode(enc, params, max_len=6)
            hyp1 = beam_decode(enc, params, beam=1, max_len=6)
            ok &= hyp1.translation() == greedy
            g_score = score_sequence(enc, params, greedy)
            hyp3 = beam_decode(enc, params, beam=3, max_len=6)
            ok &= hyp3.score >= g_score - 1e-9

    # brute force oracle: vocab 4, max_len 4; a beam of 108 can never
    # prune (at most 27 live prefixes, 4 expansions each)
    params = _random_decoder(7, vocab=4)
    rng2 = np.random.default_rng(5)
    enc = EncoderOutput(states=T.Tensor(rng2.uniform(-1, 1, (3, 4))),
                        mask=np.ones(3, dtype=bool))
    best_score, best_tokens = -np.inf, None
    content = [t for t in range(4) if t != EOS]
    for n in range(0, 4):
        for seq in itertools.product(content, repeat=n):
            s = score_sequence(enc, params, list(seq))
            if s > best_score:
                best_score, best_tokens = s, list(seq) + [EOS]
    hyp = beam_decode(enc, params, beam=108, max_len=4)
    ok &= hyp.tokens == best_tokens and abs(hyp.score - best_score) < 1e-9
    _report(5, "beam-greedy-equivalence", ok)


def _copy_corpus(seed, n=100):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(20)]
    pairs = []
    for _ in range(n):
        toks = [words[i] for i in rng.choice(len(words), size=4, replace=False)]
        sem = [(0, j, f"A{j - 1}") for j in range(1, 4)]
        pairs.append((AnnotatedSentence(tokens=toks, sem_edges=sem,
                                        syn_edges=[]), list(toks)))
    return pairs


def _reorder_corpus(seed, n=100):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(12)]
    pairs = []
    for _ in range(n):
        args = list(rng.choice(len(words), size=3, replace=False))
        perm = list(rng.permutation(3))
        tokens = ["pred"] + [words[args[perm[j]]] for j in range(3)]
        sem, by_role = [], {}
        for j in range(3):
            sem.append((0, j + 1, f"A{perm[j]}"))
            by_role[perm[j]] = tokens[j + 1]
        tgt = ["pred", by_role[0], by_role[1], by_role[2]]
        pairs.append((AnnotatedSentence(tokens=tokens, sem_edges=sem,
                                        syn_edges=[]), tgt))
    return pairs


def _run_small(recipe, train_pairs, eval_pairs, seed, epochs, lr):
    exp = ExperimentConfig(encoder="birnn", recipe=recipe, emb_size=32,
                           hidden_size=64, attn_size=32, decode="greedy",
                           max_decode_len=10, bpe_merges=0)
    tc = TrainConfig(learning_rate=lr, epochs=epochs, batch_size=10,
                     rng_seed=seed, min_count=1, checkpoint_every=10 ** 9,
                     word_retain=1.0, edge_retain=1.0)
    prep = preprocess(train_pairs, exp, tc)
    result = train(tc, exp, train_pairs, eval_pairs, prep.src_vocab,
                   prep.tgt_vocab, None, prep.label_vocabs)
    hyps = translate_pairs(result.model, eval_pairs, prep.src_vocab,
                           prep.tgt_vocab, None, tc)
    return bleu(hyps, [list(t) for _, t in eval_pairs]).bleu, result


def test_criterion_6_overfit_and_reordering():
    t0 = time.time()
    # (a) 100-pair synthetic copy corpus with synthetic SRL edges:
    # BiRNN+Sem(1L), hidden 64 / embedding 32, training-set BLEU >= 95
    # within 500 epochs and <= 10 minutes
    pairs = _copy_corpus(0)
    copy_bleu, result = _run_small("sem:1", pairs, pairs, seed=1,
                                   epochs=500, lr=2e-4)
    copy_best = max(copy_bleu, result.best_val_bleu)
    copy_ok = copy_best >= 95.0 and (time.time() - t0) <= 600.0

    # (b) role-dependent reordering: the baseline must score strictly
    # lower than +Sem at equal epochs, gap >= 2 BLEU on 3 of 3 seeds
    gaps = []
    for seed in (1, 2, 3):
        train_pairs = _reorder_corpus(seed)
        val_pairs = _reorder_corpus(seed + 100, n=30)
        base, _ = _run_small("none", train_pairs, val_pairs, seed,
                             epochs=400, lr=2e-3)
        sem, _ = _run_small("sem:1", train_pairs, val_pairs, seed,
                            epochs=400, lr=2e-3)
        gaps.append(sem - base)
    reorder_ok = all(g >= 2.0 for g in gaps)
    print(f"  criterion 6 detail: copy BLEU {copy_best:.2f}, "
          f"reorder gaps {['%.2f' % g for g in gaps]}", flush=True)
    _report(6, "overfit-and-reordering", copy_ok and reorder_ok)


def test_criterion_7_bleu_oracle():
    import math

    ok = True
    # identical corpus: exactly 100
    hyps = [["the", "cat", "sat", "on", "the", "mat"]]
    ok &= bleu(hyps, [list(hyps[0])]).bleu == 100.0
    # clipped counts: "the the the" vs "the cat" -> p1 = 1/3, score 0
    r = bleu([["the", "the", "the"]], [["the", "cat"]])
    ok &= abs(r.precisions[0] - 1 / 3) < 1e-6 and r.bleu == 0.0
    # one substitution in six tokens
    r = bleu([["the", "cat", "sat", "on", "a", "mat"]],
             [["the", "cat", "sat", "on", "the", "mat"]])
    expect = 100 * math.exp(sum(math.log(p) for p in
                                (5 / 6, 3 / 5, 2 / 4, 1 / 3)) / 4)
    ok &= abs(r.bleu - expect) < 1e-6
    # brevity penalty: 4 vs 5 tokens, perfect match otherwise
    r = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    ok &= abs(r.bleu - 100 * math.exp(1 - 5 / 4)) < 1e-6
    # two-sentence pooled counts
    r = bleu([["a", "b", "c", "d"], ["a", "x", "y", "z", "w"]],
             [["a", "b", "c", "d"], ["a", "b", "y", "z", "w"]])
    expect = 100 * math.exp(sum(math.log(p) for p in
                                (8 / 9, 5 / 7, 3 / 5, 1 / 3)) / 4)
    ok &= abs(r.bleu - expect) < 1e-6
    # empty hypothesis: zero via brevity penalty
    ok &= bleu([[]], [["a", "b"]]).bleu == 0.0
    _report(7, "bleu-oracle", ok)


def test_criterion_8_determinism():
    pairs = _copy_corpus(9, n=20)
    exp = ExperimentConfig(encoder="birnn", recipe="sem:1", emb_size=8,
                           hidden_size=8, attn_size=8, max_decode_len=5,
                           bpe_merges=0)
    tc = TrainConfig(learning_rate=1e-3, epochs=4, batch_size=5, rng_seed=11,
                     min_count=1, word_retain=0.8, edge_retain=0.8,
                     checkpoint_every=10 ** 9)
    prep = preprocess(pairs, exp, tc)

    def losses():
        res = train(tc, exp, pairs, pairs, prep.src_vocab, prep.tgt_vocab,
                    None, prep.label_vocabs)
        return [m.train_loss for m in res.history]

    _report(8, "determinism", losses() == losses())


def test_criterion_9_roundtrips():
    ok = True
    fixture = """\
1\tJohn\t2\tSBJ\t_\tA0
2\tgave\t0\troot\tY\t_
3\this\t4\tNMOD\t_\t_
4\twife\t2\tOBJ\t_\tA2
5\ta\t6\tNMOD\t_\t_
6\tpresent\t2\tOBJ\t_\tA1

1\thello\t0\troot\t_
"""
    sentences = ingest_conll(fixture)
    ok &= ingest_conll(serialize_conll(sentences)) == sentences

    corpus = [["the", "cat", "sat"], ["concatenation", "holds"],
              ["bananas", "bandanas", "abracadabra"]]
    model = learn_bpe(corpus, num_merges=12)
    for sent in corpus:
        for tok in sent:
            ok &= rejoin_bpe(apply_bpe(model, tok)) == [tok]
    _report(9, "round-trips", ok)
