"""Tests of the benchmark's own code: the corpus generator and the tracer.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from gcnmt import corpus  # noqa: E402

import layertrace  # noqa: E402
from synth import (DEPRELS, MAX_ARGS, MAX_LEN, MIN_LEN, PRED_EVERY, ROLES,  # noqa: E402
                   CorpusSpec, draw, make_corpus, zipf_cdf)

SPEC = CorpusSpec(n_pairs=170, src_types=500, tgt_types=800)


def test_conll_round_trip():
    sentences = [s for s, _ in make_corpus(SPEC, 3)]
    assert corpus.ingest_conll(corpus.serialize_conll(sentences)) == sentences


def test_same_seed_same_corpus():
    assert make_corpus(SPEC, 5) == make_corpus(SPEC, 5)
    assert make_corpus(SPEC, 5) != make_corpus(SPEC, 6)


def test_lengths_cover_the_range_evenly():
    pairs = make_corpus(SPEC, 1)
    counts = Counter(len(s.tokens) for s, _ in pairs)
    assert set(counts) == set(range(MIN_LEN, MAX_LEN + 1))
    assert max(counts.values()) - min(counts.values()) <= 1
    for s, tgt in pairs:
        assert 1 <= len(tgt) and abs(len(tgt) - len(s.tokens)) <= 2


def test_one_head_per_token_forming_a_tree():
    for s, _ in make_corpus(SPEC, 2):
        n = len(s.tokens)
        heads = {v: u for u, v, _ in s.syn_edges}
        assert len(s.syn_edges) == n - 1 == len(heads)
        assert all(lab in DEPRELS for _, _, lab in s.syn_edges)
        for v in range(n):  # every token reaches the root without a cycle
            seen = set()
            while v in heads:
                assert v not in seen
                seen.add(v)
                v = heads[v]


def test_srl_frames():
    for s, _ in make_corpus(SPEC, 4):
        n = len(s.tokens)
        args = Counter(u for u, _, _ in s.sem_edges)
        assert len(args) == max(1, n // PRED_EVERY)
        assert all(1 <= k <= MAX_ARGS for k in args.values())
        assert all(u != v and lab in ROLES for u, v, lab in s.sem_edges)
        assert len({(u, v) for u, v, _ in s.sem_edges}) == len(s.sem_edges)


def test_draw_is_zipfian():
    ranks = draw(np.random.default_rng(0), zipf_cdf(1000, 1.0), 200_000)
    counts = np.bincount(ranks, minlength=1000)
    assert ranks.min() >= 0 and ranks.max() < 1000
    assert abs(counts[0] / counts[9] - 10.0) < 1.0


def _bpe():
    return corpus.learn_bpe([["abab", "abba", "ab"]] * 3, 3)


def test_tracer_counts_calls_and_cache_hits_and_restores():
    original = corpus.apply_bpe
    tracer = layertrace.Tracer()
    bpe = _bpe()
    with tracer.installed():
        assert corpus.apply_bpe is not original
        corpus.segment(bpe, ["abab", "abab", "ab"])
    assert corpus.apply_bpe is original
    out = layertrace.combine({}, [tracer.snapshot()], {})
    assert out["corpus.apply_bpe.calls"] == 3
    assert out["corpus.apply_bpe.cache_hit_ratio"] == 1 / 3
    assert 0 <= out["corpus.apply_bpe.self_s"] <= out["corpus.apply_bpe.s"]
    assert tracer.absent == set()


def test_tracer_records_missing_targets_as_absent(monkeypatch):
    monkeypatch.setattr(layertrace, "TARGETS", layertrace.TARGETS + (
        ("corpus.gone", "gcnmt.corpus", "no_such_function"),
        ("nowhere.gone", "gcnmt.no_such_module", "f"),
    ))
    tracer = layertrace.Tracer()
    with tracer.installed():
        corpus.segment(_bpe(), ["ab"])
    assert tracer.absent == {"corpus.gone", "nowhere.gone"}
    assert tracer.snapshot()["corpus.apply_bpe.calls"] == 1


def test_span_parents_and_self_time():
    tracer = layertrace.Tracer()
    with tracer.installed():
        corpus.make_batch([(make_corpus(SPEC, 1)[0][0], ["abab"])],
                          corpus.Vocabulary([]), corpus.Vocabulary([]), _bpe())
    names = {name: parent for name, _, _, parent in tracer.spans}
    assert tracer.spans[names["corpus.apply_bpe"]][0] == "corpus.make_batch"
    assert all(end >= start for _, start, end, _ in tracer.spans)
