"""Seeded synthetic annotated corpora for the benchmark.

A corpus is a list of (AnnotatedSentence, target tokens) pairs:

* source lengths are uniform in [MIN_LEN, MAX_LEN], so exact-length
  bucketing yields many partly filled batches;
* source and target words are Zipf-distributed over two disjoint lists of
  pseudo-words built from syllables, so BPE finds shared pieces;
* every token except one root has exactly one syntactic head (a random
  recursive tree) with a label from DEPRELS;
* about one token in ``PRED_EVERY`` is a predicate with 1..MAX_ARGS
  arguments, each labelled from ROLES;
* targets are ``len(source) + U{-2..2}`` tokens long, at least 1.

Edges are emitted in the order ``ingest_conll`` produces them, so
``ingest_conll(serialize_conll(sentences))`` returns equal sentences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gcnmt.corpus import AnnotatedSentence

DEPRELS = ("nsubj", "obj", "det", "amod", "case", "nmod", "advmod", "aux",
           "mark", "cc", "conj", "compound")
ROLES = ("A0", "A1", "A2", "AM-TMP", "AM-LOC", "AM-MNR")
SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")
MIN_LEN, MAX_LEN = 8, 24
PRED_EVERY = 6
MAX_ARGS = 3


@dataclass(frozen=True)
class CorpusSpec:
    n_pairs: int
    src_types: int
    tgt_types: int
    zipf_s: float = 1.0


def pseudo_words(rng, n: int) -> list:
    """``n`` distinct words of 1 to 4 syllables, in order of first draw."""
    words = {}
    while len(words) < n:
        k = rng.integers(1, 5, size=n)
        syl = rng.integers(0, len(SYLLABLES), size=(n, 4))
        for row, width in zip(syl, k):
            words.setdefault("".join(SYLLABLES[i] for i in row[:width]), None)
    return list(words)[:n]


def zipf_cdf(n: int, s: float) -> np.ndarray:
    """Cumulative Zipf(s) distribution over ranks 1..n."""
    c = np.cumsum(1.0 / np.arange(1, n + 1) ** s)
    return c / c[-1]


def draw(rng, cdf: np.ndarray, size: int) -> np.ndarray:
    """``size`` ranks (0-based) drawn from the distribution ``cdf``."""
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"),
                      len(cdf) - 1)


DEPREL_CDF = zipf_cdf(len(DEPRELS), 1.0)
ROLE_CDF = zipf_cdf(len(ROLES), 1.0)


def source_lengths(rng, n_pairs: int) -> np.ndarray:
    """Every length in [MIN_LEN, MAX_LEN] equally often (up to one), shuffled."""
    span = np.arange(MIN_LEN, MAX_LEN + 1)
    return rng.permutation(np.resize(span, n_pairs))


def tree_edges(rng, n: int) -> list:
    """A random recursive tree: each non-root token gets one earlier-drawn head."""
    order = rng.permutation(n)
    picks = (rng.random(n - 1) * np.arange(1, n)).astype(np.intp)
    heads = {int(order[k]): int(order[picks[k - 1]]) for k in range(1, n)}
    labels = draw(rng, DEPREL_CDF, n)
    return [(heads[v], v, DEPRELS[labels[v]]) for v in range(n) if v in heads]


def srl_edges(rng, n: int) -> list:
    """``max(1, n // PRED_EVERY)`` predicates with 1..MAX_ARGS arguments each."""
    edges = []
    for pred in rng.choice(n, size=max(1, n // PRED_EVERY), replace=False):
        n_args = int(rng.integers(1, MAX_ARGS + 1))
        args = rng.choice(n - 1, size=n_args, replace=False)
        roles = draw(rng, ROLE_CDF, n_args)
        edges.extend((int(pred), int(a + (a >= pred)), ROLES[r])
                     for a, r in zip(args, roles))
    # ingest_conll order: by argument row, then by predicate column
    return sorted(edges, key=lambda e: (e[1], e[0]))


def make_corpus(spec: CorpusSpec, seed: int) -> list:
    """Deterministic (AnnotatedSentence, target tokens) pairs for ``seed``."""
    rng = np.random.default_rng(seed)
    src_words = pseudo_words(rng, spec.src_types)
    tgt_words = pseudo_words(rng, spec.tgt_types)
    src_cdf = zipf_cdf(spec.src_types, spec.zipf_s)
    tgt_cdf = zipf_cdf(spec.tgt_types, spec.zipf_s)
    pairs = []
    for n in source_lengths(rng, spec.n_pairs):
        n = int(n)
        m = max(1, n + int(rng.integers(-2, 3)))
        sent = AnnotatedSentence(
            tokens=[src_words[i] for i in draw(rng, src_cdf, n)],
            syn_edges=tree_edges(rng, n),
            sem_edges=srl_edges(rng, n))
        pairs.append((sent, [tgt_words[i] for i in draw(rng, tgt_cdf, m)]))
    return pairs
