"""Reference BPE: recount every pair of every word type for every merge, and
segment a word by running every merge of the table in order.

These are the original bodies of ``gcnmt.corpus.learn_bpe`` and
``gcnmt.corpus.apply_bpe``, kept verbatim as the oracle that the
incremental implementations must match in merge list (tie-breaks
included) and in the pieces of every word.
"""

from collections import Counter

from gcnmt.corpus import BPE_EOW, BPE_JOIN, BpeModel, _merge_symbols, _word_symbols


def reference_learn_bpe(corpus, num_merges: int) -> BpeModel:
    """Greedy most-frequent-pair merges; ties broken lexicographically."""
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    word_freq = Counter()
    for sent in corpus:
        word_freq.update(tok for tok in sent if tok)
    words = {w: _word_symbols(w) for w in word_freq}
    merges = []
    for _ in range(num_merges):
        pair_counts = Counter()
        for w, syms in words.items():
            freq = word_freq[w]
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] += freq
        if not pair_counts:
            break
        top = max(pair_counts.values())
        best = min(p for p, c in pair_counts.items() if c == top)
        merges.append(best)
        for w in words:
            words[w] = _merge_symbols(words[w], best)
    return BpeModel(merges)


def reference_apply_bpe(model: BpeModel, token: str):
    """Deterministic segmentation; inner pieces carry the join marker."""
    if not token:
        return []
    cached = model._cache.get(token)
    if cached is not None:
        return list(cached)
    symbols = _word_symbols(token)
    for pair in model.merges:
        if len(symbols) == 1:
            break
        symbols = _merge_symbols(symbols, pair)
    pieces = [s + BPE_JOIN for s in symbols[:-1]]
    pieces.append(symbols[-1][: -len(BPE_EOW)])
    model._cache[token] = tuple(pieces)
    return pieces
