"""Corpus ingestion: annotated sentences, vocabularies, BPE, batching.

Annotated corpora arrive as column text (CoNLL-2009 style), one token per
line, blank line between sentences. Columns are whitespace separated:

    ID FORM HEAD DEPREL PRED APRED_1 ... APRED_k

* ID        1-based token index.
* FORM      surface token.
* HEAD      1-based index of the syntactic head, 0 for the root.
* DEPREL    dependency label of the HEAD -> ID edge ("root" when HEAD=0).
* PRED      "Y" if the token is a predicate, "_" otherwise.
* APRED_j   role label if this token is an argument of the j-th predicate
            (predicates ordered by position), "_" otherwise.

Every row of a sentence must carry 5 + (number of predicates) columns.

Every reader returns one shared object per distinct value: ``ingest_conll``
interns tokens and labels and hands out one tuple per distinct edge, and
BPE pieces are interned, so an annotated corpus holds each string once
however often it occurs. A ``Batch`` holds its sentences' own edge lists,
not copies, so those lists must not be mutated.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

PAD, UNK, BOS, EOS = 0, 1, 2, 3
SPECIALS = ("<pad>", "<unk>", "<bos>", "<eos>")

BPE_EOW = "</w>"
BPE_JOIN = "@@"

UNK_LABEL = "<unk-label>"


class CorpusError(ValueError):
    """Malformed corpus input."""


@dataclass
class AnnotatedSentence:
    """Token sequence plus labeled directed graphs over token positions.

    Edges run head -> dependent: a semantic edge points from the predicate
    position to the argument position and carries the role label.
    """

    tokens: list
    sem_edges: list = field(default_factory=list)
    syn_edges: list = field(default_factory=list)

    def validate(self) -> None:
        n = len(self.tokens)
        for u, v, lab in chain(self.sem_edges, self.syn_edges):
            if not (0 <= u < n and 0 <= v < n):
                raise CorpusError(f"edge ({u},{v},{lab}) out of range for {n} tokens")
            if u == v:
                raise CorpusError(f"self-referential edge at position {u}")


def ingest_conll(text: str):
    """Parse column-format text into a list of AnnotatedSentence.

    Tokens and labels are interned, and equal edge tuples are one object
    across the result.
    """
    sentences = []
    shared = {}
    block = []
    block_start = 1
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line:
            if not block:
                block_start = lineno
            block.append((lineno, line))
        elif block:
            sentences.append(_parse_block(block, block_start, shared))
            block = []
    if block:
        sentences.append(_parse_block(block, block_start, shared))
    return sentences


def _parse_block(block, block_start: int, shared: dict) -> AnnotatedSentence:
    """One sentence; ``shared`` maps each edge tuple seen so far to itself."""
    rows = [line.split() for _, line in block]
    n = len(rows)
    ncols = len(rows[0])
    for (lineno, _), cols in zip(block, rows):
        if len(cols) != ncols:
            raise CorpusError(f"line {lineno}: ragged columns ({len(cols)} vs {ncols})")
        if len(cols) < 5:
            raise CorpusError(f"line {lineno}: expected at least 5 columns")
    tokens = []
    pred_positions = [i for i, cols in enumerate(rows) if cols[4] == "Y"]
    if ncols != 5 + len(pred_positions):
        raise CorpusError(
            f"line {block_start}: {len(pred_positions)} predicates require "
            f"{5 + len(pred_positions)} columns, found {ncols}"
        )
    syn_edges = []
    sem_edges = []
    for i, ((lineno, _), cols) in enumerate(zip(block, rows)):
        try:
            idx = int(cols[0])
            head = int(cols[2])
        except ValueError as e:
            raise CorpusError(f"line {lineno}: non-integer index/head") from e
        if idx != i + 1:
            raise CorpusError(f"line {lineno}: token index {idx}, expected {i + 1}")
        if not (0 <= head <= n):
            raise CorpusError(f"line {lineno}: head index {head} out of range (0..{n})")
        if head == idx:
            raise CorpusError(f"line {lineno}: self-referential head")
        tokens.append(sys.intern(cols[1]))
        if head > 0:
            e = (head - 1, i, sys.intern(cols[3]))
            syn_edges.append(shared.setdefault(e, e))
        for k, role in enumerate(cols[5:]):
            if role == "_":
                continue
            pred = pred_positions[k]
            if pred == i:
                raise CorpusError(f"line {lineno}: predicate is its own argument")
            e = (pred, i, sys.intern(role))
            sem_edges.append(shared.setdefault(e, e))
    return AnnotatedSentence(tokens=tokens, sem_edges=sem_edges, syn_edges=syn_edges)


def _check_column(k: int, where: str, value: str) -> None:
    if value.split() != [value]:
        raise CorpusError(f"sentence {k}, {where}: {value!r} is empty or holds "
                          f"whitespace, so it cannot be one column")


def serialize_conll(sentences) -> str:
    """Inverse of ingest_conll; round-trips every well-formed sentence.

    Raises CorpusError, naming the sentence (0-based) and position, for
    what would not read back: a sentence with no tokens, which ingest_conll
    reads as no sentence, an empty token or label, one holding whitespace,
    or the role "_", which ingest_conll reads as no role.
    """
    out = []
    for k, sent in enumerate(sentences):
        sent.validate()
        if not sent.tokens:
            raise CorpusError(f"sentence {k}, no tokens: an empty sentence "
                              f"would not read back")
        for i, tok in enumerate(sent.tokens):
            _check_column(k, f"token {i}", tok)
        heads = {}
        for u, v, lab in sent.syn_edges:
            _check_column(k, f"edge ({u},{v})", lab)
            if v in heads:
                raise CorpusError(f"token {v} has more than one syntactic head")
            heads[v] = (u + 1, lab)
        pred_positions = sorted({u for u, _, _ in sent.sem_edges})
        roles = {}
        for u, v, lab in sent.sem_edges:
            _check_column(k, f"edge ({u},{v})", lab)
            if lab == "_":
                raise CorpusError(f"sentence {k}, edge ({u},{v}): role '_' "
                                  f"would read back as no role")
            key = (pred_positions.index(u), v)
            if key in roles:
                raise CorpusError(f"duplicate role for predicate {u}, argument {v}")
            roles[key] = lab
        for i, tok in enumerate(sent.tokens):
            head, deprel = heads.get(i, (0, "root"))
            cols = [str(i + 1), tok, str(head), deprel]
            cols.append("Y" if i in pred_positions else "_")
            for j in range(len(pred_positions)):
                cols.append(roles.get((j, i), "_"))
            out.append("\t".join(cols))
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


def read_text(path) -> str:
    r"""The text of a UTF-8 file, every input file's one reader: a leading
    byte-order mark is dropped, and ``\r\n`` and ``\r`` read as ``\n``."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def read_lines(path):
    r"""The lines of a UTF-8 text file (``read_text``), one entry per line.

    Lines end only at ``\n``, ``\r\n`` or ``\r``; a final line ending closes
    the last line instead of starting an empty one.
    """
    lines = read_text(path).split("\n")
    return lines[:-1] if lines[-1] == "" else lines


class Vocabulary:
    """Symbol <-> id map whose first ids are the reserved ``SPECIALS``.

    Word vocabularies reserve PAD=0, UNK=1, BOS=2, EOS=3 and map unknown
    tokens to UNK.
    """

    SPECIALS = SPECIALS
    UNK_ID = UNK

    def __init__(self, tokens):
        self.id_to_token = list(self.SPECIALS) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise CorpusError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.id_to_token)

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, self.UNK_ID)

    def token(self, idx: int) -> str:
        return self.id_to_token[idx]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        entries = [line for line in read_lines(path) if line]
        n = len(cls.SPECIALS)
        if tuple(entries[:n]) != cls.SPECIALS:
            raise CorpusError(f"{path}: file must start with {cls.SPECIALS}")
        return cls(entries[n:])


class LabelVocab(Vocabulary):
    """Edge-label inventory; rare and unseen labels share id 0."""

    SPECIALS = (UNK_LABEL,)
    UNK_ID = 0


def build_vocab(corpus, min_count: int = 1, cls=Vocabulary) -> Vocabulary:
    """Keep symbols with count >= min_count, ordered by frequency then lexically."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(chain.from_iterable(corpus))
    for special in cls.SPECIALS:
        counts.pop(special, None)
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return cls(kept)


class BpeModel:
    """Ordered merge table; the end-of-word marker is appended to final chars.

    ``_ranks`` maps each pair to the ascending ranks (table positions) at
    which it occurs; a hand-written table may repeat a pair. ``_cache``
    maps each word segmented so far to its pieces. ``_learned`` holds the
    pieces of the word types ``learn_bpe`` merged, each moved into
    ``_cache`` on first use; a table built from merges starts it empty.
    """

    def __init__(self, merges):
        self.merges = [tuple(m) for m in merges]
        self._ranks = {}
        for rank, pair in enumerate(self.merges):
            self._ranks.setdefault(pair, []).append(rank)
        self._cache = {}
        self._learned = {}

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for a, b in self.merges:
                fh.write(f"{a} {b}\n")

    @classmethod
    def load(cls, path) -> "BpeModel":
        merges = []
        for lineno, line in enumerate(read_lines(path), start=1):
            parts = line.split(" ")
            if len(parts) != 2:
                raise CorpusError(f"{path} line {lineno}: expected two symbols")
            merges.append((parts[0], parts[1]))
        return cls(merges)


def _word_symbols(token: str):
    return list(token[:-1]) + [token[-1] + BPE_EOW]


def _word_pieces(symbols):
    """Pieces of a merged word: inner ones carry the join marker."""
    inner, final = symbols[:-1], symbols[-1][: -len(BPE_EOW)]
    if final.endswith(BPE_JOIN):
        # rejoin_bpe would read it as an inner piece: end the word on its last char
        inner, final = inner + [final[:-1]], final[-1]
    return tuple([sys.intern(s + BPE_JOIN) for s in inner] + [sys.intern(final)])


def _merge_symbols(symbols, pair):
    a, b = pair
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def learn_bpe(corpus, num_merges: int) -> BpeModel:
    """Greedy most-frequent-pair merges; ties broken lexicographically.

    Each merge takes the adjacent symbol pair with the highest count over
    all word types (weighted by frequency), the smallest pair among ties,
    and stops early when no pair is left. Counts are kept up to date across
    merges: only the word types listed under the merged pair in a pair ->
    word-types index are re-merged, their old pairs subtracted and their new
    ones added. The next pair comes from a heap of ``(-count, pair)`` whose
    entries are skipped once their count is stale.

    Every word type ends up merged as ``apply_bpe`` would merge it, so the
    returned model holds each one's pieces: segmenting a training word
    runs no merge.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    word_freq = Counter(chain.from_iterable(corpus))
    word_freq.pop("", None)
    words = {w: _word_symbols(w) for w in word_freq}
    pair_counts = Counter()
    index = defaultdict(set)
    for w, syms in words.items():
        for pair in zip(syms, syms[1:]):
            pair_counts[pair] += word_freq[w]
            index[pair].add(w)
    heap = [(-c, p) for p, c in pair_counts.items()]
    heapq.heapify(heap)
    merges = []
    while heap and len(merges) < num_merges:
        neg_count, best = heapq.heappop(heap)
        if pair_counts[best] != -neg_count:
            continue
        merges.append(best)
        changed = set()
        for w in index.pop(best):
            old = words[w]
            new = _merge_symbols(old, best)
            if len(new) == len(old):  # an earlier merge took the pair from w
                continue
            freq = word_freq[w]
            for pair in zip(old, old[1:]):
                pair_counts[pair] -= freq
                changed.add(pair)
            for pair in zip(new, new[1:]):
                pair_counts[pair] += freq
                index[pair].add(w)
                changed.add(pair)
            words[w] = new
        for pair in changed:
            if pair_counts[pair]:
                heapq.heappush(heap, (-pair_counts[pair], pair))
            else:
                del pair_counts[pair]
    for w, syms in words.items():
        words[w] = _word_pieces(syms)
    model = BpeModel(merges)
    model._learned = words
    return model


def apply_bpe(model: BpeModel, token: str):
    """Deterministic segmentation; inner pieces carry the join marker.

    The result is that of applying every merge of the table in order, each
    to all its left-to-right occurrences: a merge whose pair is absent is
    skipped, and a repeated merge applies again. Only merges that change the
    word are run: the next one is the lowest rank above the last applied
    among the pairs present. A word's pieces are computed once: a word
    ``learn_bpe`` merged takes the pieces it left, and every result is
    cached.
    """
    if not token:
        return []
    cached = model._cache.get(token)
    if cached is not None:
        return list(cached)
    pieces = model._learned.pop(token, None)
    if pieces is None:
        symbols = _word_symbols(token)
        last = -1
        while len(symbols) > 1:
            best = None
            for pair in zip(symbols, symbols[1:]):
                ranks = model._ranks.get(pair)
                if ranks is not None and ranks[-1] > last:
                    rank = ranks[bisect_right(ranks, last)]
                    if best is None or rank < best:
                        best = rank
            if best is None:
                break
            symbols = _merge_symbols(symbols, model.merges[best])
            last = best
        pieces = _word_pieces(symbols)
    elif not model._learned:
        model._learned = {}  # an emptied dict keeps its table; this frees it
    model._cache[token] = pieces
    return list(pieces)


def segment(model, tokens):
    """Apply BPE to a token list; ``model`` may be None (word-level identity).

    Returns a new list on every call. Each token's pieces come from
    ``apply_bpe``, so a word ``learn_bpe`` merged, or one segmented
    before, costs a dictionary lookup.
    """
    if model is None:
        return list(tokens)
    out = []
    for tok in tokens:
        out.extend(apply_bpe(model, tok))
    return out


def rejoin_bpe(pieces):
    """Undo apply_bpe over a sentence: glue marker-carrying pieces back together."""
    words = []
    current = ""
    for piece in pieces:
        if piece.endswith(BPE_JOIN):
            current += piece[: -len(BPE_JOIN)]
        else:
            words.append(current + piece)
            current = ""
    if current:
        words.append(current)
    return words


@dataclass
class Batch:
    """Padded id matrices plus per-sentence edge lists.

    ``sem_edges[i]`` and ``syn_edges[i]`` are the lists of the i-th
    sentence itself, not copies; do not mutate them.

    ``tgt`` rows read BOS, target ids, EOS, PAD...; slice [:, :-1] for
    teacher-forcing inputs and [:, 1:] for prediction targets. ``src_mask``
    is True on real source positions, so its row sums are the lengths.
    """

    src: np.ndarray
    tgt: np.ndarray
    sem_edges: list
    syn_edges: list
    src_mask: np.ndarray

    @property
    def size(self) -> int:
        return self.src.shape[0]


def make_batch(pairs, src_vocab: Vocabulary, tgt_vocab: Vocabulary, bpe=None,
               max_len: int | None = None) -> Batch:
    """Map (AnnotatedSentence, target tokens) pairs to a padded Batch.

    Source stays word-level; the target side is BPE-segmented when a model
    is given, then id-mapped with BOS/EOS framing.
    """
    if not pairs:
        raise ValueError("make_batch: empty sentence list")
    src_id, tgt_id = src_vocab.token_to_id.get, tgt_vocab.token_to_id.get
    src_ids = []
    tgt_ids = []
    sem_edges = []
    syn_edges = []
    for sent, tgt_tokens in pairs:
        sent.validate()
        if max_len is not None and len(sent.tokens) > max_len:
            raise CorpusError(
                f"source sentence of length {len(sent.tokens)} exceeds max {max_len}"
            )
        pieces = segment(bpe, tgt_tokens)
        if max_len is not None and len(pieces) > max_len:
            raise CorpusError(
                f"target sentence of length {len(pieces)} exceeds max {max_len}"
            )
        src_ids.append([src_id(t, src_vocab.UNK_ID) for t in sent.tokens])
        tgt_ids.append([BOS] + [tgt_id(t, tgt_vocab.UNK_ID) for t in pieces] + [EOS])
        sem_edges.append(sent.sem_edges)
        syn_edges.append(sent.syn_edges)
    max_src = max(len(s) for s in src_ids)
    max_tgt = max(len(t) for t in tgt_ids)
    src = np.full((len(pairs), max_src), PAD, dtype=np.intp)
    tgt = np.full((len(pairs), max_tgt), PAD, dtype=np.intp)
    src_mask = np.zeros((len(pairs), max_src), dtype=bool)
    for i, (s, t) in enumerate(zip(src_ids, tgt_ids)):
        src[i, : len(s)] = s
        src_mask[i, : len(s)] = True
        tgt[i, : len(t)] = t
    return Batch(src=src, tgt=tgt, sem_edges=sem_edges,
                 syn_edges=syn_edges, src_mask=src_mask)


def bucket_indices(pairs, batch_size: int):
    """Indices of ``pairs`` grouped into batches of uniform source length,
    in ascending length and then input order; translation encodes these
    buckets. Training cuts its batches across lengths instead
    (``training.bucket_batches``)."""
    buckets = {}
    for i, (sent, _) in enumerate(pairs):
        buckets.setdefault(len(sent.tokens), []).append(i)
    return [group[i:i + batch_size]
            for group in (buckets[length] for length in sorted(buckets))
            for i in range(0, len(group), batch_size)]
