import gc
import os
import random
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpe_oracle import reference_apply_bpe, reference_learn_bpe
from gcnmt import corpus as C

FIGURE1 = """\
1\tJohn\t2\tSBJ\t_\tA0
2\tgave\t0\troot\tY\t_
3\this\t4\tNMOD\t_\t_
4\twife\t2\tOBJ\t_\tA2
5\ta\t6\tNMOD\t_\t_
6\tpresent\t2\tOBJ\t_\tA1
"""


def test_ingest_figure1_semantic_edges():
    (sent,) = C.ingest_conll(FIGURE1)
    assert sent.tokens == ["John", "gave", "his", "wife", "a", "present"]
    assert set(sent.sem_edges) == {(1, 0, "A0"), (1, 3, "A2"), (1, 5, "A1")}
    assert (1, 0, "SBJ") in sent.syn_edges
    # root row produces no syntactic edge
    assert all(v != 1 for _, v, _ in sent.syn_edges)


def test_ingest_single_token_no_predicate():
    (sent,) = C.ingest_conll("1\thello\t0\troot\t_\n")
    assert sent.tokens == ["hello"] and sent.sem_edges == []


def test_ingest_head_out_of_range():
    for head in ("7", "-1"):
        text = (f"1\ta\t{head}\tX\t_\n2\tb\t1\tY\t_\n3\tc\t1\tY\t_\n"
                "4\td\t1\tY\t_\n5\te\t1\tY\t_\n")
        with pytest.raises(C.CorpusError,
                           match=rf"^line 1: head index {head} out of range \(0\.\.5\)$"):
            C.ingest_conll(text)


def test_ingest_ragged_columns():
    with pytest.raises(C.CorpusError, match="ragged"):
        C.ingest_conll("1\ta\t0\troot\t_\n2\tb\t1\tX\t_\textra\n")


def test_ingest_rejects_self_loop_head():
    with pytest.raises(C.CorpusError, match="self-referential"):
        C.ingest_conll("1\ta\t1\tX\t_\n")


def test_conll_roundtrip():
    sentences = C.ingest_conll(FIGURE1)
    again = C.ingest_conll(C.serialize_conll(sentences))
    assert again == sentences


def test_roundtrip_multi_predicate():
    sent = C.AnnotatedSentence(
        tokens=["a", "b", "c", "d"],
        sem_edges=[(1, 0, "A0"), (3, 2, "A1"), (1, 2, "A2")],
        syn_edges=[(1, 0, "nsubj"), (1, 3, "obj"), (3, 2, "amod")],
    )
    (again,) = C.ingest_conll(C.serialize_conll([sent]))
    assert again.tokens == sent.tokens
    assert set(again.sem_edges) == set(sent.sem_edges)
    assert set(again.syn_edges) == set(sent.syn_edges)


@pytest.mark.parametrize("tokens, syn, sem, where", [
    (["a", "b"], [(0, 1, "x")], [(0, 1, "_")], r"edge \(0,1\): role '_'"),
    (["a", ""], [], [], "token 1"),
    (["a", "b c"], [], [], "token 1"),
    (["a\tb", "c"], [], [], "token 0"),
    (["a", "b"], [(0, 1, "")], [], r"edge \(0,1\)"),
    (["a", "b"], [(0, 1, "x y")], [], r"edge \(0,1\)"),
    (["a", "b"], [], [(1, 0, "A\u20280")], r"edge \(1,0\)"),
    (["a", "b"], [], [(1, 0, " ")], r"edge \(1,0\)"),
    ([], [], [], "no tokens"),
], ids=["role_", "empty_token", "spaced_token", "tabbed_token", "empty_deprel",
        "spaced_deprel", "line_separator_role", "blank_role", "no_tokens"])
def test_serialize_conll_rejects_what_would_not_read_back(tokens, syn, sem, where):
    good = C.AnnotatedSentence(["a", "b"], sem_edges=[(0, 1, "A0")], syn_edges=[(0, 1, "x")])
    bad = C.AnnotatedSentence(tokens, sem_edges=sem, syn_edges=syn)
    with pytest.raises(C.CorpusError, match=rf"^sentence 1, {where}"):
        C.serialize_conll([good, bad])


def test_ingest_conll_shares_tokens_labels_and_edges():
    text = ("1\tdog\t2\tnsubj\t_\tA0\n2\tbarks\t0\troot\tY\t_\n3\tdog\t2\tnsubj\t_\tA0\n\n"
            "1\tdog\t2\tnsubj\t_\tA0\n2\tbarks\t0\troot\tY\t_\n")
    first, second = C.ingest_conll(text)
    assert first.tokens == ["dog", "barks", "dog"] and second.tokens == ["dog", "barks"]
    assert first.tokens[0] is first.tokens[2] is second.tokens[0]
    assert first.tokens[1] is second.tokens[1]
    assert first.syn_edges[0][2] is first.syn_edges[1][2]
    assert first.sem_edges[0][2] is first.sem_edges[1][2]
    assert first.syn_edges[0] == (1, 0, "nsubj") and first.syn_edges[0] is second.syn_edges[0]
    assert first.sem_edges[0] == (1, 0, "A0") and first.sem_edges[0] is second.sem_edges[0]


def _random_conll(n_sentences, seed):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(40)]
    deprels = [f"dep{i}" for i in range(12)]
    roles = [f"A{i}" for i in range(6)]
    sentences = []
    for _ in range(n_sentences):
        n = rng.randint(4, 12)
        pred = rng.randrange(n)
        sentences.append(C.AnnotatedSentence(
            [rng.choice(words) for _ in range(n)],
            sem_edges=[(pred, v, rng.choice(roles)) for v in range(n)
                       if v != pred and rng.random() < 0.4],
            syn_edges=[(rng.randrange(v), v, rng.choice(deprels)) for v in range(1, n)]))
    return C.serialize_conll(sentences)


def _fresh(text):
    """An equal string that is a new object, not the interned one."""
    return "".join(list(text))


def test_ingest_conll_result_holds_at_most_half_the_unshared_memory():
    text = _random_conll(2000, seed=7)
    # keeps the words and labels interned, so the interpreter's intern table
    # takes no entry, and cannot resize, while the result is measured
    warm = C.ingest_conll(text)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = C.ingest_conll(text)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        # the same sentences as the reader built them before it shared
        # values: one string per token and label occurrence, one tuple per edge
        before = tracemalloc.get_traced_memory()[0]
        unshared = [C.AnnotatedSentence(
            [_fresh(t) for t in s.tokens],
            sem_edges=[(u, v, _fresh(lab)) for u, v, lab in s.sem_edges],
            syn_edges=[(u, v, _fresh(lab)) for u, v, lab in s.syn_edges])
            for s in result]
        gc.collect()
        unshared_held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result == warm == unshared and sum(len(s.tokens) for s in result) == 16232
    assert unshared[0].tokens[0] is not result[0].tokens[0]
    assert held <= unshared_held // 2, (held, unshared_held)


def test_build_vocab_min_count_excludes():
    corpus = [["cat"] * 3 + ["dog"] * 4]
    vocab = C.build_vocab(corpus, min_count=4)
    assert vocab.id("dog") > C.EOS
    assert vocab.id("cat") == C.UNK  # frequency 3 is not "higher than three"


def test_build_vocab_empty_corpus():
    vocab = C.build_vocab([], min_count=1)
    assert len(vocab) == 4
    assert tuple(vocab.id_to_token) == C.SPECIALS


def test_build_vocab_hand_tally_order():
    sentences = [
        "the cat sat on the mat".split(),
        "the dog sat".split(),
        "a cat ran".split(),
        "the mat".split(),
        "dogs bark".split(),
        "cats and dogs".split(),
        "on the mat again".split(),
        "a dog and a cat".split(),
        "sat sat sat".split(),
        "mat".split(),
    ]
    vocab = C.build_vocab(sentences, min_count=2)
    # hand tally: sat=5, the=5, mat=4, a=3, cat=3, and=2, dog=2, dogs=2, on=2
    expected = ["sat", "the", "mat", "a", "cat", "and", "dog", "dogs", "on"]
    assert vocab.id_to_token[4:] == expected
    assert vocab.id("bark") == C.UNK


def test_vocab_file_roundtrip(tmp_path):
    vocab = C.build_vocab([["x", "y", "x"]], min_count=1)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = C.Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token


def test_vocabulary_and_bpe_files_ignore_a_byte_order_mark(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\ufeff<pad>\n<unk>\n<bos>\n<eos>\nx\n", encoding="utf-8")
    assert C.Vocabulary.load(vocab).id_to_token[4:] == ["x"]
    bpe = tmp_path / "bpe.txt"
    bpe.write_text("\ufeffa b</w>\n", encoding="utf-8")
    assert C.BpeModel.load(bpe).merges == [("a", "b</w>")]


def test_learn_bpe_zero_merges_is_character_level():
    model = C.learn_bpe([["abc"]], num_merges=0)
    assert model.merges == []
    assert C.apply_bpe(model, "abc") == ["a@@", "b@@", "c"]


def test_learn_bpe_first_merge_hand_count():
    # aaab -> a a a b</w> (two "a a"), aab -> a a b</w> (one more): (a, a) wins
    model = C.learn_bpe([["aaab", "aab"]], num_merges=1)
    assert model.merges[0] == ("a", "a")


def test_learn_bpe_tie_breaks_lexicographically():
    model = C.learn_bpe([["ab"], ["cd"]], num_merges=1)
    assert model.merges[0] == ("a", "b</w>")


def test_apply_bpe_full_word_unit():
    model = C.learn_bpe([["hello"] * 10], num_merges=10)
    assert C.apply_bpe(model, "hello") == ["hello"]


def test_apply_bpe_unseen_token_decomposes_to_characters():
    model = C.learn_bpe([["hello"] * 10], num_merges=10)
    assert C.apply_bpe(model, "xyz") == ["x@@", "y@@", "z"]


def test_apply_bpe_manual_merge_replay():
    # corpus: "banana" x3 = [b a n a n a</w>]. hand replay:
    # round1: (a,n)=6 wins -> [b an an a</w>]
    # round2: three-way tie at 3; lexicographic min is (an, a</w>) -> [b an ana</w>]
    # round3: tie at 3; min is (an, ana</w>) -> [b anana</w>]
    model = C.learn_bpe([["banana"] * 3], num_merges=3)
    assert model.merges == [("a", "n"), ("an", "a</w>"), ("an", "ana</w>")]
    assert C.apply_bpe(model, "banana") == ["b@@", "anana"]


@given(st.lists(st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=8), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_bpe_inverse_concatenation_property(tokens):
    model = C.learn_bpe([tokens], num_merges=10)
    for tok in tokens:
        pieces = C.apply_bpe(model, tok)
        assert all(pieces)
        assert C.rejoin_bpe(pieces) == [tok]


JOIN_MARKER_WORDS = ["@", "@@", "@@@@", "x@@@", "a@", "a@@b", "ab@@"]


@pytest.mark.parametrize("corpus", [[["ab@@"] * 5], [JOIN_MARKER_WORDS * 5], []])
def test_rejoin_bpe_keeps_words_ending_in_the_join_marker(corpus):
    # a learned merge can make a word-final piece such as "ab@@", which must
    # not be glued to the next word
    model = C.learn_bpe(corpus, 10)
    for word in JOIN_MARKER_WORDS:
        pieces = C.segment(model, [word, "c"])
        assert all(pieces)
        assert C.rejoin_bpe(pieces) == [word, "c"]


def test_bpe_file_roundtrip(tmp_path):
    model = C.learn_bpe([["banana", "bandana"]], num_merges=5)
    path = tmp_path / "bpe.txt"
    model.save(path)
    assert C.BpeModel.load(path).merges == model.merges


def test_equal_bpe_pieces_of_different_words_are_one_object(tmp_path):
    words = ["banana", "bandana", "cabana", "anagram", "ban", "nab"]
    model = C.learn_bpe([words * 2], num_merges=4)
    model.save(tmp_path / "bpe.txt")
    loaded = C.BpeModel.load(tmp_path / "bpe.txt")
    assert C.apply_bpe(model, "bandana") == ["ban@@", "d@@", "ana"]
    shared = {}
    for m in (model, loaded):  # learned pieces first, then those computed from bpe.txt
        for word in words:
            for piece in C.apply_bpe(m, word):
                assert shared.setdefault(piece, piece) is piece, (word, piece)


def _assert_learned_pieces_match_the_table(model, words):
    """The pieces ``learn_bpe`` left for ``words`` equal those computed from
    its merges, by a fresh table and by one read back from ``bpe.txt``."""
    fresh = C.BpeModel(model.merges)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bpe.txt")
        model.save(path)
        loaded = C.BpeModel.load(path)
    for word in words:
        pieces = C.apply_bpe(model, word)
        assert pieces == C.apply_bpe(fresh, word) == C.apply_bpe(loaded, word), word


def _assert_matches_bpe_oracle(corpus, num_merges, extra_words=()):
    model = C.learn_bpe(corpus, num_merges)
    expected = reference_learn_bpe(corpus, num_merges)
    assert model.merges == expected.merges
    training = {w for sent in corpus for w in sent}
    _assert_learned_pieces_match_the_table(model, training)
    for word in training | set(extra_words):
        assert C.apply_bpe(model, word) == reference_apply_bpe(expected, word)
    return model


def test_learned_pieces_match_the_table_on_marker_and_non_ascii_words():
    # reference_apply_bpe predates the rule for words ending in "@@", so these
    # words are compared with the merges applied by a fresh table instead
    words = ["ab@@", "@@", "x@@@", "@", "a</w>", "</w>", "a", "é", "naïve", "日本語",
             "日本", "ab@@c"]
    corpus = [words * 3, ["ab@@", "</w>", "日本"] * 4]
    model = C.learn_bpe(corpus, 30)
    assert model.merges == reference_learn_bpe(corpus, 30).merges
    assert set(model._learned) == set(words)
    _assert_learned_pieces_match_the_table(model, words)
    for word in words:
        assert C.rejoin_bpe(C.apply_bpe(model, word)) == [word]


def _random_corpus(rng, alphabet, n_types, max_len):
    # Zipf-like counts: type k occurs about n_types / (k + 1) times, so a few
    # types dominate and many occur once.
    types = ["".join(rng.choice(list(alphabet), size=rng.integers(0, max_len + 1)))
             for _ in range(n_types)]
    tokens = [t for k, t in enumerate(types) for _ in range(max(1, n_types // (k + 1)))]
    rng.shuffle(tokens)
    return [tokens[i:i + 7] for i in range(0, len(tokens), 7)]


@pytest.mark.parametrize("alphabet", ["ab", "abcd"])
@pytest.mark.parametrize("seed", range(25))
def test_bpe_matches_oracle_on_seeded_corpora(alphabet, seed):
    rng = np.random.default_rng(seed)
    corpus = _random_corpus(rng, alphabet, n_types=int(rng.integers(1, 40)), max_len=8)
    unseen = ["".join(rng.choice(list(alphabet), size=n)) for n in range(1, 12)]
    _assert_matches_bpe_oracle(corpus, int(rng.integers(0, 60)), unseen)


def test_bpe_matches_oracle_with_skewed_frequencies():
    corpus = [["aaaa"] * 500 + ["abab"] * 50 + ["baba", "aabb", "bbbb", "a"]]
    _assert_matches_bpe_oracle(corpus, 12, ["aaaaaaa", "ababab", "bab"])


def test_bpe_matches_oracle_with_empty_tokens():
    corpus = [["", "ab", ""], [""], [], ["ba", "", "aab"]]
    model = _assert_matches_bpe_oracle(corpus, 5)
    assert C.apply_bpe(model, "") == []


def test_bpe_stops_early_like_oracle_when_pairs_run_out():
    model = _assert_matches_bpe_oracle([["ab", "aab", "b"]], 50)
    assert len(model.merges) < 50
    assert C.apply_bpe(model, "aab") == ["aab"]


@given(st.lists(st.lists(st.text(alphabet="abc", max_size=7), max_size=6), max_size=6),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=150, deadline=None)
def test_bpe_matches_oracle_property(corpus, num_merges):
    _assert_matches_bpe_oracle(corpus, num_merges, ["abcabc", "aaaa", "cba"])


def test_apply_bpe_skips_absent_pair_and_keeps_table_order():
    # ("a", "bc</w>") is absent when the table starts, so it is skipped; the
    # later ("b", "c</w>") must not let it apply afterwards.
    model = C.BpeModel([("a", "bc</w>"), ("b", "c</w>")])
    assert C.apply_bpe(model, "abc") == ["a@@", "bc"]


def test_apply_bpe_repeated_merge_applies_again(tmp_path):
    path = tmp_path / "bpe.txt"
    path.write_text("a bc</w>\nb c</w>\na bc</w>\n", encoding="utf-8")
    model = C.BpeModel.load(path)
    assert C.apply_bpe(model, "abc") == ["abc"]


def test_label_vocab_folds_rare_labels():
    vocab = C.build_vocab([["A0", "A0", "AM-DIR"]], min_count=2, cls=C.LabelVocab)
    assert vocab.id("A0") != 0
    assert vocab.id("AM-DIR") == 0  # count 1 < 2 folds into UNK
    assert vocab.id("never-seen") == 0


def test_label_vocab_file_loads_to_fixed_ids(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("<unk-label>\nA0\nA1\n")
    vocab = C.LabelVocab.load(path)
    assert [vocab.id(l) for l in ("<unk-label>", "A0", "A1")] == [0, 1, 2]
    assert vocab.id("AM-TMP") == 0
    assert len(vocab) == 3


def test_label_vocab_file_must_start_with_unk_label(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("A0\n<unk-label>\nA1\n")
    with pytest.raises(C.CorpusError, match="must start with"):
        C.LabelVocab.load(path)


def test_label_vocab_drops_literal_unk_label():
    # a corpus label spelled like the reserved entry folds into id 0
    vocab = C.build_vocab([["A0", "A0", C.UNK_LABEL, C.UNK_LABEL, "A1", "A1"]],
                          min_count=2, cls=C.LabelVocab)
    assert len(vocab) == 1 + 2
    assert vocab.id(C.UNK_LABEL) == 0
    assert vocab.id_to_token == [C.UNK_LABEL, "A0", "A1"]


@pytest.mark.parametrize("data, lines", [
    (b"a\r\nb", ["a", "b"]),
    (b"a\rb\r", ["a", "b"]),
    (b"a\nb", ["a", "b"]),
    (b"a\n\nb\n", ["a", "", "b"]),
    (b"", []),
    (b"x\x1cy\nz\xe2\x80\xa8w\n", ["x\x1cy", "z\u2028w"]),
])
def test_read_lines_splits_only_at_line_endings(tmp_path, data, lines):
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    assert C.read_lines(path) == lines


def _sentences():
    s1 = C.AnnotatedSentence(tokens=["a", "b", "c"],
                             sem_edges=[(1, 0, "A0")], syn_edges=[(1, 2, "obj")])
    s2 = C.AnnotatedSentence(tokens=["d", "e", "f", "g", "h"],
                             sem_edges=[(0, 4, "A1")], syn_edges=[])
    return s1, s2


def test_make_batch_single_sentence_no_padding():
    s1, _ = _sentences()
    vocab = C.build_vocab([s1.tokens], min_count=1)
    batch = C.make_batch([(s1, ["x"])], vocab, vocab)
    assert batch.src_mask.all()
    assert (batch.src != C.PAD).all()


def test_make_batch_pads_shorter_and_keeps_edges():
    s1, s2 = _sentences()
    vocab = C.build_vocab([s1.tokens, s2.tokens], min_count=1)
    batch = C.make_batch([(s1, ["x"]), (s2, ["y", "z"])], vocab, vocab)
    assert batch.src.shape == (2, 5)
    assert list(batch.src_mask.sum(axis=1)) == [3, 5]
    assert not batch.src_mask[0, 3:].any()
    assert batch.sem_edges[0] == [(1, 0, "A0")]
    # the batch holds each sentence's own edge lists, not copies
    for i, s in enumerate((s1, s2)):
        assert batch.sem_edges[i] is s.sem_edges and batch.syn_edges[i] is s.syn_edges
    # every edge endpoint below true length
    for i, edges in enumerate(batch.sem_edges + batch.syn_edges):
        n = batch.src_mask[i % 2].sum()
        assert all(u < n and v < n for u, v, _ in edges)


def test_make_batch_hand_mapped_ids():
    s1, _ = _sentences()
    src_vocab = C.build_vocab([s1.tokens], min_count=1)
    tgt_vocab = C.build_vocab([["x", "y"]], min_count=1)
    batch = C.make_batch([(s1, ["x", "zzz"])], src_vocab, tgt_vocab)
    expected_src = [src_vocab.id(t) for t in s1.tokens]
    assert list(batch.src[0]) == expected_src
    assert list(batch.tgt[0]) == [C.BOS, tgt_vocab.id("x"), C.UNK, C.EOS]


def test_make_batch_rejects_overlong_sentence():
    s1, _ = _sentences()
    vocab = C.build_vocab([s1.tokens], min_count=1)
    with pytest.raises(C.CorpusError, match="exceeds"):
        C.make_batch([(s1, ["x"])], vocab, vocab, max_len=2)


def test_make_batch_empty_list():
    with pytest.raises(ValueError):
        C.make_batch([], None, None)
