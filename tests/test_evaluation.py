import dataclasses
import math
import struct
import sys
import zipfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnmt import cli
from gcnmt import config as CFG
from gcnmt import corpus as C
from gcnmt import evaluation as E
from gcnmt import training as TR
from gcnmt.corpus import (AnnotatedSentence, apply_bpe, bucket_indices, ingest_conll,
                          make_batch, rejoin_bpe, serialize_conll)
from gcnmt.decoder import greedy_decode, greedy_decode_batch
from gcnmt.encoders import EncoderOutput, encode_pipeline
from gcnmt.model import build_model
from gcnmt.tensor import Tensor, no_grad
from gcnmt.training import train
from test_training import _best_before_last_setup


def test_bleu_identical_corpus_is_100():
    hyps = [["the", "cat", "sat", "on", "the", "mat"],
            ["a", "dog", "ran", "home", "today"]]
    report = E.bleu(hyps, [list(h) for h in hyps])
    npt.assert_allclose(report.bleu, 100.0, atol=1e-9)
    assert report.brevity_penalty == 1.0
    assert report.precisions == [1.0] * 4


def test_bleu_empty_hypotheses_score_zero():
    report = E.bleu([[]], [["a", "b", "c", "d"]])
    assert report.bleu == 0.0 and report.brevity_penalty == 0.0


def test_bleu_clipping_hand_case():
    # "the the the" vs "the cat": unigram matches clip at 1 -> p1 = 1/3,
    # and no higher-order match, so the corpus score is zero
    report = E.bleu([["the", "the", "the"]], [["the", "cat"]])
    npt.assert_allclose(report.precisions[0], 1 / 3)
    assert report.bleu == 0.0


def test_bleu_full_hand_computation():
    hyp = ["the", "cat", "sat", "on", "a", "mat"]
    ref = ["the", "cat", "sat", "on", "the", "mat"]
    # matches: p1 = 6/6 clipped to 5/6 ("a" unmatched, second "the" clips),
    # p2 = 3/5 ("the cat", "cat sat", "sat on"), p3 = 2/4, p4 = 1/3
    report = E.bleu([hyp], [ref])
    npt.assert_allclose(report.precisions, [5 / 6, 3 / 5, 2 / 4, 1 / 3])
    expected = math.exp(sum(math.log(p) for p in
                            (5 / 6, 3 / 5, 2 / 4, 1 / 3)) / 4) * 100
    npt.assert_allclose(report.bleu, expected, rtol=1e-12)
    assert report.brevity_penalty == 1.0


def test_bleu_brevity_penalty_hand_case():
    hyp = ["a", "b", "c", "d"]
    ref = ["a", "b", "c", "d", "e"]
    report = E.bleu([hyp], [ref])
    npt.assert_allclose(report.brevity_penalty, math.exp(1 - 5 / 4), rtol=1e-12)


def test_bleu_corpus_level_not_mean_of_sentences():
    hyps = [["a", "b", "c", "d"], ["a", "x", "y", "z", "w"]]
    refs = [["a", "b", "c", "d"], ["a", "b", "y", "z", "w"]]
    corpus = E.bleu(hyps, refs).bleu
    per_sent = [E.bleu([h], [r]).bleu for h, r in zip(hyps, refs)]
    # pooled counts keep the second pair from zeroing out, unlike the
    # average of per-sentence scores
    assert corpus > np.mean(per_sent) + 1.0


def test_bleu_pair_permutation_invariance():
    hyps = [["a", "b", "c", "d"], ["e", "f", "g", "h", "i"]]
    refs = [["a", "b", "x", "d"], ["e", "f", "g", "h", "j"]]
    fwd = E.bleu(hyps, refs)
    rev = E.bleu(hyps[::-1], refs[::-1])
    npt.assert_allclose(fwd.bleu, rev.bleu, rtol=1e-12)


def test_bleu_invariant_under_token_relabeling():
    hyps = [["a", "b", "b", "c", "d"]]
    refs = [["a", "b", "c", "c", "d"]]
    table = {"a": "tok1", "b": "tok2", "c": "tok3", "d": "tok4"}
    relabeled = E.bleu([[table[t] for t in hyps[0]]],
                       [[table[t] for t in refs[0]]])
    npt.assert_allclose(E.bleu(hyps, refs).bleu, relabeled.bleu, rtol=1e-12)


def test_bleu_rewards_fixing_an_error():
    ref = [["the", "cat", "sat", "on", "the", "mat"]]
    worse = E.bleu([["the", "dog", "sat", "on", "a", "mat"]], ref).bleu
    better = E.bleu([["the", "cat", "sat", "on", "a", "mat"]], ref).bleu
    assert better > worse


def test_bleu_length_mismatch_and_empty_corpus_rejected():
    with pytest.raises(ValueError):
        E.bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(ValueError):
        E.bleu([], [])


@given(st.lists(
    st.tuples(st.lists(st.sampled_from("abcde"), max_size=8),
              st.lists(st.sampled_from("abcde"), min_size=1, max_size=8)),
    min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_bleu_bounded_property(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    report = E.bleu(hyps, refs)
    assert 0.0 <= report.bleu <= 100.0 + 1e-9
    assert all(0.0 <= p <= 1.0 for p in report.precisions)


def test_report_format_line():
    report = E.bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d"]])
    line = report.format()
    assert line.startswith("BLEU = 100.00")
    assert "p1..p4=100.0/100.0/100.0/100.0" in line


def test_parse_config_roundtrip_and_comments():
    text = """
    # experiment
    encoder = cnn
    recipe = sem:2
    hidden_size = 16
    learning_rate = 0.001   # optimizer
    out_dir = /tmp/run1
    """
    exp, trn, paths = CFG.parse_config(text)
    assert exp.encoder == "cnn" and exp.recipe == "sem:2"
    assert exp.hidden_size == 16 and trn.learning_rate == 0.001
    assert paths.out_dir == "/tmp/run1"
    exp2, trn2, paths2 = CFG.parse_config(CFG.dump_config(exp, trn, paths))
    assert (exp2, trn2, paths2) == (exp, trn, paths)


def test_load_config_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\ufeffencoder = cnn\nepochs = 3\n", encoding="utf-8")
    exp, trn, _ = CFG.load_config(path)
    assert exp.encoder == "cnn" and trn.epochs == 3


def test_parse_config_rejects_unknown_key_with_line_number():
    with pytest.raises(CFG.ConfigError, match="line 2"):
        CFG.parse_config("encoder = birnn\nbogus_key = 3\n")


def test_parse_config_rejects_bad_value_and_missing_equals():
    with pytest.raises(CFG.ConfigError, match="bad value"):
        CFG.parse_config("epochs = many\n")
    with pytest.raises(CFG.ConfigError, match="key = value"):
        CFG.parse_config("just some words\n")


@pytest.mark.parametrize("key, value", [("learning_rate", "nan"), ("learning_rate", "inf"),
                                        ("l2_coeff", "nan"), ("l2_coeff", "-1")])
def test_parse_config_rejects_non_finite_rates_and_negative_l2(key, value):
    # a nan learning rate would turn every parameter into nan on the first step
    with pytest.raises(CFG.ConfigError, match=key):
        CFG.parse_config(f"{key} = {value}\n")


def test_parse_config_accepts_zero_l2():
    assert CFG.parse_config("l2_coeff = 0\n")[1].l2_coeff == 0.0


def test_recipe_parse_gives_blocks_and_rejects_bad_ones():
    for text, blocks in [("none", []), ("sem:1", [(("sem",), 1)]),
                         ("syn:3", [(("syn",), 3)]),
                         ("semsyn:2", [(("sem", "syn"), 2)]),
                         ("selfloop:1", [((), 1)]),
                         ("syn:2+sem:1", [(("syn",), 2), (("sem",), 1)])]:
        assert CFG.parse_recipe(text) == blocks
    for bad in ("sem", "sem:0", "sem:4", "foo:1", "sem:x"):
        with pytest.raises(CFG.ConfigError):
            CFG.parse_recipe(bad)


def test_grid_paper_small_contents():
    assert CFG.GRIDS["paper-small"] == ["none", "sem:1", "syn:1", "syn:1+sem:1"]


def test_cli_score_identical_files(tmp_path, capsys):
    text = "the cat sat on the mat\na dog ran home today\n"
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text(text)
    ref.write_text(text)
    rc = cli.main(["score", "--hyp", str(hyp), "--ref", str(ref)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("BLEU = 100.00")


def test_cli_score_missing_file_fails_cleanly(tmp_path, capsys):
    rc = cli.main(["score", "--hyp", str(tmp_path / "no.txt"),
                   "--ref", str(tmp_path / "no.txt")])
    assert rc == 1
    assert "gcnmt score:" in capsys.readouterr().err


def test_cli_score_keeps_unterminated_last_line(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b c d\nx y z w")
    ref.write_text("a b c d\ne f g h")
    assert cli.main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("BLEU = ") and not out.startswith("BLEU = 100.00")


def test_cli_score_rejects_unequal_line_counts(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b c d\ne f g h")
    ref.write_text("a b c d\n")
    assert cli.main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 1
    assert "1 references" in capsys.readouterr().err


def test_cli_score_counts_lines_with_unicode_separators(tmp_path, capsys):
    # U+2028 ends a line for str.splitlines, not in a line-per-entry file;
    # between words it is whitespace like the space in the reference
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b c d\ne f\u2028g h\ni j k l\n", encoding="utf-8")
    ref.write_text("a b c d\ne f g h\ni j k l\n", encoding="utf-8")
    assert cli.main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    assert capsys.readouterr().out.startswith("BLEU = 100.00")


def test_cli_score_ignores_a_byte_order_mark_in_the_reference(tmp_path, capsys):
    text = "die Katze sitzt auf der Matte\n"
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text(text, encoding="utf-8")
    ref.write_text("\ufeff" + text, encoding="utf-8")
    assert cli.main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    assert capsys.readouterr().out.startswith("BLEU = 100.00")


def _write_tiny_dataset(tmp_path, n=20):
    rng = np.random.default_rng(0)
    words = ["w%d" % i for i in range(6)]
    sents, tgts = [], []
    for _ in range(n):
        toks = [words[i] for i in rng.choice(len(words), size=3, replace=False)]
        sents.append(AnnotatedSentence(
            tokens=toks, sem_edges=[(0, 1, "A0"), (0, 2, "A1")],
            syn_edges=[(0, 1, "sbj"), (1, 2, "obj")]))
        tgts.append(" ".join(toks) + "\n")
    conll = tmp_path / "train.conll"
    tgt = tmp_path / "train.tgt"
    conll.write_text(serialize_conll(sents))
    tgt.write_text("".join(tgts))
    return conll, tgt


def _tiny_flags(conll, tgt, out_dir):
    return ["--train-conll", str(conll), "--train-tgt", str(tgt),
            "--out-dir", str(out_dir), "--epochs", "2", "--batch-size", "5",
            "--bpe-merges", "0"]


def test_cli_preprocess_train_translate_score_pipeline(tmp_path, capsys):
    conll, tgt = _write_tiny_dataset(tmp_path)
    out = tmp_path / "run"
    base = _tiny_flags(conll, tgt, out)
    small = ["--config", str(tmp_path / "small.cfg")]
    (tmp_path / "small.cfg").write_text(
        "emb_size = 8\nhidden_size = 8\nattn_size = 8\nmin_count = 1\n"
        "max_decode_len = 5\nrecipe = sem:1\n")

    assert cli.main(["preprocess"] + small + base) == 0
    assert (out / "src_vocab.txt").exists()
    assert cli.main(["train"] + small + base) == 0
    assert (out / "best.npz").exists()

    hyp_path = tmp_path / "hyp.txt"
    rc = cli.main(["translate"] + small + base +
                  ["--checkpoint", str(out / "best.npz"),
                   "--input", str(conll), "--output", str(hyp_path)])
    assert rc == 0
    lines = hyp_path.read_text().split("\n")[:-1]
    assert len(lines) == 20

    capsys.readouterr()
    assert cli.main(["score", "--hyp", str(hyp_path), "--ref", str(tgt)]) == 0
    assert capsys.readouterr().out.startswith("BLEU = ")


def _flip_last_data_byte(path, member):
    """Flip one bit of the last data byte of an uncompressed archive member."""
    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    start = info.header_offset
    name_len, extra_len = struct.unpack("<HH", raw[start + 26:start + 30])
    raw[start + 30 + name_len + extra_len + info.compress_size - 1] ^= 0x01
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("corruption", ["not-a-zip", "flipped-byte", "float32-member"])
def test_cli_translate_rejects_a_corrupt_checkpoint_in_one_line(tmp_path, capsys,
                                                                corruption):
    conll, tgt = _write_tiny_dataset(tmp_path, n=5)
    out = tmp_path / "run"
    (tmp_path / "small.cfg").write_text(
        "emb_size = 8\nhidden_size = 8\nattn_size = 8\nmin_count = 1\n"
        "max_decode_len = 5\n")
    base = _tiny_flags(conll, tgt, out) + ["--config", str(tmp_path / "small.cfg")]
    assert cli.main(["train"] + base) == 0
    ckpt = out / "best.npz"
    if corruption == "not-a-zip":
        ckpt.write_bytes(b"not a checkpoint\n")
        detail = "File is not a zip file"
    elif corruption == "flipped-byte":
        _flip_last_data_byte(ckpt, "decoder.w_out.npy")
        detail = "member decoder.w_out.npy: Bad CRC-32"
    else:
        with np.load(ckpt) as z:
            stored = {k: z[k] for k in z.files}
        stored["decoder.w_out"] = stored["decoder.w_out"].astype(np.float32)
        np.savez(ckpt, **stored)
        detail = "member decoder.w_out.npy: dtype <f4 in C order is not supported"
    capsys.readouterr()
    rc = cli.main(["translate"] + base + ["--checkpoint", str(ckpt),
                                          "--input", str(conll)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"gcnmt translate: checkpoint {ckpt}")
    assert detail in err[0]


@pytest.mark.parametrize("case", ["translate-output", "translate-checkpoint",
                                  "score-hyp", "train-out-dir"])
def test_cli_reports_a_path_of_the_wrong_kind_in_one_line(tmp_path, capsys, case,
                                                          monkeypatch):
    # a directory where a file is read or written, or a file where the run
    # directory goes: an OSError, reported like every other input error,
    # before any sentence is decoded
    decoded = []
    monkeypatch.setattr(cli, "translate_corpus", lambda *a, **k: decoded.append(a) or [])
    conll, tgt = _write_tiny_dataset(tmp_path, n=5)
    out = tmp_path / "run"
    (tmp_path / "small.cfg").write_text(
        "emb_size = 8\nhidden_size = 8\nattn_size = 8\nmin_count = 1\n"
        "max_decode_len = 5\n")
    config = ["--config", str(tmp_path / "small.cfg")]
    if case == "score-hyp":
        argv = ["score", "--hyp", str(tmp_path), "--ref", str(tgt)]
    elif case == "train-out-dir":
        argv = ["train"] + _tiny_flags(conll, tgt, tgt) + config
    else:
        base = _tiny_flags(conll, tgt, out) + config
        assert cli.main(["train"] + base) == 0
        ckpt, output = ((out / "best.npz", tmp_path) if case == "translate-output"
                        else (out, tmp_path / "hyp.txt"))
        argv = ["translate"] + base + ["--checkpoint", str(ckpt), "--input", str(conll),
                                       "--output", str(output)]
    command = argv[0]
    capsys.readouterr()
    assert cli.main(argv) == 1 and decoded == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"gcnmt {command}: "), err


def _add_long_pair(conll, tgt, side, n=81):
    """Append one pair whose source or target has ``n`` tokens."""
    long = ["w%d" % (i % 6) for i in range(n)]
    src, ref = (long, ["w0", "w1"]) if side == "source" else (["w0", "w1"], long)
    sents = ingest_conll(conll.read_text())
    sents.append(AnnotatedSentence(tokens=src, sem_edges=[], syn_edges=[]))
    conll.write_text(serialize_conll(sents))
    tgt.write_text(tgt.read_text() + " ".join(ref) + "\n")
    return len(sents)


@pytest.mark.parametrize("command,side", [("train", "source"),
                                          ("experiment", "target")])
def test_cli_training_leaves_out_pairs_over_max_sentence_len(tmp_path, capsys,
                                                              command, side):
    conll, tgt = _write_tiny_dataset(tmp_path, n=10)
    n_pairs = _add_long_pair(conll, tgt, side)
    (tmp_path / "small.cfg").write_text(
        "emb_size = 8\nhidden_size = 8\nattn_size = 8\nmin_count = 1\n"
        "max_decode_len = 5\nrecipe = sem:1\n")
    argv = [command, "--config", str(tmp_path / "small.cfg")] + \
        _tiny_flags(conll, tgt, tmp_path / "run")
    capsys.readouterr()
    assert cli.main(argv) == 0, capsys.readouterr().err
    err = capsys.readouterr().err.splitlines()
    assert err == [f"gcnmt {command}: left out 1 of {n_pairs} training pairs "
                   "longer than max_sentence_len = 80"]
    assert (tmp_path / "run" / "best.npz").exists()

    # nothing left to train on: one error line, exit 1
    (tmp_path / "small.cfg").write_text("max_sentence_len = 2\nmin_count = 1\n")
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"gcnmt {command}: "), err
    assert "every training pair is longer than max_sentence_len = 2" in err[0]


def test_cli_preprocess_without_bpe_removes_an_earlier_bpe_model(tmp_path):
    conll, tgt = _write_tiny_dataset(tmp_path, n=10)
    out = tmp_path / "run"
    base = _tiny_flags(conll, tgt, out)
    assert cli.main(["preprocess"] + base + ["--bpe-merges", "20"]) == 0
    assert (out / "bpe.txt").exists() and cli._load_prep(str(out)).bpe is not None
    assert cli.main(["preprocess"] + base + ["--bpe-merges", "0"]) == 0
    assert not (out / "bpe.txt").exists()
    assert cli._load_prep(str(out)).bpe is None


def test_cli_translate_beam1_matches_greedy(tmp_path):
    conll, tgt = _write_tiny_dataset(tmp_path, n=10)
    out = tmp_path / "run"
    (tmp_path / "small.cfg").write_text(
        "emb_size = 8\nhidden_size = 8\nattn_size = 8\nmin_count = 1\n"
        "max_decode_len = 5\n")
    base = _tiny_flags(conll, tgt, out) + ["--config", str(tmp_path / "small.cfg")]
    assert cli.main(["train"] + base) == 0
    outs = {}
    for name, extra in (("greedy", ["--decode", "greedy"]),
                        ("beam", ["--decode", "beam", "--beam", "1"])):
        path = tmp_path / f"{name}.txt"
        rc = cli.main(["translate"] + base + extra +
                      ["--checkpoint", str(out / "best.npz"),
                       "--input", str(conll), "--output", str(path)])
        assert rc == 0
        outs[name] = path.read_text()
    assert outs["greedy"] == outs["beam"]


def test_cli_translate_keeps_sentences_longer_than_training_limit(tmp_path):
    # training caps sources at max_sentence_len = 4; translating a 7-token
    # sentence must not abort the file, and every line keeps its place
    conll, tgt = _write_tiny_dataset(tmp_path, n=10)
    out = tmp_path / "run"
    (tmp_path / "small.cfg").write_text(
        "emb_size = 8\nhidden_size = 8\nattn_size = 8\nmin_count = 1\n"
        "max_decode_len = 5\nmax_sentence_len = 4\n")
    base = _tiny_flags(conll, tgt, out) + ["--config", str(tmp_path / "small.cfg")]
    assert cli.main(["train"] + base) == 0
    sents = [AnnotatedSentence(tokens=["w%d" % (i % 6) for i in range(n)],
                               sem_edges=[], syn_edges=[]) for n in (3, 7, 1)]

    def translate(name, batch):
        src = tmp_path / f"{name}.conll"
        src.write_text(serialize_conll(batch))
        path = tmp_path / f"{name}.txt"
        rc = cli.main(["translate"] + base +
                      ["--checkpoint", str(out / "best.npz"), "--input", str(src),
                       "--output", str(path)])
        assert rc == 0
        return path.read_text().splitlines()

    lines = translate("all", sents)
    assert len(lines) == 3
    assert lines == [translate(f"one{i}", [s])[0] for i, s in enumerate(sents)]


def test_read_pairs_keeps_blank_target_lines(tmp_path):
    # a blank reference line is an empty target, not a missing one
    sents = [AnnotatedSentence(tokens=["w%d" % i, "w%d" % (i + 1)],
                               sem_edges=[], syn_edges=[]) for i in range(3)]
    conll = tmp_path / "in.conll"
    tgt = tmp_path / "in.tgt"
    conll.write_text(serialize_conll(sents))
    tgt.write_text("A B\n\nC D\n")
    pairs = E._read_pairs(conll, tgt)
    assert [t for _, t in pairs] == [["A", "B"], [], ["C", "D"]]


def test_cli_translate_reads_conll_input_with_a_byte_order_mark(tmp_path):
    conll, tgt = _write_tiny_dataset(tmp_path, n=10)
    out = tmp_path / "run"
    (tmp_path / "small.cfg").write_text(
        "emb_size = 8\nhidden_size = 8\nattn_size = 8\nmin_count = 1\n"
        "max_decode_len = 5\n")
    base = _tiny_flags(conll, tgt, out) + ["--config", str(tmp_path / "small.cfg")]
    assert cli.main(["train"] + base) == 0
    marked = tmp_path / "marked.conll"
    marked.write_text("\ufeff" + conll.read_text(encoding="utf-8"), encoding="utf-8")
    outs = []
    for src in (conll, marked):
        path = tmp_path / f"{src.stem}.txt"
        rc = cli.main(["translate"] + base +
                      ["--checkpoint", str(out / "best.npz"), "--input", str(src),
                       "--output", str(path)])
        assert rc == 0
        outs.append(path.read_text())
    assert outs[0] == outs[1] and len(outs[1].splitlines()) == 10


def _bom_pair_files(tmp_path, conll_bom, tgt_bom):
    sents = [AnnotatedSentence(tokens=["w%d" % i, "w%d" % (i + 1)],
                               sem_edges=[], syn_edges=[(0, 1, "obj")])
             for i in range(2)]
    conll = tmp_path / "in.conll"
    tgt = tmp_path / "in.tgt"
    conll.write_text(conll_bom + serialize_conll(sents), encoding="utf-8")
    tgt.write_text(tgt_bom + "A B\nC D\n", encoding="utf-8")
    return sents, E._read_pairs(conll, tgt)


def test_read_pairs_ignores_a_byte_order_mark_in_the_targets(tmp_path):
    _, pairs = _bom_pair_files(tmp_path, "", "\ufeff")
    assert [t for _, t in pairs] == [["A", "B"], ["C", "D"]]


def test_read_pairs_ignores_a_byte_order_mark_in_the_conll_file(tmp_path):
    sents, pairs = _bom_pair_files(tmp_path, "\ufeff", "")
    assert [s for s, _ in pairs] == sents


def test_read_pairs_splits_targets_only_at_line_endings(tmp_path):
    sents = [AnnotatedSentence(tokens=["w%d" % i, "w%d" % (i + 1)],
                               sem_edges=[], syn_edges=[]) for i in range(3)]
    conll = tmp_path / "in.conll"
    tgt = tmp_path / "in.tgt"
    conll.write_text(serialize_conll(sents))
    tgt.write_text("A B\nC\x1cD\nE F\n", encoding="utf-8")
    pairs = E._read_pairs(conll, tgt)
    assert [t for _, t in pairs] == [["A", "B"], ["C", "D"], ["E", "F"]]


def test_translate_corpus_encodes_without_a_tape(monkeypatch):
    sources = [["a", "b", "c"], ["d", "e"], ["b", "e"], ["c", "a", "d", "e"]]
    pairs = [(AnnotatedSentence(tokens=toks, sem_edges=[(0, 1, "A0")],
                                syn_edges=[]), [w.upper() for w in toks])
             for toks in sources]
    exp = CFG.ExperimentConfig(recipe="sem:1", emb_size=6, hidden_size=5,
                               attn_size=4, max_decode_len=4, bpe_merges=0)
    trn = CFG.TrainConfig(batch_size=4, min_count=1)
    prep = E.preprocess(pairs, exp, trn)
    model = build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                        prep.label_vocabs, np.random.default_rng(5))
    expected = []
    for pair in pairs:
        batch = make_batch([pair], prep.src_vocab, prep.tgt_vocab)
        enc = encode_pipeline(batch, exp, model.encoder)
        assert enc.states.requires_grad  # outside no_grad the encode is taped
        one = EncoderOutput(Tensor(enc.states.data[0]), enc.mask[0])
        ids = greedy_decode(one, model.decoder, exp.max_decode_len)
        expected.append([prep.tgt_vocab.token(t) for t in ids])

    taped = []

    def spy(*args, **kwargs):
        enc = encode_pipeline(*args, **kwargs)
        taped.append(enc.states.requires_grad)
        return enc

    monkeypatch.setattr(E, "encode_pipeline", spy)
    hyps = E.translate_corpus(model, pairs, prep.src_vocab, prep.tgt_vocab,
                              None, trn)
    assert taped == [False, False, False]
    assert hyps == expected


def test_translate_corpus_neither_segments_nor_maps_targets(monkeypatch):
    # translation reads only sources: no target reaches apply_bpe, and the
    # hypotheses are the per-sentence greedy ones of batches with targets
    sources = [["a", "b", "c"], ["d", "e"], ["b", "e"], ["c", "a", "d", "e"]]
    pairs = [(AnnotatedSentence(tokens=toks, sem_edges=[(0, 1, "A0")],
                                syn_edges=[]), [w.upper() * 3 for w in toks])
             for toks in sources]
    exp = CFG.ExperimentConfig(recipe="sem:1", emb_size=6, hidden_size=5,
                               attn_size=4, max_decode_len=4, bpe_merges=3)
    trn = CFG.TrainConfig(batch_size=4, min_count=1)
    prep = E.preprocess(pairs, exp, trn)
    assert prep.bpe is not None and prep.bpe.merges
    model = build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                        prep.label_vocabs, np.random.default_rng(6))
    expected = []
    for pair in pairs:
        batch = make_batch([pair], prep.src_vocab, prep.tgt_vocab, prep.bpe)
        with no_grad():
            enc = encode_pipeline(batch, exp, model.encoder)
        one = EncoderOutput(Tensor(enc.states.data[0]), enc.mask[0])
        ids = greedy_decode(one, model.decoder, exp.max_decode_len)
        expected.append(rejoin_bpe([prep.tgt_vocab.token(t) for t in ids]))

    calls = []

    def spy(bpe, token):
        calls.append(token)
        return apply_bpe(bpe, token)

    monkeypatch.setattr("gcnmt.corpus.apply_bpe", spy)
    hyps = E.translate_corpus(model, pairs, prep.src_vocab, prep.tgt_vocab,
                              prep.bpe, trn)
    assert calls == []
    assert hyps == expected


def test_preprocess_and_batching_merge_no_word_learn_bpe_merged(monkeypatch):
    # learn_bpe leaves each training word's pieces in the model it returns, so
    # segmenting the targets for the vocabulary and the batches runs no merge
    merged = []
    real_merge, real_learn = C._merge_symbols, E.learn_bpe

    def merge_spy(symbols, pair):
        merged.append(pair)
        return real_merge(symbols, pair)

    def learn_then_count(corpus, num_merges):
        model = real_learn(corpus, num_merges)
        assert merged  # learning itself merges
        merged.clear()
        return model

    monkeypatch.setattr(C, "_merge_symbols", merge_spy)
    monkeypatch.setattr(E, "learn_bpe", learn_then_count)
    words = ["lower", "lowest", "newer", "wider", "low", "new"]
    pairs = [(AnnotatedSentence(tokens=["s"] * (1 + i % 3)), words[i % 6:] + words[:i % 4])
             for i in range(12)]
    exp = CFG.ExperimentConfig(bpe_merges=8)
    trn = CFG.TrainConfig(batch_size=4)
    prep = E.preprocess(pairs, exp, trn)
    batches = TR.bucket_batches(pairs, prep.src_vocab, prep.tgt_vocab, prep.bpe, trn)
    assert len(prep.bpe.merges) == 8 and sum(b.size for b in batches) == len(pairs)
    assert merged == []
    # every learned word was handed over, and the emptied dict's table let go
    assert sys.getsizeof(prep.bpe._learned) == sys.getsizeof({})

    # every call hands out a new list: mutating one changes no later result
    target = pairs[0][1]
    first = C.segment(prep.bpe, target)
    assert C.segment(prep.bpe, target) == first and len(first) > len(target)
    expected = list(first)
    first[0] = "changed"
    first.append("more")
    C.apply_bpe(prep.bpe, target[0]).append("more")
    assert C.segment(prep.bpe, target) == expected
    assert merged == []


def _mixed_length_corpus(counts, seed):
    """Copy task pairs with ``counts[n - 1]`` sources of length n, shuffled."""
    rng = np.random.default_rng(seed)
    words = ["a", "b", "c", "d", "e", "f"]
    pairs = []
    for n, count in enumerate(counts, start=1):
        for _ in range(count):
            toks = [words[i] for i in rng.choice(len(words), size=n)]
            pairs.append((AnnotatedSentence(
                tokens=toks, sem_edges=[(0, n - 1, "A0")] if n > 1 else [],
                syn_edges=[]), [w.upper() for w in toks]))
    return [pairs[i] for i in rng.permutation(len(pairs))]


@pytest.mark.parametrize("batch_size,group_sizes", [
    (1, [1] * 15),
    (3, [3, 2, 3, 2, 3, 2]),
    (5, [5, 5, 5]),
    (64, [15]),
])
def test_translate_corpus_groups_buckets_and_matches_per_sentence_greedy(
        monkeypatch, batch_size, group_sizes):
    # lengths 1..6 with 3, 2, 4, 1, 3, 2 sentences: size 3 splits the
    # length-3 bucket, size 5 packs groups that straddle lengths, size 64
    # decodes every sentence in one group
    pairs = _mixed_length_corpus([3, 2, 4, 1, 3, 2], seed=4)
    exp = CFG.ExperimentConfig(recipe="sem:1", emb_size=8, hidden_size=8,
                               attn_size=8, max_decode_len=8, bpe_merges=0)
    trn = CFG.TrainConfig(epochs=8, batch_size=8, learning_rate=0.05,
                          min_count=1, rng_seed=2, word_retain=1.0,
                          edge_retain=1.0)
    prep = E.preprocess(pairs, exp, trn)
    model = train(trn, exp, pairs, pairs, prep.src_vocab, prep.tgt_vocab,
                  None, prep.label_vocabs, out_dir="").model
    expected = []
    for pair in pairs:
        batch = make_batch([pair], prep.src_vocab, prep.tgt_vocab)
        with no_grad():
            enc = encode_pipeline(batch, exp, model.encoder, mode="infer")
        one = EncoderOutput(Tensor(enc.states.data[0]), enc.mask[0])
        ids = greedy_decode(one, model.decoder, exp.max_decode_len)
        expected.append([prep.tgt_vocab.token(t) for t in ids])
    # trained enough that rows reach EOS at different steps
    assert len({len(h) for h in expected}) > 2

    encoded, decoded = [], []

    def encode_spy(batch, *args, **kwargs):
        enc = encode_pipeline(batch, *args, **kwargs)
        encoded.append((set(batch.src_mask.sum(axis=1).tolist()),
                        enc.states.requires_grad))
        return enc

    def decode_spy(enc, *args, **kwargs):
        decoded.append(enc.states.shape[0])
        return greedy_decode_batch(enc, *args, **kwargs)

    monkeypatch.setattr(E, "encode_pipeline", encode_spy)
    monkeypatch.setattr(E, "greedy_decode_batch", decode_spy)
    small = CFG.TrainConfig(batch_size=batch_size, min_count=1)
    hyps = E.translate_corpus(model, pairs, prep.src_vocab, prep.tgt_vocab,
                              None, small)
    assert hyps == expected
    buckets = bucket_indices(pairs, batch_size)
    assert len(encoded) == len(buckets)
    assert all(len(lengths) == 1 and not taped for lengths, taped in encoded)
    assert decoded == group_sizes


def test_beam1_translations_equal_greedy_on_mixed_lengths():
    # greedy decodes padded mixed-length groups with the per-row context
    # product; beam 1 decodes each sentence alone through context_table,
    # so a rounding-order tie flip between the two paths would show here
    pairs = _mixed_length_corpus([3, 4, 3, 4, 3, 4, 3, 3, 3], seed=5)
    exp = CFG.ExperimentConfig(recipe="sem:1", emb_size=8, hidden_size=8,
                               attn_size=8, max_decode_len=10, bpe_merges=0)
    trn = CFG.TrainConfig(epochs=6, batch_size=8, learning_rate=0.05,
                          min_count=1, rng_seed=4, word_retain=1.0,
                          edge_retain=1.0)
    prep = E.preprocess(pairs, exp, trn)
    model = train(trn, exp, pairs, [], prep.src_vocab, prep.tgt_vocab,
                  None, prep.label_vocabs).model
    args = (pairs, prep.src_vocab, prep.tgt_vocab, None, trn)
    greedy = E.translate_corpus(model, *args)
    beam = dataclasses.replace(exp, decode="beam", beam_size=1)
    assert E.translate_corpus(dataclasses.replace(model, config=beam), *args) == greedy
    assert len({len(h) for h in greedy}) > 2  # rows stop at different steps


def test_cli_rejects_invalid_recipe(capsys):
    rc = cli.main(["train", "--recipe", "sem:9", "--train-conll", "x",
                   "--train-tgt", "y"])
    assert rc == 1
    assert "gcnmt train:" in capsys.readouterr().err


def test_run_experiment_single_cell(tmp_path):
    conll, tgt = _write_tiny_dataset(tmp_path, n=12)
    exp = CFG.ExperimentConfig(encoder="birnn", recipe="sem:1", emb_size=8,
                               hidden_size=8, attn_size=8, decode="greedy",
                               max_decode_len=5, bpe_merges=0)
    trn = CFG.TrainConfig(epochs=2, batch_size=6, min_count=1, rng_seed=3)
    paths = CFG.DataPaths(train_conll=str(conll), train_tgt=str(tgt),
                          out_dir=str(tmp_path / "cell"))
    summary = cli.run_experiment(exp, trn, paths)
    assert summary.recipe == "sem:1"
    assert 0.0 <= summary.test_bleu <= 100.0
    assert (tmp_path / "cell" / "test.hyp.txt").exists()


def test_run_experiment_leaves_a_run_directory_for_translate(tmp_path):
    # the best epoch (1) is not the last one, so test.hyp.txt must come from
    # best.npz, and the cell must hold the vocabularies translate reads
    conll, tgt = _write_tiny_dataset(tmp_path)
    cell = tmp_path / "cell"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "emb_size = 8\nhidden_size = 8\nattn_size = 8\nmin_count = 1\n"
        "max_decode_len = 5\nrecipe = sem:1\nbpe_merges = 0\nepochs = 3\n"
        "batch_size = 5\nlearning_rate = 0.05\nrng_seed = 3\n"
        f"train_conll = {conll}\ntrain_tgt = {tgt}\nout_dir = {cell}\n")
    summary = cli.run_experiment(*CFG.load_config(cfg))
    assert summary.best_epoch < 3
    hyp = tmp_path / "hyp.txt"
    rc = cli.main(["translate", "--config", str(cfg), "--checkpoint",
                   str(cell / "best.npz"), "--input", str(conll),
                   "--output", str(hyp)])
    assert rc == 0
    assert hyp.read_text().splitlines() == \
        (cell / "test.hyp.txt").read_text().splitlines()


def test_cli_train_reports_a_diverging_run_in_one_line(tmp_path, capsys, monkeypatch):
    conll, tgt = _write_tiny_dataset(tmp_path, n=5)

    def diverging_train(*args, **kwargs):
        raise FloatingPointError("non-finite training loss at epoch 1")

    monkeypatch.setattr(cli, "train", diverging_train)
    assert cli.main(["train"] + _tiny_flags(conll, tgt, tmp_path / "run")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["gcnmt train: non-finite training loss at epoch 1"]


def test_run_experiment_writes_vocabularies_before_training(tmp_path, monkeypatch):
    # a run that fails in train keeps what translate needs beside its checkpoints
    conll, tgt = _write_tiny_dataset(tmp_path, n=8)
    cell = tmp_path / "cell"
    exp = CFG.ExperimentConfig(recipe="sem:1", emb_size=8, hidden_size=8,
                               attn_size=8, max_decode_len=5, bpe_merges=0)
    trn = CFG.TrainConfig(epochs=1, batch_size=4, min_count=1)
    paths = CFG.DataPaths(train_conll=str(conll), train_tgt=str(tgt), out_dir=str(cell))

    def failing_train(*args, **kwargs):
        raise FloatingPointError("non-finite training loss at epoch 1")

    monkeypatch.setattr(cli, "train", failing_train)
    with pytest.raises(RuntimeError, match="experiment failed during train"):
        cli.run_experiment(exp, trn, paths)
    for name in ("src_vocab.txt", "tgt_vocab.txt", "sem_labels.txt", "syn_labels.txt"):
        assert (cell / name).exists(), name


def test_run_experiment_with_empty_out_dir_writes_no_files(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    conll, tgt = _write_tiny_dataset(data, n=8)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    exp = CFG.ExperimentConfig(recipe="sem:1", emb_size=8, hidden_size=8,
                               attn_size=8, max_decode_len=5, bpe_merges=0)
    trn = CFG.TrainConfig(epochs=1, batch_size=4, min_count=1)
    paths = CFG.DataPaths(train_conll=str(conll), train_tgt=str(tgt), out_dir="")
    summary = cli.run_experiment(exp, trn, paths)
    assert summary.out_dir == "" and summary.best_epoch == 1
    assert list(work.iterdir()) == []
    assert sorted(p.name for p in data.iterdir()) == ["train.conll", "train.tgt"]


def test_run_experiment_without_out_dir_scores_the_best_epoch(tmp_path):
    # validation BLEU peaks before the last epoch; the test set is the
    # validation set, so the test BLEU is the best epoch's validation BLEU
    pairs, exp, trn, _ = _best_before_last_setup()
    conll, tgt = tmp_path / "train.conll", tmp_path / "train.tgt"
    conll.write_text(serialize_conll([s for s, _ in pairs]))
    tgt.write_text("".join(" ".join(t) + "\n" for _, t in pairs))
    paths = CFG.DataPaths(train_conll=str(conll), train_tgt=str(tgt), out_dir="")
    summary = cli.run_experiment(exp, trn, paths)
    assert summary.best_epoch < trn.epochs
    assert summary.test_bleu == summary.best_val_bleu > 0.0


def test_run_experiment_wraps_stage_errors(tmp_path):
    exp = CFG.ExperimentConfig()
    trn = CFG.TrainConfig(epochs=1)
    paths = CFG.DataPaths(train_conll=str(tmp_path / "missing.conll"),
                          train_tgt=str(tmp_path / "missing.tgt"),
                          out_dir=str(tmp_path / "x"))
    with pytest.raises(RuntimeError, match="during preprocess"):
        cli.run_experiment(exp, trn, paths)


def test_run_grid_paper_small_produces_four_rows(tmp_path):
    conll, tgt = _write_tiny_dataset(tmp_path, n=12)
    exp = CFG.ExperimentConfig(emb_size=8, hidden_size=8, attn_size=8,
                               decode="greedy", max_decode_len=5, bpe_merges=0)
    trn = CFG.TrainConfig(epochs=1, batch_size=6, min_count=1)
    paths = CFG.DataPaths(train_conll=str(conll), train_tgt=str(tgt),
                          out_dir=str(tmp_path / "grid"))
    summaries = cli.run_grid("paper-small", exp, trn, paths)
    assert [s.recipe for s in summaries] == CFG.GRIDS["paper-small"]
    assert len({s.out_dir for s in summaries}) == 4
    with pytest.raises(CFG.ConfigError):
        cli.run_grid("nope", exp, trn, paths)


def test_run_grid_with_empty_out_dir_writes_no_files(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    conll, tgt = _write_tiny_dataset(data, n=8)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setitem(CFG.GRIDS, "two", ["none", "sem:1"])
    exp = CFG.ExperimentConfig(emb_size=8, hidden_size=8, attn_size=8,
                               max_decode_len=5, bpe_merges=0)
    trn = CFG.TrainConfig(epochs=1, batch_size=4, min_count=1)
    paths = CFG.DataPaths(train_conll=str(conll), train_tgt=str(tgt), out_dir="")
    summaries = cli.run_grid("two", exp, trn, paths)
    assert [s.out_dir for s in summaries] == ["", ""]
    assert list(work.iterdir()) == []


def test_cli_train_with_empty_out_dir_writes_no_files(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    data.mkdir()
    conll, tgt = _write_tiny_dataset(data, n=8)
    (data / "small.cfg").write_text(
        "emb_size = 8\nhidden_size = 8\nattn_size = 8\nmin_count = 1\n"
        "max_decode_len = 5\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    rc = cli.main(["train", "--config", str(data / "small.cfg")]
                  + _tiny_flags(conll, tgt, ""))
    assert rc == 0, capsys.readouterr().err
    assert "checkpoint None" in capsys.readouterr().out
    assert list(work.iterdir()) == []


def test_cli_preprocess_rejects_empty_out_dir(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    data.mkdir()
    conll, tgt = _write_tiny_dataset(data, n=8)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert cli.main(["preprocess"] + _tiny_flags(conll, tgt, "")) == 1
    err = capsys.readouterr().err
    assert err.startswith("gcnmt preprocess: ") and "--out-dir" in err
    assert list(work.iterdir()) == []
