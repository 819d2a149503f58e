import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from beam_oracle import reference_beam_decode
from gcnmt import decoder as D
from gcnmt import tensor as T
from gcnmt.corpus import BOS, EOS
from gcnmt.encoders import EncoderOutput
from layer_oracle import (
    assert_matches_reference,
    reference_attention,
    reference_init_state,
    reference_recurrence_step,
    reference_teacher_forcing_recurrence,
)
import tape_ops as TO


def _enc(states, mask=None):
    states = np.asarray(states, dtype=np.float64)
    if mask is None:
        mask = np.ones(states.shape[:-1], dtype=bool)
    return EncoderOutput(states=T.Tensor(states), mask=np.asarray(mask))


def _decoder(vocab=5, emb=3, hid=4, width=4, attn=3, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    params = D.build_decoder(vocab, emb, hid, width, attn, rng)
    if scale != 1.0:
        for t in params.named().values():
            t.data *= scale
    return params


def test_attention_single_position_gets_weight_one():
    params = _decoder(width=3).attn
    enc = _enc([[0.4, -0.2, 0.9]])
    weights, context = D.attention(T.Tensor(np.zeros(4)), enc, params,
                                   D.attention_keys(enc, params))
    npt.assert_allclose(weights.data, [1.0])
    npt.assert_allclose(context.data, enc.states.data[0])


def test_attention_weights_sum_to_one_and_respect_mask():
    params = _decoder(width=4).attn
    enc = _enc(np.random.default_rng(1).uniform(-1, 1, (5, 4)),
               mask=[True, True, False, True, False])
    weights, _ = D.attention(T.Tensor(np.zeros(4)), enc, params,
                             D.attention_keys(enc, params))
    npt.assert_allclose(weights.data.sum(), 1.0, atol=1e-12)
    assert weights.data[2] == 0.0 and weights.data[4] == 0.0
    assert (weights.data[[0, 1, 3]] > 0).all()


def test_attention_two_position_hand_oracle():
    params = _decoder(width=2, hid=2, attn=2).attn
    params.u_dec.data = np.array([[0.5, -0.3], [0.2, 0.1]])
    params.v_enc.data = np.array([[1.0, 0.0], [0.0, 1.0]])
    params.score_v.data = np.array([0.7, -0.4])
    s = np.array([0.3, -0.6])
    states = np.array([[0.2, 0.5], [-0.1, 0.4]])
    scores = [np.tanh(states[i] + s @ params.u_dec.data) @ params.score_v.data
              for i in range(2)]
    exps = np.exp(scores - max(scores))
    w_exp = exps / exps.sum()
    enc = _enc(states)
    weights, context = D.attention(T.Tensor(s), enc, params, D.attention_keys(enc, params))
    npt.assert_allclose(weights.data, w_exp, rtol=1e-12)
    npt.assert_allclose(context.data, w_exp @ states, rtol=1e-12)


def test_attention_all_masked_errors():
    params = _decoder(width=4).attn
    enc = _enc(np.zeros((3, 4)), mask=[False, False, False])
    with pytest.raises(ValueError):
        D.attention(T.Tensor(np.zeros(4)), enc, params, D.attention_keys(enc, params))


def test_decoder_step_logit_shape_law():
    params = _decoder(vocab=7)
    enc = _enc(np.random.default_rng(2).uniform(-1, 1, (3, 4)))
    s = D.init_state(enc, params)
    _, logits = D.decoder_step(BOS, s, enc, params)
    assert logits.shape == (7,)


def test_decoder_step_zero_params_uniform_distribution():
    params = _decoder(vocab=6, scale=0.0)
    enc = _enc(np.zeros((2, 4)))
    s = D.init_state(enc, params)
    _, logits = D.decoder_step(BOS, s, enc, params)
    probs = TO.softmax(logits).data
    npt.assert_allclose(probs, np.full(6, 1 / 6), atol=1e-12)


def test_decoder_step_one_dim_manual_evaluation():
    # 1-dim everything with hand-set weights, replayed step by step
    t = lambda v, shape: T.Tensor(np.full(shape, float(v)), requires_grad=True)
    from gcnmt.encoders import GruParams

    params = D.DecoderParams(
        embedding=T.Tensor(np.array([[0.0], [0.1], [0.2], [0.3], [0.5]])),
        gru=GruParams(w_z=t(0.2, (2, 1)), u_z=t(-0.1, (1, 1)), b_z=t(0.0, (1,)),
                      w_r=t(0.3, (2, 1)), u_r=t(0.1, (1, 1)), b_r=t(0.1, (1,)),
                      w_h=t(0.4, (2, 1)), u_h=t(-0.2, (1, 1)), b_h=t(0.0, (1,))),
        attn=D.AttentionParams(u_dec=t(0.5, (1, 1)), v_enc=t(1.0, (1, 1)),
                               score_v=t(1.0, (1,))),
        w_init=t(0.7, (1, 1)), b_init=t(0.0, (1,)),
        w_out=t(0.25, (3, 5)), b_out=t(0.0, (5,)),
    )
    enc = _enc([[0.6]])
    sig = lambda v: 1 / (1 + math.exp(-v))
    s0 = math.tanh(0.6 * 0.7)
    ctx = 0.6  # single source position
    y_emb = 0.5  # token id 4
    x = [y_emb, ctx]
    z = sig(0.2 * x[0] + 0.2 * x[1] + (-0.1) * s0)
    r = sig(0.3 * x[0] + 0.3 * x[1] + 0.1 * s0 + 0.1)
    cand = math.tanh(0.4 * x[0] + 0.4 * x[1] + (-0.2) * (r * s0))
    s1 = z * s0 + (1 - z) * cand
    logit = 0.25 * (s1 + ctx + y_emb)
    s_t, logits = D.decoder_step(4, T.Tensor(np.array([s0])), enc, params)
    npt.assert_allclose(s_t.data[0], s1, rtol=1e-12)
    npt.assert_allclose(logits.data, np.full(5, logit), rtol=1e-12)


def _eos_lover(vocab=5):
    params = _decoder(vocab=vocab, scale=0.0)
    params.b_out.data[EOS] = 10.0
    return params


def test_greedy_eos_favored_gives_empty_translation():
    enc = _enc(np.zeros((3, 4)))
    assert D.greedy_decode(enc, _eos_lover(), max_len=5) == []


def test_greedy_runs_to_max_len_when_eos_never_favored():
    params = _decoder(vocab=5, scale=0.0)
    params.b_out.data[4] = 10.0
    enc = _enc(np.zeros((3, 4)))
    assert D.greedy_decode(enc, params, max_len=3) == [4, 4, 4]


def test_greedy_batch_matches_per_sentence():
    rng = np.random.default_rng(6)
    params = _decoder(vocab=6, seed=7, scale=3.0)
    states = rng.uniform(-1, 1, (3, 4, 4))
    enc = _enc(states)
    batched = D.greedy_decode_batch(enc, params, max_len=6)
    for i in range(3):
        single = D.greedy_decode(_enc(states[i]), params, max_len=6)
        assert batched[i] == single


def _reference_greedy_batch(enc, params, max_len):
    """Per-row bookkeeping loop: append each row's token until its EOS."""
    with T.no_grad():
        keys = D.attention_keys(enc, params.attn)
        s = D.init_state(enc, params)
        B = enc.states.shape[0]
        prev = np.full(B, BOS)
        done = [False] * B
        outs = [[] for _ in range(B)]
        for _ in range(max_len):
            s, logits = D.decoder_step(prev, s, enc, params, keys)
            toks = np.argmax(logits.data, axis=-1)
            for i in range(B):
                if not done[i]:
                    if toks[i] == EOS:
                        done[i] = True
                    else:
                        outs[i].append(int(toks[i]))
            prev = np.where(done, EOS, toks)
            if all(done):
                break
    return outs


@pytest.mark.parametrize("max_len", [1, 2, 3, 6])
def test_greedy_batch_rows_finishing_at_different_steps(max_len):
    params = _decoder(vocab=6, seed=7, scale=3.0)
    states = np.random.default_rng(6).uniform(-1, 1, (8, 4, 4))
    enc = _enc(states)
    batched = D.greedy_decode_batch(enc, params, max_len=max_len)
    assert batched == _reference_greedy_batch(enc, params, max_len)
    assert all(type(t) is int for ids in batched for t in ids)
    # rows end at steps 1 and 2, and others run to max_len
    full = D.greedy_decode_batch(enc, params, max_len=6)
    assert {0, 1, 6} <= {len(ids) for ids in full}


def test_greedy_batch_padding_is_inert():
    # padded rows hold large finite values, not zeros: only the mask may
    # keep them out of attention and of the initial state
    params = _decoder(vocab=8, seed=6, scale=3.0)
    rng = np.random.default_rng(9)
    lengths = [4, 1, 3, 2, 4]
    sents = [rng.uniform(-1, 1, (n, 4)) for n in lengths]
    states = np.full((len(lengths), 4, 4), 1e3)
    mask = np.zeros((len(lengths), 4), dtype=bool)
    for i, (n, x) in enumerate(zip(lengths, sents)):
        states[i, :n] = x
        mask[i, :n] = True
    batched = D.greedy_decode_batch(_enc(states, mask), params, max_len=6)
    singles = [D.greedy_decode(_enc(x), params, max_len=6) for x in sents]
    assert batched == singles
    assert len({len(ids) for ids in singles}) > 1


def test_beam1_identical_to_greedy():
    rng = np.random.default_rng(8)
    for seed in range(5):
        params = _decoder(vocab=6, seed=seed, scale=2.0)
        enc = _enc(rng.uniform(-1, 1, (4, 4)))
        greedy = D.greedy_decode(enc, params, max_len=6)
        hyp = D.beam_decode(enc, params, beam=1, max_len=6)
        assert hyp.translation() == greedy


def test_beam_score_agrees_with_rescoring():
    rng = np.random.default_rng(9)
    for seed in range(5):
        params = _decoder(vocab=6, seed=10 + seed, scale=2.0)
        enc = _enc(rng.uniform(-1, 1, (4, 4)))
        hyp = D.beam_decode(enc, params, beam=3, max_len=6)
        if hyp.finished:
            rescored = D.score_sequence(enc, params, hyp.translation())
            npt.assert_allclose(hyp.score, rescored, rtol=1e-10)


def enumerate_best(enc, params, max_len, vocab):
    """Brute force over every sequence of non-EOS tokens up to max_len."""
    best_score, best_tokens = -np.inf, None
    content = [t for t in range(vocab) if t != EOS]
    # completed sequences: any prefix of content tokens followed by EOS,
    # with total length (incl. EOS) <= max_len
    for n in range(0, max_len):
        for seq in itertools.product(content, repeat=n):
            score = D.score_sequence(enc, params, list(seq))
            if score > best_score:
                best_score, best_tokens = score, list(seq) + [EOS]
    return best_tokens, best_score


def test_beam_matches_exhaustive_enumeration_on_toy_model():
    # vocab 4 and max_len 3 give at most 9 live prefixes per step, so a
    # beam of 36 never prunes anything and must equal brute-force search
    rng = np.random.default_rng(11)
    params = _decoder(vocab=4, seed=12, scale=2.5)
    enc = _enc(rng.uniform(-1, 1, (3, 4)))
    best_tokens, best_score = enumerate_best(enc, params, max_len=3, vocab=4)
    hyp = D.beam_decode(enc, params, beam=36, max_len=3)
    assert hyp.tokens == best_tokens
    npt.assert_allclose(hyp.score, best_score, rtol=1e-12)


def test_hypothesis_finished_and_translation():
    h = D.Hypothesis(tokens=[5, 6, EOS], score=-1.0)
    assert h.finished and h.translation() == [5, 6]
    assert not D.Hypothesis(tokens=[5], score=-0.5).finished


def test_beam_rejects_bad_arguments():
    enc = _enc(np.zeros((2, 4)))
    params = _decoder()
    with pytest.raises(ValueError):
        D.beam_decode(enc, params, beam=0, max_len=3)
    with pytest.raises(ValueError):
        D.greedy_decode(enc, params, max_len=0)


def _assert_matches_oracle(enc, params, beam, max_len):
    want = reference_beam_decode(enc, params, beam, max_len)
    got = D.beam_decode(enc, params, beam, max_len)
    assert got.tokens == want.tokens
    npt.assert_allclose(got.score, want.score, rtol=0, atol=1e-9)
    assert got.state.shape == want.state.shape
    npt.assert_allclose(got.state.data, want.state.data, rtol=0, atol=1e-9)
    return got


@pytest.mark.parametrize("beam", [1, 2, 3, 12])
@pytest.mark.parametrize("max_len", [1, 6])
def test_batched_beam_matches_reference_oracle(beam, max_len):
    rng = np.random.default_rng(20 + 7 * beam + max_len)
    for seed in range(4):
        # scale 3 spreads the scores, so pruning decides the outcome
        params = _decoder(vocab=9, emb=4, hid=6, width=4, attn=5, seed=seed,
                          scale=3.0)
        enc = _enc(rng.uniform(-1, 1, (int(rng.integers(1, 5)), 4)))
        _assert_matches_oracle(enc, params, beam, max_len)


@pytest.mark.parametrize("max_len", [1, 6])
def test_batched_beam_wider_than_all_candidates_matches_oracle(max_len):
    # vocab 4: a beam of 108 keeps every one of the k * V candidates
    rng = np.random.default_rng(30 + max_len)
    for seed in range(3):
        params = _decoder(vocab=4, seed=40 + seed, scale=3.0)
        _assert_matches_oracle(_enc(rng.uniform(-1, 1, (3, 4))), params,
                               beam=108, max_len=max_len)


@pytest.mark.parametrize("beam", [1, 2, 3, 12])
@pytest.mark.parametrize("max_len", [1, 6])
def test_batched_beam_eos_favoured_matches_oracle(beam, max_len):
    enc = _enc(np.random.default_rng(50).uniform(-1, 1, (3, 4)))
    got = _assert_matches_oracle(enc, _eos_lover(vocab=6), beam, max_len)
    assert got.tokens == [EOS]


def test_batched_beam_keeps_the_state_of_the_finishing_hypothesis():
    # step 1 ranks [4] above [5]; EOS is then likely only after token 5, so
    # the winner [5, EOS] comes from live hypothesis 1, not 0
    params = _decoder(vocab=6, seed=3)
    params.b_out.data[[4, 5]] = [3.0, 2.5]
    params.embedding.data[4] = [0.0, 3.0, 0.0]
    params.embedding.data[5] = [3.0, 0.0, 0.0]
    emb_rows = params.w_out.shape[0] - params.embedding.shape[1]
    params.w_out.data[emb_rows, EOS] = 5.0
    enc = _enc(np.random.default_rng(60).uniform(-1, 1, (3, 4)))
    got = _assert_matches_oracle(enc, params, beam=2, max_len=2)
    assert got.tokens == [5, EOS]


def test_batched_beam_exact_ties_follow_score_token_hypothesis_order():
    # zero weights keep the state and the context at 0, so the logits are
    # b_out + embedding(prev) @ (embedding rows of w_out), all exact
    params = _decoder(vocab=6, scale=0.0)
    enc = _enc(np.zeros((2, 4)))
    # uniform: step 1 keeps [0], [1], [2] (token asc); at step 2 all 18
    # candidates tie and token 0 of hypothesis 0 ranks first
    assert _assert_matches_oracle(enc, params, beam=3, max_len=2).tokens == [0, 0]
    # tokens 0-3 out of reach, 4 and 5 tie at step 1; after 4, token 5
    # gains 1 and after 5, token 4 does, so [4, 5] and [5, 4] tie exactly
    # and the smaller token outranks the smaller hypothesis index
    params.b_out.data[:4] = -1000.0
    params.embedding.data[4, 0] = params.embedding.data[5, 1] = 1.0
    emb_rows = params.w_out.shape[0] - params.embedding.shape[1]
    params.w_out.data[emb_rows, 5] = params.w_out.data[emb_rows + 1, 4] = 1.0
    assert _assert_matches_oracle(enc, params, beam=2, max_len=2).tokens == [5, 4]
    for beam in (1, 3, 12):
        for max_len in (1, 2, 3):
            _assert_matches_oracle(enc, params, beam, max_len)


@pytest.mark.parametrize("batched", [False, True])
def test_attention_with_precomputed_keys_equals_uncached(batched):
    params = _decoder(width=4, hid=4, attn=3, seed=6)
    rng = np.random.default_rng(7)
    if batched:
        enc = _enc(rng.uniform(-1, 1, (2, 5, 4)),
                   mask=[[True] * 5, [True, True, True, False, False]])
        s = T.Tensor(rng.uniform(-1, 1, (2, 4)))
    else:
        enc = _enc(rng.uniform(-1, 1, (5, 4)), mask=[True, False, True, True, True])
        s = T.Tensor(rng.uniform(-1, 1, 4))
    keys = D.attention_keys(enc, params.attn)
    s_a, logits_a = D.decoder_step(np.array([4, 2]) if batched else 4, s, enc, params, keys)
    s_b, logits_b = D.decoder_step(np.array([4, 2]) if batched else 4, s, enc, params)
    npt.assert_array_equal(s_a.data, s_b.data)
    npt.assert_array_equal(logits_a.data, logits_b.data)


@pytest.mark.parametrize("s_shape, states_shape, mask", [
    ((4,), (5, 4), [True, False, True, True, True]),
    ((3, 4), (3, 5, 4), [[True] * 5, [True, True, True, False, False],
                         [False, True, True, True, True]]),
    ((6, 4), (5, 4), [True, True, False, True, True]),   # beam: k over shared states
], ids=["sentence", "batched", "beam-broadcast"])
def test_attention_matches_composed_oracle(s_shape, states_shape, mask):
    params = _decoder(width=4, hid=4, attn=3, seed=8).attn
    rng = np.random.default_rng(9)
    s = T.Tensor(rng.uniform(-1, 1, s_shape))
    enc = _enc(rng.uniform(-1, 1, states_shape), mask)
    got = D.attention(s, enc, params, D.attention_keys(enc, params))
    want = reference_attention(s, enc, params)
    for g, w in zip(got, want, strict=True):
        npt.assert_allclose(g.data, w.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("y, s_shape, states_shape, mask", [
    (4, (4,), (5, 4), [True, False, True, True, True]),
    ([4, 2, 0], (3, 4), (3, 5, 4), [[True] * 5, [True, True, True, False, False],
                                    [False, True, True, True, True]]),
    ([4, 2, 2, 0, 1, 3], (6, 4), (5, 4), [True, True, False, True, True]),
], ids=["sentence", "batched", "beam-broadcast"])
def test_decoder_step_matches_composed_per_step_oracle(y, s_shape, states_shape, mask):
    params = _decoder(vocab=7, emb=3, hid=4, width=4, attn=3, seed=16, scale=3.0)
    rng = np.random.default_rng(17)
    s = T.Tensor(rng.uniform(-1, 1, s_shape))
    enc = _enc(rng.uniform(-1, 1, states_shape), mask)
    keys = D.attention_keys(enc, params.attn)
    s_t, logits = D.decoder_step(np.asarray(y), s, enc, params, keys)
    want_s, features = reference_recurrence_step(y, s, enc, params, keys)
    want_logits = T.matmul(features, params.w_out) + params.b_out
    npt.assert_allclose(s_t.data, want_s.data, rtol=0, atol=1e-12)
    npt.assert_allclose(logits.data, want_logits.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [None, 1, 12], ids=["vector", "k1", "k12"])
def test_shared_states_step_equals_per_row_step(k):
    # vocab 11 > width 4: the table's logit columns outnumber the context's
    params = _decoder(vocab=11, emb=3, hid=5, width=4, attn=3, seed=21, scale=3.0)
    rng = np.random.default_rng(22)
    states = rng.uniform(-1, 1, (6, 4))
    mask = np.array([True, True, False, True, True, True])
    s = T.Tensor(rng.uniform(-1, 1, (5,) if k is None else (k, 5)))
    y = 4 if k is None else rng.integers(0, 11, k)
    shared, per_row = _enc(states, mask), _enc(states[None], mask[None])
    table = D.context_table(shared, params)
    assert table.shape == (6, 3 * 5 + 11)
    s_a, logits_a = D.decoder_step(y, s, shared, params, table=table)
    # per row, a lone vector is a batch of one
    s_b, logits_b = D.decoder_step(np.atleast_1d(y), T.Tensor(np.atleast_2d(s.data)),
                                   per_row, params)
    assert s_a.shape == s.shape and logits_a.shape == s.shape[:-1] + (11,)
    npt.assert_allclose(s_a.data, s_b.data.reshape(s.shape), rtol=0, atol=1e-12)
    npt.assert_allclose(logits_a.data, logits_b.data.reshape(logits_a.shape),
                        rtol=0, atol=1e-12)
    # the table is built on demand, and with gradients enabled nothing records
    s_c, logits_c = D.decoder_step(y, s, shared, params)
    npt.assert_array_equal(logits_c.data, logits_a.data)
    assert s_c._parents == () and logits_c._parents == ()


def test_batched_step_keeps_the_direct_product():
    # greedy's (B, len, d) rows project [s_t; context; emb] as one product
    params = _decoder(vocab=9, emb=3, hid=4, width=4, attn=3, seed=23, scale=3.0)
    rng = np.random.default_rng(24)
    enc = _enc(rng.uniform(-1, 1, (3, 5, 4)),
               [[True] * 5, [True, True, True, False, False], [True] * 5])
    s = T.Tensor(rng.uniform(-1, 1, (3, 4)))
    y = np.array([4, 2, 7])
    keys = D.attention_keys(enc, params.attn)
    s_t, logits = D.decoder_step(y, s, enc, params, keys)
    emb = params.embedding.data[y]
    context = D.attention(s, enc, params.attn, keys)[1].data
    want_s = D.gru_cell(np.concatenate([emb, context], axis=-1), s, params.gru).data
    features = np.concatenate([want_s, context, emb], axis=-1)
    npt.assert_array_equal(s_t.data, want_s)
    npt.assert_array_equal(logits.data, features @ params.w_out.data + params.b_out.data)


def test_decoding_records_nothing_with_gradients_enabled():
    # no no_grad here: the parameters and the encoder states require grad
    params = _decoder(vocab=6, seed=18, scale=3.0)
    rng = np.random.default_rng(19)
    states = T.Tensor(rng.uniform(-1, 1, (2, 4, 4)), requires_grad=True)
    enc = EncoderOutput(states=states, mask=np.array([[True] * 4,
                                                      [True, True, False, False]]))
    s = T.Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
    keys = D.attention_keys(enc, params.attn)
    assert keys.requires_grad  # training's ops record on these inputs
    x = T.Tensor(rng.uniform(-1, 1, (2, 3 + 4)), requires_grad=True)
    outs = [*D.attention(s, enc, params.attn, keys), D.gru_cell(x, s, params.gru),
            *D.decoder_step(np.array([BOS, 3]), s, enc, params, keys)]
    for out in outs:
        assert out._parents == () and not out.requires_grad
    T.backward(sum((TO.tsum(TO.mul(o, o)) for o in outs), T.Tensor(0.0)))
    D.greedy_decode_batch(enc, params, max_len=4)
    for name, p in params.named().items():
        assert p.requires_grad and p.grad is None, name
    assert states.grad is None and s.grad is None and x.grad is None


_INIT_MASKS = {
    "sentence": [True] * 5,
    "padded-batch": [[True] * 5, [True, True, True, False, False],
                     [True, False, False, False, False]],
}


@pytest.mark.parametrize("case", ["sentence", "padded-batch", "beam-broadcast"])
def test_init_state_matches_composed_oracle(case):
    params = _decoder(width=4, hid=4, seed=12)
    rng = np.random.default_rng(13)
    if case == "beam-broadcast":  # as beam search sees one sentence: k read-only copies
        states = T.Tensor(np.broadcast_to(rng.uniform(-1, 1, (5, 4)), (6, 5, 4)),
                          requires_grad=True)
        mask = np.broadcast_to(np.array([True, True, True, False, True]), (6, 5))
    else:
        mask = np.asarray(_INIT_MASKS[case])
        states = T.Tensor(rng.uniform(-1, 1, mask.shape + (4,)), requires_grad=True)
    enc = EncoderOutput(states=states, mask=mask)
    leaves = {"states": states, "w_init": params.w_init, "b_init": params.b_init}
    assert_matches_reference(lambda: D.init_state(enc, params),
                             lambda: reference_init_state(enc, params), leaves)


def test_init_state_gradients_on_a_padded_batch():
    params = _decoder(width=4, hid=4, seed=14)
    states = T.Tensor(np.random.default_rng(15).uniform(-1, 1, (3, 5, 4)),
                      requires_grad=True)
    mask = np.asarray(_INIT_MASKS["padded-batch"])
    named = {"states": states, "w_init": params.w_init, "b_init": params.b_init}

    def f(_):
        s = D.init_state(EncoderOutput(states=states, mask=mask), params)
        return TO.tsum(TO.mul(s, T.Tensor(np.arange(12.0).reshape(3, 4) - 5.0)))

    report = TO.grad_check(f, named, epsilon=1e-4, tolerance=1e-4)
    assert all(e.ok for e in report.values())


def _recurrence_case(steps, seed):
    """Decoder parameters, ids, ``s0``, a two-sentence encoding whose first
    row is padded, keys, and the leaves the recurrence node reads."""
    params = _decoder(vocab=7, emb=3, hid=4, width=5, attn=3, seed=seed, scale=10.0)
    rng = np.random.default_rng(seed + 1)
    states = T.Tensor(rng.uniform(-1, 1, (2, 4, 5)), requires_grad=True)
    enc = EncoderOutput(states=states, mask=np.array([[True, True, True, False],
                                                      [True, True, True, True]]))
    keys = T.Tensor(rng.uniform(-1, 1, (2, 4, 3)), requires_grad=True)
    s0 = T.Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
    ids = rng.integers(0, 7, (2, steps))
    leaves = {"s0": s0, "states": states, "keys": keys,
              "embedding": params.embedding, "u_dec": params.attn.u_dec,
              "score_v": params.attn.score_v, **params.gru.named("gru")}
    return params, ids, s0, enc, keys, leaves


@pytest.mark.parametrize("steps", [1, 3])
def test_teacher_forcing_recurrence_matches_per_step_oracle(steps):
    params, ids, s0, enc, keys, leaves = _recurrence_case(steps, seed=20)
    out = D.teacher_forcing_recurrence(ids, s0, enc, params, keys)
    assert out.shape == (steps * 2, 4 + 5 + 3)
    assert_matches_reference(
        lambda: D.teacher_forcing_recurrence(ids, s0, enc, params, keys),
        lambda: reference_teacher_forcing_recurrence(ids, s0, enc, params, keys),
        leaves)


@pytest.mark.parametrize("steps", [1, 3])
def test_teacher_forcing_recurrence_gradients_vs_finite_differences(steps):
    params, ids, s0, enc, keys, leaves = _recurrence_case(steps, seed=22)
    weights = T.Tensor(np.random.default_rng(24).uniform(-1, 1, (steps * 2, 12)))

    def f(_):
        out = D.teacher_forcing_recurrence(ids, s0, enc, params, keys)
        return TO.tsum(TO.mul(out, weights))

    report = TO.grad_check(f, leaves)
    assert all(e.ok for e in report.values()), report
    # the padded source position gets no gradient, and the rest do
    assert not enc.states.grad[0, 3].any() and enc.states.grad[0, :3].all()


def test_teacher_forcing_recurrence_rejects_a_fully_masked_row_as_attention_does():
    params, ids, s0, enc, keys, _ = _recurrence_case(2, seed=26)
    enc = EncoderOutput(states=enc.states, mask=np.array([[False] * 4, [True] * 4]))
    with pytest.raises(ValueError) as attention_error:
        D.attention(s0, enc, params.attn, keys)
    with pytest.raises(ValueError) as recurrence_error:
        D.teacher_forcing_recurrence(ids, s0, enc, params, keys)
    assert str(recurrence_error.value) == str(attention_error.value)
