import collections
import dataclasses
import inspect
import io
import math
import tracemalloc
import weakref
import zipfile

import numpy as np
import numpy.testing as npt
import pytest

from gcnmt import decoder as D
from gcnmt import encoders as E
from gcnmt import tensor as T
from gcnmt import training as TR
from gcnmt.config import ExperimentConfig, TrainConfig
from gcnmt.corpus import BOS, EOS, PAD, UNK, AnnotatedSentence, Vocabulary
from gcnmt.evaluation import bleu, preprocess, translate_corpus
from gcnmt.model import build_model, load_model_params, save_model
from adam_oracle import reference_adam_step
from batch_oracle import exact_length_indices
from layer_oracle import (
    assert_matches_reference,
    reference_nll_loss,
    reference_teacher_forcing_recurrence,
)
import tape_ops as TO
from test_acceptance import _reorder_corpus
from tf_oracle import (
    composed_teacher_forcing_loss,
    logits_nll_loss,
    reference_teacher_forcing_loss,
)


def _identity_projection(vocab):
    """``w_out`` and ``b_out`` that leave the logits as they are: for finite
    ``x``, ``x @ I + 0 == x`` exactly."""
    return (T.Tensor(np.eye(vocab), requires_grad=True),
            T.Tensor(np.zeros(vocab), requires_grad=True))


def _nll(logits, targets):
    logits = np.asarray(logits)
    return TR.nll_loss(logits, targets, *_identity_projection(logits.shape[-1]))


def test_nll_certain_correct_prediction_is_zero():
    logits = np.array([[100.0, 0.0, 0.0]])
    loss = _nll(logits, [0])
    assert loss.item() < 1e-12


def test_nll_uniform_logits_is_log_vocab():
    for vocab in (2, 5, 17):
        logits = np.zeros((3, vocab))
        loss = _nll(logits, [0] * 3)
        npt.assert_allclose(loss.item(), math.log(vocab), rtol=1e-12)


def test_nll_two_step_hand_case():
    # step 1 logits [1, 0, 0] target 0; step 2 logits [0, 2, 0] target 2
    logits = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    p1 = math.exp(1) / (math.exp(1) + 2)
    p2 = 1 / (1 + math.exp(2) + 1)
    expected = -(math.log(p1) + math.log(p2)) / 2
    loss = _nll(logits, [0, 2])
    npt.assert_allclose(loss.item(), expected, rtol=1e-12)


def test_nll_mask_excludes_padding_steps():
    # nll_loss reads real steps only: on the rows a mask selects it is the
    # masked loss over the full grid, and the padded row adds nothing
    logits = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    targets, mask = np.array([0, 2]), np.array([1.0, 0.0])
    real = _nll(logits[mask > 0], targets[mask > 0])
    alone = _nll(logits[:1], [0])
    npt.assert_allclose(real.item(), alone.item(), rtol=1e-12)
    npt.assert_allclose(real.item(), logits_nll_loss(logits, targets, mask).item(),
                        rtol=1e-12)
    with pytest.raises(ValueError, match="no target steps"):
        _nll(logits[:0], targets[:0])


def test_nll_gradients():
    w, b = _identity_projection(4)
    params = {"x": T.Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 4)),
                            requires_grad=True), "w": w, "b": b}

    def f(p):
        return TR.nll_loss(p["x"], [1, 3, 0], p["w"], p["b"])

    report = TO.grad_check(f, params)
    for name in params:
        assert report[name].ok, name


@pytest.mark.parametrize("lead", [(5,), (3, 2)])
def test_nll_matches_composed_oracle_and_is_one_node(lead):
    rng = np.random.default_rng(12)
    x = T.Tensor(rng.uniform(-2, 2, lead + (4,)), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (4, 7)), requires_grad=True)
    b = T.Tensor(rng.uniform(-1, 1, 7), requires_grad=True)
    targets = rng.integers(0, 7, lead)
    mask = (rng.random(lead) < 0.7).astype(float)
    mask.flat[0] = 1.0
    real = np.flatnonzero(mask)
    # the real rows alone against the oracle's masked loss over the full grid
    assert_matches_reference(
        lambda: TR.nll_loss(T.gather_rows(T.reshape(x, (-1, 4)), real),
                            targets.ravel()[real], w, b),
        lambda: reference_nll_loss(TO.add(TO.matmul(x, w), b), targets, mask),
        {"x": x, "w": w, "b": b})
    assert_matches_reference(
        lambda: TR.nll_loss(x, targets, w, b),
        lambda: reference_nll_loss(TO.add(TO.matmul(x, w), b), targets, np.ones(lead)),
        {"x": x, "w": w, "b": b})
    assert TR.nll_loss(x, targets, w, b)._parents == (x, w, b)


def test_nll_forward_takes_exp_in_blocks_with_the_same_bits():
    rng = np.random.default_rng(14)
    rows, vocab = 400, 1952  # train-gcn's vocabulary; 6 full blocks and a part
    x = T.Tensor(rng.uniform(-1, 1, (rows, 8)), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (8, vocab)), requires_grad=True)
    b = T.Tensor(rng.uniform(-1, 1, vocab), requires_grad=True)
    targets = rng.integers(0, vocab, rows)
    tracemalloc.start()
    try:
        loss = TR.nll_loss(x, targets, w, b)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # exp over the whole logits was one more (rows, vocab) array at the peak
    assert peak - kept < rows * vocab * 8 // 2
    T.backward(loss)
    got = [loss.item()] + [t.grad for t in (x, w, b)]
    T.zero_grads({"x": x, "w": w, "b": b})
    want_loss = logits_nll_loss(TO.add(TO.matmul(x, w), b), targets, np.ones(rows))
    T.backward(want_loss)
    assert got[0] == want_loss.item()
    for g, t in zip(got[1:], (x, w, b)):
        npt.assert_array_equal(g, t.grad)


def test_word_dropout_identity_outside_training():
    ids = np.array([0, 1, 2, 3, 4, 5, 6])
    rng = np.random.default_rng(0)
    npt.assert_array_equal(TR.word_dropout(ids, 1.0, rng), ids)


def test_word_dropout_statistical_rate():
    rng = np.random.default_rng(1)
    ids = np.full(100_000, 7)
    out = TR.word_dropout(ids, 0.8, rng)
    rate = (out == UNK).mean()
    assert abs(rate - 0.2) < 0.01


def test_word_dropout_specials_exempt():
    rng = np.random.default_rng(2)
    ids = np.array([PAD, UNK, BOS, EOS] * 1000)
    out = TR.word_dropout(ids, 0.01, rng)
    npt.assert_array_equal(out, ids)
    first_word = np.array([4] * 1000)  # the first id after the specials
    assert (TR.word_dropout(first_word, 0.01, rng) == UNK).sum() > 900


def test_word_dropout_rejects_bad_retain():
    with pytest.raises(ValueError):
        TR.word_dropout(np.array([5]), 0.0, np.random.default_rng(0))


def test_adam_zero_gradient_no_moments_means_no_motion():
    p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    state = TR.AdamState()
    TR.adam_step({"p": p}, state, lr=0.1)
    npt.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_approximates_signed_lr():
    p = T.Tensor(np.array([0.0, 0.0]), requires_grad=True)
    p.grad = np.array([3.0, -0.2])
    TR.adam_step({"p": p}, TR.AdamState(), lr=0.01)
    # bias correction makes the first update lr * g / (|g| + eps)
    npt.assert_allclose(p.data, [-0.01, 0.01], atol=1e-6)


def test_adam_three_step_hand_trace():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    grads = [2.0, -1.0, 0.5]
    x = 1.0
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

    p = T.Tensor(np.array([1.0]), requires_grad=True)
    state = TR.AdamState()
    for g in grads:
        p.grad = np.array([g])
        TR.adam_step({"p": p}, state, lr=lr)
    npt.assert_allclose(p.data[0], x, rtol=1e-12)


def test_adam_l2_is_coupled_into_gradient():
    p = T.Tensor(np.array([4.0]), requires_grad=True)
    p.grad = np.array([0.0])
    TR.adam_step({"p": p}, TR.AdamState(), lr=0.01, l2=0.5)
    # effective gradient is l2 * value = 2.0, so the step is about -lr
    npt.assert_allclose(p.data[0], 4.0 - 0.01, atol=1e-6)


def test_adam_rejects_non_finite_gradient():
    p = T.Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(FloatingPointError, match="oops"):
        TR.adam_step({"oops": p}, TR.AdamState(), lr=0.01)


def test_adam_minimizes_quadratic():
    p = T.Tensor(np.array([5.0, -3.0]), requires_grad=True)
    state = TR.AdamState()
    for _ in range(2000):
        p.grad = 2.0 * p.data
        TR.adam_step({"p": p}, state, lr=1e-2)
    assert np.abs(p.data).max() < 1e-3


def _out_of_place_adam(data, grads, moments, t, lr, l2, b1=0.9, b2=0.999, eps=1e-8):
    """The original out-of-place update, one step over dicts of arrays."""
    out = {}
    for name, x in data.items():
        grad = grads[name] if grads[name] is not None else np.zeros_like(x)
        g = grad + l2 * x
        m, v = moments.get(name, (np.zeros_like(x), np.zeros_like(x)))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        moments[name] = (m, v)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        out[name] = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


@pytest.mark.parametrize("l2", [0.0, 0.5])
def test_adam_in_place_matches_out_of_place_formula(l2):
    rng = np.random.default_rng(21)
    shapes = {"w": (3, 4), "b": (4,), "unused": (2,)}
    params = {k: T.Tensor(rng.normal(size=s), requires_grad=True)
              for k, s in shapes.items()}
    ref = {k: p.data.copy() for k, p in params.items()}
    ref_moments = {}
    state = TR.AdamState()
    for t in range(1, 6):
        grads = {k: (None if k == "unused" else rng.normal(size=shapes[k]))
                 for k in shapes}
        for k, p in params.items():
            p.grad = grads[k]
        TR.adam_step(params, state, lr=0.01, l2=l2)
        ref = _out_of_place_adam(ref, grads, ref_moments, t, lr=0.01, l2=l2)
        for k, p in params.items():
            npt.assert_allclose(p.data, ref[k], rtol=1e-15, atol=0)
            for got, want in zip(state.moments[k], ref_moments[k]):
                npt.assert_allclose(got, want, rtol=1e-15, atol=0)
    assert state.step == 5


def test_adam_moments_never_alias_parameters():
    rng = np.random.default_rng(22)
    params = {k: T.Tensor(rng.normal(size=(3, 2)), requires_grad=True) for k in "ab"}
    state = TR.AdamState()
    for _ in range(3):
        for p in params.values():
            p.grad = rng.normal(size=(3, 2))
        TR.adam_step(params, state, lr=0.1, l2=0.5)
        for k, p in params.items():
            m, v = state.moments[k]
            assert not np.shares_memory(m, p.data)
            assert not np.shares_memory(v, p.data)
            assert not np.shares_memory(m, v)
            assert not np.shares_memory(m, p.grad) and not np.shares_memory(v, p.grad)


def _archive(path):
    """The arrays of a checkpoint archive by parameter path."""
    with np.load(path) as npz:
        return dict(npz)


def test_adam_updates_parameters_rebound_by_load_model_params(tmp_path):
    _, exp, _, prep = _toy_setup()
    rng = np.random.default_rng(23)
    model = build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                        prep.label_vocabs, rng)
    params = model.parameters()
    state = TR.AdamState()
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    TR.adam_step(params, state, lr=0.01)
    path = tmp_path / "model.npz"
    save_model(path, model)
    load_model_params(path, model)  # reads every stored array into .data in place
    loaded = {k: p.data for k, p in params.items()}
    ref_moments = {k: (m.copy(), v.copy()) for k, (m, v) in state.moments.items()}
    grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
    for k, p in params.items():
        p.grad = grads[k]
    ref = _out_of_place_adam({k: x.copy() for k, x in loaded.items()}, grads,
                             ref_moments, 2, lr=0.01, l2=0.0)
    TR.adam_step(params, state, lr=0.01)
    stored = _archive(path)
    for k, p in model.parameters().items():
        assert p.data is loaded[k]
        npt.assert_allclose(p.data, ref[k], rtol=1e-15, atol=0)
        assert not np.array_equal(p.data, stored[k])


def test_save_model_writes_exactly_the_path_it_is_given(tmp_path):
    # np.savez given a path appends ".npz" to one without that suffix
    _, exp, _, prep = _toy_setup()
    saved, loaded = (build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                                 prep.label_vocabs, np.random.default_rng(n))
                     for n in (1, 2))
    path = tmp_path / "model.ckpt"
    save_model(path, saved)
    assert sorted(tmp_path.iterdir()) == [path]
    load_model_params(path, loaded)
    for k, p in saved.parameters().items():
        npt.assert_array_equal(loaded.parameters()[k].data, p.data, err_msg=k)


def test_a_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    # the write raises after some bytes: the earlier file still loads to its
    # old values, and no partial file is left beside it
    _, exp, _, prep = _toy_setup()
    old, new, loaded = (build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                                    prep.label_vocabs, np.random.default_rng(n))
                        for n in (1, 2, 3))
    path = tmp_path / "best.npz"
    save_model(path, old)

    def failing_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        save_model(path, new)
    monkeypatch.undo()
    assert sorted(tmp_path.iterdir()) == [path]
    load_model_params(path, loaded)
    for k, p in old.parameters().items():
        npt.assert_array_equal(loaded.parameters()[k].data, p.data, err_msg=k)


def _model_and_checkpoint(tmp_path, widths=8):
    """A builder of seed-``n`` models of one shape, and the path of a saved
    seed-1 model of that shape."""
    _, exp, _, prep = _toy_setup()
    exp = dataclasses.replace(exp, emb_size=widths, hidden_size=widths, attn_size=widths)

    def build(n):
        return build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                           prep.label_vocabs, np.random.default_rng(n))

    path = tmp_path / "model.npz"
    save_model(path, build(1))
    return build, path


def test_load_model_params_holds_one_array_at_a_time(tmp_path):
    build, path = _model_and_checkpoint(tmp_path, widths=64)
    tracemalloc.start()
    try:
        model = build(2)  # traced, so the arrays that loading replaces count as freed
        total = sum(p.data.nbytes for p in model.parameters().values())
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        load_model_params(path, model)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert 0 < peak < total


def test_load_model_params_reads_into_each_parameter_in_place(tmp_path):
    build, path = _model_and_checkpoint(tmp_path, widths=256)
    model = build(2)
    params = model.parameters()
    before = {k: p.data for k, p in params.items()}
    largest = max(p.data.nbytes for p in params.values())
    tracemalloc.start()
    try:
        load_model_params(path, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak < largest
    for k, p in build(1).parameters().items():
        assert params[k].data is before[k], k
        npt.assert_array_equal(params[k].data, p.data, err_msg=k)


def test_load_model_params_checks_the_shape_before_reading_the_data(tmp_path):
    build, path = _model_and_checkpoint(tmp_path)
    stored = _archive(path)
    w_out = stored.pop("decoder.w_out")
    np.savez(path, **stored)
    # a header of the wrong shape followed by no data at all
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False,
                 "shape": (w_out.shape[0], w_out.shape[1] + 1)})
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("decoder.w_out.npy", header.getvalue())
    model = build(2)
    kept = model.parameters()["decoder.w_out"].data.copy()
    with pytest.raises(ValueError, match=r"decoder\.w_out\.npy: shape \(\d+, \d+\) "
                                         r"!= model"):
        load_model_params(path, model)
    npt.assert_array_equal(model.parameters()["decoder.w_out"].data, kept)


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_load_model_params_name_mismatch_rebinds_nothing(tmp_path, change):
    build, path = _model_and_checkpoint(tmp_path)
    stored = _archive(path)
    if change == "missing":
        del stored["decoder.b_out"]
    else:
        stored["decoder.unknown"] = np.zeros(3)
    np.savez(path, **stored)
    model = build(2)
    before = {k: p.data for k, p in model.parameters().items()}
    with pytest.raises(ValueError, match=f"checkpoint mismatch: .*{change}="):
        load_model_params(path, model)
    assert all(p.data is before[k] for k, p in model.parameters().items())


def test_loaded_parameters_are_owned_c_contiguous_float64(tmp_path):
    build, path = _model_and_checkpoint(tmp_path)
    saved = build(3)
    emb = saved.parameters()["encoder.embedding"]
    emb.data = np.asfortranarray(emb.data)  # written to the archive in Fortran order
    save_model(path, saved)
    model = build(2)
    load_model_params(path, model)
    for k, p in model.parameters().items():
        assert p.data.dtype == np.float64, k
        assert p.data.flags.c_contiguous and p.data.flags.writeable, k
        assert p.data.flags.owndata, k
        npt.assert_array_equal(p.data, saved.parameters()[k].data, err_msg=k)


def test_train_frees_each_step_tape_before_the_next_forward(monkeypatch):
    pairs, exp, _, prep = _toy_setup(recipe="sem:1")
    tc = TrainConfig(learning_rate=5e-3, epochs=2, batch_size=1, rng_seed=3, min_count=1)
    logits_refs, alive_at_forward = [], []
    teacher_forcing_loss = TR.teacher_forcing_loss

    def checking_teacher_forcing_loss(*args):
        alive_at_forward.append(sum(ref() is not None for ref in logits_refs))
        loss = teacher_forcing_loss(*args)
        # the loss node's logits-sized buffer, held by the tape only
        buf = inspect.getclosurevars(loss._backward).nonlocals["buf"]
        assert buf.shape == (3, len(prep.tgt_vocab))  # 2 tokens and EOS
        logits_refs.append(weakref.ref(buf))
        return loss

    monkeypatch.setattr(TR, "teacher_forcing_loss", checking_teacher_forcing_loss)
    TR.train(tc, exp, pairs, [], prep.src_vocab, prep.tgt_vocab, None, prep.label_vocabs)
    assert len(logits_refs) == 4
    assert alive_at_forward == [0, 0, 0, 0]


def test_train_frees_each_step_gradients_before_the_next_forward(monkeypatch):
    pairs, exp, _, prep = _toy_setup(recipe="sem:1")
    tc = TrainConfig(learning_rate=5e-3, epochs=2, batch_size=1, rng_seed=3, min_count=1)
    grad_refs, alive_at_forward = [], []
    teacher_forcing_loss, adam_step = TR.teacher_forcing_loss, TR.adam_step

    def checking_teacher_forcing_loss(*args):
        alive_at_forward.append(sum(ref() is not None for ref in grad_refs))
        return teacher_forcing_loss(*args)

    def recording_adam_step(params, *args):
        adam_step(params, *args)
        grad_refs.extend(weakref.ref(p.grad) for p in params.values()
                         if p.grad is not None)

    monkeypatch.setattr(TR, "teacher_forcing_loss", checking_teacher_forcing_loss)
    monkeypatch.setattr(TR, "adam_step", recording_adam_step)
    TR.train(tc, exp, pairs, [], prep.src_vocab, prep.tgt_vocab, None, prep.label_vocabs)
    assert len(alive_at_forward) == 4 and len(grad_refs) > 3 * 20
    assert alive_at_forward == [0, 0, 0, 0]


def test_adam_non_finite_gradient_changes_nothing():
    a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = T.Tensor(np.array([3.0]), requires_grad=True)
    params = {"a": a, "b": b}
    state = TR.AdamState()
    a.grad, b.grad = np.array([0.5, -0.5]), np.array([1.0])
    TR.adam_step(params, state, lr=0.1)
    before = {k: (p.data.copy(), [x.copy() for x in state.moments[k]])
              for k, p in params.items()}
    a.grad, b.grad = np.array([0.25, 0.25]), np.array([np.nan])
    with pytest.raises(FloatingPointError, match="for b"):
        TR.adam_step(params, state, lr=0.1)
    assert state.step == 1
    for k, p in params.items():
        npt.assert_array_equal(p.data, before[k][0])
        for got, want in zip(state.moments[k], before[k][1]):
            npt.assert_array_equal(got, want)
    fresh = TR.AdamState()
    with pytest.raises(FloatingPointError):
        TR.adam_step(params, fresh, lr=0.1)
    assert fresh.step == 0 and fresh.moments == {}
    for k, p in params.items():
        npt.assert_array_equal(p.data, before[k][0])


_BLOCK = TR._ADAM_BLOCK
_BLOCK_SHAPES = {"one": (1,), "below": (_BLOCK - 1,), "block": (_BLOCK,),
                 "above": (_BLOCK + 1,), "three": (3 * _BLOCK + 5,),
                 "w_out": (896, 1952)}


def _twin_params(rng, shapes, fortran=()):
    """Two equal dicts of parameters, one for adam_step and one for the oracle."""
    params = {}
    for k, s in shapes.items():
        x = rng.normal(size=s)
        params[k] = np.asfortranarray(x) if k in fortran else x
    return ({k: T.Tensor(x.copy(order="K"), requires_grad=True) for k, x in params.items()},
            {k: T.Tensor(x.copy(order="K"), requires_grad=True) for k, x in params.items()})


@pytest.mark.parametrize("l2", [0.0, 0.5])
def test_adam_blocks_are_bit_identical_to_whole_array_update(l2):
    rng = np.random.default_rng(24)
    shapes = dict(_BLOCK_SHAPES, fortran=(3, 5))
    params, ref = _twin_params(rng, shapes, fortran=("fortran",))
    bound = {k: p.data for k, p in params.items()}
    state, ref_state = TR.AdamState(), TR.AdamState()
    for t in range(5):
        for i, (k, s) in enumerate(shapes.items()):
            # every tensor sees steps with and without a gradient, and half
            # of them start without one
            g = None if (t + i) % 2 else rng.normal(size=s)
            params[k].grad, ref[k].grad = g, g
        TR.adam_step(params, state, lr=0.01, l2=l2)
        reference_adam_step(ref, ref_state, lr=0.01, l2=l2)
        assert state.step == ref_state.step == t + 1
        for k, p in params.items():
            assert p.data is bound[k]
            npt.assert_array_equal(p.data, ref[k].data)
            for got, want in zip(state.moments[k], ref_state.moments[k]):
                npt.assert_array_equal(got, want)


def test_adam_nan_in_last_block_of_last_tensor_changes_nothing():
    rng = np.random.default_rng(25)
    shapes = {k: _BLOCK_SHAPES[k] for k in ("one", "block", "three")}
    params, _ = _twin_params(rng, shapes)
    state = TR.AdamState()
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    TR.adam_step(params, state, lr=0.1, l2=0.5)
    before = {k: (p.data.copy(), [x.copy() for x in state.moments[k]])
              for k, p in params.items()}
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    params["three"].grad[-1] = np.nan
    with pytest.raises(FloatingPointError, match="for three"):
        TR.adam_step(params, state, lr=0.1, l2=0.5)
    assert state.step == 1
    for k, p in params.items():
        npt.assert_array_equal(p.data, before[k][0])
        for got, want in zip(state.moments[k], before[k][1]):
            npt.assert_array_equal(got, want)


def test_adam_accepts_finite_gradient_whose_sum_overflows():
    p = T.Tensor(np.array([1.0, -1.0]), requires_grad=True)
    ref = T.Tensor(p.data.copy(), requires_grad=True)
    p.grad = ref.grad = np.array([1e308, 1e308])
    state, ref_state = TR.AdamState(), TR.AdamState()
    with np.errstate(over="ignore"):  # v = (1 - b2) * g * g overflows
        TR.adam_step({"p": p}, state, lr=0.01)
        reference_adam_step({"p": ref}, ref_state, lr=0.01)
    assert state.step == 1
    npt.assert_array_equal(p.data, ref.data)


def _toy_setup(recipe="none", seed=0):
    sents = [
        AnnotatedSentence(tokens=["a", "b", "c"],
                          sem_edges=[(1, 0, "A0")], syn_edges=[(1, 0, "sbj")]),
        AnnotatedSentence(tokens=["c", "a", "b"],
                          sem_edges=[(0, 2, "A1")], syn_edges=[(0, 2, "obj")]),
    ]
    pairs = [(sents[0], ["x", "y"]), (sents[1], ["y", "x"])]
    exp = ExperimentConfig(encoder="birnn", recipe=recipe, emb_size=8,
                           hidden_size=8, attn_size=8, decode="greedy",
                           max_decode_len=5, bpe_merges=0)
    tc = TrainConfig(learning_rate=5e-3, epochs=1, batch_size=2, rng_seed=seed,
                     min_count=1, word_retain=1.0, edge_retain=1.0)
    prep = preprocess(pairs, exp, tc)
    return pairs, exp, tc, prep


def _numbered_pairs(lengths):
    """One pair per entry of ``lengths``, with a source of that length and a
    one-token target naming the pair, and vocabularies covering both."""
    pairs = [(AnnotatedSentence(tokens=[f"w{i % 5}"] * n, sem_edges=[], syn_edges=[]),
              [f"t{i}"]) for i, n in enumerate(lengths)]
    src_vocab = Vocabulary([f"w{i}" for i in range(5)])
    tgt_vocab = Vocabulary([tgt[0] for _, tgt in pairs])
    return pairs, src_vocab, tgt_vocab


def _pair_indices(batch, tgt_vocab):
    """The pair index of each row of a batch of ``_numbered_pairs``."""
    return [int(tgt_vocab.token(t)[1:]) for t in batch.tgt[:, 1]]


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("batch_size", [1, 3, 4, 64])
def test_bucket_batches_are_ascending_chunks_holding_every_pair_once(seed, batch_size):
    lengths = np.random.default_rng(10).integers(1, 9, size=23).tolist()
    pairs, src_vocab, tgt_vocab = _numbered_pairs(lengths)
    tc = TrainConfig(batch_size=batch_size)
    rng = None if seed is None else np.random.default_rng(seed)
    batches = TR.bucket_batches(pairs, src_vocab, tgt_vocab, None, tc, rng)
    rows = [_pair_indices(b, tgt_vocab) for b in batches]
    order = [i for r in rows for i in r]
    assert sorted(order) == list(range(len(pairs)))
    assert all(len(r) == batch_size for r in rows[:-1]) and 1 <= len(rows[-1]) <= batch_size
    assert [lengths[i] for i in order] == sorted(lengths)
    for batch, r in zip(batches, rows):
        assert batch.src_mask.sum(axis=1).tolist() == [lengths[i] for i in r]
        assert batch.src.shape[1] == max(lengths[i] for i in r)
    if seed is None:  # no shuffle: equal lengths keep their input order
        assert order == sorted(range(len(pairs)), key=lengths.__getitem__)
    if batch_size > 1:
        assert not all(b.src_mask.all() for b in batches)  # some batch is padded


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_pairs,batch_size", [(1, 1), (7, 3), (10, 5), (33, 8), (20, 64)])
def test_bucket_batches_match_exact_length_grouping_on_one_length(seed, n_pairs,
                                                                  batch_size):
    pairs, src_vocab, tgt_vocab = _numbered_pairs([1 + seed] * n_pairs)
    tc = TrainConfig(batch_size=batch_size)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batches = TR.bucket_batches(pairs, src_vocab, tgt_vocab, None, tc, rng)
    assert [_pair_indices(b, tgt_vocab) for b in batches] == \
        exact_length_indices(pairs, batch_size, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_teacher_forcing_loss_batch_matches_singles():
    pairs, exp, tc, prep = _toy_setup()
    rng = np.random.default_rng(3)
    model = build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                        prep.label_vocabs, rng)
    both = TR.bucket_batches(pairs, prep.src_vocab, prep.tgt_vocab, None, tc)
    assert len(both) == 1
    loss_batch = TR.teacher_forcing_loss(model, both[0], tc, None)
    singles = []
    for pair in pairs:
        tc1 = TrainConfig(batch_size=1, min_count=1, word_retain=1.0, edge_retain=1.0)
        (b,) = TR.bucket_batches([pair], prep.src_vocab, prep.tgt_vocab, None, tc1)
        singles.append(TR.teacher_forcing_loss(model, b, tc1, None).item())
    # both targets have the same length, so the batch loss is the mean
    npt.assert_allclose(loss_batch.item(), np.mean(singles), rtol=1e-10)


def _mixed_target_setup(encoder, recipe):
    """Three source-length-4 sentences with both graphs and targets of 1, 4
    and 2 tokens, so the batch's target rows are PAD-masked unevenly."""
    sents = [
        AnnotatedSentence(tokens=["a", "b", "c", "d"],
                          sem_edges=[(1, 0, "A0"), (1, 3, "A1")],
                          syn_edges=[(1, 0, "sbj"), (1, 3, "obj"), (3, 2, "det")]),
        AnnotatedSentence(tokens=["c", "a", "d", "b"],
                          sem_edges=[(0, 2, "A1"), (0, 1, "A0")],
                          syn_edges=[(0, 2, "obj"), (0, 1, "sbj"), (2, 3, "det")]),
        AnnotatedSentence(tokens=["d", "c", "b", "a"],
                          sem_edges=[(2, 3, "A0"), (2, 0, "A1")],
                          syn_edges=[(2, 3, "sbj"), (2, 1, "obj"), (1, 0, "det")]),
    ]
    pairs = [(sents[0], ["x"]), (sents[1], ["y", "x", "z", "y"]),
             (sents[2], ["z", "y"])]
    exp = ExperimentConfig(encoder=encoder, recipe=recipe, emb_size=5,
                           hidden_size=6, attn_size=4, cnn_window=3,
                           decode="greedy", max_decode_len=5, bpe_merges=0)
    tc = TrainConfig(batch_size=3, min_count=1, word_retain=0.8, edge_retain=0.8)
    prep = preprocess(pairs, exp, tc)
    (batch,) = TR.bucket_batches(pairs, prep.src_vocab, prep.tgt_vocab, None, tc)
    model = build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                        prep.label_vocabs, np.random.default_rng(5))
    return model, batch, tc


def test_recurrence_returns_the_real_steps_of_the_full_grid():
    # target rows of 2, 5 and 3 real steps, not sorted by length: the node
    # returns the oracle's full grid at mask.T, and padded steps get nothing
    model, batch, _ = _mixed_target_setup("birnn", "syn:1+sem:1")
    tgt_in, mask = batch.tgt[:, :-1], batch.tgt[:, 1:] != PAD
    assert mask.sum(axis=1).tolist() == [2, 5, 3]
    enc = E.encode_pipeline(batch, model.config, model.encoder)
    enc = E.EncoderOutput(states=T.Tensor(enc.states.data, requires_grad=True),
                          mask=enc.mask)
    dec = model.decoder
    out = D.teacher_forcing_recurrence(tgt_in, mask, enc, dec)
    full = reference_teacher_forcing_recurrence(tgt_in, enc, dec).data
    assert out.shape == (mask.sum(), full.shape[-1])
    npt.assert_allclose(out.data, full.reshape(mask.shape[1], 3, -1)[mask.T],
                        rtol=0, atol=1e-12)
    weights = T.Tensor(np.random.default_rng(29).uniform(-1, 1, out.shape))
    leaves = {"states": enc.states, **dec.named()}

    def f(_):
        return TO.tsum(TO.mul(D.teacher_forcing_recurrence(tgt_in, mask, enc, dec),
                              weights))

    report = TO.grad_check(f, leaves)
    assert all(e.ok for e in report.values()), report
    # EOS and PAD are read only at padded steps, BOS at every row's first
    grad = dec.embedding.grad
    assert not grad[EOS].any() and not grad[PAD].any() and grad[BOS].all()


def _loss_and_grads(loss_fn, model, batch, tc, rng):
    params = model.parameters()
    T.zero_grads(params)
    loss = loss_fn(model, batch, tc, rng)
    T.backward(loss)
    return loss.item(), {k: p.grad for k, p in params.items()}


def _padded_setup(encoder, lengths=(8, 11, 15), target_lengths=(3, 7, 2)):
    """A model and one pair per source length, each source with a semantic
    edge and a syntactic chain, the targets of uneven lengths; no dropout."""
    rng = np.random.default_rng(21)
    words = ["a", "b", "c", "d", "e", "f", "g"]
    pairs = []
    for n, m in zip(lengths, target_lengths):
        toks = [words[i] for i in rng.integers(0, len(words), n)]
        sent = AnnotatedSentence(
            tokens=toks, sem_edges=[(1, 0, "A0"), (1, n - 1, "A1")],
            syn_edges=[(i + 1, i, "dep") for i in range(n - 1)])
        pairs.append((sent, [words[i].upper() for i in rng.integers(0, len(words), m)]))
    exp = ExperimentConfig(encoder=encoder, recipe="syn:1+sem:1", emb_size=5,
                           hidden_size=6, attn_size=4, cnn_window=3,
                           decode="greedy", max_decode_len=5, bpe_merges=0)
    tc = TrainConfig(batch_size=len(pairs), min_count=1, word_retain=1.0,
                     edge_retain=1.0)
    prep = preprocess(pairs, exp, tc)
    model = build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                        prep.label_vocabs, np.random.default_rng(5))
    return model, pairs, prep, tc


def _token_weighted(model, pairs, prep, tc):
    """The loss and gradients of one batch of ``pairs``, each times the
    batch's number of target tokens: the sum of its sentences' terms."""
    (batch,) = TR.bucket_batches(pairs, prep.src_vocab, prep.tgt_vocab, None, tc)
    tokens = int((batch.tgt[:, 1:] != PAD).sum())
    loss, grads = _loss_and_grads(TR.teacher_forcing_loss, model, batch, tc, None)
    return batch, loss * tokens, {k: g * tokens for k, g in grads.items()}


@pytest.mark.parametrize("encoder", ["birnn", "cnn"])
def test_padded_batch_loss_and_gradients_are_the_sum_of_its_sentences(encoder):
    model, pairs, prep, tc = _padded_setup(encoder)
    batch, loss, grads = _token_weighted(model, pairs, prep, tc)
    assert batch.src_mask.sum(axis=1).tolist() == [8, 11, 15]
    want_loss, want = 0.0, {k: 0.0 for k in grads}
    for pair in pairs:
        _, term, term_grads = _token_weighted(model, [pair], prep, tc)
        want_loss += term
        for k, g in term_grads.items():
            want[k] = want[k] + g
    assert abs(loss - want_loss) <= 1e-12
    for name, g in grads.items():
        npt.assert_allclose(g, want[name], rtol=0, atol=1e-12, err_msg=name)
    # not vacuous: every base-encoder weight has a gradient to compare
    assert all(np.abs(g).max() > 1e-6 for k, g in grads.items()
               if k.startswith("encoder.") and k != "encoder.embedding")


@pytest.mark.parametrize("encoder", ["birnn", "cnn"])
def test_full_model_gradcheck_on_a_padded_batch(encoder):
    model, pairs, prep, tc = _padded_setup(encoder, lengths=(3, 5, 4),
                                           target_lengths=(1, 3, 2))
    (batch,) = TR.bucket_batches(pairs, prep.src_vocab, prep.tgt_vocab, None, tc)
    assert not batch.src_mask.all()

    def f(_):
        return TR.teacher_forcing_loss(model, batch, tc, None)

    report = TO.grad_check(f, model.parameters(), epsilon=1e-4, tolerance=1e-4)
    assert all(e.ok for e in report.values()), report


@pytest.mark.parametrize("encoder", ["birnn", "cnn"])
@pytest.mark.parametrize("recipe", ["none", "sem:1", "syn:1+sem:1"])
def test_teacher_forcing_matches_per_step_oracle(encoder, recipe):
    model, batch, tc = _mixed_target_setup(encoder, recipe)
    assert batch.tgt.shape == (3, 6) and (batch.tgt == PAD).sum() == 5
    rng_ref, rng_new = np.random.default_rng(99), np.random.default_rng(99)
    want_loss, want = _loss_and_grads(reference_teacher_forcing_loss, model, batch,
                                      tc, rng_ref)
    got_loss, got = _loss_and_grads(TR.teacher_forcing_loss, model, batch, tc, rng_new)
    assert abs(got_loss - want_loss) <= 1e-12
    assert set(got) == set(want)
    for name in want:
        npt.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    # the draws happened: dropout consumed the generator
    assert rng_new.bit_generator.state != np.random.default_rng(99).bit_generator.state


@pytest.mark.parametrize("encoder", ["birnn", "cnn"])
def test_teacher_forcing_without_dropout_draws_nothing(encoder):
    # word_retain = edge_retain = 1 is evaluation-mode teacher forcing: the
    # generator is left as it was, and no generator gives the same bits
    model, batch, tc = _mixed_target_setup(encoder, "syn:1+sem:1")
    tc = dataclasses.replace(tc, word_retain=1.0, edge_retain=1.0)
    rng = np.random.default_rng(97)
    before = rng.bit_generator.state
    got_loss, got = _loss_and_grads(TR.teacher_forcing_loss, model, batch, tc, rng)
    assert rng.bit_generator.state == before
    want_loss, want = _loss_and_grads(TR.teacher_forcing_loss, model, batch, tc, None)
    assert got_loss == want_loss
    assert set(got) == set(want)
    for name in want:
        npt.assert_array_equal(got[name], want[name], err_msg=name)


def test_teacher_forcing_projects_and_keys_once_per_batch():
    model, batch, tc = _mixed_target_setup("birnn", "syn:1+sem:1")
    loss = TR.teacher_forcing_loss(model, batch, tc, np.random.default_rng(1))
    consumers = {id(model.decoder.w_out): [], id(model.decoder.attn.v_enc): []}
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for p in node._parents:
            if id(p) in consumers:
                consumers[id(p)].append(node)
        stack.extend(node._parents)
    for key, op in ((id(model.decoder.w_out), "nll_loss."),
                    (id(model.decoder.attn.v_enc), "teacher_forcing_recurrence.")):
        assert len(consumers[key]) == 1
        assert consumers[key][0]._backward.__qualname__.startswith(op)
    assert batch.tgt.shape[1] - 1 > 1  # more than one decoder step was taken


@pytest.mark.parametrize("encoder", ["birnn", "cnn"])
@pytest.mark.parametrize("recipe", ["none", "sem:1", "syn:1+sem:1"])
def test_fused_projection_loss_is_bit_identical_to_composed_oracle(encoder, recipe):
    model, batch, tc = _mixed_target_setup(encoder, recipe)
    want_loss, want = _loss_and_grads(composed_teacher_forcing_loss, model, batch, tc,
                                      np.random.default_rng(98))
    got_loss, got = _loss_and_grads(TR.teacher_forcing_loss, model, batch, tc,
                                    np.random.default_rng(98))
    assert got_loss == want_loss
    assert set(got) == set(want)
    for name in want:
        npt.assert_array_equal(got[name], want[name], err_msg=name)


# public tensor names that are not ops: types, the recording switch, the
# tape's machinery and checkpoint I/O
_NOT_OPS = {"Tensor", "ShapeError", "no_grad", "node", "backward", "zero_grads",
            "save_checkpoint", "load_checkpoint"}


def test_every_public_tensor_op_records_in_a_training_step(monkeypatch):
    # the tape holds what training records: one teacher-forcing loss and its
    # backward, over BiRNN and CNN, record every public op but log_softmax,
    # which only decoding's scores read
    recorded = set()
    real = T.node

    def spy(data, parents, backward_fn):
        out = real(data, parents, backward_fn)
        if out._backward is not None:
            recorded.add(inspect.currentframe().f_back.f_code.co_name)
        return out

    for mod in (T, E, D, TR):
        monkeypatch.setattr(mod, "node", spy)
    for encoder in ("birnn", "cnn"):
        model, batch, tc = _mixed_target_setup(encoder, "syn:1+sem:1")
        T.backward(TR.teacher_forcing_loss(model, batch, tc, np.random.default_rng(3)))
    assert {"birnn_encode", "cnn_encode", "gcn_layer", "teacher_forcing_recurrence",
            "nll_loss"} <= recorded
    assert sorted(set(T.__all__) - _NOT_OPS - {"log_softmax"} - recorded) == []


@pytest.mark.parametrize("encoder", ["birnn", "cnn"])
def test_a_training_step_records_only_layer_nodes(encoder):
    # a padded syn:1+sem:1 batch under dropout: the two embedding lookups,
    # the base encoder, one node per GCN layer (its residual inside), the
    # reshape to (batch, len, width) states, the recurrence and the loss
    model, pairs, prep, tc = _padded_setup(encoder)
    tc = dataclasses.replace(tc, word_retain=0.8, edge_retain=0.8)
    (batch,) = TR.bucket_batches(pairs, prep.src_vocab, prep.tgt_vocab, None, tc)
    assert not batch.src_mask.all()
    loss = TR.teacher_forcing_loss(model, batch, tc, np.random.default_rng(3))
    census, seen, stack = collections.Counter(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            census[node._backward.__qualname__.split(".")[0]] += 1
        stack.extend(node._parents)
    assert census == {"gather_rows": 2, f"{encoder}_encode": 1, "gcn_layer": 2,
                      "reshape": 1, "teacher_forcing_recurrence": 1, "nll_loss": 1}


def test_a_training_step_gathers_from_each_parameter_once(monkeypatch):
    # gather_rows' adjoint is a dense parameter-sized array, so a step that
    # gathered from one parameter per time step would allocate one per step
    gathered = []
    real = T.gather_rows

    def spy(a, idx):
        gathered.append(a)
        return real(a, idx)

    for mod in (T, E, D):
        monkeypatch.setattr(mod, "gather_rows", spy)
    for encoder in ("birnn", "cnn"):
        model, batch, tc = _mixed_target_setup(encoder, "syn:1+sem:1")
        names = {id(p): k for k, p in model.parameters().items()}
        gathered.clear()
        T.backward(TR.teacher_forcing_loss(model, batch, tc, np.random.default_rng(3)))
        got = sorted(names[id(a)] for a in gathered if id(a) in names)
        assert got == ["decoder.embedding", "encoder.embedding"], (encoder, got)


def test_single_sentence_overfit_drives_loss_down():
    pairs, exp, tc, prep = _toy_setup()
    pair = pairs[:1]
    rng = np.random.default_rng(4)
    model = build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                        prep.label_vocabs, rng)
    params = model.parameters()
    state = TR.AdamState()
    (batch,) = TR.bucket_batches(pair, prep.src_vocab, prep.tgt_vocab, None, tc)
    loss_value = None
    for _ in range(200):
        T.zero_grads(params)
        loss = TR.teacher_forcing_loss(model, batch, tc, None)
        T.backward(loss)
        TR.adam_step(params, state, lr=5e-3)
        loss_value = loss.item()
    assert loss_value < 0.01


def test_train_loop_is_seed_deterministic(tmp_path):
    pairs, exp, _, prep = _toy_setup(recipe="sem:1")
    tc = TrainConfig(learning_rate=5e-3, epochs=3, batch_size=2, rng_seed=7,
                     min_count=1, word_retain=0.9, edge_retain=0.9)

    def run():
        res = TR.train(tc, exp, pairs, pairs, prep.src_vocab, prep.tgt_vocab,
                       None, prep.label_vocabs)
        return ([m.train_loss for m in res.history],
                {k: v.data.copy() for k, v in res.model.parameters().items()})

    losses1, params1 = run()
    losses2, params2 = run()
    assert losses1 == losses2
    for k in params1:
        npt.assert_array_equal(params1[k], params2[k])


def _best_before_last_setup():
    """Reordering pairs on which validation BLEU peaks at epoch 8 of 10."""
    pairs = _reorder_corpus(1, n=20)
    exp = ExperimentConfig(encoder="birnn", recipe="sem:1", emb_size=16,
                           hidden_size=16, attn_size=16, decode="greedy",
                           max_decode_len=6, bpe_merges=0)
    tc = TrainConfig(learning_rate=3e-2, epochs=10, batch_size=10, rng_seed=3,
                     min_count=1, word_retain=1.0, edge_retain=1.0)
    return pairs, exp, tc, preprocess(pairs, exp, tc)


@pytest.mark.parametrize("to_disk", [False, True], ids=["in-memory", "best.npz"])
def test_train_returns_the_best_epochs_parameters(tmp_path, to_disk):
    pairs, exp, tc, prep = _best_before_last_setup()
    vocabs = (prep.src_vocab, prep.tgt_vocab, None)
    res = TR.train(tc, exp, pairs, pairs, *vocabs, prep.label_vocabs,
                   out_dir=tmp_path if to_disk else None)
    assert res.best_epoch < tc.epochs
    assert res.history[-1].val_bleu < res.best_val_bleu
    hyps = TR.translate_pairs(res.model, pairs, *vocabs, tc)
    assert bleu(hyps, [t for _, t in pairs]).bleu == res.best_val_bleu


def test_train_writes_metrics_and_checkpoints(tmp_path):
    pairs, exp, _, prep = _toy_setup()
    tc = TrainConfig(learning_rate=5e-3, epochs=2, batch_size=2, rng_seed=1,
                     min_count=1, checkpoint_every=1)
    res = TR.train(tc, exp, pairs, pairs, prep.src_vocab, prep.tgt_vocab,
                   None, prep.label_vocabs, out_dir=tmp_path)
    assert (tmp_path / "epoch_0001.npz").exists()
    assert (tmp_path / "epoch_0002.npz").exists()
    assert (tmp_path / "best.npz").exists()
    lines = (tmp_path / "metrics.tsv").read_text().strip().splitlines()
    assert len(lines) == 2
    first = lines[0].split("\t")
    assert first[0] == "1" and float(first[1]) > 0
    assert len(res.history) == 2
    # best checkpoint is a copy of the best epoch's checkpoint
    best = _archive(tmp_path / "best.npz")
    epoch_ckpt = _archive(tmp_path / f"epoch_{res.best_epoch:04d}.npz")
    assert set(best) == set(epoch_ckpt)
    for k in best:
        npt.assert_array_equal(best[k], epoch_ckpt[k])


def test_training_reduces_loss_on_toy_corpus():
    pairs, exp, _, prep = _toy_setup(recipe="syn:1")
    tc = TrainConfig(learning_rate=5e-3, epochs=30, batch_size=2, rng_seed=2,
                     min_count=1, word_retain=1.0, edge_retain=1.0)
    res = TR.train(tc, exp, pairs, pairs, prep.src_vocab, prep.tgt_vocab,
                   None, prep.label_vocabs)
    assert res.history[-1].train_loss < res.history[0].train_loss


def test_full_model_gradcheck_small():
    pairs, exp, tc, prep = _toy_setup(recipe="sem:1")
    exp.emb_size = exp.hidden_size = exp.attn_size = 3
    rng = np.random.default_rng(5)
    model = build_model(exp, len(prep.src_vocab), len(prep.tgt_vocab),
                        prep.label_vocabs, rng)
    (batch,) = TR.bucket_batches(pairs, prep.src_vocab, prep.tgt_vocab, None, tc)

    def f(_):
        return TR.teacher_forcing_loss(model, batch, tc, None)

    report = TO.grad_check(f, model.parameters(), epsilon=1e-4, tolerance=1e-4)
    assert all(e.ok for e in report.values())


def test_translations_come_back_in_input_order():
    # copy pairs of source lengths 4, 1, 3 and 2: the length buckets decode
    # them as 1, 2, 3, 4, so only input-order output lines up with refs
    sources = [["a", "b", "c", "d"], ["e"], ["f", "g", "h"], ["i", "j"]]
    pairs = [(AnnotatedSentence(tokens=toks, sem_edges=[], syn_edges=[]),
              [w.upper() for w in toks]) for toks in sources]
    refs = [tgt for _, tgt in pairs]
    exp = ExperimentConfig(encoder="birnn", recipe="none", emb_size=16,
                           hidden_size=16, attn_size=16, decode="greedy",
                           max_decode_len=6, bpe_merges=0)
    tc = TrainConfig(learning_rate=2e-2, epochs=40, batch_size=4, rng_seed=0,
                     min_count=1, word_retain=1.0, edge_retain=1.0)
    prep = preprocess(pairs, exp, tc)
    vocabs = (prep.src_vocab, prep.tgt_vocab, None)
    res = TR.train(tc, exp, pairs, pairs, *vocabs, prep.label_vocabs)

    greedy = TR.translate_pairs(res.model, pairs, *vocabs, tc)
    assert greedy == [TR.translate_pairs(res.model, [p], *vocabs, tc)[0]
                      for p in pairs]
    assert greedy == refs
    assert res.history[-1].val_bleu == bleu(greedy, refs).bleu == 100.0

    beam_model = dataclasses.replace(
        res.model, config=dataclasses.replace(exp, decode="beam", beam_size=3))
    beam = translate_corpus(beam_model, pairs, *vocabs, tc)
    assert beam == [translate_corpus(beam_model, [p], *vocabs, tc)[0]
                    for p in pairs]


def test_validation_stays_greedy_when_decoding_with_beam():
    # half-trained copy task on which greedy and beam-3 outputs differ, so
    # validating with the configured beam would change val BLEU
    sources = [["a", "b", "c", "d"], ["e", "f", "g", "h", "i"],
               ["f", "g", "h", "a", "b"], ["i", "j", "c", "d"]]
    pairs = [(AnnotatedSentence(tokens=toks, sem_edges=[], syn_edges=[]),
              [w.upper() for w in toks]) for toks in sources]
    refs = [tgt for _, tgt in pairs]
    exp = ExperimentConfig(encoder="birnn", recipe="none", emb_size=16,
                           hidden_size=16, attn_size=16, decode="beam", beam_size=3,
                           max_decode_len=6, bpe_merges=0)
    tc = TrainConfig(learning_rate=2e-2, epochs=10, batch_size=4, rng_seed=0,
                     min_count=1, word_retain=1.0, edge_retain=1.0)
    prep = preprocess(pairs, exp, tc)
    vocabs = (prep.src_vocab, prep.tgt_vocab, None)
    res = TR.train(tc, exp, pairs, pairs, *vocabs, prep.label_vocabs)
    assert res.model.config.decode == "beam"

    hyps = TR.translate_pairs(res.model, pairs, *vocabs, tc)
    assert res.history[-1].val_bleu == bleu(hyps, refs).bleu
    greedy_model = dataclasses.replace(
        res.model, config=dataclasses.replace(exp, decode="greedy"))
    assert hyps == translate_corpus(greedy_model, pairs, *vocabs, tc)
    beam = translate_corpus(res.model, pairs, *vocabs, tc)
    assert bleu(beam, refs).bleu != res.history[-1].val_bleu
