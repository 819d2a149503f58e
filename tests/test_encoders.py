import math

import numpy as np
import numpy.testing as npt
import pytest

from gcnmt import encoders as E
from gcnmt import tensor as T
from gcnmt.config import ExperimentConfig
from gcnmt.corpus import AnnotatedSentence, LabelVocab, Vocabulary, make_batch
from gcnmt.model import build_model
from layer_oracle import (
    _outputs_and_grads,
    assert_matches_reference,
    reference_gcn_layer,
    reference_gru_cell,
)
import tape_ops as TO


def zero_gru(in_dim, hidden):
    z = lambda *s: T.Tensor(np.zeros(s), requires_grad=True)
    return E.GruParams(w_z=z(in_dim, hidden), u_z=z(hidden, hidden), b_z=z(hidden),
                       w_r=z(in_dim, hidden), u_r=z(hidden, hidden), b_r=z(hidden),
                       w_h=z(in_dim, hidden), u_h=z(hidden, hidden), b_h=z(hidden))


def scalar_gru(wz, uz, bz, wr, ur, br, wh, uh, bh):
    t = lambda v: T.Tensor(np.array([[float(v)]]), requires_grad=True)
    v = lambda x: T.Tensor(np.array([float(x)]), requires_grad=True)
    return E.GruParams(w_z=t(wz), u_z=t(uz), b_z=v(bz),
                       w_r=t(wr), u_r=t(ur), b_r=v(br),
                       w_h=t(wh), u_h=t(uh), b_h=v(bh))


def manual_gru_step(x, h, p):
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    wz, uz, bz = p.w_z.item(), p.u_z.item(), p.b_z.item()
    wr, ur, br = p.w_r.item(), p.u_r.item(), p.b_r.item()
    wh, uh, bh = p.w_h.item(), p.u_h.item(), p.b_h.item()
    z = sig(wz * x + uz * h + bz)
    r = sig(wr * x + ur * h + br)
    cand = math.tanh(wh * x + uh * (r * h) + bh)
    return z * h + (1 - z) * cand


def test_gru_zero_weights_zero_state():
    p = zero_gru(3, 2)
    out = E.gru_cell(T.Tensor([1.0, -2.0, 0.5]), T.Tensor([0.0, 0.0]), p)
    npt.assert_array_equal(out.data, [0.0, 0.0])


def test_gru_one_dim_matches_hand_recurrence():
    p = scalar_gru(0.3, -0.2, 0.1, 0.5, 0.4, -0.1, 0.7, -0.6, 0.2)
    x, h = 0.8, -0.3
    out = E.gru_cell(T.Tensor([x]), T.Tensor([h]), p)
    npt.assert_allclose(out.data[0], manual_gru_step(x, h, p), rtol=1e-12)


def test_gru_gradients_vs_finite_differences():
    rng = np.random.default_rng(3)
    p = E.init_gru(rng, 3, 2)
    params = p.named("gru")
    x = T.Tensor(rng.uniform(-1, 1, 3))
    h0 = T.Tensor(rng.uniform(-1, 1, 2))

    def f(_):
        return TO.tsum(E.gru_cell(x, E.gru_cell(x, h0, p), p))

    report = TO.grad_check(f, params)
    assert all(e.ok for e in report.values())


@pytest.mark.parametrize("lead", [(), (4,)])
def test_gru_cell_matches_composed_oracle(lead):
    rng = np.random.default_rng(30)
    p = E.init_gru(rng, 3, 5)
    x = T.Tensor(rng.uniform(-1, 1, lead + (3,)), requires_grad=True)
    h = T.Tensor(rng.uniform(-1, 1, lead + (5,)), requires_grad=True)
    leaves = {"x": x, "h": h, **p.named("gru")}
    assert_matches_reference(lambda: E.gru_cell(x, h, p),
                             lambda: reference_gru_cell(x, h, p), leaves)


def test_gru_cell_records_one_node():
    rng = np.random.default_rng(31)
    p = E.init_gru(rng, 3, 2)
    out = E.gru_cell(T.Tensor(rng.uniform(-1, 1, (2, 3))), T.Tensor(np.zeros((2, 2))), p)
    assert out._backward is not None
    assert all(t._backward is None for t in out._parents)


def test_gru_steps_add_weight_gradients_in_place():
    rng = np.random.default_rng(36)
    p = E.init_gru(rng, 3, 4)
    weights = [p.w_z, p.u_z, p.b_z, p.w_r, p.u_r, p.b_r, p.w_h, p.u_h, p.b_h]
    returned = []  # per adjoint run: (its weight gradients, copies of them)

    def recording(adjoint):
        def run(g):
            grads = adjoint(g)
            returned.append((grads[2:], [x.copy() for x in grads[2:]]))
            return grads
        return run

    h = T.Tensor(np.zeros((2, 4)))
    for _ in range(3):
        h = E.gru_cell(T.Tensor(rng.uniform(-1, 1, (2, 3))), h, p)
        h._backward = recording(h._backward)
    T.backward(TO.tsum(TO.mul(h, T.Tensor(rng.uniform(-1, 1, (2, 4))))))
    assert len(returned) == 3
    (first, v0), (_, v1), (_, v2) = returned  # the last step's adjoint runs first
    for i, w in enumerate(weights):
        assert w.grad is first[i]  # later steps add into the first one: no copy
        npt.assert_array_equal(w.grad, v0[i] + v1[i] + v2[i])


def test_gru_batch_gradients_vs_finite_differences():
    rng = np.random.default_rng(32)
    p = E.init_gru(rng, 3, 2)
    params = p.named("gru")
    params["x"] = T.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    params["h0"] = T.Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)

    def f(q):
        h = E.gru_cell(q["x"], q["h0"], p)
        return TO.tsum(TO.mul(E.gru_cell(q["x"], h, p), h))

    report = TO.grad_check(f, params)
    assert all(e.ok for e in report.values())


def test_birnn_len1_concat_of_both_directions():
    rng = np.random.default_rng(4)
    fwd, bwd = E.init_gru(rng, 3, 2), E.init_gru(rng, 3, 2)
    emb = T.Tensor(rng.uniform(-1, 1, (1, 3)))
    out = E.birnn_encode(emb, fwd, bwd)
    assert out.shape == (1, 4)
    f = E.gru_cell(T.Tensor(emb.data[0]), T.Tensor(np.zeros(2)), fwd)
    b = E.gru_cell(T.Tensor(emb.data[0]), T.Tensor(np.zeros(2)), bwd)
    npt.assert_allclose(out.data[0], np.concatenate([f.data, b.data]), rtol=1e-12)


def test_birnn_len3_manual_unroll():
    fwd = scalar_gru(0.3, -0.2, 0.1, 0.5, 0.4, -0.1, 0.7, -0.6, 0.2)
    bwd = scalar_gru(-0.4, 0.2, 0.0, 0.1, -0.3, 0.2, 0.5, 0.6, -0.2)
    xs = [0.5, -1.0, 0.25]
    out = E.birnn_encode(T.Tensor(np.array(xs)[:, None]), fwd, bwd)
    hf = 0.0
    fstates = []
    for x in xs:
        hf = manual_gru_step(x, hf, fwd)
        fstates.append(hf)
    hb = 0.0
    bstates = [0.0] * 3
    for t in reversed(range(3)):
        hb = manual_gru_step(xs[t], hb, bwd)
        bstates[t] = hb
    expected = np.array([[f, b] for f, b in zip(fstates, bstates)])
    npt.assert_allclose(out.data, expected, rtol=1e-12)


def test_birnn_output_width_shape_law():
    rng = np.random.default_rng(5)
    fwd, bwd = E.init_gru(rng, 4, 3), E.init_gru(rng, 4, 3)
    for n in (1, 2, 7):
        out = E.birnn_encode(T.Tensor(rng.uniform(-1, 1, (n, 4))), fwd, bwd)
        assert out.shape == (n, 6)


def test_birnn_rejects_empty_input():
    rng = np.random.default_rng(5)
    fwd, bwd = E.init_gru(rng, 4, 3), E.init_gru(rng, 4, 3)
    with pytest.raises(ValueError):
        E.birnn_encode(T.Tensor(np.zeros((0, 4))), fwd, bwd)


def test_cnn_window1_is_positionwise():
    rng = np.random.default_rng(6)
    w = T.Tensor(rng.uniform(-1, 1, (3, 2)))
    b = T.Tensor(rng.uniform(-1, 1, 2))
    emb = rng.uniform(-1, 1, (4, 3))
    out = E.cnn_encode(T.Tensor(emb), w, b)
    expected = np.maximum(emb @ w.data + b.data, 0.0)
    npt.assert_allclose(out.data, expected, rtol=1e-12)


def test_cnn_len2_window3_hand_computation():
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, (6, 2))
    b = rng.uniform(-1, 1, 2)
    emb = rng.uniform(-1, 1, (2, 2))
    out = E.cnn_encode(T.Tensor(emb), T.Tensor(w), T.Tensor(b))
    win0 = np.concatenate([np.zeros(2), emb[0], emb[1]])  # left boundary pad
    win1 = np.concatenate([emb[0], emb[1], np.zeros(2)])  # right boundary pad
    expected = np.maximum(np.stack([win0, win1]) @ w + b, 0.0)
    npt.assert_allclose(out.data, expected, rtol=1e-12)


def test_cnn_translation_equivariance_away_from_boundaries():
    rng = np.random.default_rng(8)
    w = T.Tensor(rng.uniform(-1, 1, (9, 4)))
    b = T.Tensor(rng.uniform(-1, 1, 4))
    emb = rng.uniform(-1, 1, (6, 3))
    shifted = np.vstack([np.zeros((1, 3)), emb[:-1]])
    out = E.cnn_encode(T.Tensor(emb), w, b).data
    out_shift = E.cnn_encode(T.Tensor(shifted), w, b).data
    # interior rows only: both boundaries see zero padding
    npt.assert_allclose(out_shift[2:-1], out[1:-2], rtol=1e-12)


def test_cnn_rejects_even_window():
    with pytest.raises(ValueError):
        E.cnn_encode(T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros((4, 2))),
                     T.Tensor(np.zeros(2)))


def test_cnn_rejects_a_filter_of_no_whole_window():
    # 5 filter rows over embeddings of width 2 are no whole window
    with pytest.raises(ValueError):
        E.cnn_encode(T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros((5, 2))),
                     T.Tensor(np.zeros(2)))


def _cnn_oracle(emb, w, b, window):
    """Zero-padded windows built position by position in numpy."""
    n, half = emb.shape[0], window // 2
    zero = np.zeros_like(emb[0])
    windows = [np.concatenate([emb[j] if 0 <= j < n else zero
                               for j in range(i - half, i + half + 1)], axis=-1)
               for i in range(n)]
    return np.maximum(np.stack(windows) @ w + b, 0.0)


@pytest.mark.parametrize("window", [1, 3, 5, 7])
@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("n", [1, 2, 6])
def test_cnn_matches_padded_window_oracle_and_finite_differences(window, lead, n):
    # with n <= window // 2 the outer shifts lie wholly in the zero padding
    rng = np.random.default_rng(100 * window + 10 * len(lead) + n)
    params = {"emb": T.Tensor(rng.uniform(-1, 1, (n,) + lead + (2,)), requires_grad=True),
              "w": T.Tensor(rng.uniform(-1, 1, (window * 2, 3)), requires_grad=True),
              "b": T.Tensor(rng.uniform(-1, 1, 3), requires_grad=True)}
    out = E.cnn_encode(params["emb"], params["w"], params["b"])
    expected = _cnn_oracle(params["emb"].data, params["w"].data, params["b"].data, window)
    npt.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def f(p):
        y = E.cnn_encode(p["emb"], p["w"], p["b"])
        return TO.tsum(TO.mul(y, y))

    report = TO.grad_check(f, params)
    assert all(e.ok for e in report.values()), report


def test_birnn_batch_gradients_vs_finite_differences():
    rng = np.random.default_rng(11)
    fwd, bwd = E.init_gru(rng, 3, 2), E.init_gru(rng, 3, 2)
    params = {"emb": T.Tensor(rng.uniform(-1, 1, (3, 2, 3)), requires_grad=True),
              **fwd.named("fwd"), **bwd.named("bwd")}
    weights = T.Tensor(rng.uniform(-1, 1, (3, 2, 4)))

    def f(p):
        return TO.tsum(TO.mul(E.birnn_encode(p["emb"], fwd, bwd), weights))

    report = TO.grad_check(f, params)
    assert all(e.ok for e in report.values()), report


def _layer(rng, d, n_labels=3, graphs=("sem",)):
    return E.init_gcn_layer(rng, d, {g: n_labels for g in graphs})


def _gate_through_layer(layer, h_u, direction, label_id):
    """The gate on one edge, read through ``gcn_layer``.

    With message weights 0 and label biases 1, an edge's message is its
    gate in every entry. ``in`` and ``out`` use the one edge 0 -> 1 with the
    self-loop silenced: the ``in`` gate reads the head's state (node 0) and
    lands on node 1, the ``out`` gate reads the dependent's state (node 1)
    and lands on node 0. ``loop`` uses no edge and reads node 0's gate.
    """
    gp = layer.graphs["sem"]
    for t in (gp.w_in, gp.w_out, layer.w_loop):
        t.data[...] = 0.0
    for t in (gp.b_in, gp.b_out, layer.b_loop):
        t.data[...] = 1.0
    h_u = np.asarray(h_u, dtype=float)
    H = np.zeros((2, h_u.size))
    if direction == "loop":
        H[0] = h_u
        return E.gcn_layer(T.Tensor(H), {"sem": []}, layer).data[0, 0]
    layer.b_loop.data[...] = 0.0  # silence the self-loop message
    node = 1 if direction == "in" else 0
    H[1 - node] = h_u
    out = E.gcn_layer(T.Tensor(H), {"sem": [(0, 1, label_id)]}, layer).data
    assert np.all(out[node] == out[node, 0])
    return out[node, 0]


def test_gate_zero_params_is_half():
    layer = _layer(np.random.default_rng(0), 2)
    gp = layer.graphs["sem"]
    for t in (gp.gate_w_in, gp.gate_b_in):
        t.data[...] = 0.0
    assert _gate_through_layer(layer, [0.7, -0.3], "in", 1) == 0.5


def test_gate_saturates_to_zero():
    layer = _layer(np.random.default_rng(0), 2)
    layer.graphs["sem"].gate_b_in.data[...] = -50.0
    assert _gate_through_layer(layer, [0.1, 0.1], "in", 0) < 1e-9


def test_gate_hand_dot_product():
    layer = _layer(np.random.default_rng(0), 2)
    gp = layer.graphs["sem"]
    gp.gate_w_out.data[:] = [0.5, -1.0]
    gp.gate_b_out.data[:] = [0.0, 0.25, 0.0]
    h = [0.2, 0.4]
    expected = 1.0 / (1.0 + math.exp(-(0.5 * 0.2 - 1.0 * 0.4 + 0.25)))
    npt.assert_allclose(_gate_through_layer(layer, h, "out", 1), expected, rtol=1e-12)


def test_gate_range_strictly_open():
    rng = np.random.default_rng(11)
    layer = _layer(rng, 4)
    for _ in range(20):
        h = rng.uniform(-1, 1, 4)
        for direction, lab in (("in", 0), ("out", 2), ("loop", 0)):
            g = _gate_through_layer(layer, h, direction, lab)
            assert 0.0 < g < 1.0


def test_gcn_selfloop_identity():
    d = 3
    layer = _layer(np.random.default_rng(0), d)
    layer.w_loop.data = np.eye(d)
    layer.b_loop.data[...] = 0.0
    layer.gate_w_loop.data[...] = 0.0
    layer.gate_b_loop.data[...] = 40.0  # gate saturates to 1
    H = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    out = E.gcn_layer(T.Tensor(H), {"sem": []}, layer)
    npt.assert_allclose(out.data, np.maximum(H, 0.0), atol=1e-9)


def manual_gcn(H, edges, layer, graph="sem"):
    """Brute-force per-edge accumulation with plain numpy."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    n, d = H.shape
    gp = layer.graphs[graph]
    total = np.zeros((n, d))
    for v in range(n):
        g = sig(H[v] @ layer.gate_w_loop.data + layer.gate_b_loop.data[0])
        total[v] += g * (H[v] @ layer.w_loop.data + layer.b_loop.data)
    for u, v, lab in edges:
        g = sig(H[u] @ gp.gate_w_in.data + gp.gate_b_in.data[lab])
        total[v] += g * (H[u] @ gp.w_in.data + gp.b_in.data[lab])
        g = sig(H[v] @ gp.gate_w_out.data + gp.gate_b_out.data[lab])
        total[u] += g * (H[v] @ gp.w_out.data + gp.b_out.data[lab])
    return np.maximum(total, 0.0)


def test_gcn_chain_matches_per_edge_oracle():
    rng = np.random.default_rng(12)
    layer = _layer(rng, 2)
    H = rng.uniform(-1, 1, (3, 2))
    edges = [(0, 1, 1), (1, 2, 0)]
    out = E.gcn_layer(T.Tensor(H), {"sem": edges}, layer)
    npt.assert_allclose(out.data, manual_gcn(H, edges, layer), rtol=1e-10)


def test_gcn_permutation_equivariance():
    rng = np.random.default_rng(13)
    layer = _layer(rng, 3)
    H = rng.uniform(-1, 1, (5, 3))
    edges = [(0, 2, 1), (3, 1, 0), (4, 0, 2)]
    out = E.gcn_layer(T.Tensor(H), {"sem": edges}, layer).data
    perm = rng.permutation(5)
    inv = np.argsort(perm)
    H_p = H[perm]
    edges_p = [(int(inv[u]), int(inv[v]), lab) for u, v, lab in edges]
    out_p = E.gcn_layer(T.Tensor(H_p), {"sem": edges_p}, layer).data
    npt.assert_allclose(out_p, out[perm], atol=1e-9)


def test_gcn_out_of_range_edge():
    layer = _layer(np.random.default_rng(0), 2)
    with pytest.raises(ValueError, match="out of range"):
        E.gcn_layer(T.Tensor(np.zeros((2, 2))), {"sem": [(0, 5, 0)]}, layer)


def test_gcn_edge_dropout_needs_rng_and_drops():
    rng = np.random.default_rng(14)
    layer = _layer(rng, 2)
    H = rng.uniform(-1, 1, (3, 2))
    edges = {"sem": [(0, 1, 0), (1, 2, 1)]}
    with pytest.raises(ValueError):
        E.gcn_layer(T.Tensor(H), edges, layer, edge_retain=0.5)
    # retain ~ 0 removes all annotated messages but keeps self-loops
    out = E.gcn_layer(T.Tensor(H), edges, layer, edge_retain=1e-12,
                      rng=np.random.default_rng(0))
    no_edges = E.gcn_layer(T.Tensor(H), {"sem": []}, layer)
    npt.assert_allclose(out.data, no_edges.data, rtol=1e-12)


def test_gcn_full_layer_gradients():
    rng = np.random.default_rng(15)
    layer = _layer(rng, 4)
    params = layer.named("gcn")
    H = T.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    params["H"] = H
    edges = {"sem": [(0, 1, 1), (2, 0, 0), (1, 2, 2)]}

    def f(_):
        out = E.gcn_layer(H, edges, layer)
        return TO.tsum(TO.mul(out, out))

    report = TO.grad_check(f, params, epsilon=1e-4, tolerance=1e-4)
    assert all(e.ok for e in report.values())


# edges with repeated heads and dependents, so rows add into one row twice
_REPEATS = [(0, 1, 1), (2, 1, 0), (0, 3, 2), (0, 1, 0), (3, 3, 1)]


@pytest.mark.parametrize("graphs, edges", [
    (("sem",), {"sem": [(0, 1, 1), (2, 0, 0), (1, 2, 2)]}),
    (("syn",), {"syn": [(1, 0, 0), (3, 2, 2)]}),
    (("sem", "syn"), {"sem": [(0, 1, 1), (2, 3, 0)], "syn": _REPEATS}),
    (("sem",), {"sem": []}),
    (("sem", "syn"), {"sem": _REPEATS}),
], ids=["sem", "syn", "semsyn", "no-edges", "repeated-destinations"])
def test_gcn_layer_matches_composed_oracle(graphs, edges):
    rng = np.random.default_rng(33)
    layer = _layer(rng, 4, graphs=graphs)
    H = T.Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
    leaves = {"H": H, **layer.named("gcn")}
    assert_matches_reference(lambda: E.gcn_layer(H, edges, layer),
                             lambda: reference_gcn_layer(H, edges, layer), leaves)


def test_gcn_edge_dropout_matches_oracle_and_draws_alike():
    rng = np.random.default_rng(34)
    layer = _layer(rng, 3, graphs=("sem", "syn"))
    H = T.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    edges = {"sem": [(0, 1, 1), (2, 3, 0)], "syn": _REPEATS}
    rngs = [np.random.default_rng(35), np.random.default_rng(35)]
    assert_matches_reference(
        lambda: E.gcn_layer(H, edges, layer, edge_retain=0.5, rng=rngs[0]),
        lambda: reference_gcn_layer(H, edges, layer, edge_retain=0.5, rng=rngs[1]),
        {"H": H, **layer.named("gcn")})
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("edges", [{"syn": [(0, 1, 0), (4, 1, 0)]},
                                   {"sem": [(-1, 1, 0)]}])
def test_gcn_fused_layer_rejects_out_of_range_edges(edges):
    layer = _layer(np.random.default_rng(0), 2, graphs=("sem", "syn"))
    with pytest.raises(ValueError, match="out of range"):
        E.gcn_layer(T.Tensor(np.zeros((4, 2))), edges, layer)


def test_gcn_layer_records_one_node():
    rng = np.random.default_rng(36)
    layer = _layer(rng, 3, graphs=("sem", "syn"))
    out = E.gcn_layer(T.Tensor(rng.uniform(-1, 1, (4, 3))),
                      {"sem": [(0, 1, 1)], "syn": _REPEATS}, layer,
                      edge_retain=0.5, rng=rng)
    assert out._backward is not None
    assert all(t._backward is None for t in out._parents)


def test_gcn_fused_layer_gradients_with_edge_dropout():
    rng = np.random.default_rng(37)
    layer = _layer(rng, 3, graphs=("sem", "syn"))
    params = layer.named("gcn")
    params["H"] = T.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    edges = {"sem": [(0, 1, 1), (2, 3, 0)], "syn": _REPEATS}

    def f(q):
        out = E.gcn_layer(q["H"], edges, layer, edge_retain=0.7,
                          rng=np.random.default_rng(38))
        return TO.tsum(TO.mul(out, out))

    report = TO.grad_check(f, params, epsilon=1e-4, tolerance=1e-4)
    assert all(e.ok for e in report.values())


@pytest.mark.parametrize("edge_retain", [1.0, 0.7])
def test_gcn_layer_reads_an_edge_array_as_its_list_of_triples(edge_retain):
    rng = np.random.default_rng(40)
    layer = _layer(rng, 3, graphs=("sem", "syn"))
    H = T.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    leaves = {"H": H, **layer.named("gcn")}
    as_list = {"sem": [(0, 1, 1), (2, 3, 0)], "syn": _REPEATS}
    as_array = {g: np.array(e, dtype=np.intp) for g, e in as_list.items()}
    runs = [_outputs_and_grads(
        lambda: E.gcn_layer(H, edges, layer, edge_retain=edge_retain,
                            rng=np.random.default_rng(41)), leaves)
        for edges in (as_list, as_array)]
    (out_l, grads_l), (out_a, grads_a) = runs
    npt.assert_array_equal(out_a[0], out_l[0])
    for name in leaves:
        npt.assert_array_equal(grads_a[name], grads_l[name], err_msg=name)


@pytest.mark.parametrize("shape", [(6, 5), (6,)])
def test_add_rows_is_bit_identical_to_add_at(shape):
    rng = np.random.default_rng(39)
    idx = np.array([3, 0, 3, 5, 3, 0, 1], dtype=np.intp)
    rows = rng.uniform(-1, 1, (len(idx),) + shape[1:])
    acc = rng.uniform(-1, 1, shape)
    want = acc.copy()
    np.add.at(want, idx, rows)
    npt.assert_array_equal(E._add_rows(acc, idx, rows), want)


def test_gcn_locality_on_path_graph():
    rng = np.random.default_rng(16)
    n, d = 5, 3
    H = rng.uniform(-1, 1, (n, d))
    edges = {"sem": [(i, i + 1, 0) for i in range(n - 1)]}
    for k in (1, 2):
        layers = [_layer(np.random.default_rng(20 + j), d) for j in range(k)]

        def run(h0):
            h = T.Tensor(h0)
            for layer in layers:
                h = E.gcn_layer(h, edges, layer) + h
            return h.data

        base = run(H)
        u = 0
        H2 = H.copy()
        H2[u] += 0.37
        moved = np.abs(run(H2) - base).sum(axis=1) > 1e-12
        for v in range(n):
            if abs(v - u) > k:
                assert not moved[v], f"node {v} changed with k={k}"


# ---- pipeline-level behavior ----------------------------------------------


def _toy_batch():
    s1 = AnnotatedSentence(tokens=["a", "b", "c"],
                           sem_edges=[(1, 0, "A0"), (1, 2, "A1")],
                           syn_edges=[(0, 1, "obj")])
    s2 = AnnotatedSentence(tokens=["c", "a", "b"],
                           sem_edges=[(0, 2, "A0")], syn_edges=[])
    vocab = Vocabulary(["a", "b", "c"])
    return make_batch([(s1, ["x"]), (s2, ["y"])], vocab, vocab), vocab


def _labels():
    return {"sem": LabelVocab(["A0", "A1"]), "syn": LabelVocab(["obj"])}


def _build(recipe, encoder="birnn", seed=0):
    cfg = ExperimentConfig(encoder=encoder, recipe=recipe, emb_size=4,
                           hidden_size=3, attn_size=3, cnn_window=3)
    rng = np.random.default_rng(seed)
    return cfg, E.build_encoder(cfg, 7, _labels(), rng)


def test_pipeline_baseline_equals_base_encoder():
    batch, _ = _toy_batch()
    cfg, stack = _build("none")
    out = E.encode_pipeline(batch, cfg, stack)
    emb = T.gather_rows(stack.embedding, batch.src.T)
    base = E.birnn_encode(emb, stack.base.gru_fwd, stack.base.gru_bwd)
    npt.assert_array_equal(out.states.data,
                           np.transpose(base.data, (1, 0, 2)))


def test_pipeline_selfloop_recipe_ignores_edges():
    batch, _ = _toy_batch()
    cfg, stack = _build("selfloop:2")
    out_full = E.encode_pipeline(batch, cfg, stack).states.data
    emptied = make_batch_like(batch)
    out_empty = E.encode_pipeline(emptied, cfg, stack).states.data
    npt.assert_array_equal(out_full, out_empty)


def make_batch_like(batch):
    import copy

    b = copy.deepcopy(batch)
    b.sem_edges = [[] for _ in b.sem_edges]
    b.syn_edges = [[] for _ in b.syn_edges]
    return b


def test_pipeline_sem_two_layers_matches_manual_composition():
    batch, _ = _toy_batch()
    cfg, stack = _build("sem:2")
    out = E.encode_pipeline(batch, cfg, stack).states.data
    emb = T.gather_rows(stack.embedding, batch.src.T)
    base = E.birnn_encode(emb, stack.base.gru_fwd, stack.base.gru_bwd)
    B, L, d = 2, 3, 6
    H = T.Tensor(np.transpose(base.data, (1, 0, 2)).reshape(B * L, d))
    vocab = stack.label_vocabs["sem"]
    flat = []
    for i, edges in enumerate(batch.sem_edges):
        flat.extend((i * L + u, i * L + v, vocab.id(lab)) for u, v, lab in edges)
    for layer in stack.blocks[0]:
        H = E.gcn_layer(H, {"sem": flat}, layer) + H
    npt.assert_allclose(out, H.data.reshape(B, L, d), rtol=1e-12)


def test_pipeline_fused_layer_reads_both_graphs():
    batch, _ = _toy_batch()
    cfg, stack = _build("semsyn:1")
    layer = stack.blocks[0][0]
    assert set(layer.graphs) == {"sem", "syn"}
    out = E.encode_pipeline(batch, cfg, stack)
    assert np.isfinite(out.states.data).all()
    # emptying only the syntactic edges must change the output
    semonly = make_batch_like(batch)
    semonly.sem_edges = [list(e) for e in batch.sem_edges]
    out2 = E.encode_pipeline(semonly, cfg, stack)
    assert not np.allclose(out.states.data, out2.states.data)


def test_pipeline_maps_each_edge_label_once_per_batch(monkeypatch):
    # sem:1+semsyn:1 reads the semantic graph in two blocks; its edge array
    # is built once, so each sem label is looked up once
    batch, _ = _toy_batch()
    cfg, stack = _build("sem:1+semsyn:1")
    looked_up = []
    plain_id = LabelVocab.id

    def spy(vocab, token):
        looked_up.append((vocab, token))
        return plain_id(vocab, token)

    monkeypatch.setattr(LabelVocab, "id", spy)
    E.encode_pipeline(batch, cfg, stack)
    for g in ("sem", "syn"):
        edges = batch.sem_edges if g == "sem" else batch.syn_edges
        assert sorted(t for v, t in looked_up if v is stack.label_vocabs[g]) == \
            sorted(lab for sent in edges for _, _, lab in sent), g


def test_pipeline_missing_graph_errors():
    batch, _ = _toy_batch()
    cfg, stack = _build("sem:1")
    batch.sem_edges = None
    with pytest.raises(ValueError, match="absent"):
        E.encode_pipeline(batch, cfg, stack)


def test_pipeline_cnn_encoder_finite():
    batch, _ = _toy_batch()
    cfg, stack = _build("syn:1", encoder="cnn")
    out = E.encode_pipeline(batch, cfg, stack)
    assert out.states.shape == (2, 3, 3)
    assert np.isfinite(out.states.data).all()


def test_pipeline_cnn_baseline_equals_cnn_encode():
    batch, _ = _toy_batch()
    cfg, stack = _build("none", encoder="cnn")
    out = E.encode_pipeline(batch, cfg, stack)
    emb = T.gather_rows(stack.embedding, batch.src.T)
    base = E.cnn_encode(emb, stack.base.w, stack.base.b)
    npt.assert_array_equal(out.states.data, np.transpose(base.data, (1, 0, 2)))


# Checkpoint layout: parameter path and shape, in the order the archive holds
# them (emb 4, hidden 3, attn 3, cnn window 3, src vocab 7, tgt vocab 5).
BIRNN_SEMSYN1_LAYOUT = """
encoder.embedding:7x4 encoder.gru_fwd.w_z:4x3 encoder.gru_fwd.u_z:3x3
encoder.gru_fwd.b_z:3 encoder.gru_fwd.w_r:4x3 encoder.gru_fwd.u_r:3x3
encoder.gru_fwd.b_r:3 encoder.gru_fwd.w_h:4x3 encoder.gru_fwd.u_h:3x3
encoder.gru_fwd.b_h:3 encoder.gru_bwd.w_z:4x3 encoder.gru_bwd.u_z:3x3
encoder.gru_bwd.b_z:3 encoder.gru_bwd.w_r:4x3 encoder.gru_bwd.u_r:3x3
encoder.gru_bwd.b_r:3 encoder.gru_bwd.w_h:4x3 encoder.gru_bwd.u_h:3x3
encoder.gru_bwd.b_h:3 gcn.0.0.w_loop:6x6 gcn.0.0.b_loop:6 gcn.0.0.gate_w_loop:6
gcn.0.0.gate_b_loop:1 gcn.0.0.sem.w_in:6x6 gcn.0.0.sem.w_out:6x6
gcn.0.0.sem.b_in:3x6 gcn.0.0.sem.b_out:3x6 gcn.0.0.sem.gate_w_in:6
gcn.0.0.sem.gate_w_out:6 gcn.0.0.sem.gate_b_in:3 gcn.0.0.sem.gate_b_out:3
gcn.0.0.syn.w_in:6x6 gcn.0.0.syn.w_out:6x6 gcn.0.0.syn.b_in:2x6
gcn.0.0.syn.b_out:2x6 gcn.0.0.syn.gate_w_in:6 gcn.0.0.syn.gate_w_out:6
gcn.0.0.syn.gate_b_in:2 gcn.0.0.syn.gate_b_out:2 decoder.embedding:5x4
decoder.w_init:6x3 decoder.b_init:3 decoder.w_out:13x5 decoder.b_out:5
decoder.gru.w_z:10x3 decoder.gru.u_z:3x3 decoder.gru.b_z:3 decoder.gru.w_r:10x3
decoder.gru.u_r:3x3 decoder.gru.b_r:3 decoder.gru.w_h:10x3 decoder.gru.u_h:3x3
decoder.gru.b_h:3 decoder.attn.u_dec:3x3 decoder.attn.v_enc:6x3
decoder.attn.score_v:3
"""

CNN_SYN1_SEM1_LAYOUT = """
encoder.embedding:7x4 encoder.cnn.w:12x3 encoder.cnn.b:3 gcn.0.0.w_loop:3x3
gcn.0.0.b_loop:3 gcn.0.0.gate_w_loop:3 gcn.0.0.gate_b_loop:1 gcn.0.0.syn.w_in:3x3
gcn.0.0.syn.w_out:3x3 gcn.0.0.syn.b_in:2x3 gcn.0.0.syn.b_out:2x3
gcn.0.0.syn.gate_w_in:3 gcn.0.0.syn.gate_w_out:3 gcn.0.0.syn.gate_b_in:2
gcn.0.0.syn.gate_b_out:2 gcn.1.0.w_loop:3x3 gcn.1.0.b_loop:3 gcn.1.0.gate_w_loop:3
gcn.1.0.gate_b_loop:1 gcn.1.0.sem.w_in:3x3 gcn.1.0.sem.w_out:3x3
gcn.1.0.sem.b_in:3x3 gcn.1.0.sem.b_out:3x3 gcn.1.0.sem.gate_w_in:3
gcn.1.0.sem.gate_w_out:3 gcn.1.0.sem.gate_b_in:3 gcn.1.0.sem.gate_b_out:3
decoder.embedding:5x4 decoder.w_init:3x3 decoder.b_init:3 decoder.w_out:10x5
decoder.b_out:5 decoder.gru.w_z:7x3 decoder.gru.u_z:3x3 decoder.gru.b_z:3
decoder.gru.w_r:7x3 decoder.gru.u_r:3x3 decoder.gru.b_r:3 decoder.gru.w_h:7x3
decoder.gru.u_h:3x3 decoder.gru.b_h:3 decoder.attn.u_dec:3x3 decoder.attn.v_enc:3x3
decoder.attn.score_v:3
"""


@pytest.mark.parametrize("encoder,recipe,layout", [
    ("birnn", "semsyn:1", BIRNN_SEMSYN1_LAYOUT),
    ("cnn", "syn:1+sem:1", CNN_SYN1_SEM1_LAYOUT),
])
def test_checkpoint_parameter_layout(encoder, recipe, layout):
    cfg = ExperimentConfig(encoder=encoder, recipe=recipe, emb_size=4,
                           hidden_size=3, attn_size=3, cnn_window=3)
    model = build_model(cfg, 7, 5, _labels(), np.random.default_rng(0))
    expected = [(name, tuple(int(n) for n in shape.split("x")))
                for name, shape in (item.split(":") for item in layout.split())]
    assert [(k, p.shape) for k, p in model.parameters().items()] == expected


def test_pipeline_batched_matches_single_sentence():
    s = AnnotatedSentence(tokens=["a", "b", "c"],
                          sem_edges=[(1, 0, "A0"), (1, 2, "A1")])
    vocab = Vocabulary(["a", "b", "c"])
    cfg, stack = _build("sem:1")
    pair = (s, ["x"])
    other = (AnnotatedSentence(tokens=["c", "b", "a"], sem_edges=[(0, 1, "A1")]),
             ["y"])
    single = E.encode_pipeline(make_batch([pair], vocab, vocab), cfg, stack)
    batched = E.encode_pipeline(make_batch([pair, other], vocab, vocab), cfg, stack)
    npt.assert_allclose(batched.states.data[0], single.states.data[0], rtol=1e-12)
