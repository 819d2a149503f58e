import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnmt import tensor as T


def test_matmul_hand_case():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    npt.assert_array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_identity_and_zero():
    a = np.arange(6.0).reshape(2, 3)
    npt.assert_array_equal(T.matmul(T.Tensor(np.eye(2)), T.Tensor(a)).data, a)
    npt.assert_array_equal(
        T.matmul(T.Tensor(np.zeros((2, 2))), T.Tensor(a)).data, np.zeros((2, 3)))


def test_matmul_shape_error_names_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
    with pytest.raises(T.ShapeError, match=r"\(2, 3, 4\).*\(2, 4, 5\)"):
        T.matmul(T.Tensor(np.ones((2, 3, 4))), T.Tensor(np.ones((2, 4, 5))))


def test_elementwise_trivial():
    assert T.relu(T.Tensor(-3.0)).item() == 0.0
    assert T.sigmoid(T.Tensor(0.0)).item() == 0.5
    # reference value for tanh(1), independent of numpy
    assert abs(T.tanh(T.Tensor(1.0)).item() - 0.7615941559557649) < 1e-12


def test_elementwise_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.add(T.Tensor(np.ones(3)), T.Tensor(np.ones(4)))


def test_softmax_trivial():
    npt.assert_allclose(T.softmax(T.Tensor([0.0, 0.0])).data, [0.5, 0.5])
    npt.assert_allclose(T.softmax(T.Tensor([3.0] * 4)).data, [0.25] * 4)


def test_softmax_hand_oracle():
    logits = [1.0, 2.0, 3.0]
    exps = [math.exp(v) for v in logits]
    expected = [e / sum(exps) for e in exps]
    npt.assert_allclose(T.softmax(T.Tensor(logits)).data, expected, rtol=1e-12)


def test_softmax_mask():
    y = T.softmax(T.Tensor([1.0, 5.0, 2.0]), mask=[True, False, True]).data
    assert y[1] == 0.0
    npt.assert_allclose(y.sum(), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        T.softmax(T.Tensor([1.0, 2.0]), mask=[False, False])


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
       st.floats(-10, 10))
@settings(max_examples=50, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    y = T.softmax(T.Tensor(logits)).data
    npt.assert_allclose(y.sum(), 1.0, atol=1e-12)
    y2 = T.softmax(T.Tensor([v + shift for v in logits])).data
    npt.assert_allclose(y, y2, atol=1e-9)


def test_backward_scalar_product():
    x = T.Tensor(3.0, requires_grad=True)
    y = T.Tensor(4.0, requires_grad=True)
    T.backward(x * y)
    assert x.grad == 4.0 and y.grad == 3.0


def test_backward_relu_negative_input():
    x = T.Tensor(-2.0, requires_grad=True)
    T.backward(T.relu(x))
    assert x.grad == 0.0


def test_backward_accumulates_across_uses():
    x = T.Tensor(2.0, requires_grad=True)
    T.backward(x * x + x)  # d/dx = 2x + 1
    assert x.grad == 5.0


def test_backward_rejects_non_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(x + x)


def test_random_chain_matches_finite_differences():
    rng = np.random.default_rng(5)
    params = {
        "w": T.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True),
        "x": T.Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True),
        "b": T.Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True),
    }

    def f(p):
        return T.tsum(T.tanh(T.matmul(p["x"], p["w"]) + p["b"])
                      * T.sigmoid(p["x"]))

    report = T.grad_check(f, params, epsilon=1e-4, tolerance=1e-4)
    assert all(entry.ok for entry in report.values())
    assert max(e.max_rel_err for e in report.values()) < 1e-4


def test_grad_check_linear_is_exact():
    params = {"x": T.Tensor([1.0, -2.0, 0.5], requires_grad=True)}
    report = T.grad_check(lambda p: T.tsum(p["x"] * T.Tensor([2.0, 3.0, -1.0])),
                          params)
    assert report["x"].max_rel_err < 1e-9


def test_grad_check_flags_corrupted_adjoint():
    x = T.Tensor([1.0, 2.0], requires_grad=True)

    def broken_double(t):
        # deliberately wrong adjoint (forward is 2t, backward claims d/dt = 5)
        return T._node(2.0 * t.data, (t,), lambda g: (5.0 * g,))

    report = T.grad_check(lambda p: T.tsum(broken_double(p["x"])), {"x": x})
    assert not report["x"].ok


def test_gather_scatter_roundtrip_gradients():
    params = {"h": T.Tensor(np.arange(12.0).reshape(4, 3) / 10, requires_grad=True)}
    idx = np.array([0, 2, 2, 3])

    def f(p):
        picked = T.gather_rows(p["h"], idx)
        spread = T.scatter_add_rows(picked, np.array([1, 1, 0, 2]), 4)
        return T.tsum(spread * spread)

    report = T.grad_check(f, params)
    assert report["h"].ok


def test_concat_slice_transpose_gradients():
    rng = np.random.default_rng(9)
    params = {"a": T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True),
              "b": T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)}

    def f(p):
        cat = T.concat([p["a"], p["b"]], axis=0)
        tr = T.transpose(cat, (1, 0))
        return T.tsum(T.tanh(T.slice_rows(tr, 0, 2)))

    report = T.grad_check(f, params)
    assert all(e.ok for e in report.values())


def test_log_softmax_gradients():
    params = {"x": T.Tensor([[0.3, -1.2, 0.7], [2.0, 0.1, -0.5]],
                            requires_grad=True)}

    def f(p):
        return T.tsum(T.log_softmax(p["x"]) * T.Tensor([[1.0, 0, 0], [0, 1.0, 0]]))

    assert T.grad_check(f, params)["x"].ok


def test_seeded_replay_is_bit_identical():
    def run():
        rng = np.random.default_rng(123)
        x = T.Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        loss = T.tsum(T.tanh(T.matmul(x, x)) * T.sigmoid(x))
        T.backward(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


def test_no_grad_blocks_recording():
    x = T.Tensor(1.0, requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad and y._backward is None


def test_checkpoint_roundtrip(tmp_path):
    params = {"encoder.embedding": T.Tensor(np.arange(6.0).reshape(2, 3)),
              "gcn.0.0.w_loop": T.Tensor(np.eye(2))}
    path = tmp_path / "ckpt.npz"
    T.save_checkpoint(path, params)
    loaded = T.load_checkpoint(path)
    assert set(loaded) == set(params)
    for k in params:
        npt.assert_array_equal(loaded[k], params[k].data)
        assert loaded[k].dtype == np.float64


def _per_index_matmul_grads(A, B, G):
    """Reference gradients of sum(G * (A @ B)) by a loop over A's leading
    indices, each a 2-D (or matrix-vector) product."""
    lead = A.shape[:-2]
    gA = np.zeros_like(A)
    gB = np.zeros_like(B)
    for i in np.ndindex(*lead):
        if B.ndim == 1:
            gA[i] = np.outer(G[i], B)
            gB += A[i].T @ G[i]
        else:
            gA[i] = G[i] @ B.T
            gB += A[i].T @ G[i]
    return gA, gB


@pytest.mark.parametrize("a_shape,b_shape", [
    ((3, 5, 4), (4, 2)),       # (B, L, d) @ (d, a)
    ((2, 3, 5, 4), (4, 2)),    # (2, 3, L, d) @ (d, a)
    ((3, 5, 4), (4,)),         # (B, L, a) @ (a,)
    ((5, 4), (4, 2)),
    ((5, 4), (4,)),
])
def test_matmul_folded_backward_matches_per_index_loop(a_shape, b_shape):
    rng = np.random.default_rng(31)
    a = T.Tensor(rng.uniform(-1, 1, a_shape), requires_grad=True)
    b = T.Tensor(rng.uniform(-1, 1, b_shape), requires_grad=True)
    G = rng.uniform(-1, 1, np.matmul(a.data, b.data).shape)
    T.backward(T.tsum(T.matmul(a, b) * T.Tensor(G)))
    gA, gB = _per_index_matmul_grads(a.data, b.data, G)
    npt.assert_allclose(a.grad, gA, rtol=0, atol=1e-12)
    npt.assert_allclose(b.grad, gB, rtol=0, atol=1e-12)
    assert a.grad.shape == a_shape and b.grad.shape == b_shape

    report = T.grad_check(lambda p: T.tsum(T.tanh(T.matmul(p["a"], p["b"]))),
                          {"a": a, "b": b})
    assert all(e.ok for e in report.values())


def test_matmul_vector_a_gradients():
    rng = np.random.default_rng(33)
    a = T.Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
    b = T.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    G = rng.uniform(-1, 1, 3)
    T.backward(T.tsum(T.matmul(a, b) * T.Tensor(G)))
    npt.assert_allclose(a.grad, b.data @ G, rtol=0, atol=1e-12)
    npt.assert_allclose(b.grad, np.outer(a.data, G), rtol=0, atol=1e-12)

    report = T.grad_check(lambda p: T.tsum(T.tanh(T.matmul(p["a"], p["b"]))),
                          {"a": a, "b": b})
    assert all(e.ok for e in report.values())


def test_backward_keeps_gradients_on_leaves_only():
    rng = np.random.default_rng(32)
    x = T.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
    const = T.Tensor(rng.uniform(-1, 1, (3, 2)))
    h = T.matmul(x, w)
    y = T.tanh(h)
    loss = T.tsum(y * const)
    T.backward(loss)
    for node in (h, y, loss):
        assert node.requires_grad and node.grad is None
    assert const.grad is None
    dh = const.data * (1.0 - np.tanh(x.data @ w.data) ** 2)
    npt.assert_allclose(x.grad, dh @ w.data.T, rtol=1e-14)
    npt.assert_allclose(w.grad, x.data.T @ dh, rtol=1e-14)
    # a second backward still accumulates into the leaves
    T.backward(T.tsum(T.matmul(x, w) * T.Tensor(const.data)))
    npt.assert_allclose(w.grad, x.data.T @ dh + x.data.T @ const.data, rtol=1e-14)
