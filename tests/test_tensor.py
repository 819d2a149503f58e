import ast
import inspect
import itertools
import math
import textwrap
import tracemalloc
import weakref
import zipfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from layer_oracle import scatter_add_rows
import tape_ops as TO

from gcnmt import decoder as D
from gcnmt import encoders as E
from gcnmt import tensor as T
from gcnmt import training as TR


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
    assert TO.sigmoid(T.Tensor(0.0)).item() == 0.5
    # reference value for tanh(1), independent of numpy
    assert abs(TO.tanh(T.Tensor(1.0)).item() - 0.7615941559557649) < 1e-12


def test_elementwise_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.add(T.Tensor(np.ones(3)), T.Tensor(np.ones(4)))


def test_softmax_trivial():
    npt.assert_allclose(TO.softmax(T.Tensor([0.0, 0.0])).data, [0.5, 0.5])
    npt.assert_allclose(TO.softmax(T.Tensor([3.0] * 4)).data, [0.25] * 4)


def test_softmax_hand_oracle():
    logits = [1.0, 2.0, 3.0]
    exps = [math.exp(v) for v in logits]
    expected = [e / sum(exps) for e in exps]
    npt.assert_allclose(TO.softmax(T.Tensor(logits)).data, expected, rtol=1e-12)


def test_softmax_mask():
    y = TO.softmax(T.Tensor([1.0, 5.0, 2.0]), mask=[True, False, True]).data
    assert y[1] == 0.0
    npt.assert_allclose(y.sum(), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        TO.softmax(T.Tensor([1.0, 2.0]), mask=[False, False])


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
       st.floats(-10, 10))
@settings(max_examples=50, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    y = TO.softmax(T.Tensor(logits)).data
    npt.assert_allclose(y.sum(), 1.0, atol=1e-12)
    y2 = TO.softmax(T.Tensor([v + shift for v in logits])).data
    npt.assert_allclose(y, y2, atol=1e-9)


def test_backward_scalar_product():
    x = T.Tensor(3.0, requires_grad=True)
    y = T.Tensor(4.0, requires_grad=True)
    T.backward(TO.mul(x, y))
    assert x.grad == 4.0 and y.grad == 3.0


def test_backward_relu_negative_input():
    x = T.Tensor(-2.0, requires_grad=True)
    T.backward(T.relu(x))
    assert x.grad == 0.0


def test_backward_accumulates_across_uses():
    x = T.Tensor(2.0, requires_grad=True)
    T.backward(TO.mul(x, x) + x)  # d/dx = 2x + 1
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
        return TO.tsum(TO.mul(TO.tanh(T.matmul(p["x"], p["w"]) + p["b"]),
                              TO.sigmoid(p["x"])))

    report = TO.grad_check(f, params, epsilon=1e-4, tolerance=1e-4)
    assert all(entry.ok for entry in report.values())
    assert max(e.max_rel_err for e in report.values()) < 1e-4


def test_sub_and_neg_match_finite_differences():
    rng = np.random.default_rng(41)
    params = {"a": T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True),
              "b": T.Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)}
    report = TO.grad_check(lambda p: TO.tsum(TO.tanh(TO.sub(TO.neg(p["a"]), p["b"]))),
                           params)
    assert all(e.ok for e in report.values())


def test_grad_check_linear_is_exact():
    params = {"x": T.Tensor([1.0, -2.0, 0.5], requires_grad=True)}
    report = TO.grad_check(lambda p: TO.tsum(TO.mul(p["x"], T.Tensor([2.0, 3.0, -1.0]))),
                           params)
    assert report["x"].max_rel_err < 1e-9


def test_grad_check_flags_corrupted_adjoint():
    x = T.Tensor([1.0, 2.0], requires_grad=True)

    def broken_double(t):
        # deliberately wrong adjoint (forward is 2t, backward claims d/dt = 5)
        return T.node(2.0 * t.data, (t,), lambda g: (5.0 * g,))

    report = TO.grad_check(lambda p: TO.tsum(broken_double(p["x"])), {"x": x})
    assert not report["x"].ok


@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_grad_check_perturbs_a_parameter_that_is_not_c_contiguous(layout):
    rng = np.random.default_rng(38)
    x = T.Tensor(rng.uniform(-1, 1, (4, 2)))
    w = rng.uniform(-1, 1, (2, 3))
    data = np.asfortranarray(w) if layout == "fortran" else np.ascontiguousarray(w.T).T
    params = {"w": T.Tensor(data, requires_grad=True)}
    assert not params["w"].data.flags.c_contiguous
    report = TO.grad_check(lambda p: TO.tsum(TO.tanh(T.matmul(x, p["w"]))), params)
    assert report["w"].ok, report
    assert params["w"].data is data
    npt.assert_array_equal(data, w)


def test_gather_scatter_roundtrip_gradients():
    params = {"h": T.Tensor(np.arange(12.0).reshape(4, 3) / 10, requires_grad=True)}
    idx = np.array([0, 2, 2, 3])

    def f(p):
        picked = T.gather_rows(p["h"], idx)
        spread = scatter_add_rows(picked, np.array([1, 1, 0, 2]), 4)
        return TO.tsum(TO.mul(spread, spread))

    report = TO.grad_check(f, params)
    assert report["h"].ok


def test_concat_slice_transpose_gradients():
    rng = np.random.default_rng(9)
    params = {"a": T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True),
              "b": T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)}

    def f(p):
        cat = T.concat([p["a"], p["b"]], axis=0)
        tr = T.transpose(cat, (1, 0))
        return TO.tsum(TO.tanh(T.slice_rows(tr, 0, 2)))

    report = TO.grad_check(f, params)
    assert all(e.ok for e in report.values())


def test_log_softmax_gradients():
    params = {"x": T.Tensor([[0.3, -1.2, 0.7], [2.0, 0.1, -0.5]],
                            requires_grad=True)}

    def f(p):
        return TO.tsum(TO.mul(T.log_softmax(p["x"]), T.Tensor([[1.0, 0, 0], [0, 1.0, 0]])))

    assert TO.grad_check(f, params)["x"].ok


def test_seeded_replay_is_bit_identical():
    def run():
        rng = np.random.default_rng(123)
        x = T.Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        loss = TO.tsum(TO.mul(TO.tanh(T.matmul(x, x)), TO.sigmoid(x)))
        T.backward(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


def test_no_grad_blocks_recording():
    x = T.Tensor(1.0, requires_grad=True)
    with T.no_grad():
        y = TO.mul(x, 2.0)
    assert not y.requires_grad and y._backward is None


def test_checkpoint_roundtrip(tmp_path):
    # a Fortran-ordered parameter is written in C order and loads back equal
    params = {"encoder.embedding": T.Tensor(np.arange(6.0).reshape(2, 3)),
              "gcn.0.0.w_loop": T.Tensor(np.eye(2)),
              "fortran": T.Tensor(np.asfortranarray(np.arange(12.0).reshape(3, 4))),
              "scalar": T.Tensor(2.5)}
    path = tmp_path / "ckpt.npz"
    T.save_checkpoint(path, params)
    with zipfile.ZipFile(path) as zf, zf.open("fortran.npy") as fh:
        np.lib.format.read_magic(fh)
        assert np.lib.format.read_array_header_1_0(fh) == ((3, 4), False, np.dtype("<f8"))
    loaded = {k: T.Tensor(np.zeros(p.shape)) for k, p in params.items()}
    T.load_checkpoint(path, loaded)
    for k in params:
        assert loaded[k].shape == params[k].shape, k
        npt.assert_array_equal(loaded[k].data, params[k].data)


def test_load_checkpoint_rejects_members_that_are_not_c_order_f8(tmp_path):
    path = tmp_path / "ckpt.npz"
    good = np.arange(6.0).reshape(2, 3)
    for member, detail in [(good.astype(np.float32), "dtype <f4 in C order"),
                           (good.astype(">f8"), "dtype >f8 in C order"),
                           (np.asfortranarray(good), "dtype <f8 in Fortran order")]:
        np.savez(path, a=good + 1.0, b=member, c=good + 2.0)
        params = {k: T.Tensor(np.zeros((2, 3))) for k in "abc"}
        with pytest.raises(ValueError) as info:
            T.load_checkpoint(path, params)
        assert str(info.value).startswith(f"checkpoint {path}, member b.npy: {detail} "
                                          f"is not supported"), info.value
        # members before the rejected one are read; it and later ones are not
        npt.assert_array_equal(params["a"].data, good + 1.0)
        npt.assert_array_equal(params["b"].data, np.zeros((2, 3)))
        npt.assert_array_equal(params["c"].data, np.zeros((2, 3)))


def test_load_checkpoint_reads_only_into_c_order_arrays(tmp_path):
    path = tmp_path / "ckpt.npz"
    T.save_checkpoint(path, {"w": T.Tensor(np.arange(6.0).reshape(2, 3))})
    dest = np.asfortranarray(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="member w.npy: the model's array is not C-order"):
        T.load_checkpoint(path, {"w": T.Tensor(dest)})
    npt.assert_array_equal(dest, np.zeros((2, 3)))


def test_load_checkpoint_rejects_truncated_and_object_members(tmp_path):
    path = tmp_path / "ckpt.npz"
    T.save_checkpoint(path, {"w": T.Tensor(np.arange(6.0))})
    with zipfile.ZipFile(path) as zf:
        member = zf.read("w.npy")
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("w.npy", member[:-8])
    with pytest.raises(ValueError, match="truncated array data"):
        T.load_checkpoint(path, {"w": T.Tensor(np.zeros(6))})
    np.savez(path, w=np.array([None, 1.0], dtype=object))
    with pytest.raises(ValueError, match="object arrays are not supported"):
        T.load_checkpoint(path, {"w": T.Tensor(np.zeros(2))})


@pytest.mark.parametrize("corruption", ["not-a-zip", "bad-crc", "encrypted-flag"])
def test_load_checkpoint_reports_a_corrupt_archive_as_value_error(tmp_path, corruption):
    path = tmp_path / "ckpt.npz"
    T.save_checkpoint(path, {"w": T.Tensor(np.arange(6.0))})
    raw = bytearray(path.read_bytes())
    if corruption == "not-a-zip":
        raw, where = b"not a checkpoint", f"checkpoint {path}: "
    elif corruption == "bad-crc":
        raw[raw.index(b"PK\x01\x02") - 1] ^= 0x01  # the last data byte
        where = f"checkpoint {path}, member w.npy: Bad CRC-32"
    else:
        raw[raw.index(b"PK\x01\x02") + 8] |= 0x01  # central directory flag bits
        where = f"checkpoint {path}, member w.npy: "
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as info:
        T.load_checkpoint(path, {"w": T.Tensor(np.zeros(6))})
    assert str(info.value).startswith(where)


def test_backward_frees_the_tape_while_the_caller_holds_the_loss():
    x = T.Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)

    def record():
        hidden = TO.tanh(x)  # only the tape keeps this node and its array
        return TO.tsum(TO.mul(hidden, hidden)), weakref.ref(hidden.data)

    loss, hidden_data = record()
    assert hidden_data() is not None
    T.backward(loss)
    assert hidden_data() is None
    npt.assert_allclose(x.grad, 2 * np.tanh(x.data) * (1 - np.tanh(x.data) ** 2),
                        rtol=1e-12)


def test_second_backward_through_a_consumed_graph_raises():
    x = T.Tensor(np.array([0.5, -2.0]), requires_grad=True)
    hidden = TO.mul(x, x)
    loss = TO.tsum(hidden)
    T.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ValueError, match="consumed by an earlier backward"):
        T.backward(loss)
    with pytest.raises(ValueError, match="consumed by an earlier backward"):
        T.backward(TO.tsum(TO.mul(hidden, 3.0)))  # a new graph over a consumed node
    assert x._backward is None and x._parents == ()
    x.grad = first
    T.backward(TO.tsum(TO.mul(x, x)))  # a fresh graph over the same leaf
    npt.assert_allclose(x.grad, 2 * first, rtol=0, atol=0)


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
    T.backward(TO.tsum(TO.mul(T.matmul(a, b), T.Tensor(G))))
    gA, gB = _per_index_matmul_grads(a.data, b.data, G)
    npt.assert_allclose(a.grad, gA, rtol=0, atol=1e-12)
    npt.assert_allclose(b.grad, gB, rtol=0, atol=1e-12)
    assert a.grad.shape == a_shape and b.grad.shape == b_shape

    report = TO.grad_check(lambda p: TO.tsum(TO.tanh(T.matmul(p["a"], p["b"]))),
                           {"a": a, "b": b})
    assert all(e.ok for e in report.values())


def test_matmul_vector_a_gradients():
    rng = np.random.default_rng(33)
    a = T.Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
    b = T.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    G = rng.uniform(-1, 1, 3)
    T.backward(TO.tsum(TO.mul(T.matmul(a, b), T.Tensor(G))))
    npt.assert_allclose(a.grad, b.data @ G, rtol=0, atol=1e-12)
    npt.assert_allclose(b.grad, np.outer(a.data, G), rtol=0, atol=1e-12)

    report = TO.grad_check(lambda p: TO.tsum(TO.tanh(T.matmul(p["a"], p["b"]))),
                           {"a": a, "b": b})
    assert all(e.ok for e in report.values())


def test_backward_keeps_gradients_on_leaves_only():
    rng = np.random.default_rng(32)
    x = T.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
    const = T.Tensor(rng.uniform(-1, 1, (3, 2)))
    h = T.matmul(x, w)
    y = TO.tanh(h)
    loss = TO.tsum(TO.mul(y, const))
    T.backward(loss)
    for node in (h, y, loss):
        assert node.requires_grad and node.grad is None
    assert const.grad is None
    dh = const.data * (1.0 - np.tanh(x.data @ w.data) ** 2)
    npt.assert_allclose(x.grad, dh @ w.data.T, rtol=1e-14)
    npt.assert_allclose(w.grad, x.data.T @ dh, rtol=1e-14)
    # a second backward still accumulates into the leaves
    T.backward(TO.tsum(TO.mul(T.matmul(x, w), T.Tensor(const.data))))
    npt.assert_allclose(w.grad, x.data.T @ dh + x.data.T @ const.data, rtol=1e-14)


# -- in-place accumulation in backward: every array an adjoint returns is
#    backward's to write, so a node's first gradient (which may be a view of
#    its child's) takes the later ones in place. Integer and dyadic values
#    keep every sum exact, so the closed forms hold bit for bit whatever
#    order the gradients arrive in.

def _tape(loss):
    seen, stack, nodes = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_operands_of_one_add_receive_the_same_array():
    a = T.Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    b = T.Tensor([[4.0, 0.25], [-1.0, 2.0]], requires_grad=True)
    c = T.Tensor([[3.0, -1.0], [2.0, 0.5]])
    d = T.Tensor(a.data * 2.0, requires_grad=True)
    e = T.Tensor(b.data * 2.0, requires_grad=True)
    s = a + b
    T.backward(TO.tsum(TO.mul(s, c)) + TO.tsum(a) + TO.tsum(TO.mul(d + e, c)))
    npt.assert_array_equal(b.grad, c.data)
    npt.assert_array_equal(a.grad, c.data + 1.0)
    npt.assert_array_equal(d.grad, c.data)
    npt.assert_array_equal(e.grad, c.data)
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(d.grad, e.grad)
    npt.assert_array_equal(c.data, [[3.0, -1.0], [2.0, 0.5]])


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
@pytest.mark.parametrize("second_use", ["dense", "gather"])
def test_second_gradient_never_writes_a_shared_first_one(order, second_use):
    # a and the intermediate h receive their gradients from one same-shape
    # add; a's second gradient must not reach the array h still reads
    a = T.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    w = T.Tensor(np.arange(4.0).reshape(2, 2) / 4, requires_grad=True)
    c = np.array([[3.0, -1.0], [2.0, 0.5]])
    h = T.reshape(w, (2, 2))
    second = T.gather_rows(a, [1, 0, 1]) if second_use == "gather" else a
    terms = [TO.tsum(TO.mul(a + h, T.Tensor(c))), TO.tsum(second),
             TO.tsum(T.reshape(T.reshape(h, (4,)), (2, 2)))]
    terms = [terms[i] for i in order]
    T.backward(terms[0] + terms[1] + terms[2])
    npt.assert_array_equal(a.grad, c + ([[1.0, 1.0], [2.0, 2.0]]
                                        if second_use == "gather" else 1.0))
    npt.assert_array_equal(w.grad, c + 1.0)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_fresh_gradient_never_writes_a_shared_borrowed_one(order):
    # a and h receive gradients from one same-shape add, first or second,
    # and each also a matmul gradient; neither sum may reach the other's
    a = T.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    w = T.Tensor(np.arange(4.0).reshape(2, 2) / 4, requires_grad=True)
    c = np.array([[3.0, -1.0], [2.0, 0.5]])
    h = T.reshape(w, (2, 2))
    terms = [TO.tsum(TO.mul(a + h, T.Tensor(c))), TO.tsum(T.matmul(a, T.Tensor(c))),
             TO.tsum(T.matmul(T.Tensor(c), h))]
    terms = [terms[i] for i in order]
    T.backward(terms[0] + terms[1] + terms[2])
    ones = np.ones((2, 2))
    npt.assert_array_equal(a.grad, c + ones @ c.T)
    npt.assert_array_equal(w.grad, c + c.T @ ones)


def test_backward_leaf_through_reshape_concat_stack0_views_and_direct_use():
    x = T.Tensor(np.arange(6.0).reshape(2, 3) - 2.5, requires_grad=True)
    y = T.Tensor(np.ones((1, 3)), requires_grad=True)
    c1 = np.arange(6.0).reshape(3, 2)
    c2 = np.arange(9.0).reshape(3, 3) - 4.0
    c3 = np.arange(12.0).reshape(2, 2, 3) * 0.5
    c4 = np.full((2, 3), 2.0)
    loss = (TO.tsum(TO.mul(T.reshape(x, (3, 2)), T.Tensor(c1)))
            + TO.tsum(TO.mul(T.concat([x, y], axis=0), T.Tensor(c2)))
            + TO.tsum(TO.mul(TO.stack0([x, x]), T.Tensor(c3)))
            + TO.tsum(TO.mul(x, T.Tensor(c4))))
    T.backward(loss)
    npt.assert_array_equal(x.grad, c1.reshape(2, 3) + c2[:2] + c3[0] + c3[1] + c4)
    npt.assert_array_equal(y.grad, c2[2:])


def test_backward_square_plus_identity_on_arrays():
    x = T.Tensor([0.5, -1.25, 3.0, 0.0], requires_grad=True)
    T.backward(TO.tsum(TO.mul(x, x) + x))
    npt.assert_array_equal(x.grad, 2.0 * x.data + 1.0)


@pytest.mark.parametrize("uses", [1, 2])
def test_second_backward_leaves_the_callers_gradient_array_alone(uses):
    # one use leaves the leaf the adjoint's own array, two the sum built in it
    x = T.Tensor([1.0, 2.0, -3.0], requires_grad=True)
    c = T.Tensor([0.5, -2.0, 4.0])

    def loss():
        return TO.tsum(TO.mul(x, c)) if uses == 1 else TO.tsum(TO.mul(x, c)) + TO.tsum(TO.mul(x, c))

    T.backward(loss())
    kept = x.grad
    T.backward(loss())
    npt.assert_array_equal(kept, uses * c.data)
    npt.assert_array_equal(x.grad, 2 * uses * c.data)
    assert not np.shares_memory(kept, x.grad)


def test_leaf_takes_a_fresh_matmul_gradient_without_a_copy():
    rng = np.random.default_rng(35)
    x = T.Tensor(rng.uniform(-1, 1, (4, 512)))
    w = T.Tensor(rng.uniform(-1, 1, (512, 512)), requires_grad=True)
    loss = TO.tsum(T.matmul(x, w))
    tracemalloc.start()
    try:
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (512, 512) gradient is allocated once, by the adjoint's GEMM
    assert peak < 2 * w.data.nbytes
    assert x.grad is None
    npt.assert_array_equal(w.grad, x.data.T @ np.ones((4, 512)))


def test_leaf_takes_the_array_an_adjoint_returns_without_a_copy():
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    arr = np.array([0.5, 4.0])
    T.backward(TO.tsum(T.node(3.0 * x.data, (x,), lambda g: (arr,))))
    assert x.grad is arr
    # a 0-d leaf reached three times through broadcasting: its gradients are
    # numpy scalars, which cannot be added in place, so each sum is stored
    s = T.Tensor(0.5, requires_grad=True)
    v = T.Tensor([1.0, 2.0, 3.0])
    T.backward(TO.tsum(TO.mul(s, v)) + TO.tsum(TO.mul(TO.mul(s, v), v)) + TO.tsum(v + s))
    assert s.grad == 6.0 + 14.0 + 3.0


@pytest.mark.parametrize("view_first", [True, False])
def test_an_accumulator_that_is_a_view_takes_the_sum_in_a_new_array(view_first):
    # a receives a view of the concat's gradient and a copy from tsum; the
    # array its adjoint gets shares no memory with the concat's gradient,
    # so that gradient need not live until a is reached
    x = T.Tensor(np.arange(4.0), requires_grad=True)
    cat_grads, shared = [], []
    a = T.node(x.data * 1.0, (x,),
               lambda g: (shared.append(np.shares_memory(g, cat_grads[0])) or g,))
    cat = T.concat([a, T.Tensor(np.zeros(1000))])
    adjoint = cat._backward
    cat._backward = lambda g: (cat_grads.append(g) or adjoint(g))
    terms = [TO.tsum(TO.mul(cat, T.Tensor(np.full(1004, 2.0)))), TO.tsum(a)]
    T.backward(terms[0] + terms[1] if view_first else terms[1] + terms[0])
    assert shared == [False]
    npt.assert_array_equal(x.grad, np.full(4, 3.0))


def _calls_node(fn) -> bool:
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "node"
               for n in ast.walk(tree))


def _recording_ops():
    """Public functions of the layer modules and of ``tape_ops`` that call
    ``tensor.node``."""
    return {name: fn for mod in (T, TO, E, D, TR) for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__
            and not name.startswith("_") and name != "node" and _calls_node(fn)}


def _adjoint_cases(x, rng):
    """Argument tuples per recording op; ``x(*shape)`` makes a leaf."""
    s = x(2, 3)
    gru = E.init_gru(rng, 3, 4)
    gcn = E.init_gcn_layer(rng, 4, {"syn": 2, "sem": 3})
    edges = {"syn": [(0, 1, 0), (1, 2, 1), (2, 0, 0)], "sem": [(0, 2, 2), (1, 1, 0)]}
    dec = D.build_decoder(6, 2, 4, 3, 2, rng)  # vocab, emb, hidden, enc width, attn
    enc = E.EncoderOutput(states=x(2, 3, 3), mask=np.array([[True, True, False],
                                                            [True, True, True]]))
    pad = np.array([[True, True], [True, False], [True, False]])  # (len, batch)
    return {
        "add": [(x(2, 3), x(2, 3)), (s, s), (x(2, 3), x(3)), (x(1, 3), x(2, 1))],
        "sub": [(x(2, 3), x(2, 3)), (s, s), (x(2, 3), x(1, 3))],
        "mul": [(x(2, 3), x(2, 3)), (s, s), (x(2, 3), x())],
        "neg": [(x(2, 3),)],
        "matmul": [(x(2, 3), x(3, 4)), (x(2, 2, 3), x(3)), (s, x(3, 3))],
        "relu": [(x(2, 3),)],
        "sigmoid": [(x(2, 3),)],
        "tanh": [(x(2, 3),)],
        "softmax": [(x(2, 3),), (x(2, 3), [[True, False, True], [False, True, True]])],
        "log_softmax": [(x(2, 3),), (x(3, 2),)],
        "tsum": [(x(2, 3),), (x(2, 3), 1)],
        "concat": [([x(2, 3), x(1, 3)],), ([s, s], 1)],
        "stack0": [([x(2, 3), x(2, 3)],), ([s, s],)],
        "weighted_sum": [(x(2, 4), x(2, 4, 3)), (x(2, 4), x(4, 3))],
        "gather_rows": [(x(4, 3), [0, 2, 2])],
        "slice_rows": [(x(4, 3), 1, 3)],
        "reshape": [(x(2, 3), (3, 2))],
        "transpose": [(x(2, 3), (1, 0))],
        "gru_sequence": [(x(3, 2, 3), gru), (x(2, 3), gru, True),
                         (x(3, 2, 3), gru, True, pad)],
        "cnn_encode": [(x(3, 2, 2), x(6, 4), x(4)), (x(3, 2, 2), x(6, 4), x(4), pad)],
        "teacher_forcing_recurrence": [([[1, 4, 2], [5, 0, 3]], enc, dec)],
        "gcn_layer": [(x(3, 4), edges, gcn),
                      (x(3, 4), edges, gcn, 0.5, np.random.default_rng(40))],
        "nll_loss": [(x(3, 4), [1, 4, 0], [1.0, 1.0, 0.0], x(4, 5), x(5))],
    }


def test_every_recording_op_has_an_adjoint_case():
    ops = set(_recording_ops())
    assert {"add", "matmul", "softmax", "gru_sequence", "teacher_forcing_recurrence",
            "gcn_layer", "nll_loss"} <= ops
    cases = _adjoint_cases(lambda *shape: T.Tensor(np.zeros(shape)), np.random.default_rng(0))
    assert set(cases) == ops


@pytest.mark.parametrize("name", sorted(_recording_ops()))
def test_adjoint_returns_arrays_backward_may_write(name):
    # each dense gradient is backward's to write: it overlaps no other one
    # and no forward value (the node's or a parent's)
    rng = np.random.default_rng(39)
    cases = _adjoint_cases(
        lambda *shape: T.Tensor(rng.uniform(-1, 1, shape), requires_grad=True), rng)
    op = _recording_ops()[name]
    for args in cases[name]:
        out = op(*args)
        forward = [out.data] + [p.data for p in out._parents]
        dense = [a for a in out._backward(rng.uniform(-1, 1, out.shape))
                 if isinstance(a, np.ndarray)]
        assert dense
        for i, a in enumerate(dense):
            assert not any(np.shares_memory(a, f) for f in forward), (args, i)
            assert not any(np.shares_memory(a, b) for b in dense[i + 1:]), (args, i)


def test_backward_writes_no_forward_value():
    rng = np.random.default_rng(34)
    x = T.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    h = TO.tanh(T.matmul(x, w))
    parts = [T.reshape(h, (3, 4)), T.transpose(h, (1, 0)),
             T.concat([h, x], axis=0), TO.stack0([h, x, h]),
             T.gather_rows(h, [0, 0, 3]), T.slice_rows(x, 1, 3),
             h + x, TO.sub(h, x), TO.mul(T.relu(h), x), TO.neg(x), TO.sigmoid(h)]
    loss = TO.tsum(T.log_softmax(TO.softmax(h + x)))
    for part in parts:
        loss = loss + TO.tsum(TO.mul(part, part)) + TO.tsum(part)
    nodes = _tape(loss)
    before = [node.data.copy() for node in nodes]
    T.backward(loss)
    for node, data in zip(nodes, before):
        npt.assert_array_equal(node.data, data)


# -- adjoints of gather_rows and slice_rows against dense oracles

def _gather_oracle(shape, idx, g):
    out = np.zeros(shape)
    np.add.at(out, np.asarray(idx), g)
    return out


@pytest.mark.parametrize("idx", [[0, 2, 2, 2, 4], [[0, 2, 2], [4, 0, 0]], 3],
                         ids=["repeats", "ids.T", "scalar"])
def test_gather_rows_sparse_adjoint_matches_dense_oracle(idx):
    rng = np.random.default_rng(35)
    a = T.Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
    G = rng.uniform(-1, 1, a.data[np.asarray(idx)].shape)
    T.backward(TO.tsum(TO.mul(T.gather_rows(a, idx), T.Tensor(G))))
    npt.assert_allclose(a.grad, _gather_oracle(a.shape, idx, G), rtol=0, atol=1e-15)
    report = TO.grad_check(lambda p: TO.tsum(TO.tanh(T.gather_rows(p["a"], idx))),
                           {"a": a})
    assert report["a"].ok


@pytest.mark.parametrize("start,stop", [(0, 2), (3, 5), (0, 5), (2, 3)])
def test_slice_rows_sparse_adjoint_matches_dense_oracle(start, stop):
    rng = np.random.default_rng(36)
    a = T.Tensor(rng.uniform(-1, 1, (5, 2, 3)), requires_grad=True)
    G = rng.uniform(-1, 1, (stop - start, 2, 3))
    T.backward(TO.tsum(TO.mul(T.slice_rows(a, start, stop), T.Tensor(G))))
    want = np.zeros(a.shape)
    want[start:stop] = G
    npt.assert_array_equal(a.grad, want)
    report = TO.grad_check(
        lambda p: TO.tsum(TO.tanh(T.slice_rows(p["a"], start, stop))), {"a": a})
    assert report["a"].ok


@pytest.mark.parametrize("gather_first", [True, False])
def test_leaf_reached_by_gather_and_dense_op(gather_first):
    rng = np.random.default_rng(37)
    params = {k: T.Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True) for k in "ab"}
    idx = np.array([[1, 5], [5, 0], [1, 1]])
    G = rng.uniform(-1, 1, (3, 2, 4))
    C = rng.uniform(-1, 1, (6, 4))

    def f(p):
        sparse = TO.tsum(TO.mul(T.gather_rows(p["a"], idx), T.Tensor(G)))
        tail = TO.tsum(T.slice_rows(p["a"], 4, 6))
        # a and b first receive the same array from the add
        dense = TO.tsum(TO.mul(p["a"] + p["b"], T.Tensor(C)))
        return (sparse + tail) + dense if gather_first else dense + (tail + sparse)

    T.backward(f(params))
    want = _gather_oracle((6, 4), idx, G) + C
    want[4:6] += 1.0
    npt.assert_allclose(params["a"].grad, want, rtol=0, atol=1e-15)
    npt.assert_array_equal(params["b"].grad, C)
    assert all(e.ok for e in TO.grad_check(f, params).values())


def test_row_sparse_adjoint_reaches_adjoints_as_a_dense_array():
    a = T.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    seen = []

    def doubled_bwd(g):
        seen.append(g)
        return (2.0 * g,)

    h = T.node(2.0 * a.data, (a,), doubled_bwd)
    loss = TO.tsum(T.gather_rows(h, [3, 3, 0])) + TO.tsum(T.slice_rows(h, 1, 2))
    T.backward(loss)
    assert len(seen) == 1 and type(seen[0]) is np.ndarray
    npt.assert_array_equal(seen[0], [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
    npt.assert_array_equal(a.grad, 2.0 * seen[0])


@pytest.mark.parametrize("w_shape, a_shape", [
    ((4,), (4, 3)), ((2, 4), (2, 4, 3)), ((5, 4), (4, 3)), ((2, 5, 4), (4, 3)),
])
def test_weighted_sum_matches_broadcast_product_and_finite_differences(w_shape, a_shape):
    rng = np.random.default_rng(13)
    params = {"w": T.Tensor(rng.uniform(-1, 1, w_shape), requires_grad=True),
              "a": T.Tensor(rng.uniform(-1, 1, a_shape), requires_grad=True)}
    out = TO.weighted_sum(params["w"], params["a"])
    want = (params["w"].data[..., None] * params["a"].data).sum(axis=-2)
    npt.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    assert out._parents == (params["w"], params["a"])
    report = TO.grad_check(lambda p: TO.tsum(TO.tanh(TO.weighted_sum(p["w"], p["a"]))), params)
    assert all(e.ok for e in report.values())


def test_weighted_sum_shape_error_names_shapes():
    with pytest.raises(T.ShapeError, match=r"\(3,\).*\(4, 2\)"):
        TO.weighted_sum(T.Tensor(np.ones(3)), T.Tensor(np.ones((4, 2))))
