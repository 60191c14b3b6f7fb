import gc
import math
import weakref

import numpy as np
import pytest

from setfusion import tensor as T
from setfusion.errors import ContractError, NumericOverflowError, ShapeError


def check_grad(f, x, tol=1e-5, eps=1e-5):
    """Compare tape gradients against the central-difference oracle."""
    x.requires_grad = True
    x.grad = None
    with T.Tape() as tape:
        loss = f(x)
        tape.backward(loss)
    ad = x.grad.reshape(x.shape)
    fd = T.finite_diff_grad(f, x, eps=eps).data
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-8)
    rel = np.abs(ad - fd) / denom
    assert rel.max() < tol, f"max rel err {rel.max():.3e}"


def scalarize(weights):
    w = T.Tensor(weights)

    def to_scalar(y):
        flat = T.reshape(y, [y.size])
        return T.reduce_sum(T.ew_binary("mul", flat, T.reshape(w, [w.size])), 0)

    return to_scalar


# ------------------------------------------------------------------ Tensor

def test_invariant_size_matches_shape():
    t = T.Tensor(np.random.default_rng(0).uniform(0, 1, (3, 4, 2)))
    assert len(t.values) == 3 * 4 * 2


# ------------------------------------------------------------------- matmul

def test_matmul_identity():
    eye = T.Tensor(np.eye(2))
    m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_zero_weights():
    a = T.Tensor([[1.0, 2.0]])
    b = T.Tensor([[0.0], [0.0]])
    assert np.array_equal(T.matmul(a, b).data, [[0.0]])


def test_matmul_hand_case():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0], [6.0]])
    assert np.array_equal(T.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_matmul_rows_matches_matmul():
    rng = np.random.default_rng(3)
    a = T.Tensor(rng.standard_normal((5, 4)))
    b = T.Tensor(rng.standard_normal((4, 6)))
    got = T.matmul_rows(a, b).data
    want = a.data @ b.data
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_matmul_rows_bit_stable_under_row_permutation():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal((12, 33))
        b = rng.standard_normal((33, 33))
        perm = rng.permutation(12)
        c = T.matmul_rows(T.Tensor(a), T.Tensor(b)).data
        cp = T.matmul_rows(T.Tensor(a[perm]), T.Tensor(b)).data
        assert np.array_equal(cp, c[perm])


def test_matmul_rows_bits_equal_the_per_row_loop():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n, k, p = (int(v) for v in rng.integers(1, 70, 3))
        b = rng.standard_normal((k, p))
        for a in (rng.standard_normal((n, k)),
                  rng.standard_normal((k, n)).T,  # transposed view: rows are strided
                  np.asfortranarray(rng.standard_normal((n, k))),
                  rng.standard_normal((n, 2 * k))[:, ::2]):
            want = np.vstack([a[i : i + 1] @ b for i in range(n)])
            assert T.matmul_rows(T.Tensor(a), T.Tensor(b)).data.tobytes() == want.tobytes()


# ---------------------------------------------------------------- ew_binary

def test_ew_mul_small():
    got = T.ew_binary("mul", T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
    assert np.array_equal(got.data, [3.0, 8.0])


def test_ew_mul_identity():
    x = T.Tensor(np.random.default_rng(0).standard_normal(5))
    got = T.ew_binary("mul", x, T.Tensor(np.ones(5)))
    assert np.array_equal(got.data, x.data)


def test_ew_add_inverse():
    got = T.ew_binary("add", T.Tensor([1.0, 2.0]), T.Tensor([-1.0, -2.0]))
    assert np.array_equal(got.data, [0.0, 0.0])


def test_ew_scalar_operand():
    got = T.Tensor([1.0, 2.0]) * 2.0
    assert np.array_equal(got.data, [2.0, 4.0])


def test_ew_shape_mismatch():
    with pytest.raises(ShapeError):
        T.ew_binary("add", T.Tensor([1.0, 2.0]), T.Tensor([1.0, 2.0, 3.0]))


# ------------------------------------------------------------ sigmoid/relu

def test_unary_values():
    assert T.sigmoid(T.Tensor([0.0])).data[0] == 0.5
    assert np.array_equal(T.relu(T.Tensor([-2.0, 3.0])).data, [0.0, 3.0])


# -------------------------------------------------------------- softmax_set

def test_softmax_single_element_is_one():
    out = T.softmax_set(T.Tensor([[123.456, -7.0, 0.0]]))
    assert np.array_equal(out.data, np.ones((1, 3)))


def test_softmax_uniform():
    out = T.softmax_set(T.Tensor(np.full((4, 3), 2.5)))
    assert np.array_equal(out.data, np.full((4, 3), 0.25))


def test_softmax_hand_case():
    c = np.zeros((2, 1))
    c[1, 0] = math.log(3.0)
    out = T.softmax_set(T.Tensor(c)).data
    assert abs(out[0, 0] - 0.25) < 1e-15
    assert abs(out[1, 0] - 0.75) < 1e-15


def test_softmax_columns_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 16))
        d = int(rng.integers(1, 16))
        out = T.softmax_set(T.Tensor(rng.standard_normal((n, d)) * 10)).data
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-12


def test_softmax_shift_invariance_bit_exact():
    # Integer-valued inputs and shifts make the additions exact, so the
    # stabilized softmax must reproduce the very same bits.
    rng = np.random.default_rng(12)
    for _ in range(20):
        c = rng.integers(-40, 40, size=(6, 5)).astype(np.float64)
        k = rng.integers(-1000, 1000, size=(1, 5)).astype(np.float64)
        a = T.softmax_set(T.Tensor(c)).data
        b = T.softmax_set(T.Tensor(c + k)).data
        assert np.array_equal(a, b)


def test_softmax_large_inputs_stable():
    out = T.softmax_set(T.Tensor([[1e4], [1e4 - 1.0]])).data
    assert np.isfinite(out).all()


# --------------------------------------------------------------- reductions

def test_reduce_sum_axes():
    m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.reduce_sum(m, 0).data, [4.0, 6.0])
    assert np.array_equal(T.reduce_sum(m, 1).data, [3.0, 7.0])


def test_reduce_sum_singleton_axis():
    m = T.Tensor([[1.0, 2.0, 3.0]])
    assert np.array_equal(T.reduce_sum(m, 0).data, [1.0, 2.0, 3.0])


def test_reduce_sum_bad_axis():
    with pytest.raises(ShapeError):
        T.reduce_sum(T.Tensor([1.0]), 1)


def test_set_sum_permutation_bit_stable():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        a = rng.standard_normal((n, 7))
        perm = rng.permutation(n)
        assert np.array_equal(T.set_sum(T.Tensor(a)).data, T.set_sum(T.Tensor(a[perm])).data)


def test_set_max_value_and_grad_routing():
    a = T.Tensor([[1.0, 5.0], [3.0, 2.0]], requires_grad=True)
    with T.Tape() as tape:
        y = T.set_max(a)
        loss = T.reduce_sum(y, 0)
        tape.backward(loss)
    assert np.array_equal(y.data, [3.0, 5.0])
    assert np.array_equal(a.grad.reshape(2, 2), [[0.0, 1.0], [1.0, 0.0]])


def test_set_max_tie_routes_to_first():
    a = T.Tensor([[2.0], [2.0]], requires_grad=True)
    with T.Tape() as tape:
        loss = T.reduce_sum(T.set_max(a), 0)
        tape.backward(loss)
    assert np.array_equal(a.grad, [1.0, 0.0])


# ----------------------------------------------------------------- bce_loss

def test_bce_perfect_prediction_near_zero():
    loss = T.bce_loss(T.Tensor([1.0]), T.Tensor([1.0]))
    assert loss.item() == pytest.approx(1e-7, rel=1e-3)


def test_bce_half_prediction_is_ln2():
    assert T.bce_loss(T.Tensor([0.5]), T.Tensor([1.0])).item() == pytest.approx(math.log(2.0), abs=1e-12)
    assert T.bce_loss(T.Tensor([0.5]), T.Tensor([0.0])).item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_shape_mismatch():
    with pytest.raises(ShapeError):
        T.bce_loss(T.Tensor([0.5, 0.5]), T.Tensor([1.0]))


# ----------------------------------------------------------------- backward

def test_backward_of_sum_is_ones():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.reduce_sum(x, 0)
        tape.backward(loss)
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_of_square():
    x = T.Tensor([2.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.reduce_sum(T.ew_binary("mul", x, x), 0)
        tape.backward(loss)
    assert np.array_equal(x.grad, [4.0])


def test_backward_rejects_second_call():
    x = T.Tensor([2.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.reduce_sum(x, 0)
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)


def test_reshape_to_same_extents_records_nothing():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    with T.Tape() as tape:
        assert T.reshape(x, [2, 3]) is x
    assert tape.entries == []


def test_reshape_size_mismatch_raises():
    with pytest.raises(ShapeError):
        T.reshape(T.Tensor(np.ones((2, 3))), [4, 2])


def test_op_without_path_to_trainable_leaf_records_nothing():
    rng = np.random.default_rng(7)
    w = T.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    x = T.Tensor(rng.standard_normal((4, 3)))
    with T.Tape() as tape:
        T.matmul(x, w)  # recorded: w is trainable
        T.relu(x)  # x is an input above, but leads to no trainable leaf
        T.reshape(T.ew_binary("mul", x, x), [12])
    assert len(tape.entries) == 1
    assert not tape.needs(x) and len(tape.tensors) == 2


def test_matmul_skips_the_frozen_weight_product():
    rng = np.random.default_rng(8)
    g = T.Tensor(rng.standard_normal((4, 5)))
    a = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = T.Tensor(rng.standard_normal((3, 5)))
    grads = {}
    for b_trainable in (False, True):
        a.grad, b.grad, b.requires_grad = None, None, b_trainable
        with T.Tape() as tape:
            y = T.ew_binary("mul", T.matmul(a, b), g)
            tape.backward(T.reduce_sum(T.reduce_sum(y, 1), 0))
        grads[b_trainable] = (a.grad, b.grad)
    assert grads[False][1] is None
    assert grads[True][1] is not None
    assert np.array_equal(grads[False][0], grads[True][0])


def test_sigmoid_matches_three_exp_formula_bit_for_bit():
    x = np.random.default_rng(9).standard_normal((16, 4096)) * 8.0
    want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert np.array_equal(T.sigmoid(T.Tensor(x)).data, want)


def test_backward_rejects_nonscalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape() as tape:
        y = T.ew_binary("mul", x, x)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_backward_detached_leaf_gets_no_grad():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.Tensor([3.0, 4.0])  # detached
    with T.Tape() as tape:
        loss = T.reduce_sum(T.ew_binary("mul", x, y), 0)
        tape.backward(loss)
    assert x.grad is not None
    assert y.grad is None


def test_backward_requires_tape():
    loss = T.reduce_sum(T.Tensor([1.0]), 0)  # no active tape, nothing recorded
    with pytest.raises(ContractError):
        T.backward(loss)


def test_shared_leaf_accumulates():
    x = T.Tensor([1.5], requires_grad=True)
    with T.Tape() as tape:
        loss = T.reduce_sum(T.ew_binary("add", x, x), 0)
        tape.backward(loss)
    assert np.array_equal(x.grad, [2.0])


def test_added_leaves_get_grads_that_share_no_memory():
    a = T.Tensor([1.0, 2.0], requires_grad=True)
    b = T.Tensor([3.0, 4.0], requires_grad=True)
    with T.Tape() as tape:
        tape.backward(T.reduce_sum(a + b, 0))
    assert np.array_equal(a.grad, [1.0, 1.0]) and np.array_equal(b.grad, [1.0, 1.0])
    assert not np.shares_memory(a.grad, b.grad)


def _copy_first_backward(tape, loss):
    """The reverse sweep with every first gradient piece copied: the
    accumulation rule ``Tape.backward`` must reproduce bit for bit."""
    grads = [None] * len(tape.tensors)
    grads[tape.node(loss)] = np.ones_like(loss.data)
    for out_id, in_ids, need, backward_fn in reversed(tape.entries):
        g = grads[out_id]
        if g is None:
            continue
        for nid, piece in zip(in_ids, backward_fn(g, need)):
            if nid is None or piece is None:
                continue
            if grads[nid] is None:
                grads[nid] = piece.copy()
            else:
                grads[nid] += piece
    return [g for t, g in zip(tape.tensors, grads) if t.requires_grad and g is not None]


def _random_graph(rng, leaves, weight, steps=12):
    """A random [n,d] graph over ``leaves``, mixing ops whose pieces are
    g itself, views of g and fresh arrays, with reused intermediates."""
    nodes = list(leaves)
    n = leaves[0].shape[0]
    for _ in range(steps):
        x, y = (nodes[i] for i in rng.integers(len(nodes), size=2))
        op = rng.integers(9)
        if op == 0:
            z = x + y
        elif op == 1:
            z = x * y
        elif op == 2:
            z = T.matmul(x, weight)
        elif op == 3:
            z = T.relu(x - y)
        elif op == 4:
            z = T.softmax_set(x)
        elif op == 5:
            z = T.stack_rows([T.take_rows(x, [int(i)]) for i in rng.permutation(n)])
        elif op == 6:
            i = int(rng.integers(n))
            z = T.add_rowvec(T.sigmoid(x), T.take_rows(y, [i]))
        elif op == 7:
            z = T.reshape(T.reshape(x, [x.size]), x.shape) + T.set_sum(T.reshape(y, [y.size])) * 0.01
        else:
            d = x.shape[1]
            z = T.add_rowvec(T.repeat_cols(T.reshape(T.reduce_sum(y, 1), [n, 1]), d),
                             T.reshape(T.set_max(x), [1, d]))
        nodes.append(z)
    return nodes[-1] + nodes[len(leaves) + steps // 2] + leaves[0]


def test_first_pieces_kept_in_place_match_the_copy_first_rule_bit_for_bit():
    rng = np.random.default_rng(14)
    for trial in range(40):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        leaves = [T.Tensor(rng.standard_normal((n, d)), requires_grad=bool(rng.integers(2)) or i == 0)
                  for i in range(3)]
        weight = T.Tensor(rng.standard_normal((d, d)), requires_grad=bool(rng.integers(2)))
        before = [t.data.copy() for t in (*leaves, weight)]
        with T.Tape() as tape:
            out = _random_graph(rng, leaves, weight)
            loss = T.reduce_sum(T.reduce_sum(out * T.Tensor(rng.standard_normal((n, d))), 1), 0)
            want = _copy_first_backward(tape, loss)
            tape.backward(loss)
        got = [t.grad for t in tape.tensors if t.requires_grad and t.grad is not None]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert all(np.array_equal(t.data, b) for t, b in zip((*leaves, weight), before))
        for i, g in enumerate(got):
            assert not any(np.shares_memory(g, h) for h in got[i + 1:])


def test_released_tape_frees_its_graph_without_gc():
    rng = np.random.default_rng(10)
    x = T.Tensor(rng.standard_normal((4, 3)))
    w = T.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    gc.disable()
    try:
        with T.Tape() as tape:
            hidden = T.relu(T.matmul(x, w))
            tape.backward(T.reduce_sum(T.reduce_sum(hidden, 1), 0))
        probe = weakref.ref(hidden.data)
        del hidden
        assert probe() is not None  # the tape still holds its graph
        del tape
        assert probe() is None
    finally:
        gc.enable()


# -------------------------------------------------------------- finite diff

def test_fd_of_sum_is_ones():
    x = T.Tensor(np.random.default_rng(1).standard_normal(4))
    fd = T.finite_diff_grad(lambda t: T.reduce_sum(t, 0), x)
    assert np.abs(fd.data - 1.0).max() < 1e-9


def test_fd_of_square():
    fd = T.finite_diff_grad(lambda t: T.reduce_sum(t * t, 0), T.Tensor([3.0]))
    assert abs(fd.data[0] - 6.0) < 1e-7


# ------------------------------------------------- gradient property checks

def _rand(rng, shape, away_from_zero=False):
    x = rng.uniform(0.2, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    if not away_from_zero:
        x = rng.standard_normal(shape)
    return x


def test_gradcheck_matmul():
    rng = np.random.default_rng(100)
    for trial in range(20):
        m, k, p = (int(rng.integers(1, 9)) for _ in range(3))
        b = T.Tensor(rng.standard_normal((k, p)))
        w = scalarize(rng.standard_normal(m * p))
        check_grad(lambda t: w(T.matmul(t, b)), T.Tensor(rng.standard_normal((m, k))))
        a = T.Tensor(rng.standard_normal((m, k)))
        check_grad(lambda t: w(T.matmul(a, t)), T.Tensor(rng.standard_normal((k, p))))


def test_gradcheck_matmul_rows():
    rng = np.random.default_rng(101)
    for trial in range(20):
        m, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        b = T.Tensor(rng.standard_normal((k, k)))
        w = scalarize(rng.standard_normal(m * k))
        check_grad(lambda t: w(T.matmul_rows(t, b)), T.Tensor(rng.standard_normal((m, k))))


def test_gradcheck_ew():
    rng = np.random.default_rng(102)
    for trial in range(20):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        other = T.Tensor(rng.standard_normal(shape))
        w = scalarize(rng.standard_normal(int(np.prod(shape))))
        check_grad(lambda t: w(T.ew_binary("add", t, other)), T.Tensor(rng.standard_normal(shape)))
        check_grad(lambda t: w(T.ew_binary("mul", t, other)), T.Tensor(rng.standard_normal(shape)))
        scal = T.Tensor(rng.standard_normal(()))
        check_grad(lambda t: w(T.ew_binary("mul", t, scal)), T.Tensor(rng.standard_normal(shape)))


def test_gradcheck_unary():
    rng = np.random.default_rng(103)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        w = scalarize(rng.standard_normal(n))
        check_grad(lambda t: w(T.sigmoid(t)), T.Tensor(rng.uniform(-4, 4, n)))
        check_grad(lambda t: w(T.relu(t)), T.Tensor(_rand(rng, n, away_from_zero=True)))


def test_gradcheck_softmax_set():
    rng = np.random.default_rng(104)
    for trial in range(20):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        w = scalarize(rng.standard_normal(n * d))
        check_grad(lambda t: w(T.softmax_set(t)), T.Tensor(rng.standard_normal((n, d))))


def test_gradcheck_reductions():
    rng = np.random.default_rng(105)
    for trial in range(20):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 9))
        w = scalarize(rng.standard_normal(d))
        check_grad(lambda t: w(T.reduce_sum(t, 0)), T.Tensor(rng.standard_normal((n, d))))
        check_grad(lambda t: w(T.set_sum(t)), T.Tensor(rng.standard_normal((n, d))))
        wn = scalarize(rng.standard_normal(n))
        check_grad(lambda t: wn(T.reduce_sum(t, 1)), T.Tensor(rng.standard_normal((n, d))))
        # keep a clear argmax so the subgradient is the true local gradient
        x = rng.standard_normal((n, d))
        x[rng.integers(n), np.arange(d)] += 3.0
        check_grad(lambda t: w(T.set_max(t)), T.Tensor(x))


def test_gradcheck_structural_ops():
    rng = np.random.default_rng(106)
    for trial in range(20):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        w = scalarize(rng.standard_normal(n * d))
        row = T.Tensor(rng.standard_normal((1, d)))
        check_grad(lambda t: w(T.add_rowvec(t, row)), T.Tensor(rng.standard_normal((n, d))))
        mat = T.Tensor(rng.standard_normal((n, d)))
        wr = scalarize(rng.standard_normal(n * d))
        check_grad(lambda t: wr(T.add_rowvec(mat, t)), T.Tensor(rng.standard_normal((1, d))))
        check_grad(lambda t: w(T.repeat_cols(t, d)), T.Tensor(rng.standard_normal((n, 1))))
        check_grad(lambda t: w(T.reshape(t, [n * d])), T.Tensor(rng.standard_normal((n, d))))


def test_gradcheck_take_rows():
    rng = np.random.default_rng(109)
    for trial in range(20):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        start = int(rng.integers(n))
        stop = int(rng.integers(start + 1, n + 1))
        w = scalarize(rng.standard_normal((stop - start) * d))
        wrow = scalarize(rng.standard_normal(d))
        rows = rng.permutation(n)[: stop - start]
        # overlapping takes of one input, one of them out of order: their pieces accumulate
        check_grad(lambda t: w(T.take_rows(t, range(start, stop))) + wrow(T.take_rows(t, [start]))
                   + w(T.take_rows(t, rows)), T.Tensor(rng.standard_normal((n, d))))


def test_take_rows_records_nothing_without_a_trainable_input():
    x = T.Tensor(np.arange(12.0).reshape(4, 3))
    with T.Tape() as tape:
        rows = T.take_rows(x, range(1, 3))
    assert tape.entries == [] and not tape.needs(rows)
    assert np.array_equal(rows.data, x.data[1:3])
    assert np.array_equal(T.take_rows(x, [3, 0]).data, x.data[[3, 0]])
    for bad in (range(2, 2), range(3, 5), [-1, 0], [[0, 1]]):
        with pytest.raises(ShapeError):
            T.take_rows(x, bad)
    with pytest.raises(ContractError):  # a repeated row's gradient pieces would collide
        T.take_rows(x, [1, 2, 1])


def test_gradcheck_bce():
    rng = np.random.default_rng(107)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        target = T.Tensor(rng.integers(0, 2, n).astype(np.float64))
        check_grad(lambda t: T.bce_loss(t, target), T.Tensor(rng.uniform(0.05, 0.95, n)))


def test_gradcheck_stack_rows():
    rng = np.random.default_rng(108)
    a = T.Tensor(rng.standard_normal((1, 4)))
    w = scalarize(rng.standard_normal(8))
    check_grad(lambda t: w(T.stack_rows([t, a])), T.Tensor(rng.standard_normal((1, 4))))
    # rank-1 rows and [b,F] blocks, one input stacked twice
    row, w = T.Tensor(rng.standard_normal(4)), scalarize(rng.standard_normal(32))
    check_grad(lambda t: w(T.stack_rows([t, row, a, t])), T.Tensor(rng.standard_normal((3, 4))))
    with pytest.raises(ShapeError):
        T.stack_rows([a, T.Tensor(np.zeros((2, 3)))])


# ------------------------------------------------------------- determinism

def test_forward_determinism():
    rng = np.random.default_rng(200)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))

    def run():
        x = T.Tensor(a)
        y = T.Tensor(b)
        return T.set_sum(T.softmax_set(T.matmul_rows(x, y))).data

    assert np.array_equal(run(), run())


def test_fault_injection_breaks_normalization():
    T.enable_fault("softmax_skew")
    try:
        out = T.softmax_set(T.Tensor(np.zeros((4, 2)))).data
        assert np.abs(out.sum(axis=0) - 1.0).max() > 1e-6
    finally:
        T.clear_faults()
    out = T.softmax_set(T.Tensor(np.zeros((4, 2)))).data
    assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-12


# ----------------------------------------------------------------- gru_cell

GRU_ARGS = ("x", "h", "Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh")


def _gru_chain(x, h, Wz, Uz, bz, Wr, Ur, br, Wh, Uh, bh):
    """The GRU step as a chain of primitives: the reference for gru_cell."""
    z = T.sigmoid(T.add_rowvec(T.matmul(x, Wz) + T.matmul(h, Uz), bz))
    r = T.sigmoid(T.add_rowvec(T.matmul(x, Wr) + T.matmul(h, Ur), br))
    cand = T.sigmoid(T.add_rowvec(T.matmul(x, Wh) + T.matmul(r * h, Uh), bh) * 2.0) * 2.0 - 1.0
    return (1.0 - z) * h + z * cand


def _gru_inputs(rng, dx=5, width=4, steps=3, rows=1):
    """``steps`` blocks of ``rows`` input rows, stacked, and [rows, width]
    initial states and readout weights."""
    xs = rng.standard_normal((steps * rows, dx))
    xs[rng.random(xs.shape) < 0.3] = 0.0
    xs[:, 0] = 0.0  # a dead feature: its weight rows' gradients are sums of signed zeros
    ws = {}
    for name in GRU_ARGS[2:]:
        fan_in = 1 if name.startswith("b") else dx if name.startswith("W") else width
        ws[name] = rng.standard_normal((fan_in, width)) * 0.7
    return xs, rng.standard_normal((rows, width)), ws, rng.standard_normal((rows, width))


def _run_gru(step, xs, h0, ws, rvec, trained):
    """Several steps of ``step`` over the row blocks of ``xs``; returns the
    output and the gradient of every trained leaf, with the tape's entry count."""
    x = T.Tensor(xs, requires_grad="x" in trained)
    h = T.Tensor(h0, requires_grad="h" in trained)
    w = {k: T.Tensor(v, requires_grad=k in trained) for k, v in ws.items()}
    leaves = {"x": x, "h": h, **w}
    with T.Tape() as tape:
        out, b = h, h0.shape[0]
        for i in range(0, xs.shape[0], b):
            out = step(T.take_rows(x, range(i, i + b)), out, *(w[k] for k in GRU_ARGS[2:]))
        tape.backward(T.reduce_sum(T.reduce_sum(T.ew_binary("mul", out, T.Tensor(rvec)), 1), 0))
    return out.data, {k: t.grad for k, t in leaves.items() if k in trained}, len(tape.entries)


@pytest.mark.parametrize("trained", [
    GRU_ARGS[2:] + ("x",),  # joint: everything trained, h0 a constant
    ("x",),  # stage 1: weights frozen
    GRU_ARGS[2:],  # stage 2: the input rows frozen
    ("h", "Uh", "bz"),  # a trained initial state and a mix of weights
])
def test_gru_cell_matches_primitive_chain_bit_for_bit(trained):
    for rows in (1, 3):  # one set's row, and a packed batch of three sets
        xs, h0, ws, rvec = _gru_inputs(np.random.default_rng(300), rows=rows)
        if "h" not in trained:
            h0 = np.zeros_like(h0)  # the state the GRU aggregator starts from
        out, grads, entries = _run_gru(T.gru_cell, xs, h0, ws, rvec, trained)
        ref_out, ref_grads, ref_entries = _run_gru(_gru_chain, xs, h0, ws, rvec, trained)
        assert out.tobytes() == ref_out.tobytes()
        assert grads.keys() == ref_grads.keys() == set(trained)
        for name in trained:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), (rows, name)
        steps = 3 * (2 if "x" in trained else 1)  # cells, plus take_rows when x trains
        assert entries == steps + 3 < ref_entries


@pytest.mark.parametrize("arg, rows", [pytest.param(a, 1, id=a) for a in GRU_ARGS]
                         + [pytest.param(a, 2, id=f"{a}-rows2") for a in GRU_ARGS])
def test_gradcheck_gru_cell(arg, rows):
    rng = np.random.default_rng(301)
    xs, h0, ws, rvec = _gru_inputs(rng, steps=1, rows=rows)
    values = {"x": xs, "h": h0, **ws}
    k = GRU_ARGS.index(arg)
    args = [T.Tensor(values[name]) for name in GRU_ARGS]

    def f(t):
        out = T.gru_cell(*args[:k], t, *args[k + 1:])
        return T.reduce_sum(T.reduce_sum(T.ew_binary("mul", out, T.Tensor(rvec)), 1), 0)

    check_grad(f, T.Tensor(values[arg]))


@pytest.mark.parametrize("weight", ["Wz", "Wr", "Wh", "bh"])  # bh: a_h finite, 2 a_h not
def test_gru_cell_overflow_raises_where_the_chain_does(weight):
    xs, h0, ws, _ = _gru_inputs(np.random.default_rng(302), steps=1)
    xs[:] = 2.0
    ws[weight] = np.full_like(ws[weight], 1e308)
    args = [T.Tensor(xs), T.Tensor(h0), *(T.Tensor(ws[k]) for k in GRU_ARGS[2:])]
    for step in (_gru_chain, T.gru_cell):
        with np.errstate(over="ignore"), pytest.raises(NumericOverflowError):
            step(*args)


def test_gru_cell_rejects_mismatched_weights():
    xs, h0, ws, _ = _gru_inputs(np.random.default_rng(303), steps=1)
    ws["Uh"] = np.zeros((5, 4))
    with pytest.raises(ShapeError):
        T.gru_cell(T.Tensor(xs), T.Tensor(h0), *(T.Tensor(ws[k]) for k in GRU_ARGS[2:]))
