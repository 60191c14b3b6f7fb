import math

import numpy as np
import pytest

from setfusion import aggregators as ag
from setfusion import tensor as T
from setfusion.errors import ContractError, ShapeError
from setfusion.tensor import Tensor


def one(arr):
    """``arr``'s rows as one set."""
    return ag.SetBatch(Tensor(np.asarray(arr, dtype=np.float64)))


def pooled(kind, arr):
    return ag.aggregate(one(arr), ag.AggregatorParams(kind))[0].data[0]


def validate(scores):
    ag.AttentionMap(Tensor(scores)).validate()


# ------------------------------------------------------------- attsets_fc

def test_fc_single_element_identity():
    x = np.array([[5.0, -7.0]])
    for seed in range(3):
        params = ag.aggregator_init("attsets_fc", 2)
        params.weights["W"] = Tensor(np.random.default_rng(seed).standard_normal((2, 2)), requires_grad=True)
        y, scores = ag.aggregate(one(x), params)
        assert np.array_equal(y.data, [[5.0, -7.0]])
        assert np.array_equal(scores, [[1.0, 1.0]])


def test_fc_zero_weights_is_mean():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y, scores = ag.aggregate(one(x), ag.aggregator_init("attsets_fc", 2))
    assert np.array_equal(y.data, [[2.0, 3.0]])
    validate(scores)


def test_fc_hand_case_d1():
    params = ag.aggregator_init("attsets_fc", 1)
    params.weights["W"] = Tensor([[math.log(2.0)]], requires_grad=True)
    y, s = ag.aggregate(one([[1.0], [2.0]]), params)
    assert abs(s[0, 0] - 1.0 / 3.0) < 1e-15
    assert abs(s[1, 0] - 2.0 / 3.0) < 1e-15
    assert abs(y.data[0, 0] - 5.0 / 3.0) < 1e-15


def test_fc_width_mismatch():
    with pytest.raises(ShapeError):
        ag.aggregate(one(np.zeros((2, 3))), ag.aggregator_init("attsets_fc", 2))


# ----------------------------------------------------------- attsets_conv

def test_conv_s1_equals_fc_bit_exact():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((5, 8))
    w = rng.standard_normal((8, 8))
    pf = ag.aggregator_init("attsets_fc", 8)
    pf.weights["W"] = Tensor(w, requires_grad=True)
    pc = ag.aggregator_init("attsets_conv", 8)
    pc.weights["W"] = Tensor(w, requires_grad=True)
    yf, af = ag.aggregate(one(x), pf)
    yc, ac = ag.aggregate(one(x), pc)
    assert np.array_equal(yc.data, yf.data)
    assert np.array_equal(ac, af)


def test_conv_single_element_identity():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((1, 3, 4))
    params = ag.aggregator_init("attsets_conv", 4)
    params.weights["W"] = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    y, scores = ag.aggregate(one(x.reshape(1, 12)), params)
    assert np.array_equal(y.data, x.reshape(1, 12))
    assert np.array_equal(scores, np.ones((1, 12)))


def test_conv_zero_weights_is_per_location_mean():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, 3, 4))
    y, scores = ag.aggregate(one(x.reshape(2, 12)), ag.aggregator_init("attsets_conv", 4))
    for loc in range(3):
        assert np.array_equal(y.data.reshape(3, 4)[loc], pooled("mean", x[:, loc, :]))
    validate(scores)


def _conv_is_fc_per_location(x, w):
    """``attsets_conv`` with C x C map ``w`` on the [N, S, C] set ``x``,
    stored as [N, S*C] rows, against ``attsets_fc`` on each position's
    [N, C] slice: features and scores equal bit for bit."""
    n, positions, ch = x.shape
    pc = ag.aggregator_init("attsets_conv", ch)
    pc.weights["W"] = Tensor(w, requires_grad=True)
    pf = ag.aggregator_init("attsets_fc", ch)
    pf.weights["W"] = Tensor(w, requires_grad=True)
    y, scores = ag.aggregate(one(x.reshape(n, positions * ch)), pc)
    assert y.shape == (1, positions * ch)
    for loc in range(positions):
        yf, af = ag.aggregate(one(x[:, loc, :]), pf)
        assert np.array_equal(y.data.reshape(positions, ch)[loc], yf.data[0])
        assert np.array_equal(scores.reshape(n, positions, ch)[:, loc, :], af)
    validate(scores)


def test_conv_c1_is_fc_per_location():
    # C = 1: the 1 x 1 map scores every location, nothing to broadcast
    rng = np.random.default_rng(24)
    _conv_is_fc_per_location(rng.standard_normal((4, 3, 1)), rng.standard_normal((1, 1)))


def test_conv_each_location_is_fc_on_its_slice():
    rng = np.random.default_rng(25)
    _conv_is_fc_per_location(rng.standard_normal((5, 3, 4)), rng.standard_normal((4, 4)))


def test_conv_width_must_be_a_multiple_of_c():
    params = ag.aggregator_init("attsets_conv", 4)
    with pytest.raises(ShapeError):
        ag.aggregate(one(np.zeros((2, 10))), params)
    with pytest.raises(ShapeError):
        ag.aggregate(ag.SetBatch(Tensor(np.zeros((3, 6))), [1, 2]), params)
    y, _ = ag.aggregate(one(np.ones((2, 12))), params)  # S = 3
    assert np.array_equal(y.data, np.ones((1, 12)))


# ----------------------------------------------------------- attsets_elem

def test_elem_zero_weights_is_mean():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y, scores = ag.aggregate(one(x), ag.aggregator_init("attsets_elem", 2))
    assert np.array_equal(y.data, [[2.0, 3.0]])
    validate(scores)


def test_elem_single_element_identity():
    params = ag.aggregator_init("attsets_elem", 3)
    params.weights["w"] = Tensor(np.random.default_rng(1).standard_normal((3, 1)), requires_grad=True)
    x = np.array([[0.5, -1.5, 9.0]])
    y, scores = ag.aggregate(one(x), params)
    assert np.array_equal(y.data, x)
    assert np.array_equal(scores, np.ones((1, 3)))


def test_elem_d1_matches_fc():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((6, 1))
    w = rng.standard_normal((1, 1))
    pe = ag.aggregator_init("attsets_elem", 1)
    pe.weights["w"] = Tensor(w, requires_grad=True)
    pf = ag.aggregator_init("attsets_fc", 1)
    pf.weights["W"] = Tensor(w, requires_grad=True)
    ye, _ = ag.aggregate(one(x), pe)
    yf, _ = ag.aggregate(one(x), pf)
    assert np.allclose(ye.data, yf.data, rtol=0, atol=1e-15)


# ------------------------------------------------------------------- pools

def test_pool_values():
    x = np.array([[1.0, 5.0], [3.0, 2.0]])
    assert np.array_equal(pooled("max", x), [3.0, 5.0])
    assert np.array_equal(pooled("mean", x), [2.0, 3.5])
    single = np.array([[1.5, -2.5]])
    assert np.array_equal(pooled("sum", single), single[0])


# --------------------------------------------------------------------- gru

def test_gru_single_step_deterministic():
    params = ag.aggregator_init("gru", 4, seed=9)
    x = np.random.default_rng(2).standard_normal((1, 4))
    a = ag.aggregate(one(x), params)[0].data
    b = ag.aggregate(one(x), params)[0].data
    assert np.array_equal(a, b)


def test_gru_order_sensitivity():
    rng = np.random.default_rng(40)
    hits = 0
    for trial in range(20):
        params = ag.aggregator_init("gru", 8, seed=trial)
        x = rng.standard_normal((6, 8)) * 2.0
        fwd = ag.aggregate(one(x), params)[0].data
        rev = ag.aggregate(one(x[::-1]), params)[0].data
        if np.abs(fwd - rev).max() > 1e-3:
            hits += 1
    assert hits >= 1


def test_gru_zero_params_gives_zeros():
    params = ag.aggregator_init("gru", 3, seed=0)
    for name, t in params.weights.items():
        params.weights[name] = Tensor(np.zeros_like(t.data), requires_grad=True)
    y, _ = ag.aggregate(one(np.random.default_rng(3).standard_normal((5, 3))), params)
    assert np.array_equal(y.data, np.zeros((1, 3)))


def test_gru_width_mismatch():
    with pytest.raises(ShapeError):
        ag.aggregate(one(np.zeros((2, 5))), ag.aggregator_init("gru", 4))


def _packed_and_alone(params, x, lengths, rvec):
    """Fused rows, scores and gradients of one packed aggregate over the sets
    stored back to back in ``x``, and the same from aggregating each set
    alone (scores None for poolings and the GRU)."""
    out = []
    for packed in (True, False):
        rows = Tensor(x, requires_grad=True)
        with T.Tape() as tape:
            if packed:
                fused, scores = ag.aggregate(ag.SetBatch(rows, lengths), params)
            else:
                stops = np.cumsum(lengths)
                alone = [ag.aggregate(ag.SetBatch(T.take_rows(rows, range(stop - n, stop))), params)
                         for n, stop in zip(lengths, stops)]
                fused = T.stack_rows([y for y, _ in alone])
                scores = None if alone[0][1] is None else np.vstack([s for _, s in alone])
            tape.backward(T.reduce_sum(T.reduce_sum(T.ew_binary("mul", fused, Tensor(rvec)), 1), 0))
        grads = {"x": rows.grad, **{k: w.grad for k, w in params.weights.items()}}
        for w in params.weights.values():
            w.grad = None
        out.append((fused.data, scores, grads))
    return out


def _kind_params(kind, width, rng, seed):
    """Parameters of ``kind`` with attention weights away from zero, where
    attention would be mean pooling and its weight gradient vanish."""
    params = ag.aggregator_init(kind, width, seed=seed)
    for name in ("W", "w"):
        if name in params.weights:
            params.weights[name] = Tensor(rng.standard_normal(params.weights[name].shape) * 0.5,
                                          requires_grad=True)
    return params


@pytest.mark.parametrize("kind", ag.AGGREGATOR_KINDS)
def test_packed_batch_matches_each_set_alone(kind):
    rng = np.random.default_rng(41)
    # ties, sizes out of order, and sets ending at four different steps
    lengths = [1, 3, 3, 8, 2, 1]
    params = _kind_params(kind, 6, rng, seed=3)
    x, rvec = rng.standard_normal((sum(lengths), 6)), rng.standard_normal((6, 6))
    (fused, scores, grads), (want, want_scores, want_grads) = _packed_and_alone(
        params, x, lengths, rvec)
    assert fused.shape == want.shape == (6, 6)
    if kind == "gru":
        assert np.abs(fused - want).max() <= 1e-12
    else:  # every reduction stays per slot, so each set's bits are its own
        assert fused.tobytes() == want.tobytes()
    if kind in ag.ATTENTION_KINDS:  # and so are its scores, in row order
        assert scores.shape == want_scores.shape == (sum(lengths), 6)
        assert scores.tobytes() == want_scores.tobytes()
    else:
        assert scores is None and want_scores is None
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert np.abs(grads[name] - want_grads[name]).max() <= 1e-12, name


@pytest.mark.parametrize("kind", ag.AGGREGATOR_KINDS)
def test_packed_batch_of_one_set_is_bit_identical(kind):
    rng = np.random.default_rng(42)
    params = _kind_params(kind, 5, rng, seed=4)
    x, rvec = rng.standard_normal((7, 5)), rng.standard_normal((1, 5))
    (fused, _, grads), (want, _, want_grads) = _packed_and_alone(params, x, [7], rvec)
    assert fused.tobytes() == want.tobytes()
    assert fused.tobytes() == ag.aggregate(one(x), params)[0].data.tobytes()
    for name in grads:
        assert grads[name].tobytes() == want_grads[name].tobytes(), name


def test_set_batch_rejects_bad_lengths():
    rows = Tensor(np.zeros((4, 3)))
    for lengths in ([], [2, 0, 2], [3, 2]):
        with pytest.raises((ContractError, ShapeError)):
            ag.SetBatch(rows, lengths)
    with pytest.raises((ContractError, ShapeError)):  # one set of no rows
        ag.SetBatch(Tensor(np.zeros((0, 3))))
    with pytest.raises(ShapeError):
        ag.SetBatch(Tensor(np.zeros((4, 1, 3))), [4])


def test_set_batch_takes_an_array():
    x = np.arange(12.0).reshape(3, 4)
    batch = ag.SetBatch(x, (1, 2))
    assert isinstance(batch.data, Tensor)
    fused, _ = ag.aggregate(batch, ag.AggregatorParams("sum"))
    assert np.array_equal(fused.data, [x[0], x[1] + x[2]])


# -------------------------------------------------------- aggregator_init

def test_init_zero_attention_equals_mean_bit_exact():
    rng = np.random.default_rng(50)
    for n in (2, 3, 5, 7):
        x = rng.standard_normal((n, 6))
        yf, _ = ag.aggregate(one(x), ag.aggregator_init("attsets_fc", 6))
        ye, _ = ag.aggregate(one(x), ag.aggregator_init("attsets_elem", 6))
        m = pooled("mean", x)
        assert np.array_equal(yf.data[0], m)
        assert np.array_equal(ye.data[0], m)


def test_init_gru_seed_deterministic():
    a = ag.aggregator_init("gru", 5, seed=123)
    b = ag.aggregator_init("gru", 5, seed=123)
    for name in a.weights:
        assert np.array_equal(a.weights[name].data, b.weights[name].data)


def test_init_pool_is_parameterless():
    for kind in ("max", "mean", "sum"):
        assert ag.aggregator_init(kind, 16).weights == {}


def test_init_unknown_kind():
    with pytest.raises(ContractError):
        ag.aggregator_init("bilinear", 4)


# ---------------------------------------------------- permutation behavior

def test_permutation_invariance_bit_exact():
    rng = np.random.default_rng(60)
    for d in (1, 8, 64):
        for trial in range(4):
            n = int(rng.integers(2, 25))
            x = rng.standard_normal((n, d)) * 3.0
            pf = ag.aggregator_init("attsets_fc", d)
            pf.weights["W"] = Tensor(rng.standard_normal((d, d)) * 0.3, requires_grad=True)
            pe = ag.aggregator_init("attsets_elem", d)
            pe.weights["w"] = Tensor(rng.standard_normal((d, 1)) * 0.3, requires_grad=True)
            base = {
                "fc": ag.aggregate(one(x), pf)[0].data,
                "elem": ag.aggregate(one(x), pe)[0].data,
                "max": pooled("max", x),
                "mean": pooled("mean", x),
                "sum": pooled("sum", x),
            }
            for _ in range(10):
                perm = rng.permutation(n)
                xp = x[perm]
                assert np.array_equal(ag.aggregate(one(xp), pf)[0].data, base["fc"])
                assert np.array_equal(ag.aggregate(one(xp), pe)[0].data, base["elem"])
                for kind in ("max", "mean", "sum"):
                    assert np.array_equal(pooled(kind, xp), base[kind])


def test_conv_permutation_invariance_bit_exact():
    rng = np.random.default_rng(61)
    x = rng.standard_normal((7, 4, 8)).reshape(7, 32)  # S = 4 positions of C = 8
    params = ag.aggregator_init("attsets_conv", 8)
    params.weights["W"] = Tensor(rng.standard_normal((8, 8)) * 0.3, requires_grad=True)
    base = ag.aggregate(one(x), params)[0].data
    for _ in range(10):
        xp = x[rng.permutation(7)]
        got = ag.aggregate(one(xp), params)[0].data
        assert np.array_equal(got, base)


def test_attention_map_invariants_on_random_forwards():
    rng = np.random.default_rng(62)
    for trial in range(10):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        x = rng.standard_normal((n, d)) * 5.0
        pf = ag.aggregator_init("attsets_fc", d)
        pf.weights["W"] = Tensor(rng.standard_normal((d, d)), requires_grad=True)
        validate(ag.aggregate(one(x), pf)[1])
        pe = ag.aggregator_init("attsets_elem", d)
        pe.weights["w"] = Tensor(rng.standard_normal((d, 1)), requires_grad=True)
        validate(ag.aggregate(one(x), pe)[1])


# -------------------------------------------------------- weight gradients

# kind: (weight name, set shape, weight shape) at N = 4; the conv set's
# [N, S, C] features are stored as [N, S*C] rows
ATT_CASES = {
    "attsets_fc": ("W", (4, 6), (6, 6)),
    "attsets_elem": ("w", (4, 6), (6, 1)),
    "attsets_conv": ("W", (4, 3, 6), (6, 6)),
}


def _att_loss(kind, x, w_tensor, rvec):
    params = ag.AggregatorParams(kind, {ATT_CASES[kind][0]: w_tensor})
    y, _ = ag.aggregate(one(x.reshape(x.shape[0], -1)), params)
    return T.reduce_sum(T.ew_binary("mul", T.reshape(y, [y.size]), Tensor(rvec)), 0)


def test_weight_gradient_zero_at_single_element():
    rng = np.random.default_rng(70)
    x = rng.standard_normal((1, 6))
    rvec = rng.standard_normal(6)
    w = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
    with T.Tape() as tape:
        loss = _att_loss("attsets_fc", x, w, rvec)
        tape.backward(loss)
    assert np.array_equal(w.grad, np.zeros(36))
    fd = T.finite_diff_grad(lambda t: _att_loss("attsets_fc", x, t, rvec), w)
    assert np.abs(fd.data).max() < 1e-8


@pytest.mark.parametrize("kind", list(ATT_CASES))
def test_weight_gradient_nonzero_at_two_elements(kind):
    _, set_shape, w_shape = ATT_CASES[kind]
    rng = np.random.default_rng(71)
    x = rng.standard_normal(set_shape)
    rvec = rng.standard_normal(int(np.prod(set_shape[1:])))
    w = Tensor(rng.standard_normal(w_shape) * 0.3, requires_grad=True)
    with T.Tape() as tape:
        loss = _att_loss(kind, x, w, rvec)
        tape.backward(loss)
    ad = w.grad.reshape(w_shape)
    assert np.abs(ad).max() > 0
    fd = T.finite_diff_grad(lambda t: _att_loss(kind, x, t, rvec), w).data
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-8)
    assert (np.abs(ad - fd) / denom).max() < 1e-5


# --------------------------------------------------------------- dispatch

def test_aggregate_dispatch_shapes():
    rng = np.random.default_rng(80)
    x = rng.standard_normal((3, 5))
    for kind in ag.AGGREGATOR_KINDS:
        params = ag.aggregator_init(kind, 5, seed=1)
        y, scores = ag.aggregate(one(x), params)
        assert y.data.shape == (1, 5)
        assert (scores is not None) == (kind in ag.ATTENTION_KINDS)
        assert scores is None or scores.shape == (3, 5)
        rows, scores = ag.aggregate(ag.SetBatch(Tensor(np.vstack([x, x[:2]])), [3, 2]), params)
        assert rows.data.shape == (2, 5)
        assert (scores is not None) == (kind in ag.ATTENTION_KINDS)
        assert scores is None or scores.shape == (5, 5)


def test_aggregate_unknown_kind():
    x = np.zeros((3, 2))
    params = ag.AggregatorParams("median")
    with pytest.raises(ContractError):
        ag.aggregate(one(x), params)
    with pytest.raises(ContractError):
        ag.aggregate(ag.SetBatch(Tensor(x), [1, 2]), params)
