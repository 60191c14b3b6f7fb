import json
from dataclasses import replace

import numpy as np
import pytest

from setfusion import data as D
from setfusion import model as M
from setfusion import tensor as T
from setfusion import training as TR
from setfusion.aggregators import AGGREGATOR_KINDS, SetBatch, aggregate
from setfusion.errors import ContractError, NumericOverflowError
from setfusion.model import _agg_params
from setfusion.tensor import Tensor


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    D.generate_dataset(D.DatasetMeta(train_count=24, test_count=4, grid_side=8,
                                     image_side=8, seed=3), out)
    trainset, _ = D.load_dataset(out / "train.sfds")
    return trainset


def tiny_model(kind="attsets_fc", seed=1):
    cfg = M.ModelConfig(image_side=8, latent_dim=8, encoder_hidden=16,
                        decoder_hidden=16, grid_side=8, aggregator_kind=kind, seed=seed)
    return M.model_init(cfg)


def tiny_train_cfg(**kw):
    base = dict(batch_size=4, stage1_steps=8, stage2_steps=8, n_mode="fixed:4",
                learning_rate=1e-3, seed=0)
    base.update(kw)
    return TR.TrainConfig(**base)


# ------------------------------------------------------------------ n_mode

def test_parse_n_mode():
    assert TR.parse_n_mode("fixed:3") == ("fixed", 3)
    assert TR.parse_n_mode("uniform:1:8") == ("uniform", 1, 8)
    for bad in ("fixed:0", "uniform:3:2", "uniform:0:4", "gauss:2", "fixed"):
        with pytest.raises(ContractError):
            TR.parse_n_mode(bad)


# --------------------------------------------------------- sample_minibatch

def test_minibatch_fixed_one_view(tiny_dataset):
    cfg = tiny_train_cfg(n_mode="fixed:1")
    batch = TR.sample_minibatch(tiny_dataset, cfg, 0)
    assert len(batch) == 4
    assert all(views.shape[0] == 1 for views, _ in batch)


def test_minibatch_uniform_frequencies(tiny_dataset):
    cfg = tiny_train_cfg(batch_size=1, n_mode="uniform:1:8")
    counts = np.zeros(9)
    for step in range(1000):
        (views, _), = TR.sample_minibatch(tiny_dataset, cfg, step)
        counts[views.shape[0]] += 1
    freqs = counts[1:9] / 1000.0
    assert np.all(np.abs(freqs - 0.125) <= 0.03)


def test_minibatch_deterministic(tiny_dataset):
    cfg = tiny_train_cfg(n_mode="uniform:1:6", seed=9)
    a = TR.sample_minibatch(tiny_dataset, cfg, 5)
    b = TR.sample_minibatch(tiny_dataset, cfg, 5)
    for (va, ta), (vb, tb) in zip(a, b):
        assert np.array_equal(va, vb) and np.array_equal(ta, tb)
    c = TR.sample_minibatch(tiny_dataset, cfg, 6)
    assert not all(np.array_equal(x[0], y[0]) for x, y in zip(a, c))


def test_minibatch_rejects_oversized_n(tiny_dataset):
    with pytest.raises(ContractError):
        TR.sample_minibatch(tiny_dataset, tiny_train_cfg(n_mode="fixed:9"), 0)


# ------------------------------------------------------------ optimizer_step

def test_step_on_empty_group_is_noop():
    params = tiny_model("mean")
    TR.optimizer_step(params, "att", 0.1, TR.OptimizerState())  # nothing to do
    assert params.att == {}


def test_step_requires_gradients():
    params = tiny_model()
    with pytest.raises(ContractError):
        TR.optimizer_step(params, "base", 0.1, TR.OptimizerState())


def _state_copy(state):
    return ({k: v.copy() for k, v in state.m.items()}, {k: v.copy() for k, v in state.v.items()},
            state.t, list(state.scratch))


@pytest.mark.parametrize("fault", ["last_grad_missing", "last_grad_short"],
                         ids=["adam-last_grad_missing", "adam-last_grad_short"])
def test_refused_step_writes_nothing(fault):
    rng = np.random.default_rng(12)
    params = tiny_model()
    for t in params.base.values():
        t.grad = rng.standard_normal(t.size)
    state = TR.OptimizerState()
    TR.optimizer_step(params, "base", 1e-2, state)  # moments and scratch in use
    data = {k: t.data.copy() for k, t in params.base.items()}
    moments = _state_copy(state)
    last = params.named("base")[-1][2]
    if fault == "last_grad_missing":
        last.grad = None
    else:
        last.grad = last.grad[1:]
    with pytest.raises(ContractError):
        TR.optimizer_step(params, "base", 1e-2, state)
    assert all(np.array_equal(t.data, data[k]) for k, t in params.base.items())
    m, v, steps, scratch = moments
    assert state.m.keys() == m.keys() and all(np.array_equal(state.m[k], m[k]) for k in m)
    assert state.v.keys() == v.keys() and all(np.array_equal(state.v[k], v[k]) for k in v)
    assert state.t == steps
    assert len(state.scratch) == len(scratch)
    assert all(a is b for a, b in zip(state.scratch, scratch))


def _adam_unblocked(data, g, m, v, t, lr):
    """The textbook update, one whole-array op at a time."""
    m *= TR.ADAM_BETA1
    m += (1.0 - TR.ADAM_BETA1) * g
    v *= TR.ADAM_BETA2
    v += (1.0 - TR.ADAM_BETA2) * (g * g)
    denom = np.sqrt(v / (1.0 - TR.ADAM_BETA2 ** t)) + TR.ADAM_EPS
    data -= m / denom * (lr / (1.0 - TR.ADAM_BETA1 ** t))


def test_blocked_adam_matches_unblocked_formula():
    _check_adam_against_unblocked(1)  # 7 blocks, below the share floor on any host


@pytest.mark.parametrize("workers", [0, 2], ids=["1-share", "3-shares"])
def test_adam_shares_match_unblocked_formula(monkeypatch, workers):
    monkeypatch.setattr(T, "CPU_WORKERS", workers)
    monkeypatch.setattr(TR, "ADAM_SHARE_FLOOR", 1)  # so that every block may be a share
    _check_adam_against_unblocked(1 + workers)


@pytest.mark.parametrize("workers", [1, 3])
def test_only_a_group_above_the_share_floor_splits(monkeypatch, workers):
    monkeypatch.setattr(T, "CPU_WORKERS", workers)
    params = M.model_init(M.ModelConfig(aggregator_kind="gru"))
    shares = {}
    for group, size in (("base", 2265984), ("att", 98688)):
        for _, _, t in params.named(group):
            t.grad = np.zeros(t.size)
        state = TR.OptimizerState()
        TR.optimizer_step(params, group, 1e-3, state)
        assert sum(t.size for _, _, t in params.named(group)) == size
        shares[group] = len(state.scratch)
    assert shares == {"base": 1 + workers, "att": 1}


def _check_adam_against_unblocked(shares):
    rng = np.random.default_rng(11)
    block = TR.ADAM_BLOCK
    shapes = {"small": (7, 3), "one_block": (block,), "two_blocks": (2, block),
              "ragged": (3, block // 2 + 5)}
    params = M.ParamBundle(base={k: Tensor(rng.standard_normal(s), requires_grad=True)
                                 for k, s in shapes.items()}, att={}, cfg=None)
    params.base["transposed"] = Tensor(rng.standard_normal((5, 9)).T, requires_grad=True)
    want = {k: t.data.copy() for k, t in params.base.items()}
    moments = {k: (np.zeros(t.shape), np.zeros(t.shape)) for k, t in params.base.items()}
    state = TR.OptimizerState()
    for step in range(1, 5):
        for name, t in params.base.items():
            t.grad = rng.standard_normal(t.size) * 10.0 ** rng.integers(-3, 3)
            _adam_unblocked(want[name], t.grad.reshape(t.shape), *moments[name], step, 1e-2)
        TR.optimizer_step(params, "base", 1e-2, state)
        for name, t in params.base.items():
            assert np.array_equal(t.data, want[name]), (name, step)
    assert len(state.scratch) == shares


def test_an_error_in_a_worker_share_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(T, "CPU_WORKERS", 2)
    monkeypatch.setattr(TR, "ADAM_SHARE_FLOOR", 1)
    rng = np.random.default_rng(13)
    params = M.ParamBundle(base={k: Tensor(rng.standard_normal(TR.ADAM_BLOCK), requires_grad=True)
                                 for k in "abcde"}, att={}, cfg=None)
    for t in params.base.values():
        t.grad = rng.standard_normal(t.size)
    params.base["e"].data.flags.writeable = False  # the last share's last block cannot be written
    with pytest.raises(ValueError, match="read-only"):
        TR.optimizer_step(params, "base", 1e-2, TR.OptimizerState())


def test_base_step_leaves_att_bit_identical(tiny_dataset):
    params = tiny_model()
    params.att["att_W"].data[:] = np.random.default_rng(0).standard_normal((8, 8))
    before = params.checksum("att")
    cfg = tiny_train_cfg()
    batch = TR.sample_minibatch(tiny_dataset, cfg, 0)
    params.zero_grads()
    with T.Tape() as tape:
        loss = TR._set_loss(params, batch)
        tape.backward(loss)
    TR.optimizer_step(params, "base", 1e-3, TR.OptimizerState())
    assert params.checksum("att") == before
    assert params.checksum("base") != M.model_init(params.cfg).checksum("base")


# ------------------------------------------------------------- faset stages

def test_stage1_freezes_att_and_learns(tiny_dataset):
    params = tiny_model()
    att_before = params.checksum("att")
    cfg = tiny_train_cfg(stage1_steps=40)
    report = TR.faset_stage1(params, tiny_dataset, cfg)
    assert params.checksum("att") == att_before
    assert report.att_checksum == att_before
    assert report.steps == 40
    assert np.mean(report.losses[-8:]) < np.mean(report.losses[:8])
    assert all(np.isfinite(report.losses))


def test_stage1_attention_gradient_exactly_zero(tiny_dataset):
    params = tiny_model()
    batch = TR.sample_minibatch(tiny_dataset, tiny_train_cfg(), 0, n_mode="fixed:1")
    params.zero_grads()
    with T.Tape() as tape:
        loss = TR._set_loss(params, batch)
        tape.backward(loss)
    assert params.att["att_W"].grad is not None
    assert np.array_equal(params.att["att_W"].grad, np.zeros(64))


def test_stage2_freezes_base_and_single_view_predictions(tiny_dataset):
    params = tiny_model()
    TR.faset_stage1(params, tiny_dataset, tiny_train_cfg(stage1_steps=20))
    base_before = params.checksum("base")
    att_before = params.checksum("att")
    view = tiny_dataset[0].views[2]
    pred_before = M.predict([view], params)[0].probs.data.copy()

    report = TR.faset_stage2(params, tiny_dataset, tiny_train_cfg(stage2_steps=20))
    assert params.checksum("base") == base_before
    assert report.base_checksum == base_before
    assert params.checksum("att") != att_before
    pred_after = M.predict([view], params)[0].probs.data
    assert np.array_equal(pred_after, pred_before)


def test_stage2_leaves_base_undifferentiated_and_trainable(tiny_dataset):
    params = tiny_model()
    TR.faset_stage2(params, tiny_dataset, tiny_train_cfg(stage2_steps=2))
    assert all(t.grad is None and t.requires_grad for t in params.base.values())
    assert all(t.grad is not None and t.requires_grad for t in params.att.values())


def test_stage_restores_requires_grad_after_overflow(tiny_dataset):
    params = tiny_model()
    cfg = tiny_train_cfg(learning_rate=1e150)
    with pytest.raises(NumericOverflowError):
        TR.faset_stage1(params, tiny_dataset, cfg)
    assert all(t.requires_grad for _, _, t in params.named("all"))


def _count_tape_entries(monkeypatch) -> list:
    """A list that gets the tape's entry count at every backward."""
    entries = []
    backward = T.Tape.backward

    def counting_backward(tape, loss):
        entries.append(len(tape.entries))
        return backward(tape, loss)

    monkeypatch.setattr(T.Tape, "backward", counting_backward)
    return entries


def test_stage2_tape_is_shorter_than_joint(tiny_dataset, monkeypatch):
    entries = _count_tape_entries(monkeypatch)
    cfg = tiny_train_cfg(stage1_steps=1, stage2_steps=1)
    TR.faset_stage2(tiny_model(), tiny_dataset, cfg)
    TR.joint_train(tiny_model(), tiny_dataset, replace(cfg, stage2_steps=0))
    stage2, joint = entries
    assert stage2 < joint


def test_set_loss_encodes_every_view_of_a_step_in_one_batch(tiny_dataset, monkeypatch):
    rows = []
    encode = TR.encode_batch

    def counting_encode(images, params):
        rows.append(images.shape[0])
        return encode(images, params)

    monkeypatch.setattr(TR, "encode_batch", counting_encode)
    params = tiny_model()
    batch = TR.sample_minibatch(tiny_dataset, tiny_train_cfg(n_mode="uniform:1:4"), 0)
    loss = TR._set_loss(params, batch)
    assert rows == [sum(len(views) for views, _ in batch)]
    monkeypatch.undo()
    per_set = [M.encode_batch(Tensor(views), params) for views, _ in batch]
    fused = [aggregate(SetBatch(z), _agg_params(params))[0] for z in per_set]
    want = T.bce_loss(M.decode_batch(T.stack_rows(fused), params),
                      Tensor(np.stack([target for _, target in batch])))
    assert abs(loss.item() - want.item()) < 1e-12


@pytest.mark.parametrize("kind", [k for k in AGGREGATOR_KINDS if k != "gru"])
def test_set_loss_matches_the_per_set_loop_bit_for_bit(tiny_dataset, kind):
    params = tiny_model(kind, seed=3)
    rng = np.random.default_rng(12)
    for t in params.att.values():  # away from zero, where attention is mean pooling
        t.data[:] = rng.standard_normal(t.shape)
    batch = TR.sample_minibatch(tiny_dataset, tiny_train_cfg(n_mode="uniform:1:5", batch_size=6), 1)
    agg = _agg_params(params)

    def per_set_loop():
        latents = M.encode_batch(Tensor(np.vstack([views for views, _ in batch])), params)
        fused, start = [], 0
        for views, _ in batch:
            rows = T.take_rows(latents, range(start, start + len(views)))
            fused.append(aggregate(SetBatch(rows), agg)[0])
            start += len(views)
        probs = M.decode_batch(T.stack_rows(fused), params)
        return T.bce_loss(probs, Tensor(np.stack([target for _, target in batch])))

    results = []
    for loss_of in (lambda: TR._set_loss(params, batch), per_set_loop):
        params.zero_grads()
        with T.Tape() as tape:
            loss = loss_of()
            tape.backward(loss)
        results.append((loss.item().hex(), {n: t.grad.copy() for n, _, t in params.named()}))
    (loss, grads), (want_loss, want_grads) = results
    assert loss == want_loss
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        if name in params.att:  # one rows.T @ g product per set size, not one per set
            assert np.abs(g - want_grads[name]).max() <= 1e-12 * np.abs(want_grads[name]).max()
        else:
            assert g.tobytes() == want_grads[name].tobytes(), name


def test_gru_stage2_tape_grows_with_the_longest_set_not_the_batch(tiny_dataset, monkeypatch):
    entries = _count_tape_entries(monkeypatch)
    cfg = tiny_train_cfg(stage2_steps=4, n_mode="uniform:1:8", batch_size=16)
    TR.faset_stage2(tiny_model("gru"), tiny_dataset, cfg)
    assert len(entries) == 4
    # per step: a cell per time step, a state slice per set length, the
    # final gather, the decoder and the loss; the encoder is frozen
    assert max(entries) <= 2 * 8 + 10


@pytest.mark.parametrize("kind", ["attsets_fc", "gru"])
def test_each_traced_name_is_called_once_per_step_and_predict(tiny_dataset, monkeypatch, kind):
    """The benchmark's tracer times layers by wrapping these module
    attributes; a step that stopped calling them would leave its spans empty."""
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)
        key = f"{owner.__name__.rsplit('.', 1)[1]}.{name}"

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner in (TR, M):
        for name in ("encode_batch", "aggregate", "decode_batch"):
            count(owner, name)
    params = tiny_model(kind)
    TR.joint_train(params, tiny_dataset, tiny_train_cfg(stage1_steps=1, stage2_steps=0,
                                                        n_mode="uniform:2:5"))
    assert calls == {"training.encode_batch": 1, "training.aggregate": 1, "training.decode_batch": 1}
    calls.clear()
    M.predict(list(tiny_dataset[0].views[:3]), params)
    assert calls == {"model.encode_batch": 3, "model.aggregate": 1, "model.decode_batch": 1}


def test_stage2_improves_multiview_training_loss(tiny_dataset):
    params = tiny_model()
    cfg = tiny_train_cfg(stage1_steps=60, stage2_steps=60, n_mode="fixed:4")
    TR.faset_stage1(params, tiny_dataset, cfg)

    def set_loss_on(step):
        batch = TR.sample_minibatch(tiny_dataset, cfg, step, n_mode="fixed:4")
        return TR._set_loss(params, batch).item()

    before = np.mean([set_loss_on(s) for s in range(4)])
    TR.faset_stage2(params, tiny_dataset, cfg)
    after = np.mean([set_loss_on(s) for s in range(4)])
    assert after <= before


def test_stage2_rejects_unreachable_sets(tiny_dataset):
    with pytest.raises(ContractError):
        TR.faset_stage2(tiny_model(), tiny_dataset, tiny_train_cfg(n_mode="fixed:1"))


def test_stage2_on_pooling_is_refused(tiny_dataset):
    params = tiny_model("mean")
    base0, att0 = params.checksum("base"), params.checksum("att")
    with pytest.raises(ContractError, match="finetune"):
        TR.faset_stage2(params, tiny_dataset, tiny_train_cfg())
    assert (params.checksum("base"), params.checksum("att")) == (base0, att0)


@pytest.mark.parametrize("trainer", [TR.faset_stage1, TR.faset_stage2, TR.joint_train])
def test_a_bundle_without_a_config_is_refused(tiny_dataset, tmp_path, trainer):
    path = tmp_path / "model.sfck"
    M.save_checkpoint(tiny_model(), path)
    params = M.load_checkpoint(path)
    checksum = params.checksum()
    with pytest.raises(ContractError, match="no model config; pass cfg to load_checkpoint"):
        trainer(params, tiny_dataset, tiny_train_cfg())
    assert params.checksum() == checksum
    assert all(t.requires_grad for _, _, t in params.named("all"))


# ----------------------------------------------------------------- schedule

@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
@pytest.mark.parametrize("mode", ["faset", "joint", "finetune"])
def test_schedule_picks_the_trainers(mode, kind):
    if mode == "finetune":  # no longer a mode: no schedule falls through to it
        with pytest.raises(ContractError, match="'finetune'"):
            TR.schedule(mode, kind, "fixed:8")
        return
    if mode == "joint":
        expected = [("joint", TR.joint_train)]
    elif mode == "faset" and kind in ("attsets_fc", "attsets_conv", "attsets_elem"):
        expected = [("stage1", TR.faset_stage1), ("stage2", TR.faset_stage2)]
    else:
        expected = [("stage1", TR.single_view_train), ("stage2", TR.finetune)]
    # tags compared by value, trainers by identity (functions compare by identity)
    assert list(TR.schedule(mode, kind, "fixed:8")) == expected


def test_schedule_returns_a_patched_trainer(monkeypatch):
    def patched(params, dataset, cfg):
        raise AssertionError("not called")

    monkeypatch.setattr(TR, "faset_stage2", patched)
    assert TR.schedule("faset", "attsets_fc", "fixed:8")[1][1] is patched


def test_schedule_refuses_an_unreachable_stage2():
    with pytest.raises(ContractError, match="train.n_mode"):
        TR.schedule("faset", "attsets_fc", "fixed:1")
    # finetune runs at any set size
    assert TR.schedule("faset", "mean", "fixed:1")[1][1] is TR.finetune


@pytest.mark.parametrize("batch_size", [1, 4])
def test_one_stage1_trains_the_same_base_for_every_kind_but_the_gru(tiny_dataset, batch_size):
    # Stage 1 draws one-element sets, and on one element every kind but the
    # GRU returns that element, so FASet's first trainer trains one base.
    cfg = tiny_train_cfg(batch_size=batch_size, stage1_steps=20, n_mode="fixed:8")
    runs = {}
    for kind in AGGREGATOR_KINDS:
        params = M.model_init(M.ModelConfig(image_side=8, latent_dim=16, encoder_hidden=16,
                                            decoder_hidden=16, grid_side=8,
                                            aggregator_kind=kind, seed=1))
        (tag, trainer), _ = TR.schedule("faset", kind, cfg.n_mode)
        assert tag == "stage1"
        report = trainer(params, tiny_dataset, cfg)
        runs[kind] = (report.base_checksum, np.array(report.losses).tobytes())
    gru = runs.pop("gru")
    assert len(runs) == 6 and len(set(runs.values())) == 1
    assert gru[0] != runs["mean"][0]


# -------------------------------------------------------------- joint_train

def test_joint_fixed1_matches_stage1_base_trajectory(tiny_dataset):
    cfg = tiny_train_cfg(stage1_steps=12, stage2_steps=0, n_mode="fixed:1", seed=4)
    a = tiny_model(seed=2)
    TR.faset_stage1(a, tiny_dataset, cfg)
    b = tiny_model(seed=2)
    TR.joint_train(b, tiny_dataset, cfg)
    assert a.checksum("base") == b.checksum("base")
    assert b.checksum("att") == tiny_model(seed=2).checksum("att")  # zero gradients


@pytest.mark.parametrize("kind", ["mean", "gru"])
def test_single_view_train_is_joint_fixed1_over_all_parameters(tiny_dataset, kind):
    cfg = tiny_train_cfg(stage1_steps=6, n_mode="fixed:4")
    a = tiny_model(kind)
    single = TR.single_view_train(a, tiny_dataset, cfg)
    b = tiny_model(kind)
    joint = TR.joint_train(b, tiny_dataset, replace(cfg, n_mode="fixed:1", stage2_steps=0))
    assert single.stage == "stage1" and single.steps == 6
    assert single.losses == joint.losses and a.checksum() == b.checksum()


def test_joint_multiview_updates_both_groups(tiny_dataset):
    params = tiny_model(seed=5)
    base0, att0 = params.checksum("base"), params.checksum("att")
    TR.joint_train(params, tiny_dataset, tiny_train_cfg(stage1_steps=6, stage2_steps=6,
                                                        n_mode="fixed:4"))
    assert params.checksum("base") != base0
    assert params.checksum("att") != att0


def test_joint_deterministic(tiny_dataset):
    cfg = tiny_train_cfg(stage1_steps=5, stage2_steps=5)
    r1 = TR.joint_train(tiny_model(seed=6), tiny_dataset, cfg)
    r2 = TR.joint_train(tiny_model(seed=6), tiny_dataset, cfg)
    assert r1.base_checksum == r2.base_checksum
    assert r1.att_checksum == r2.att_checksum
    assert r1.losses == r2.losses


# ----------------------------------------------------------------- finetune

def test_finetune_pooling_updates_base(tiny_dataset):
    params = tiny_model("max", seed=7)
    base0 = params.checksum("base")
    TR.finetune(params, tiny_dataset, tiny_train_cfg(finetune_rate=1e-4))
    assert params.checksum("base") != base0


def test_finetune_gru_updates_everything(tiny_dataset):
    params = tiny_model("gru", seed=8)
    base0, att0 = params.checksum("base"), params.checksum("att")
    TR.finetune(params, tiny_dataset, tiny_train_cfg(finetune_rate=1e-4))
    assert params.checksum("base") != base0
    assert params.checksum("att") != att0


def test_finetune_zero_rate_is_identity(tiny_dataset):
    params = tiny_model(seed=9)
    whole = params.checksum("all")
    TR.finetune(params, tiny_dataset, tiny_train_cfg(finetune_rate=0.0))
    assert params.checksum("all") == whole


# ------------------------------------------------------------------ report

def test_report_json_bytes():
    report = TR.TrainReport(stage="stage2", steps=2, losses=[0.5, 0.25], wallclock_ms=1.5,
                            base_checksum="ab", att_checksum="cd")
    body = ('{\n  "stage": "stage2",\n  "steps": 2,\n  "losses": [\n    0.5,\n    0.25\n  ],\n'
            '  "wallclock_ms": 1.5,\n  "base_checksum": "ab",\n  "att_checksum": "cd"')
    assert report.to_json() == body + "\n}\n"


def test_report_json_schema(tiny_dataset):
    report = TR.faset_stage1(tiny_model(seed=10), tiny_dataset, tiny_train_cfg(stage1_steps=3))
    doc = json.loads(report.to_json())
    assert set(doc) == {"stage", "steps", "losses", "wallclock_ms",
                        "base_checksum", "att_checksum"}
    assert doc["stage"] == "stage1"
    assert len(doc["losses"]) == 3
