"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 8, 9 and 12 train on the default-scale synthetic dataset
(2000 train / 500 test, 16^3 grids) and take a few minutes; everything
else is seconds. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from setfusion import aggregators as ag
from setfusion import bench as B
from setfusion import data as D
from setfusion import metrics as E
from setfusion import model as M
from setfusion import tensor as T
from setfusion import training as TR
from setfusion.tensor import Tensor

TRAIN_CFG = dict(batch_size=16, stage1_steps=600, stage2_steps=600,
                 n_mode="fixed:8", learning_rate=1e-3, seed=2)
MODEL_CFG = dict(aggregator_kind="attsets_fc", seed=1)
EVAL_SEED = 3
DATA_SEED = 0


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------- shared pipelines

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_ds")
    gen_report = D.generate_dataset(D.DatasetMeta(seed=DATA_SEED), root)
    assert gen_report["views_informative"], "views must beat a constant predictor"
    trainset, _ = D.load_dataset(root / "train.sfds")
    testset, _ = D.load_dataset(root / "test.sfds")
    return trainset, testset


def run_pipeline(trainset, testset):
    """Train FASet and JoinT from identical inits and evaluate both at
    N in {1, 8}; returns the IoU table and the wall-clock."""
    start = time.perf_counter()
    tc = TR.TrainConfig(**TRAIN_CFG)
    ecfg = E.EvalConfig(view_counts=(1, 8), seed=EVAL_SEED)

    faset = M.model_init(M.ModelConfig(**MODEL_CFG))
    TR.faset_stage1(faset, trainset, tc)
    TR.faset_stage2(faset, trainset, tc)
    rep_f = E.eval_sweep(faset, testset, ecfg, method="faset")

    joint = M.model_init(M.ModelConfig(**MODEL_CFG))
    TR.joint_train(joint, trainset, tc)
    rep_j = E.eval_sweep(joint, testset, ecfg, method="joint")

    return {
        "faset@1": rep_f.mean_iou(1),
        "faset@8": rep_f.mean_iou(8),
        "joint@1": rep_j.mean_iou(1),
        "joint@8": rep_j.mean_iou(8),
        "seconds": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def pipeline(dataset):
    trainset, testset = dataset
    return run_pipeline(trainset, testset)


# ----------------------------------------------------------------- criteria

def test_criterion_01_permutation_invariance():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        d = (1, 8, 64)[trial % 3]
        n = int(rng.integers(2, 25))
        x = rng.standard_normal((n, d)) * 2.0
        pf = ag.aggregator_init("attsets_fc", d)
        pf.weights["W"] = Tensor(rng.standard_normal((d, d)) * 0.3, requires_grad=True)
        pe = ag.aggregator_init("attsets_elem", d)
        pe.weights["w"] = Tensor(rng.standard_normal((d, 1)) * 0.3, requires_grad=True)
        pc = ag.aggregator_init("attsets_conv", d)
        pc.weights["W"] = Tensor(rng.standard_normal((d, d)) * 0.3, requires_grad=True)
        base = {
            "fc": ag.aggregate(ag.SetBatch(Tensor(x)), pf)[0].data,
            "elem": ag.aggregate(ag.SetBatch(Tensor(x)), pe)[0].data,
            "conv": ag.aggregate(ag.SetBatch(Tensor(x)), pc)[0].data,
            "max": ag.aggregate(ag.SetBatch(Tensor(x)), ag.AggregatorParams("max"))[0].data,
            "mean": ag.aggregate(ag.SetBatch(Tensor(x)), ag.AggregatorParams("mean"))[0].data,
            "sum": ag.aggregate(ag.SetBatch(Tensor(x)), ag.AggregatorParams("sum"))[0].data,
        }
        for _ in range(10):
            xp = x[rng.permutation(n)]
            outs = {
                "fc": ag.aggregate(ag.SetBatch(Tensor(xp)), pf)[0].data,
                "elem": ag.aggregate(ag.SetBatch(Tensor(xp)), pe)[0].data,
                "conv": ag.aggregate(ag.SetBatch(Tensor(xp)), pc)[0].data,
                "max": ag.aggregate(ag.SetBatch(Tensor(xp)), ag.AggregatorParams("max"))[0].data,
                "mean": ag.aggregate(ag.SetBatch(Tensor(xp)), ag.AggregatorParams("mean"))[0].data,
                "sum": ag.aggregate(ag.SetBatch(Tensor(xp)), ag.AggregatorParams("sum"))[0].data,
            }
            for key in base:
                worst = max(worst, float(np.abs(outs[key] - base[key]).max()))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-9 and elapsed < 10.0,
           f"max deviation {worst:.2e} over 100 sets x 10 permutations in {elapsed:.1f}s")


def test_criterion_02_gru_permutation_variance():
    rng = np.random.default_rng(12)
    best = 0.0
    for trial in range(20):
        params = ag.aggregator_init("gru", 8, seed=trial)
        x = rng.standard_normal((int(rng.integers(3, 12)), 8)) * 2.0
        fwd = ag.aggregate(ag.SetBatch(Tensor(x)), params)[0].data
        perm = ag.aggregate(ag.SetBatch(Tensor(x[::-1])), params)[0].data
        best = max(best, float(np.abs(fwd - perm).max()))
    report(2, best > 1e-3, f"largest permutation-pair difference {best:.2e}")


def test_criterion_03_single_element_identity():
    rng = np.random.default_rng(13)
    ok = True
    for trial in range(20):
        d = int(rng.integers(1, 33))
        x = rng.standard_normal((1, d)) * 3.0
        for kind in ("attsets_fc", "attsets_elem", "attsets_conv"):
            params = ag.aggregator_init(kind, d)
            for w in params.weights.values():
                w.data[:] = rng.standard_normal(w.shape)
            y, scores = ag.aggregate(ag.SetBatch(Tensor(x)), params)
            ok &= np.array_equal(y.data, x)
            ok &= np.array_equal(scores, np.ones((1, d)))
    report(3, ok, "single element returned bit-exactly with scores exactly 1.0")


def _attention_loss(x, w, rvec, kind):
    params = ag.AggregatorParams(kind, {"W" if kind != "attsets_elem" else "w": w})
    y, _ = ag.aggregate(ag.SetBatch(Tensor(x)), params)
    return T.reduce_sum(T.ew_binary("mul", T.reshape(y, [y.size]), Tensor(rvec)), 0)


def test_criterion_04_zero_gradient_single_element():
    rng = np.random.default_rng(14)
    ok = True
    details = []
    for kind, wshape in (("attsets_fc", (6, 6)), ("attsets_elem", (6, 1))):
        x = rng.standard_normal((1, 6))
        rvec = rng.standard_normal(6)
        w = Tensor(rng.standard_normal(wshape), requires_grad=True)
        with T.Tape() as tape:
            tape.backward(_attention_loss(x, w, rvec, kind))
        ok &= np.array_equal(w.grad, np.zeros(w.size))
        fd = T.finite_diff_grad(lambda t: _attention_loss(x, t, rvec, kind), w).data
        ok &= np.abs(fd).max() < 1e-8
        details.append(f"{kind}: tape max {np.abs(w.grad).max():.1e}, fd max {np.abs(fd).max():.1e}")
    report(4, ok, "; ".join(details))


def test_criterion_05_nonzero_gradient_and_full_model_gradcheck(dataset):
    trainset, _ = dataset
    rng = np.random.default_rng(15)

    # nonzero attention-weight gradient on a random multi-element set
    x = rng.standard_normal((5, 6))
    rvec = rng.standard_normal(6)
    w = Tensor(rng.standard_normal((6, 6)) * 0.3, requires_grad=True)
    with T.Tape() as tape:
        tape.backward(_attention_loss(x, w, rvec, "attsets_fc"))
    nonzero = np.abs(w.grad).max() > 0

    # the whole D=8, G=4 model against central differences
    cfg = M.ModelConfig(image_side=4, latent_dim=8, encoder_hidden=8,
                        decoder_hidden=8, grid_side=4,
                        aggregator_kind="attsets_fc", seed=20)
    params = M.model_init(cfg)
    for _, _, t in params.named():  # move off the zero init so every path is active
        t.data += rng.standard_normal(t.shape) * 0.05
    views = rng.uniform(0, 1, size=(3, 16))
    target = rng.integers(0, 2, 64).astype(np.float64)
    sets = [(views, target)]

    worst = 0.0
    for name, _, tensor in params.named():
        params.zero_grads()
        with T.Tape() as tape:
            tape.backward(TR._set_loss(params, sets))
        ad = tensor.grad.reshape(tensor.shape)

        def f(t, name=name):
            saved = params.group("base").get(name) or params.group("att").get(name)
            old = saved.data
            saved.data = t.data
            try:
                return TR._set_loss(params, sets)
            finally:
                saved.data = old

        # eps sized so rounding noise in the central difference stays well
        # below the 1e-5 relative tolerance for near-zero coordinates
        fd = T.finite_diff_grad(f, tensor, eps=5e-5).data
        denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-8)
        worst = max(worst, float((np.abs(ad - fd) / denom).max()))
    report(5, nonzero and worst < 1e-5,
           f"attention grad max {np.abs(w.grad).max():.2e}; "
           f"full-model fd rel err {worst:.2e} over all parameters")


def test_criterion_06_zero_init_equals_mean_pooling():
    rng = np.random.default_rng(16)
    worst = 0.0
    cfg = M.ModelConfig(image_side=8, latent_dim=16, encoder_hidden=16,
                        decoder_hidden=16, grid_side=8,
                        aggregator_kind="attsets_fc", seed=21)
    att_model = M.model_init(cfg)
    mean_model = M.ParamBundle(base=att_model.base, att={},
                               cfg=M.ModelConfig(**{**vars(cfg), "aggregator_kind": "mean"}))
    for _ in range(10):
        views = [rng.uniform(0, 1, (8, 8)) for _ in range(4)]
        a = M.predict(views, att_model)[0].probs.data
        b = M.predict(views, mean_model)[0].probs.data
        worst = max(worst, float(np.abs(a - b).max()))
    report(6, worst <= 1e-12, f"end-to-end deviation from mean pooling {worst:.2e}")


def test_criterion_07_group_isolation(dataset):
    trainset, _ = dataset
    cfg = M.ModelConfig(image_side=16, latent_dim=32, encoder_hidden=32,
                        decoder_hidden=32, grid_side=16,
                        aggregator_kind="attsets_fc", seed=22)
    params = M.model_init(cfg)
    tc = TR.TrainConfig(batch_size=8, stage1_steps=25, stage2_steps=25,
                        n_mode="fixed:4", seed=23)
    att0 = params.checksum("att")
    TR.faset_stage1(params, trainset, tc)
    att_frozen = params.checksum("att") == att0

    base1 = params.checksum("base")
    single_views = [trainset[i].views[0] for i in range(5)]
    before = [M.predict([v], params)[0].probs.data.copy() for v in single_views]
    TR.faset_stage2(params, trainset, tc)
    base_frozen = params.checksum("base") == base1
    after = [M.predict([v], params)[0].probs.data for v in single_views]
    preds_same = all(np.array_equal(a, b) for a, b in zip(before, after))
    argmax_same = all(np.array_equal(a > 0.5, b > 0.5) for a, b in zip(before, after))
    report(7, att_frozen and base_frozen and preds_same and argmax_same,
           f"att frozen in stage 1: {att_frozen}; base frozen in stage 2: {base_frozen}; "
           f"single-view predictions bit-identical: {preds_same}")


def test_criterion_08_faset_beats_joint_at_single_view(pipeline):
    gap = pipeline["faset@1"] - pipeline["joint@1"]
    ok = gap >= 0.05 and pipeline["seconds"] < 900.0
    report(8, ok,
           f"faset@1 {pipeline['faset@1']:.4f} vs joint@1 {pipeline['joint@1']:.4f} "
           f"(gap {gap:+.4f}, needs >= +0.05) in {pipeline['seconds']:.0f}s")


def test_criterion_09_multiview_benefit(pipeline):
    gap = pipeline["faset@8"] - pipeline["faset@1"]
    report(9, gap >= 0.02,
           f"faset@8 {pipeline['faset@8']:.4f} vs faset@1 {pipeline['faset@1']:.4f} "
           f"(gap {gap:+.4f}, needs >= +0.02)")


def test_criterion_10_iou_oracle_and_threshold_rule():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 100))
        probs = rng.uniform(0, 1, n)
        gt = rng.integers(0, 2, n).astype(np.uint8)
        p = float(rng.choice(E.default_thresholds()))
        inter = union = 0
        for h, t in zip(probs, gt):
            if (h > p) and t:
                inter += 1
            if (h > p) or t:
                union += 1
        naive = 1.0 if union == 0 else inter / union
        ok &= E.iou(probs, gt, p) == naive

    grid = E.default_thresholds()
    ok &= len(grid) == 13 and grid[0] == 0.20 and grid[-1] == 0.80

    # constructed tie: every threshold separates 0.1 from 0.9 identically
    class Sample:
        sample_id = 0
        views = np.zeros((8, 4, 4))
        gt = np.concatenate([np.ones(8), np.zeros(56)]).astype(np.uint8)

    probs = np.concatenate([np.full(8, 0.9), np.full(56, 0.1)])
    import setfusion.metrics as metrics
    orig = metrics._predicted_probs
    metrics._predicted_probs = lambda *a: [(0, probs, Sample.gt)]
    try:
        best_p, _ = E.threshold_search(object(), [Sample()], E.EvalConfig(), 1)
    finally:
        metrics._predicted_probs = orig
    ok &= best_p == 0.20
    report(10, ok, "metric matches naive enumeration on 1000 grids; "
                   f"tie over the 13-value grid resolves to {best_p}")


def test_criterion_11_timing_trends():
    bench_cfg = B.BenchConfig(n_grid=(1, 4, 8, 12, 16, 20, 24), inner_loops=2,
                              aggregators=("attsets_fc", "mean", "gru"), seed=24)
    rep = B.run_bench(bench_cfg)
    gru = [rep.cell("gru", n)["agg_only_ms"] for n in bench_cfg.n_grid]
    increasing = all(b > a for a, b in zip(gru, gru[1:]))
    ratios = [rep.cell("attsets_fc", n)["full_forward_ms"]
              / rep.cell("mean", n)["full_forward_ms"] for n in bench_cfg.n_grid]
    within = all(r <= 1.5 for r in ratios)
    report(11, increasing and within,
           f"gru agg-only ms {['%.3f' % g for g in gru]} strictly increasing: {increasing}; "
           f"attsets/mean full-forward ratio max {max(ratios):.3f} (needs <= 1.5)")


def test_criterion_12_determinism(dataset, pipeline):
    trainset, testset = dataset
    second = run_pipeline(trainset, testset)
    same = all(pipeline[k] == second[k] for k in ("faset@1", "faset@8", "joint@1", "joint@8"))
    report(12, same,
           f"second run reproduced IoU values bit-for-bit: {same} "
           f"(faset@1 {second['faset@1']:.6f}, joint@1 {second['joint@1']:.6f})")
