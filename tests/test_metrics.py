import numpy as np
import pytest

from setfusion import data as D
from setfusion import metrics as E
from setfusion import model as M
from setfusion import tensor as T
from setfusion.aggregators import AGGREGATOR_KINDS
from setfusion.errors import ContractError, ShapeError


def naive_iou(probs, gt, p):
    """Voxel-by-voxel enumeration, independent of the metric under test."""
    inter = union = 0
    for h, t in zip(np.asarray(probs).reshape(-1), np.asarray(gt).reshape(-1)):
        pred_on = h > p
        true_on = t > 0.5
        if pred_on and true_on:
            inter += 1
        if pred_on or true_on:
            union += 1
    return 1.0 if union == 0 else inter / union


# ---------------------------------------------------------------------- iou

def test_iou_exact_match_is_one():
    gt = np.array([1, 0, 1, 0], dtype=np.uint8)
    pred = np.array([0.9, 0.1, 0.8, 0.2])
    assert E.iou(pred, gt, 0.5) == 1.0


def test_iou_disjoint_is_zero():
    assert E.iou(np.array([0.9, 0.1]), np.array([0, 1], dtype=np.uint8), 0.5) == 0.0


def test_iou_partial_overlap_third():
    # pred occupies {a, b}, gt occupies {b, c}
    pred = np.array([0.9, 0.9, 0.1])
    gt = np.array([0, 1, 1], dtype=np.uint8)
    assert E.iou(pred, gt, 0.5) == pytest.approx(1.0 / 3.0)


def test_iou_empty_union_is_one():
    assert E.iou(np.array([0.1, 0.2]), np.array([0, 0], dtype=np.uint8), 0.5) == 1.0


def test_iou_threshold_is_strict():
    assert E.iou(np.array([0.5]), np.array([1], dtype=np.uint8), 0.5) == 0.0


def test_iou_shape_mismatch():
    with pytest.raises(ShapeError):
        E.iou(np.zeros(3), np.zeros(4), 0.5)


def test_iou_matches_naive_enumeration():
    """At grid thresholds, at uniform draws in (0, 1) and at a threshold
    equal to one of the probabilities, where the strict ``>`` decides."""
    rng = np.random.default_rng(0)
    for i in range(300):
        n = int(rng.integers(1, 65))
        probs = rng.uniform(0, 1, n)
        gt = rng.integers(0, 2, n).astype(np.uint8)
        p = float([rng.choice(E.default_thresholds()), rng.uniform(0, 1),
                   rng.choice(probs)][i % 3])
        assert E.iou(probs, gt, p) == naive_iou(probs, gt, p), (i, p)


# ------------------------------------------------------------------ config

def test_threshold_grid_has_13_values():
    t = E.default_thresholds()
    assert len(t) == 13
    assert t[0] == 0.20 and t[-1] == 0.80
    assert all(round(b - a, 10) == 0.05 for a, b in zip(t, t[1:]))


# ------------------------------------------------------------ choose_views

def test_choose_views_is_method_independent_and_deterministic():
    a = E.choose_views(3, 17, 4, 8)
    b = E.choose_views(3, 17, 4, 8)
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 4
    c = E.choose_views(3, 18, 4, 8)
    d = E.choose_views(4, 17, 4, 8)
    assert not (np.array_equal(a, c) and np.array_equal(a, d))


@pytest.mark.parametrize("available", [1, 3, 8])
def test_choose_views_of_every_view_equals_the_sorted_draw(available):
    for seed, sample_id in [(0, 0), (3, 17), (5, 2**31), (2**63, 4)]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, sample_id, available]))
        drawn = np.sort(rng.choice(available, size=available, replace=False))
        picked = E.choose_views(seed, sample_id, available, available)
        assert picked.dtype == drawn.dtype and np.array_equal(picked, drawn)


def test_choose_views_below_every_view_is_strictly_ascending():
    for available in (2, 3, 8):
        for n in range(1, available):
            for seed, sample_id in [(0, 0), (1, 5), (3, 17), (7, 2**31), (2**63, 4)]:
                picked = E.choose_views(seed, sample_id, n, available)
                assert picked.shape == (n,) and picked[0] >= 0 and picked[-1] < available
                assert np.all(np.diff(picked) > 0), (available, n, seed, sample_id, picked)


def test_choose_views_rejects_overdraw():
    with pytest.raises(ContractError):
        E.choose_views(0, 0, 9, 8)


# -------------------------------------------------------- search and sweep

@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    meta = D.DatasetMeta(train_count=4, test_count=6, grid_side=8, image_side=8, seed=5)
    D.generate_dataset(meta, out)
    testset, _ = D.load_dataset(out / "test.sfds")
    cfg = M.ModelConfig(image_side=8, latent_dim=8, encoder_hidden=12,
                        decoder_hidden=12, grid_side=8, aggregator_kind="attsets_fc", seed=2)
    params = M.model_init(cfg)
    return params, testset


def test_threshold_search_matches_bruteforce(tiny_world):
    params, testset = tiny_world
    cfg = E.EvalConfig(seed=1)
    best_p, best_iou = E.threshold_search(params, testset, cfg, 2)
    per_threshold = []
    for p in E.default_thresholds():
        vals = []
        for s in testset:
            picked = E.choose_views(cfg.seed, s.sample_id, 2, s.views.shape[0])
            grid, _ = M.predict([s.views[i] for i in picked], params)
            vals.append(E.iou(grid.probs.data, s.gt, p))
        per_threshold.append((p, float(np.mean(vals))))
    want_iou = max(v for _, v in per_threshold)
    want_p = min(p for p, v in per_threshold if v == want_iou)
    assert best_iou == want_iou
    assert best_p == want_p


def test_threshold_search_tie_breaks_low():
    class FlatSample:
        def __init__(self):
            self.sample_id = 0
            self.views = np.zeros((8, 4, 4))
            self.gt = np.zeros(64, dtype=np.uint8)
            self.gt[:8] = 1

    class FlatModel:
        cfg = None

    # probabilities of exactly 0.1 / 0.9 make every grid threshold equivalent
    import setfusion.metrics as metrics

    sample = FlatSample()
    probs = np.full(64, 0.1)
    probs[:8] = 0.9

    def fake_predicted(params, testset, cfg, n):
        return [(0, probs, sample.gt)]

    orig = metrics._predicted_probs
    metrics._predicted_probs = fake_predicted
    try:
        best_p, best_iou = E.threshold_search(FlatModel(), [sample], E.EvalConfig(), 1)
    finally:
        metrics._predicted_probs = orig
    assert best_p == 0.20
    assert best_iou == 1.0


def _best_threshold_by_loop(pairs):
    best_p, best_iou = None, -1.0
    for p in E.default_thresholds():
        mean_iou = float(np.mean([E.iou(probs, gt, p) for probs, gt in pairs]))
        if mean_iou > best_iou:
            best_p, best_iou = p, mean_iou
    return best_p, best_iou


def test_best_threshold_matches_per_pair_iou_loop():
    rng = np.random.default_rng(12)
    for trial in range(30):
        n, size = int(rng.integers(1, 20)), int(rng.choice([8, 64, 512]))
        pairs = [(rng.uniform(size=size), rng.uniform(size=size) < rng.uniform(0.05, 0.5))
                 for _ in range(n)]
        assert E.best_threshold(pairs) == _best_threshold_by_loop(pairs)
    empty = [(np.full(64, 0.1), np.zeros(64, dtype=np.uint8))]  # union 0 everywhere
    assert E.best_threshold(empty) == _best_threshold_by_loop(empty) == (0.20, 1.0)
    gt = np.zeros(64, dtype=np.uint8)
    gt[:8] = 1
    probs = np.where(gt > 0, 0.9, 0.1)  # every grid threshold scores 1.0
    pairs = [(probs, gt), (rng.uniform(size=64), gt)]
    assert E.best_threshold([(probs, gt)]) == (0.20, 1.0)
    assert E.best_threshold(pairs) == _best_threshold_by_loop(pairs)


def _search_bytes(pairs, thresholds):
    k, mean_iou, ious = E._grid_search(pairs, thresholds)
    return k, mean_iou.hex(), ious.tobytes()


@pytest.mark.parametrize("floor", [1, E.COUNT_SHARE_FLOOR], ids=["every-threshold", "default"])
def test_count_shares_keep_their_bytes(monkeypatch, floor):
    monkeypatch.setattr(E, "COUNT_SHARE_FLOOR", floor)
    rng = np.random.default_rng(23)
    probs = rng.uniform(size=(128, 4096))  # eval's 128 samples on the default 16^3 grid
    probs[:, :64] = 0.5  # ties with a threshold: strictly greater binarizes them to 0
    probs[3] = 0.1  # a pair whose union is empty at every threshold above 0.1
    gt = rng.uniform(size=(128, 4096)) < rng.uniform(0.02, 0.5, size=(128, 1))
    gt[3] = False
    pairs = list(zip(probs, gt))
    cases = [(pairs, E.default_thresholds()),  # 13: neither 2 nor 3 shares divide it evenly
             (pairs, E.default_thresholds()[:7]),
             (pairs[:1], E.default_thresholds()),  # a single pair
             (pairs[:1], (0.5,))]  # iou's single-threshold call
    monkeypatch.setattr(T, "CPU_WORKERS", 0)
    want = [_search_bytes(*case) for case in cases]
    one = E.iou(*pairs[0], 0.5)
    for workers in (1, 2, 3):
        monkeypatch.setattr(T, "CPU_WORKERS", workers)
        assert [_search_bytes(*case) for case in cases] == want, workers
        assert E.iou(*pairs[0], 0.5).hex() == one.hex()


def test_threshold_search_empty_testset(tiny_world):
    params, _ = tiny_world
    with pytest.raises(ContractError):
        E.threshold_search(params, [], E.EvalConfig(), 1)


def test_eval_sweep_deterministic(tiny_world):
    params, testset = tiny_world
    cfg = E.EvalConfig(view_counts=(1, 2, 4), seed=3)
    a = E.eval_sweep(params, testset, cfg)
    b = E.eval_sweep(params, testset, cfg)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_eval_sweep_rows_and_csv_columns(tiny_world):
    params, testset = tiny_world
    report = E.eval_sweep(params, testset, E.EvalConfig(view_counts=(1, 2, 4, 8), seed=3))
    assert [r["n"] for r in report.rows] == [1, 2, 4, 8]
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "method,N,threshold,mean_iou,n_samples"
    assert len(lines) == 5
    assert all(line.startswith("attsets_fc,") for line in lines[1:])
    for n in (1, 2, 4, 8):
        assert report.threshold(n) in E.default_thresholds()
        assert 0.0 <= report.mean_iou(n) <= 1.0
        assert len(report.per_sample[n]) == len(testset)


def test_eval_sweep_per_sample_is_iou_at_the_chosen_threshold(tiny_world):
    params, testset = tiny_world
    cfg = E.EvalConfig(view_counts=(1, 4), seed=3)
    report = E.eval_sweep(params, testset, cfg)
    for n in cfg.view_counts:
        p = report.threshold(n)
        want = []
        for s in testset:
            picked = E.choose_views(cfg.seed, s.sample_id, n, s.views.shape[0])
            probs = M.predict([s.views[i] for i in picked], params)[0].probs.data
            want.append((s.sample_id, E.iou(probs, s.gt, p)))
        assert report.per_sample[n] == want
        assert all(type(v) is float for _, v in report.per_sample[n])


def test_eval_sweep_view_shuffle_invariant_for_attention(tiny_world):
    params, testset = tiny_world
    rng = np.random.default_rng(9)
    for s in testset[:3]:
        picked = E.choose_views(3, s.sample_id, 4, s.views.shape[0])
        views = [s.views[i] for i in picked]
        base = M.predict(views, params)[0].probs.data
        shuffled = [views[i] for i in rng.permutation(4)]
        assert np.array_equal(M.predict(shuffled, params)[0].probs.data, base)


def test_eval_sweep_rejects_view_count_beyond_k(tiny_world):
    params, testset = tiny_world
    with pytest.raises(ContractError):
        E.eval_sweep(params, testset, E.EvalConfig(view_counts=(9,)))


def test_eval_sweep_rejects_empty_or_repeated_view_counts(tiny_world):
    params, testset = tiny_world
    for counts in ((), (2, 2), (1, 4, 1)):
        with pytest.raises(ContractError, match="view_counts"):
            E.EvalConfig(view_counts=counts).validate()
        with pytest.raises(ContractError, match="view_counts"):
            E.eval_sweep(params, testset, E.EvalConfig(view_counts=counts))


def test_eval_report_looks_up_one_row_per_n():
    report = E.EvalReport(method="m", rows=[{"n": 1, "threshold": 0.25, "mean_iou": 0.5,
                                             "n_samples": 3}], per_sample={})
    assert (report.threshold(1), report.mean_iou(1)) == (0.25, 0.5)
    for lookup in (report.threshold, report.mean_iou):
        with pytest.raises(KeyError, match="no row for N=2"):
            lookup(2)


def test_threshold_search_checks_the_view_count_bounds(tiny_world):
    params, testset = tiny_world
    with pytest.raises(ContractError, match="view counts must be >= 1"):
        E.threshold_search(params, testset, E.EvalConfig(), 0)
    with pytest.raises(ContractError, match=r"exceed the 8 stored views"):
        E.threshold_search(params, testset, E.EvalConfig(), 9)
    assert E.threshold_search(params, testset, E.EvalConfig(), 8)[0] in E.default_thresholds()


# ------------------------------------------------ batched evaluation forward

def _busy_model(kind):
    """A tiny model whose attention and GRU weights are all non-zero, so
    every kind's aggregate depends on its weights and on the set."""
    cfg = M.ModelConfig(image_side=8, latent_dim=8, encoder_hidden=12,
                        decoder_hidden=12, grid_side=8, aggregator_kind=kind, seed=4)
    params = M.model_init(cfg)
    rng = np.random.default_rng(21)
    for name, t in sorted(params.att.items()):
        t.data = rng.normal(0.0, 0.5, t.shape)
    return params


def _predicted_one_at_a_time(params, testset, cfg, n):
    out = []
    for s in testset:
        picked = E.choose_views(cfg.seed, s.sample_id, n, s.views.shape[0])
        grid, _ = M.predict([s.views[i] for i in picked], params)
        out.append((s.sample_id, grid.probs.data, s.gt))
    return out


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_batched_eval_equals_per_sample_predict(tiny_world, monkeypatch, kind):
    _, testset = tiny_world
    params = _busy_model(kind)
    cfg = E.EvalConfig(view_counts=(1, 3, 8), seed=6)
    for n in cfg.view_counts:
        got = E._predicted_probs(params, testset, cfg, n)
        want = _predicted_one_at_a_time(params, testset, cfg, n)
        assert [sid for sid, _, _ in got] == [sid for sid, _, _ in want]
        for (_, p, gt), (_, q, gt_want) in zip(got, want):
            assert p.shape == q.shape
            assert np.abs(p - q).max() <= 1e-12
            assert gt is gt_want
    batched = E.eval_sweep(params, testset, cfg)
    monkeypatch.setattr(E, "_predicted_probs", _predicted_one_at_a_time)
    looped = E.eval_sweep(params, testset, cfg)
    assert batched.rows == looped.rows
    assert batched.per_sample == looped.per_sample


@pytest.mark.parametrize("kind", ["attsets_fc", "gru"])
def test_batched_eval_does_not_depend_on_the_split_order(tiny_world, kind):
    _, testset = tiny_world
    params = _busy_model(kind)
    cfg = E.EvalConfig(view_counts=(1, 3, 8), seed=6)
    forward = E.eval_sweep(params, testset, cfg)
    backward = E.eval_sweep(params, testset[::-1], cfg)
    for n in cfg.view_counts:
        assert dict(backward.per_sample[n]) == dict(forward.per_sample[n])
        assert backward.threshold(n) == forward.threshold(n)


class _OddSample:
    def __init__(self, sample_id, side):
        self.sample_id = sample_id
        self.views = np.zeros((8, side, side))
        self.gt = np.zeros(512, dtype=np.uint8)


def test_batched_eval_keeps_predicts_typed_errors(tiny_world):
    params, testset = tiny_world
    cfg = E.EvalConfig(view_counts=(1, 4), seed=3)
    bare = M.ParamBundle(base=params.base, att=params.att, cfg=None)
    with pytest.raises(ContractError, match="no model config"):
        E.eval_sweep(bare, testset, cfg)
    narrow = M.ParamBundle(base=params.base, att=params.att,
                           cfg=M.ModelConfig(**{**vars(params.cfg), "max_views": 3}))
    with pytest.raises(ContractError, match="4 views exceed the configured maximum 3"):
        E.eval_sweep(narrow, testset, cfg)
    with pytest.raises(ShapeError, match="expected 8x8"):
        E.eval_sweep(params, [_OddSample(0, 8), _OddSample(1, 5)], cfg)


def test_eval_sweep_makes_one_batched_forward_per_view_count(tiny_world, monkeypatch):
    """The benchmark's tracer times eval's layers by wrapping these module
    attributes; a sweep that fell back to one ``predict`` per sample would
    still pass every other test."""
    params, testset = tiny_world
    calls = dict.fromkeys(("predict", "encode_batch", "aggregate", "decode_batch"), 0)

    def count(name):
        fn = getattr(M, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(M, name, counted)

    for name in calls:
        count(name)
    E.eval_sweep(params, testset, E.EvalConfig(view_counts=(1, 2, 8), seed=3))
    assert calls == {"predict": 0, "encode_batch": 3, "aggregate": 3, "decode_batch": 3}
