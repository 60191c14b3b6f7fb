"""Tests of the benchmark itself: tiny runs of every workload, the reference
computations against the library, and every check failing on a
deliberately corrupted output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from setfusion import data as sf_data  # noqa: E402
from setfusion import metrics as sf_metrics  # noqa: E402
from setfusion import model as sf_model  # noqa: E402
from setfusion import tensor as sf_tensor  # noqa: E402
from setfusion import training as sf_training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.TINY


def tiny_model(kind: str, seed: int = 4):
    cfg = sf_model.ModelConfig(image_side=TINY.image_side, latent_dim=TINY.latent_dim,
                               encoder_hidden=TINY.encoder_hidden,
                               decoder_hidden=TINY.decoder_hidden, grid_side=TINY.grid_side,
                               aggregator_kind=kind, seed=seed, max_views=8)
    params = sf_model.model_init(cfg)
    rng = np.random.default_rng(seed)
    for t in params.att.values():  # away from the all-zero start, so attention is not uniform
        t.data[...] = rng.uniform(-0.5, 0.5, size=t.shape)
    return params


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    meta = sf_data.DatasetMeta(train_count=6, test_count=6, grid_side=TINY.grid_side,
                               image_side=TINY.image_side, seed=9)
    sf_data.generate_dataset(meta, d)
    train, _ = sf_data.load_dataset(d / "train.sfds")
    test, _ = sf_data.load_dataset(d / "test.sfds")
    return train, test


# ---------------------------------------------------------------- smoke runs

def test_every_listed_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_every_workload(workload, trace, tmp_path):
    result = workloads.run_workload(workload, seed=7, seconds=0.2, trace=trace,
                                    work=tmp_path / "work", sizes=TINY)
    assert result["check_failures"] == [] and result["errors"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (tmp_path / "work").exists()


def test_a_faulty_program_reads_incorrect(tmp_path):
    sf_tensor.enable_fault("softmax_skew")
    try:
        result = workloads.run_workload("faset-fc", seed=7, seconds=0.1, trace=False,
                                        work=tmp_path / "work", sizes=TINY)
    finally:
        sf_tensor.clear_faults()
    assert result["correct"] is False
    assert any("attention" in f for f in result["check_failures"])


def test_tracer_restores_every_patched_name():
    tracer = workloads.Tracer(workloads.SF_MODULES)
    before = {(id(m), k): v for m in [*workloads.SF_MODULES.values(), sf_tensor.Tape]
              for k, v in vars(m).items()}
    tracer.install()
    tracer.uninstall()
    after = {(id(m), k): v for m in [*workloads.SF_MODULES.values(), sf_tensor.Tape]
             for k, v in vars(m).items()}
    assert before == after


def test_benchmark_fails_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "faset-fc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_unknown_workload_is_refused():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "nope",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


# ------------------------------------------- the references match the library

@pytest.mark.parametrize("kind", ["attsets_fc", "gru"])
def test_reference_forward_matches_predict_and_loss(kind, tiny_data):
    train, _ = tiny_data
    params = tiny_model(kind)
    p = workloads.arrays(params)
    views = list(train[0].views[:5])
    grid, _ = sf_model.predict(views, params)
    assert checks.probs_match("predict", grid.probs.data,
                              reference.predict_probs(p, kind, workloads.flat_views(views))) == []
    cfg = sf_training.TrainConfig(batch_size=3, stage1_steps=1, stage2_steps=0,
                                  n_mode="uniform:1:8", seed=3)
    report = sf_training.joint_train(params, train, cfg)
    batch = sf_training.sample_minibatch(train, cfg, 0)
    assert checks.loss_matches("loss", report.losses[0],
                               reference.forward_loss(p, kind, batch)) == []


def test_reference_march_and_iou_match_the_library(tiny_data):
    _, test = tiny_data
    for x in test:
        occ = x.gt.reshape((TINY.grid_side,) * 3)
        assert checks.depth_matches_march("views", x.views, occ) == []
        for t in reference.THRESHOLDS:
            probs = np.linspace(0, 1, x.gt.size)
            assert reference.naive_iou(probs, x.gt, t) == sf_metrics.iou(probs, x.gt, t)
    assert reference.THRESHOLDS == sf_metrics.default_thresholds()


def test_naive_threshold_search_breaks_ties_low():
    gt = np.array([1, 0, 0, 0])
    probs = np.array([0.9, 0.1, 0.1, 0.1])  # every threshold scores 1.0
    assert reference.naive_threshold_search([(probs, gt)]) == (0.2, 1.0)


# ---------------------------------- every check fails on a corrupted output

def test_loss_check_catches_a_skewed_loss():
    assert checks.loss_matches("l", 0.7, 0.7) == []
    assert checks.loss_matches("l", 0.7 * (1 + 1e-8), 0.7) != []


def test_finite_check_catches_nan():
    assert checks.all_finite("l", [0.1, 0.2]) == []
    assert checks.all_finite("l", [0.1, float("nan")]) != []


def test_gradient_check_catches_a_wrong_coordinate():
    good = {"w[0]": 1.234e-3}
    assert checks.gradients_match("g", good, dict(good)) == []
    assert checks.gradients_match("g", {"w[0]": 1.234e-3 * (1 + 1e-4)}, good) != []


def test_central_difference_holds_the_relu_pattern_at_a_kink(tiny_data):
    train, _ = tiny_data
    p = workloads.arrays(tiny_model("attsets_fc"))
    p["enc_w1"][:, 0] = 0.0
    p["enc_b1"][0, 0] = 0.0  # unit 0 sits exactly on its kink for every view
    sets = [(x.views.reshape(len(x.views), -1)[:3], x.gt) for x in train[:2]]
    # a plain symmetric difference straddles the kink and reads half the right slope
    eps = 1e-5
    bumped = {k: v.copy() for k, v in p.items()}
    bumped["enc_b1"][0, 0] = eps
    hi = reference.forward_loss(bumped, "attsets_fc", sets)
    bumped["enc_b1"][0, 0] = -eps
    lo = reference.forward_loss(bumped, "attsets_fc", sets)
    assert (hi - lo) / (2 * eps) != 0.0
    # held at the unbumped pattern, the unit stays inactive: relu'(0) = 0
    assert reference.central_difference(p, "attsets_fc", sets, "enc_b1", (0, 0)) == 0.0
    assert reference.central_difference(p, "attsets_fc", sets, "dec_b2", (0, 5)) != 0.0


def test_group_check_catches_one_changed_value():
    a = {"att_W": np.zeros((3, 3))}
    b = {"att_W": np.zeros((3, 3))}
    assert checks.arrays_identical("att", a, b) == []
    b["att_W"][1, 2] = 1e-300
    assert checks.arrays_identical("att", a, b) != []


def test_predict_check_catches_one_flipped_voxel(tiny_data):
    train, _ = tiny_data
    params = tiny_model("attsets_fc")
    views = list(train[1].views[:4])
    probs = sf_model.predict(views, params)[0].probs.data.copy()
    ref = reference.predict_probs(workloads.arrays(params), "attsets_fc",
                                  workloads.flat_views(views))
    probs[3] = 1.0 - probs[3]
    assert checks.probs_match("predict", probs, ref) != []


def test_attention_check_catches_a_skewed_column(tiny_data):
    train, _ = tiny_data
    params = tiny_model("attsets_fc")
    views = list(train[2].views[:6])
    _, attn = sf_model.predict(views, params)
    assert checks.attention_normalized("attention", attn.scores.data) == []
    sf_tensor.enable_fault("softmax_skew")
    try:
        _, skewed = sf_model.predict(views, params)
    finally:
        sf_tensor.clear_faults()
    assert checks.attention_normalized("attention", skewed.scores.data) != []


def test_order_check_catches_a_gru_that_ignores_the_permutation(tiny_data):
    train, _ = tiny_data
    params = tiny_model("gru")
    p = workloads.arrays(params)
    views = list(train[3].views)
    shuffled = views[::-1]
    original = sf_model.predict(views, params)[0].probs.data
    permuted = sf_model.predict(shuffled, params)[0].probs.data
    ref = reference.predict_probs(p, "gru", workloads.flat_views(shuffled))
    assert checks.order_sensitive("gru", original, permuted, ref) == []
    assert checks.order_sensitive("gru", original, original, ref) != []


def test_eval_check_catches_one_flipped_voxel(tiny_data):
    _, test = tiny_data
    params = tiny_model("attsets_fc")
    cfg = sf_metrics.EvalConfig(view_counts=(1, 8), seed=5)
    report = sf_metrics.eval_sweep(params, test, cfg)

    def naive(corrupt: bool):
        out = {}
        for n in (1, 8):
            pairs = []
            for x in test:
                picked = sf_metrics.choose_views(5, x.sample_id, n, len(x.views))
                probs = sf_model.predict([x.views[i] for i in picked], params)[0].probs.data.copy()
                pairs.append((probs, x.gt))
            if corrupt:
                row = next(r for r in report.rows if r["n"] == n)
                probs, gt = pairs[0]
                i = int(np.argmax(probs > row["threshold"]))
                probs[i] = 0.0 if probs[i] > row["threshold"] else 1.0
            out[n] = reference.naive_threshold_search(pairs)
        return out

    assert checks.eval_rows_match("eval", report.rows, naive(False)) == []
    assert checks.eval_rows_match("eval", report.rows, naive(True)) != []


def test_depth_check_catches_one_wrong_pixel(tiny_data):
    _, test = tiny_data
    x = test[0]
    views = x.views.copy()
    views[6, 2, 3] += 1.0 / TINY.grid_side
    assert checks.depth_matches_march("views", views, x.gt.reshape((TINY.grid_side,) * 3)) != []


def test_occupancy_check_catches_an_empty_grid():
    assert checks.occupancy_in_range("gt", np.r_[np.ones(10), np.zeros(90)]) == []
    assert checks.occupancy_in_range("gt", np.zeros(100)) != []


def test_roundtrip_check_catches_one_flipped_byte(tmp_path):
    params = tiny_model("attsets_fc")
    path = tmp_path / "a.sfck"
    sf_model.save_checkpoint(params, path)
    blob = path.read_bytes()
    again = tmp_path / "b.sfck"
    sf_model.save_checkpoint(sf_model.load_checkpoint(path, cfg=params.cfg), again)
    assert checks.bytes_equal("roundtrip", again.read_bytes(), blob) == []
    flipped = bytearray(blob)
    flipped[-3] ^= 0x01
    assert checks.bytes_equal("roundtrip", bytes(flipped), blob) != []
