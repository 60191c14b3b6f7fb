"""Training, evaluation and prediction bits pinned against a committed record.

For every aggregator kind this runs ``training.schedule``, the routing of
``setfusion train``, for three steps per stage on a tiny model over a G = 8
dataset: ``--mode faset`` (FASet's two stages for the attention kinds,
``single_view_train`` + ``finetune`` for the others), then ``--mode joint``
from a fresh init, all with Adam. Each run records its reports' losses as
``float.hex`` and the base and att checksums, the SHA-256 of
``eval_sweep(...).to_json()`` at N in {1, 3}, and the SHA-256 of
``predict``'s probability and attention-score bytes on one 3-view sample.

Golden policy, shared with ``test_generated_bytes_match_golden_digest`` in
``test_data.py``: bits depend on the numpy and BLAS builds, and the record
names the builds it was made with. A build whose bits differ fails. A
change that moves bits on purpose regenerates the record and says why in
CHANGES.md. Regenerate with

    PYTHONPATH=src python tests/test_golden_bits.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from setfusion import tensor
from setfusion.aggregators import AGGREGATOR_KINDS
from setfusion.data import DatasetMeta, generate_dataset, load_dataset
from setfusion.metrics import EvalConfig, eval_sweep
from setfusion.model import ModelConfig, model_init, predict
from setfusion.training import TrainConfig, faset_stage1, faset_stage2, joint_train, schedule

GOLDEN = Path(__file__).with_name("golden_bits.json")
META = DatasetMeta(train_count=8, test_count=4, grid_side=8, image_side=8, seed=11)
EVAL = EvalConfig(view_counts=(1, 3), seed=5)


def _build() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, {blas.get('name', '?')} {blas.get('version', '?')}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(params, testset) -> dict:
    grid, attn = predict(testset[0].views[[0, 3, 6]], params)
    return {
        "eval_sha256": _sha(eval_sweep(params, testset, EVAL).to_json().encode()),
        "predict_probs_sha256": _sha(grid.probs.data.tobytes()),
        "predict_scores_sha256": None if attn is None else _sha(attn.scores.data.tobytes()),
    }


def _run(kind, trainset, testset, joint=False) -> dict:
    model_cfg = ModelConfig(image_side=8, latent_dim=16, encoder_hidden=16, decoder_hidden=32,
                            grid_side=8, aggregator_kind=kind, seed=2, max_views=8)
    train_cfg = TrainConfig(batch_size=4, stage1_steps=3, stage2_steps=3,
                            n_mode="uniform:1:4", seed=3)
    params = model_init(model_cfg)
    reports = []
    for _, trainer in schedule("joint" if joint else "faset", kind, train_cfg.n_mode):
        report = trainer(params, trainset, train_cfg)
        reports.append({"stage": report.stage, "losses": [x.hex() for x in report.losses],
                        "base_checksum": report.base_checksum,
                        "att_checksum": report.att_checksum})
    return {"reports": reports, **_outputs(params, testset)}


def compute_bits(dataset_dir) -> dict:
    generate_dataset(META, dataset_dir)
    trainset, _ = load_dataset(Path(dataset_dir) / "train.sfds")
    testset, _ = load_dataset(Path(dataset_dir) / "test.sfds")
    runs = {}
    for kind in AGGREGATOR_KINDS:
        runs[f"{kind}/adam"] = _run(kind, trainset, testset)
        runs[f"{kind}/adam/joint"] = _run(kind, trainset, testset, joint=True)
    return runs


def test_bits_match_the_golden_record(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    runs = compute_bits(tmp_path)
    assert runs.keys() == golden["runs"].keys()
    for name, run in runs.items():
        assert run == golden["runs"][name], (
            f"{name} differs from {GOLDEN.name}, recorded with {golden['build']} "
            f"(this build: {_build()})")


def _full_scale_bits(trainset, testset) -> list:
    """Losses, checksums, an eval report and a predict of the default model,
    whose decoder and encoder products, threshold counts and base-group
    Adam are large enough to run in shares."""
    train_cfg = TrainConfig(batch_size=16, stage1_steps=2, stage2_steps=2, n_mode="fixed:8",
                            seed=3)
    out = []
    for trainers in ((faset_stage1, faset_stage2), (joint_train,)):
        params = model_init(ModelConfig())
        for trainer in trainers:
            report = trainer(params, trainset, train_cfg)
            out.append(([x.hex() for x in report.losses], report.base_checksum,
                        report.att_checksum))
        grid, attn = predict(testset[0].views[[0, 3, 6]], params)
        out.append((eval_sweep(params, testset, EvalConfig(view_counts=(1, 8), seed=5)).to_json(),
                     grid.probs.data.tobytes(), attn.scores.data.tobytes()))
    return out


def test_full_scale_bits_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    # The record's tiny model never reaches a share floor, so this pins the
    # split paths on the default model instead.
    generate_dataset(DatasetMeta(train_count=32, test_count=16, seed=12), tmp_path)
    trainset, _ = load_dataset(tmp_path / "train.sfds")
    testset, _ = load_dataset(tmp_path / "test.sfds")
    bits = {}
    for workers in (0, 1):
        monkeypatch.setattr(tensor, "CPU_WORKERS", workers)
        bits[workers] = _full_scale_bits(trainset, testset)
    assert bits[1] == bits[0]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"build": _build(), "runs": compute_bits(tmp)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
