import copy
import dataclasses
import json

import pytest

from setfusion.bench import BenchConfig
from setfusion.cli import main
from setfusion.config import DEFAULTS, RunConfig, load_run_config
from setfusion.data import DatasetMeta
from setfusion.metrics import EvalConfig
from setfusion.model import ModelConfig
from setfusion.training import TrainConfig

TINY_DATA = [
    "--set", "data.train_count=20", "--set", "data.test_count=6",
    "--set", "data.grid_side=8", "--set", "data.image_side=8",
]
TINY_MODEL = [
    "--set", "model.latent_dim=8", "--set", "model.encoder_hidden=16",
    "--set", "model.decoder_hidden=16",
]
TINY_TRAIN = [
    "--set", "train.stage1_steps=6", "--set", "train.stage2_steps=6",
    "--set", "train.batch_size=4", "--set", "train.n_mode=fixed:4",
]


def run(*argv):
    return main(list(argv))


def tiny_run(command, out, *extra):
    argv = [command, "--out", str(out), "--seed", "7",
            *TINY_DATA, *TINY_MODEL, *TINY_TRAIN, *extra]
    return run(*argv)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert tiny_run("generate", out) == 0
    assert tiny_run("train", out, "--mode", "faset") == 0
    return out


# ---------------------------------------------------------------- generate

def test_generate_outputs(trained_run):
    assert (trained_run / "dataset" / "train.sfds").exists()
    assert (trained_run / "dataset" / "test.sfds").exists()
    assert (trained_run / "resolved_config.json").exists()


def test_generate_rerun_is_byte_identical(trained_run, tmp_path):
    assert tiny_run("generate", tmp_path) == 0
    for split in ("train", "test"):
        assert ((tmp_path / "dataset" / split).with_suffix(".sfds").read_bytes()
                == (trained_run / "dataset" / split).with_suffix(".sfds").read_bytes())


def test_generate_bad_path_is_io_error(tmp_path, capsys):
    dataset_file = tmp_path / "blocker"
    dataset_file.write_text("not a directory")
    code = tiny_run("generate", tmp_path, "--set",
                    f"paths.dataset_dir={dataset_file}/nested")
    assert code == 2
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------------- train

def test_train_faset_checkpoints_share_base(trained_run):
    from setfusion.model import load_checkpoint

    s1 = load_checkpoint(trained_run / "stage1.sfck")
    s2 = load_checkpoint(trained_run / "stage2.sfck")
    assert s1.checksum("base") == s2.checksum("base")
    assert s1.checksum("att") != s2.checksum("att")
    for tag in ("stage1", "stage2"):
        doc = json.loads((trained_run / f"{tag}_report.json").read_text())
        assert doc["stage"] == tag


def test_train_deterministic_rerun(trained_run, tmp_path):
    assert tiny_run("generate", tmp_path) == 0
    assert tiny_run("train", tmp_path, "--mode", "faset") == 0
    for tag in ("stage1", "stage2"):
        assert ((tmp_path / f"{tag}.sfck").read_bytes()
                == (trained_run / f"{tag}.sfck").read_bytes())


def test_train_missing_dataset_is_io_error(tmp_path, capsys):
    code = tiny_run("train", tmp_path)
    assert code == 2
    assert "generate" in capsys.readouterr().err


def test_train_pooling_routes_stage2_to_finetune(tmp_path, capsys):
    assert tiny_run("generate", tmp_path) == 0
    code = tiny_run("train", tmp_path, "--mode", "faset",
                    "--set", "model.aggregator_kind=mean")
    assert code == 0
    out = capsys.readouterr().out
    assert "routed to finetune" in out
    assert (tmp_path / "stage2.sfck").exists()


def test_train_finetune_is_not_a_mode(tmp_path, capsys):
    out = tmp_path / "o"
    assert tiny_run("train", out, "--mode", "finetune") == 1
    assert "--mode" in capsys.readouterr().err
    assert not out.exists()


def test_train_joint_mode(tmp_path):
    assert tiny_run("generate", tmp_path) == 0
    assert tiny_run("train", tmp_path, "--mode", "joint") == 0
    assert (tmp_path / "joint.sfck").exists()


def test_train_overflow_is_exit_4_naming_stage_and_step(tmp_path, capsys):
    assert tiny_run("generate", tmp_path) == 0
    capsys.readouterr()
    code = tiny_run("train", tmp_path, "--set", "train.learning_rate=1e150")
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: stage1 step ")
    assert not (tmp_path / "stage1.sfck").exists()


def test_train_grid_mismatch_is_contract_error(tmp_path, capsys):
    assert tiny_run("generate", tmp_path) == 0
    capsys.readouterr()
    code = tiny_run("train", tmp_path, "--set", "data.grid_side=16")
    assert code == 1
    err = capsys.readouterr().err
    assert "data.grid_side" in err and "match" in err


def test_train_sizes_the_model_from_the_data_section(trained_run):
    from setfusion.model import load_checkpoint

    # only data.grid_side and data.image_side are set
    assert load_checkpoint(trained_run / "stage2.sfck").base["dec_w2"].shape[1] == 8 ** 3


# -------------------------------------------------------------------- eval

def test_eval_rows_and_rerun_bytes(trained_run, capsys):
    args = ["--set", "eval.view_counts=[1,2,4,8]"]
    assert tiny_run("eval", trained_run, *args) == 0
    first = (trained_run / "eval.csv").read_bytes()
    lines = first.decode().strip().split("\n")
    assert len(lines) == 5  # header + one row per N
    assert lines[0] == "method,N,threshold,mean_iou,n_samples"
    assert tiny_run("eval", trained_run, *args) == 0
    assert (trained_run / "eval.csv").read_bytes() == first
    assert json.loads((trained_run / "eval.json").read_text())["method"] == "attsets_fc"


def test_eval_missing_checkpoint(tmp_path, capsys):
    assert tiny_run("generate", tmp_path) == 0
    assert tiny_run("eval", tmp_path) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_eval_checkpoint_model_mismatch(trained_run, tmp_path, capsys):
    code = tiny_run("eval", tmp_path,
                    "--set", f"paths.dataset_dir={trained_run / 'dataset'}",
                    "--set", f"paths.checkpoint={trained_run / 'stage2.sfck'}",
                    "--set", "model.latent_dim=12")
    assert code == 1
    assert "match" in capsys.readouterr().err


@pytest.mark.parametrize("counts", ["[]", "[2,2]"])
def test_eval_rejects_empty_or_repeated_view_counts(trained_run, tmp_path, capsys, counts):
    code = tiny_run("eval", tmp_path,
                    "--set", f"paths.dataset_dir={trained_run / 'dataset'}",
                    "--set", f"paths.checkpoint={trained_run / 'stage2.sfck'}",
                    "--set", f"eval.view_counts={counts}")
    assert code == 1
    assert "view_counts" in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()


@pytest.mark.parametrize("argv,named", [
    (["train", "--mode", "faset", "--set", "train.n_mode=fixed:9"], "train.n_mode"),
    (["train", "--mode", "joint", "--set", "train.n_mode=uniform:1:9"], "train.n_mode"),
    (["train", "--mode", "faset", "--set", "train.n_mode=fixed:1"], "train.n_mode"),
    (["train", "--mode", "faset", "--set", "train.n_mode=uniform:1:1"], "train.n_mode"),
    (["eval", "--set", "eval.view_counts=[9]"], "eval.view_counts")])
def test_set_size_out_of_reach_exits_before_reading_the_split(trained_run, tmp_path, capsys,
                                                             monkeypatch, argv, named):
    import setfusion.data as D

    reads = []
    real_load = D.load_dataset
    monkeypatch.setattr(D, "load_dataset", lambda path: reads.append(path) or real_load(path))
    out = tmp_path / "o"
    code = tiny_run(argv[0], out, "--set", f"paths.dataset_dir={trained_run / 'dataset'}",
                    "--set", f"paths.checkpoint={trained_run / 'stage2.sfck'}", *argv[1:])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert reads == []
    assert not list(out.glob("*.sfck")) and not (out / "eval.json").exists()


def test_unreachable_stage2_writes_nothing(trained_run, tmp_path, capsys):
    out = tmp_path / "o"
    code = tiny_run("train", out, "--mode", "faset",
                    "--set", f"paths.dataset_dir={trained_run / 'dataset'}",
                    "--set", "train.n_mode=fixed:1")
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ") and "train.n_mode" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("rate", ["-1e-3", "NaN", "1e400"])
@pytest.mark.parametrize("key", ["learning_rate", "finetune_rate"])
def test_bad_rate_is_rejected_before_any_file(trained_run, tmp_path, capsys, monkeypatch,
                                              key, rate):
    import setfusion.data as D

    reads = []
    real_load = D.load_dataset
    monkeypatch.setattr(D, "load_dataset", lambda path: reads.append(path) or real_load(path))
    out = tmp_path / "o"
    code = tiny_run("train", out, "--mode", "faset",
                    "--set", f"paths.dataset_dir={trained_run / 'dataset'}",
                    "--set", f"train.{key}={rate}")
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ") and f"train.{key}" in err[0]
    assert reads == []
    assert not out.exists()


def test_eval_checkpoint_with_flipped_magic_is_format_error(trained_run, tmp_path, capsys):
    blob = bytearray((trained_run / "stage2.sfck").read_bytes())
    blob[0] ^= 0xFF
    (tmp_path / "bad.sfck").write_bytes(bytes(blob))
    code = tiny_run("eval", tmp_path, "--set", f"paths.dataset_dir={trained_run / 'dataset'}",
                    "--set", f"paths.checkpoint={tmp_path / 'bad.sfck'}")
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and "magic" in err[0]
    assert not (tmp_path / "eval.json").exists()


def test_eval_zero_init_attention_equals_mean_pooling(trained_run):
    from setfusion.metrics import EvalConfig, eval_sweep
    from setfusion.model import ModelConfig, ParamBundle, load_checkpoint
    from setfusion.data import load_dataset

    testset, _ = load_dataset(trained_run / "dataset" / "test.sfds")
    stage1 = load_checkpoint(trained_run / "stage1.sfck")
    stage1.cfg = ModelConfig(image_side=8, grid_side=8, latent_dim=8,
                             encoder_hidden=16, decoder_hidden=16,
                             aggregator_kind="attsets_fc")
    mean_cfg = ModelConfig(**{**vars(stage1.cfg), "aggregator_kind": "mean"})
    mean_model = ParamBundle(base=stage1.base, att={}, cfg=mean_cfg)
    ecfg = EvalConfig(view_counts=(1, 4), seed=2)
    att_rows = eval_sweep(stage1, testset, ecfg, method="m").rows
    mean_rows = eval_sweep(mean_model, testset, ecfg, method="m").rows
    assert att_rows == mean_rows


# ------------------------------------------------------------------ config

def test_unknown_config_key_rejected(tmp_path, capsys):
    code = run("generate", "--out", str(tmp_path), "--set", "data.train_size=5")
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    code = run("generate", "--out", str(tmp_path), "--set", "dta.train_count=5")
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("dotted", ["train_count", "data.train_count.x"])
def test_malformed_set_key_rejected(tmp_path, capsys, dotted):
    code = run("generate", "--out", str(tmp_path), "--set", f"{dotted}=5")
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("section,cls,seed", [
    ("data", DatasetMeta, 0), ("model", ModelConfig, 1), ("train", TrainConfig, 2),
    ("eval", EvalConfig, 3), ("bench", BenchConfig, 4)])
def test_section_defaults_are_the_dataclass_fields(section, cls, seed):
    # the loader sets the split; the model's sides are the data section's
    fixed = {"data": {"split"}, "model": {"grid_side", "image_side"}}.get(section, set())
    expected = {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
                for f in dataclasses.fields(cls) if f.name not in fixed}
    expected["seed"] = seed
    assert DEFAULTS[section] == expected
    built = getattr(RunConfig(sections=copy.deepcopy(DEFAULTS)), section)
    assert type(built) is cls
    assert built == dataclasses.replace(cls(), seed=seed)


def test_config_has_twenty_seven_keys_and_no_model_sides():
    assert sum(len(body) for body in DEFAULTS.values()) == 27
    assert not {"grid_side", "image_side"} & set(DEFAULTS["model"])


@pytest.mark.parametrize("key", ["model.grid_side", "model.image_side"])
def test_model_side_is_not_a_key(tmp_path, capsys, key):
    assert run("generate", "--out", str(tmp_path), "--set", f"{key}=8") == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_default_seeds_are_what_seed_zero_derives():
    assert load_run_config(seed=0).sections == DEFAULTS


def test_wrongly_typed_value_rejected(tmp_path, capsys):
    code = run("generate", "--out", str(tmp_path), "--set", "data.train_count=bogus")
    assert code == 1
    assert "expects int" in capsys.readouterr().err
    code = run("generate", "--out", str(tmp_path), "--set", "train.n_mode=8")
    assert code == 1


@pytest.mark.parametrize("assignment", [
    'eval.view_counts=["a"]', "eval.view_counts=[[1]]", "eval.view_counts=[1.5]",
    "eval.view_counts=[true]", 'bench.n_grid=["x"]', 'bench.aggregators=[1,"x"]',
    "bench.aggregators=[[1]]"])
def test_wrongly_typed_list_element_rejected(tmp_path, capsys, assignment):
    code = run("generate", "--out", str(tmp_path), "--set", assignment)
    assert code == 1
    key = assignment.split("=")[0]
    assert f"error: config key {key!r} expects list of" in capsys.readouterr().err


def test_config_file_and_override_precedence(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "data": {"train_count": 9, "test_count": 4, "grid_side": 8, "image_side": 8},
        "model": {"latent_dim": 8, "encoder_hidden": 16, "decoder_hidden": 16},
    }))
    out = tmp_path / "out"
    assert run("generate", "--config", str(cfg_file), "--out", str(out),
               "--set", "data.train_count=11") == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["data"]["train_count"] == 11  # --set wins over file
    assert resolved["data"]["test_count"] == 4
    from setfusion.data import load_dataset
    samples, meta = load_dataset(out / "dataset" / "train.sfds")
    assert len(samples) == 11


def test_config_file_with_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"data": {"gridside": 8}}))
    assert run("generate", "--config", str(cfg_file), "--out", str(tmp_path / "o")) == 1


@pytest.mark.parametrize("argv,named", [
    (["--set", "data.seed=-1"], "data.seed"),
    (["--set", "data.seed=18446744073709551616"], "data.seed"),
    (["--set", "model.seed=-1"], "model.seed"),
    (["--set", "train.seed=-1"], "train.seed"),
    (["--set", "eval.seed=-1"], "eval.seed"),
    (["--set", "bench.seed=18446744073709551616"], "bench.seed"),
    (["--set", "bench.inner_loops=0"], "bench.inner_loops"),
    (["--set", "bench.n_grid=[4,2]"], "n_grid"),
    (["--config", "latin1.json"], "UTF-8"),
    (["--set", "model.aggregator_kind=bogus"], "model.aggregator_kind"),
    (["--set", "train.n_mode=fixed:9"], "train.n_mode"),
    (["--set", "train.n_mode=uniform:2:9"], "train.n_mode"),
    (["--set", "eval.view_counts=[1,9]"], "eval.view_counts"),
    (["--set", "eval.view_counts=[0,1]"], "eval.view_counts"),
    (["--set", "train.batch_size=0"], "train.batch_size"),
    (["--set", "train.stage1_steps=-1"], "train.stage1_steps"),
    (["--set", "train.stage2_steps=-1"], "train.stage2_steps"),
    (["--set", "train.optimizer=rmsprop"], "train.optimizer"),
    (["--set", "train.n_mode=bogus"], "train.n_mode"),
    (["--set", "model.latent_dim=0"], "model.latent_dim"),
    (["--set", "model.encoder_hidden=0"], "model.encoder_hidden"),
    (["--set", "model.decoder_hidden=0"], "model.decoder_hidden"),
    (["--set", "model.max_views=0"], "model.max_views"),
    (["--set", "data.train_count=0"], "data.train_count"),
    (["--set", "data.test_count=0"], "data.test_count"),
    (["--set", "data.grid_side=1"], "data.grid_side"),
    (["--set", "data.image_side=0"], "data.image_side"),
    (["--set", "bench.repeats=29"], "bench.repeats"),
    (["--set", "bench.warmups=4"], "bench.warmups"),
    (["--set", "bench.n_grid=[]"], "bench.n_grid"),
    (["--set", 'bench.aggregators=["bogus"]'], "bench.aggregators"),
    (["--config", "optimizer.json"], "train.optimizer"),
    # --seed S derives S..S+4, so S itself lies in [0, 2**64 - 5]
    (["--seed", "-1"], "--seed"),
    (["--seed", str(2 ** 64 - 4)], "--seed"),
    (["--seed", str(2 ** 64)], "--seed")])
def test_invalid_config_is_rejected_before_any_file(tmp_path, capsys, argv, named):
    (tmp_path / "latin1.json").write_bytes('{"data": {"seed": "\xe9"}}'.encode("latin-1"))
    # an echo written while train.optimizer was still a key
    (tmp_path / "optimizer.json").write_text('{"train": {"optimizer": "adam"}}')
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "o"
    code = run("generate", "--out", str(out), *argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not out.exists()


def test_missing_config_file_is_io_error(tmp_path):
    assert run("generate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)) == 2


def test_resolved_config_echo_reproduces_run(trained_run, tmp_path):
    echo = trained_run / "resolved_config.json"
    out = tmp_path / "replay"
    assert run("generate", "--config", str(echo), "--out", str(out)) == 0
    for split in ("train", "test"):
        assert ((out / "dataset" / split).with_suffix(".sfds").read_bytes()
                == (trained_run / "dataset" / split).with_suffix(".sfds").read_bytes())


def test_largest_seed_loads():
    cfg = load_run_config(seed=2 ** 64 - 5)
    assert cfg.sections["data"]["seed"] == 2 ** 64 - 5
    assert cfg.sections["bench"]["seed"] == 2 ** 64 - 1


def test_seed_derives_section_seeds(tmp_path):
    out = tmp_path / "o"
    assert run("generate", "--out", str(out), "--seed", "100",
               *TINY_DATA) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["data"]["seed"] == 100
    assert resolved["model"]["seed"] == 101
    assert resolved["train"]["seed"] == 102
    assert resolved["eval"]["seed"] == 103


def test_usage_error_maps_to_contract_exit():
    assert run("trian") == 1
    assert run() == 1


# ------------------------------------------------------------------- bench

def test_bench_small_grid(tmp_path, capsys, monkeypatch):
    import setfusion.bench as B

    built = []
    real_init = B.model_init
    monkeypatch.setattr(B, "model_init", lambda cfg: built.append(cfg) or real_init(cfg))
    code = run("bench", "--out", str(tmp_path),
               "--set", "bench.n_grid=[1,3]",
               "--set", "model.latent_dim=8",
               "--set", "bench.inner_loops=1",
               "--set", 'bench.aggregators=["attsets_fc","mean","gru"]',
               "--set", "data.image_side=4", "--set", "data.grid_side=4",
               "--set", "model.encoder_hidden=8", "--set", "model.decoder_hidden=8")
    assert code == 0
    # every pipeline is sized like the data section and capped at the largest N
    assert {(c.image_side, c.grid_side, c.max_views) for c in built} == {(4, 4, 3)}
    csv = (tmp_path / "bench.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "aggregator,N,agg_only_ms,full_forward_ms"
    assert len(lines) == 1 + 3 * 2  # every (aggregator, N) cell present
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["repeats"] >= 30 and doc["warmups"] >= 5
    assert "numpy" in doc["environment"]


def test_bench_report_json_bytes():
    from setfusion.bench import BenchReport

    report = BenchReport(rows=[{"aggregator": "mean", "n": 1, "agg_only_ms": 0.5,
                                "full_forward_ms": 2.0}], repeats=30, warmups=5,
                         environment="env")
    assert report.to_json() == (
        '{\n  "rows": [\n    {\n      "aggregator": "mean",\n      "n": 1,\n'
        '      "agg_only_ms": 0.5,\n      "full_forward_ms": 2.0\n    }\n  ],\n'
        '  "repeats": 30,\n  "warmups": 5,\n  "environment": "env"\n}\n')


def test_run_bench_sets_max_views_from_its_grid():
    from setfusion.bench import run_bench

    cfg = BenchConfig(n_grid=(1, 3), inner_loops=1, aggregators=("mean",))
    model_cfg = ModelConfig(image_side=4, grid_side=4, latent_dim=8, encoder_hidden=8,
                            decoder_hidden=8, max_views=1)
    assert [row["n"] for row in run_bench(cfg, model_cfg=model_cfg).rows] == [1, 3]


def test_bench_sampling_is_not_a_key(tmp_path, capsys):
    assert run("bench", "--out", str(tmp_path / "o"), "--set", "bench.repeats=5") == 1
    assert "unknown config key 'bench.repeats'" in capsys.readouterr().err
    # an echo written while bench.repeats was still a key
    (tmp_path / "old.json").write_text('{"bench": {"repeats": 30}}')
    assert run("bench", "--config", str(tmp_path / "old.json"), "--out", str(tmp_path / "o")) == 1
    assert "unknown config key 'bench.repeats'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid", ["[]", "[0]", "[4,2]"])
def test_bench_rejects_a_bad_grid(tmp_path, capsys, grid):
    assert run("bench", "--out", str(tmp_path), "--set", f"bench.n_grid={grid}") == 1
    assert "n_grid" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


# ---------------------------------------------------------------- selftest

def test_selftest_passes_and_lists_checks(capsys):
    assert run("selftest") == 0
    out = capsys.readouterr().out
    names = [line.split()[1] for line in out.strip().split("\n")[:-1]]
    assert len(names) >= 7
    assert all(line.startswith("PASS") for line in out.strip().split("\n")[:-1])


def test_selftest_fault_injection_fails(capsys):
    assert run("selftest", "--inject-fault", "softmax_skew") == 3
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL  permutation-invariance") for line in out.split("\n"))
