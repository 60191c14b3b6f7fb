"""Command-line entry point.

Subcommands: ``generate`` (dataset), ``train`` (two-stage / joint),
``eval`` (IoU sweep over view counts), ``bench`` (aggregator timings),
``selftest`` (invariant suite). Shared flags: ``--config``, repeatable
``--set section.key=value``, ``--out``, ``--seed``.

Exit codes: 0 success, 1 contract or config error, 2 I/O or file-format
error, 3 selftest failure, 4 numeric overflow in training.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_IO = 2
EXIT_SELFTEST = 3
EXIT_OVERFLOW = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="setfusion",
                                     description="set-aggregation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted-key config override")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master seed for all sections")

    common(sub.add_parser("generate", help="write the synthetic dataset"))
    train = sub.add_parser("train", help="train a model on a generated dataset")
    common(train)
    train.add_argument("--mode", choices=("faset", "joint"), default="faset")
    common(sub.add_parser("eval", help="evaluate a checkpoint over view counts"))
    common(sub.add_parser("bench", help="time aggregators alone and in the pipeline"))
    selftest = sub.add_parser("selftest", help="run the invariant suite")
    selftest.add_argument("--inject-fault", dest="inject_fault", default=None,
                          help=argparse.SUPPRESS)
    return parser


def _config(args):
    from .config import load_run_config

    return load_run_config(config_path=args.config, overrides=args.overrides,
                           seed=args.seed, out_dir=args.out)


def _out_dir(cfg) -> Path:
    """Make the output directory and echo the resolved config into it."""
    out_dir = Path(cfg.paths["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(out_dir)
    return out_dir


def cmd_generate(args) -> int:
    from .data import generate_dataset

    cfg = _config(args)
    out_dir = _out_dir(cfg)
    target = Path(cfg.paths["dataset_dir"] or out_dir / "dataset")
    report = generate_dataset(cfg.data, target)
    print(f"wrote {report['paths']['train']} and {report['paths']['test']}")
    print(f"views informative: {report['views_informative']} "
          f"(constant {report['constant_predictor_iou']:.3f} "
          f"vs single-view NN {report['single_view_nn_iou']:.3f})")
    return EXIT_OK


def _load_split(cfg, split: str):
    from .data import load_dataset
    from .errors import ContractError

    dataset_dir = cfg.paths["dataset_dir"] or str(Path(cfg.paths["out_dir"]) / "dataset")
    path = Path(dataset_dir) / f"{split}.sfds"
    if not path.exists():
        raise OSError(f"missing dataset file {path}; run `setfusion generate` first")
    samples, meta = load_dataset(path)
    data = cfg.data
    if (meta.grid_side, meta.image_side) != (data.grid_side, data.image_side):
        raise ContractError(
            f"data.grid_side and data.image_side ({data.grid_side}, {data.image_side}) do not "
            f"match dataset {path} ({meta.grid_side}, {meta.image_side})")
    return samples, meta


def cmd_train(args) -> int:
    from .aggregators import ATTENTION_KINDS
    from .model import model_init, save_checkpoint
    from .training import schedule

    cfg = _config(args)
    kind = cfg.model.aggregator_kind
    steps = schedule(args.mode, kind, cfg.train.n_mode)  # refuses before any write
    out_dir = _out_dir(cfg)
    trainset, _ = _load_split(cfg, "train")
    params = model_init(cfg.model)
    if args.mode == "faset" and kind not in ATTENTION_KINDS:
        print(f"note: aggregator {kind!r} has no separable attention stage; "
              f"stage 1 trains the whole network and stage 2 is routed to finetune")
    for tag, trainer in steps:
        report = trainer(params, trainset, cfg.train)
        save_checkpoint(params, out_dir / f"{tag}.sfck")
        (out_dir / f"{tag}_report.json").write_text(report.to_json())
        if report.losses:
            print(f"{tag}: {report.steps} steps, final loss {report.losses[-1]:.5f}")
        else:
            print(f"{tag}: no steps")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .metrics import eval_sweep
    from .model import load_checkpoint

    cfg = _config(args)
    out_dir = _out_dir(cfg)
    testset, _ = _load_split(cfg, "test")
    ck = cfg.paths["checkpoint"] or str(out_dir / "stage2.sfck")
    if not Path(ck).exists():
        raise OSError(f"missing checkpoint {ck}; train first or pass paths.checkpoint")
    params = load_checkpoint(ck, cfg=cfg.model)
    report = eval_sweep(params, testset, cfg.eval, method=cfg.model.aggregator_kind)
    (out_dir / "eval.csv").write_text(report.to_csv())
    (out_dir / "eval.json").write_text(report.to_json())
    for row in report.rows:
        print(f"N={row['n']:>2}  threshold={row['threshold']:.2f}  "
              f"mean IoU={row['mean_iou']:.4f}  ({row['n_samples']} samples)")
    return EXIT_OK


def cmd_bench(args) -> int:
    from .bench import run_bench

    cfg = _config(args)
    out_dir = _out_dir(cfg)
    report = run_bench(cfg.bench, model_cfg=cfg.model)
    (out_dir / "bench.csv").write_text(report.to_csv())
    (out_dir / "bench.json").write_text(report.to_json())
    print(report.to_csv(), end="")
    print(f"# medians of {report.repeats} repetitions after {report.warmups} warmups; "
          f"{report.environment}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(inject_fault=args.inject_fault)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        failed += 0 if r.ok else 1
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{status}  {r.name}{detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_SELFTEST


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONTRACT if e.code not in (0, None) else EXIT_OK

    from .errors import (ContractError, FormatError, GenerationError, NumericOverflowError,
                         ShapeError)

    handler = {
        "generate": cmd_generate,
        "train": cmd_train,
        "eval": cmd_eval,
        "bench": cmd_bench,
        "selftest": cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except (ContractError, ShapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except (FormatError, OSError, GenerationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericOverflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_OVERFLOW


if __name__ == "__main__":
    sys.exit(main())
