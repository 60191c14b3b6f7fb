"""Wall-clock comparison of the aggregators, alone and in the full pipeline.

For every (aggregator, set size) cell the report holds the median of R
timed repetitions taken after a warmup: medians tolerate scheduler noise
at the millisecond scales involved. Aggregation-only timings isolate the
fusion operator on a prebuilt one-set ``SetBatch``; full-forward timings
run the entire predict path (encode N views, fuse, decode). Inputs are
seeded per cell, so only the wall-clock fields vary between runs.

The repetitions are taken round-robin: each of the R rounds times every
cell once, in an order shuffled per round by a seeded generator. A host
that drifts between faster and slower states over minutes then slows
every cell alike rather than whichever cells it happens to land on.
Garbage collection is off inside each timed repetition.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .aggregators import AGGREGATOR_KINDS, SetBatch, aggregate, aggregator_init
from .errors import ContractError
from .model import ModelConfig, model_init, predict

__all__ = ["BenchConfig", "BenchReport", "run_bench"]

REPEATS = 30  # R, the timed rounds
WARMUPS = 5  # untimed rounds before them


@dataclass
class BenchConfig:
    n_grid: tuple = (1, 4, 8, 12, 16, 20, 24)
    inner_loops: int = 4  # forwards per timed repetition; median is per-forward
    aggregators: tuple = AGGREGATOR_KINDS
    seed: int = 0

    def validate(self) -> None:
        if self.inner_loops < 1:
            raise ContractError(f"bench.inner_loops must be >= 1, got {self.inner_loops}")
        grid = list(self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
            raise ContractError(f"bench.n_grid must be non-empty, strictly increasing and >= 1, "
                                f"got {grid}")
        unknown = set(self.aggregators) - set(AGGREGATOR_KINDS)
        if unknown:
            raise ContractError(f"unknown bench.aggregators {sorted(unknown)}; "
                                f"expected some of {', '.join(AGGREGATOR_KINDS)}")


@dataclass
class BenchReport:
    rows: list  # dicts: aggregator, n, agg_only_ms, full_forward_ms
    repeats: int
    warmups: int
    environment: str

    def cell(self, aggregator: str, n: int) -> dict:
        for row in self.rows:
            if row["aggregator"] == aggregator and row["n"] == n:
                return row
        raise KeyError(f"no cell for ({aggregator}, {n})")

    def to_csv(self) -> str:
        lines = ["aggregator,N,agg_only_ms,full_forward_ms"]
        for row in self.rows:
            lines.append(f"{row['aggregator']},{row['n']},"
                         f"{row['agg_only_ms']!r},{row['full_forward_ms']!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def _timed_ms(fn, inner_loops: int) -> float:
    """Wall-clock ms per call of ``fn`` over ``inner_loops`` calls, GC off."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(inner_loops):
            fn()
        return (time.perf_counter() - start) * 1000.0 / inner_loops
    finally:
        if gc_was_on:
            gc.enable()


def run_bench(cfg: BenchConfig, model_cfg: ModelConfig | None = None) -> BenchReport:
    cfg.validate()
    model_cfg = model_cfg or ModelConfig()
    cells = []  # (aggregator, n)
    fns = []  # two per cell: aggregation only, then the full forward
    for kind in cfg.aggregators:
        agg_params = aggregator_init(kind, model_cfg.latent_dim, seed=cfg.seed)
        pipe_cfg = replace(model_cfg, aggregator_kind=kind, max_views=max(cfg.n_grid))
        pipe = model_init(pipe_cfg)
        for n in cfg.n_grid:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, n]))
            batch = SetBatch(rng.standard_normal((n, model_cfg.latent_dim)))
            views = list(rng.uniform(0, 1, size=(n, pipe_cfg.image_side, pipe_cfg.image_side)))
            cells.append((kind, n))
            fns += [lambda batch=batch, p=agg_params: aggregate(batch, p),
                    lambda views=views, p=pipe: predict(views, p)]
    for _ in range(WARMUPS):
        for fn in fns:
            fn()
    times = [[] for _ in fns]
    order = np.random.default_rng(cfg.seed)
    for _ in range(REPEATS):
        for i in order.permutation(len(fns)):
            times[i].append(_timed_ms(fns[i], cfg.inner_loops))
    medians = [float(np.median(t)) for t in times]
    rows = [{"aggregator": kind, "n": n,
             "agg_only_ms": medians[2 * i], "full_forward_ms": medians[2 * i + 1]}
            for i, (kind, n) in enumerate(cells)]
    env = (f"python {platform.python_version()}, numpy {np.__version__}, "
           f"{platform.machine()}, single process")
    return BenchReport(rows=rows, repeats=REPEATS, warmups=WARMUPS, environment=env)
