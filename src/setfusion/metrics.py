"""Voxel IoU with binarization-threshold search, and per-view-count sweeps.

The metric binarizes predicted occupancy probabilities at a threshold p
(strictly greater than), then counts voxels:

    IoU = |binarized AND ground truth| / |binarized OR ground truth|

The threshold is searched over the fixed 13-value grid 0.20..0.80 in steps
of 0.05, independently per method and view count; ties break toward the
lower threshold so the reported optimum is the smallest maximizer. An
empty union (both grids empty) scores 1.0: total agreement on emptiness,
which can only occur at extreme thresholds.

Which views feed a sample during evaluation depends only on
(seed, sample_id, N) -- never on the method under test -- so different
aggregators always see identical inputs.

Evaluation runs one batched forward per view count N: every sample's N
picked views are encoded in one ``encode_batch`` call, the sets are fused
in one ``aggregate`` call on a ``SetBatch`` and decoded in one
``decode_batch`` call, with ``predict``'s checks and typed errors. Its
probabilities equal ``predict``'s to rounding (a batched product may sum
in another order) but are not bit-identical to them; the bitwise
contracts, permutation invariance among them, belong to ``predict``,
which still encodes one view at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import model
from .aggregators import SetBatch
from .errors import ContractError, ShapeError
from .tensor import Tensor

__all__ = [
    "EvalConfig",
    "EvalReport",
    "iou",
    "default_thresholds",
    "best_threshold",
    "choose_views",
    "threshold_search",
    "eval_sweep",
]


_THRESHOLDS = tuple(round(0.20 + 0.05 * i, 2) for i in range(13))
_GRID = np.array(_THRESHOLDS)


def default_thresholds() -> tuple[float, ...]:
    return _THRESHOLDS


@dataclass
class EvalConfig:
    view_counts: tuple = (1, 2, 3, 4, 5, 8)
    seed: int = 0

    def validate(self) -> None:
        counts = tuple(self.view_counts)
        if not counts:
            raise ContractError("eval.view_counts needs at least one view count")
        if len(set(counts)) != len(counts):
            raise ContractError(f"eval.view_counts {counts} repeats a view count")
        _check_counts(counts)


def iou(pred, gt, p: float) -> float:
    """Intersection over union of ``pred`` binarized at ``p`` against a
    binary ground-truth grid."""
    if not 0.0 < p < 1.0:
        raise ContractError(f"threshold must lie in (0, 1), got {p}")
    hp = np.asarray(pred, dtype=np.float64).reshape(-1)
    ht = np.asarray(gt).reshape(-1) > 0.5
    if hp.size != ht.size:
        raise ShapeError(f"grid sizes differ: {hp.size} vs {ht.size}")
    binarized = hp > p
    union = int(np.count_nonzero(binarized | ht))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(binarized & ht)) / union


def _grid_search(pairs) -> tuple[int, float, np.ndarray]:
    """Index of the best grid threshold (the first maximum: the smallest
    maximizer), the mean IoU there, and the [13, P] IoU of every pair at
    every grid threshold.

    All pairs share one grid size and are binarized at every grid
    threshold in one [13, P, V] pass. The union is counted as
    |truth| + |binarized| - |intersection|; the IoU values and their means
    are bit-identical to calling ``iou`` per (pair, threshold).
    """
    pairs = list(pairs)
    if not pairs:
        raise ContractError("threshold search needs at least one (probs, gt) pair")
    probs = [np.asarray(p, dtype=np.float64).reshape(-1) for p, _ in pairs]
    truth = [np.asarray(gt).reshape(-1) for _, gt in pairs]
    sizes = sorted({a.size for a in probs + truth})
    if len(sizes) != 1:
        raise ShapeError(f"grid sizes differ: {sizes}")
    truth = np.stack(truth) > 0.5
    binarized = np.stack(probs)[None] > _GRID[:, None, None]
    positive = binarized.sum(axis=2, dtype=np.int32)
    binarized &= truth
    inter = binarized.sum(axis=2, dtype=np.int32)
    union = truth.sum(axis=1, dtype=np.int32) + positive - inter
    ious = np.divide(inter, union, out=np.ones(union.shape), where=union > 0)
    means = ious.mean(axis=1)
    k = int(np.argmax(means))
    return k, float(means[k]), ious


def best_threshold(pairs) -> tuple[float, float]:
    """(threshold, mean IoU at it) over the grid for (probs, gt) pairs; the
    smallest maximizer on ties."""
    k, mean_iou, _ = _grid_search(pairs)
    return _THRESHOLDS[k], mean_iou


def choose_views(seed: int, sample_id: int, n: int, available: int) -> np.ndarray:
    """Deterministic method-independent pick of ``n`` of ``available`` views."""
    if n > available:
        raise ContractError(f"cannot pick {n} of {available} views")
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(sample_id), n]))
    return np.sort(rng.choice(available, size=n, replace=False))


def _check_counts(counts, stored: int | None = None) -> None:
    """Every view count is >= 1 and, given ``stored``, at most the views
    stored per test sample."""
    if any(n < 1 for n in counts):
        raise ContractError("view counts must be >= 1")
    if stored is not None and any(n > stored for n in counts):
        raise ContractError(f"view counts {counts} exceed the {stored} stored views")


def _predicted_probs(params, testset, cfg: EvalConfig, n: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(sample id, [G^3] probabilities, ground truth) of every test sample
    from its ``choose_views`` pick of ``n`` views: one batched forward, with
    the checks and the layers ``predict`` uses."""
    rows = []
    for s in testset:
        rows += model._view_rows(s.views[choose_views(cfg.seed, s.sample_id, n, s.views.shape[0])],
                                 params)
    latents = model.encode_batch(Tensor(np.vstack([row.data for row in rows])), params)
    fused, _ = model.aggregate(SetBatch(latents, [n] * len(testset)), model._agg_params(params))
    probs = model.decode_batch(fused, params)
    return [(s.sample_id, p, s.gt) for s, p in zip(testset, probs.data)]


def threshold_search(params, testset, cfg: EvalConfig, n: int) -> tuple[float, float]:
    """(best threshold, mean IoU at it); smallest maximizer on ties."""
    cfg.validate()
    testset = list(testset)
    if not testset:
        raise ContractError("threshold search needs a non-empty test set")
    _check_counts((n,), testset[0].views.shape[0])
    preds = _predicted_probs(params, testset, cfg, n)
    return best_threshold([(probs, gt) for _, probs, gt in preds])


@dataclass
class EvalReport:
    method: str
    rows: list  # dicts with n, threshold, mean_iou, n_samples
    per_sample: dict  # n -> list of (sample_id, iou)

    def mean_iou(self, n: int) -> float:
        for row in self.rows:
            if row["n"] == n:
                return row["mean_iou"]
        raise KeyError(f"no row for N={n}")

    def threshold(self, n: int) -> float:
        for row in self.rows:
            if row["n"] == n:
                return row["threshold"]
        raise KeyError(f"no row for N={n}")

    def to_csv(self) -> str:
        lines = ["method,N,threshold,mean_iou,n_samples"]
        for row in self.rows:
            lines.append(f"{self.method},{row['n']},{row['threshold']!r},"
                         f"{row['mean_iou']!r},{row['n_samples']}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "method": self.method,
            "rows": self.rows,
            "per_sample": {str(n): [[int(sid), v] for sid, v in pairs]
                           for n, pairs in self.per_sample.items()},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def eval_sweep(params, testset, cfg: EvalConfig, method: str | None = None) -> EvalReport:
    """Mean IoU at the searched threshold for every configured view count."""
    cfg.validate()
    testset = list(testset)
    if not testset:
        raise ContractError("evaluation needs a non-empty test set")
    _check_counts(cfg.view_counts, testset[0].views.shape[0])
    if method is None:
        method = params.cfg.aggregator_kind if params.cfg else "unknown"
    rows, per_sample = [], {}
    for n in cfg.view_counts:
        preds = _predicted_probs(params, testset, cfg, n)
        k, best_iou, ious = _grid_search([(probs, gt) for _, probs, gt in preds])
        rows.append({"n": n, "threshold": _THRESHOLDS[k], "mean_iou": best_iou,
                     "n_samples": len(testset)})
        per_sample[n] = [(sid, float(v)) for (sid, _, _), v in zip(preds, ious[k])]
    return EvalReport(method=method, rows=rows, per_sample=per_sample)
