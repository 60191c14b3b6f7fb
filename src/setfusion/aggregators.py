"""Set-aggregation operators: learned attention pooling and its baselines.

Every aggregator maps a stack of N per-element feature vectors to one
fixed-size output. AttSets is one module, computed by one kernel: it scores
each feature slot with a bias-free linear map, normalizes the scores over
the set axis with a softmax, and sums the score-weighted features:

    activations = X W            one activation per feature slot
    scores      = softmax over the set axis, independently per slot
    output      = sum_n  X[n] * scores[n]

The kernel sees every set as [N, S*C] rows, with C the rows of the
attention weight and S = row width / C; the three attention kinds differ
only in shape. ``attsets_fc`` is a D x D map on an [N, D] vector set
(S = 1); ``attsets_conv`` shares a pointwise C x C map across the S
spatial positions of a set stored as [N, S*C] -- the filter-size-1
convolutional form, covering both 2D and 3D feature maps since positions
are flattened -- so each position behaves exactly like ``attsets_fc`` on
its [N, C] slice; and ``attsets_elem`` is a D x 1 map on an [N, D] set,
one scalar score per element broadcast over all of its features. A bias
would add the same constant to every element's activation in a slot,
which the set-axis softmax cancels, so there is none. Baselines:
max/mean/sum pooling (no parameters) and a GRU that consumes the set as a
sequence, which is deliberately order-dependent; each of its steps is one
fused ``gru_cell``.

``aggregate`` is the one entry point for every kind, named by
``params.kind`` (one of ``AGGREGATOR_KINDS``), and ``SetBatch`` the one set
type: M sets stored back to back in [R, D] rows, or one set when no
lengths are given. Every kind but the GRU is one kernel that reduces each
column of an [n, m*D] bucket over its n rows on its own, one bucket per
set size n, set k of the bucket in column group k. Each set's fused bits
and scores are then those of aggregating it alone; only an attention
weight's gradient, one product per bucket, differs in its last bits. The
GRU runs a batch as one packed recurrence, longest set first: time step i
is one ``gru_cell`` on the rows of the sets that still have a view i. One
set runs it with B = 1, the bits of the plain recurrence.

All non-GRU aggregators are permutation invariant bit-for-bit: every
reduction over the set axis goes through ``set_sum``/``set_max`` and every
per-element linear map through ``matmul_rows`` (see tensor module notes).

Attention weights initialize to zero, which makes every attention variant
start out exactly equal to mean pooling: the softmax of an all-zero
activation map is uniform, and mean pooling is computed scale-then-sum so
the two paths produce identical bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, groupby

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor

__all__ = [
    "SetBatch",
    "AttentionMap",
    "AggregatorParams",
    "AGGREGATOR_KINDS",
    "ATTENTION_KINDS",
    "POOL_KINDS",
    "aggregator_init",
    "aggregate",
]

ATTENTION_KINDS = ("attsets_fc", "attsets_conv", "attsets_elem")
POOL_KINDS = ("max", "mean", "sum")
AGGREGATOR_KINDS = ATTENTION_KINDS + POOL_KINDS + ("gru",)


@dataclass
class SetBatch:
    """M sets stored back to back in the rows of one [R, D] matrix: set j is
    the next ``lengths[j]`` rows, so R is the sum of the lengths. Without
    lengths the rows are one set."""

    data: Tensor
    lengths: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.data, Tensor):
            self.data = Tensor(np.asarray(self.data, dtype=np.float64))
        if self.data.data.ndim != 2:
            raise ShapeError(f"a set batch stores [R,D] rows, got {list(self.data.shape)}")
        if self.lengths is None:
            self.lengths = (self.data.shape[0],)
        self.lengths = tuple(int(n) for n in self.lengths)
        if not self.lengths or min(self.lengths) < 1:
            raise ContractError("a set batch needs at least one set, each of at least one row")
        if sum(self.lengths) != self.data.shape[0]:
            raise ShapeError(f"set lengths sum to {sum(self.lengths)}, "
                             f"but there are {self.data.shape[0]} rows")


@dataclass
class AttentionMap:
    """Per-slot scores with the same shape as the aggregated set."""

    scores: Tensor

    def validate(self, tol: float = 1e-12) -> None:
        s = self.scores.data
        if (s < 0).any():
            raise ContractError("attention scores must be nonnegative")
        col_sums = s.reshape(s.shape[0], -1).sum(axis=0)
        if np.abs(col_sums - 1.0).max() > tol:
            raise ContractError("attention scores must sum to 1 over the set axis")


@dataclass
class AggregatorParams:
    kind: str
    weights: dict[str, Tensor] = field(default_factory=dict)


def aggregator_init(kind: str, width: int, seed: int = 0) -> AggregatorParams:
    """Build parameters for an aggregator of the given feature width.

    Attention weights start at zero (exactly mean pooling); GRU gate
    matrices are uniform in (-0.1, 0.1), deterministic per seed; poolings
    are parameterless.
    """
    if kind not in AGGREGATOR_KINDS:
        raise ContractError(f"unknown aggregator kind {kind!r}")
    if width < 1:
        raise ContractError("width must be >= 1")
    weights: dict[str, Tensor] = {}
    if kind in ("attsets_fc", "attsets_conv"):
        weights["W"] = Tensor(np.zeros((width, width)), requires_grad=True)
    elif kind == "attsets_elem":
        weights["w"] = Tensor(np.zeros((width, 1)), requires_grad=True)
    elif kind == "gru":
        rng = np.random.default_rng(seed)
        for name in ("Wz", "Uz", "Wr", "Ur", "Wh", "Uh"):
            weights[name] = Tensor(rng.uniform(-0.1, 0.1, size=(width, width)), requires_grad=True)
        for name in ("bz", "br", "bh"):
            weights[name] = Tensor(np.zeros((1, width)), requires_grad=True)
    return AggregatorParams(kind=kind, weights=weights)


def _attend(x: Tensor, w: Tensor) -> tuple[Tensor, np.ndarray]:
    """The one AttSets module on a set stored as [N, S*C], with C the rows of
    ``w``: a shared C x C map (or C x 1, one score per element) scores every
    position's C features, and the scores, normalized over the set axis,
    weight a sum over it. Returns the fused [S*C] features and the scores,
    one per feature in the row-major order of ``x``, as a plain array.
    """
    n, ch = x.shape[0], w.shape[0]
    rows = x.size // ch  # N*S rows of one position's C features
    xr = T.reshape(x, [rows, ch])
    c = T.matmul_rows(xr, w)
    s = T.softmax_set(T.reshape(c, [n, c.size // n]))
    if w.shape[1] == ch:
        return T.set_sum(T.ew_binary("mul", x, s)), s.data
    # one score per element and position, spread over its C features
    s = T.reshape(s, [rows, 1])
    fused = T.set_sum(T.reshape(T.ew_binary("mul", xr, s), list(x.shape)))
    return fused, np.broadcast_to(s.data, (rows, ch))


def _fuse(x: Tensor, kind: str, w: Tensor | None) -> tuple[Tensor, np.ndarray | None]:
    """Every kind but the GRU on an [N, S*C] set, ``w`` the attention
    weight: the fused [S*C] features and ``_attend``'s scores (None for
    poolings)."""
    if kind in ATTENTION_KINDS:
        return _attend(x, w)
    if kind == "max":
        return T.set_max(x), None
    if kind == "sum":
        return T.set_sum(x), None
    if kind == "mean":  # scale-then-sum: the bits of attention at zero weights
        return T.set_sum(T.ew_binary("mul", x, Tensor(np.float64(1.0 / x.shape[0])))), None
    raise ContractError(f"unknown aggregator kind {kind!r}")


def _gru_packed(x: Tensor, lengths: tuple[int, ...], w: dict[str, Tensor]) -> Tensor:
    """Final GRU states, [M, H] in set order, of the M sets stored back to
    back in the rows of ``x`` (set j is the next ``lengths[j]`` rows).

    The sets run as one packed batch, longest first (ties keep set order).
    One gather puts the rows in time-major order, so time step i's rows are
    the next B_i packed rows, those of the B_i sets that still have a view
    i; the step is one ``gru_cell`` on them and on the first B_i rows of the
    previous states. A state block is kept when a set ends after it, and one
    gather reads each set's final row from those blocks.
    """
    order = sorted(range(len(lengths)), key=lambda j: -lengths[j])
    lens = [lengths[j] for j in order]
    first = list(accumulate(lengths, initial=0))  # each set's first row in x
    packed = [first[j] + i for i in range(lens[0]) for j in order if lengths[j] > i]
    x = T.take_rows(x, packed)
    h = Tensor(np.zeros((len(lens), w["Uz"].shape[0])))
    blocks: list[Tensor] = []
    final = [0] * len(lens)  # each set's row in the kept blocks
    offset = row = 0
    for i in range(lens[0] + 1):
        running = h.shape[0]
        while running and lens[running - 1] <= i:
            running -= 1
        if running < h.shape[0]:
            for k in range(running, h.shape[0]):
                final[order[k]] = offset + k
            offset += h.shape[0]
            blocks.append(h)
            if not running:
                break
            h = T.take_rows(h, range(running))
        h = T.gru_cell(T.take_rows(x, range(row, row + running)), h, w["Wz"], w["Uz"], w["bz"],
                       w["Wr"], w["Ur"], w["br"], w["Wh"], w["Uh"], w["bh"])
        row += running
    return T.take_rows(T.stack_rows(blocks), final)


def aggregate(batch: SetBatch, params: AggregatorParams
              ) -> tuple[Tensor, np.ndarray | None]:
    """Aggregate the sets of ``batch`` with ``params.kind``: the one entry
    point for every kind. Returns the [M, D] fused rows in set order and,
    for the attention kinds, the batch's [R, D] scores in row order as a
    plain array that no tape records (None for poolings and the GRU).
    One kernel call per set size, or the packed GRU; see the module notes.
    """
    kind, lengths, width = params.kind, batch.lengths, batch.data.shape[1]
    if kind == "gru":
        return _gru_packed(batch.data, lengths, params.weights), None
    w = scores = None
    if kind in ATTENTION_KINDS:
        w = params.weights["w" if kind == "attsets_elem" else "W"]
        if width % w.shape[0] if kind == "attsets_conv" else width != w.shape[0]:
            raise ShapeError(f"{kind} cannot fuse width {width} with weights {list(w.shape)}")
        scores = np.empty((batch.data.shape[0], width))
    first = list(accumulate(lengths, initial=0))  # each set's first row in the batch
    order = sorted(range(len(lengths)), key=lambda j: lengths[j])
    fused = []
    for n, group in groupby(order, key=lambda j: lengths[j]):
        bucket = list(group)
        rows = [first[j] + i for i in range(n) for j in bucket]
        y, s = _fuse(T.reshape(T.take_rows(batch.data, rows), [n, len(bucket) * width]), kind, w)
        if s is not None:
            scores[rows] = s.reshape(-1, width)
        fused.append(T.reshape(y, [len(bucket), width]))
    return T.take_rows(T.stack_rows(fused), np.argsort(order)), scores
