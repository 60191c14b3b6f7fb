"""Set-aggregation operators: learned attention pooling and its baselines.

Every aggregator maps a stack of N per-element feature vectors to one
fixed-size output. AttSets is one module, computed by one kernel: it scores
each feature slot with a bias-free linear map, normalizes the scores over
the set axis with a softmax, and sums the score-weighted features:

    activations = X W            one activation per feature slot
    scores      = softmax over the set axis, independently per slot
    output      = sum_n  X[n] * scores[n]

The kernel sees every set as [N, S, C], passed flat as [N, S*C]; the three
attention kinds differ only in shape. ``attsets_fc`` is a D x D map on an
[N, D] vector set (S = 1); ``attsets_conv`` shares a pointwise C x C map
across the S spatial locations of an [N, S, C] set -- the filter-size-1
convolutional form, covering both 2D and 3D feature maps since locations
are flattened -- so each location behaves exactly like ``attsets_fc`` on
its [N, C] slice; and ``attsets_elem`` is a D x 1 map on an [N, D] set,
one scalar score per element broadcast over all of its features. A bias
would add the same constant to every element's activation in a slot,
which the set-axis softmax cancels, so there is none. Baselines:
max/mean/sum pooling (no parameters) and a GRU that consumes the set as a
sequence, which is deliberately order-dependent; each of its steps is one
fused ``gru_cell``.

``aggregate`` is the one entry point for every kind, named by
``params.kind`` (one of ``AGGREGATOR_KINDS``). It takes one ``FeatureSet``
or a ``SetBatch`` of M sets stored back to back. Every kind but the GRU is
one kernel that reduces each column of an [N, L*C] set over its N rows on
its own. L is a set's number of locations, or for a batch the m sets of
size n gathered into one [n, m*D] bucket, set k in column group k. Each
set's fused bits are then those of aggregating it alone; only an attention
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
    "FeatureSet",
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
class FeatureSet:
    """An unordered stack of per-element features: [N, D] or [N, S, C]."""

    data: Tensor

    def __post_init__(self):
        if not isinstance(self.data, Tensor):
            self.data = Tensor(np.asarray(self.data, dtype=np.float64))
        if self.data.data.ndim not in (2, 3):
            raise ShapeError(f"feature set must be [N,D] or [N,S,C], got {list(self.data.shape)}")
        if self.n < 1:
            raise ContractError("feature set needs at least one element")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        """Feature width an aggregator's weights must match (D, or C for spatial sets)."""
        return self.data.shape[-1]


@dataclass
class SetBatch:
    """M sets stored back to back in the rows of one [R, D] matrix: set j is
    the next ``lengths[j]`` rows, so R is the sum of the lengths."""

    data: Tensor
    lengths: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.data, Tensor):
            self.data = Tensor(np.asarray(self.data, dtype=np.float64))
        self.lengths = tuple(int(n) for n in self.lengths)
        if self.data.data.ndim != 2:
            raise ShapeError(f"a set batch stores [R,D] rows, got {list(self.data.shape)}")
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


def _check_width(weight: Tensor, width: int) -> None:
    if weight.shape[0] != width:
        raise ShapeError(f"feature width {width} does not match weights {list(weight.shape)}")


def _attend(x: Tensor, w: Tensor, locations: int = 1) -> tuple[Tensor, Tensor]:
    """The one AttSets module on a set stored as [N, S*C] (S = ``locations``):
    a shared C x C map (or C x 1, one score per element) scores every
    location's C features, and the scores, normalized over the set axis,
    weight a sum over it. Returns the fused [S*C] features and the scores.
    """
    n, ch = x.shape[0], x.shape[1] // locations
    _check_width(w, ch)
    c = T.matmul_rows(T.reshape(x, [n * locations, ch]), w)
    s = T.softmax_set(T.reshape(c, [n, locations * w.shape[1]]))
    if w.shape[1] != ch:  # one score per element and location, spread over its C features
        s = T.reshape(T.repeat_cols(T.reshape(s, [n * locations, 1]), ch), [n, locations * ch])
    return T.set_sum(T.ew_binary("mul", x, s)), s


def _fuse(x: Tensor, params: AggregatorParams, locations: int = 1) -> tuple[Tensor, Tensor | None]:
    """Every kind but the GRU on an [N, L*C] set (L = ``locations``): the
    fused [L*C] features and the [N, L*C] scores (None for poolings)."""
    kind = params.kind
    if kind in ATTENTION_KINDS:
        return _attend(x, params.weights["w" if kind == "attsets_elem" else "W"], locations)
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


def aggregate(sets: FeatureSet | SetBatch, params: AggregatorParams
              ) -> tuple[Tensor, AttentionMap | None]:
    """Aggregate with ``params.kind``: the one entry point for every kind.

    On one ``FeatureSet`` returns (fused features, attention map). The
    features have one element's shape, [D] or [S, C]; the map has the set's
    shape, None for poolings and the GRU. Only ``attsets_conv`` takes
    [N, S, C]. On a ``SetBatch`` of M sets returns ([M, D] fused rows in
    set order, None).
    """
    if isinstance(sets, SetBatch):
        return _aggregate_batch(sets, params)
    x = sets.data
    if x.data.ndim == 3 and params.kind != "attsets_conv":
        raise ShapeError(f"{params.kind} needs an [N,D] set, got {list(x.shape)}")
    if params.kind == "gru":
        _check_width(params.weights["Wz"], sets.width)
        return T.reshape(_gru_packed(x, (sets.n,), params.weights), [sets.width]), None
    y, s = _fuse(T.reshape(x, [sets.n, x.size // sets.n]), params, x.size // (sets.n * sets.width))
    return T.reshape(y, x.shape[1:]), s if s is None else AttentionMap(T.reshape(s, x.shape))


def _aggregate_batch(batch: SetBatch, params: AggregatorParams) -> tuple[Tensor, None]:
    """One kernel call per set size, or the packed GRU; see the module notes."""
    if params.kind == "gru":
        return _gru_packed(batch.data, batch.lengths, params.weights), None
    lengths, width = batch.lengths, batch.data.shape[1]
    first = list(accumulate(lengths, initial=0))  # each set's first row in the batch
    order = sorted(range(len(lengths)), key=lambda j: lengths[j])
    fused = []
    for n, group in groupby(order, key=lambda j: lengths[j]):
        bucket = list(group)
        x = T.take_rows(batch.data, [first[j] + i for i in range(n) for j in bucket])
        y, _ = _fuse(T.reshape(x, [n, len(bucket) * width]), params, len(bucket))
        fused.append(T.reshape(y, [len(bucket), width]))
    return T.take_rows(T.stack_rows(fused), np.argsort(order)), None
