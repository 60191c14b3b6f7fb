"""Two-stage decoupled training, the joint baseline, and the Adam optimizer.

The two-stage schedule splits optimization by parameter group:

* Stage 1 trains only the ``base`` group (encoder + decoder) on
  single-image reconstructions. Each of the step's M samples draws one
  view, which runs through the full pipeline as a one-element set, and
  the loss is the mean over the M single-image reconstructions.
  Attention weights receive exactly zero gradient on one-element sets;
  they are frozen for the stage all the same, so they stay bit-identical
  regardless of optimizer state.
* Stage 2 trains only the ``att`` group on multi-element sets, with the
  loss averaged over the M per-set reconstructions. The base group is
  frozen, so single-view behavior after stage 2 is bit-identical to the
  stage-1 checkpoint.

Freezing means not differentiating: for the length of a stage, the tensors
outside its group have ``requires_grad`` cleared, so the tape neither
records the ops that touch only them (stage 2 leaves the encoder off the
tape) nor forms their weight gradients. It is not a mask applied to
gradients computed and thrown away.

``joint_train`` is the ablation control: one loss, all parameters updated
together under the configured set-size regime. ``finetune`` updates every
trainable tensor at the (much smaller) finetune rate and is the stage-2
stand-in for aggregators without a separable attention module;
``single_view_train`` is their stage 1, stage 1's schedule over every
parameter. ``schedule`` is the one place that picks the trainers that
``setfusion train --mode`` runs. Stage 2 trains the attention group or
raises a ``ContractError`` that points a model without one at ``finetune``.

The encoder is shared and applied to each view independently, so a step
encodes all of its views in one ``encode_batch`` call; the encoder's
weight gradient is then one product over the step's rows. The step then
aggregates all of its sets in one ``aggregate`` call on a ``SetBatch``
(see ``aggregators.aggregate``: the GRU runs the sets as one packed batch,
every other kind one kernel call per set size, with each set's forward bits
those of aggregating it alone) and decodes the fused
rows, which come back in set order, in one ``decode_batch`` call. These
three module attributes are what a step calls, once each. ``predict``
still encodes one view at a time, which is what its bit-exact permutation
invariance rests on.

Stage 1 and ``joint_train`` under a fixed(1) regime build byte-for-byte
identical computation graphs, so their base trajectories coincide exactly;
that equivalence is a tested property, not an accident.

Every run is a deterministic function of (dataset, config, seed): batches
are drawn from a counter-based generator keyed by (seed, step), and
optimizer state is reset at stage boundaries.

``optimizer_step`` checks the whole group before it writes anything. Adam
then cuts the group's ``ADAM_BLOCK``-element blocks into contiguous
shares by ``tensor.share_cuts``, one per CPU that ``tensor.side_by_side``
uses (the caller's and each free one) or fewer, each of at least
``ADAM_SHARE_FLOOR`` elements, and runs the shares side by side, each with
its own scratch buffer. Each block is written by one thread with the same
elementwise ops, so the bits do not depend on the CPU count or the block
size. The block size trades two costs: a block's five slices (data, grad,
m, v, scratch) should stay in L2, and every numpy call a share makes takes
the GIL again, so fewer, larger blocks mean fewer handoffs between the
shares. At the default widths only the base group is large enough to
split; stage 2's attention group and the GRU's run on the calling thread
alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .aggregators import ATTENTION_KINDS, SetBatch, aggregate
from .errors import ContractError, NumericOverflowError
from .model import ParamBundle, _agg_params, decode_batch, encode_batch
from .tensor import Tensor

__all__ = [
    "TrainConfig",
    "TrainReport",
    "parse_n_mode",
    "sample_minibatch",
    "OptimizerState",
    "optimizer_step",
    "faset_stage1",
    "single_view_train",
    "faset_stage2",
    "joint_train",
    "finetune",
    "schedule",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Adam walks each tensor in blocks of this many elements. It is the largest
# block whose slices of data, grad, m, v and the scratch buffer (5 x 256 KB)
# stay in a 2 MB L2. Each block costs 13 numpy calls, and each call takes
# the GIL again, so a larger block halves the handoffs between the shares:
# the base group's two-share update read 12.6 ms at 16384 and 10.9 ms at
# 32768, while 131072 spilled L2 and read 11.8 ms (BENCH_adam_block.json).
# Blocks are the unit of the per-CPU shares: a share is a run of whole
# blocks with a scratch buffer of its own, so no block is split between
# threads.
ADAM_BLOCK = 32768
# A group splits into shares (tensor.share_cuts) of at least this many
# elements, counted at the group's mean block size. Below it the handoff
# costs more than a share saves: the GRU's 98,688-element group (9 blocks)
# ran slower as 2 shares than on one thread, so it now stays on the caller,
# while the 2.27M-element base group still splits.
ADAM_SHARE_FLOOR = 2**18


@dataclass
class TrainConfig:
    batch_size: int = 16
    stage1_steps: int = 600
    stage2_steps: int = 600
    n_mode: str = "fixed:8"  # set-size regime for stage 2 / joint / finetune
    learning_rate: float = 1e-3
    finetune_rate: float = 1e-5
    seed: int = 0

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ContractError(f"train.batch_size must be >= 1, got {self.batch_size}")
        for key in ("stage1_steps", "stage2_steps"):
            if getattr(self, key) < 0:
                raise ContractError(f"train.{key} must be >= 0, got {getattr(self, key)}")
        for key in ("learning_rate", "finetune_rate"):
            rate = getattr(self, key)
            if not (np.isfinite(rate) and rate >= 0):
                raise ContractError(f"train.{key} must be finite and >= 0, got {rate}")
        parse_n_mode(self.n_mode)


def parse_n_mode(spec: str) -> tuple:
    """``fixed:N`` or ``uniform:LO:HI`` -> parsed tuple, whose last field is
    the largest set size."""
    parts = str(spec).split(":")
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            n = int(parts[1])
            if n < 1:
                raise ValueError
            return ("fixed", n)
        if parts[0] == "uniform" and len(parts) == 3:
            lo, hi = int(parts[1]), int(parts[2])
            if not 1 <= lo <= hi:
                raise ValueError
            return ("uniform", lo, hi)
    except ValueError:
        pass
    raise ContractError(f"bad train.n_mode {spec!r}; use 'fixed:N' or 'uniform:LO:HI'")


@dataclass
class TrainReport:
    stage: str
    steps: int
    losses: list
    wallclock_ms: float
    base_checksum: str
    att_checksum: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def sample_minibatch(dataset, cfg: TrainConfig, step: int, n_mode: str | None = None):
    """Deterministic draw of ``batch_size`` (views, target) pairs for one step.

    Views are flattened to rows; the set size per sample follows the
    ``fixed``/``uniform`` regime. Identical (seed, step) always reproduces
    the identical batch.
    """
    if not dataset:
        raise ContractError("cannot sample from an empty dataset")
    mode = parse_n_mode(n_mode if n_mode is not None else cfg.n_mode)
    k = dataset[0].views.shape[0]
    if mode[-1] > k:
        raise ContractError(f"n_mode {mode} exceeds the {k} views stored per sample")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, step]))
    picks = rng.integers(0, len(dataset), size=cfg.batch_size)
    batch = []
    for idx in picks:
        sample = dataset[int(idx)]
        n = mode[1] if mode[0] == "fixed" else int(rng.integers(mode[1], mode[2] + 1))
        chosen = rng.choice(k, size=n, replace=False)
        views = sample.views[np.sort(chosen)].reshape(n, -1)
        batch.append((views, sample.gt.astype(np.float64)))
    return batch


class OptimizerState:
    """Adam's state for one parameter group: per-tensor moments (flat),
    keyed by parameter name, the group's step count ``t``, and one
    block-sized scratch buffer per share of an update (see
    ``optimizer_step``), which every later update reuses while it is at
    least ``ADAM_BLOCK`` long. A state is stepped as a whole group, so one
    count serves every tensor."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0
        self.scratch: list[np.ndarray] = []


def optimizer_step(params: ParamBundle, group: str, lr: float, state: OptimizerState) -> None:
    """Apply one Adam update to the named group; all other tensors stay untouched.

    Every tensor's gradient is checked before anything is written, so a
    refused step leaves the tensors and ``state`` as they were. Adam runs
    allocation-free over ``ADAM_BLOCK``-element blocks of each tensor's flat
    views. The group's blocks are cut by ``tensor.share_cuts`` into
    contiguous shares of at least ``ADAM_SHARE_FLOOR`` elements, run side
    by side, each share with its own scratch buffer. Every op is
    elementwise and each block is written by one thread, so neither the
    blocking nor the split can change a bit of the result.
    """
    named = params.named(group)
    for name, _, tensor in named:
        if tensor.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient; run backward first")
        if tensor.grad.size != tensor.size:
            raise ContractError(f"parameter {name!r} has {tensor.size} values and a "
                                f"gradient of {tensor.grad.size}")
    state.t += 1
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    step_size = lr / (1.0 - ADAM_BETA1 ** state.t)
    blocks = []
    for name, _, tensor in named:
        g = tensor.grad.reshape(-1)
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros(g.size)
            v = np.zeros(g.size)
            state.m[name], state.v[name] = m, v
        if not tensor.data.flags.c_contiguous:  # the flat view must alias the data
            tensor.data = np.ascontiguousarray(tensor.data)
        data = tensor.data.reshape(-1)
        for lo in range(0, g.size, ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            blocks.append((g[lo:hi], m[lo:hi], v[lo:hi], data[lo:hi]))
    cuts = T.share_cuts(len(blocks), sum(tensor.size for _, _, tensor in named),
                        ADAM_SHARE_FLOOR)
    state.scratch[:] = [buf for buf in state.scratch if buf.size >= ADAM_BLOCK]
    while len(state.scratch) < len(cuts) - 1:
        state.scratch.append(np.empty(ADAM_BLOCK))
    T.side_by_side([partial(_adam_blocks, blocks[lo:hi], scratch, bc2, step_size)
                    for lo, hi, scratch in zip(cuts, cuts[1:], state.scratch)])


def _adam_blocks(blocks: list, scratch: np.ndarray, bc2: float, step_size: float) -> None:
    """Adam on each (grad, m, v, data) block, in place, with the step's bias
    correction ``bc2`` and step size ``step_size``."""
    for gb, mb, vb, db in blocks:
        buf = scratch[: gb.size]
        mb *= ADAM_BETA1
        np.multiply(gb, 1.0 - ADAM_BETA1, out=buf)
        mb += buf
        vb *= ADAM_BETA2
        np.multiply(gb, gb, out=buf)
        buf *= 1.0 - ADAM_BETA2
        vb += buf
        np.divide(vb, bc2, out=buf)
        np.sqrt(buf, out=buf)
        buf += ADAM_EPS
        np.divide(mb, buf, out=buf)
        buf *= step_size
        db -= buf


def _set_loss(params: ParamBundle, sets) -> Tensor:
    """Forward one step's worth of sets: encode every view of the step in
    one batch, aggregate all the sets in one call, decode the fused rows as
    one batch, mean BCE against the targets."""
    latents = encode_batch(Tensor(np.vstack([views for views, _ in sets])), params)
    fused, _ = aggregate(SetBatch(latents, [len(views) for views, _ in sets]), _agg_params(params))
    probs = decode_batch(fused, params)
    return T.bce_loss(probs, Tensor(np.stack([target for _, target in sets])))


def _run(params: ParamBundle, dataset, cfg: TrainConfig, *, stage: str, steps: int,
         group: str, lr: float, n_mode: str) -> TrainReport:
    cfg.validate()
    state = OptimizerState()
    losses: list[float] = []
    trained = params.group(group)
    frozen = [t for name, _, t in params.named("all") if name not in trained and t.requires_grad]
    start = time.perf_counter()
    for t in frozen:
        t.requires_grad = False
    try:
        # The ops raise on a non-finite result; numpy's warnings would repeat it.
        with np.errstate(all="ignore"):
            for step in range(steps):
                batch = sample_minibatch(dataset, cfg, step, n_mode=n_mode)
                params.zero_grads()
                with T.Tape() as tape:
                    loss = _set_loss(params, batch)
                    tape.backward(loss)
                optimizer_step(params, group, lr, state)
                losses.append(loss.item())
    except NumericOverflowError as e:
        raise NumericOverflowError(f"{stage} step {step}: {e}") from e
    finally:
        for t in frozen:
            t.requires_grad = True
    wallclock_ms = (time.perf_counter() - start) * 1000.0
    return TrainReport(stage=stage, steps=steps, losses=losses, wallclock_ms=wallclock_ms,
                       base_checksum=params.checksum("base"),
                       att_checksum=params.checksum("att"))


def faset_stage1(params: ParamBundle, dataset, cfg: TrainConfig) -> TrainReport:
    """Stage 1: base group only, single-image reconstructions (fixed(1) draws)."""
    return _run(params, dataset, cfg, stage="stage1", steps=cfg.stage1_steps,
                group="base", lr=cfg.learning_rate, n_mode="fixed:1")


def single_view_train(params: ParamBundle, dataset, cfg: TrainConfig) -> TrainReport:
    """Stage 1 for aggregators without a separable attention module: every
    parameter trained on single-image reconstructions (fixed(1) draws)."""
    return _run(params, dataset, cfg, stage="stage1", steps=cfg.stage1_steps,
                group="all", lr=cfg.learning_rate, n_mode="fixed:1")


def _check_stage2_reachable(n_mode: str) -> None:
    if parse_n_mode(n_mode)[-1] < 2:
        raise ContractError(f"stage 2 needs set sizes >= 2 to be reachable, "
                            f"got train.n_mode={n_mode!r}")


def faset_stage2(params: ParamBundle, dataset, cfg: TrainConfig) -> TrainReport:
    """Stage 2: attention group only, set-level reconstructions."""
    _check_stage2_reachable(cfg.n_mode)
    if not params.att:
        raise ContractError("stage 2 trains the attention group and this model has none; "
                            "train its whole network with finetune")
    return _run(params, dataset, cfg, stage="stage2", steps=cfg.stage2_steps,
                group="att", lr=cfg.learning_rate, n_mode=cfg.n_mode)


def joint_train(params: ParamBundle, dataset, cfg: TrainConfig) -> TrainReport:
    """End-to-end baseline: every parameter updated under one set-level loss.

    Runs stage1_steps + stage2_steps so its budget matches a full two-stage
    run."""
    return _run(params, dataset, cfg, stage="joint",
                steps=cfg.stage1_steps + cfg.stage2_steps, group="all",
                lr=cfg.learning_rate, n_mode=cfg.n_mode)


def finetune(params: ParamBundle, dataset, cfg: TrainConfig) -> TrainReport:
    """Whole-network pass at the finetune rate; the stage-2 analog for
    pooling and recurrent aggregators."""
    return _run(params, dataset, cfg, stage="finetune", steps=cfg.stage2_steps,
                group="all", lr=cfg.finetune_rate, n_mode=cfg.n_mode)


def schedule(mode: str, kind: str, n_mode: str) -> tuple:
    """The ``(checkpoint tag, trainer)`` pairs of ``train --mode`` ``faset``
    or ``joint``, in order; any other mode raises. FASet on an attention
    kind first checks that ``n_mode`` reaches stage 2. Trainers are looked
    up at call time, so a patched module attribute is the one returned."""
    if mode == "joint":
        return (("joint", joint_train),)
    if mode != "faset":
        raise ContractError(f"unknown training mode {mode!r}; expected faset or joint")
    if kind in ATTENTION_KINDS:
        _check_stage2_reachable(n_mode)
        return (("stage1", faset_stage1), ("stage2", faset_stage2))
    return (("stage1", single_view_train), ("stage2", finetune))
