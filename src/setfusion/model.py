"""Desk-scale encoder-decoder around a pluggable set aggregator.

Pipeline: each view image runs through a shared two-layer encoder to a
latent vector; the stack of latents is fused by the configured aggregator;
a two-layer decoder maps the fused latent to per-voxel occupancy
probabilities. Deliberately all-affine (no conv stacks): the properties
under test concern the aggregator and the training schedule, and small
affine nets keep every gradient checkable against finite differences.

Trainable tensors are partitioned into two fixed groups: ``base`` holds
the encoder and decoder layers, ``att`` holds the aggregator weights. The
two-stage trainer updates exactly one group per stage, so group membership
never changes after construction.

``predict`` runs ``encode_batch`` on one view row at a time (each encode is
then bit-identical wherever the view sits in the input order), fuses the
latents as a one-set ``SetBatch`` in one ``aggregate`` call and decodes the
fused [1, D] row with one ``decode_batch`` call. It is pure over an
immutable bundle, so reordering input views cannot change the output of
any permutation-invariant aggregator, bit for bit. Training aggregates a
whole step's sets in one such call (see ``training``), and so does
evaluation, one call per view count (see ``metrics``).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .aggregators import (AGGREGATOR_KINDS, AggregatorParams, AttentionMap, SetBatch, aggregate,
                          aggregator_init)
from .errors import ContractError, FormatError, ShapeError
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "ParamBundle",
    "VoxelGrid",
    "model_init",
    "encode_batch",
    "decode_batch",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"SFCK"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    image_side: int = 16
    latent_dim: int = 128
    encoder_hidden: int = 256
    decoder_hidden: int = 512
    grid_side: int = 16
    aggregator_kind: str = "attsets_fc"
    seed: int = 0
    max_views: int = 24

    def validate(self) -> None:
        for name in ("image_side", "latent_dim", "encoder_hidden", "decoder_hidden",
                     "grid_side", "max_views"):
            if getattr(self, name) < 1:
                raise ContractError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if self.aggregator_kind not in AGGREGATOR_KINDS:
            raise ContractError(f"unknown model.aggregator_kind {self.aggregator_kind!r}; "
                                f"expected one of {', '.join(AGGREGATOR_KINDS)}")

    @property
    def voxel_count(self) -> int:
        return self.grid_side ** 3


@dataclass
class VoxelGrid:
    """Per-voxel occupancy probabilities for a G^3 grid, flattened row-major."""

    probs: Tensor
    grid_side: int

    def __post_init__(self):
        if self.probs.size != self.grid_side ** 3:
            raise ShapeError(
                f"{self.probs.size} probabilities cannot fill a {self.grid_side}^3 grid")
        vals = self.probs.data
        if (vals < 0).any() or (vals > 1).any():
            raise ContractError("voxel probabilities must lie in [0, 1]")


@dataclass
class ParamBundle:
    """Named trainable tensors split into disjoint base and att groups."""

    base: dict[str, Tensor]
    att: dict[str, Tensor]
    cfg: ModelConfig | None = None

    def __post_init__(self):
        overlap = set(self.base) & set(self.att)
        if overlap:
            raise ContractError(f"tensor names in both groups: {sorted(overlap)}")

    def group(self, name: str) -> dict[str, Tensor]:
        if name == "base":
            return self.base
        if name == "att":
            return self.att
        if name == "all":
            return {**self.base, **self.att}
        raise ContractError(f"unknown parameter group {name!r}")

    def named(self, group: str = "all"):
        """Deterministic (name, group_tag, tensor) iteration in sorted name order."""
        return sorted(((n, "base" if n in self.base else "att", t)
                       for n, t in self.group(group).items()), key=lambda r: r[0])

    def checksum(self, group: str = "all") -> str:
        h = hashlib.sha256()
        for name, tag, t in self.named(group):
            h.update(name.encode())
            h.update(tag.encode())
            h.update(np.asarray(t.shape, dtype="<u4").tobytes())
            h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        return h.hexdigest()

    def zero_grads(self) -> None:
        for _, _, t in self.named("all"):
            t.grad = None


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=(fan_in, fan_out))


def _base_layers(cfg: ModelConfig) -> list[tuple[str, int, int]]:
    """(weight name, fan in, fan out) of the encoder and decoder layers."""
    d, he, hd = cfg.latent_dim, cfg.encoder_hidden, cfg.decoder_hidden
    return [("enc_w1", cfg.image_side ** 2, he), ("enc_w2", he, d), ("dec_w1", d, hd),
            ("dec_w2", hd, cfg.voxel_count)]


def model_init(cfg: ModelConfig) -> ParamBundle:
    """Deterministic parameter bundle for the given config and seed."""
    cfg.validate()
    base: dict[str, Tensor] = {}
    for idx, (name, fan_in, fan_out) in enumerate(_base_layers(cfg)):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, idx]))
        base[name] = Tensor(_glorot(rng, fan_in, fan_out), requires_grad=True)
        base[name.replace("w", "b")] = Tensor(np.zeros((1, fan_out)), requires_grad=True)
    agg = aggregator_init(cfg.aggregator_kind, cfg.latent_dim, seed=cfg.seed)
    att = {f"att_{k}": t for k, t in agg.weights.items()}
    return ParamBundle(base=base, att=att, cfg=cfg)


def _config(params: ParamBundle) -> ModelConfig:
    if params.cfg is None:
        raise ContractError("the bundle has no model config; pass cfg to load_checkpoint")
    return params.cfg


def _agg_params(params: ParamBundle):
    return AggregatorParams(_config(params).aggregator_kind,
                            {k.removeprefix("att_"): t for k, t in params.att.items()})


def encode_batch(images: Tensor, params: ParamBundle) -> Tensor:
    """Shared encoder over a [B, image_side^2] stack of flattened views."""
    h = T.relu(T.ew_binary("add", T.matmul(images, params.base["enc_w1"]), params.base["enc_b1"]))
    return T.ew_binary("add", T.matmul(h, params.base["enc_w2"]), params.base["enc_b2"])


def decode_batch(latents: Tensor, params: ParamBundle) -> Tensor:
    """Decoder from [B, D] latents to [B, G^3] occupancy probabilities."""
    h = T.relu(T.ew_binary("add", T.matmul(latents, params.base["dec_w1"]), params.base["dec_b1"]))
    return T.sigmoid(T.ew_binary("add", T.matmul(h, params.base["dec_w2"]), params.base["dec_b2"]))


def _view_rows(views, params: ParamBundle) -> list[Tensor]:
    """The views of one prediction as [1, image_side^2] rows, after the
    checks every prediction path makes: the bundle has a model config, there
    are 1..max_views views, and each has image_side^2 pixels."""
    cfg = _config(params)
    views = list(views)
    if not views:
        raise ContractError("predict needs at least one view")
    if len(views) > cfg.max_views:
        raise ContractError(f"{len(views)} views exceed the configured maximum {cfg.max_views}")
    side = cfg.image_side
    arrs = [v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64) for v in views]
    for arr in arrs:
        if arr.size != side * side:
            raise ShapeError(f"view has {arr.size} pixels, expected {side}x{side}")
    return [Tensor(arr.reshape(1, side * side)) for arr in arrs]


def predict(views, params: ParamBundle) -> tuple[VoxelGrid, AttentionMap | None]:
    """Reconstruct one voxel grid from 1..max_views view images.

    The attention map is returned only for attention aggregators.
    """
    cfg = params.cfg
    latents = [encode_batch(row, params) for row in _view_rows(views, params)]
    fused, scores = aggregate(SetBatch(T.stack_rows(latents)), _agg_params(params))
    probs = decode_batch(fused, params)
    attn = None if scores is None else AttentionMap(Tensor(scores))
    return VoxelGrid(T.reshape(probs, [cfg.voxel_count]), cfg.grid_side), attn


# --------------------------------------------------------------- checkpoint

_GROUP_TAGS = {"base": 0, "att": 1}
# The lowest limit numpy has had on array rank; model tensors have rank 2.
_MAX_RANK = 32
_TAG_GROUPS = {v: k for k, v in _GROUP_TAGS.items()}


@contextmanager
def _replacing(path):
    """Open a temporary file beside ``path`` for binary writing. When the
    block ends cleanly the file replaces ``path`` in one ``os.replace``;
    when it raises, the file is removed. Either way ``path`` never holds a
    half-written file, and an earlier file there stays as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    f = open(tmp, "wb")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(params: ParamBundle, path) -> None:
    """Binary layout: magic ``SFCK``, version u32, tensor count u32, then per
    tensor: name length u32 + UTF-8 name, group tag byte, rank u32, extents
    u32 each, values as little-endian float64. All integers little-endian.

    Each header and each tensor's buffer is written straight to a temporary
    file, with no copy of the whole file in memory, which then replaces
    ``path`` (see ``_replacing``).
    """
    records = params.named("all")
    pieces = [CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(records))]
    for name, tag, t in records:
        encoded = name.encode("utf-8")
        shape = t.data.shape
        pieces.append(struct.pack(f"<I{len(encoded)}sBI{len(shape)}I", len(encoded), encoded,
                                  _GROUP_TAGS[tag], len(shape), *shape))
        pieces.append(np.ascontiguousarray(t.data, dtype="<f8"))
    with _replacing(path) as f:
        for piece in pieces:
            f.write(piece)


class _Reader:
    """Reads a checkpoint's fields from an open file, one field at a time.

    Every read is checked against the bytes left in the file before anything
    is allocated, so a corrupted extent raises ``FormatError`` instead of
    asking for a huge array."""

    def __init__(self, f):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size
        self.off = 0

    def _advance(self, n: int, got: int, what: str) -> None:
        if got != n:  # the file shrank after it was measured
            raise FormatError(f"truncated checkpoint while reading {what}", offset=self.off)
        self.off += n

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > self.size:
            raise FormatError(f"truncated checkpoint while reading {what}", offset=self.off)
        piece = self.f.read(n)
        self._advance(n, len(piece), what)
        return piece

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def values(self, shape: tuple, what: str) -> np.ndarray:
        """A new writable little-endian float64 array of ``shape``, read in
        place from the file (its offsets are not 8-byte aligned, so a view
        of the file's bytes would be unaligned)."""
        n = 8 * math.prod(shape)
        if self.off + n > self.size:
            raise FormatError(f"truncated checkpoint while reading {what}", offset=self.off)
        arr = np.empty(shape, dtype="<f8")
        self._advance(n, self.f.readinto(arr.reshape(-1).view(np.uint8)), what)
        return arr


def _expected_tensors(cfg: ModelConfig) -> set:
    """(name, group tag, shape) of every tensor ``model_init(cfg)`` builds,
    without drawing the base group's initial weights."""
    cfg.validate()
    expected = set()
    for name, fan_in, fan_out in _base_layers(cfg):
        expected |= {(name, "base", (fan_in, fan_out)),
                     (name.replace("w", "b"), "base", (1, fan_out))}
    agg = aggregator_init(cfg.aggregator_kind, cfg.latent_dim, seed=cfg.seed)
    return expected | {(f"att_{k}", "att", t.shape) for k, t in agg.weights.items()}


def load_checkpoint(path, cfg: ModelConfig | None = None) -> ParamBundle:
    """Bit-exact inverse of ``save_checkpoint``. With a ``cfg``, the file's
    tensors must be exactly those that config builds, by name, group and
    shape; a mismatch raises ``ContractError``.

    Each tensor's values are read straight from the file into that tensor's
    own array, with no copy of the whole file in memory. A malformed file
    raises ``FormatError`` at the offset of the first bad field: a
    truncated field (checked against the file's size before any array is
    allocated), a name that is not UTF-8 or repeats an earlier one, an
    unknown group tag, a rank above 32, or trailing bytes."""
    with open(path, "rb") as f:
        r = _Reader(f)
        magic = r.take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}", offset=0)
        version = r.u32("version")
        if version != CHECKPOINT_VERSION:
            raise FormatError(
                f"checkpoint version {version}, this build reads version {CHECKPOINT_VERSION}", offset=4)
        count = r.u32("tensor count")
        groups: dict[str, dict[str, Tensor]] = {"base": {}, "att": {}}
        for _ in range(count):
            name_len = r.u32("name length")
            name_off = r.off
            try:
                name = str(r.take(name_len, "name"), "utf-8")
            except UnicodeDecodeError:
                raise FormatError("tensor name is not valid UTF-8", offset=name_off) from None
            if any(name in g for g in groups.values()):
                raise FormatError(f"tensor name {name!r} repeats an earlier one", offset=name_off)
            tag_byte = r.take(1, "group tag")[0]
            if tag_byte not in _TAG_GROUPS:
                raise FormatError(f"unknown group tag {tag_byte}", offset=r.off - 1)
            rank_off = r.off
            rank = r.u32("rank")
            if rank > _MAX_RANK:
                raise FormatError(f"rank {rank} exceeds the supported {_MAX_RANK}", offset=rank_off)
            shape = struct.unpack(f"<{rank}I", r.take(4 * rank, "extents")) if rank else ()
            data = r.values(shape, f"values of {name}")
            groups[_TAG_GROUPS[tag_byte]][name] = Tensor(data, requires_grad=True)
        if r.off != r.size:
            raise FormatError("trailing bytes after final tensor", offset=r.off)
    params = ParamBundle(base=groups["base"], att=groups["att"], cfg=cfg)
    if cfg is not None:
        expected = _expected_tensors(cfg)
        got = {(n, tag, t.shape) for n, tag, t in params.named()}
        if expected != got:
            raise ContractError(
                f"checkpoint tensors do not match the configured model: missing "
                f"{sorted(expected - got)}, unexpected {sorted(got - expected)}")
    return params
