"""Procedural multi-view depth dataset over random composite voxel shapes.

Shapes are unions of 1-3 axis-aligned boxes and spheres rasterized into a
G^3 occupancy grid (a voxel is occupied when its center lies inside a
primitive). Each shape is rendered to K orthographic depth images from
fixed viewpoints. Depth images make single-view reconstruction partially
ambiguous (occluded regions are invisible), so extra views measurably help
-- the property the robustness experiments need.

Ray table (direction index -> march rule; ``cell(p) = floor(p*G/side)``
maps a pixel coordinate to a voxel cell):

    0  +x   pixel (a,b) -> (y,z) = (cell(a), cell(b)); visits (s, y, z)
    1  -x   same pixel mapping; visits (G-1-s, y, z)
    2  +y   pixel (a,b) -> (x,z); visits (x, s, z)
    3  -y   pixel (a,b) -> (x,z); visits (x, G-1-s, z)
    4  +z   pixel (a,b) -> (x,y); visits (x, y, s)
    5  -z   pixel (a,b) -> (x,y); visits (x, y, G-1-s)
    6  +x+y pixel (a,b) -> (x0,z) = (cell(a), cell(b)); visits (x0+s, s, z)
    7  +x+z pixel (a,b) -> (x0,y); visits (x0+s, y, s)

``s`` counts march steps from the entry face; the first occupied voxel at
step s yields depth ``1 - s/G`` and a miss yields 0, so every recorded
depth lies in (0, 1] and 0 unambiguously means "empty ray".

File format (all integers little-endian):

    magic "SFDS" | version u32 | G u32 | image_side u32 | K u32
    | split u32 (0 = train, 1 = test) | train_count u64 | test_count u64
    | seed u64 | per sample: id u64, gt grid as G^3 bytes of {0,1},
      K images as image_side^2 float64 values.

Train ids are 0..train_count-1 and test ids continue from train_count, so
the two splits can never share a sample.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, GenerationError
from .metrics import best_threshold, iou

__all__ = [
    "ShapeSpec",
    "MultiViewSample",
    "DatasetMeta",
    "make_shape",
    "rasterize",
    "render_view",
    "render_all_views",
    "generate_dataset",
    "load_dataset",
]

DATASET_MAGIC = b"SFDS"
DATASET_VERSION = 1
VIEW_COUNT = 8

OCCUPANCY_LO = 0.02
OCCUPANCY_HI = 0.5
MAX_ATTEMPTS = 100


@dataclass
class ShapeSpec:
    """Union of primitives; each is ("box", center, half_extents) or
    ("sphere", center, radius) in voxel units."""

    primitives: list


@dataclass
class MultiViewSample:
    sample_id: int
    views: np.ndarray  # [K, side, side] float64 in [0, 1]
    gt: np.ndarray     # [G^3] uint8 in {0, 1}


@dataclass
class DatasetMeta:
    train_count: int = 2000
    test_count: int = 500
    grid_side: int = 16
    image_side: int = 16
    view_count: int = VIEW_COUNT
    seed: int = 0
    version: int = DATASET_VERSION
    split: str = ""  # populated by load_dataset

    def validate(self) -> None:
        if self.train_count < 1 or self.test_count < 1:
            raise ContractError("train and test counts must be >= 1")
        if self.grid_side < 2 or self.image_side < 1:
            raise ContractError("grid_side must be >= 2 and image_side >= 1")
        if self.view_count != VIEW_COUNT:
            raise ContractError(f"this build renders exactly {VIEW_COUNT} fixed directions")


def rasterize(spec: ShapeSpec, grid_side: int) -> np.ndarray:
    """Occupancy cube [G,G,G] uint8; a voxel counts as inside when its
    center does."""
    g = grid_side
    centers = np.arange(g) + 0.5
    cx, cy, cz = np.meshgrid(centers, centers, centers, indexing="ij")
    occ = np.zeros((g, g, g), dtype=bool)
    for prim in spec.primitives:
        kind = prim[0]
        if kind == "box":
            _, center, half = prim
            mask = ((np.abs(cx - center[0]) <= half[0])
                    & (np.abs(cy - center[1]) <= half[1])
                    & (np.abs(cz - center[2]) <= half[2]))
        elif kind == "sphere":
            _, center, radius = prim
            mask = ((cx - center[0]) ** 2 + (cy - center[1]) ** 2
                    + (cz - center[2]) ** 2) <= radius ** 2
        else:
            raise ContractError(f"unknown primitive {kind!r}")
        occ |= mask
    return occ.astype(np.uint8)


def make_shape(seed: int, index: int, grid_side: int = 16) -> tuple[ShapeSpec, np.ndarray]:
    """Deterministic shape for (seed, index); rejection-sampled until the
    union occupies between 2% and 50% of the grid."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    g = grid_side
    for _ in range(MAX_ATTEMPTS):
        # one or two large-ish primitives: single depth views stay
        # informative (they pin the visible surfaces) while the unseen back
        # side and the second primitive keep extra views genuinely useful
        prims = []
        for _ in range(1 if rng.random() < 0.6 else 2):
            center = rng.uniform(0.3 * g, 0.7 * g, size=3)
            if rng.random() < 0.5:
                half = rng.uniform(0.18 * g, 0.32 * g, size=3)
                prims.append(("box", center, half))
            else:
                prims.append(("sphere", center, float(rng.uniform(0.22 * g, 0.34 * g))))
        spec = ShapeSpec(prims)
        occ = rasterize(spec, g)
        frac = occ.mean()
        if OCCUPANCY_LO <= frac <= OCCUPANCY_HI:
            return spec, occ
    raise GenerationError(
        f"no shape within occupancy [{OCCUPANCY_LO}, {OCCUPANCY_HI}] after {MAX_ATTEMPTS} attempts")


def _march_stack(occ: np.ndarray, direction: int) -> np.ndarray:
    """[G, A, B] boolean stack: entry s is the slice of voxels visited at
    march step s, indexed by the pixel cell (a, b)."""
    g = occ.shape[0]
    if direction == 0:
        return occ.astype(bool)
    if direction == 1:
        return occ[::-1].astype(bool)
    if direction == 2:
        return occ.transpose(1, 0, 2).astype(bool)
    if direction == 3:
        return occ.transpose(1, 0, 2)[::-1].astype(bool)
    if direction == 4:
        return occ.transpose(2, 0, 1).astype(bool)
    if direction == 5:
        return occ.transpose(2, 0, 1)[::-1].astype(bool)
    stack = np.zeros((g, g, g), dtype=bool)
    if direction == 6:
        for s in range(g):
            stack[s, : g - s, :] = occ[s:, s, :]
        return stack
    if direction == 7:
        for s in range(g):
            stack[s, : g - s, :] = occ[s:, :, s]
        return stack
    raise ContractError(f"direction must be 0..{VIEW_COUNT - 1}, got {direction}")


def render_view(occ: np.ndarray, direction: int, image_side: int = 16) -> np.ndarray:
    """Orthographic depth image for one direction of the ray table."""
    occ = np.asarray(occ)
    g = occ.shape[0]
    if occ.shape != (g, g, g):
        raise ContractError(f"occupancy must be a cube, got {occ.shape}")
    stack = _march_stack(occ, direction)
    hit = stack.any(axis=0)
    first = stack.argmax(axis=0)
    cell_depth = np.where(hit, 1.0 - first / g, 0.0)
    cells = (np.arange(image_side) * g) // image_side
    return cell_depth[np.ix_(cells, cells)]


def render_all_views(occ: np.ndarray, image_side: int = 16) -> np.ndarray:
    return np.stack([render_view(occ, d, image_side) for d in range(VIEW_COUNT)])


# ----------------------------------------------------------------- file I/O

def _sample_bytes(sample_id: int, occ: np.ndarray, views: np.ndarray) -> bytes:
    return (struct.pack("<Q", sample_id)
            + occ.astype(np.uint8).reshape(-1).tobytes()
            + np.ascontiguousarray(views, dtype="<f8").tobytes())


def _header(meta: DatasetMeta, split: int) -> bytes:
    return (DATASET_MAGIC
            + struct.pack("<IIIII", meta.version, meta.grid_side, meta.image_side,
                          meta.view_count, split)
            + struct.pack("<QQQ", meta.train_count, meta.test_count, meta.seed))


def generate_dataset(meta: DatasetMeta, out_dir) -> dict:
    """Write ``train.sfds`` and ``test.sfds`` plus a JSON generation report;
    byte-identical for identical meta."""
    meta.validate()
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise OSError(f"cannot create output directory {out_dir}: {e}") from e

    counts = {"train": meta.train_count, "test": meta.test_count}
    offsets = {"train": 0, "test": meta.train_count}
    grids: dict[str, list[np.ndarray]] = {"train": [], "test": []}
    first_views: dict[str, list[np.ndarray]] = {"train": [], "test": []}
    paths = {}
    for split_idx, split in enumerate(("train", "test")):
        path = out_dir / f"{split}.sfds"
        with open(path, "wb") as f:
            f.write(_header(meta, split_idx))
            for i in range(counts[split]):
                sample_id = offsets[split] + i
                _, occ = make_shape(meta.seed, sample_id, meta.grid_side)
                views = render_all_views(occ, meta.image_side)
                f.write(_sample_bytes(sample_id, occ, views))
                grids[split].append(occ.reshape(-1))
                first_views[split].append(views[0].reshape(-1))
        paths[split] = str(path)

    report = _informativeness_report(meta, grids, first_views)
    report["paths"] = paths
    report["meta"] = {k: v for k, v in vars(meta).items() if k != "split"}
    report_path = out_dir / "dataset_report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    report["report_path"] = str(report_path)
    return report


def _informativeness_report(meta, grids, first_views) -> dict:
    """Sanity probe: a best-constant predictor must lose to a single-view
    nearest-neighbor oracle, otherwise the views carry no signal."""
    train_gt = np.stack(grids["train"]).astype(np.float64)
    test_gt = np.stack(grids["test"])
    freq = train_gt.mean(axis=0)
    const_p, const_iou = best_threshold([(freq, gt) for gt in test_gt])

    train_v = np.stack(first_views["train"])
    test_v = np.stack(first_views["test"])
    d2 = ((test_v ** 2).sum(1)[:, None] - 2.0 * test_v @ train_v.T
          + (train_v ** 2).sum(1)[None, :])
    nearest = d2.argmin(axis=1)
    nn_iou = float(np.mean([
        iou(train_gt[j], gt, 0.5) for j, gt in zip(nearest, test_gt)]))
    return {
        "constant_predictor_iou": const_iou,
        "constant_predictor_threshold": const_p,
        "single_view_nn_iou": nn_iou,
        "views_informative": bool(nn_iou > const_iou),
    }


def load_dataset(path) -> tuple[list[MultiViewSample], DatasetMeta]:
    """Lossless inverse of the generator's writer."""
    path = Path(path)
    if not path.exists():
        raise OSError(f"dataset file not found: {path}")
    blob = path.read_bytes()
    if len(blob) < 48:
        raise FormatError("file shorter than the fixed header", offset=len(blob))
    if blob[:4] != DATASET_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {DATASET_MAGIC!r}", offset=0)
    version, g, side, k, split = struct.unpack("<IIIII", blob[4:24])
    if version != DATASET_VERSION:
        raise FormatError(
            f"dataset version {version}, this build reads version {DATASET_VERSION}", offset=4)
    train_count, test_count, seed = struct.unpack("<QQQ", blob[24:48])
    if split not in (0, 1):
        raise FormatError(f"unknown split tag {split}", offset=20)
    meta = DatasetMeta(train_count=train_count, test_count=test_count, grid_side=g,
                       image_side=side, view_count=k, seed=seed, version=version,
                       split="train" if split == 0 else "test")
    n_samples = train_count if split == 0 else test_count
    rec = 8 + g ** 3 + k * side * side * 8
    expected = 48 + n_samples * rec
    if len(blob) != expected:
        raise FormatError(
            f"expected {expected} bytes for {n_samples} samples, found {len(blob)}",
            offset=min(len(blob), expected))
    samples = []
    off = 48
    for _ in range(n_samples):
        (sample_id,) = struct.unpack("<Q", blob[off : off + 8])
        off += 8
        gt = np.frombuffer(blob, dtype=np.uint8, count=g ** 3, offset=off).copy()
        if not np.isin(gt, (0, 1)).all():
            raise FormatError("occupancy bytes must be 0 or 1", offset=off)
        off += g ** 3
        views = np.frombuffer(blob, dtype="<f8", count=k * side * side, offset=off)
        views = views.reshape(k, side, side).copy()
        off += k * side * side * 8
        samples.append(MultiViewSample(sample_id=sample_id, views=views, gt=gt))
    return samples, meta
