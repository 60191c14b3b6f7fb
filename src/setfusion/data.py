"""Procedural multi-view depth dataset over random composite voxel shapes.

Shapes are unions of 1-3 axis-aligned boxes and spheres rasterized into a
G^3 occupancy grid (a voxel is occupied when its center lies inside a
primitive). Each shape is rendered to K orthographic depth images from
fixed viewpoints. Depth images make single-view reconstruction partially
ambiguous (occluded regions are invisible), so extra views measurably help
-- the property the robustness experiments need.

Ray table (direction index -> march rule; ``cell(p) = floor(p*G/side)``
maps a pixel coordinate to a voxel cell). ``_ray_voxels`` holds the same
table as code, and ``_ray_table`` turns it once per G into a gather table of
flat voxel indices, so one gather renders all eight views of a sample:

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
depth lies in (0, 1] and 0 unambiguously means "empty ray". A diagonal
step past the grid visits an empty voxel.

File format (all integers little-endian):

    magic "SFDS" | version u32 (1) | G u32 | image_side u32 | K u32 (8)
    | split u32 (0 = train, 1 = test) | train_count u64 | test_count u64
    | seed u64 | per sample: id u64, gt grid as G^3 bytes of {0,1},
      K images as image_side^2 float64 values.

Train ids are 0..train_count-1 and test ids continue from train_count, so
the two splits can never share a sample. The loader checks the header's
sizes (G >= 2, image_side >= 1), every sample id, every occupancy byte and
every depth value, and raises ``FormatError`` at the byte offset of the
first bad field.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, GenerationError
from .metrics import _grid_search, best_threshold
from .model import _replacing

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
    seed: int = 0
    split: str = ""  # populated by load_dataset

    def validate(self) -> None:
        for key, least in (("train_count", 1), ("test_count", 1), ("grid_side", 2),
                           ("image_side", 1)):
            if getattr(self, key) < least:
                raise ContractError(f"data.{key} must be >= {least}, got {getattr(self, key)}")
        if not 0 <= self.seed < 2 ** 64:
            raise ContractError(f"data.seed must lie in [0, 2**64), got {self.seed}")


def rasterize(spec: ShapeSpec, grid_side: int) -> np.ndarray:
    """Occupancy cube [G,G,G] uint8; a voxel counts as inside when its
    center does."""
    g = grid_side
    centers = np.arange(g) + 0.5
    cx, cy, cz = centers[:, None, None], centers[None, :, None], centers[None, None, :]
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
        frac = np.count_nonzero(occ) / occ.size
        if OCCUPANCY_LO <= frac <= OCCUPANCY_HI:
            return spec, occ
    raise GenerationError(
        f"no shape within occupancy [{OCCUPANCY_LO}, {OCCUPANCY_HI}] after {MAX_ATTEMPTS} attempts")


def _ray_voxels(s, a, b, g):
    """The ray table above: the voxel (x, y, z) that each direction's ray
    through pixel cell (a, b) visits at march step s."""
    return ((s, a, b), (g - 1 - s, a, b), (a, s, b), (a, g - 1 - s, b),
            (a, b, s), (a, b, g - 1 - s), (a + s, s, b), (a + s, b, s))


@functools.lru_cache(maxsize=4)
def _ray_table(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather table [8, G, G, G] of flat indices into an
    occupancy grid padded with one empty voxel at index G^3, entry
    [d, s, a, b] being the voxel of ``_ray_voxels``; and the step codes
    [G, 1, 1], G - s at step s, so a ray's largest code marks its first
    hit. The table is 8 G^3 intp, 256 KB at G = 16: a narrower index
    dtype would be cast back to intp on every gather."""
    s, a, b = np.ogrid[:g, :g, :g]
    table = np.empty((VIEW_COUNT, g, g, g), dtype=np.intp)
    for d, (x, y, z) in enumerate(_ray_voxels(s, a, b, g)):
        table[d] = np.where((x < g) & (y < g) & (z < g), (x * g + y) * g + z, g ** 3)
    codes = np.arange(g, 0, -1, dtype=np.min_scalar_type(g))[:, None, None]
    table.flags.writeable = codes.flags.writeable = False
    return table, codes


def render_all_views(occ: np.ndarray, image_side: int = 16) -> np.ndarray:
    """[8, side, side] orthographic depth images, one per direction of the
    ray table, from one gather over the padded grid."""
    occ = np.asarray(occ)
    g = occ.shape[0]
    if occ.shape != (g, g, g):
        raise ContractError(f"occupancy must be a cube, got {occ.shape}")
    table, codes = _ray_table(g)
    padded = np.zeros(g ** 3 + 1, dtype=bool)
    np.not_equal(occ.reshape(-1), 0, out=padded[:-1])
    code = (padded[table] * codes).max(axis=1)
    cells = (np.arange(image_side) * g) // image_side
    first = g - code[:, cells[:, None], cells]  # a miss reads g
    return 1.0 - first / g


def render_view(occ: np.ndarray, direction: int, image_side: int = 16) -> np.ndarray:
    """Orthographic depth image for one direction of the ray table."""
    if direction not in range(VIEW_COUNT):
        raise ContractError(f"direction must be 0..{VIEW_COUNT - 1}, got {direction}")
    return render_all_views(occ, image_side)[direction]


# ----------------------------------------------------------------- file I/O

def _sample_bytes(sample_id: int, occ: np.ndarray, views: np.ndarray) -> bytes:
    return (struct.pack("<Q", sample_id)
            + occ.astype(np.uint8).reshape(-1).tobytes()
            + np.ascontiguousarray(views, dtype="<f8").tobytes())


def _header(meta: DatasetMeta, split: int) -> bytes:
    return (DATASET_MAGIC
            + struct.pack("<IIIII", DATASET_VERSION, meta.grid_side, meta.image_side,
                          VIEW_COUNT, split)
            + struct.pack("<QQQ", meta.train_count, meta.test_count, meta.seed))


def generate_dataset(meta: DatasetMeta, out_dir) -> dict:
    """Write ``train.sfds`` and ``test.sfds`` plus a JSON generation report;
    byte-identical for identical meta. Each file is written under a
    temporary name and then replaces its final name, so an interrupted run
    leaves no half-written file there."""
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
        with _replacing(path) as f:
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
    report["meta"].update(version=DATASET_VERSION, view_count=VIEW_COUNT)
    report_path = out_dir / "dataset_report.json"
    with _replacing(report_path) as f:
        f.write((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
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
    _, nn_iou, _ = _grid_search([(train_gt[j], gt) for j, gt in zip(nearest, test_gt)], (0.5,))
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
    if g < 2:
        raise FormatError(f"grid side {g}, must be >= 2", offset=8)
    if side < 1:
        raise FormatError(f"image side {side}, must be >= 1", offset=12)
    if k != VIEW_COUNT:
        raise FormatError(f"view count {k}, this build reads {VIEW_COUNT}", offset=16)
    train_count, test_count, seed = struct.unpack("<QQQ", blob[24:48])
    if split not in (0, 1):
        raise FormatError(f"unknown split tag {split}", offset=20)
    meta = DatasetMeta(train_count=train_count, test_count=test_count, grid_side=g,
                       image_side=side, seed=seed, split="train" if split == 0 else "test")
    n_samples = train_count if split == 0 else test_count
    rec = 8 + g ** 3 + k * side * side * 8
    expected = 48 + n_samples * rec
    if len(blob) != expected:
        raise FormatError(
            f"expected {expected} bytes for {n_samples} samples, found {len(blob)}",
            offset=min(len(blob), expected))
    block = np.frombuffer(blob, count=n_samples, offset=48, dtype=np.dtype([
        ("id", "<u8"), ("gt", np.uint8, (g ** 3,)), ("views", "<f8", (k, side, side))]))
    first_id = 0 if split == 0 else train_count
    ids = block["id"]
    gts = np.ascontiguousarray(block["gt"])
    views = np.ascontiguousarray(block["views"])
    faults = []  # (offset, message) of each check's first bad field
    bad = np.flatnonzero(ids != np.arange(n_samples, dtype=np.uint64) + np.uint64(first_id))
    if bad.size:
        i = int(bad[0])
        faults.append((48 + i * rec, f"sample {i} has id {ids[i]}, expected {first_id + i}"))
    if gts.max(initial=0) > 1:
        i = int(np.argmax(gts.max(axis=1) > 1))
        faults.append((48 + i * rec + 8, "occupancy bytes must be 0 or 1"))
    # min and max propagate NaN, which fails both comparisons
    if not (views.min(initial=0.0) >= 0.0 and views.max(initial=0.0) <= 1.0):
        flat = views.reshape(-1)
        at = int(np.argmin((flat >= 0.0) & (flat <= 1.0)))
        i, j = divmod(at, k * side * side)
        faults.append((48 + i * rec + 8 + g ** 3 + 8 * j,
                       f"depth {float(flat[at])!r} of sample {i} is not within [0, 1]"))
    if faults:
        offset, message = min(faults)
        raise FormatError(message, offset=offset)
    samples = [MultiViewSample(sample_id=int(ids[i]), views=views[i], gt=gts[i])
               for i in range(n_samples)]
    return samples, meta
