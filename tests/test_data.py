import hashlib

import numpy as np
import pytest

from setfusion import data as D
from setfusion.errors import ContractError, FormatError

SMALL = dict(train_count=6, test_count=3, grid_side=8, image_side=8, seed=42)


# ------------------------------------------------------------------ shapes

def test_centered_box_occupies_one_eighth():
    g = 16
    spec = D.ShapeSpec([("box", np.array([8.0, 8.0, 8.0]), np.array([4.0, 4.0, 4.0]))])
    occ = D.rasterize(spec, g)
    assert occ.sum() == (g // 2) ** 3
    assert occ.mean() == pytest.approx(1.0 / 8.0)


def _rasterize_per_voxel(spec, g):
    """Reference: test each voxel center against each primitive in Python."""
    occ = np.zeros((g, g, g), dtype=np.uint8)
    for i in range(g):
        for j in range(g):
            for k in range(g):
                p = (i + 0.5, j + 0.5, k + 0.5)
                for kind, center, size in spec.primitives:
                    d = [p[t] - float(center[t]) for t in range(3)]
                    if kind == "box":
                        inside = all(abs(d[t]) <= float(size[t]) for t in range(3))
                    else:
                        inside = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= size * size
                    if inside:
                        occ[i, j, k] = 1
    return occ


@pytest.mark.parametrize("g", [5, 16])
def test_rasterize_matches_per_voxel_loop(g):
    # each primitive has voxel centers exactly on its surface
    box = ("box", np.array([g / 2, g // 2 + 0.5, g // 2 + 0.5]), np.array([g / 2 - 1.5, 1.0, 2.0]))
    sphere = ("sphere", np.full(3, g // 2 + 0.5), float(3 * g // 8))
    for prims in ([box], [sphere], [box, sphere]):
        spec = D.ShapeSpec(prims)
        occ = D.rasterize(spec, g)
        assert occ.dtype == np.uint8 and occ.any()
        assert occ.tobytes() == _rasterize_per_voxel(spec, g).tobytes()


def test_make_shape_deterministic():
    a_spec, a = D.make_shape(7, 3)
    b_spec, b = D.make_shape(7, 3)
    assert np.array_equal(a, b)
    assert len(a_spec.primitives) == len(b_spec.primitives)
    _, c = D.make_shape(7, 4)
    assert not np.array_equal(a, c)


def test_make_shape_occupancy_bounds():
    for index in range(60):
        _, occ = D.make_shape(1, index)
        assert D.OCCUPANCY_LO <= occ.mean() <= D.OCCUPANCY_HI


# --------------------------------------------------------------- rendering

def test_render_empty_grid_all_zero():
    for d in range(D.VIEW_COUNT):
        img = D.render_view(np.zeros((8, 8, 8), dtype=np.uint8), d, 8)
        assert np.array_equal(img, np.zeros((8, 8)))


def test_render_full_grid_axis_views_all_one():
    occ = np.ones((8, 8, 8), dtype=np.uint8)
    for d in range(6):
        assert np.array_equal(D.render_view(occ, d, 8), np.ones((8, 8)))


def test_render_single_voxel_plus_x():
    g = 16
    occ = np.zeros((g, g, g), dtype=np.uint8)
    occ[3, 5, 7] = 1
    img = D.render_view(occ, 0, g)
    expected = np.zeros((g, g))
    expected[5, 7] = 1.0 - 3.0 / 16.0  # hit after 3 march steps
    assert np.array_equal(img, expected)


def test_render_single_voxel_minus_x():
    g = 16
    occ = np.zeros((g, g, g), dtype=np.uint8)
    occ[3, 5, 7] = 1
    img = D.render_view(occ, 1, g)
    expected = np.zeros((g, g))
    expected[5, 7] = 1.0 - 12.0 / 16.0  # 12 steps from the x = 15 face
    assert np.array_equal(img, expected)


def test_render_single_voxel_diagonals():
    g = 16
    occ = np.zeros((g, g, g), dtype=np.uint8)
    occ[4, 2, 7] = 1
    img6 = D.render_view(occ, 6, g)
    expected = np.zeros((g, g))
    expected[2, 7] = 1.0 - 2.0 / 16.0  # (x0+s, s, z) = (4, 2, 7) at x0=2, s=2
    assert np.array_equal(img6, expected)

    occ = np.zeros((g, g, g), dtype=np.uint8)
    occ[9, 2, 4] = 1
    img7 = D.render_view(occ, 7, g)
    expected = np.zeros((g, g))
    expected[5, 2] = 1.0 - 4.0 / 16.0  # (x0+s, y, s) = (9, 2, 4) at x0=5, s=4
    assert np.array_equal(img7, expected)


# the module docstring's ray table: voxel (x, y, z) visited at step s by
# the ray through pixel cell (a, b), per direction
DOC_RAYS = [
    lambda s, a, b, g: (s, a, b),
    lambda s, a, b, g: (g - 1 - s, a, b),
    lambda s, a, b, g: (a, s, b),
    lambda s, a, b, g: (a, g - 1 - s, b),
    lambda s, a, b, g: (a, b, s),
    lambda s, a, b, g: (a, b, g - 1 - s),
    lambda s, a, b, g: (a + s, s, b),
    lambda s, a, b, g: (a + s, b, s),
]


def _march_per_ray(occ, side):
    """Reference: march each ray one voxel at a time in Python."""
    g = occ.shape[0]
    cube = occ.tolist()
    depth = np.zeros((len(DOC_RAYS), g, g))  # per direction and pixel cell
    for d, ray in enumerate(DOC_RAYS):
        for a in range(g):
            for b in range(g):
                for s in range(g):
                    x, y, z = ray(s, a, b, g)
                    if x < g and y < g and z < g and cube[x][y][z]:
                        depth[d, a, b] = 1.0 - s / g
                        break
    views = np.zeros((len(DOC_RAYS), side, side))
    for i in range(side):
        for j in range(side):
            views[:, i, j] = depth[:, i * g // side, j * g // side]
    return views


@pytest.mark.parametrize("g,side", [(16, 16), (8, 12), (12, 8), (16, 32)])
def test_render_all_views_matches_per_ray_march(g, side):
    for index in range(50):
        _, occ = D.make_shape(5, index, g)
        assert D.render_all_views(occ, side).tobytes() == _march_per_ray(occ, side).tobytes()


def test_render_invalid_direction():
    for direction in (-1, 8):
        with pytest.raises(ContractError):
            D.render_view(np.zeros((4, 4, 4)), direction, 4)


def test_render_rejects_non_cube():
    occ = np.zeros((4, 4, 5), dtype=np.uint8)
    with pytest.raises(ContractError, match="cube"):
        D.render_view(occ, 0, 4)
    with pytest.raises(ContractError, match="cube"):
        D.render_all_views(occ, 4)


def test_nearer_voxel_wins():
    g = 8
    occ = np.zeros((g, g, g), dtype=np.uint8)
    occ[2, 3, 3] = 1
    occ[6, 3, 3] = 1
    img = D.render_view(occ, 0, g)
    assert img[3, 3] == 1.0 - 2.0 / 8.0


# ------------------------------------------------------------ generate/load

@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    meta = D.DatasetMeta(**SMALL)
    report = D.generate_dataset(meta, out)
    return out, meta, report


def test_generate_writes_both_splits(small_dataset):
    out, meta, report = small_dataset
    assert (out / "train.sfds").exists()
    assert (out / "test.sfds").exists()
    assert (out / "dataset_report.json").exists()
    assert set(report["paths"]) == {"train", "test"}


@pytest.mark.parametrize("writes", [1, 8, 11], ids=["in-train", "in-test", "at-report"])
def test_an_interrupted_generate_leaves_only_whole_files(tmp_path, disk_fills, writes):
    """Train takes 7 writes (header and 6 samples), test 4, the report 1.
    Each file stays as the earlier run left it until its new one is whole."""
    new_meta = D.DatasetMeta(**{**SMALL, "seed": 43})
    D.generate_dataset(new_meta, tmp_path / "new")
    new = {p.name: p.read_bytes() for p in (tmp_path / "new").iterdir()}
    target = tmp_path / "target"
    D.generate_dataset(D.DatasetMeta(**SMALL), target)
    old = {p.name: p.read_bytes() for p in target.iterdir()}
    disk_fills(writes)
    with pytest.raises(OSError, match="No space"):
        D.generate_dataset(new_meta, target)
    got = {p.name: p.read_bytes() for p in target.iterdir()}
    assert got.keys() == old.keys()
    done = {"train.sfds": writes >= 7, "test.sfds": writes >= 11, "dataset_report.json": False}
    assert got == {name: (new if done[name] else old)[name] for name in old}


def test_generate_is_byte_deterministic(small_dataset, tmp_path):
    out, meta, _ = small_dataset
    D.generate_dataset(D.DatasetMeta(**SMALL), tmp_path)
    for split in ("train", "test"):
        assert (tmp_path / f"{split}.sfds").read_bytes() == (out / f"{split}.sfds").read_bytes()


def test_roundtrip_and_split_disjointness(small_dataset):
    out, meta, _ = small_dataset
    train, tmeta = D.load_dataset(out / "train.sfds")
    test, smeta = D.load_dataset(out / "test.sfds")
    assert tmeta.split == "train" and smeta.split == "test"
    assert len(train) == meta.train_count and len(test) == meta.test_count
    train_ids = {s.sample_id for s in train}
    test_ids = {s.sample_id for s in test}
    assert train_ids & test_ids == set()
    # stored grids regenerate exactly
    for s in train[:3]:
        _, occ = D.make_shape(meta.seed, s.sample_id, meta.grid_side)
        assert np.array_equal(occ.reshape(-1), s.gt)


def test_rerender_from_loaded_grid_matches_stored_views(small_dataset):
    out, meta, _ = small_dataset
    samples, _ = D.load_dataset(out / "test.sfds")
    for s in samples:
        occ = s.gt.reshape(meta.grid_side, meta.grid_side, meta.grid_side)
        assert np.array_equal(D.render_all_views(occ, meta.image_side), s.views)


def test_generated_bytes_match_golden_digest(tmp_path):
    """Pins every byte the generator writes for one small meta. Digests
    recorded with numpy 2.4.6; a change to the shapes, the renderer or the
    format changes them and must regenerate them on purpose."""
    D.generate_dataset(D.DatasetMeta(train_count=24, test_count=8, seed=3), tmp_path)
    digests = {split: hashlib.sha256((tmp_path / f"{split}.sfds").read_bytes()).hexdigest()
               for split in ("train", "test")}
    assert digests == {
        "train": "c33083cf97d523b1c5eba00418777ddbf4b0c0802878ff5362ad97f806ec9721",
        "test": "504f8a7153afeb88b9a948646ce372483b9f171da0d5df7ebee9fbdf1ee57f83",
    }


def test_default_meta_is_08_02_split():
    meta = D.DatasetMeta()
    assert meta.train_count == 2000 and meta.test_count == 500
    assert meta.train_count / (meta.train_count + meta.test_count) == 0.8


def test_load_rejects_bad_magic(small_dataset, tmp_path):
    out, _, _ = small_dataset
    blob = bytearray((out / "train.sfds").read_bytes())
    blob[0] ^= 0xFF
    bad = tmp_path / "bad.sfds"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        D.load_dataset(bad)


def test_load_rejects_version_mismatch(small_dataset, tmp_path):
    out, _, _ = small_dataset
    blob = bytearray((out / "train.sfds").read_bytes())
    blob[4:8] = (7).to_bytes(4, "little")
    bad = tmp_path / "ver.sfds"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=r"version 7.*version 1"):
        D.load_dataset(bad)


def test_load_rejects_a_view_count_other_than_eight(small_dataset, tmp_path):
    out, _, _ = small_dataset
    blob = (out / "train.sfds").read_bytes()
    samples, _ = D.load_dataset(out / "train.sfds")
    body = b"".join(D._sample_bytes(s.sample_id, s.gt, s.views[:3]) for s in samples)
    bad = tmp_path / "k3.sfds"
    bad.write_bytes(blob[:16] + (3).to_bytes(4, "little") + blob[20:48] + body)
    with pytest.raises(FormatError, match="view count 3") as exc:
        D.load_dataset(bad)
    assert exc.value.offset == 16


@pytest.mark.parametrize("g, side, offset", [(0, 0, 8), (1, 8, 8), (8, 0, 12)])
def test_load_rejects_header_sizes_below_the_meta_bounds(tmp_path, g, side, offset):
    meta = D.DatasetMeta(**{**SMALL, "train_count": 3, "grid_side": g, "image_side": side})
    body = b"".join(D._sample_bytes(i, np.zeros(g ** 3), np.zeros((D.VIEW_COUNT, side, side)))
                    for i in range(3))
    bad = tmp_path / "sizes.sfds"
    bad.write_bytes(D._header(meta, 0) + body)  # the length matches the header
    with pytest.raises(FormatError, match="side") as exc:
        D.load_dataset(bad)
    assert exc.value.offset == offset


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_generate_rejects_a_seed_outside_u64_before_writing(tmp_path, seed):
    with pytest.raises(ContractError, match="data.seed"):
        D.generate_dataset(D.DatasetMeta(**{**SMALL, "seed": seed}), tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_load_reports_truncation_offset(small_dataset, tmp_path):
    out, _, _ = small_dataset
    blob = (out / "train.sfds").read_bytes()
    bad = tmp_path / "cut.sfds"
    bad.write_bytes(blob[:-10])
    with pytest.raises(FormatError) as exc:
        D.load_dataset(bad)
    assert exc.value.offset is not None


def _record_size(meta):
    return 8 + meta.grid_side ** 3 + D.VIEW_COUNT * meta.image_side ** 2 * 8


def _load_patched(src, tmp_path, *patches):
    """Load ``src`` with each (offset, bytes) patch applied; return the
    FormatError it must raise."""
    blob = bytearray(src.read_bytes())
    for offset, data in patches:
        blob[offset : offset + len(data)] = data
    bad = tmp_path / "patched.sfds"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        D.load_dataset(bad)
    return exc.value


def test_load_rejects_wrong_sample_id(small_dataset, tmp_path):
    out, meta, _ = small_dataset
    rec = _record_size(meta)
    # train ids run from 0: sample 2 relabelled as id 1
    off = 48 + 2 * rec
    err = _load_patched(out / "train.sfds", tmp_path, (off, (1).to_bytes(8, "little")))
    assert err.offset == off and "expected 2" in str(err)
    # test ids continue from train_count: sample 0 relabelled as id 0
    err = _load_patched(out / "test.sfds", tmp_path, (48, (0).to_bytes(8, "little")))
    assert err.offset == 48 and f"expected {meta.train_count}" in str(err)


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, 1.5])
def test_load_rejects_bad_depth(small_dataset, tmp_path, value):
    out, meta, _ = small_dataset
    rec = _record_size(meta)
    off = 48 + rec + 8 + meta.grid_side ** 3 + 8 * 37  # sample 1, depth 37
    err = _load_patched(out / "train.sfds", tmp_path, (off, np.array([value], "<f8").tobytes()))
    assert err.offset == off and "[0, 1]" in str(err)


def test_load_reports_first_bad_field(small_dataset, tmp_path):
    out, meta, _ = small_dataset
    rec = _record_size(meta)
    wrong_id = (48 + 3 * rec, (9).to_bytes(8, "little"))  # sample 3
    bad_occupancy = (48 + rec + 8 + 5, b"\x02")  # sample 1
    err = _load_patched(out / "train.sfds", tmp_path, wrong_id, bad_occupancy)
    assert "occupancy" in str(err)
    assert err.offset == 48 + rec + 8  # the start of sample 1's gt block


def test_report_has_informativeness_probe(small_dataset):
    _, _, report = small_dataset
    assert "constant_predictor_iou" in report
    assert "single_view_nn_iou" in report
    assert "constant_predictor_threshold" in report


def test_report_ious_equal_a_per_pair_iou_loop(tmp_path):
    """The report's IoU figures, recounted one (pair, threshold) at a time
    with ``metrics.iou``: the constant predictor at the grid's smallest
    maximizer, the nearest neighbour at 0.5, means by ``np.mean``."""
    from setfusion.metrics import default_thresholds, iou

    report = D.generate_dataset(D.DatasetMeta(train_count=30, test_count=12, grid_side=8,
                                              image_side=8, seed=7), tmp_path)
    train, _ = D.load_dataset(tmp_path / "train.sfds")
    test, _ = D.load_dataset(tmp_path / "test.sfds")
    train_gt = np.stack([s.gt for s in train]).astype(np.float64)
    freq = train_gt.mean(axis=0)
    best_p, best = None, -1.0
    for p in default_thresholds():
        mean = float(np.mean([iou(freq, s.gt, p) for s in test]))
        if mean > best:
            best_p, best = p, mean
    assert report["constant_predictor_threshold"] == best_p
    assert report["constant_predictor_iou"] == best

    train_v = np.stack([s.views[0].reshape(-1) for s in train])
    nn_iou = []
    for s in test:
        j = int(((train_v - s.views[0].reshape(-1)) ** 2).sum(axis=1).argmin())
        nn_iou.append(iou(train_gt[j], s.gt, 0.5))
    assert report["single_view_nn_iou"] == float(np.mean(nn_iou))


def test_load_fuzz_raises_only_format_error(small_dataset, tmp_path):
    """Seeded single-byte flips either load or raise FormatError; every
    strict prefix of the file raises FormatError."""
    out, _, _ = small_dataset
    blob = (out / "test.sfds").read_bytes()
    bad = tmp_path / "bad.sfds"
    rng = np.random.default_rng(1236)
    for off, mask in zip(rng.integers(0, len(blob), 3000), rng.integers(1, 256, 3000)):
        flipped = bytearray(blob)
        flipped[off] ^= mask
        bad.write_bytes(bytes(flipped))
        try:
            D.load_dataset(bad)
        except FormatError:
            pass
    for length in range(len(blob)):
        bad.write_bytes(blob[:length])
        with pytest.raises(FormatError):
            D.load_dataset(bad)
