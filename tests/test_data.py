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


def test_render_invalid_direction():
    with pytest.raises(ContractError):
        D.render_view(np.zeros((4, 4, 4)), 8, 4)


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


def test_load_reports_truncation_offset(small_dataset, tmp_path):
    out, _, _ = small_dataset
    blob = (out / "train.sfds").read_bytes()
    bad = tmp_path / "cut.sfds"
    bad.write_bytes(blob[:-10])
    with pytest.raises(FormatError) as exc:
        D.load_dataset(bad)
    assert exc.value.offset is not None


def test_report_has_informativeness_probe(small_dataset):
    _, _, report = small_dataset
    assert "constant_predictor_iou" in report
    assert "single_view_nn_iou" in report
    assert "constant_predictor_threshold" in report


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
