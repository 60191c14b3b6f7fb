import numpy as np
import pytest

from setfusion import model as M
from setfusion.errors import ContractError, FormatError, ShapeError
from setfusion.tensor import Tensor

TINY = dict(image_side=4, latent_dim=8, encoder_hidden=12, decoder_hidden=10, grid_side=4)


def tiny_cfg(**overrides):
    kw = {**TINY, **overrides}
    return M.ModelConfig(**kw)


def rand_views(rng, count, side=4):
    return [rng.uniform(0, 1, size=(side, side)) for _ in range(count)]


# -------------------------------------------------------------- model_init

def test_init_deterministic():
    a = M.model_init(tiny_cfg(seed=5))
    b = M.model_init(tiny_cfg(seed=5))
    assert a.checksum() == b.checksum()
    c = M.model_init(tiny_cfg(seed=6))
    assert a.checksum() != c.checksum()


def test_init_pooling_has_empty_att_group():
    params = M.model_init(tiny_cfg(aggregator_kind="mean"))
    assert params.att == {}


def test_init_attention_att_group_is_one_matrix():
    params = M.model_init(tiny_cfg(aggregator_kind="attsets_fc"))
    assert list(params.att) == ["att_W"]
    assert params.att["att_W"].shape == (8, 8)


def test_partition_is_total_and_disjoint():
    params = M.model_init(tiny_cfg(aggregator_kind="gru"))
    base_names = set(params.base)
    att_names = set(params.att)
    assert base_names & att_names == set()
    all_names = {n for n, _, _ in params.named("all")}
    assert all_names == base_names | att_names


def test_bundle_rejects_overlapping_names():
    t = Tensor(np.zeros((1, 1)), requires_grad=True)
    with pytest.raises(ContractError):
        M.ParamBundle(base={"w": t}, att={"w": t})


# ------------------------------------------------------------ encode/decode

def test_encode_zero_image_zero_bias_gives_zero_latent():
    params = M.model_init(tiny_cfg())
    lat = M.encode_batch(Tensor(np.zeros((1, 16))), params)
    assert np.array_equal(lat.data, np.zeros((1, 8)))


def test_encode_is_pure():
    rng = np.random.default_rng(0)
    params = M.model_init(tiny_cfg())
    img = Tensor(rng.uniform(0, 1, (1, 16)))
    assert np.array_equal(M.encode_batch(img, params).data, M.encode_batch(img, params).data)


def test_encode_distinct_images_differ():
    rng = np.random.default_rng(1)
    params = M.model_init(tiny_cfg())
    a = M.encode_batch(Tensor(rng.uniform(0, 1, (1, 16))), params).data
    b = M.encode_batch(Tensor(rng.uniform(0, 1, (1, 16))), params).data
    assert not np.array_equal(a, b)


def test_encode_rejects_wrong_side():
    params = M.model_init(tiny_cfg())
    with pytest.raises(ShapeError):
        M.predict([np.zeros((5, 5))], params)


def test_decode_zero_latent_zero_weights_gives_half():
    params = M.model_init(tiny_cfg())
    for name in ("dec_w1", "dec_b1", "dec_w2", "dec_b2"):
        params.base[name] = Tensor(np.zeros_like(params.base[name].data), requires_grad=True)
    probs = M.decode_batch(Tensor(np.zeros((1, 8))), params)
    assert np.array_equal(probs.data, np.full((1, 64), 0.5))


def test_decode_output_in_open_unit_interval():
    rng = np.random.default_rng(2)
    params = M.model_init(tiny_cfg())
    probs = M.decode_batch(Tensor(rng.standard_normal((1, 8)) * 5), params)
    assert ((probs.data > 0) & (probs.data < 1)).all()


def test_decode_is_pure():
    rng = np.random.default_rng(3)
    params = M.model_init(tiny_cfg())
    lat = Tensor(rng.standard_normal((1, 8)))
    assert np.array_equal(M.decode_batch(lat, params).data, M.decode_batch(lat, params).data)


def test_voxelgrid_validates_length():
    with pytest.raises(ShapeError):
        M.VoxelGrid(Tensor(np.full(63, 0.5)), 4)


# ----------------------------------------------------------------- predict

def test_predict_rejects_empty_and_overfull():
    params = M.model_init(tiny_cfg(max_views=2))
    with pytest.raises(ContractError):
        M.predict([], params)
    with pytest.raises(ContractError):
        M.predict(rand_views(np.random.default_rng(0), 3), params)


def test_predict_needs_a_model_config(tmp_path):
    path = tmp_path / "model.sfck"
    M.save_checkpoint(M.model_init(tiny_cfg()), path)
    with pytest.raises(ContractError, match="no model config"):
        M.predict(rand_views(np.random.default_rng(0), 1), M.load_checkpoint(path))


def test_predict_single_view_matches_mean_pool_given_same_base():
    rng = np.random.default_rng(4)
    att_model = M.model_init(tiny_cfg(aggregator_kind="attsets_fc", seed=9))
    mean_model = M.ParamBundle(base=att_model.base, att={},
                               cfg=tiny_cfg(aggregator_kind="mean", seed=9))
    view = rng.uniform(0, 1, (4, 4))
    ga, attn = M.predict([view], att_model)
    gm, no_attn = M.predict([view], mean_model)
    assert np.array_equal(ga.probs.data, gm.probs.data)
    assert attn is not None and no_attn is None


def test_predict_single_view_independent_of_att_weights():
    rng = np.random.default_rng(5)
    params = M.model_init(tiny_cfg(aggregator_kind="attsets_fc", seed=7))
    view = rng.uniform(0, 1, (4, 4))
    before = M.predict([view], params)[0].probs.data
    params.att["att_W"].data[:] = rng.standard_normal((8, 8))
    after = M.predict([view], params)[0].probs.data
    assert np.array_equal(before, after)


@pytest.mark.parametrize("kind", ["attsets_fc", "attsets_elem", "attsets_conv", "max", "mean", "sum"])
def test_predict_permutation_invariant_bit_exact(kind):
    rng = np.random.default_rng(6)
    params = M.model_init(tiny_cfg(aggregator_kind=kind, seed=3))
    if kind.startswith("attsets"):
        key = next(iter(params.att))
        params.att[key].data[:] = rng.standard_normal(params.att[key].shape) * 0.3
    views = rand_views(rng, 5)
    base = M.predict(views, params)[0].probs.data
    for _ in range(10):
        perm = rng.permutation(5)
        got = M.predict([views[i] for i in perm], params)[0].probs.data
        assert np.array_equal(got, base)


def test_predict_gru_depends_on_order():
    rng = np.random.default_rng(7)
    for seed in range(5):
        params = M.model_init(tiny_cfg(aggregator_kind="gru", seed=seed))
        views = rand_views(rng, 4)
        fwd = M.predict(views, params)[0].probs.data
        rev = M.predict(views[::-1], params)[0].probs.data
        if not np.array_equal(fwd, rev):
            return
    pytest.fail("no permutation-sensitive GRU output found across 5 seeds")


# -------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = M.model_init(tiny_cfg(aggregator_kind="attsets_fc", seed=11))
    path = tmp_path / "model.sfck"
    M.save_checkpoint(params, path)
    loaded = M.load_checkpoint(path, cfg=params.cfg)
    assert loaded.checksum() == params.checksum()
    for (n1, g1, t1), (n2, g2, t2) in zip(params.named(), loaded.named()):
        assert (n1, g1) == (n2, g2)
        assert np.array_equal(t1.data, t2.data)


def test_an_interrupted_save_leaves_the_earlier_checkpoint(tmp_path, disk_fills):
    path = tmp_path / "model.sfck"
    M.save_checkpoint(M.model_init(tiny_cfg(seed=11)), path)
    before = path.read_bytes()
    disk_fills(1)  # the magic and header go through, the first tensor does not
    with pytest.raises(OSError, match="No space"):
        M.save_checkpoint(M.model_init(tiny_cfg(seed=12)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.sfck"]


def test_checkpoint_roundtrip_gru(tmp_path):
    params = M.model_init(tiny_cfg(aggregator_kind="gru", seed=12))
    path = tmp_path / "model.sfck"
    M.save_checkpoint(params, path)
    assert M.load_checkpoint(path).checksum() == params.checksum()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.sfck"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        M.load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    params = M.model_init(tiny_cfg())
    path = tmp_path / "model.sfck"
    M.save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        M.load_checkpoint(path)


def _value_offsets(params) -> dict:
    """Byte offset of each tensor's values in ``save_checkpoint``'s layout."""
    offsets, off = {}, 12  # magic, version, tensor count
    for name, _, t in params.named():
        off += 4 + len(name.encode()) + 1 + 4 + 4 * t.data.ndim
        offsets[name] = off
        off += 8 * t.size
    return offsets


def test_checkpoint_truncation_reports_offset(tmp_path):
    params = M.model_init(tiny_cfg())
    path = tmp_path / "model.sfck"
    M.save_checkpoint(params, path)
    blob = path.read_bytes()
    cut = len(blob) // 2
    path.write_bytes(blob[:cut])
    # the cut falls inside a tensor's values, so the read of those fails
    name, start = max(((n, o) for n, o in _value_offsets(params).items() if o <= cut),
                      key=lambda r: r[1])
    assert cut < start + 8 * params.group("all")[name].size
    with pytest.raises(FormatError, match=f"values of {name}") as exc:
        M.load_checkpoint(path)
    assert exc.value.offset == start


def test_checkpoint_huge_extent_is_format_error_before_allocating(tmp_path):
    params = M.model_init(tiny_cfg())
    path = tmp_path / "model.sfck"
    M.save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    name, _, first = params.named()[0]
    values_off = _value_offsets(params)[name]
    assert values_off == 34  # after att_W's name, tag, rank and two extents
    extent_off = values_off - 4 * first.data.ndim
    blob[extent_off : extent_off + 4] = (2 ** 32 - 1).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"values of {name}") as exc:
        M.load_checkpoint(path)
    assert exc.value.offset == values_off


def test_checkpoint_non_utf8_name_reports_offset(tmp_path):
    params = M.model_init(tiny_cfg())
    path = tmp_path / "model.sfck"
    M.save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[17] ^= 0xFF  # second byte of the first tensor name, which starts at byte 16
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="UTF-8") as exc:
        M.load_checkpoint(path)
    assert exc.value.offset == 16


def test_checkpoint_repeated_name_reports_offset(tmp_path):
    cfg = tiny_cfg()
    params = M.model_init(cfg)
    path = tmp_path / "model.sfck"
    M.save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    count = int.from_bytes(blob[8:12], "little")
    blob[8:12] = (count + 1).to_bytes(4, "little")
    name_off = len(blob) + 4  # after the appended record's name length
    blob += (6).to_bytes(4, "little") + b"enc_b1" + bytes([0]) + (2).to_bytes(4, "little")
    blob += (1).to_bytes(4, "little") + (12).to_bytes(4, "little") + np.ones(12).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="enc_b1") as exc:
        M.load_checkpoint(path, cfg=cfg)
    assert exc.value.offset == name_off


def test_checkpoint_rank_beyond_numpy_reports_offset(tmp_path):
    params = M.model_init(tiny_cfg(aggregator_kind="gru", seed=12))
    path = tmp_path / "model.sfck"
    M.save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    rank_off = 16 + len(params.named()[0][0]) + 1  # after the first name and its group tag
    assert blob[rank_off : rank_off + 4] == (2).to_bytes(4, "little")
    blob[rank_off : rank_off + 4] = (85).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="rank 85") as exc:
        M.load_checkpoint(path)
    assert exc.value.offset == rank_off


def test_checkpoint_trailing_bytes_report_offset(tmp_path):
    path = tmp_path / "model.sfck"
    M.save_checkpoint(M.model_init(tiny_cfg()), path)
    blob = path.read_bytes()
    path.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing bytes") as exc:
        M.load_checkpoint(path)
    assert exc.value.offset == len(blob)


@pytest.mark.parametrize("corrupt", ["renamed", "regrouped"])
def test_checkpoint_not_matching_cfg_is_contract_error(tmp_path, corrupt):
    cfg = tiny_cfg(aggregator_kind="gru", seed=12)
    path = tmp_path / "model.sfck"
    M.save_checkpoint(M.model_init(cfg), path)
    blob = bytearray(path.read_bytes())
    name_off = blob.index(b"att_Wh")
    if corrupt == "renamed":
        blob[name_off] = 0x02  # att_Wh -> \x02tt_Wh, still valid UTF-8
    else:
        blob[name_off + len(b"att_Wh")] ^= 1  # group tag att -> base
    path.write_bytes(bytes(blob))
    M.load_checkpoint(path)  # without a cfg the file still parses
    with pytest.raises(ContractError, match="do not match the configured model"):
        M.load_checkpoint(path, cfg=cfg)


def test_checkpoint_fuzz_raises_only_format_error(tmp_path):
    """Seeded single-byte flips either load (a flipped value byte) or raise
    FormatError; every strict prefix of the file raises FormatError."""
    params = M.model_init(tiny_cfg(aggregator_kind="gru", seed=12))
    path = tmp_path / "model.sfck"
    M.save_checkpoint(params, path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.sfck"
    rng = np.random.default_rng(1236)
    for off, mask in zip(rng.integers(0, len(blob), 3000), rng.integers(1, 256, 3000)):
        flipped = bytearray(blob)
        flipped[off] ^= mask
        bad.write_bytes(bytes(flipped))
        try:
            M.load_checkpoint(bad)
        except FormatError:
            pass
    for length in range(len(blob)):
        bad.write_bytes(blob[:length])
        with pytest.raises(FormatError):
            M.load_checkpoint(bad)
