import struct
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG16, lora_param_names, mean
from fdcheck import assert_grads_close, numeric_grad
from ttaseg import sbct
from ttaseg.model import ModelConfig, SegModel, _header, load_checkpoint, save_checkpoint, tokens_to_grid
from ttaseg.synthdata import BoxPrompt
from ttaseg.tensor import Tensor, no_grad


def _image(config, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (3, config.image_size, config.image_size))


def _box(config):
    s = config.image_size
    return BoxPrompt(s * 0.25, s * 0.25, s * 0.75, s * 0.75)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(image_size=60)
    with pytest.raises(ValueError, match="attention_heads"):
        ModelConfig(embed_dim=30)


@pytest.mark.parametrize("field", ["image_size", "embed_dim", "attention_heads"])
@pytest.mark.parametrize("value", [0, -8])
def test_config_rejects_a_non_positive_size_by_name(field, value):
    with pytest.raises(ValueError, match=f"ModelConfig: {field} must be positive"):
        ModelConfig(**{field: value})


def test_config_fixes_the_depth_and_the_adapters():
    """The depth, the adapter rank and the adapted projections are constants,
    as the patch size is: they read, and passing one is a TypeError."""
    config = ModelConfig()
    assert [f.name for f in fields(config)] == ["image_size", "embed_dim", "attention_heads"]
    assert (config.encoder_blocks, config.lora_rank, config.lora_targets, config.patch_size) == (2, 4, "qv", 8)
    for name, value in [("encoder_blocks", 2), ("lora_rank", 4), ("lora_targets", "qv")]:
        with pytest.raises(TypeError, match=name):
            ModelConfig(**{name: value})


def test_encode_token_shape(model64):
    z = model64.encode(_image(model64.config))
    assert z.shape == (64, 32)


def test_encode_rejects_wrong_size(model64):
    with pytest.raises(ValueError, match="expected"):
        model64.encode(np.zeros((3, 32, 32)))


def test_channel_permutation_changes_embedding(model64):
    x = _image(model64.config)
    z = model64.encode(x).data
    z_perm = model64.encode(x[[1, 2, 0]]).data
    assert not np.allclose(z, z_perm)


def test_lora_zero_b_is_identity(model64):
    x = _image(model64.config)
    base = model64.encode(x).data
    adapted = model64.clone()
    adapted.attach_lora(seed=5)
    assert np.array_equal(adapted.encode(x).data, base)
    out_base = model64.forward(x, _box(model64.config))
    out_adapted = adapted.forward(x, _box(model64.config))
    assert np.array_equal(out_base.m_high.data, out_adapted.m_high.data)
    assert np.array_equal(out_base.s_iou.data, out_adapted.s_iou.data)


def test_lora_delta_has_bounded_rank(model64):
    model64.attach_lora(seed=1)
    a = model64.params["enc0.attn.q.lora_a"].data
    b = model64.params["enc0.attn.q.lora_b"].data
    b = b + np.random.default_rng(2).normal(size=b.shape)
    delta = b @ a
    assert np.linalg.matrix_rank(delta) <= model64.config.lora_rank


def test_lora_parameter_count(model64):
    model64.attach_lora(seed=0)
    names = lora_param_names(model64.config)
    count = sum(model64.params[n].data.size for n in names)
    cfg = model64.config
    d = cfg.embed_dim
    assert count == cfg.encoder_blocks * 2 * cfg.lora_rank * (d + d)


def test_lora_double_attach_rejected(model64):
    model64.attach_lora(seed=0)
    with pytest.raises(ValueError, match="already"):
        model64.attach_lora(seed=0)


def test_prompt_encoding_deterministic_and_box_sensitive(model64):
    s = model64.config.image_size
    full = BoxPrompt(0.0, 0.0, float(s), float(s))
    quarter = BoxPrompt(0.0, 0.0, s / 2, s / 2)
    e1 = model64.encode_prompt(full).data
    e2 = model64.encode_prompt(full).data
    e3 = model64.encode_prompt(quarter).data
    assert np.array_equal(e1, e2)
    assert not np.allclose(e1, e3)
    assert e1.shape == (1, model64.config.embed_dim)


def test_prompt_rejects_out_of_bounds(model64):
    with pytest.raises(ValueError, match="exceeds"):
        model64.encode_prompt(BoxPrompt(0.0, 0.0, 65.0, 10.0))


def test_decode_outputs(model64):
    out = model64.forward(_image(model64.config), _box(model64.config))
    assert 0.0 < float(out.s_iou.data) < 1.0
    assert out.m_low.shape == (16, 16)
    assert out.m_high.shape == (64, 64)
    for t in (out.m_low, out.m_high, out.s_iou, out.z):
        assert np.all(np.isfinite(t.data))


def test_forward_bit_deterministic(model64):
    x = _image(model64.config)
    a = model64.forward(x, _box(model64.config))
    b = model64.forward(x, _box(model64.config))
    assert np.array_equal(a.m_high.data, b.m_high.data)
    assert np.array_equal(a.s_iou.data, b.s_iou.data)


def test_clone_shares_no_storage(model64):
    model64.set_trainable(lambda n: n.startswith("prompt."))
    twin = model64.clone()
    for name in model64.params:
        assert twin.params[name].data is not model64.params[name].data
        assert not twin.params[name].requires_grad
    assert model64.params["prompt.freq"].requires_grad
    twin.params["pos_embed"].data[0, 0] += 1.0
    assert model64.params["pos_embed"].data[0, 0] != twin.params["pos_embed"].data[0, 0]


def test_gradient_reaches_curve_scalars_through_forward(model16):
    u = sbct.init_identity()
    x = np.random.default_rng(3).uniform(0, 1, (16, 16))
    out = model16.forward(sbct.transform_gray(x, u), _box(model16.config))
    (1.0 - out.s_iou).backward()
    assert u.grad is not None
    assert np.linalg.norm(u.grad) > 0.0


def test_frozen_weights_receive_no_gradient(model16):
    model16.attach_lora(seed=2)
    model16.set_trainable(lambda n: ".lora_" in n or n.startswith("prompt."))
    out = model16.forward(_image(model16.config, 4), _box(model16.config))
    out.m_high.sum().backward()
    for name, p in model16.params.items():
        if p.requires_grad:
            assert p.grad is not None, name
        else:
            assert p.grad is None, name


def test_trainable_enumeration(model64):
    model64.attach_lora(seed=0)
    model64.set_trainable(lambda n: ".lora_" in n or n.startswith("prompt."))
    names = set(model64.trainable())
    assert all((".lora_" in n) or n.startswith("prompt.") for n in names)
    assert len([n for n in names if ".lora_" in n]) == 8  # 2 blocks x q,v x A,B


def test_tokens_to_grid_layout():
    z = Tensor(np.arange(8.0).reshape(4, 2))
    grid = tokens_to_grid(z)
    assert grid.shape == (2, 2, 2)
    assert grid.data[0].tolist() == [[0.0, 2.0], [4.0, 6.0]]
    with pytest.raises(ValueError, match="square"):
        tokens_to_grid(Tensor(np.zeros((3, 2))))


def test_no_grad_forward_builds_no_graph(model64):
    model64.set_trainable(lambda n: True)
    with no_grad():
        out = model64.forward(_image(model64.config), _box(model64.config))
    assert not out.m_high.requires_grad


# -- checkpoint io -------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(model64, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model64, path)
    loaded = load_checkpoint(path)
    x = _image(model64.config)
    a = model64.forward(x, _box(model64.config))
    b = loaded.forward(x, _box(model64.config))
    assert np.array_equal(a.m_high.data, b.m_high.data)
    assert np.array_equal(a.m_low.data, b.m_low.data)
    assert np.array_equal(a.s_iou.data, b.s_iou.data)
    for name in model64.params:
        assert np.array_equal(model64.params[name].data, loaded.params[name].data)


def test_checkpoint_roundtrip_with_lora(model16, tmp_path):
    model16.attach_lora(seed=9)
    model16.params["enc0.attn.q.lora_b"].data[:] = 0.5
    path = tmp_path / "m.ckpt"
    save_checkpoint(model16, path)
    loaded = load_checkpoint(path)
    assert loaded.has_lora
    assert np.array_equal(loaded.params["enc0.attn.q.lora_b"].data,
                          model16.params["enc0.attn.q.lora_b"].data)


def test_checkpoint_rejects_corrupt_magic(model16, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model16, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_shape_naming_tensor(model16, tmp_path):
    path = tmp_path / "m.ckpt"
    bad = model16.clone()
    bad.params["pos_embed"] = Tensor(np.zeros((2, 2)))
    save_checkpoint(bad, path)
    with pytest.raises(ValueError, match="pos_embed"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(model16, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model16, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation_in_every_section(model16, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model16, path)
    blob = path.read_bytes()
    # every cut through the magic, version, header, tensor count and the
    # first tensor's name, rank and dims, one into its payload, and one in
    # the last tensor's payload
    first = sorted(model16.params)[0]
    first_payload = blob.index(first.encode()) + len(first) + 4 + 4 * model16.params[first].data.ndim
    for n in [*range(first_payload + 2), len(blob) - 1]:
        path.write_bytes(blob[:n])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)


def test_checkpoint_rejects_unsupported_version(model16, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model16, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unsupported version 2"):
        load_checkpoint(path)


@pytest.mark.parametrize("drop, add, message", [
    ("lowres_size", {}, r"missing \['lowres_size'\], unexpected \[\]"),
    ("has_lora", {}, r"missing \['has_lora'\]"),
    (None, {"dropout": 1}, r"missing \[\], unexpected \['dropout'\]"),
], ids=["missing", "missing-has-lora", "extra"])
def test_checkpoint_rejects_missing_or_extra_header_field(model16, tmp_path, drop, add, message):
    header = {k: v for k, v in _header(model16.config, False).items() if k != drop}
    header.update(add)
    path = tmp_path / "m.ckpt"
    path.write_bytes(_hand_built_checkpoint(model16, sorted(header.items())))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def _hand_built_checkpoint(model, header_items, names=None) -> bytes:
    """Checkpoint bytes with the header records exactly as given, then the
    model's tensors ``names`` (all, sorted, by default) in that order."""
    names = sorted(model.params) if names is None else names
    out = [b"TTAF", struct.pack("<I", 1), struct.pack("<I", len(header_items))]
    for name, value in header_items:
        out.append(struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", value))
    out.append(struct.pack("<I", len(names)))
    for name in names:
        data = model.params[name].data
        out.append(struct.pack("<I", len(name)) + name.encode())
        out.append(struct.pack("<I", data.ndim) + struct.pack(f"<{data.ndim}I", *data.shape))
        out.append(data.astype("<f8").tobytes())
    return b"".join(out)


def test_checkpoint_rejects_duplicated_header_field(model16, tmp_path):
    header = sorted(_header(model16.config, False).items())
    path = tmp_path / "m.ckpt"
    save_checkpoint(model16, path)
    assert _hand_built_checkpoint(model16, header) == path.read_bytes()
    path.write_bytes(_hand_built_checkpoint(model16, header + [("image_size", 16)]))
    with pytest.raises(ValueError, match="header field 'image_size' stored twice"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_zero_size_in_the_header_by_name(model16, tmp_path):
    header = dict(_header(model16.config, False), embed_dim=0)
    path = tmp_path / "m.ckpt"
    path.write_bytes(_hand_built_checkpoint(model16, sorted(header.items())))
    with pytest.raises(ValueError) as excinfo:
        load_checkpoint(path)
    assert str(excinfo.value) == f"checkpoint {path}: ModelConfig: embed_dim must be positive"


@pytest.mark.parametrize("field, value, expected", [
    ("patch_size", 0, 8), ("lowres_size", 0, 4), ("highres_size", 0, 16), ("lowres_size", 8, 4), ("has_lora", 7, 1),
])
def test_checkpoint_rejects_a_header_field_its_config_does_not_give(model16, tmp_path, field, value, expected):
    """The stored header must be the one its own config rebuilds: a derived
    size that does not fit, or a has_lora that is not 0 or 1, is rejected."""
    model16.attach_lora(seed=2)
    header = dict(_header(model16.config, True), **{field: value})
    path = tmp_path / "m.ckpt"
    path.write_bytes(_hand_built_checkpoint(model16, sorted(header.items())))
    with pytest.raises(ValueError) as excinfo:
        load_checkpoint(path)
    assert str(excinfo.value) == f"checkpoint {path}: header field {field!r} stores {value}, expected {expected}"


def test_checkpoint_rejects_a_tensor_stored_twice(model16, tmp_path):
    header = sorted(_header(model16.config, False).items())
    names = sorted(model16.params)
    path = tmp_path / "m.ckpt"
    path.write_bytes(_hand_built_checkpoint(model16, header, names + ["dec.attn.k.b"]))
    with pytest.raises(ValueError, match=r"checkpoint .*m\.ckpt: tensor 'dec.attn.k.b' stored twice"):
        load_checkpoint(path)


def test_checkpoint_rejects_bytes_after_the_last_tensor(model16, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model16, path)
    path.write_bytes(path.read_bytes() + bytes(7))
    with pytest.raises(ValueError, match=r"checkpoint .*m\.ckpt: 7 bytes after the last tensor"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_name_that_is_not_utf8_by_path(model16, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model16, path)
    blob = bytearray(path.read_bytes())
    at = blob.index(b"dec.attn")
    blob[at] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as excinfo:
        load_checkpoint(path)
    assert str(excinfo.value) == f"checkpoint {path}: the 12-byte name at offset {at} is not UTF-8"


def _record_span(model, blob: bytes, name: str) -> range:
    """The byte offsets of tensor ``name``'s record in a saved checkpoint."""
    start = blob.index(struct.pack("<I", len(name)) + name.encode())
    data = model.params[name].data
    return range(start, start + 4 + len(name) + 4 + 4 * data.ndim + 8 * data.size)


def _overwrite_sweep(model, tmp_path, offsets) -> int:
    """Save ``model``, then set each byte at ``offsets`` to 0x00 and then to
    0xff: the file must either load and save back to the same bytes, or be
    rejected with a ValueError that names it. Returns how many loaded."""
    path, resaved = tmp_path / "m.ckpt", tmp_path / "resaved.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    loaded_count = 0
    for at in offsets(blob):
        for byte in (0x00, 0xFF):
            changed = blob[:at] + bytes([byte]) + blob[at + 1:]
            path.write_bytes(changed)
            try:
                loaded = load_checkpoint(path)
            except ValueError as exc:
                assert str(path) in str(exc), (at, byte, str(exc))
                continue
            save_checkpoint(loaded, resaved)
            assert resaved.read_bytes() == changed, (at, byte)
            loaded_count += 1
    return loaded_count


def test_checkpoint_byte_overwrites_load_identically_or_fail_naming_the_path(model16, tmp_path):
    """Each byte of the header and the first tensor record, set to 0x00 and
    then to 0xff: the file either loads and saves back to the same bytes, or
    is rejected with a ValueError that names it."""
    first = sorted(model16.params)[0]
    loaded_count = _overwrite_sweep(model16, tmp_path, lambda blob: range(_record_span(model16, blob, first).stop))
    # every payload overwrite loads; some header byte overwrites are no change
    assert loaded_count >= 2 * 8 * model16.params[first].data.size


def test_lora_checkpoint_byte_overwrites_load_identically_or_fail_naming_the_path(model16, tmp_path):
    """The sweep above on an adapted checkpoint, whose header stores
    has_lora = 1 and whose LoRA tensors only that header admits: each byte
    of the header and of the first LoRA tensor record."""
    model16.attach_lora(seed=5)
    names = sorted(model16.params)
    lora = next(name for name in names if ".lora_" in name)

    def offsets(blob):
        return [*range(_record_span(model16, blob, names[0]).start), *_record_span(model16, blob, lora)]

    loaded_count = _overwrite_sweep(model16, tmp_path, offsets)
    assert loaded_count >= 2 * 8 * model16.params[lora].data.size


@given(lora=st.booleans(),
       values=st.dictionaries(st.sampled_from(sorted(_header(CONFIG16, False))),
                              st.sampled_from([0, 1, 2**31, 2**32 - 1]), max_size=3),
       overwrites=st.lists(st.tuples(st.one_of(st.integers(0, 300), st.integers(0, 10**6)), st.integers(0, 255)),
                           max_size=3))
@settings(max_examples=200, deadline=None)
def test_a_mangled_checkpoint_loads_identically_or_fails_naming_the_path(lora, values, overwrites):
    """A CONFIG16 checkpoint, base or adapted, with header fields set to 0, 1,
    2**31 or 2**32 - 1 and bytes overwritten anywhere (most often in the
    header): it loads and saves back to the same bytes, or raises a
    ValueError that names it, and never holds much more than its size."""
    model = SegModel.build(CONFIG16, seed=3)
    if lora:
        model.attach_lora(seed=5)
    header = dict(_header(CONFIG16, lora), **values)
    blob = bytearray(_hand_built_checkpoint(model, sorted(header.items())))
    for position, value in overwrites:
        blob[position % len(blob)] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, resaved = Path(tmp) / "m.ckpt", Path(tmp) / "resaved.ckpt"
        path.write_bytes(blob)
        loaded = None
        tracemalloc.start()
        try:
            try:
                loaded = load_checkpoint(path)
            except ValueError as exc:
                assert str(path) in str(exc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if loaded is not None:
            save_checkpoint(loaded, resaved)
            assert resaved.read_bytes() == blob
    assert peak < 16 * len(blob) + 2**16


def test_checkpoint_loads_without_drawing_random_numbers(model16, tmp_path, monkeypatch):
    base, adapted = tmp_path / "base.ckpt", tmp_path / "adapted.ckpt"
    save_checkpoint(model16, base)
    model16.attach_lora(seed=3)
    save_checkpoint(model16, adapted)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for path in (base, adapted):
        loaded = load_checkpoint(path)
        assert list(loaded.params) == [name for name in model16.params if path == adapted or ".lora_" not in name]
        for name, p in loaded.params.items():
            assert np.array_equal(p.data, model16.params[name].data)


def test_header_only_checkpoint_of_a_large_model_allocates_little(model16, tmp_path):
    """The header alone sizes nothing: a file that claims a 2048-pixel model
    and stores no tensor is rejected before any weight is allocated, and one
    that claims 4,294,967,295 encoder blocks is rejected by its header."""
    path = tmp_path / "m.ckpt"
    for header, message in [
        (_header(replace(model16.config, image_size=2048), False), "truncated, 0 bytes left cannot hold 90 tensors"),
        (dict(_header(model16.config, False), encoder_blocks=2**32 - 1),
         "header field 'encoder_blocks' stores 4294967295, expected 2"),
    ]:
        path.write_bytes(_hand_built_checkpoint(model16, sorted(header.items()), names=[]))
        assert path.stat().st_size == 206
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as excinfo:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == f"checkpoint {path}: {message}"
        assert peak < 2**20


@pytest.mark.parametrize("mask", [0, 16, 69], ids=["0", "16", "69"])
def test_checkpoint_rejects_lora_targets_outside_bitmask(model16, tmp_path, mask):
    header = dict(_header(model16.config, False), lora_targets=mask)
    path = tmp_path / "m.ckpt"
    path.write_bytes(_hand_built_checkpoint(model16, sorted(header.items())))
    with pytest.raises(ValueError) as excinfo:
        load_checkpoint(path)
    assert str(excinfo.value) == f"checkpoint {path}: header field 'lora_targets' stores {mask}, expected 5"


@pytest.mark.parametrize("field, value, expected", [
    ("encoder_blocks", 0, 2), ("encoder_blocks", 3, 2), ("lora_rank", 1, 4), ("lora_rank", 8, 4),
])
def test_checkpoint_rejects_another_depth_or_rank_by_name(model16, tmp_path, field, value, expected):
    """The depth and the adapter rank are constants: a checkpoint that stores
    another is rejected by the header rule, with or without adapters."""
    for has_lora in (False, True):
        if has_lora:
            model16.attach_lora(seed=2)
        header = dict(_header(model16.config, has_lora), **{field: value})
        path = tmp_path / "m.ckpt"
        path.write_bytes(_hand_built_checkpoint(model16, sorted(header.items())))
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == f"checkpoint {path}: header field {field!r} stores {value}, expected {expected}"


def test_checkpoint_rejects_unknown_tensor(model16, tmp_path):
    path = tmp_path / "m.ckpt"
    bad = model16.clone()
    bad.params["enc0.attn.q.extra"] = Tensor(np.zeros(3))
    save_checkpoint(bad, path)
    with pytest.raises(ValueError, match="unexpected tensor 'enc0.attn.q.extra'"):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_tensor(model16, tmp_path):
    path = tmp_path / "m.ckpt"
    bad = model16.clone()
    del bad.params["dec.iou.b2"]
    save_checkpoint(bad, path)
    with pytest.raises(ValueError, match=r"missing tensors \['dec.iou.b2'\]"):
        load_checkpoint(path)


@given(grid=st.integers(1, 3), heads=st.sampled_from([1, 2, 4]), head_dim=st.integers(1, 4),
       lora=st.booleans(), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_checkpoint_save_load_save_bytes_identical(grid, heads, head_dim, lora, seed):
    config = ModelConfig(image_size=8 * grid, embed_dim=heads * head_dim, attention_heads=heads)
    model = SegModel.build(config, seed=seed)
    if lora:
        model.attach_lora(seed=seed)
        rng = np.random.default_rng(seed)
        for name in lora_param_names(config):
            model.params[name].data = rng.normal(size=model.params[name].shape)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
        save_checkpoint(model, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    assert loaded.config == config
    assert loaded.has_lora == lora


def test_config16_shapes(model16):
    out = model16.forward(_image(model16.config, 5), _box(model16.config))
    assert out.m_low.shape == (4, 4)
    assert out.m_high.shape == (16, 16)
    assert out.z.shape == (4, 8)


def test_full_path_gradcheck_small(model16):
    """End-to-end finite-difference check on a few scalars of every
    trainable family (the exhaustive sweep lives in the acceptance suite)."""
    rng = np.random.default_rng(0)
    model16.attach_lora(seed=1)
    for name in lora_param_names(model16.config):
        model16.params[name].data = 0.05 * rng.normal(size=model16.params[name].shape)
    model16.set_trainable(lambda n: ".lora_" in n or n.startswith("prompt."))
    u = sbct.init_identity()
    x = rng.uniform(0, 1, (16, 16))
    box = _box(model16.config)

    def loss_tensor():
        out = model16.forward(sbct.transform_gray(x, u), box)
        return (1.0 - out.s_iou) + mean(out.m_high.sigmoid())

    loss_tensor().backward()
    grads = {"sbct": u.grad.copy(),
             "lora": model16.params["enc0.attn.v.lora_a"].grad.copy(),
             "prompt": model16.params["prompt.freq"].grad.copy()}

    def f():
        return float(loss_tensor().data)

    assert_grads_close(grads["sbct"], numeric_grad(f, u), rtol=1e-4, atol=1e-7, label="sbct")
    assert_grads_close(grads["lora"], numeric_grad(f, model16.params["enc0.attn.v.lora_a"]),
                       rtol=1e-4, atol=1e-7, label="lora_a")
    assert_grads_close(grads["prompt"], numeric_grad(f, model16.params["prompt.freq"]),
                       rtol=1e-4, atol=1e-7, label="prompt.freq")
