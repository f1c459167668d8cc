import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttaseg.netpbm import FIELD_DIGITS, decode, encode, read_pnm, write_pgm, write_ppm


def test_pgm_roundtrip_byte_identity(tmp_path):
    rng = np.random.default_rng(0)
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    write_pgm(first, rng.uniform(0, 1, (9, 13)))
    write_pgm(second, read_pnm(first))
    assert first.read_bytes() == second.read_bytes()


def test_ppm_roundtrip_byte_identity(tmp_path):
    rng = np.random.default_rng(1)
    first = tmp_path / "a.ppm"
    second = tmp_path / "b.ppm"
    write_ppm(first, rng.uniform(0, 1, (3, 5, 7)))
    write_ppm(second, read_pnm(first))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("shape", [(16, 16), (16, 16, 3)], ids=["gray", "colour"])
def test_encode_inverts_decode_on_every_byte(shape):
    """Every byte value, decoded as read_pnm decodes it and encoded again,
    comes back, C-ordered in file order: (H, W) or (H, W, 3)."""
    payload = np.resize(np.arange(256, dtype=np.uint8), shape)
    again = encode(decode(payload))
    assert again.dtype == np.uint8 and again.flags.c_contiguous
    assert np.array_equal(again, payload)


def test_all_zero_image_payload(tmp_path):
    path = tmp_path / "z.pgm"
    write_pgm(path, np.zeros((4, 4)))
    assert path.read_bytes().endswith(b"\n" + bytes(16))


def test_half_rounds_up_to_128(tmp_path):
    path = tmp_path / "h.pgm"
    write_pgm(path, np.full((1, 1), 0.5))
    assert path.read_bytes()[-1] == 128
    assert read_pnm(path)[0, 0] == 128 / 255


def test_bool_mask_encodes_as_0_255(tmp_path):
    path = tmp_path / "m.pgm"
    write_pgm(path, np.array([[True, False]]))
    assert path.read_bytes()[-2:] == bytes([255, 0])


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P3\n1 1\n255\n0")
    with pytest.raises(ValueError, match="magic"):
        read_pnm(path)


def test_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        read_pnm(path)


@pytest.mark.parametrize("field", ["width", "height", "maxval"])
@pytest.mark.parametrize("bad", ["ab", "0", "-2", "1" * (FIELD_DIGITS + 1), "9" * 5000],
                         ids=["non-numeric", "zero", "negative", "one-digit-too-many", "5000-digits"])
def test_rejects_bad_header_field_by_name(tmp_path, field, bad):
    header = {"width": "2", "height": "1", "maxval": "255"}
    header[field] = bad
    path = tmp_path / "bad.pgm"
    path.write_bytes(f"P5\n{header['width']} {header['height']}\n{header['maxval']}\n".encode() + bytes(2))
    with pytest.raises(ValueError, match=f"{field} must be a positive integer.*bad\\.pgm"):
        read_pnm(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_pnm(path)


def test_a_size_the_file_cannot_hold_is_rejected_before_reading(tmp_path):
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P5\n1000000 1000000\n255\n" + bytes(10))
    assert path.stat().st_size == 33
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as excinfo:
            read_pnm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == f"netpbm: truncated payload in {path}"
    assert peak < 2**20


def test_a_header_without_whitespace_is_not_read_whole(tmp_path):
    """A token is cut one byte past FIELD_DIGITS: 1 MiB of zero bytes after
    the magic fails at once, naming the file, not after a byte-by-byte read
    of the whole run."""
    path = tmp_path / "zeros.pgm"
    path.write_bytes(b"P5\n" + bytes(2**20))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="width must be a positive integer.*zeros\\.pgm"):
        read_pnm(path)
    assert time.perf_counter() - start < 1.0


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x10\x20")
    img = read_pnm(path)
    assert img.shape == (1, 2)
    assert np.allclose(img, [[16 / 255, 32 / 255]])


def test_color_read_shape_and_values(tmp_path):
    path = tmp_path / "c.ppm"
    write_ppm(path, np.stack([np.full((2, 2), 0.0), np.full((2, 2), 0.5), np.full((2, 2), 1.0)]))
    img = read_pnm(path)
    assert img.shape == (3, 2, 2)
    assert np.allclose(img[0], 0.0) and np.allclose(img[2], 1.0)


@pytest.mark.parametrize("head", [b"P5", b"P5\n64", b"P5\n64 6", b"P6\n# c"],
                         ids=["magic-only", "width-only", "no-maxval", "in-comment"])
def test_a_truncated_header_is_rejected_naming_the_file(tmp_path, head):
    path = tmp_path / "t.pgm"
    path.write_bytes(head)
    with pytest.raises(ValueError) as excinfo:
        read_pnm(path)
    assert str(excinfo.value) == f"netpbm: truncated header in {path}"


@pytest.mark.parametrize("write, image", [(write_pgm, np.linspace(0.0, 1.0, 6).reshape(2, 3)),
                                          (write_ppm, np.linspace(0.0, 1.0, 18).reshape(3, 2, 3))],
                         ids=["P5", "P6"])
def test_every_truncation_loads_or_fails_naming_the_file(tmp_path, write, image):
    whole = tmp_path / "whole.pnm"
    write(whole, image)
    blob = whole.read_bytes()
    path = tmp_path / "cut.pnm"
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(ValueError) as excinfo:
            read_pnm(path)
        assert str(path) in str(excinfo.value), end
    path.write_bytes(blob)
    assert np.array_equal(read_pnm(path), read_pnm(whole))


# what a header field may be replaced by: zero, a sign, non-digits, a size no
# file holds, maxvals other than 255, and more digits than int() parses
_FIELD_TOKENS = [b"0", b"-1", b"x", b"1a", b"+2", str(2**40).encode(), b"1", b"254", b"256", b"65535",
                 b"9" * 5000]
_SMALL_FILES = {  # magic, width, height, maxval, payload
    "P5": [b"P5", b"3", b"2", b"255", bytes(range(0, 60, 10))],
    "P6": [b"P6", b"2", b"2", b"255", bytes(range(0, 240, 20))],
}


@given(kind=st.sampled_from(sorted(_SMALL_FILES)),
       fields=st.dictionaries(st.integers(1, 3), st.sampled_from(_FIELD_TOKENS), max_size=3),
       overwrites=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4))
@settings(max_examples=300, deadline=None)
def test_a_mangled_file_loads_or_fails_naming_the_file(kind, fields, overwrites):
    """Header fields (width, height, maxval) replaced and bytes overwritten
    anywhere: the reader returns an image in [0, 1] or raises a ValueError
    that names the file, and never holds much more than the file's size."""
    parts = list(_SMALL_FILES[kind])
    for field, token in fields.items():
        parts[field] = token
    blob = bytearray(b"%s\n%s %s\n%s\n%s" % tuple(parts))
    for position, value in overwrites:
        blob[position % len(blob)] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"mangled.{kind}"
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            try:
                image = read_pnm(path)
            except ValueError as exc:
                assert str(path) in str(exc)
            else:
                assert image.dtype == np.float64 and 0.0 <= image.min() and image.max() <= 1.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 16 * len(blob) + 2**16
