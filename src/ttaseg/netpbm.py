"""Binary PGM (P5) and PPM (P6) readers/writers, 8-bit, maxval 255 only.

Intensities map to bytes via round-half-up of v*255 and back via v/255,
so writing a freshly read canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

FIELD_DIGITS = 18  # a header field's most digits, more than any size needs; a longer token is cut, not read whole


def _read_token(stream: io.BufferedReader, path) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comments; at most FIELD_DIGITS + 1 bytes."""
    tok = b""
    while len(tok) <= FIELD_DIGITS:
        ch = stream.read(1)
        if not ch:
            raise ValueError(f"netpbm: truncated header in {path}")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = stream.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch
    return tok


def _header_field(stream: io.BufferedReader, name: str, path) -> int:
    """The next header token as a positive decimal integer of at most FIELD_DIGITS digits."""
    token = _read_token(stream, path)
    if not (token.isdigit() and len(token) <= FIELD_DIGITS) or int(token) <= 0:
        raise ValueError(f"netpbm: {name} must be a positive integer of at most {FIELD_DIGITS} digits, "
                         f"got {token.decode(errors='replace')!r} in {path}")
    return int(token)


def read_pnm(path) -> np.ndarray:
    """Read a P5/P6 file into float64 in [0, 1]: (H, W) gray or (3, H, W) color."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic not in (b"P5", b"P6"):
            raise ValueError(f"netpbm: bad magic {magic!r} in {path}")
        width = _header_field(f, "width", path)
        height = _header_field(f, "height", path)
        maxval = _header_field(f, "maxval", path)
        if maxval != 255:
            raise ValueError(f"netpbm: only maxval 255 supported, got {maxval} in {path}")
        channels = 1 if magic == b"P5" else 3
        size = width * height * channels
        if os.fstat(f.fileno()).st_size - f.tell() < size:
            raise ValueError(f"netpbm: truncated payload in {path}")
        payload = f.read(size)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return decode(np.frombuffer(payload, dtype=np.uint8).reshape(shape))


def decode(payload: np.ndarray) -> np.ndarray:
    """8-bit samples in file order, (H, W) or (H, W, 3), as ``read_pnm``
    returns them: fresh float64 in [0, 1], (H, W) gray or a (3, H, W) view
    of colour."""
    arr = payload.astype(np.float64) / 255.0
    return arr if arr.ndim == 2 else arr.transpose(2, 0, 1)


def encode(image: np.ndarray) -> np.ndarray:
    """The 8-bit samples in file order of an (H, W) or (3, H, W) float
    image; ``decode`` inverts it on every value ``read_pnm`` returns."""
    values = image if image.ndim == 2 else image.transpose(1, 2, 0)
    # round half up, e.g. 0.5 -> 128
    return np.clip(np.floor(values * 255.0 + 0.5), 0, 255).astype(np.uint8, order="C")


def write_pgm(path, image: np.ndarray):
    """Write a gray image; floats in [0, 1] or booleans (mask as 0/255)."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"write_pgm: expected HxW, got shape {image.shape}")
    data = (image.astype(np.uint8) * 255) if image.dtype == bool else encode(image.astype(np.float64))
    h, w = image.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + data.tobytes())


def write_ppm(path, image: np.ndarray):
    """Write a color image given as (3, H, W) floats in [0, 1]."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"write_ppm: expected 3xHxW, got shape {image.shape}")
    data = encode(image)
    h, w = image.shape[1:]
    Path(path).write_bytes(b"P6\n%d %d\n255\n" % (w, h) + data.tobytes())


def write_image(path, image: np.ndarray):
    if np.asarray(image).ndim == 2:
        write_pgm(path, image)
    else:
        write_ppm(path, image)
