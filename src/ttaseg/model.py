"""Miniature promptable segmenter: ViT-style encoder, box-prompt encoder,
mask decoder with coarse and fine heads, and an IoU self-estimate head.

The decoder turns each image token into a 2x2 block of a coarse feature
map (one quarter the image side), reads the low-resolution mask straight
off that map, and upsamples it twice with learned 2x expansion stages for
the high-resolution mask. LoRA adapters can be attached to the attention
projections after pretraining; with zero-initialized B they leave the
forward pass bit-identical.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from math import isqrt

import numpy as np

from .synthdata import BoxPrompt
from .tensor import (Tensor, as_tensor, attention, concat, gelu_from_tanh, gelu_slope, gelu_tanh, layer_norm, linear,
                     records)

PROMPT_FREQS = 8
_LORA_BITS = {"q": 1, "k": 2, "v": 4, "o": 8}


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 64
    embed_dim: int = 32
    attention_heads: int = 4

    # the decoder's three 2x stages take the token grid to the image side
    patch_size = 8
    # fixed, as nothing varies them; every checkpoint header still stores them
    encoder_blocks = 2
    lora_rank = 4
    lora_targets = "qv"

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"ModelConfig: {f.name} must be positive")
        if self.image_size % self.patch_size:
            raise ValueError(f"ModelConfig: image_size must be divisible by patch_size {self.patch_size}")
        if self.embed_dim % self.attention_heads:
            raise ValueError("ModelConfig: embed_dim must be divisible by attention_heads")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def lowres_size(self) -> int:
        return 2 * self.grid

    @property
    def highres_size(self) -> int:
        return self.image_size

    @property
    def tokens(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch_size * self.patch_size

    @property
    def mlp_hidden(self) -> int:
        return 2 * self.embed_dim

    @property
    def head_dims(self) -> tuple:
        d = self.embed_dim
        return (max(d // 2, 4), max(d // 4, 4), max(d // 4, 4))

    @property
    def iou_hidden(self) -> int:
        return max(self.embed_dim // 2, 4)


@dataclass
class SegOutputs:
    """One forward pass: coarse mask logits, fine mask logits, IoU
    self-estimate in (0, 1), and the encoder token embedding."""

    m_low: Tensor
    m_high: Tensor
    s_iou: Tensor
    z: Tensor


_UP_POS = ("00", "01", "10", "11")


def tensor_table(config: ModelConfig, lora: bool = False) -> list:
    """(name, shape, init) of every base tensor, or with ``lora`` of every
    adapter tensor, in the order of the RNG draws, so it fixes the weights of
    every seed. ``init`` is a normal's standard deviation, np.zeros or np.ones."""
    d, r, hidden = config.embed_dim, config.lora_rank, config.mlp_hidden
    if lora:
        return [row for i in range(config.encoder_blocks) for proj in config.lora_targets
                for row in ((f"enc{i}.attn.{proj}.lora_a", (r, d), 0.02),
                            (f"enc{i}.attn.{proj}.lora_b", (d, r), np.zeros))]
    rows = []

    def linear(prefix, out_dim, in_dim, tag=""):
        rows.extend([(f"{prefix}.w{tag}", (out_dim, in_dim), in_dim**-0.5),
                     (f"{prefix}.b{tag}", (out_dim,), np.zeros)])

    def mlp(prefix, in_dim, out_dim, hidden_dim):
        linear(prefix, hidden_dim, in_dim, "1")
        linear(prefix, out_dim, hidden_dim, "2")

    def ln(prefix):
        rows.extend([(f"{prefix}.g", (d,), np.ones), (f"{prefix}.b", (d,), np.zeros)])

    linear("patch_embed", d, config.patch_dim)
    rows.append(("pos_embed", (config.tokens, d), 0.02))
    for i in range(config.encoder_blocks):
        ln(f"enc{i}.ln1")
        for proj in "qkvo":
            linear(f"enc{i}.attn.{proj}", d, d)
        ln(f"enc{i}.ln2")
        mlp(f"enc{i}.mlp", d, d, hidden)
    ln("ln_f")

    rows.append(("prompt.freq", (PROMPT_FREQS, 4), 1.0))
    mlp("prompt.mlp", 2 * PROMPT_FREQS, d, hidden)

    for proj in "qkvo":
        linear(f"dec.attn.{proj}", d, d)
    mlp("dec.mlp", d, d, hidden)
    linear("dec.maskw", d, d)
    linear("dec.tok", d, d)

    d0, d1, d2 = config.head_dims
    for pos in _UP_POS:
        linear(f"dec.up0.{pos}", d0, d)
        linear(f"dec.up1.{pos}", d1, d0)
        linear(f"dec.up2.{pos}", d2, d1)
    linear("dec.lowhead", 1, d0)
    linear("dec.highhead", 1, d2)
    mlp("dec.iou", d, 1, config.iou_hidden)
    return rows


def _draw(rows: list, rng: np.random.Generator) -> dict:
    return {name: Tensor(rng.normal(0.0, init, shape) if isinstance(init, float) else init(shape))
            for name, shape, init in rows}


class SegModel:
    """Parameter container plus the forward computation."""

    def __init__(self, config: ModelConfig, params: dict):
        self.config = config
        self.params = params

    @classmethod
    def build(cls, config: ModelConfig, seed: int) -> "SegModel":
        return cls(config, _draw(tensor_table(config), np.random.default_rng([seed, 23])))

    def clone(self) -> "SegModel":
        """A copy with storage of its own and every tensor frozen."""
        return SegModel(self.config, {name: Tensor(p.data) for name, p in self.params.items()})

    @property
    def has_lora(self) -> bool:
        return any(name.endswith(".lora_a") for name in self.params)

    def attach_lora(self, seed: int):
        """Add rank-``lora_rank`` adapters on the ``lora_targets`` projections.

        A is small random, B is zero, so the adapted forward initially
        equals the base forward exactly.
        """
        if self.has_lora:
            raise ValueError("attach_lora: adapters already present")
        self.params.update(_draw(tensor_table(self.config, lora=True), np.random.default_rng([seed, 31])))

    def set_trainable(self, predicate):
        for name, p in self.params.items():
            p.requires_grad = bool(predicate(name))

    def trainable(self) -> dict:
        return {name: p for name, p in self.params.items() if p.requires_grad}

    # -- building blocks -------------------------------------------------

    def _linear(self, x: Tensor, prefix: str, tag: str = "") -> Tensor:
        """x @ W^T + b with the ``{prefix}.w{tag}``/``.b{tag}`` weights, plus
        the LoRA term when the layer carries adapters."""
        p = self.params
        a = p.get(f"{prefix}.lora_a")
        lora = None if a is None else (a, p[f"{prefix}.lora_b"])
        return linear(x, p[f"{prefix}.w{tag}"], p[f"{prefix}.b{tag}"], lora, 1.0 / self.config.lora_rank)

    def _layer_norm(self, x: Tensor, prefix: str) -> Tensor:
        return layer_norm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def _mlp(self, x: Tensor, prefix: str) -> Tensor:
        return self._linear(self._linear(x, prefix, "1").gelu(), prefix, "2")

    def _attention(self, q_in: Tensor, kv_in: Tensor, prefix: str) -> Tensor:
        q = self._linear(q_in, f"{prefix}.q")
        k = self._linear(kv_in, f"{prefix}.k")
        v = self._linear(kv_in, f"{prefix}.v")
        return self._linear(attention(q, k, v, self.config.attention_heads), f"{prefix}.o")

    def _upstage(self, f: Tensor, prefix: str) -> Tensor:
        """One node: each (hh, ww) cell becomes a 2x2 block of GELU(linear)
        outputs, one weight pair per block position, giving (2hh, 2ww, dout).

        The four projections stay four matmuls; stacking their weights into
        one matmul would change the bits. The GELU runs in place over the
        position-major pre-activations, which are then copied once into the
        output; a taped node keeps only the GELU slope for its backward. The
        backward replays the composed graph: each position's chain in reverse
        creation order (11, 10, 01, 00), so the input's gradient sums the
        positions in that order.
        """
        hh, ww, din = f.shape
        flat = f.data.reshape(hh * ww, din)
        layers = [(self.params[f"{prefix}.{pos}.w"], self.params[f"{prefix}.{pos}.b"]) for pos in _UP_POS]
        parents = (f,) + tuple(p for layer in layers for p in layer)
        dout = layers[0][1].shape[0]
        pre = np.empty((4, hh * ww, dout))
        for i, (w, b) in enumerate(layers):
            np.matmul(flat, w.data.transpose(), out=pre[i])
            pre[i] += b.data
        pre_ab = pre.reshape(2, 2, hh, ww, dout)
        t = gelu_tanh(pre_ab)
        slope = gelu_slope(pre_ab, t) if records(parents) else None
        gelu_from_tanh(pre_ab, t, out=pre_ab)
        del t  # freed before the output is allocated, to lower the peak
        out = np.empty((2 * hh, 2 * ww, dout))
        # position (a, b) of every 2x2 block, as a view of the output
        out.reshape(hh, 2, ww, 2, dout).transpose(1, 3, 0, 2, 4)[...] = pre_ab

        def bw(g):
            # written over the slope, which nothing reads again
            gpre_ab = np.multiply(g.reshape(hh, 2, ww, 2, dout).transpose(1, 3, 0, 2, 4), slope, out=slope)
            gflat = None
            for i in reversed(range(4)):
                w, b = layers[i]
                gpre = gpre_ab[i // 2, i % 2].reshape(hh * ww, dout)
                if b.requires_grad:
                    b._accum_owned(gpre.sum(axis=0))
                if f.requires_grad:
                    contribution = gpre @ w.data
                    if gflat is None:
                        gflat = contribution
                    else:
                        gflat += contribution
                if w.requires_grad:
                    w._accum_owned((flat.T @ gpre).transpose())
            if f.requires_grad:
                f._accum_owned(gflat.reshape(hh, ww, din))

        return Tensor._node(out, parents, bw, "upstage")

    # -- public forward ----------------------------------------------------

    def encode(self, image) -> Tensor:
        """Image (3, S, S) -> token embedding (tokens, embed_dim)."""
        x = as_tensor(image)
        s = self.config.image_size
        if x.shape != (3, s, s):
            raise ValueError(f"encode: expected (3, {s}, {s}), got {x.shape}")
        g, p = self.config.grid, self.config.patch_size
        patches = x.reshape(3, g, p, g, p).transpose(1, 3, 2, 4, 0).reshape(g * g, self.config.patch_dim)
        tok = self._linear(patches, "patch_embed") + self.params["pos_embed"]
        for i in range(self.config.encoder_blocks):
            y = self._layer_norm(tok, f"enc{i}.ln1")
            tok = tok + self._attention(y, y, f"enc{i}.attn")
            tok = tok + self._mlp(self._layer_norm(tok, f"enc{i}.ln2"), f"enc{i}.mlp")
        return self._layer_norm(tok, "ln_f")

    def encode_prompt(self, box: BoxPrompt) -> Tensor:
        """Box -> one prompt token (1, embed_dim) via Fourier features + MLP."""
        s = self.config.image_size
        coords = box.as_array()
        if coords.max() > s:
            raise ValueError(f"encode_prompt: box {coords} exceeds image bound {s}")
        if (box.x1 - box.x0) * (box.y1 - box.y0) <= 0:
            raise ValueError("encode_prompt: zero-area box")
        nb = Tensor((coords / s).reshape(1, 4))
        f = nb @ self.params["prompt.freq"].transpose() * (2.0 * np.pi)
        feats = concat([f.sin(), f.cos()], axis=1)
        return self._mlp(feats, "prompt.mlp")

    def decode(self, z: Tensor, e: Tensor) -> SegOutputs:
        d = self.config.embed_dim
        if z.shape != (self.config.tokens, d) or e.shape != (1, d):
            raise ValueError(f"decode: shape mismatch z={z.shape} e={e.shape} for config {self.config}")
        qp = e + self._attention(e, z, "dec.attn")
        qp = qp + self._mlp(qp, "dec.mlp")
        wm = self._linear(qp, "dec.maskw")
        gated = self._linear(z, "dec.tok") * wm
        g = self.config.grid
        f16 = self._upstage(gated.reshape(g, g, d), "dec.up0")
        low = self.config.lowres_size
        m_low = self._linear(f16.reshape(low * low, -1), "dec.lowhead").reshape(low, low)
        f32 = self._upstage(f16, "dec.up1")
        f64 = self._upstage(f32, "dec.up2")
        high = self.config.highres_size
        m_high = self._linear(f64.reshape(high * high, -1), "dec.highhead").reshape(high, high)
        s_iou = self._mlp(qp, "dec.iou").reshape(()).sigmoid()
        return SegOutputs(m_low=m_low, m_high=m_high, s_iou=s_iou, z=z)

    def forward(self, image, box: BoxPrompt) -> SegOutputs:
        return self.decode(self.encode(image), self.encode_prompt(box))


def tokens_to_grid(z: Tensor) -> Tensor:
    """Reshape (tokens, dim) embeddings to a (dim, g, g) spatial grid."""
    n, d = z.shape
    g = isqrt(n)
    if g * g != n:
        raise ValueError(f"tokens_to_grid: {n} tokens is not a square grid")
    return z.transpose(1, 0).reshape(d, g, g)


# -- checkpoint format ------------------------------------------------------
#
# magic "TTAF", u32 version, u32 field count, then (u32 name_len, name,
# u32 value) header fields sorted by name: the three ModelConfig fields, its
# constants encoder_blocks, lora_rank, lora_targets (a q=1 k=2 v=4 o=8 bitmask)
# and patch_size, the lowres and highres sizes, and has_lora.
# Then u32 tensor count, then per tensor sorted by name: u32 name_len, name,
# u32 rank, u32 dims..., little-endian f64 data.

MAGIC = b"TTAF"
VERSION = 1
_MIN_RECORD = 17  # bytes of a tensor with a one-byte name, rank 0 and one f64


def _header(config: ModelConfig, has_lora: bool) -> dict:
    """The header of a checkpoint of ``config``, with or without adapters."""
    names = [f.name for f in fields(ModelConfig)]
    names += ["encoder_blocks", "lora_rank", "patch_size", "lowres_size", "highres_size"]
    header = {name: getattr(config, name) for name in names}
    header["lora_targets"] = sum(_LORA_BITS[t] for t in config.lora_targets)
    header["has_lora"] = int(has_lora)
    return header


def save_checkpoint(model: SegModel, path):
    out = [MAGIC, struct.pack("<I", VERSION)]
    header = _header(model.config, model.has_lora)
    out.append(struct.pack("<I", len(header)))
    for name in sorted(header):
        enc = name.encode()
        out.append(struct.pack("<I", len(enc)) + enc + struct.pack("<I", header[name]))
    names = sorted(model.params)
    out.append(struct.pack("<I", len(names)))
    for name in names:
        data = model.params[name].data
        enc = name.encode()
        out.append(struct.pack("<I", len(enc)) + enc)
        out.append(struct.pack("<I", data.ndim) + struct.pack(f"<{data.ndim}I", *data.shape))
        out.append(data.astype("<f8").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(out))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ValueError(f"checkpoint {self.path}: truncated")
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def name(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode()
        except UnicodeDecodeError:
            raise ValueError(f"checkpoint {self.path}: the {len(raw)}-byte name at offset "
                             f"{self.pos - len(raw)} is not UTF-8") from None


def load_checkpoint(path) -> SegModel:
    """Rebuild a model. The header must be its config's header, and every
    stored tensor must match the config's tensor table exactly, and vice versa."""
    with open(path, "rb") as f:
        reader = _Reader(f.read(), path)
    if reader.take(4) != MAGIC:
        raise ValueError(f"checkpoint {path}: bad magic")
    version = reader.u32()
    if version != VERSION:
        raise ValueError(f"checkpoint {path}: unsupported version {version}")
    stored = {}
    for _ in range(reader.u32()):
        key = reader.name()
        if key in stored:
            raise ValueError(f"checkpoint {path}: header field {key!r} stored twice")
        stored[key] = reader.u32()
    names = _header(ModelConfig(), False).keys()
    if stored.keys() != names:
        raise ValueError(f"checkpoint {path}: header fields missing {sorted(names - stored.keys())}, "
                         f"unexpected {sorted(stored.keys() - names)}")
    try:
        config = ModelConfig(**{f.name: stored[f.name] for f in fields(ModelConfig)})
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    for key, value in sorted(_header(config, bool(stored["has_lora"])).items()):
        if stored[key] != value:
            raise ValueError(f"checkpoint {path}: header field {key!r} stores {stored[key]}, expected {value}")
    rows = tensor_table(config) + (tensor_table(config, lora=True) if stored["has_lora"] else [])
    expected = {name: shape for name, shape, _ in rows}
    count = reader.u32()
    claimed = max(count, len(expected))
    left = len(reader.blob) - reader.pos
    if claimed * _MIN_RECORD > left:
        raise ValueError(f"checkpoint {path}: truncated, {left} bytes left cannot hold {claimed} tensors")
    params = {}
    for _ in range(count):
        name = reader.name()
        if name not in expected:
            raise ValueError(f"checkpoint {path}: unexpected tensor {name!r}")
        if name in params:
            raise ValueError(f"checkpoint {path}: tensor {name!r} stored twice")
        rank = reader.u32()
        if rank != len(expected[name]):
            raise ValueError(f"checkpoint {path}: tensor {name!r} has rank {rank}, expected {len(expected[name])}")
        dims = tuple(reader.u32() for _ in range(rank))
        if dims != expected[name]:
            raise ValueError(f"checkpoint {path}: tensor {name!r} has shape {dims}, expected {expected[name]}")
        payload = reader.take(8 * int(np.prod(dims, dtype=np.int64)))
        params[name] = Tensor(np.frombuffer(payload, dtype="<f8").reshape(dims))
    missing = expected.keys() - params.keys()
    if missing:
        raise ValueError(f"checkpoint {path}: missing tensors {sorted(missing)}")
    extra = len(reader.blob) - reader.pos
    if extra:
        raise ValueError(f"checkpoint {path}: {extra} bytes after the last tensor")
    return SegModel(config, {name: params[name] for name in expected})
