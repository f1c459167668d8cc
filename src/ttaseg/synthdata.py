"""Synthetic source/target scenes with a controlled domain shift.

The source domain is sharp, colored objects on textured backgrounds
(a stand-in for natural images); target domains are grayscale versions
degraded by an intensity nonlinearity t -> t**gamma, boundary blur and
additive noise. Geometry and appearance draws are shared across profiles
so the same (seed, index) denotes the same underlying scene everywhere.

A sample is made in three steps, each pure in (seed, index):
``sample_spec`` draws the appearance (kind, colours, texture amplitude) and
the profile's shift (gamma, blur); ``draw_scene`` draws the geometry (the
7x7 texture cells, the object mask, the shade) into a ``Scene`` of about
4.5 KiB; ``paint`` turns a scene into its 96 KiB (colour) or 32 KiB (gray)
``StreamSample``, whose only draw is the degradation noise. A caller that
revisits scenes, as pretraining does each epoch, keeps the scenes and
paints them again rather than holding every image.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import netpbm

CANVAS = 64
MIN_AREA = 16
BOX_PAD = 2  # pixels added on every side of the tight box before clipping
KINDS = ("ellipse", "blob", "lesion")

# luma weights for color -> gray conversion (Rec. 601)
_LUMA = np.array([0.299, 0.587, 0.114])
_LUMA.flags.writeable = False

# sub-stream tags so each random decision has its own generator
_TAG_APPEARANCE = 11
_TAG_SHIFT = 13
_TAG_GEOMETRY = 17
_TAG_NOISE = 19

# the canvas's row and column coordinates, built once and read-only
_YY, _XX = np.mgrid[0:CANVAS, 0:CANVAS].astype(np.float64)
_YY.flags.writeable = _XX.flags.writeable = False


@dataclass(frozen=True)
class ShiftProfile:
    """Degradation recipe applied on top of the shared scene rendering."""

    name: str
    grayscale: bool
    gamma_range: tuple
    blur_range: tuple
    noise_sigma: float


PROFILES = {
    "source": ShiftProfile("source", grayscale=False, gamma_range=(1.0, 1.0), blur_range=(0.0, 0.0), noise_sigma=0.01),
    "mri-like": ShiftProfile("mri-like", grayscale=True, gamma_range=(0.4, 0.7), blur_range=(1.0, 2.0), noise_sigma=0.05),
    "ct-like": ShiftProfile("ct-like", grayscale=True, gamma_range=(1.5, 2.5), blur_range=(0.5, 1.5), noise_sigma=0.03),
}


@dataclass(frozen=True)
class BoxPrompt:
    """Axis-aligned box in pixel coordinates, exclusive upper bounds."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"BoxPrompt: degenerate box ({self.x0},{self.y0},{self.x1},{self.y1})")
        if min(self.x0, self.y0) < 0:
            raise ValueError("BoxPrompt: negative coordinates")

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.y0, self.x1, self.y1], dtype=np.float64)


@dataclass
class StreamSample:
    """One test item: the prompt box is derived from gt once, up front;
    gt itself is only ever consumed by evaluation code. An all-background
    gt yields box=None (no prompt can be formed)."""

    image: np.ndarray  # (H, W) or (3, H, W), values in [0, 1]
    gt_mask: np.ndarray  # (H, W) bool
    box: BoxPrompt | None


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to render one scene deterministically."""

    stream_seed: int
    index: int
    kind: str
    bg_color: tuple
    obj_color: tuple
    texture_amp: float
    gamma: float
    blur_sigma: float
    noise_sigma: float
    grayscale: bool


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(list(key))


def sample_spec(seed: int, index: int, profile: ShiftProfile) -> SceneSpec:
    g = _rng(seed, index, _TAG_APPEARANCE)
    kind = KINDS[int(g.integers(len(KINDS)))]
    bg = g.uniform(0.15, 0.85, 3)
    # redraw until the object is visible in luminance too; hard (low-contrast)
    # scenes stay in the mix because 0.1 is a weak floor
    for _ in range(20):
        sign = np.where(g.uniform(size=3) < 0.5, -1.0, 1.0)
        sep = g.uniform(0.15, 0.55, 3)
        obj = np.clip(bg + sign * sep, 0.02, 0.98)
        if abs(float(_LUMA @ obj) - float(_LUMA @ bg)) >= 0.1:
            break
    tex = float(g.uniform(0.02, 0.12))
    s = _rng(seed, index, _TAG_SHIFT)
    gamma = float(s.uniform(*profile.gamma_range))
    blur = float(s.uniform(*profile.blur_range))
    return SceneSpec(
        stream_seed=seed,
        index=index,
        kind=kind,
        bg_color=tuple(bg),
        obj_color=tuple(obj),
        texture_amp=tex,
        gamma=gamma,
        blur_sigma=blur,
        noise_sigma=profile.noise_sigma,
        grayscale=profile.grayscale,
    )


def _smooth_field(coarse: np.ndarray) -> np.ndarray:
    """Coarse noise in [-1, 1], bilinearly upsampled to the canvas."""
    cells = coarse.shape[0]
    xs = np.linspace(0.0, cells - 1.0, CANVAS)
    i0 = np.clip(np.floor(xs).astype(int), 0, cells - 2)
    f = xs - i0
    rows = coarse[i0] * (1.0 - f)[:, None] + coarse[i0 + 1] * f[:, None]
    return rows[:, i0] * (1.0 - f)[None, :] + rows[:, i0 + 1] * f[None, :]


def _polar_mask(center, radius_fn) -> np.ndarray:
    dy, dx = _YY - center[0], _XX - center[1]
    return np.hypot(dy, dx) <= radius_fn(np.arctan2(dy, dx))


def _blob(rng: np.random.Generator, center, r0: float) -> np.ndarray:
    amp = rng.uniform(0.0, 0.22, 4)
    pha = rng.uniform(0.0, 2.0 * np.pi, 4)

    def radius(ang):
        return r0 * (1.0 + sum(amp[k] * np.cos((k + 2) * ang + pha[k]) for k in range(4)))

    return _polar_mask(center, radius)


def _draw_mask(rng: np.random.Generator, spec: SceneSpec) -> np.ndarray:
    while True:
        center = rng.uniform(CANVAS * 0.3, CANVAS * 0.7, 2)
        if spec.kind == "ellipse":
            a, b = rng.uniform(6.0, 18.0, 2)
            theta = rng.uniform(0.0, np.pi)
            dy, dx = _YY - center[0], _XX - center[1]
            u = (dx * np.cos(theta) + dy * np.sin(theta)) / a
            v = (-dx * np.sin(theta) + dy * np.cos(theta)) / b
            mask = u * u + v * v <= 1.0
        elif spec.kind == "blob":
            mask = _blob(rng, center, rng.uniform(7.0, 16.0))
        else:  # lesion: blob plus an overlapping satellite
            r0 = rng.uniform(7.0, 14.0)
            mask = _blob(rng, center, r0)
            offset = rng.uniform(-1.0, 1.0, 2) * r0
            mask |= _blob(rng, center + offset, r0 * rng.uniform(0.3, 0.6))
        if mask.sum() >= MIN_AREA:
            return mask


@dataclass(frozen=True, eq=False)
class Scene:
    """What is drawn of one scene: its spec, the 7x7 texture cells, the
    object mask, the radial shade and the mask's oracle box, about 4.5 KiB.
    The arrays are read-only, so one scene can be painted many times."""

    spec: SceneSpec
    cells: np.ndarray  # (7, 7) coarse texture noise in [-1, 1]
    mask: np.ndarray  # (S, S) bool
    shade: float
    box: BoxPrompt


def draw_scene(spec: SceneSpec) -> Scene:
    """Make the scene's geometry draws, in order: texture cells, mask, shade."""
    rng = _rng(spec.stream_seed, spec.index, _TAG_GEOMETRY)
    cells = rng.uniform(-1.0, 1.0, (7, 7))
    mask = _draw_mask(rng, spec)
    shade = rng.uniform(0.0, 0.3)
    cells.flags.writeable = mask.flags.writeable = False
    return Scene(spec, cells, mask, shade, oracle_box(mask))


def paint(scene: Scene) -> StreamSample:
    """Render a drawn scene in colour and degrade it by its spec; the noise
    of ``degrade`` is the only random draw."""
    spec, mask = scene.spec, scene.mask
    field = _smooth_field(scene.cells)
    ys, xs = np.nonzero(mask)
    d = np.hypot(_YY - ys.mean(), _XX - xs.mean())
    radial = 1.0 - scene.shade * d / max(d[mask].max(), 1.0)
    img = np.empty((3, CANVAS, CANVAS))
    for c in range(3):
        img[c] = spec.bg_color[c] + spec.texture_amp * field
        img[c][mask] = (spec.obj_color[c] * radial)[mask]
    return StreamSample(degrade(np.clip(img, 0.0, 1.0), spec), mask, scene.box)


def _gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(image, sigma)`` of a 2-D float64
    image (mode ``reflect``, truncate 4), bit for bit: the same kernel, and
    per axis, axis 0 first, the centre tap times its weight plus each
    mirrored pair of taps summed and times its weight, outermost pair
    first, as scipy's symmetric ``correlate1d`` accumulates them."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = weights / weights.sum()
    out = image
    for _ in range(2):  # filter along axis 0, then transpose for the other axis
        n = out.shape[0]
        # numpy's "symmetric" is scipy's "reflect": the edge pixel repeats
        padded = np.pad(out, ((radius, radius), (0, 0)), mode="symmetric")
        acc = padded[radius:radius + n] * weights[radius]
        for k in range(radius):
            acc += (padded[k:k + n] + padded[2 * radius - k:2 * radius - k + n]) * weights[k]
        out = acc.T
    return out


def degrade(image: np.ndarray, spec: SceneSpec) -> np.ndarray:
    """Apply the shift recipe: grayscale, gamma, blur, then noise."""
    out = _LUMA @ image.reshape(3, -1) if spec.grayscale else image
    out = out.reshape((CANVAS, CANVAS) if spec.grayscale else image.shape)
    if spec.gamma != 1.0:
        out = out ** spec.gamma
    if spec.blur_sigma > 0:
        if out.ndim == 2:
            out = _gaussian_blur(out, spec.blur_sigma)
        else:
            out = np.stack([_gaussian_blur(out[c], spec.blur_sigma) for c in range(3)])
    if spec.noise_sigma > 0:
        noise = _rng(spec.stream_seed, spec.index, _TAG_NOISE).standard_normal(out.shape)
        out = out + spec.noise_sigma * noise
    return np.clip(out, 0.0, 1.0)


def scenes(seed: int, n: int, profile: str):
    """The n scenes of the named profile, pure in (seed, index), each drawn
    only when it is consumed; an unknown profile raises here, at the call."""
    if profile not in PROFILES:
        raise ValueError(f"unknown shift profile {profile!r}; known: {sorted(PROFILES)}")
    prof = PROFILES[profile]
    return (draw_scene(sample_spec(seed, i, prof)) for i in range(n))


def gen_target(seed: int, n: int, profile: str) -> list:
    """``scenes``' samples, all painted, in a list."""
    return list(map(paint, scenes(seed, n, profile)))


def gen_source(seed: int, n: int) -> list:
    return gen_target(seed, n, "source")


def oracle_box(gt_mask: np.ndarray) -> BoxPrompt:
    """Tight bounding box of the foreground, padded by BOX_PAD and clipped
    to the canvas."""
    ys, xs = np.nonzero(gt_mask)
    if ys.size == 0:
        raise ValueError("oracle_box: empty mask")
    h, w = gt_mask.shape
    return BoxPrompt(
        x0=float(max(xs.min() - BOX_PAD, 0)),
        y0=float(max(ys.min() - BOX_PAD, 0)),
        x1=float(min(xs.max() + 1 + BOX_PAD, w)),
        y1=float(min(ys.max() + 1 + BOX_PAD, h)),
    )


# -- dataset files ---------------------------------------------------------


def write_dataset(samples, out_dir) -> Path:
    """Write images/masks plus a manifest.csv with relative paths; samples
    may be any iterable, and each is written before the next is pulled."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, s in enumerate(samples):
        ext = "pgm" if s.image.ndim == 2 else "ppm"
        img_name = f"img_{i:05d}.{ext}"
        mask_name = f"mask_{i:05d}.pgm"
        netpbm.write_image(out / img_name, s.image)
        netpbm.write_pgm(out / mask_name, s.gt_mask)
        rows.append((img_name, mask_name))
    manifest = out / "manifest.csv"
    with open(manifest, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["image", "mask"])
        writer.writerows(rows)
    return manifest


def load_manifest(path) -> list:
    """Pairs of (image_path, mask_path) resolved relative to the manifest."""
    path = Path(path)
    base = path.parent
    pairs = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != ["image", "mask"]:
            raise ValueError(f"manifest {path}: expected header image,mask")
        for i, row in enumerate(reader):
            # a short row has None in its missing fields, a long one a None key
            if None in row or not (row["image"] and row["mask"]):
                raise ValueError(f"manifest {path}: row {i} must hold a non-empty image and mask path")
            pairs.append((base / row["image"], base / row["mask"]))
    if not pairs:
        raise ValueError(f"manifest {path}: no samples")
    return pairs


def read_mask(path, pair_path=None, pair_hw=None) -> np.ndarray:
    """A mask file as a boolean plane: one gray (P5) plane, of the (height, width)
    of the file it pairs with when given. The error names the file, and the pair's."""
    mask = netpbm.read_pnm(path) > 0.5
    if mask.ndim != 2 or (pair_hw is not None and mask.shape != pair_hw):
        fit = "" if pair_path is None else f" of the height and width {pair_hw} of {pair_path}"
        raise ValueError(f"{path} has shape {mask.shape}; a mask must be one gray plane{fit}")
    return mask


def load_sample(img_path, mask_path) -> StreamSample:
    """One image and its mask, a gray (P5) plane of the image's height and width."""
    image = netpbm.read_pnm(img_path)
    mask = read_mask(mask_path, img_path, image.shape[-2:])
    box = oracle_box(mask) if mask.any() else None
    return StreamSample(image, mask, box)
