import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.ndimage import binary_dilation, gaussian_filter, sobel

from ttaseg import synthdata
from ttaseg.netpbm import write_pgm, write_ppm
from ttaseg.synthdata import (BOX_PAD, PROFILES, BoxPrompt, Scene, ShiftProfile, degrade, draw_scene,
                              gen_source, gen_target, load_manifest, load_sample, oracle_box, paint,
                              scenes, write_dataset)


def boundary_gradient_stat(image: np.ndarray, mask: np.ndarray, band: int = 1) -> float:
    """Strong-edge Sobel response (90th percentile of the gradient
    magnitude) in a band around the mask contour.

    Gradients are aggregated across channels (root mean square), so a
    color image gets credit for chroma edges its grayscale collapse has
    lost; the upper percentile tracks the boundary's peak response, which
    a crisp step dominates while staying robust to the additive-noise
    floor that would swamp a plain band mean.
    """
    channels = image[None] if image.ndim == 2 else image
    mag2 = sum(sobel(c, axis=0) ** 2 + sobel(c, axis=1) ** 2 for c in channels) / len(channels)
    contour = mask & ~binary_dilation(~mask)
    zone = binary_dilation(contour, iterations=band)
    return float(np.percentile(np.sqrt(mag2[zone]), 90))


def render(scene):
    """The scene's colour rendering before degradation, and its mask: the
    scene painted with a shift that keeps the colours and adds no noise."""
    clean = replace(scene, grayscale=False, gamma=1.0, blur_sigma=0.0, noise_sigma=0.0)
    return paint(clean).image, scene.mask


def test_same_seed_is_bitwise_deterministic():
    a = gen_source(42, 3)
    b = gen_source(42, 3)
    for s, t in zip(a, b):
        assert np.array_equal(s.image, t.image)
        assert np.array_equal(s.gt_mask, t.gt_mask)
        assert s.box == t.box


def test_every_mask_meets_minimum_area():
    for s in gen_source(7, 20) + gen_target(7, 20, "mri-like"):
        assert s.gt_mask.sum() >= 16


def test_intensities_stay_in_unit_interval():
    for s in gen_target(3, 10, "mri-like") + gen_target(3, 10, "ct-like"):
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_source_boundaries_much_sharper_than_target():
    for seed in (0, 1, 2):
        ratios = []
        for src, tgt in zip(gen_source(seed, 12), gen_target(seed, 12, "mri-like")):
            ratios.append(boundary_gradient_stat(src.image, src.gt_mask)
                          / boundary_gradient_stat(tgt.image, tgt.gt_mask))
        assert np.mean(ratios) > 2.0, f"seed {seed}: contrast ratio {np.mean(ratios):.2f}"


def test_identity_shift_degenerates_to_grayscale_of_source_render():
    identity = ShiftProfile(grayscale=True, gamma_range=(1.0, 1.0), blur_range=(0.0, 0.0), noise_sigma=0.0)
    for idx in range(4):
        scene_t = draw_scene(5, idx, identity)
        scene_s = draw_scene(5, idx, PROFILES["source"])
        rgb, mask_s = render(scene_s)
        target = degrade(rgb, scene_t)
        luma = np.tensordot(np.array([0.299, 0.587, 0.114]), rgb, axes=1)
        assert np.array_equal(target, np.clip(luma, 0.0, 1.0))
        _, mask_t = render(scene_t)
        assert np.array_equal(mask_s, mask_t)


def test_blur_monotonically_reduces_boundary_gradient():
    scene = draw_scene(9, 0, PROFILES["source"])
    rgb, mask = render(scene)
    stats = []
    for blur in (0.0, 0.5, 1.0, 2.0):
        shifted = replace(scene, blur_sigma=blur, grayscale=True, noise_sigma=0.0)
        stats.append(boundary_gradient_stat(degrade(rgb, shifted), mask))
    assert all(a > b for a, b in zip(stats, stats[1:]))


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_a_painted_scene_is_its_generated_sample(profile):
    """paint(draw_scene(...)) of one index is gen_target's sample at that
    index, whichever scenes were drawn and painted before it."""
    samples = gen_target(4, 6, profile)
    for i in (5, 2, 0, 4, 1, 3, 2):
        sample = paint(draw_scene(4, i, PROFILES[profile]))
        assert np.array_equal(sample.image, samples[i].image)
        assert np.array_equal(sample.gt_mask, samples[i].gt_mask)
        assert sample.box == samples[i].box


def test_a_drawn_scene_is_small_and_read_only():
    scene = draw_scene(8, 0, PROFILES["source"])
    assert scene.cells.nbytes + scene.mask.nbytes < 4.5 * 1024
    for array in (scene.cells, scene.mask):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0
    assert np.array_equal(paint(scene).image, paint(scene).image)


def test_unknown_profile_rejected():
    """At the call, before any scene is asked for."""
    with pytest.raises(ValueError, match="unknown shift profile"):
        scenes(0, 1, "xray-like")


def test_scenes_are_drawn_as_they_are_consumed():
    """A billion scenes are asked for and only the first is drawn."""
    first = next(iter(scenes(0, 10**9, "mri-like")))
    want = draw_scene(0, 0, PROFILES["mri-like"])
    for f in fields(Scene):
        a, b = getattr(first, f.name), getattr(want, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


def test_oracle_box_single_pixel_exclusive_convention():
    mask = np.zeros((16, 16), dtype=bool)
    mask[5, 7] = True
    p = float(BOX_PAD)
    assert oracle_box(mask) == BoxPrompt(7.0 - p, 5.0 - p, 8.0 + p, 6.0 + p)


def test_oracle_box_pad_clips_to_canvas():
    mask = np.zeros((8, 8), dtype=bool)
    mask[0, 0] = mask[7, 7] = True
    assert oracle_box(mask) == BoxPrompt(0.0, 0.0, 8.0, 8.0)


def test_oracle_box_rejects_empty_mask():
    with pytest.raises(ValueError, match="empty"):
        oracle_box(np.zeros((4, 4), dtype=bool))


@given(seed=st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_oracle_box_contains_every_foreground_pixel(seed):
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(12, 12)) < 0.15
    if not mask.any():
        mask[rng.integers(12), rng.integers(12)] = True
    box = oracle_box(mask)
    ys, xs = np.nonzero(mask)
    assert box.x0 <= xs.min() and xs.max() < box.x1
    assert box.y0 <= ys.min() and ys.max() < box.y1


def test_box_prompt_validates():
    with pytest.raises(ValueError, match="degenerate"):
        BoxPrompt(5.0, 5.0, 5.0, 9.0)
    with pytest.raises(ValueError, match="negative"):
        BoxPrompt(-1.0, 0.0, 2.0, 2.0)


def test_dataset_roundtrip(tmp_path):
    samples = gen_source(1, 2) + gen_target(1, 2, "ct-like")
    manifest = write_dataset(samples, tmp_path)
    pairs = load_manifest(manifest)
    assert len(pairs) == 4
    for (img_path, mask_path), original in zip(pairs, samples):
        loaded = load_sample(img_path, mask_path)
        assert loaded.image.shape == original.image.shape
        assert np.array_equal(loaded.gt_mask, original.gt_mask)
        assert np.max(np.abs(loaded.image - original.image)) <= 0.5 / 255
        assert loaded.box == original.box


def test_load_sample_empty_mask_yields_no_box(tmp_path):
    write_pgm(tmp_path / "img.pgm", np.full((8, 8), 0.5))
    write_pgm(tmp_path / "mask.pgm", np.zeros((8, 8), dtype=bool))
    sample = load_sample(tmp_path / "img.pgm", tmp_path / "mask.pgm")
    assert sample.box is None
    assert not sample.gt_mask.any()


@pytest.mark.parametrize("mask_name, mask", [("mask.pgm", np.ones((32, 32), dtype=bool)),
                                             ("mask.ppm", np.ones((3, 64, 64)))],
                         ids=["smaller-mask", "colour-mask"])
def test_load_sample_rejects_a_mask_that_does_not_fit_the_image(tmp_path, mask_name, mask):
    """A mask of another height and width, or one in colour, is refused
    with both paths and both shapes in the message."""
    image_path, mask_path = tmp_path / "img.pgm", tmp_path / mask_name
    write_pgm(image_path, np.full((64, 64), 0.5))
    (write_pgm if mask.ndim == 2 else write_ppm)(mask_path, mask)
    with pytest.raises(ValueError) as excinfo:
        load_sample(image_path, mask_path)
    message = str(excinfo.value)
    for part in (str(image_path), str(mask_path), "(64, 64)", str(mask.shape)):
        assert part in message


@given(h=st.integers(1, 70), w=st.integers(1, 70), sigma=st.floats(0.3, 4.0),
       seed=st.integers(0, 2**32 - 1), constant=st.booleans())
@settings(max_examples=200, deadline=None)
def test_gaussian_blur_is_scipy_gaussian_filter_bit_for_bit(h, w, sigma, seed, constant):
    rng = np.random.default_rng(seed)
    image = np.full((h, w), rng.uniform()) if constant else rng.uniform(size=(h, w))
    assert np.array_equal(synthdata._gaussian_blur(image, sigma), gaussian_filter(image, sigma))


def test_manifest_requires_header(tmp_path):
    bad = tmp_path / "manifest.csv"
    bad.write_text("a,b\nx.pgm,y.pgm\n")
    with pytest.raises(ValueError, match="header"):
        load_manifest(bad)


def test_empty_manifest_rejected(tmp_path):
    empty = tmp_path / "manifest.csv"
    empty.write_text("image,mask\n")
    with pytest.raises(ValueError, match="no samples"):
        load_manifest(empty)


@pytest.mark.parametrize("row", ["img_00001.pgm", ",mask_00001.pgm", "img_00001.pgm,",
                                 "img_00001.pgm,mask_00001.pgm,extra"],
                         ids=["missing-mask", "empty-image", "empty-mask", "extra-field"])
def test_malformed_manifest_row_names_file_and_row(tmp_path, row):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"image,mask\nimg_00000.pgm,mask_00000.pgm\n{row}\n")
    with pytest.raises(ValueError, match=rf"manifest {manifest}: row 1 "):
        load_manifest(manifest)


@pytest.mark.parametrize("blob", [b"image,mask\nimg_\xff.pgm,mask_00000.pgm\n",
                                  b"image,mask\n" + b"i" * 140_000 + b",mask_00000.pgm\n"],
                         ids=["not-utf8", "over-long-field"])
def test_an_unreadable_manifest_is_a_value_error_naming_it(tmp_path, blob):
    """A byte that is not UTF-8, or a field past the csv module's limit, is
    refused as a ValueError that names the manifest."""
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(blob)
    with pytest.raises(ValueError) as excinfo:
        load_manifest(manifest)
    assert str(manifest) in str(excinfo.value)


# what a manifest header or field may be: the expected names in another case
# or order, empty, NUL, a comma or quote inside a field, a lone quote, a byte
# that is not UTF-8, and one field past the csv module's 131,072 limit
_MANIFEST_HEADERS = [b"image,mask", b"mask,image", b"image", b"image,mask,extra", b"", b"Image,Mask",
                     b'"image","mask"', b"image;mask"]
_MANIFEST_FIELDS = [b"img_00000.pgm", b"mask_00000.pgm", b"", b"a\x00b.pgm", b'"x, y.pgm"', b'"', b"\xff.pgm",
                    "\u00e9.pgm".encode(), b"x" * 140_000]


@given(header=st.sampled_from(_MANIFEST_HEADERS),
       rows=st.lists(st.lists(st.sampled_from(_MANIFEST_FIELDS), max_size=4), max_size=4),
       bom=st.booleans(), newline=st.sampled_from([b"\n", b"\r\n", b"\r"]),
       overwrites=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4))
@settings(max_examples=200, deadline=None)
def test_a_mangled_manifest_loads_or_fails_naming_the_file(header, rows, bom, newline, overwrites):
    """Header variants, short and long rows, empty fields, NUL, a BOM, byte
    overwrites and over-long fields: the manifest loads as a non-empty list
    of path pairs, or raises a ValueError that names it."""
    blob = bytearray(b"\xef\xbb\xbf" if bom else b"")
    blob += newline.join([header] + [b",".join(row) for row in rows]) + newline
    for position, value in overwrites:
        blob[position % len(blob)] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.csv"
        path.write_bytes(blob)
        try:
            pairs = load_manifest(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert pairs and all(isinstance(p, Path) for pair in pairs for p in pair)
            assert all(len(pair) == 2 for pair in pairs)


def test_source_is_color_target_is_gray():
    assert gen_source(0, 1)[0].image.ndim == 3
    assert gen_target(0, 1, "mri-like")[0].image.ndim == 2


def test_profiles_match_documented_ranges():
    assert PROFILES["mri-like"].gamma_range == (0.4, 0.7)
    assert PROFILES["mri-like"].blur_range == (1.0, 2.0)
    assert PROFILES["mri-like"].noise_sigma == 0.05
    assert PROFILES["ct-like"].gamma_range == (1.5, 2.5)
    assert PROFILES["ct-like"].blur_range == (0.5, 1.5)
    assert PROFILES["ct-like"].noise_sigma == 0.03
