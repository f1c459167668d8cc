import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from ttaseg.metrics import (CSV_HEADER, MetricsRow, binary_iou, boundary_pixels, dice, hd95,
                            hd95_sentinel, iou_correlation, pearson_r, percentile_linear, read_metrics_csv,
                            summarize, write_metrics_csv)

SRC = Path(__file__).resolve().parents[1] / "src"


# brute-force oracles, deliberately written as plain loops


def oracle_boundary(mask):
    h, w = mask.shape
    out = []
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            edge = i == 0 or i == h - 1 or j == 0 or j == w - 1
            if edge or not (mask[i - 1, j] and mask[i + 1, j] and mask[i, j - 1] and mask[i, j + 1]):
                out.append((i, j))
    return out


def oracle_percentile(values, q):
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def oracle_hd95(pred, gt):
    pb = oracle_boundary(pred)
    gb = oracle_boundary(gt)
    d_pg = [min(math.hypot(a[0] - b[0], a[1] - b[1]) for b in gb) for a in pb]
    d_gp = [min(math.hypot(a[0] - b[0], a[1] - b[1]) for a in pb) for b in gb]
    return max(oracle_percentile(d_pg, 95), oracle_percentile(d_gp, 95))


def kdtree_hd95(pred, gt):
    """HD95 with the nearest boundary distances from two KD-trees, as the
    metric was once computed."""
    if not pred.any() or not gt.any():
        return hd95_sentinel(pred.shape)
    pb = boundary_pixels(pred).astype(np.float64)
    gb = boundary_pixels(gt).astype(np.float64)
    return max(percentile_linear(cKDTree(gb).query(pb)[0], 95.0),
               percentile_linear(cKDTree(pb).query(gb)[0], 95.0))


def checkerboard(side=64):
    return np.indices((side, side)).sum(axis=0) % 2 == 1


def oracle_hausdorff_exact(pred, gt):
    pb = oracle_boundary(pred)
    gb = oracle_boundary(gt)
    d_pg = [min(math.hypot(a[0] - b[0], a[1] - b[1]) for b in gb) for a in pb]
    d_gp = [min(math.hypot(a[0] - b[0], a[1] - b[1]) for a in pb) for b in gb]
    return max(max(d_pg), max(d_gp))


def random_mask(rng, side=16, p=0.2):
    mask = rng.uniform(size=(side, side)) < p
    if not mask.any():
        mask[rng.integers(side), rng.integers(side)] = True
    return mask


def test_dice_trivials():
    gt = np.zeros((4, 4), dtype=bool)
    gt[1:3, 1:3] = True
    assert dice(gt, gt) == 1.0
    other = np.zeros((4, 4), dtype=bool)
    other[0, 0] = True
    assert dice(other, gt) == 0.0
    assert dice(np.zeros((4, 4), dtype=bool), np.zeros((4, 4), dtype=bool)) == 1.0


def test_dice_hand_case():
    pred = np.array([[True, True], [False, False]])
    gt = np.array([[False, True], [False, True]])
    assert dice(pred, gt) == 0.5


def test_dice_symmetric_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = random_mask(rng), random_mask(rng)
        assert dice(a, b) == dice(b, a)


def test_binary_iou_values():
    pred = np.array([[True, True], [False, False]])
    gt = np.array([[False, True], [False, True]])
    assert binary_iou(pred, gt) == 1.0 / 3.0
    empty = np.zeros((2, 2), dtype=bool)
    assert binary_iou(empty, empty) == 1.0


def test_boundary_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        mask = random_mask(rng, side=12, p=0.4)
        got = {tuple(p) for p in boundary_pixels(mask)}
        assert got == set(oracle_boundary(mask))


def padded_boundary_pixels(mask):
    """The form ``boundary_pixels`` had: a background border padded on, and
    the interior test run on the padded copy."""
    padded = np.pad(mask, 1, constant_values=False)
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    return np.argwhere(mask & ~interior)


def _assert_same_boundary(mask):
    got, want = boundary_pixels(mask), padded_boundary_pixels(mask)
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


@given(mask=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)))
@settings(max_examples=300, deadline=None)
def test_boundary_is_the_padded_form_in_order(mask):
    _assert_same_boundary(mask)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (2, 5), (6, 6)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("fill", ["all-true", "all-false", "edge-touching"])
def test_boundary_is_the_padded_form_on_degenerate_masks(shape, fill):
    mask = np.full(shape, fill == "all-true")
    if fill == "edge-touching":
        mask[: max(1, shape[0] // 2 + 1)] = True
    _assert_same_boundary(mask)
    _assert_same_boundary(mask.T)


def test_hd95_identical_masks_zero():
    mask = np.zeros((8, 8), dtype=bool)
    mask[2:6, 3:7] = True
    assert hd95(mask, mask) == 0.0


def test_hd95_three_four_five_offset():
    a = np.zeros((10, 10), dtype=bool)
    b = np.zeros((10, 10), dtype=bool)
    a[1, 1] = True
    b[4, 5] = True  # offset (3, 4) -> distance 5
    assert hd95(a, b) == 5.0


def test_hd95_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    for _ in range(60):
        pred, gt = random_mask(rng), random_mask(rng)
        assert hd95(pred, gt) == oracle_hd95(pred, gt)


def test_hd95_never_exceeds_exact_hausdorff():
    rng = np.random.default_rng(3)
    for _ in range(40):
        pred, gt = random_mask(rng), random_mask(rng)
        assert hd95(pred, gt) <= oracle_hausdorff_exact(pred, gt) + 1e-12


def test_hd95_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = random_mask(rng), random_mask(rng)
        assert hd95(a, b) == hd95(b, a)


def test_hd95_empty_mask_sentinel():
    empty = np.zeros((16, 16), dtype=bool)
    full = ~empty
    sentinel = hd95_sentinel((16, 16))
    assert hd95(empty, full) == sentinel
    assert hd95(full, empty) == sentinel
    # sentinel is strictly beyond any achievable lattice distance
    assert sentinel > math.hypot(15, 15)


@st.composite
def masks64(draw):
    """64x64 masks: empty, full, a single pixel, a rectangle (often touching
    the edge), sparse noise, a checkerboard or its complement."""
    kind = draw(st.sampled_from(["empty", "full", "pixel", "rectangle", "noise", "checkerboard",
                                 "checkerboard-complement"]))
    mask = np.zeros((64, 64), dtype=bool)
    if kind == "full":
        mask[:] = True
    elif kind == "pixel":
        mask[draw(st.integers(0, 63)), draw(st.integers(0, 63))] = True
    elif kind == "rectangle":
        r0, c0 = draw(st.integers(0, 63)), draw(st.integers(0, 63))
        mask[r0:draw(st.integers(r0 + 1, 64)), c0:draw(st.integers(c0 + 1, 64))] = True
    elif kind == "noise":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        mask = rng.uniform(size=(64, 64)) < draw(st.sampled_from([0.002, 0.02, 0.1]))
    elif kind.startswith("checkerboard"):
        mask = checkerboard() ^ kind.endswith("complement")
    return mask


@given(pred=masks64(), gt=masks64())
@settings(max_examples=40, deadline=None)
def test_hd95_on_the_grid_equals_the_oracle_and_the_kdtree_exactly(pred, gt):
    expected = kdtree_hd95(pred, gt)
    assert hd95(pred, gt) == expected
    if pred.any() and gt.any():
        assert expected == oracle_hd95(pred, gt)


def test_hd95_checkerboard_working_memory_is_bounded():
    """2,048 boundary pixels a side are 4.2 million pairs; the blocked
    search never holds more than a few blocks of them."""
    board = checkerboard()
    tracemalloc.start()
    try:
        value = hd95(board, ~board)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0
    assert peak <= 4 * 2**20


def test_scoring_does_not_load_scipy_spatial():
    script = ("import sys\n"
              "import numpy as np\n"
              "import ttaseg\n"
              "from ttaseg import metrics\n"
              "mask = np.zeros((8, 8), dtype=bool)\n"
              "mask[2:5, 3:6] = True\n"
              "metrics.score_row(0, mask, np.roll(mask, 1, axis=0))\n"
              "print('scipy.spatial' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_percentile_linear_matches_numpy_and_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        vals = rng.uniform(0, 50, size=rng.integers(1, 40))
        q = float(rng.uniform(0, 100))
        assert abs(percentile_linear(vals, q) - np.percentile(vals, q)) <= 1e-10
        assert abs(percentile_linear(vals, q) - oracle_percentile(vals, q)) <= 1e-10


def test_pearson_affine_and_hand_cases():
    x = np.array([0.1, 0.4, 0.2, 0.9])
    assert abs(pearson_r(x, 2 * x + 1) - 1.0) <= 1e-12
    assert abs(pearson_r(x, -x) + 1.0) <= 1e-12
    assert abs(pearson_r([1, 2, 3], [1, 3, 2]) - 0.5) <= 1e-12


def test_pearson_affine_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    base = pearson_r(x, y)
    assert abs(pearson_r(3.7 * x + 11.0, y) - base) <= 1e-12


def test_pearson_degenerate_inputs():
    with pytest.raises(ValueError, match="zero variance"):
        pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="two points"):
        pearson_r([1.0], [2.0])


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_dice_and_iou_agree_on_ordering(seed):
    # dice = 2*iou/(1+iou) is monotone in iou
    rng = np.random.default_rng(seed)
    a, b = random_mask(rng), random_mask(rng)
    d, i = dice(a, b), binary_iou(a, b)
    assert abs(d - 2 * i / (1 + i)) <= 1e-12


def _rows():
    return [
        MetricsRow(0, 0.9, 1.5, 0.8, 0.85, 0.2, 0.1, 0.05, 1.0),
        MetricsRow(1, 0.7, 3.0, 0.6, 0.65, 0.4, 0.2, 0.10, 0.8),
        MetricsRow(2, 0.5, hd95_sentinel((16, 16)), float("nan"), 0.4, float("nan"),
                   float("nan"), float("nan"), float("nan")),
    ]


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "metrics.csv"
    rows = _rows()
    write_metrics_csv(rows, path)
    back = read_metrics_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        for key in CSV_HEADER:
            va, vb = getattr(a, key), getattr(b, key)
            assert (va == vb) or (math.isnan(va) and math.isnan(vb))


_GOOD_ROW = b"0,0.9,1.5,0.8,0.85,0.2,0.1,0.05,1.0"


@pytest.mark.parametrize("row, message", [
    (b"x,0.9,1.5,0.8,0.85,0.2,0.1,0.05,1.0", "row 1: invalid literal for int()"),
    (b"1,0.9,1.5", "row 1 must hold the 9 fields of the header"),
    (b"1,0.9,1.5,0.8,0.85,0.2,0.1,0.05,1.0,7", "row 1 must hold the 9 fields of the header"),
    (b"1,0.9,1.5,0.8,0.85,0.2,0.1,0.05,\xff", "not a UTF-8 CSV"),
], ids=["int-index", "short-row", "long-row", "not-utf8"])
def test_a_malformed_metrics_row_is_a_value_error_naming_the_file_and_row(tmp_path, row, message):
    path = tmp_path / "metrics.csv"
    path.write_bytes(b"\n".join([",".join(CSV_HEADER).encode(), _GOOD_ROW, row]) + b"\n")
    with pytest.raises(ValueError) as excinfo:
        read_metrics_csv(path)
    assert str(excinfo.value).startswith(f"metrics csv {path}: ")
    assert message in str(excinfo.value)


# what a metrics field may be: a number, nan and inf, a number with a space
# or an underscore, empty, NUL, text, a quote, a byte that is not UTF-8, an
# integer past Python's 4,300 digits, and one field past the csv module's
# 131,072 limit
_METRICS_FIELDS = [b"0", b"3", b"0.25", b"nan", b"-inf", b" 2", b"1_0", b"", b"a\x00b", b"x", b'"', b'"1,2"',
                   b"\xff", b"9" * 5_000, b"9" * 140_000]


@given(header=st.sampled_from([",".join(CSV_HEADER).encode(), b"index,dice", b""]),
       rows=st.lists(st.lists(st.sampled_from(_METRICS_FIELDS), min_size=7, max_size=11), max_size=3),
       newline=st.sampled_from([b"\n", b"\r\n"]),
       overwrites=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=3))
@settings(max_examples=200, deadline=None)
def test_a_mangled_metrics_file_loads_or_fails_naming_the_file(header, rows, newline, overwrites):
    """Header variants, short and long rows, fields that are not numbers and
    byte overwrites: the file loads as rows of the header's fields, or raises
    a ValueError that names it."""
    blob = bytearray(newline.join([header] + [b",".join(row) for row in rows]) + newline)
    for position, value in overwrites:
        blob[position % len(blob)] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.csv"
        path.write_bytes(blob)
        try:
            loaded = read_metrics_csv(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert all(isinstance(r, MetricsRow) and isinstance(r.index, int) for r in loaded)
            assert all(isinstance(getattr(r, k), float) for r in loaded for k in CSV_HEADER[1:])


def test_summary_single_row_equals_row():
    row = MetricsRow(0, 0.9, 1.5, 0.8, 0.85, 0.2, 0.1, 0.05, 1.0)
    s = summarize([row], [hd95_sentinel((16, 16))])
    assert s["mean_dice"] == row.dice
    assert s["mean_hd95"] == row.hd95
    assert s["pearson_r"] is None  # single point: undefined


def test_summary_excludes_sentinel_and_matches_column_pearson(tmp_path):
    rows = _rows()
    s = summarize(rows, [hd95_sentinel((16, 16))] * len(rows))
    assert s["hd95_excluded"] == 1
    assert s["mean_hd95"] == (1.5 + 3.0) / 2
    assert abs(s["pearson_r"] - pearson_r([0.8, 0.6], [0.85, 0.65])) <= 1e-15


def test_summary_takes_each_rows_own_sentinel():
    """The same HD95 is the undefined sentinel of an 8x8 row and a real
    distance in a 16x16 row; one sentinel is needed per row."""
    small = hd95_sentinel((8, 8))
    rows = [MetricsRow(i, 0.5, small, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0) for i in range(2)]
    s = summarize(rows, [small, hd95_sentinel((16, 16))])
    assert s["hd95_excluded"] == 1 and s["mean_hd95"] == small
    with pytest.raises(ValueError, match="2 rows but 1 sentinels"):
        summarize(rows, [small])


def test_iou_correlation_is_none_where_undefined():
    rows = _rows()
    pairs = [(r.pred_iou, r.true_iou) for r in rows if math.isfinite(r.pred_iou) and math.isfinite(r.true_iou)]
    assert iou_correlation(rows) == pearson_r(*zip(*pairs))
    flat = [MetricsRow(i, 0.0, 1.0, 0.1 * i, 0.0, 0.0, 0.0, 0.0, 0.0) for i in range(4)]
    assert iou_correlation(flat) is None  # no spread in true IoU
    assert iou_correlation(rows[:1]) is None  # one point
    assert iou_correlation([]) is None


def test_csv_header_pinned(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(_rows(), path)
    assert path.read_text().splitlines()[0] == ",".join(CSV_HEADER)
