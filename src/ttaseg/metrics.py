"""Evaluation metrics: Dice, 95th-percentile Hausdorff distance, true IoU,
and the Pearson correlation between predicted and true IoU.

HD95 runs on boundary pixels (foreground with a 4-neighbor background or
image-edge contact), with unit pixel spacing and linearly interpolated
percentiles. Boundary coordinates are integers, so every squared distance
is an exact integer and its square root the correctly rounded float64 a
KD-tree query would return; the nearest-boundary search is a blocked
pairwise minimum on the pixel grid. Undefined distances (an empty mask on
either side) are recorded as a sentinel equal to the image diagonal, which
is strictly larger than any achievable distance, and excluded from
aggregates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

# the most point pairs one block of the nearest-boundary search holds
HD95_BLOCK_PAIRS = 2**16


@dataclass
class MetricsRow:
    index: int
    dice: float
    hd95: float
    pred_iou: float
    true_iou: float
    l_icm: float
    l_dpc: float
    l_ifc: float
    lambda_dpc: float


# metrics.csv columns, in field order
CSV_HEADER = [f.name for f in fields(MetricsRow)]


def _as_bool(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    return mask if mask.dtype == bool else mask > 0.5


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """2|P&G| / (|P|+|G|); two empty masks count as a perfect match."""
    pred, gt = _as_bool(pred), _as_bool(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"dice: shape mismatch {pred.shape} vs {gt.shape}")
    total = int(pred.sum()) + int(gt.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((pred & gt).sum()) / total


def binary_iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """|P&G| / |P|G|; defined as 1 when both masks are empty."""
    pred, gt = _as_bool(pred), _as_bool(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"binary_iou: shape mismatch {pred.shape} vs {gt.shape}")
    union = int((pred | gt).sum())
    if union == 0:
        return 1.0
    return int((pred & gt).sum()) / union


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Coordinates of foreground pixels 4-adjacent to background or the edge."""
    mask = _as_bool(mask)
    # only a pixel off the edge can have four foreground neighbours
    edge = mask.copy()
    edge[1:-1, 1:-1] &= ~(mask[:-2, 1:-1] & mask[2:, 1:-1] & mask[1:-1, :-2] & mask[1:-1, 2:])
    return np.argwhere(edge)


def percentile_linear(values: np.ndarray, q: float) -> float:
    """Inclusive linear-interpolation percentile on sorted order statistics.

    The exact expression is pinned so independent implementations agree
    bit for bit at f64: pos = (n-1) * q / 100, and the result is
    v[floor(pos)] + (pos - floor(pos)) * (v[floor(pos) + 1] - v[floor(pos)]).
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("percentile_linear: empty input")
    pos = (v.size - 1) * q / 100.0
    lo = int(math.floor(pos))
    frac = pos - lo
    if frac == 0.0:
        return float(v[lo])
    return float(v[lo] + frac * (v[lo + 1] - v[lo]))


def hd95_sentinel(shape) -> float:
    return float(np.hypot(*shape))


def _nearest_squared_distances(a: np.ndarray, b: np.ndarray, dtype=np.int32):
    """For integer points ``a`` (n, 2) and ``b`` (m, 2): the squared distance
    from each point of ``a`` to its nearest point of ``b``, and from each
    point of ``b`` to its nearest point of ``a``, exact in ``dtype``.

    The pairwise squares are formed in blocks of at most
    ``HD95_BLOCK_PAIRS``, whose row and column minima are folded into the
    two results, so working memory is bounded for any number of points.
    """
    ay, ax = a[:, :1].astype(dtype), a[:, 1:].astype(dtype)
    by, bx = b[:, 0].astype(dtype), b[:, 1].astype(dtype)
    cols = min(len(b), HD95_BLOCK_PAIRS)
    rows = HD95_BLOCK_PAIRS // cols
    to_b = np.full(len(a), np.iinfo(dtype).max, dtype)
    to_a = np.full(len(b), np.iinfo(dtype).max, dtype)
    for i in range(0, len(a), rows):
        for j in range(0, len(b), cols):
            d2 = ay[i:i + rows] - by[j:j + cols]
            d2 *= d2
            dx = ax[i:i + rows] - bx[j:j + cols]
            dx *= dx
            d2 += dx
            np.minimum(to_b[i:i + rows], d2.min(axis=1), out=to_b[i:i + rows])
            np.minimum(to_a[j:j + cols], d2.min(axis=0), out=to_a[j:j + cols])
    return to_b, to_a


def hd95(pred: np.ndarray, gt: np.ndarray) -> float:
    """Symmetric 95th-percentile boundary distance; sentinel when undefined."""
    pred, gt = _as_bool(pred), _as_bool(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"hd95: shape mismatch {pred.shape} vs {gt.shape}")
    if not pred.any() or not gt.any():
        return hd95_sentinel(pred.shape)
    # a squared distance on a grid up to 2^15 pixels a side fits in int32
    dtype = np.int32 if max(pred.shape) <= 2**15 else np.int64
    d2_pg, d2_gp = _nearest_squared_distances(boundary_pixels(pred), boundary_pixels(gt), dtype)
    return max(percentile_linear(np.sqrt(d2_pg, dtype=np.float64), 95.0),
               percentile_linear(np.sqrt(d2_gp, dtype=np.float64), 95.0))


def score_row(index: int, pred: np.ndarray, gt: np.ndarray, pred_iou: float = math.nan,
              l_icm: float = math.nan, l_dpc: float = math.nan, l_ifc: float = math.nan,
              lambda_dpc: float = math.nan) -> MetricsRow:
    """Score one prediction against its ground truth; the IoU estimate and
    the loss columns are whatever the caller logged, nan when nothing was."""
    return MetricsRow(index=index, dice=dice(pred, gt), hd95=hd95(pred, gt), pred_iou=pred_iou,
                      true_iou=binary_iou(pred, gt), l_icm=l_icm, l_dpc=l_dpc, l_ifc=l_ifc,
                      lambda_dpc=lambda_dpc)


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson_r: inputs must be equal-length 1-D series")
    if x.size < 2:
        raise ValueError("pearson_r: need at least two points")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson_r: zero variance, correlation undefined")
    return float(xc @ yc) / math.sqrt(sx * sy)


def iou_correlation(rows) -> float | None:
    """Pearson r between predicted and true IoU over the rows where both
    are finite; None where it is undefined (fewer than two such rows, or
    no spread on one side)."""
    pairs = [(r.pred_iou, r.true_iou) for r in rows
             if math.isfinite(r.pred_iou) and math.isfinite(r.true_iou)]
    try:
        return pearson_r([p for p, _ in pairs], [t for _, t in pairs])
    except ValueError:
        return None


# -- reporting ----------------------------------------------------------------


def write_metrics_csv(rows, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.index] + [repr(getattr(r, k)) for k in CSV_HEADER[1:]])


def read_metrics_csv(path) -> list:
    """The rows of a UTF-8 metrics CSV; a malformed file raises a ValueError
    naming the file and, for a bad row, the row (counted from 0 after the header)."""
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        try:
            reader = csv.DictReader(f)
            if reader.fieldnames != CSV_HEADER:
                raise ValueError(f"metrics csv {path}: unexpected header {reader.fieldnames}")
            for i, rec in enumerate(reader):
                # a short row has None in its missing fields, a long one a None key
                if None in rec or None in rec.values():
                    raise ValueError(f"metrics csv {path}: row {i} must hold the "
                                     f"{len(CSV_HEADER)} fields of the header")
                try:
                    rows.append(MetricsRow(index=int(rec["index"]), **{k: float(rec[k]) for k in CSV_HEADER[1:]}))
                except ValueError as exc:
                    raise ValueError(f"metrics csv {path}: row {i}: {exc}") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValueError(f"metrics csv {path}: not a UTF-8 CSV of metrics rows ({exc})") from exc
    return rows


def summarize(rows, sentinels) -> dict:
    """Aggregate a run: mean Dice, mean HD95 over defined rows, Pearson r
    between predicted and true IoU over rows where both are finite.

    ``sentinels`` holds one HD95 sentinel per row, that of the row's own
    image shape (``hd95_sentinel``); a row's HD95 is undefined at or above
    it."""
    if not rows:
        raise ValueError("summarize: no rows")
    if len(sentinels) != len(rows):
        raise ValueError(f"summarize: {len(rows)} rows but {len(sentinels)} sentinels")
    dices = [r.dice for r in rows]
    defined = [r.hd95 for r, sentinel in zip(rows, sentinels)
               if math.isfinite(r.hd95) and r.hd95 < sentinel]
    return {
        "n": len(rows),
        "mean_dice": float(np.mean(dices)),
        "mean_hd95": float(np.mean(defined)) if defined else None,
        "hd95_excluded": len(rows) - len(defined),
        "pearson_r": iou_correlation(rows),
    }


def format_value(value: float | None) -> str:
    """A reported figure to four places, or ``undefined`` for None."""
    return "undefined" if value is None else f"{value:.4f}"


def format_summary(summary: dict) -> str:
    return (f"n={summary['n']} mean_dice={summary['mean_dice']:.4f} "
            f"mean_hd95={format_value(summary['mean_hd95'])} (excluded {summary['hd95_excluded']}) "
            f"pearson_r={format_value(summary['pearson_r'])}")
