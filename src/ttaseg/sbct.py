"""Self-adaptive per-channel intensity remapping via cubic Bezier curves.

Twelve unconstrained scalars u[c, j] parameterize three cubic curves, one
per output channel; sigmoid keeps the control heights inside (0, 1) and
the convex-hull property of Bezier curves keeps every remapped intensity
in [0, 1]. The curve is a pure function of pixel intensity, so two pixels
with equal value always map to equal outputs regardless of position.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, no_grad

# Control-point x coordinates: fixed, never trained.
X_NODES = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)

N_CHANNELS = 3
N_POINTS = 4
IDENTITY_DELTA = 1e-3  # endpoint clamp of init_identity, so every logit is finite
CURVE_SAMPLES = 65  # rows of the --dump-sbct curve CSV


def init_identity() -> Tensor:
    """Curve scalars u, shape (3, 4), whose curves are each (nearly) the
    identity mapping.

    Heights j/3 give exact linear precision; endpoints are clamped to
    (IDENTITY_DELTA, 1 - IDENTITY_DELTA) so the logit is finite, which
    bounds the deviation from identity by IDENTITY_DELTA.
    """
    heights = np.clip(np.array(X_NODES), IDENTITY_DELTA, 1.0 - IDENTITY_DELTA)
    u = np.log(heights / (1.0 - heights))
    return Tensor(np.tile(u, (N_CHANNELS, 1)), requires_grad=True)


def heights(u: Tensor) -> Tensor:
    """Control heights P[c, j] = sigmoid(u[c, j]) of the (3, 4) curve scalars."""
    if u.shape != (N_CHANNELS, N_POINTS):
        raise ValueError(f"sbct: expected curve scalars of shape (3, 4), got {u.shape}")
    return u.sigmoid()


def _bernstein_rows(t: np.ndarray) -> np.ndarray:
    """Cubic Bernstein basis evaluated at flat t, shape (4, t.size)."""
    t = t.reshape(-1)
    omt = 1.0 - t
    return np.stack([omt**3, 3.0 * t * omt**2, 3.0 * t**2 * omt, t**3])


def in_unit_range(x: np.ndarray) -> bool:
    """Every value lies in [0, 1]; NaN, for which every comparison is false, fails, as +-inf do."""
    return not x.size or bool(x.min() >= 0.0 and x.max() <= 1.0)


def transform(x: np.ndarray, u: Tensor) -> Tensor:
    """Remap an image into three channels: channel c is curve c applied to an
    HxW image, or to channel c of a 3xHxW one. Gradient flows into the 12
    curve scalars."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 and (x.ndim != 3 or x.shape[0] != N_CHANNELS):
        raise ValueError(f"sbct.transform: expected an HxW or a 3xHxW image, got shape {x.shape}")
    if not in_unit_range(x):
        raise ValueError(f"sbct.transform: values must lie in [0, 1], got range [{x.min():.6g}, {x.max():.6g}]")
    if x.ndim == 2:
        basis = Tensor(_bernstein_rows(x))  # (4, H*W), constant
        out = heights(u) @ basis  # (3, H*W)
    else:
        basis = np.stack([_bernstein_rows(x[c]) for c in range(N_CHANNELS)])  # (3, 4, H*W)
        out = (heights(u).reshape(N_CHANNELS, N_POINTS, 1) * Tensor(basis)).sum(axis=1)
    return out.reshape(N_CHANNELS, *x.shape[-2:])


def curve_samples(u: Tensor) -> np.ndarray:
    """CURVE_SAMPLES curve samples for diagnostics: columns (t, c1, c2, c3)."""
    n = CURVE_SAMPLES
    t = np.linspace(0.0, 1.0, n)
    with no_grad():
        values = transform(t.reshape(1, n), u).data.reshape(N_CHANNELS, n)
    return np.column_stack([t, values.T])

