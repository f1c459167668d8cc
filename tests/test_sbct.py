import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mean
from fdcheck import assert_grads_close, numeric_grad
from ttaseg import netpbm, sbct
from ttaseg.adapt import AdaptConfig, AdaptEngine
from ttaseg.model import ModelConfig, SegModel
from ttaseg.sbct import curve_samples, heights, init_identity, transform, transform_color, transform_gray
from ttaseg.tensor import Tensor, _stable_sigmoid, no_grad


def bezier_scalar(t, p):
    """Independent per-pixel oracle in plain float arithmetic."""
    return ((1 - t) ** 3 * p[0] + 3 * t * (1 - t) ** 2 * p[1]
            + 3 * t**2 * (1 - t) * p[2] + t**3 * p[3])


def random_u(seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0.0, 1.5, (3, 4)), requires_grad=True)


def heights_array(u: Tensor) -> np.ndarray:
    return _stable_sigmoid(u.data)


@pytest.fixture()
def fixed_heights(monkeypatch):
    """Curve scalars whose control heights are given directly, the same
    four in every channel, so exact heights such as 0 and 1/3 can be set:
    ``sbct.heights`` is replaced for the test."""

    def make(values):
        fixed = Tensor(np.tile(values, (3, 1)))
        monkeypatch.setattr(sbct, "heights", lambda u: fixed)
        return Tensor(np.zeros((3, 4)))

    return make


def test_curve_starts_at_first_control_height(fixed_heights):
    out = transform_gray(np.array([[0.0, 1.0]]), fixed_heights([0.2, 0.5, 0.5, 0.9])).data
    assert np.all(out[:, 0, 0] == 0.2)
    assert np.all(out[:, 0, 1] == 0.9)


def test_curve_linear_precision(fixed_heights):
    t = np.linspace(0.0, 1.0, 33)
    out = transform_gray(t.reshape(1, -1), fixed_heights([0.0, 1 / 3, 2 / 3, 1.0]))
    assert np.allclose(out.data, t.reshape(1, 1, -1), atol=1e-15)


def test_curve_point_symmetry_case(fixed_heights):
    out = transform_gray(np.array([[0.5]]), fixed_heights([0.0, 0.0, 1.0, 1.0]))
    assert np.all(np.abs(out.data - 0.5) <= 1e-15)


def test_curve_rejects_t_outside_unit_interval(fixed_heights):
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        transform_gray(np.array([[1.5]]), fixed_heights([0.1, 0.2, 0.3, 0.4]))


@pytest.mark.parametrize("shape", [(4, 3), (12,), (3, 4, 1)])
def test_curve_scalars_of_another_shape_rejected(shape):
    with pytest.raises(ValueError, match="expected curve scalars of shape \\(3, 4\\)"):
        transform_gray(np.zeros((2, 2)), Tensor(np.zeros(shape)))
    with pytest.raises(ValueError, match="expected curve scalars of shape \\(3, 4\\)"):
        heights(Tensor(np.zeros(shape)))


def test_identity_init_is_near_identity():
    u = init_identity()
    t = np.linspace(0.0, 1.0, 257)
    values = heights_array(u) @ np.stack([(1 - t) ** 3, 3 * t * (1 - t) ** 2,
                                                3 * t**2 * (1 - t), t**3])
    assert np.max(np.abs(values - t)) <= 5e-3
    out = transform_gray(t.reshape(1, -1), u)
    assert np.max(np.abs(out.data - t.reshape(1, 1, -1))) <= 1e-3 + 1e-12


def test_identity_init_has_twelve_identical_channel_scalars():
    u = init_identity()
    assert u.data.size == 12 and u.shape == (3, 4)
    assert np.array_equal(u.data[0], u.data[1])
    assert np.array_equal(u.data[0], u.data[2])


def test_constant_image_maps_to_first_height():
    u = random_u(3)
    out = transform_gray(np.zeros((5, 6)), u)
    heights = heights_array(u)
    for c in range(3):
        assert np.allclose(out.data[c], heights[c, 0], atol=1e-15)


def test_transform_gray_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, (8, 8))
    u = random_u(12)
    heights = heights_array(u)
    out = transform_gray(x, u).data
    for c in range(3):
        for i in range(8):
            for j in range(8):
                want = bezier_scalar(float(x[i, j]), heights[c])
                assert abs(out[c, i, j] - want) <= 1e-12


def test_transform_color_matches_scalar_oracle():
    rng = np.random.default_rng(13)
    x = rng.uniform(0.0, 1.0, (3, 4, 5))
    u = random_u(14)
    heights = heights_array(u)
    out = transform_color(x, u).data
    for c in range(3):
        for i in range(4):
            for j in range(5):
                assert abs(out[c, i, j] - bezier_scalar(float(x[c, i, j]), heights[c])) <= 1e-12


def test_color_of_replicated_gray_equals_gray_transform():
    rng = np.random.default_rng(15)
    x = rng.uniform(0.0, 1.0, (6, 7))
    u = random_u(16)
    gray = transform_gray(x, u).data
    color = transform_color(np.stack([x, x, x]), u).data
    # the two paths reduce in different orders; agreement is to the last ulp
    assert np.allclose(gray, color, rtol=0, atol=1e-15)


def test_degenerate_flat_curve_gives_constant_channel():
    u = np.zeros((3, 4))
    u[1] = 2.0  # channel 1 heights all sigmoid(2)
    out = transform_gray(np.random.default_rng(0).uniform(0, 1, (4, 4)), Tensor(u)).data
    k = 1.0 / (1.0 + np.exp(-2.0))
    assert np.allclose(out[1], k, atol=1e-12)


def test_identity_transform_color_close_to_input():
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 1.0, (3, 5, 5))
    out = transform_color(x, init_identity()).data
    assert np.max(np.abs(out - x)) <= 1e-3 + 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_range_preservation(seed):
    u = random_u(seed)
    t = np.linspace(0.0, 1.0, 101)
    out = transform_gray(t.reshape(1, -1), u).data
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_globality_equal_intensities_map_equally():
    x = np.array([[0.3, 0.7, 0.3], [0.7, 0.3, 0.7]])
    out = transform_gray(x, random_u(19)).data
    for c in range(3):
        vals_a = out[c][x == 0.3]
        vals_b = out[c][x == 0.7]
        assert np.all(vals_a == vals_a[0])
        assert np.all(vals_b == vals_b[0])


def test_endpoint_anchoring_exact():
    u = random_u(21)
    heights = heights_array(u)
    out = transform_gray(np.array([[0.0, 1.0]]), u).data
    assert np.array_equal(out[:, 0, 0], heights[:, 0])
    assert np.array_equal(out[:, 0, 1], heights[:, 3])


def test_gradient_of_mean_transform_matches_finite_differences():
    rng = np.random.default_rng(23)
    x = rng.uniform(0.0, 1.0, (6, 6))
    u = random_u(24)

    def f():
        return float(mean(transform_gray(x, u)).data)

    mean(transform_gray(x, u)).backward()
    assert_grads_close(u.grad, numeric_grad(f, u), rtol=1e-5, atol=1e-9,
                       label="sbct-u")


def test_transform_rejects_unnormalized_input():
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        transform_gray(np.array([[1.2]]), init_identity())
    with pytest.raises(ValueError, match="3xHxW"):
        transform_color(np.zeros((2, 4, 4)), init_identity())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_transform_gray_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        transform_gray(np.array([[bad, 0.5]]), init_identity())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_transform_color_rejects_non_finite_input(bad):
    x = np.full((3, 2, 2), 0.5)
    x[1, 0, 1] = bad
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        transform_color(x, init_identity())


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1.0000001, -1e-300, -0.0, 0.0, 5e-324, 1.0],
                         ids=["inf", "-inf", "nan", "above-one", "below-zero", "minus-zero", "zero", "subnormal",
                              "one"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2, 2)], ids=["gray", "colour"])
def test_in_unit_range_is_the_finiteness_and_unit_range_rule(value, shape):
    """in_unit_range is false exactly where a finiteness pass or the [0, 1]
    comparison fails, and transform raises exactly where it is false."""
    x = np.full(shape, 0.5)
    x.flat[-1] = value
    ok = bool(np.isfinite(x).all() and x.min() >= 0.0 and x.max() <= 1.0)
    assert sbct.in_unit_range(x) is ok
    if ok:
        assert transform(x, init_identity()).shape == (3, *shape[-2:])
    else:
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            transform(x, init_identity())
    assert sbct.in_unit_range(np.zeros((0, 3)))


def test_transform_dispatch():
    u = init_identity()
    assert transform(np.zeros((4, 4)), u).shape == (3, 4, 4)
    assert transform(np.zeros((3, 4, 4)), u).shape == (3, 4, 4)


def test_curve_samples_layout():
    rows = curve_samples(init_identity())
    assert rows.shape == (65, 4)
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.0


def test_dump_sbct_composite_is_the_curve_transform(tmp_path):
    """The exported composite is sbct.transform of the image, and on an
    8-bit image (every gray level once) it has the bytes of a 256-bin LUT."""
    engine = AdaptEngine(SegModel.build(ModelConfig(), seed=0), AdaptConfig(strategy="sbct-only"))
    engine.sbct_u.data[...] = random_u(27).data
    image = np.arange(256, dtype=np.float64).reshape(16, 16) / 255.0
    engine.dump_sbct(0, image, tmp_path)
    composite = (tmp_path / "composite_00000.ppm").read_bytes()

    with no_grad():
        netpbm.write_ppm(tmp_path / "transform.ppm", transform(image, engine.sbct_u).data)
    assert composite == (tmp_path / "transform.ppm").read_bytes()

    t = np.arange(256, dtype=np.float64) / 255.0
    basis = np.stack([(1.0 - t) ** 3, 3.0 * t * (1.0 - t) ** 2, 3.0 * t**2 * (1.0 - t), t**3])
    lut = heights_array(engine.sbct_u) @ basis  # (3, 256)
    levels = np.floor(image * 255.0 + 0.5).astype(int)
    netpbm.write_ppm(tmp_path / "lut.ppm", np.stack([lut[c][levels] for c in range(3)]))
    assert composite == (tmp_path / "lut.ppm").read_bytes()
