import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from ttaseg import pretrain
from ttaseg.losses import EPSILON
from ttaseg.model import ModelConfig, SegModel, load_checkpoint
from ttaseg.tensor import DomainError, Tensor, _stable_sigmoid, _unbroadcast, as_tensor

REPO_ROOT = Path(__file__).resolve().parents[1]
PINNED = json.loads((REPO_ROOT / "benchmarks" / "pinned.json").read_text())

# reduced geometry for finite-difference sweeps: same structure, far fewer
# trainable scalars
CONFIG16 = ModelConfig(
    image_size=16,
    embed_dim=8,
    attention_heads=2,
)


def lora_param_names(config: ModelConfig) -> list:
    """The adapter tensors ``attach_lora`` adds, in its order."""
    return [f"enc{i}.attn.{proj}.lora_{ab}" for i in range(config.encoder_blocks)
            for proj in config.lora_targets for ab in "ab"]


# -- reference kernels: the one-expression forms of the package's in-place
# elementwise kernels, which tests compare them with bit for bit

GELU_C = 0.7978845608028654  # sqrt(2/pi)


def stable_sigmoid_ref(x):
    s = 1.0 / (1.0 + np.exp(-np.abs(x)))
    return np.where(x >= 0, s, 1.0 - s)


def gelu_parts_ref(x):
    t = np.tanh(GELU_C * (x + 0.044715 * x * x * x))
    return 0.5 * x * (1.0 + t), t


def gelu_slope_ref(x, t):
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * 0.044715 * x * x)


# -- reference tape ops: composed graphs that tests compare the package with


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root as one tape node (slope 0.5 / root)."""
    root = np.sqrt(x.data)
    return Tensor._node(root, (x,), lambda g: x._accum(g * (0.5 / root)), "sqrt")


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) as one tape node (slope sigmoid(x))."""
    return Tensor._node(np.logaddexp(0.0, x.data), (x,), lambda g: x._accum(g * _stable_sigmoid(x.data)),
                        "softplus")


def neg(x: Tensor) -> Tensor:
    """-x as one tape node."""
    return Tensor._node(-x.data, (x,), lambda g: x._accum_owned(-g), "neg")


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi] as one tape node; the gradient passes only inside
    the window."""
    inside = (x.data >= lo) & (x.data <= hi)
    return Tensor._node(np.clip(x.data, lo, hi), (x,), lambda g: x._accum_owned(g * inside), "clip")


def div(a, b) -> Tensor:
    """a / b as one tape node, broadcasting as numpy does; a zero divisor
    raises ``DomainError``."""
    a, b = as_tensor(a), as_tensor(b)
    if np.any(b.data == 0.0):
        raise DomainError(f"div: zero divisor (denominator produced by op {b._op!r})")

    def bw(g):
        if a.requires_grad:
            a._accum_owned(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum_owned(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor._node(a.data / b.data, (a, b), bw, "div")


def soft_dice(a: Tensor, b: Tensor) -> Tensor:
    """1 - (2*sum(ab)+eps)/(sum(a)+sum(b)+eps) over probability maps: the
    graph ``losses.soft_dice_logits`` fuses into one node."""
    if a.shape != b.shape:
        raise ValueError(f"soft_dice: shape mismatch {a.shape} vs {b.shape}")
    num = 2.0 * (a * b).sum() + EPSILON
    den = a.sum() + b.sum() + EPSILON
    return 1.0 - div(num, den)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """The sum over ``axis`` times 1 / (number of summed entries)."""
    n = x.data.size if axis is None else np.prod(
        [x.data.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))])
    return x.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))


def bce_composed(logits: Tensor, gt: np.ndarray) -> Tensor:
    """The graph ``losses.bce_with_logits`` fuses into one node."""
    y = Tensor(gt.astype(np.float64))
    return mean(y * softplus(neg(logits)) + (1.0 - y) * softplus(logits))


def entropy_composed(m_high: Tensor) -> Tensor:
    """The graph ``losses.entropy_loss`` fuses into one node."""
    p = clip(m_high.sigmoid(), EPSILON, 1.0 - EPSILON)
    return neg(mean(p * p.log() + (1.0 - p) * (1.0 - p).log()))


def loss_and_grads(model, build):
    """The loss ``build()`` returns and every parameter gradient its
    backward leaves, with every parameter trainable."""
    for p in model.params.values():
        p.requires_grad = True
        p.grad = None
    loss = build()
    loss.backward()
    return loss.data.copy(), {n: p.grad.copy() for n, p in model.params.items() if p.grad is not None}


def assert_same_loss_and_grads(a, b):
    assert np.array_equal(a[0], b[0])
    assert a[1].keys() == b[1].keys()
    for name in a[1]:
        assert np.array_equal(a[1][name], b[1][name]), f"{name} gradient differs"


def softmax(x: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Temperature-scaled softmax built from elementary ops; the max shift
    is a constant."""
    y = x * (1.0 / float(temperature))
    e = (y - Tensor(np.max(y.data, axis=axis, keepdims=True))).exp()
    return div(e, e.sum(axis=axis, keepdims=True))


@pytest.fixture()
def model64():
    return SegModel.build(ModelConfig(), seed=7)


@pytest.fixture()
def model16():
    return SegModel.build(CONFIG16, seed=3)


@pytest.fixture(scope="session")
def accept_ckpt(tmp_path_factory):
    """The pinned-config pretrained checkpoint used by measured tests.

    Set TTASEG_TEST_CACHE to a directory to reuse the checkpoint across
    pytest invocations while iterating locally. The cached file is named by
    a hash of the pretraining config and the package source, so a
    checkpoint written by another config or another source tree is never
    reused.
    """
    cfg = pretrain.PretrainConfig(**PINNED["pretrain"]["config"])
    cache = os.environ.get("TTASEG_TEST_CACHE")
    if cache:
        key = hashlib.sha256(json.dumps(PINNED["pretrain"]["config"], sort_keys=True).encode())
        for source in sorted((REPO_ROOT / "src" / "ttaseg").glob("*.py")):
            key.update(source.name.encode() + source.read_bytes())
        path = Path(cache) / f"accept-{key.hexdigest()[:16]}.ckpt"
        path.parent.mkdir(parents=True, exist_ok=True)
        if not path.exists():
            pretrain.pretrain(cfg, path)
    else:
        path = tmp_path_factory.mktemp("ckpt") / "accept.ckpt"
        pretrain.pretrain(cfg, path)
    return path


@pytest.fixture(scope="session")
def accept_model(accept_ckpt):
    return load_checkpoint(accept_ckpt)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_c" in name:
                tag = name.split("::")[-1]
                lines.append((tag, "PASS" if status == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for tag, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {tag}")
