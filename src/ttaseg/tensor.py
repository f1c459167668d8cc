"""Reverse-mode automatic differentiation over dense float64 arrays.

A small dynamic-tape engine: every operation returns a new ``Tensor`` that
remembers its parents and a backward closure. ``Tensor.backward()`` visits
the recorded nodes exactly once, in reverse creation order, so parents are
always processed after all of their children. Forward results never alias
or mutate their inputs; the tape is rebuilt on every forward pass and
consumed by ``backward``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from contextlib import contextmanager
from typing import Iterable, Mapping

import numpy as np

_seq = itertools.count()


class _GradMode(threading.local):
    """Whether the calling thread records operations on the tape."""

    enabled = True


_grad_mode = _GradMode()


def __getattr__(name):
    # the module attribute ``_grad_enabled`` is the calling thread's mode
    if name == "_grad_enabled":
        return _grad_mode.enabled
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def records(parents: tuple) -> bool:
    """Whether a node made now from ``parents`` goes on the tape: the calling
    thread records and some parent requires a gradient."""
    return _grad_mode.enabled and any(p.requires_grad for p in parents)


class DomainError(ValueError):
    """An operation was evaluated outside its mathematical domain."""


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure-inference forwards),
    in the calling thread only."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; both branches are exact where selected.
    # Each kernel's first out= array takes the input's layout, and keeps the
    # result of a 0-d input an array that later ops can write to
    s = np.abs(x, out=np.empty_like(x))
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.add(1.0, s, out=s)
    np.divide(1.0, s, out=s)
    return np.subtract(1.0, s, out=s, where=~(x >= 0))


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh term that the GELU and its slope share, laid out like ``x``:
    ``t = tanh(C * (x + 0.044715 * x * x * x))``."""
    t = np.multiply(0.044715, x, out=np.empty_like(x))
    t *= x
    t *= x
    np.add(x, t, out=t)
    np.multiply(_GELU_C, t, out=t)
    return np.tanh(t, out=t)


def gelu_from_tanh(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The tanh-form GELU ``0.5 * x * (1 + t)`` written into ``out``, which
    may be ``x`` itself; ``1 + t`` is written over ``t``, so the slope must
    be taken first."""
    np.add(1.0, t, out=t)
    np.multiply(0.5, x, out=out)
    out *= t
    return out


def gelu_slope(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 3 * 0.044715 * x * x)``."""
    slope = np.multiply(0.5, x, out=np.empty_like(x))
    u = np.multiply(t, t, out=np.empty_like(t))
    np.subtract(1.0, u, out=u)
    slope *= u
    slope *= _GELU_C
    np.multiply(3.0 * 0.044715, x, out=u)
    u *= x
    np.add(1.0, u, out=u)
    slope *= u
    np.add(1.0, t, out=u)
    np.multiply(0.5, u, out=u)
    return np.add(u, slope, out=slope)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Tensor:
    """Dense float64 array with an optional gradient record.

    Leaves are built with the public constructor (which copies its input);
    operation results are attached to the tape via :meth:`_node`. Gradients
    accumulate into ``.grad`` during ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op", "_seq", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        self._seq = next(_seq)
        self._consumed = False

    @classmethod
    def _node(cls, data: np.ndarray, parents: tuple, backward, op: str) -> "Tensor":
        t = cls.__new__(cls)
        t.data = data if isinstance(data, np.ndarray) and data.dtype == np.float64 else np.asarray(data, dtype=np.float64)
        t.requires_grad = records(parents)
        t.grad = None
        if t.requires_grad:
            t._parents = parents
            t._backward = backward
        else:
            t._parents = ()
            t._backward = None
        t._op = op
        t._seq = next(_seq)
        t._consumed = False
        return t

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """A constant copy sharing no storage and no graph."""
        return Tensor(self.data)

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            # copy: g may alias another node's gradient buffer
            self.grad = np.array(g, dtype=np.float64)
            if self.grad.shape != self.data.shape:
                self.grad = np.broadcast_to(self.grad, self.data.shape).copy()
        else:
            self.grad += g

    def _accum_owned(self, g: np.ndarray):
        """``_accum`` for a fresh float64 result that nothing else holds (a
        product, quotient, matmul or reduction, or a view of one): the first
        gradient adopts it instead of copying. ``g`` itself, and views of it
        such as a reshape, transpose or concat piece, go through ``_accum``."""
        if self.grad is None and g.shape == self.data.shape:
            self.grad = g
        else:
            self._accum(g)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def bw(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.data.shape))

        return Tensor._node(a.data + b.data, (a, b), bw, "add")

    __radd__ = __add__

    def __sub__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def bw(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum_owned(_unbroadcast(-g, b.data.shape))

        return Tensor._node(a.data - b.data, (a, b), bw, "sub")

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def bw(g):
            if a.requires_grad:
                a._accum_owned(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accum_owned(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._node(a.data * b.data, (a, b), bw, "mul")

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            other = as_tensor(other)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError("matmul: operands must be at least 2-D")
        if a.data.ndim != b.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]:
            raise ValueError(
                f"matmul: batch dimensions must match exactly, got {a.data.shape} @ {b.data.shape}"
            )
        if a.data.shape[-1] != b.data.shape[-2]:
            raise ValueError(f"matmul: inner dimensions disagree, {a.data.shape} @ {b.data.shape}")

        def bw(g):
            if a.requires_grad:
                a._accum_owned(g @ b.data.swapaxes(-1, -2))
            if b.requires_grad:
                b._accum_owned(a.data.swapaxes(-1, -2) @ g)

        return Tensor._node(a.data @ b.data, (a, b), bw, "matmul")

    # -- elementwise transcendentals ------------------------------------

    def log(self):
        a = self
        if np.any(a.data <= 0.0):
            raise DomainError(
                f"log: nonpositive input (min={a.data.min():.6g}, produced by op {a._op!r})"
            )

        def bw(g):
            a._accum_owned(g / a.data)

        return Tensor._node(np.log(a.data), (a,), bw, "log")

    def exp(self):
        a = self
        out = np.exp(a.data)

        def bw(g):
            a._accum_owned(g * out)

        return Tensor._node(out, (a,), bw, "exp")

    def sigmoid(self):
        a = self
        out = _stable_sigmoid(a.data)

        def bw(g):
            a._accum_owned(g * out * (1.0 - out))

        return Tensor._node(out, (a,), bw, "sigmoid")

    def gelu(self):
        """tanh-form GELU as one node; smooth everywhere."""
        a = self
        t = gelu_tanh(a.data)
        # the backward reads the slope alone, so a taped node keeps only it
        slope = gelu_slope(a.data, t) if records((a,)) else None
        out = gelu_from_tanh(a.data, t, np.empty_like(a.data))

        def bw(g):
            a._accum_owned(np.multiply(g, slope, out=slope))

        return Tensor._node(out, (a,), bw, "gelu")

    def sin(self):
        a = self

        def bw(g):
            a._accum_owned(g * np.cos(a.data))

        return Tensor._node(np.sin(a.data), (a,), bw, "sin")

    def cos(self):
        a = self

        def bw(g):
            a._accum_owned(-g * np.sin(a.data))

        return Tensor._node(np.cos(a.data), (a,), bw, "cos")

    # -- reductions and shape ops ---------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accum_owned(np.broadcast_to(gg, a.data.shape).copy())

        return Tensor._node(out, (a,), bw, "sum")

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.data.shape

        def bw(g):
            a._accum(g.reshape(old))

        return Tensor._node(a.data.reshape(shape), (a,), bw, "reshape")

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        a = self
        inv = tuple(np.argsort(axes))

        def bw(g):
            a._accum(g.transpose(inv))

        return Tensor._node(a.data.transpose(axes), (a,), bw, "transpose")

    # -- backward --------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every reachable requires-grad tensor.

        The loss must be a scalar on a live graph; the graph is released
        afterwards and a second call on the same loss raises.
        """
        if self.data.shape != ():
            raise ValueError(f"backward: loss must be a scalar, got shape {self.data.shape}")
        if self._consumed:
            raise RuntimeError("backward: graph already consumed by a previous backward")
        self._consumed = True
        if not self.requires_grad:
            return
        self.grad = np.ones((), dtype=np.float64)
        # parents are older than their node, so newest-first runs each node after its consumers
        heap = [(-self._seq, self)]
        seen = {self._seq}
        while heap:
            n = heapq.heappop(heap)[1]
            parents, backward = n._parents, n._backward
            n._parents, n._backward = (), None
            if backward is not None and n.grad is not None:
                backward(n.grad)
            for p in parents:
                if p.requires_grad and p._seq not in seen:
                    seen.add(p._seq)
                    heapq.heappush(heap, (-p._seq, p))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        for p, piece in zip(parts, np.split(g, offsets, axis=axis)):
            if p.requires_grad:
                p._accum(piece)

    return Tensor._node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw, "concat")


# -- fused nodes ---------------------------------------------------------
#
# Each replaces a composite subgraph with one tape node. The forward and
# the backward run the numpy operations of the composed graph in its order
# (views included, since a reduction's or a matmul's bits can depend on the
# memory layout of its operands), so results and gradients are bit-identical
# to building the same expression from the elementary ops above.


def linear(x: Tensor, w: Tensor, b: Tensor, lora=None, scale: float = 1.0) -> Tensor:
    """``x @ wᵀ + b``, plus ``(x @ aᵀ @ bbᵀ) * scale`` when ``lora = (a, bb)``."""
    xd = x.data
    out = xd @ w.data.transpose()
    out += b.data
    parents = (x, w, b)
    if lora is not None:
        a, bb = lora
        low = xd @ a.data.transpose()
        delta = low @ bb.data.transpose()
        delta *= scale
        out += delta
        parents += (a, bb)

    def bw(g):
        # the LoRA term was added last, so its gradients go in first
        if lora is not None:
            gl = g * scale
            if x.requires_grad or a.requires_grad:
                glow = gl @ bb.data
                if x.requires_grad:
                    x._accum_owned(glow @ a.data)
                if a.requires_grad:
                    a._accum_owned((xd.swapaxes(-1, -2) @ glow).transpose())
            if bb.requires_grad:
                bb._accum_owned((low.swapaxes(-1, -2) @ gl).transpose())
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))
        if x.requires_grad:
            x._accum_owned(g @ w.data)
        if w.requires_grad:
            w._accum_owned((xd.swapaxes(-1, -2) @ g).transpose())

    return Tensor._node(out, parents, bw, "linear")


def layer_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    """``(x - mean) / sqrt(var + 1e-5) * g + b`` over the last axis."""
    xd = x.data
    inv_n = 1.0 / float(xd.shape[-1])
    xc = xd - xd.sum(axis=-1, keepdims=True) * inv_n
    xn = xc * xc
    root = xn.sum(axis=-1, keepdims=True)
    root *= inv_n
    root += 1e-5
    np.sqrt(root, out=root)
    np.divide(xc, root, out=xn)
    out = xn * g.data
    out += b.data

    def bw(grad):
        if b.requires_grad:
            b._accum(_unbroadcast(grad, b.data.shape))
        if g.requires_grad:
            g._accum_owned(_unbroadcast(grad * xn, g.data.shape))
        if not x.requires_grad:
            return
        gxn = grad * g.data
        gxc = gxn / root
        np.negative(gxn, out=gxn)
        # a product of two full-size operands is left to numpy, which picks
        # its layout, and with it the order in which the sum below adds
        gsq = gxn * xc
        gsq /= root * root
        groot = gsq.sum(axis=-1, keepdims=True)
        gvar = groot * (0.5 / root) * inv_n
        # the squared deviation feeds xc twice, so it lands twice
        np.multiply(gvar, xc, out=gsq)
        gxc += gsq
        gxc += gsq
        # gxn takes -gxc in gxc's layout, before x may adopt gxc
        gmean = np.negative(gxc, out=gxn).sum(axis=-1, keepdims=True)
        gmean *= inv_n
        # the centred path reaches x before the mean path
        x._accum_owned(gxc)
        x._accum(gmean)

    return Tensor._node(out, (x, g, b), bw, "layer_norm")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head ``softmax(q kᵀ / sqrt(hd)) v`` on (n, heads * hd) rows:
    the head split, the scaled scores, the softmax and the head merge."""
    nq, d = q.data.shape
    nk = k.data.shape[0]
    hd = d // heads
    qh = q.data.reshape(nq, heads, hd).transpose(1, 0, 2)
    kt = k.data.reshape(nk, heads, hd).transpose(1, 0, 2).transpose(0, 2, 1)
    vh = v.data.reshape(nk, heads, hd).transpose(1, 0, 2)
    scale = hd**-0.5
    e = qh @ kt
    e *= scale
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    den = e.sum(axis=-1, keepdims=True)
    att = e / den
    out = (att @ vh).transpose(1, 0, 2).reshape(nq, d)

    def bw(g):
        gav = g.reshape(nq, heads, hd).transpose(1, 0, 2)
        if v.requires_grad:
            gvh = att.swapaxes(-1, -2) @ gav
            v._accum_owned(gvh.transpose(1, 0, 2).reshape(nk, d))
        if not (q.requires_grad or k.requires_grad):
            return
        gatt = gav @ vh.swapaxes(-1, -2)
        gs = gatt / den
        np.negative(gatt, out=gatt)
        gatt *= e
        gatt /= den * den
        gs += gatt.sum(axis=-1, keepdims=True)
        gs *= e
        gs *= scale
        if k.requires_grad:
            gkt = qh.swapaxes(-1, -2) @ gs
            k._accum_owned(gkt.transpose(0, 2, 1).transpose(1, 0, 2).reshape(nk, d))
        if q.requires_grad:
            q._accum_owned((gs @ kt.swapaxes(-1, -2)).transpose(1, 0, 2).reshape(nq, d))

    return Tensor._node(out, (q, k, v), bw, "attention")


def log_softmax(x: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Numerically stable log of the temperature-scaled softmax.

    The max shift is detached; softmax is invariant to additive shifts so
    the gradient is unaffected.
    """
    if temperature <= 0:
        raise ValueError(f"log_softmax: temperature must be positive, got {temperature}")
    y = x * (1.0 / float(temperature))
    shifted = y - Tensor(np.max(y.data, axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


# -- optimizer -----------------------------------------------------------


ADAM_BETA1 = 0.9  # decay of the first-moment estimate
ADAM_BETA2 = 0.999  # decay of the second-moment estimate
ADAM_EPS = 1e-8  # added to the root of the second moment


class ParamGroup(dict):
    """Named tensors whose ``.data`` are views into one contiguous float64
    vector, ``flat``, laid out in the mapping's order, together with the
    group's Adam state: the step count and the moments ``m`` and ``v``,
    laid out like ``flat``.

    Forming the group copies each member's values into ``flat`` and rebinds
    the member's ``.data`` to its view, so one optimizer step or one EMA
    step over the group is a few whole-vector operations. Afterwards a
    member is updated in place; rebinding its ``.data`` detaches it from
    the group, and ``adam_step`` refuses it. ``layout`` (each name with its
    shape, in order) says which groups' vectors line up element for
    element.
    """

    def __init__(self, params: Mapping[str, Tensor]):
        super().__init__(params)
        self.layout = tuple((name, p.data.shape) for name, p in self.items())
        self.flat = np.empty(sum(p.data.size for p in self.values()))
        offset = 0
        for p in self.values():
            view = self.flat[offset:offset + p.data.size].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            offset += view.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.step = 0

    def reset_moments(self):
        """Forget the Adam state in place: step 0, zero moments."""
        self.step = 0
        self.m[...] = 0.0
        self.v[...] = 0.0


def adam_step(params: ParamGroup, lr: float, weight_decay: float = 0.0):
    """One Adam update over a parameter group and its own moments; clears
    gradients.

    Weight decay is classic L2 added to the gradient before the moment
    updates (coupled form). The whole-vector in-place operations replay the
    per-tensor expressions operand for operand, so the bits are those of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p = p - lr*(m/c1) / (sqrt(v/c2) + eps)``. Every member is checked
    before anything is updated.
    """
    flat = params.flat
    grads = []
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
        if p.data.base is not flat:
            raise ValueError(f"adam_step: parameter {name!r} is not a view of its group's vector "
                             f"(its .data was rebound); update it in place")
        grads.append(p.grad.reshape(-1))
    g = np.concatenate(grads)
    if weight_decay:
        g += weight_decay * flat
    params.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** params.step
    c2 = 1.0 - b2 ** params.step
    m, v = params.m, params.v
    m *= b1
    t = (1.0 - b1) * g
    m += t
    v *= b2
    np.multiply(1.0 - b2, g, out=t)
    t *= g
    v += t
    np.divide(m, c1, out=t)
    t *= lr
    np.divide(v, c2, out=g)
    np.sqrt(g, out=g)
    g += ADAM_EPS
    t /= g
    flat -= t
    for p in params.values():
        p.grad = None
