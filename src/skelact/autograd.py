"""Dense tensor engine with reverse-mode differentiation.

Covers exactly the operation set the recognition pipeline needs: matmul with
broadcast batch dims, pointwise arithmetic of two tensors with
singleton-axis broadcasting, leaky ReLU, row softmax, fully connected
layers, the encoder's fused image body (embedding product, attention and
temporal add; the composed ops are its reference), strided 2D convolution,
2x2 max pooling, a fused channels-last conv/pool/leaky-ReLU stage (the CNN
hot path; the three separate ops are its reference), frame-difference
velocity, shape plumbing (reshape, transpose, concat), and a fused softmax
cross-entropy loss.

Tensors hold 32-bit values for training and inference.  A parallel 64-bit
mode (pass ``dtype=np.float64`` when building parameters) exists solely for
finite-difference verification of the gradients.

The tape is define-by-run: activate one with ``with Tape():`` around the
forward pass, call :func:`backward` on the scalar loss, and rebuild a fresh
tape next step; backward takes the tape's nodes and releases each one once
its backward rule has run, so one tape serves one backward and what the
forward saved is freed as the pass goes.  With no tape active every op is
pure forward computation.
Broadcasting follows the singleton-axis rule only: an axis of extent 1
stretches, shorter ranks are left-padded with 1s, and nothing else aligns.

The CNN ops take a batch axis only: ``conv2d``, ``maxpool2d`` and the fused
stage accept (B, ..) inputs and nothing else.  The fused stage is the one
place a CNN stage is computed, for training and for ``recognizer.infer``
alike.  Its body is the array-level :func:`conv_pool_leaky_arrays`, which
returns the output and, when recorded, the backward rule; the recognizer's
streams node chains each stream's rules itself.  The image body,
:func:`embed_image_arrays`, takes (B, C, J, T) channels and a (B, T, T)
attention map or none, and returns an :class:`ImageSource`, which the
stem fills into its pad a batch block at a time, and whose block backward
the stem's rule hands each block's input gradient.  The stage pads its
input into a per-thread workspace buffer, reused call after call, and
its im2col columns, conv output and pooled maxima (in the spent pad)
live there too.  Its GEMM rows are in pooling-corner-major order, so the
conv output is four contiguous corner slabs.  What its input is, not how
its memory lies, sets its taps: an image source (the stem) is padded
channel-first with (c, i, j) taps, an array (stages 2 and 3)
channels-last with (i, j, c) taps.  It runs its per-sample work, forward
and backward, in near-equal batch blocks of at most ``BLOCK_ROWS`` GEMM
rows, so its workspace holds one block (only stage 1 of a batch of 17 or
more splits).  The edges are balanced, since a short tail block's GEMM
has given other bits.  The kernel and bias gradients, which add over
every row, add the blocks' partial sums in block order, so they alone
depend on the blocks.  An image source's block of half ``BLOCK_ROWS`` or
more fills its columns transposed, the faster copy, for GEMMs that
OpenBLAS runs with the same bits.
Arrays a tape records are always fresh, and so are the stage's output
and every gradient a backward rule returns; the stage's backward rule
rebuilds its columns from its saved input or image source and keeps
its conv and column gradients in the running thread's workspace, the
stem's gathered taps in its spent pad and each block's input gradient in
its spent conv buffer; the image source's block backward recomputes the
block's pre-attention product in the spent column buffer.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, UsageError

REAL = np.float32
LEAKY_SLOPE = 0.01  # every leaky ReLU's negative slope

class Tensor:
    """A dense array participating in automatic differentiation.

    ``data`` is a row-major numpy array (float32 unless ``dtype`` is given
    explicitly).  ``grad`` is populated by :func:`backward`.  A leaf (a
    tensor no op produced, such as a parameter) owns its gradient and
    accumulates into it across calls; callers zero it between optimizer
    steps.  An op output's ``grad`` is a read-only view of the gradient
    backward passed through it, not a copy.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=REAL if dtype is None else dtype)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, delta: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(delta, self.data.shape), dtype=self.data.dtype)
        else:
            if not self.grad.flags.writeable:  # the view an earlier backward left
                self.grad = self.grad.copy()
            self.grad += delta

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...], backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Append-only record of ops in execution (hence topological) order.

    The active tape is per thread (and per asyncio task): ops run elsewhere
    never record onto it.  :func:`backward` consumes the tape.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TAPE.reset(self._token)


_ACTIVE_TAPE: ContextVar[Tape | None] = ContextVar("skelact_active_tape", default=None)


@contextmanager
def no_tape():
    """Run the block with no active tape, so none of its ops is recorded."""
    token = _ACTIVE_TAPE.set(None)
    try:
        yield
    finally:
        _ACTIVE_TAPE.reset(token)


def _recording(inputs: tuple[Tensor, ...]) -> Tape | None:
    """The tape an op over ``inputs`` records onto, or None."""
    tape = _ACTIVE_TAPE.get()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


def _finish(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn, op: str) -> Tensor:
    out = Tensor(out_data, dtype=out_data.dtype)
    tape = _recording(inputs)
    if tape is not None:
        out.requires_grad = True
        out._tape = tape
        tape.nodes.append(_Node(out, inputs, backward_fn))
    return out


# One byte buffer per role per thread, grown to the largest size asked for.
_WORKSPACE = threading.local()


def _workspace(role: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A contiguous (shape, dtype) view of this thread's ``role`` buffer.

    The view is overwritten by the next call for the same role, so it may
    only hold an array that does not outlive the op's call: never one a
    backward closure reads.  A stage block's pooled maxima and the stem's
    gathered taps reuse the ``pad`` buffer: both start after
    :func:`_columns`, its one reader, has filled the block's columns; an
    image source's fill builds the block in ``cols`` before they are filled.
    In the stem's backward, a block's input gradient reuses ``conv`` once
    the column-gradient GEMM has read it, and the image source's block
    backward recomputes the block's product in ``cols`` once col2im has
    read the column gradient.
    """
    nbytes = math.prod(shape) * dtype.itemsize
    buf = getattr(_WORKSPACE, role, None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_WORKSPACE, role, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing singleton-axis broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcast_check(a_shape, b_shape, op: str) -> None:
    try:
        np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise DimensionError(f"{op}: cannot broadcast shapes {a_shape} and {b_shape}") from None


# ---------------------------------------------------------------------------
# pointwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a.shape, b.shape, "add")
    out = a.data + b.data

    def back(d):
        return _unbroadcast(d, a.shape), _unbroadcast(d, b.shape)

    return _finish(out, (a, b), back, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a.shape, b.shape, "sub")
    out = a.data - b.data

    def back(d):
        return _unbroadcast(d, a.shape), _unbroadcast(-d, b.shape)

    return _finish(out, (a, b), back, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a.shape, b.shape, "mul")
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def back(d):
        return _unbroadcast(d * b_data, a.shape), _unbroadcast(d * a_data, b.shape)

    return _finish(out, (a, b), back, "mul")


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * a.data.dtype.type(s)

    def back(d):
        return (d * s,)

    return _finish(out, (a,), back, "scale")


# ---------------------------------------------------------------------------
# matrix products


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    _broadcast_check(a.shape[:-2], b.shape[:-2], "matmul batch dims")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data

    def back(d):
        da = _unbroadcast(d @ np.swapaxes(b_data, -1, -2), a.shape)
        db = _unbroadcast(np.swapaxes(a_data, -1, -2) @ d, b.shape)
        return da, db

    return _finish(out, (a, b), back, "matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x . weight^T + bias, over the trailing axis of x."""
    n_in = weight.shape[1]
    if x.shape[-1] != n_in:
        raise DimensionError(f"linear: input extent {x.shape} does not match weight {weight.shape}")
    out = x.data @ weight.data.T
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise DimensionError(f"linear: bias {bias.shape} does not match weight {weight.shape}")
        out = out + bias.data
    x_data, w_data = x.data, weight.data

    def back(d):
        d2 = d.reshape(-1, d.shape[-1])
        x2 = x_data.reshape(-1, n_in)
        dx = (d @ w_data).reshape(x_data.shape)
        dw = d2.T @ x2
        if bias is None:
            return dx, dw
        return dx, dw, d2.sum(axis=0)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _finish(out, inputs, back, "linear")


class ImageSource(NamedTuple):
    """An image no array holds.  ``fill(lo, hi, out)`` writes rows
    ``lo:hi`` of its first axis (a (B, C, H, W) image's samples) into array
    ``out``.  ``back(lo, hi, d)`` takes the gradient ``d`` of those rows,
    which it may overwrite; called for consecutive blocks from row 0 to the
    last, it returns the gradients of the image's inputs after the last
    block and None before it.  A source only an unrecorded stage reads
    may have no ``back`` (None)."""

    shape: tuple[int, ...]
    dtype: np.dtype
    fill: Callable[[int, int, np.ndarray], None]
    back: Callable[[int, int, np.ndarray], tuple | None] | None


def _carry(part: np.ndarray, total: np.ndarray | None, axes: int) -> np.ndarray:
    """``part`` summed over its first ``axes`` axes, continuing ``total``, the
    sum of the rows before it, which is added into part's first row: the
    blocks' rows add one by one in the whole array's order, as one sum over
    it would (numpy's starts from +0, so ``total`` is never -0).  ``part`` is
    overwritten."""
    if total is not None:
        part[(0,) * axes] += total
    return part.sum(axis=tuple(range(axes)))


def embed_image_arrays(channels: np.ndarray, weight: np.ndarray, attention: np.ndarray | None,
                       temporal: np.ndarray | None) -> ImageSource:
    """One encoder image on arrays, as an :class:`ImageSource`: the (T, J)
    ``weight`` times each (J, T) channel of a (B, C, J, T) ``channels``,
    then, given the (B, T, T) attention map A spread over channels,
    ``product * A + product``, then, given the length-T ``temporal``
    vector, that added to every row.  Any other shape raises
    :class:`DimensionError`.  The source's ``back`` returns
    ``(d_channels, d_weight, d_attention, d_temporal)``, with None for an
    absent input.

    Values and gradients are bit for bit those of the composed nodes
    ``temporal_embed(apply_attention(embed_to_image(.)))`` in the encoder,
    for any blocks: the fill keeps their operand order (each channel's
    product is a GEMM of its own, so any block has the whole image's bits),
    and ``back`` sums each gradient as they do (``d + d * A`` into the
    product, each sample's attention gradient summed over its channels, the
    temporal one over rows, channels and batch).  The embedding and
    temporal gradients' sums over the batch continue from block to block by
    :func:`_carry`, so they keep the whole batch's row-by-row order.  The
    fill builds its block in this thread's ``cols`` workspace, then copies
    it into ``out``; ``back``, given attention, recomputes the block's
    product there (the same GEMM, so the same bits), so neither saves
    anything beyond the inputs.
    """
    t, j = weight.shape
    if channels.ndim != 4 or channels.shape[-2:] != (j, t):
        raise DimensionError(f"embedding {weight.shape} cannot map channels {channels.shape}: expects (B, C, {j}, {t})")
    shape, dtype = channels.shape[:2] + (t, t), np.result_type(weight, channels)
    if attention is not None:
        if attention.shape != (shape[0], t, t):
            raise DimensionError(f"attention {attention.shape} does not match a {shape} image: expects (B, T, T)")
        spread = attention[:, None]  # (B, 1, T, T), broadcast over channels
    if temporal is not None and temporal.shape != (t,):
        raise DimensionError(f"temporal vector {temporal.shape} does not match a {t}x{t} image")

    def fill(lo, hi, out):
        work = _workspace("cols", (2, hi - lo, *shape[1:]), dtype)
        image = np.matmul(weight, channels[lo:hi], out=work[0])
        if attention is not None:
            image = np.multiply(work[0], spread[lo:hi], out=work[1])
            image += work[0]
        if temporal is not None:
            image += temporal
        np.copyto(out, image)

    d_channels = d_weight = d_attention = d_temporal = None

    def back(lo, hi, d):
        nonlocal d_channels, d_weight, d_attention, d_temporal
        if lo == 0:  # a pass starts: nothing carried
            d_weight = d_temporal = None
            if attention is not None:
                d_attention = np.empty(attention.shape, dtype)
        d_product = d
        if attention is not None:
            product = np.matmul(weight, channels[lo:hi], out=_workspace("cols", d.shape, dtype))  # the fill's bits
            product *= d
            d_attention[lo:hi] = product.sum(axis=1)  # over the channels
            d_product = np.multiply(d, spread[lo:hi], out=product)
            d_product += d  # fl(d * A + d) = fl(d + d * A)
        if lo == 0:
            d_channels = np.empty(channels.shape, np.result_type(weight, d_product))
        np.matmul(np.swapaxes(weight, -1, -2), d_product, out=d_channels[lo:hi])
        d_weight = _carry(d_product @ np.swapaxes(channels[lo:hi], -1, -2), d_weight, 2)
        if temporal is not None:  # last, as it adds into d
            d_temporal = _carry(d, d_temporal, 3)
        return None if hi < shape[0] else (d_channels, d_weight, d_attention, d_temporal)

    return ImageSource(shape, dtype, fill, back)


# ---------------------------------------------------------------------------
# activations and normalization


def leaky_relu(x: Tensor) -> Tensor:
    mask = x.data >= 0
    out = np.where(mask, x.data, x.data * x.data.dtype.type(LEAKY_SLOPE))

    def back(d):
        return (np.where(mask, d, d * LEAKY_SLOPE),)

    return _finish(out, (x,), back, "leaky_relu")


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, max-subtracted for stability."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(d):
        inner = (d * out).sum(axis=-1, keepdims=True)
        return ((d - inner) * out,)

    return _finish(out, (x,), back, "softmax_rows")


# ---------------------------------------------------------------------------
# convolution and pooling


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 2, padding: int = 1) -> Tensor:
    """Strided cross-correlation of a (B,C,H,W) input.

    Output extent per spatial axis is floor((n + 2*padding - k) / stride) + 1.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv2d expects (B,C,H,W), got {x.shape}")
    c_out, c_in, kh, kw = kernels.shape
    batch, c_x, h, w = xd.shape
    if c_x != c_in:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernels {kernels.shape}")
    if bias.shape != (c_out,):
        raise DimensionError(f"conv2d bias {bias.shape} does not match kernels {kernels.shape}")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise DimensionError(f"conv2d output extent < 1 for input {x.shape} with k={kh}, stride={stride}, padding={padding}")

    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else xd
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(batch * h_out * w_out, c_in * kh * kw)
    kmat = kernels.data.reshape(c_out, -1)
    out = (cols @ kmat.T + bias.data).reshape(batch, h_out, w_out, c_out).transpose(0, 3, 1, 2)

    def back(d):
        d2 = np.ascontiguousarray(d.transpose(0, 2, 3, 1)).reshape(-1, c_out)
        dk = (d2.T @ cols).reshape(kernels.shape)
        db = d2.sum(axis=0)
        dcols = (d2 @ kmat).reshape(batch, h_out, w_out, c_in, kh, kw)
        hp, wp = h + 2 * padding, w + 2 * padding
        dxp = np.zeros((batch, c_in, hp, wp), dtype=d.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        dx = dxp[:, :, padding : padding + h, padding : padding + w] if padding else dxp
        return dx, dk, db

    return _finish(out, (x, kernels, bias), back, "conv2d")


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pool with stride 2; gradient routes to the first max per window."""
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"maxpool2d expects (B,C,H,W), got {x.shape}")
    b, c, h, w = xd.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2d requires even spatial extents, got {x.shape}")
    h2, w2 = h // 2, w // 2
    windows = xd.reshape(b, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h2, w2, 4)
    idx = windows.argmax(axis=-1)  # first occurrence wins ties (row-major window order)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def back(d):
        dwin = np.zeros((b, c, h2, w2, 4), dtype=d.dtype)
        np.put_along_axis(dwin, idx[..., None], d[..., None], axis=-1)
        return (dwin.reshape(b, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w),)

    return _finish(out, (x,), back, "maxpool2d")


# The most GEMM rows one batch block of a fused stage runs.  Stage 1 of a
# B=64 batch is 65,536 rows, whose columns and conv output (7.1 and 8.4 MB
# in float32) each pass over them reads from L3 or memory; one block's are
# a quarter of that.
BLOCK_ROWS = 16384


def _batch_blocks(batch: int, rows: int) -> list[tuple[int, int]]:
    """The (first, end) samples of the near-equal batch blocks a fused stage
    with ``rows`` GEMM rows per sample runs in: ceil(batch * rows /
    BLOCK_ROWS) blocks, at most one per sample, block i starting at
    batch * i // count.  Balanced edges keep every block of a split batch
    at half of BLOCK_ROWS or more, where a short tail block's GEMM has
    given other bits."""
    count = max(1, min(batch, -(-batch * rows // BLOCK_ROWS)))
    edges = [batch * i // count for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _fill_columns(xp: np.ndarray, cols: np.ndarray, kh: int, kw: int, channels_last: bool) -> None:
    """im2col of a zero-bordered buffer for a stride-2 kh x kw kernel into
    row-major ``cols``, rows in pooling-corner-major (ci, cj, b, y', x')
    order: the conv output pixel (2y' + ci, 2x' + cj) of sample b, so each
    corner of the 2x2 pool is one contiguous slab of rows.  A channel-first
    (B, C, H, W) ``xp`` gives columns in (c, i, j) order, copied as items
    of the kw adjacent taps of one (c, i) kernel row; a ``channels_last``
    (B, H, W, C) one gives (i, j, c) order, copied as items of the kw * C
    adjacent values of one kernel row i.  One copy moves every item."""
    if channels_last:
        (batch, hp, wp, c_in), (s_b, s_h, s_w, s_c) = xp.shape, xp.strides
        taps, tap_strides, item = (kh,), (s_h,), kw * c_in
    else:
        (batch, c_in, hp, wp), (s_b, s_c, s_h, s_w) = xp.shape, xp.strides
        taps, tap_strides, item = (c_in, kh), (s_c, s_h), kw
    shape = (2, 2, batch, ((hp - kh) // 2 + 1) // 2, ((wp - kw) // 2 + 1) // 2, *taps)
    tap = np.dtype(f"V{item * xp.dtype.itemsize}")
    np.copyto(np.ndarray(shape, tap, cols, strides=cols.reshape(*shape, item).strides[:-1]),
              np.ndarray(shape, tap, xp, strides=(2 * s_h, 2 * s_w, s_b, 4 * s_h, 4 * s_w, *tap_strides)))


def _fill_columns_transposed(xp: np.ndarray, cols_t: np.ndarray, kh: int, kw: int) -> None:
    """:func:`_fill_columns`' columns of a channel-first buffer, transposed:
    one row of ``cols_t`` per (c, i, j) tap, holding that tap's samples in
    (ci, cj, b, y', x') order, so one copy moves single elements."""
    batch, c_in, hp, wp = xp.shape
    s_b, s_c, s_h, s_w = xp.strides
    shape = (c_in, kh, kw, 2, 2, batch, ((hp - kh) // 2 + 1) // 2, ((wp - kw) // 2 + 1) // 2)
    np.copyto(cols_t.reshape(shape), np.lib.stride_tricks.as_strided(
        xp, shape, (s_c, s_h, s_w, 2 * s_h, 2 * s_w, s_b, 4 * s_h, 4 * s_w)))


def _columns(xd: np.ndarray | ImageSource, lo: int, hi: int, kh: int, kw: int, c_out: int) -> np.ndarray:
    """The stride-2 padding-1 im2col columns of samples ``lo:hi`` of a
    (B, H, W, C) array or an image source for a GEMM with ``c_out``
    outputs, rows in :func:`_fill_columns`' pooling-corner-major order, in
    this thread's workspace: the samples copied or filled into the
    zero-bordered ``pad`` buffer, then filled into ``cols``.

    An array (stages 2 and 3) is padded channels-last and gives (i, j, c)
    columns, each row built from kw * C-element runs; an image source (the
    stem) is filled into a channel-first pad and gives (c, i, j) columns.
    With one channel the two orders agree.  An image source's columns of
    ``BLOCK_ROWS // 2`` rows or more for two or more outputs (every block
    of a split stage 1) are filled transposed and returned as a transposed
    view: that fill takes a third of the time (0.36 against 0.98 ms for a
    16-sample float32 stage-1 block on a 2-vCPU Xeon), and OpenBLAS gives a
    GEMM this large the same bits with either operand layout.  Smaller
    GEMMs (its small-matrix kernels) and single-output ones (a
    matrix-vector product) do not, so their columns stay row-major."""
    source = isinstance(xd, ImageSource)
    batch, h, w, c_in = hi - lo, *_nhwc(xd)[1:]
    xp = _workspace("pad", (batch, c_in, h + 2, w + 2) if source else (batch, h + 2, w + 2, c_in), xd.dtype)
    view = xp.transpose(0, 2, 3, 1) if source else xp  # (B, H + 2, W + 2, C) either way
    view[:, 0], view[:, -1], view[:, :, 0], view[:, :, -1] = 0, 0, 0, 0  # the border only
    if source:
        xd.fill(lo, hi, xp[:, :, 1:-1, 1:-1])
    else:
        view[:, 1:-1, 1:-1] = xd[lo:hi]
    rows, taps = batch * ((h + 2 - kh) // 2 + 1) * ((w + 2 - kw) // 2 + 1), c_in * kh * kw
    if not source or rows < BLOCK_ROWS // 2 or c_out < 2:
        cols = _workspace("cols", (rows, taps), xd.dtype)
        _fill_columns(xp, cols, kh, kw, channels_last=not source)
        return cols
    cols_t = _workspace("cols", (taps, rows), xd.dtype)
    _fill_columns_transposed(xp, cols_t, kh, kw)
    return cols_t.T


def _nhwc(xd: np.ndarray | ImageSource) -> tuple[int, ...]:
    """A stage input's (B, H, W, C) extents: an image source's permuted."""
    return tuple(xd.shape[n] for n in (0, 2, 3, 1)) if isinstance(xd, ImageSource) else xd.shape


def _pool_then_bias(conv: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """2x2 max pool of a corner-major (4, B, H', W', C) conv output into
    this thread's spent pad buffer, the max of its four corner slabs in
    row-major corner order, then the bias added.  fl(a + b) is monotone in
    a and max only selects, so this is bit for bit the pool of ``conv +
    bias``, the order a recorded stage keeps for its tie routing."""
    pooled = _workspace("pad", conv.shape[1:], conv.dtype)
    np.maximum(conv[0], conv[1], out=pooled)
    np.maximum(pooled, conv[2], out=pooled)
    np.maximum(pooled, conv[3], out=pooled)
    pooled += bias
    return pooled


def conv_pool_leaky_arrays(xd: np.ndarray | ImageSource, kernels: np.ndarray, bias: np.ndarray,
                           recorded: bool) -> tuple[np.ndarray, Callable | None]:
    """One channels-last CNN stage on arrays: stride-2 padding-1 conv, 2x2
    max pool, leaky ReLU.  Returns the output and, when ``recorded``, the
    stage's backward rule, ``d -> (d_input, d_kernels, d_bias)``, where an
    image source's ``d_input`` is what its ``back`` returns; else None.
    The recognizer's streams chain its rules themselves.

    Takes a (B,H,W,C_in) array, or an :class:`ImageSource` of a
    (B,C_in,H,W) image, and returns (B,H'/2,W'/2,C_out), with the values
    of ``leaky_relu(maxpool2d(conv2d(.)))`` on the channel-first layout to
    within float rounding: its dot products add in another order, so the
    two agree within 1e-5 relative in float32 (``tests/conftest.py``'s
    ``reference_stage`` gives the exact bits).  The GEMM rows of each
    batch block are in pooling-corner-major order (:func:`_fill_columns`),
    so the conv output is four contiguous corner slabs.  An array (stages
    2 and 3), however its memory lies, is padded channels-last and its
    columns are in (i, j, c) order, so the GEMM reads one small
    (C_out, kh, kw, C_in) copy of the kernels; an image source (the stem)
    keeps conv2d's (c, i, j) columns.  At the stem's sizes (1,024 GEMM
    rows a sample) OpenBLAS computes each row alike wherever it sits, so
    the stem's conv output and input gradient have the bits they had in
    natural row order; a toy stage's small GEMMs may not.  Kernels keep
    their (C_out,C_in,kh,kw) layout in the parameters, and ``d_kernels``
    comes back in it.
    The input is copied (a source filled) into a zero-bordered pad buffer,
    and the im2col columns and the conv output, then the pooled maxima in
    the spent pad, live in this thread's workspace; the output is fresh.
    The per-sample work runs in the near-equal batch blocks of
    :func:`_batch_blocks`, at most ``BLOCK_ROWS`` GEMM rows each, so the
    forward's workspace holds one block at a time (only stage 1 of a batch
    of 17 or more splits).  Each block's pad, columns, conv GEMM, pool and
    leaky ReLU run before the next block's, writing into that block's
    slice of the fresh output.  OpenBLAS computes each row of a GEMM of
    half ``BLOCK_ROWS`` rows or more as the same dot product however the
    rows are blocked or ordered, and the other forward steps are
    elementwise, so a blocked stage is bit for bit one block.
    A recorded call adds the bias before it pools, and keeps one int8 code
    per window: the corner of its first maximum, from strict ``>`` compares
    taken in row-major corner order, plus 4 where the pooled maximum is
    >= 0.  Backward scales the window's gradient by the slope, copies it
    back unscaled where the code is 4 or more, and routes it to that
    corner (the code's low two bits).  A compare with a NaN is false and
    the running maximum stays NaN once it meets one, so a window holding a
    NaN routes its gradient to the first maximum of the corners before its
    first NaN, or to that NaN when it is the first corner (``maxpool2d``
    routes it to the first NaN).
    The leaky slope of the gradient follows the sign of the pooled maximum
    (a NaN is not >= 0), not of the output, which is -0 where a tiny
    negative maximum times the slope underflows.  Backward reads only the
    input and those codes, and runs the forward's batch blocks one after
    another, so its workspace holds one block too.  For each block it routes the
    pooled gradient, corner by corner, into this thread's ``conv`` buffer
    in corner-major (ci, cj, b, y', x') row order and sums it for the
    block's ``db`` partial (each value routed to one conv row, a quarter of
    the rows), refills the pad and column buffers from the block's input in
    that same order, and takes the block's ``dk`` partial as one GEMM.  The
    column gradient is a GEMM into the ``cols`` buffer, which the stem
    gathers into the spent pad, and col2im adds it into the block's slice
    of the fresh input gradient, every element summing its taps in (i, j)
    row-major order from +0.  A stem on an image source builds no input
    gradient: col2im adds into the block's zero-bordered gradient in the
    spent ``conv`` buffer, zeroed to +0 once the column-gradient GEMM has
    read it, and the rule hands that block, channel-first, to the source's
    ``back``, which returns the image's input gradients after the last
    block.  The ``dk`` and
    ``db`` partials add up in block order, starting from the first block's,
    so a call that runs as one block (stages 2 and 3, and any batch of 16
    or fewer) has the bits of one whole-batch sum; only a split stage 1's
    ``dk`` and ``db`` depend on the blocks.  The tape keeps no columns, and
    every returned gradient is fresh.
    An unrecorded call (``recognizer.infer``'s and ``stream_forward``'s)
    pools before the bias add, building no codes: the same bits, with less
    work.
    The input gradient follows the input's kind: an array gets a
    channels-last gradient, and each block an image source is handed is in
    conv2d's channel-first memory, so the reductions over it upstream (the
    temporal embedding's) add in conv2d's order.
    """
    if len(xd.shape) != 4:
        raise DimensionError(f"conv_pool_leaky expects (B,H,W,C), got {xd.shape}")
    c_out, c_in, kh, kw = kernels.shape
    batch, h, w, c_x = _nhwc(xd)
    if c_x != c_in:
        raise DimensionError(f"conv_pool_leaky channel mismatch: input {xd.shape} vs kernels {kernels.shape}")
    if bias.shape != (c_out,):
        raise DimensionError(f"conv_pool_leaky bias {bias.shape} does not match kernels {kernels.shape}")
    h_out, w_out = (h + 2 - kh) // 2 + 1, (w + 2 - kw) // 2 + 1
    if h_out < 1 or w_out < 1 or h_out % 2 or w_out % 2:
        raise DimensionError(f"conv_pool_leaky: conv output {h_out}x{w_out} of input {xd.shape} cannot be pooled 2x2")

    source = isinstance(xd, ImageSource)  # (c, i, j) taps; an array's are (i, j, c)
    kmat = (kernels if source else kernels.transpose(0, 2, 3, 1)).reshape(c_out, -1)
    dtype = np.result_type(xd.dtype, kmat)
    h2, w2 = h_out // 2, w_out // 2
    blocks = _batch_blocks(batch, h_out * w_out)
    out = np.empty((batch, h2, w2, c_out), dtype)
    if recorded:
        code = np.empty(out.shape, np.int8)  # each window's first max's corner, plus 4 where the max is >= 0
    for lo, hi in blocks:
        conv = _workspace("conv", (4, hi - lo, h2, w2, c_out), dtype)  # corner slabs, row-major corner order
        np.matmul(_columns(xd, lo, hi, kh, kw, c_out), kmat.T, out=conv.reshape(-1, c_out))
        if recorded:
            conv += bias  # bias first: the index below compares the biased corners
            pooled = _workspace("pad", conv.shape[1:], dtype)  # the pad is spent: the columns are filled
            index = code[lo:hi]
            np.greater(conv[1], conv[0], out=index.view(bool))
            np.maximum(conv[0], conv[1], out=pooled)
            for n in (2, 3):
                later = np.greater(conv[n], pooled).view(np.int8)
                np.maximum(index, later * n, out=index)
                np.maximum(pooled, conv[n], out=pooled)
            index |= np.greater_equal(pooled, 0).view(np.int8) << 2
        else:
            pooled = _pool_then_bias(conv, bias)
        np.multiply(pooled, dtype.type(LEAKY_SLOPE), out=out[lo:hi])
        np.maximum(out[lo:hi], pooled, out=out[lo:hi])  # leaky ReLU, as the slope is < 1

    def back(d):
        if not source:
            dxp = np.zeros((batch, h + 2, w + 2, c_in), dtype=d.dtype)
        for lo, hi in blocks:
            nb = hi - lo
            dpool = d[lo:hi] * dtype.type(LEAKY_SLOPE)
            np.copyto(dpool, d[lo:hi], where=code[lo:hi] >= 4)  # d * slope or d, as np.where would
            db_part = dpool.reshape(-1, c_out).sum(axis=0)
            dconv = _workspace("conv", (4, *dpool.shape), dtype)
            corner = code[lo:hi] & 3
            for n in range(4):
                np.multiply(dpool, corner == n, out=dconv[n])
            del dpool, corner  # before the refill
            d2 = dconv.reshape(-1, c_out)
            cols = _columns(xd, lo, hi, kh, kw, c_out)
            # on the transposed view, the C-contiguous product is the faster GEMM, with the same bits
            dk_part = d2.T @ cols if cols.flags.c_contiguous else (cols.T @ d2).T
            if lo == 0:  # the sums start from the first block's partials, so one block keeps their bits
                dk, db = dk_part, db_part
            else:
                dk += dk_part
                db += db_part
            dcols = _workspace("cols", (4, nb, h2, w2, c_in * kh * kw), dtype)  # dk has read the columns
            np.matmul(d2, kmat, out=dcols.reshape(len(d2), -1))
            if source:  # the conv gradient is spent: the block's bordered input gradient goes in its buffer
                into = _workspace("conv", (nb, c_in, h + 2, w + 2), d.dtype)
                into[...] = 0
                into = into.transpose(0, 2, 3, 1)
                # each corner gathered at its parity into (b, c, i, j, y, x), as the memory runs
                corners = dcols.reshape(2, 2, nb, h2, w2, c_in, kh, kw)
                taps = _workspace("pad", (nb, c_in, kh, kw, h_out, w_out), dtype)  # the refill is spent
                for ci in (0, 1):
                    for cj in (0, 1):
                        taps[..., ci::2, cj::2] = corners[ci, cj].transpose(0, 3, 4, 5, 1, 2)
                taps = taps.reshape(nb, c_in, kh, kw, h2, 2, w2, 2).transpose(0, 4, 5, 6, 7, 1, 2, 3)
            else:  # (ci, cj, b, y', x', i, j, c) rows read as (b, y', ci, x', cj, c, i, j)
                into = dxp[lo:hi]
                taps = dcols.reshape(2, 2, nb, h2, w2, kh, kw, c_in).transpose(2, 3, 0, 4, 1, 7, 5, 6)
            for i in range(kh):  # each element sums its taps in (i, j) row-major order from +0
                for j in range(kw):
                    at = into[:, i : i + 2 * h_out : 2, j : j + 2 * w_out : 2].reshape(nb, h2, 2, w2, 2, c_in)
                    at += taps[..., i, j]
            if source:  # the image's inputs' gradients, once the last block is in
                dx = xd.back(lo, hi, into[:, 1 : 1 + h, 1 : 1 + w].transpose(0, 3, 1, 2))
        if not source:  # (C_out, kh, kw, C_in) back to the kernels' layout
            dk = dk.reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
            dx = dxp[:, 1 : 1 + h, 1 : 1 + w]
        return dx, np.ascontiguousarray(dk).reshape(kernels.shape), db

    return out, back if recorded else None


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.data.shape
    out = x.data.reshape(shape)

    def back(d):
        return (d.reshape(old),)

    return _finish(out, (x,), back, "reshape")


def transpose_last2(x: Tensor) -> Tensor:
    if x.data.ndim < 2:
        raise DimensionError(f"transpose_last2 needs rank >= 2, got {x.shape}")
    out = np.swapaxes(x.data, -1, -2)

    def back(d):
        return (np.swapaxes(d, -1, -2),)

    return _finish(out, (x,), back, "transpose_last2")


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"permute axes {axes} invalid for rank {x.data.ndim}")
    out = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def back(d):
        return (np.transpose(d, inverse),)

    return _finish(out, (x,), back, "permute")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise UsageError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(d):
        return tuple(np.split(d, splits, axis=axis))

    return _finish(out, tuple(tensors), back, "concat")


def frame_velocity(x: Tensor, dt: float = 1.0) -> Tensor:
    """Difference quotient along the last (time) axis, zero-padded at the end.

    out[..., t] = (x[..., t+1] - x[..., t]) / dt for t < T-1; final column 0.
    """
    if dt <= 0:
        raise UsageError(f"frame_velocity dt must be positive, got {dt}")
    if x.shape[-1] < 2:
        raise DimensionError(f"frame_velocity needs at least 2 frames, got {x.shape}")
    out = np.zeros_like(x.data)
    out[..., :-1] = (x.data[..., 1:] - x.data[..., :-1]) / x.data.dtype.type(dt)

    def back(d):
        dx = np.zeros_like(d)
        dx[..., :-1] -= d[..., :-1] / dt
        dx[..., 1:] += d[..., :-1] / dt
        return (dx,)

    return _finish(out, (x,), back, "frame_velocity")


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)
    shape = x.data.shape

    def back(d):
        return (np.full(shape, d, dtype=d.dtype),)

    return _finish(out, (x,), back, "sum_all")


# ---------------------------------------------------------------------------
# loss


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean NLL of integer labels under row softmax, fused for stability."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    batch, classes = logits.shape
    if labels.shape != (batch,):
        raise DimensionError(f"cross_entropy labels {labels.shape} do not match logits {logits.shape}")
    if labels.min() < 0 or labels.max() >= classes:
        raise UsageError(f"cross_entropy label out of range [0, {classes})")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    nll = np.log(z[:, 0]) - shifted[np.arange(batch), labels]
    out = np.asarray(nll.mean(), dtype=logits.data.dtype)
    soft = e / z

    def back(d):
        dlogits = soft.copy()
        dlogits[np.arange(batch), labels] -= 1.0
        return (dlogits * (d / batch),)

    return _finish(out, (logits,), back, "cross_entropy")


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every requires_grad tensor
    reachable from ``loss`` on its tape, consuming the tape.

    Only leaves accumulate: each op output's ``grad`` is set once, to a
    read-only view of the gradient that reaches it, and is not copied.  A
    leaf copies its first gradient, so later backwards and the optimizer
    never write into an op output's gradient.

    The tape gives up its nodes before the first one runs, so a backward
    that raises leaves it consumed too, and the output -> tape -> node ->
    output cycle is broken: a step's arrays are freed by reference counting
    instead of a later full GC.  Each node (its closure, inputs and output)
    is released as soon as its backward rule has run, so what the forward
    saved is freed stage by stage rather than all at the end.  A pending
    gradient is keyed by its tensor's ``id``, which stays unique because
    the tensor stays alive: an unrun node holds an op output, and
    ``holders`` holds a leaf until it accumulates.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        if loss.requires_grad:
            loss.accumulate_grad(np.ones_like(loss.data))
        return
    nodes, tape.nodes = tape.nodes, []
    if not nodes:
        raise UsageError("backward: the loss's tape was already consumed by an earlier backward")
    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    while nodes:
        node = nodes.pop()  # rebinding releases the node run before it
        d_out = pending.pop(id(node.output), None)
        if d_out is None:
            continue
        del holders[id(node.output)]
        out = node.output
        if out.grad is None and d_out.shape == out.data.shape and d_out.dtype == out.data.dtype:
            out.grad = d_out.view()
            out.grad.flags.writeable = False
        else:
            out.accumulate_grad(d_out)
        for t, d in zip(node.inputs, node.backward_fn(d_out)):
            if d is None or not t.requires_grad:
                continue
            key = id(t)
            if key in pending:
                pending[key] = pending[key] + d
            else:
                pending[key] = d
                holders[key] = t
    for key, d in pending.items():  # leaves: tensors never produced by a node
        holders[key].accumulate_grad(d)
