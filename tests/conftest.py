"""Shared test plumbing: the acceptance-criteria verdict board, a dataset's
model config, the joint-to-bone incidence oracle, scale-head and attention
tensors under their parameter names, the array-level image and stage
bodies as tape nodes (the stage on an array, and as the stem, on an
array-backed image source), the fused stage's plain reference, the
composed reference of the image body, the benchmark tracer's name
tables, and the finite-difference gradient check.

Acceptance tests record one verdict per criterion; the terminal summary
prints them as single pass/fail lines so a full run ends with a compact
scoreboard."""

import importlib.util
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from skelact import autograd
from skelact.autograd import Tape, Tensor, backward
from skelact.errors import UsageError
from skelact.model import ModelConfig

_VERDICTS: dict[int, tuple[str, bool, str]] = {}


def record_verdict(number: int, title: str, ok: bool, detail: str) -> None:
    _VERDICTS[number] = (title, bool(ok), detail)


def model_config(sequences, topology, **architecture) -> ModelConfig:
    """A model of ``topology`` whose classes are the sequences' sorted
    labels, as ``skelact train`` derives them."""
    labels = tuple(sorted({s.action_label for s in sequences}))
    return ModelConfig(bones=topology.bones, root=topology.root, labels=labels, **architecture)


def incidence_matrix(topology) -> np.ndarray:
    """Joint-to-bone incidence matrix, built from the bone list alone: column
    k has +1 at bone k's child joint and -1 at its parent, so bone vectors
    are X . C for X of shape (3, J)."""
    c = np.zeros((topology.joint_count, len(topology.bones)), dtype=np.float32)
    for k, (p, q) in enumerate(topology.bones):
        c[q, k] = 1.0
        c[p, k] = -1.0
    return c


def scale_heads(fc1_weight, fc1_bias, fc2_weight, fc2_bias):
    """One scale head's tensors under both heads' param_spec names, so that
    scale_joints and scale_bones read the same head."""
    parts = {"fc1.weight": fc1_weight, "fc1.bias": fc1_bias, "fc2.weight": fc2_weight, "fc2.bias": fc2_bias}
    return {f"{head}.{part}": t for head in ("joint_scale", "bone_scale") for part, t in parts.items()}


def attention_tensors(shared_weight, shared_bias, query_weight, key_weight):
    """An attention map's tensors under their param_spec names."""
    return {"attention.shared.weight": shared_weight, "attention.shared.bias": shared_bias,
            "attention.query.weight": query_weight, "attention.key.weight": key_weight}


def conv_pool_leaky(x, kernels, bias):
    """autograd.conv_pool_leaky_arrays as one tape node over ``x``."""
    inputs = (x, kernels, bias)
    out, rule = autograd.conv_pool_leaky_arrays(x.data, kernels.data, bias.data,
                                                autograd._recording(inputs) is not None)
    return autograd._finish(out, inputs, rule, "conv_pool_leaky")


def image_source(image):
    """An autograd.ImageSource over a (B, C, H, W) image array: its fill
    copies the block's samples, and its ``back`` collects each block's
    gradient into a fresh array, which it returns, as ``(d_image,)``,
    after the last block."""
    grad = None

    def fill(lo, hi, out):
        np.copyto(out, image[lo:hi])

    def back(lo, hi, d):
        nonlocal grad
        if lo == 0:
            grad = np.empty(image.shape, d.dtype)
        grad[lo:hi] = d
        return None if hi < len(image) else (grad,)

    return autograd.ImageSource(image.shape, image.dtype, fill, back)


def stem_stage(image, kernels, bias):
    """autograd.conv_pool_leaky_arrays as the stem runs it, one tape node
    over a (B, C, H, W) ``image``: on an :func:`image_source` over it, so
    with (c, i, j) taps, its input gradient handed back block by block and
    returned (B, C, H, W)."""
    inputs = (image, kernels, bias)
    out, rule = autograd.conv_pool_leaky_arrays(image_source(image.data), kernels.data, bias.data,
                                                autograd._recording(inputs) is not None)

    def back(d):
        (d_image,), dk, db = rule(d)
        return d_image, dk, db

    return autograd._finish(out, inputs, back, "stem_stage")


def reference_stage(x, kernels, bias, image=False):
    """The fused stage's bit-exact reference, one tape node written plainly:
    ``np.pad`` and a sliding-window im2col of the whole batch, with no
    workspace, blocks or transposed fill.  GEMM rows are in pooling-
    corner-major (ci, cj, b, y', x') order; a (B, H, W, C) array gives
    (i, j, c) columns and kernels read as (C_out, kh, kw, C_in).  With
    ``image``, ``x`` is a (B, C, H, W) image read as the stem reads an image
    source, in (c, i, j) columns, and its gradient comes back (B, C, H, W)
    in channel-first memory, as the stem hands it to its source.  Bias,
    then the first maximum of the four corners (``argmax``; no NaN), then
    leaky ReLU.  Backward routes each window's gradient to that corner,
    sums the bias gradient over the pooled gradient, and adds each input
    element's taps in (i, j) order from +0.  It equals
    ``leaky_relu(maxpool2d(conv2d(.)))`` to within float rounding, which
    ``test_reference_stage_matches_the_loop_oracle_and_the_composed_ops``
    bounds."""
    xd, k = (x.data.transpose(0, 2, 3, 1) if image else x.data), kernels.data
    channels_last = not image
    batch, h, w, c_in = xd.shape
    c_out, _, kh, kw = k.shape
    tap_axes = (6, 7, 5) if channels_last else (5, 6, 7)  # of (ci, cj, b, y', x', c, i, j) windows
    padded = np.pad(xd, ((0, 0), (1, 1), (1, 1), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))[:, ::2, ::2]
    h2, w2 = windows.shape[1] // 2, windows.shape[2] // 2
    windows = windows.reshape(batch, h2, 2, w2, 2, c_in, kh, kw).transpose(2, 4, 0, 1, 3, 5, 6, 7)
    cols = windows.transpose(0, 1, 2, 3, 4, *tap_axes).reshape(4 * batch * h2 * w2, -1)
    kmat = (k.transpose(0, 2, 3, 1) if channels_last else k).reshape(c_out, -1)
    conv = (cols @ kmat.T + bias.data).reshape(4, batch, h2, w2, c_out)
    first = conv.argmax(axis=0)
    pooled = np.take_along_axis(conv, first[None], axis=0)[0]
    out = np.where(pooled >= 0, pooled, pooled * pooled.dtype.type(autograd.LEAKY_SLOPE))

    def back(d):
        dpool = np.where(pooled >= 0, d, d * autograd.LEAKY_SLOPE)
        d2 = (dpool * (first == np.arange(4).reshape(4, 1, 1, 1, 1))).reshape(-1, c_out)
        dk = (d2.T @ cols).reshape((c_out, kh, kw, c_in) if channels_last else k.shape)
        taps = (d2 @ kmat).reshape(2, 2, batch, h2, w2, *(kh, kw, c_in) if channels_last else (c_in, kh, kw))
        taps = taps.transpose(2, 3, 0, 4, 1, *(7, 5, 6) if channels_last else (5, 6, 7))  # (b, y', ci, x', cj, c, i, j)
        taps = taps.reshape(batch, 2 * h2, 2 * w2, c_in, kh, kw)
        if image:  # channel-first memory, as the stem hands the blocks to its source
            dxp = np.zeros((batch, c_in, h + 2, w + 2), d.dtype).transpose(0, 2, 3, 1)
        else:
            dxp = np.zeros((batch, h + 2, w + 2, c_in), d.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + 4 * h2 : 2, j : j + 4 * w2 : 2] += taps[..., i, j]
        dk = dk.transpose(0, 3, 1, 2) if channels_last else dk
        dx = dxp[:, 1:-1, 1:-1]
        return (dx.transpose(0, 3, 1, 2) if image else dx), dk, dpool.reshape(-1, c_out).sum(axis=0)

    return autograd._finish(out, (x, kernels, bias), back, "reference_stage")


def filled(source):
    """An autograd.ImageSource's whole image, filled into a fresh array."""
    image = np.empty(source.shape, source.dtype)
    source.fill(0, source.shape[0], image)
    return image


def embed_image(channels, weight, attention=None, temporal=None):
    """autograd.embed_image_arrays as one tape node, its image filled whole
    into a fresh array and its backward run as one block on a copy of the
    gradient (the block step adds into it): the embedding product, the
    attention multiply-and-add and the temporal add."""
    given = [t for t in (attention, temporal) if t is not None]
    source = autograd.embed_image_arrays(channels.data, weight.data, None if attention is None else attention.data,
                                         None if temporal is None else temporal.data)

    def back(d):
        return [g for g in source.back(0, source.shape[0], np.copy(d)) if g is not None]

    return autograd._finish(filled(source), (channels, weight, *given), back, "embed_image")


def composed_embed_image(channels, weight, attention=None, temporal=None):
    """embed_image as the separate tape nodes it fuses: the embedding
    product, the attention multiply-and-add and the temporal add."""
    from skelact.encoder import apply_attention, embed_to_image, temporal_embed

    image = embed_to_image(channels, weight)
    if attention is not None:
        image = apply_attention(image, attention)
    if temporal is not None:
        image = temporal_embed(image, temporal)
    return image


def composed_images(bundle, enc, image_op=composed_embed_image):
    """Each stream's image from an encoder bundle, in STREAMS order, built by
    ``image_op`` from what encoder.stream_image reads of the EncoderParams
    ``enc``."""
    from skelact.encoder import ATTENDED, STREAMS

    return [image_op(channels, enc.tensors[f"embed.{name}"], bundle.attention if name in ATTENDED else None,
                     enc.tensors[f"temporal.{name}"] if enc.flags.temporal else None)
            for name, channels in zip(STREAMS, bundle.channels)]


def perfbench_spans():
    """perfbench/spans.py as a module: its ``OP_GROUPS`` and
    ``LAYER_FUNCTIONS`` name what the benchmark tracer wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grad_check(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    samples: int = 100,
    h: float = 1e-5,
    seed: int = 0,
    points: Sequence[tuple[int, int]] | None = None,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``fn`` must be a pure scalar function of ``params``, which must be
    float64 (the 64-bit verification mode).  ``points`` optionally pins the
    sampled (param_index, flat_index) coordinates; otherwise ``samples``
    coordinates are drawn uniformly with the given seed.  The error at one
    coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise UsageError("grad_check requires float64 parameters")
    for p in params:
        p.grad = None
    with Tape():
        loss = fn()
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.grad = None

    if points is None:
        rng = np.random.default_rng(seed)
        points = []
        for _ in range(samples):
            pi = int(rng.integers(len(params)))
            fi = int(rng.integers(params[pi].data.size))
            points.append((pi, fi))

    worst = 0.0
    for pi, fi in points:
        flat = params[pi].data.reshape(-1)
        saved = flat[fi]
        flat[fi] = saved + h
        f_plus = fn().item()
        flat[fi] = saved - h
        f_minus = fn().item()
        flat[fi] = saved
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = float(analytic[pi].reshape(-1)[fi])
        err = abs(a - numeric) / max(1.0, abs(a))
        worst = max(worst, err)
    return worst


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_VERDICTS):
        title, ok, detail = _VERDICTS[number]
        state = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} ({title}): {state} - {detail}")
