"""Shared test plumbing: the acceptance-criteria verdict board, a dataset's
model config, the joint-to-bone incidence oracle, scale-head and attention
tensors under their parameter names, the array-level image and stage
bodies as tape nodes, the fused stage's plain reference, the composed
reference of the image body, and the benchmark tracer's name tables.

Acceptance tests record one verdict per criterion; the terminal summary
prints them as single pass/fail lines so a full run ends with a compact
scoreboard."""

import importlib.util
from pathlib import Path

import numpy as np

from skelact import autograd
from skelact.model import ModelConfig

_VERDICTS: dict[int, tuple[str, bool, str]] = {}


def record_verdict(number: int, title: str, ok: bool, detail: str) -> None:
    _VERDICTS[number] = (title, bool(ok), detail)


def model_config(sequences, topology, **architecture) -> ModelConfig:
    """A model of ``topology`` whose classes are the sequences' sorted
    labels, as ``skelact train`` derives them."""
    labels = tuple(sorted({s.action_label for s in sequences}))
    return ModelConfig(joints=topology.joint_count, classes=len(labels), bones=topology.bones,
                       root=topology.root, labels=labels, **architecture)


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


def conv_pool_leaky(x, kernels, bias, slope=0.01):
    """autograd.conv_pool_leaky_arrays as one tape node over ``x``."""
    inputs = (x, kernels, bias)
    out, rule = autograd.conv_pool_leaky_arrays(x.data, kernels.data, bias.data, slope,
                                                autograd._recording(inputs) is not None)
    return autograd._finish(out, inputs, rule, "conv_pool_leaky")


def reference_stage(x, kernels, bias, slope=0.01):
    """The fused stage's bit-exact reference, one tape node written plainly:
    ``np.pad`` and a sliding-window im2col of the whole batch, with no
    workspace, blocks or transposed fill.  GEMM rows are in pooling-
    corner-major (ci, cj, b, y', x') order; a C-contiguous (B, H, W, C)
    input gives (i, j, c) columns and kernels read as (C_out, kh, kw, C_in),
    any other input (c, i, j) columns.  Bias, then the first maximum of
    the four corners (``argmax``; no NaN), then leaky ReLU.  Backward routes
    each window's gradient to that corner, sums the bias gradient over the
    pooled gradient, and adds each input element's taps in (i, j) order
    from +0 into a gradient of the input's memory layout.  It equals
    ``leaky_relu(maxpool2d(conv2d(.)))`` to within float rounding, which
    ``test_reference_stage_matches_the_loop_oracle_and_the_composed_ops``
    bounds."""
    xd, k = x.data, kernels.data
    channels_last = xd.flags.c_contiguous
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
    out = np.where(pooled >= 0, pooled, pooled * pooled.dtype.type(slope))

    def back(d):
        dpool = np.where(pooled >= 0, d, d * slope)
        d2 = (dpool * (first == np.arange(4).reshape(4, 1, 1, 1, 1))).reshape(-1, c_out)
        dk = (d2.T @ cols).reshape((c_out, kh, kw, c_in) if channels_last else k.shape)
        taps = (d2 @ kmat).reshape(2, 2, batch, h2, w2, *(kh, kw, c_in) if channels_last else (c_in, kh, kw))
        taps = taps.transpose(2, 3, 0, 4, 1, *(7, 5, 6) if channels_last else (5, 6, 7))  # (b, y', ci, x', cj, c, i, j)
        taps = taps.reshape(batch, 2 * h2, 2 * w2, c_in, kh, kw)
        if channels_last:
            dxp = np.zeros((batch, h + 2, w + 2, c_in), d.dtype)
        else:
            dxp = np.zeros((batch, c_in, h + 2, w + 2), d.dtype).transpose(0, 2, 3, 1)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + 4 * h2 : 2, j : j + 4 * w2 : 2] += taps[..., i, j]
        dk = dk.transpose(0, 3, 1, 2) if channels_last else dk
        return dxp[:, 1:-1, 1:-1], dk, dpool.reshape(-1, c_out).sum(axis=0)

    return autograd._finish(out, (x, kernels, bias), back, "reference_stage")


def filled(source):
    """An autograd.ImageSource's whole image, filled into a fresh array."""
    image = np.empty(source.shape, source.dtype)
    source.fill(0, source.shape[0], image)
    return image


def embed_image(channels, weight, attention=None, temporal=None):
    """autograd.embed_image_arrays as one tape node, its image filled whole
    into a fresh array: the embedding product, the attention
    multiply-and-add and the temporal add."""
    given = [t for t in (attention, temporal) if t is not None]
    source, rule = autograd.embed_image_arrays(channels.data, weight.data, None if attention is None else attention.data,
                                               None if temporal is None else temporal.data)
    return autograd._finish(filled(source), (channels, weight, *given), lambda d: [g for g in rule(d) if g is not None],
                            "embed_image")


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_VERDICTS):
        title, ok, detail = _VERDICTS[number]
        state = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} ({title}): {state} - {detail}")
