"""Shared test plumbing: the acceptance-criteria verdict board, the
joint-to-bone incidence oracle, scale-head and attention tensors under
their parameter names, the array-level image and stage bodies as tape
nodes, the composed reference of the image body, and the benchmark
tracer's name tables.

Acceptance tests record one verdict per criterion; the terminal summary
prints them as single pass/fail lines so a full run ends with a compact
scoreboard."""

import importlib.util
from pathlib import Path

import numpy as np

from skelact import autograd

_VERDICTS: dict[int, tuple[str, bool, str]] = {}


def record_verdict(number: int, title: str, ok: bool, detail: str) -> None:
    _VERDICTS[number] = (title, bool(ok), detail)


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


def embed_image(channels, weight, attention=None, temporal=None):
    """autograd.embed_image_arrays as one tape node, always with a fresh
    image: the embedding product, the attention multiply-and-add and the
    temporal add."""
    given = [t for t in (attention, temporal) if t is not None]
    image, rule = autograd.embed_image_arrays(channels.data, weight.data, None if attention is None else attention.data,
                                              None if temporal is None else temporal.data, True)
    return autograd._finish(image, (channels, weight, *given), lambda d: [g for g in rule(d) if g is not None],
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
