"""Four-stream convolutional classifier and its static cost model.

Each enhanced image runs through its own three-stage conv encoder
(3x3 kernels, stride 2, padding 1, each stage followed by 2x2 max pooling
and a leaky ReLU), collapsing a 64x64 image to a single feature column.
A stream turns its image channels-last once and runs each stage as the fused
``conv_pool_leaky`` op; ``conv2d`` and ``maxpool2d`` remain as channel-first
reference ops, and ``leaky_relu(maxpool2d(conv2d(.)))`` is the stage's
bit-exact reference.  The streams' features concatenate into a two-layer
classifier head.

``forward(encode(x))`` is the taped training path.  ``infer`` is the
untaped one that evaluation and ``skelact bench`` run: one stream at a
time, from the encoder's image written into the stage-1 pad buffer through
stages chained buffer to buffer, with the same logits bit for bit.  A batch
of ``SPLIT_MIN`` or more runs as two halves, on two worker threads while
OpenBLAS is held at one thread, so both cores do the work between GEMMs.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextvars import copy_context
from dataclasses import dataclass
from functools import cache

import numpy as np

from .autograd import (
    Tensor, concat, conv_pool_leaky, conv_pool_stage, leaky_relu, linear, no_tape, pad_buffer, permute,
    reshape,
)
from .encoder import LEAKY_SLOPE, EncodedBundle, enhance, write_image
from .errors import DimensionError
from .model import ModelConfig, ModelParams, StreamCNNParams, param_spec


def _stages(stream: StreamCNNParams) -> tuple[tuple[Tensor, Tensor], ...]:
    return ((stream.conv1_kernels, stream.conv1_bias), (stream.conv2_kernels, stream.conv2_bias),
            (stream.conv3_kernels, stream.conv3_bias))


def stream_forward(image, stream: StreamCNNParams) -> Tensor:
    """(.., 3, T, T) image to a flat (.., F) feature vector."""
    x = image if isinstance(image, Tensor) else Tensor(np.asarray(image))
    if x.data.ndim not in (3, 4):
        raise DimensionError(f"stream expects a (3,T,T) or (B,3,T,T) image, got {x.shape}")
    x = permute(x, (1, 2, 0) if x.data.ndim == 3 else (0, 2, 3, 1))
    for kernels, bias in _stages(stream):
        x = conv_pool_leaky(x, kernels, bias, LEAKY_SLOPE)
    if x.shape[-3] != 1 or x.shape[-2] != 1:
        raise DimensionError(f"stream did not reduce spatially, got {x.shape}")
    return reshape(x, x.shape[:-3] + (x.shape[-1],))


def forward(bundle: EncodedBundle, params: ModelParams) -> Tensor:
    """Logits over classes; softmax lives in the loss."""
    images = bundle.images()
    if len(images) != len(params.streams):
        raise DimensionError(
            f"bundle carries {len(images)} images but the model has {len(params.streams)} streams"
        )
    return _head([stream_forward(img, s) for img, s in zip(images, params.streams)], params)


def _head(features: list[Tensor], params: ModelParams) -> Tensor:
    merged = concat(features, axis=-1)
    hidden = leaky_relu(linear(merged, params.classifier.fc1_weight, params.classifier.fc1_bias), LEAKY_SLOPE)
    return linear(hidden, params.classifier.fc2_weight, params.classifier.fc2_bias)


# Below this batch size some GEMM of a half takes OpenBLAS's small-matrix
# path and the bits differ from the whole batch's, so it runs whole.
SPLIT_MIN = 16


def infer(x, params: ModelParams) -> np.ndarray:
    """Logits of a (T, J, 3) sequence or a (B, T, J, 3) batch, untaped:
    bit for bit ``forward(encode(x, params.encoder), params).data``.

    Streams run one at a time.  The encoder writes a stream's image into
    the interior of this thread's stage-1 pad buffer, and stages 1 and 2
    write their output into the next stage's, all through per-thread
    workspace, so the last stage's output is the first fresh array.  No op
    is recorded, even inside a Tape; the returned logits are a fresh array.

    A batch of ``SPLIT_MIN`` or more runs as ``x[:ceil(B/2)]`` and the
    rest, each through that body, and the logits are concatenated.  The
    halves run on two worker threads when :func:`infer_workers` is 2 and
    no other call holds them, else one after the other on the caller's
    thread: the same bits, as the split depends on B alone.  While the
    workers run, the process's OpenBLAS runs one thread, whose count is
    put back after: a second BLAS thread would hold the other core after
    every GEMM.
    """
    x = np.asarray(x)
    config = params.config
    if x.ndim not in (3, 4) or x.shape[-3:] != (config.frames, config.joints, 3):
        raise DimensionError(
            f"infer expects (T,J,3) or (B,T,J,3) with T={config.frames}, J={config.joints}, got {x.shape}"
        )
    if x.ndim == 3 or len(x) < SPLIT_MIN:
        return _infer_rows(x, params)
    halves = np.array_split(x, 2)
    if infer_workers() < 2 or not _workers_lock.acquire(blocking=False):
        return np.concatenate([_infer_rows(half, params) for half in halves])
    get_threads, set_threads = _blas_thread_calls()
    threads = get_threads()
    set_threads(1)
    try:
        # each half in a copy of the caller's context, so numpy's errstate holds there
        futures = [_workers.submit(copy_context().run, _infer_rows, half, params) for half in halves]
        wait(futures)
        return np.concatenate([future.result() for future in futures])
    finally:
        set_threads(threads)
        _workers_lock.release()


def _infer_rows(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """:func:`infer`'s body for one validated sequence or batch."""
    config = params.config
    with no_tape():
        channels, attention = enhance(x, params.encoder)
        batch, t = x.shape[:-3], config.frames
        features = []
        for (name, ch), stream in zip(channels.items(), params.streams):
            dtype = np.result_type(params.encoder.embeddings[name].weight.data, ch.data)
            xp = pad_buffer((math.prod(batch), 3, t + 2, t + 2), dtype)
            interior = xp[:, :, 1:-1, 1:-1]
            write_image(interior if batch else interior[0], name, ch, attention, params.encoder)
            stages = _stages(stream)
            for n, (kernels, bias) in enumerate(stages, start=1):
                xp = conv_pool_stage(xp, kernels.data, bias.data, LEAKY_SLOPE, chain=n < len(stages))
            features.append(Tensor(xp.reshape(batch + (xp.shape[-1],)), dtype=xp.dtype))
        return _head(features, params).data


@cache
def _blas_thread_calls():
    """(get, set) of the process's OpenBLAS thread count, or None when no
    OpenBLAS with both calls shows in ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in ((p, s) for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_threads = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                return get_threads, set_threads
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs a GEMM on, or None without one."""
    calls = _blas_thread_calls()
    return None if calls is None else calls[0]()


def infer_workers() -> int:
    """Threads a batched :func:`infer` runs its halves on: 2 with an
    OpenBLAS whose thread count it can set and 2 usable CPUs, else 1."""
    return 2 if _blas_thread_calls() is not None and len(os.sched_getaffinity(0)) >= 2 else 1


def _new_workers() -> None:
    """Two idle half-batch workers, whose threads start on first use, and
    the lock the one infer call using them holds.  A forked child makes
    its own: it has none of its parent's threads."""
    global _workers, _workers_lock
    _workers, _workers_lock = ThreadPoolExecutor(2, thread_name_prefix="skelact-infer"), threading.Lock()


_new_workers()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_workers)


@dataclass
class FlopsReport:
    """Static per-layer multiply-accumulate counts for one forward pass."""

    per_layer: dict[str, int]
    total_macs: int
    total_flops: int
    param_count: int


def count_flops(config: ModelConfig) -> FlopsReport:
    """Multiply-accumulate census of one single-sequence forward pass.

    Read off model.param_spec: each weight's entry carries its MACs (the
    scale heads and attention projections, the per-stream embedding
    products, the conv stages at C_out * H' * W' * C_in * k * k, and the
    classifier), and the one product with no parameter, the attention
    scores (T * T * J), is added here.  Elementwise work (activations,
    softmax, velocity differences, the attention product-and-add) and the
    constant bone-path product in scale_bones are excluded.
    flops = 2 * MACs; param_count is the spec's total size.
    """
    spec = param_spec(config)
    layers: dict[str, int] = {}
    for s in spec:
        if s.macs is not None:  # a weight: its layer is its name less the tensor kind
            layer = s.name.removesuffix(".weight").removesuffix(".kernels")
            layers[layer if layer.startswith(("stream", "classifier")) else f"encoder.{layer}"] = s.macs
        if s.name == "attention.key.weight":  # queries . keys^T, the product with no parameter
            layers["encoder.attention.scores"] = config.frames * config.frames * config.joints
    total_macs = sum(layers.values())
    return FlopsReport(
        per_layer=layers,
        total_macs=total_macs,
        total_flops=2 * total_macs,
        param_count=sum(math.prod(s.shape) for s in spec),
    )
