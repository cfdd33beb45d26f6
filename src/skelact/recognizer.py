"""Four-stream convolutional classifier and its static cost model.

Each enhanced image runs through its own three-stage conv encoder
(3x3 kernels, stride 2, padding 1, each stage followed by 2x2 max pooling
and a leaky ReLU), collapsing a 64x64 image to a single feature column.
A stream turns its image channels-last once and runs each stage as the fused
``conv_pool_leaky`` op; ``conv2d`` and ``maxpool2d`` remain as channel-first
reference ops, and ``leaky_relu(maxpool2d(conv2d(.)))`` is the stage's
bit-exact reference.  The streams' features concatenate into a two-layer
classifier head.  Each layer reads its tensors from the model's one dict by
model.param_spec's names: stream i's stages ``stream{i}.conv{n}.*`` and the
head ``classifier.*``.

``forward(encode(x))`` is the taped training path.  ``infer`` is the
untaped one that evaluation and ``skelact bench`` run: one stream at a
time, each image built in the encoder's workspace and run through the
same ``stream_forward``, with the same logits bit for bit.  Both paths
take a batch axis only: images are (B, 3, T, T) and ``infer`` takes
(B, T, J, 3), so ``skelact bench`` passes its one sequence as a batch of
one.  A batch of ``SPLIT_MIN`` or more runs as two halves, on two worker
threads while OpenBLAS is held at one thread, so both cores do the work
between GEMMs.
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

from .autograd import Tensor, concat, conv_pool_leaky, leaky_relu, linear, no_tape, permute, reshape
from .encoder import LEAKY_SLOPE, EncodedBundle, enhance, write_image
from .errors import DimensionError
from .model import ModelConfig, ModelParams, param_spec


def stream_forward(image, tensors: dict[str, Tensor], i: int) -> Tensor:
    """Stream ``i``: a (B, 3, T, T) image to a flat (B, F) feature matrix,
    through the stages ``stream{i}.conv1`` to ``conv3``."""
    x = image if isinstance(image, Tensor) else Tensor(np.asarray(image))
    if x.data.ndim != 4:
        raise DimensionError(f"stream expects a (B,3,T,T) image, got {x.shape}")
    x = permute(x, (0, 2, 3, 1))
    for n in (1, 2, 3):
        x = conv_pool_leaky(x, tensors[f"stream{i}.conv{n}.kernels"], tensors[f"stream{i}.conv{n}.bias"], LEAKY_SLOPE)
    if x.shape[1:3] != (1, 1):
        raise DimensionError(f"stream did not reduce spatially, got {x.shape}")
    return reshape(x, (x.shape[0], x.shape[-1]))


def forward(bundle: EncodedBundle, params: ModelParams) -> Tensor:
    """Logits over classes; softmax lives in the loss."""
    images = bundle.images()
    streams = params.config.stream_count()
    if len(images) != streams:
        raise DimensionError(f"bundle carries {len(images)} images but the model has {streams} streams")
    return _head([stream_forward(img, params.tensors, i) for i, img in enumerate(images)], params.tensors)


def _head(features: list[Tensor], tensors: dict[str, Tensor]) -> Tensor:
    merged = concat(features, axis=-1)
    hidden = leaky_relu(linear(merged, tensors["classifier.fc1.weight"], tensors["classifier.fc1.bias"]), LEAKY_SLOPE)
    return linear(hidden, tensors["classifier.fc2.weight"], tensors["classifier.fc2.bias"])


# Below this batch size some GEMM of a half takes OpenBLAS's small-matrix
# path and the bits differ from the whole batch's, so it runs whole.
SPLIT_MIN = 16


def infer(x, params: ModelParams) -> np.ndarray:
    """Logits of a (B, T, J, 3) batch, untaped: bit for bit
    ``forward(encode(x, params.encoder), params).data``.  One sequence is a
    batch of one.

    Streams run one at a time: ``write_image`` builds a stream's image in
    this thread's workspace, and :func:`stream_forward` runs it untaped,
    through the unrecorded path of each ``conv_pool_leaky`` stage.  No op
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
    if x.ndim != 4 or x.shape[1:] != (config.frames, config.joints, 3):
        raise DimensionError(f"infer expects (B,T,J,3) with T={config.frames}, J={config.joints}, got {x.shape}")
    if len(x) < SPLIT_MIN:
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
    """:func:`infer`'s body for one validated batch.  Each stream runs on
    its image before the next ``write_image`` overwrites it."""
    with no_tape():
        channels, attention = enhance(x, params.encoder)
        return _head([stream_forward(write_image(name, ch, attention, params.encoder), params.tensors, i)
                      for i, (name, ch) in enumerate(channels.items())], params.tensors).data


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
