"""Four-stream convolutional classifier and its static cost model.

Each enhanced image runs through its own three-stage conv encoder
(3x3 kernels, stride 2, padding 1, each stage followed by 2x2 max pooling
and a leaky ReLU), collapsing a 64x64 image to a single feature column.
One body, ``_stages``, runs a stream: it turns the image channels-last
once and chains the array-level fused stage ``conv_pool_leaky_arrays``
three times, keeping each stage's backward rule when recorded.  Each
stage's GEMM rows are in pooling-corner-major order; stage 1 reads the
permuted channel-first image with (c, i, j) taps, and stages 2 and 3 read
the C-contiguous output before them with (i, j, c) taps.  ``conv2d`` and
``maxpool2d`` remain as channel-first reference ops:
``leaky_relu(maxpool2d(conv2d(.)))`` agrees with a stage to within float
rounding (1e-5 relative in float32), and the tests' ``reference_stage``
gives its exact bits.
The streams' features concatenate into a two-layer classifier head.  Each
layer reads its tensors from the model's one dict by model.param_spec's
names: stream i's stages ``stream{i}.conv{n}.*`` and the head
``classifier.*``.

``forward(encode(x))`` is the one model body.  The encoder yields each
stream's channels; the streams and the head's concatenation are one node,
in which each stream builds its image (``encoder.stream_image``) and runs
``_stages`` on it.  Taped, the node's forward and backward run streams 0,
2 and 1, 3 on two worker threads, each stream's stage rules and then its
image rule; its stem fills the image into its pad one batch block at a
time, so no image is stored whole.  ``infer``, which evaluation and
``skelact bench`` run, is that body untaped: the streams run one at a
time on the caller's thread, with the same logits bit for bit.
``stream_forward`` is one stream's stages untaped, on an image array.
Both paths take a batch axis only: images are (B, 3, T, T) and ``infer``
takes (B, T, J, 3), so ``skelact bench`` passes its one sequence as a
batch of one.  An ``infer`` batch of ``SPLIT_MIN`` or more runs as two
halves on the same two workers.  A call that runs on the workers sets the
process's OpenBLAS to one thread and leaves it there, so both cores do
the work between GEMMs.
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

from .autograd import ImageSource, Tensor, _finish, _recording, conv_pool_leaky_arrays, leaky_relu, linear, no_tape
from .encoder import LEAKY_SLOPE, STREAMS, EncodedBundle, encode, stream_image
from .errors import DimensionError
from .model import ModelConfig, ModelParams, param_spec


def stream_forward(image, tensors: dict[str, Tensor], i: int) -> Tensor:
    """Stream ``i``: a (B, 3, T, T) image to a flat (B, F) feature matrix,
    through the stages ``stream{i}.conv1`` to ``conv3``.  Untaped: it
    records nothing, even inside a Tape."""
    features, _ = _stages((image if isinstance(image, Tensor) else Tensor(image)).data, tensors, i, False)
    return Tensor(features, dtype=features.dtype)


def _stages(image: np.ndarray | ImageSource, tensors: dict[str, Tensor], i: int,
            recorded: bool) -> tuple[np.ndarray, list]:
    """Stream ``i``'s stages on the channels-last view of a (B, 3, T, T)
    image array, or on an image source: its (B, F) features and each
    stage's backward rule, in stage order (None when not ``recorded``)."""
    if len(image.shape) != 4:
        raise DimensionError(f"stream expects a (B,3,T,T) image, got {image.shape}")
    x, rules = (image if isinstance(image, ImageSource) else image.transpose(0, 2, 3, 1)), []
    for n in (1, 2, 3):
        x, rule = conv_pool_leaky_arrays(x, tensors[f"stream{i}.conv{n}.kernels"].data,
                                         tensors[f"stream{i}.conv{n}.bias"].data, LEAKY_SLOPE, recorded)
        rules.append(rule)
    if x.shape[1:3] != (1, 1):
        raise DimensionError(f"stream did not reduce spatially, got {x.shape}")
    return x.reshape(len(x), x.shape[-1]), rules


def forward(bundle: EncodedBundle, params: ModelParams) -> Tensor:
    """Logits over classes; softmax lives in the loss."""
    count, streams = len(bundle.channels), params.config.stream_count()
    if count != streams:
        raise DimensionError(f"bundle carries channels for {count} streams but the model has {streams} streams")
    return _head(_streams(bundle, params), params.tensors)


def _streams(bundle: EncodedBundle, params: ModelParams) -> Tensor:
    """The streams' features concatenated, as one tape node: values and
    gradients bit for bit those of each stream's image taped as
    ``embed_to_image``, ``apply_attention`` and ``temporal_embed``, its
    stages as ``permute``, three fused stage nodes and ``reshape``, then
    ``concat``.

    Each stream runs :func:`stream_image` and then :func:`_stages`.
    Recorded, streams 0, 2 and 1, 3 run on :func:`_on_workers`, forward
    and backward; unrecorded, one after the other on the caller's thread.
    A worker runs no function perfbench's tracer wraps: its one span stack
    would be corrupted by spans on two threads at once.  The backward
    splits the gradient as ``concat`` does, then runs each stream's stage
    rules from stage 3 down and its image rule on that gradient turned
    channel-first, as ``permute`` does, freeing each rule once it has run.
    It returns the channel gradients, the attention map's (the bones
    stream's plus the joints stream's, as ``backward`` added them), then
    each stream's embedding, temporal, kernel and bias gradients.
    """
    count, tensors = len(bundle.channels), params.tensors
    names = STREAMS[:count]
    image_prefixes = ("embed", "temporal") if params.config.flags.temporal else ("embed",)
    per_stream = [[tensors[f"{prefix}.{name}"] for prefix in image_prefixes]
                  + [tensors[f"stream{i}.conv{n}.{kind}"] for n in (1, 2, 3) for kind in ("kernels", "bias")]
                  for i, name in enumerate(names)]
    attention = () if bundle.attention is None else (bundle.attention,)
    inputs = (*bundle.channels, *attention, *(t for stream in per_stream for t in stream))
    recorded = _recording(inputs) is not None

    def run(i):
        source, image_rule = stream_image(bundle, names[i], params.encoder)
        features, rules = _stages(source, tensors, i, recorded)
        return features, [image_rule, *rules]

    runs = _by_stream(run, count) if recorded else [run(i) for i in range(count)]
    splits = np.cumsum([features.shape[-1] for features, _ in runs])[:-1]

    def back(d):
        pieces = np.split(d, splits, axis=-1)

        def run_back(i):
            dx, grads, rules = pieces[i].reshape(len(d), 1, 1, -1), [], runs[i][1]
            while len(rules) > 1:  # popping frees each rule, and the arrays it saved, once it has run
                dx, dk, db = rules.pop()(dx)
                grads[:0] = (dk, db)
            d_channels, d_weight, d_attention, d_temporal = rules.pop()(np.transpose(dx, (0, 3, 1, 2)))
            return d_channels, d_attention, [g for g in (d_weight, d_temporal) if g is not None] + grads

        grads = _by_stream(run_back, count)
        d_attention = [grads[1][1] + grads[0][1]] if attention else []
        return [g[0] for g in grads] + d_attention + [t for g in grads for t in g[2]]

    return _finish(np.concatenate([features for features, _ in runs], axis=-1), inputs, back, "streams")


def _by_stream(fn, count: int) -> list:
    """``[fn(i) for i in range(count)]``, the even streams on one worker and
    the odd ones on the other."""
    out = [None] * count
    out[0::2], out[1::2] = _on_workers(lambda part: [fn(i) for i in part], [range(0, count, 2), range(1, count, 2)])
    return out


def _head(merged: Tensor, tensors: dict[str, Tensor]) -> Tensor:
    hidden = leaky_relu(linear(merged, tensors["classifier.fc1.weight"], tensors["classifier.fc1.bias"]), LEAKY_SLOPE)
    return linear(hidden, tensors["classifier.fc2.weight"], tensors["classifier.fc2.bias"])


# Below this batch size some GEMM of a half takes OpenBLAS's small-matrix
# path and the bits differ from the whole batch's, so it runs whole.
SPLIT_MIN = 16


def infer(x, params: ModelParams) -> np.ndarray:
    """Logits of a (B, T, J, 3) batch, untaped: bit for bit
    ``forward(encode(x, params.encoder), params).data``.  One sequence is a
    batch of one.

    It is exactly that, run with no tape: ``encode``, then the streams node
    unrecorded, whose streams run one at a time on this thread.  No op is
    recorded, even inside a Tape; the returned logits are a fresh array.

    A batch of ``SPLIT_MIN`` or more runs as ``x[:ceil(B/2)]`` and the
    rest, each through that body, on :func:`_on_workers`, and the logits
    are concatenated: the same bits wherever the halves run, as the split
    depends on B alone.
    """
    x = np.asarray(x)
    config = params.config
    if x.ndim != 4 or x.shape[1:] != (config.frames, config.joints, 3):
        raise DimensionError(f"infer expects (B,T,J,3) with T={config.frames}, J={config.joints}, got {x.shape}")
    if len(x) < SPLIT_MIN:
        return _infer_rows(x, params)
    return np.concatenate(_on_workers(lambda half: _infer_rows(half, params), np.array_split(x, 2)))


def _infer_rows(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """:func:`infer`'s body for one validated batch."""
    with no_tape():
        return forward(encode(x, params.encoder), params).data


def _on_workers(fn, parts: list) -> list:
    """``[fn(part) for part in parts]`` for two parts, run on the two
    workers when :func:`infer_workers` is 2 and no other call holds them,
    else one after the other on the caller's thread.  Each worker runs in
    a copy of the caller's context, so its tape and numpy's errstate hold
    there.  A call that uses the workers sets the process's OpenBLAS to one
    thread and leaves it there: a second BLAS thread spins after every GEMM
    and would hold the other core.
    """
    if infer_workers() < 2 or not _workers_lock.acquire(blocking=False):
        return [fn(part) for part in parts]
    try:
        _, set_threads = _blas_thread_calls()
        set_threads(1)
        futures = [_workers.submit(copy_context().run, fn, part) for part in parts]
        wait(futures)
        return [future.result() for future in futures]
    finally:
        _workers_lock.release()


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
    """Threads :func:`_on_workers` runs its parts on (a batched
    :func:`infer`'s halves, a training step's streams): 2 with an OpenBLAS
    whose thread count it can set and 2 usable CPUs, else 1."""
    return 2 if _blas_thread_calls() is not None and len(os.sched_getaffinity(0)) >= 2 else 1


def _new_workers() -> None:
    """Two idle workers, whose threads start on first use, and the lock the
    one :func:`_on_workers` call using them holds.  A forked child makes
    its own: it has none of its parent's threads."""
    global _workers, _workers_lock
    _workers, _workers_lock = ThreadPoolExecutor(2, thread_name_prefix="skelact-worker"), threading.Lock()


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
