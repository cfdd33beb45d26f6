"""Learned feature enhancement: from a (T, J, 3) sequence to four 3xTxT
images plus an attention map.

The pipeline per sequence:
  1. a per-joint scale head multiplies each joint's channels by a learned
     scalar derived from its whole trajectory;
  2. the same head shape, applied per bone, scales bone vectors, which are
     then reassembled into joint positions through the kinematic tree
     (a constant path-matrix product, so gradients flow to the bone scales);
  3. a T x J embedding matrix per image stream maps (3, J, T) to (3, T, T);
  4. a frame-pair attention map reweights the two position images;
  5. frame-difference velocity images are built from the scaled tensors;
  6. a learned per-column temporal vector is added to every image.

The ops before the image source accept an optional leading batch axis.
Ablation flags prune the learned stages; whatever remains stays
differentiable end to end.

EncoderParams shares the model's one tensor dict, keyed by
model.param_spec's names.  The scale heads and the attention map take that
dict and read ``joint_scale.*``, ``bone_scale.*`` and ``attention.*``; the
embedding and temporal stages take the bare ``embed.<stream>`` and
``temporal.<stream>`` tensors.

``encode`` runs everything before the embeddings: each stream's channels
(the scaled joints and bones of steps 1 and 2, and their frame differences
for step 5) and the attention map of step 4.  The embedding, the
reweighting and the temporal add belong to the stream body:
``stream_image`` gives one stream's image from a batched bundle as a
source (``autograd.embed_image_arrays``) that fills any block of samples
and takes back any block's gradient, with values and gradients bit for
bit those of ``embed_to_image``, ``apply_attention`` and
``temporal_embed`` composed.  It takes a batch axis only: (B, 3, J, T)
channels and a (B, T, T) attention map; ``skelact encode`` passes its one
sequence as a batch of one.  It is the one place that decides which
tensors an image reads, and it names them beside the source, in the order
of the gradients the source hands back.  The recognizer's streams node
calls it for each stream, and ``skelact encode`` for each image it writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import (
    ImageSource, Tensor, add, embed_image_arrays, frame_velocity, leaky_relu, linear, matmul, mul, permute, reshape,
    scale, softmax_rows, transpose_last2,
)
from .errors import DimensionError
from .skeleton import Topology, bones_from_joints

STREAMS = ("joints", "bones", "joint_velocity", "bone_velocity")
ATTENDED = STREAMS[:2]  # the position images the attention map reweights


@dataclass(frozen=True)
class EnhanceFlags:
    """Which learned enhancement stages are active."""

    joint_scale: bool = True
    bone_scale: bool = True
    attention: bool = True
    temporal: bool = True
    velocity: bool = True

    def active_streams(self) -> tuple[str, ...]:
        return STREAMS if self.velocity else STREAMS[:2]


@dataclass
class EncoderParams:
    """The encoder's structural constants and the model's tensors, under
    model.param_spec's names; each stage reads its own by name."""

    topology: Topology
    flags: EnhanceFlags
    dt: float
    tensors: dict[str, Tensor]


@dataclass
class EncodedBundle:
    """The active streams' (.., 3, J, T) channels in STREAMS order, and the
    (.., T, T) attention map, None when that stage is off."""

    channels: tuple[Tensor, ...]
    attention: Tensor | None


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    return Tensor(arr, dtype=arr.dtype)


def _to_channels(x: Tensor) -> Tensor:
    """(.., T, J, 3) -> (.., 3, J, T)"""
    nd = x.data.ndim
    return permute(x, tuple(range(nd - 3)) + (nd - 1, nd - 2, nd - 3))


def _scale_head(items: Tensor, tensors: dict[str, Tensor], head: str) -> tuple[Tensor, Tensor]:
    """Scale head ``head`` ("joint_scale" or "bone_scale") on (.., T, n, 3)
    items: two fully connected layers map each item's flattened (T*3)
    trajectory to one factor.  Returns (scales (.., 1, n, 1), the
    (.., 3, n, T) channel view multiplied by them)."""
    nd = items.data.ndim
    per_item = permute(items, tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1))
    feat = reshape(per_item, per_item.shape[:-2] + (items.shape[-3] * 3,))
    hidden = leaky_relu(linear(feat, tensors[f"{head}.fc1.weight"], tensors[f"{head}.fc1.bias"]))
    raw = linear(hidden, tensors[f"{head}.fc2.weight"], tensors[f"{head}.fc2.bias"])
    del hidden, feat  # free them before the scaled product is allocated: held, they raise the peak memory
    scales = reshape(raw, raw.shape[:-2] + (1, raw.shape[-2], 1))
    return scales, mul(scales, _to_channels(items))


def scale_joints(x, tensors: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Per-joint learned scaling by the "joint_scale" head.

    Returns (scales, scaled): scales has one factor per joint, shape
    (.., 1, J, 1); scaled is the (.., 3, J, T) channel view multiplied by it.
    """
    return _scale_head(_as_tensor(x), tensors, "joint_scale")


def scale_bones(x, topology: Topology, tensors: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Per-bone learned scaling by the "bone_scale" head, with tree reassembly.

    Bone vectors are scaled like joints are in scale_joints, then joint
    positions are recovered by accumulating each root-to-joint path (a
    constant signed matrix) and re-adding the root trajectory.  Returns
    (scales (..,1,b,1), recovered (..,3,J,T)).
    """
    x = _as_tensor(x)
    dtype = x.data.dtype
    scales, scaled_vecs = _scale_head(Tensor(bones_from_joints(x.data, topology), dtype=dtype), tensors, "bone_scale")
    recovered = matmul(Tensor(topology.paths, dtype=dtype), scaled_vecs)
    root_traj = np.swapaxes(x.data[..., topology.root, :], -1, -2)[..., None, :]
    return scales, add(recovered, Tensor(root_traj, dtype=dtype))


def embed_to_image(channels: Tensor, weight: Tensor) -> Tensor:
    """Each channel: (T x J) embedding times (J x T) slice -> (T x T)."""
    t, j = weight.shape
    if channels.shape[-2] != j or channels.shape[-1] != t:
        raise DimensionError(
            f"embedding {weight.shape} cannot map channels {channels.shape}"
        )
    return matmul(weight, channels)


def attention_map(x, tensors: dict[str, Tensor]) -> Tensor:
    """Row-stochastic (.., T, T) map from scaled dot products of per-frame
    query/key projections of a shared frame encoder ("attention.*")."""
    x = _as_tensor(x)
    j = x.shape[-2]
    feat = reshape(x, x.shape[:-2] + (j * 3,))
    hidden = leaky_relu(linear(feat, tensors["attention.shared.weight"], tensors["attention.shared.bias"]))
    queries = linear(hidden, tensors["attention.query.weight"])
    keys = linear(hidden, tensors["attention.key.weight"])
    d_k = queries.shape[-1]
    scores = scale(matmul(queries, transpose_last2(keys)), 1.0 / math.sqrt(d_k))
    return softmax_rows(scores)


def apply_attention(image: Tensor, attention: Tensor) -> Tensor:
    """out[c] = image[c] * A + image[c], A broadcast over channels."""
    if image.shape[-2:] != attention.shape[-2:]:
        raise DimensionError(
            f"attention {attention.shape} does not match image {image.shape}"
        )
    spread = reshape(attention, attention.shape[:-2] + (1,) + attention.shape[-2:])
    return add(mul(image, spread), image)


def velocity_image(channels: Tensor, weight: Tensor, dt: float = 1.0) -> Tensor:
    """Frame-difference quotient along time, zero-padded, then embedded."""
    return embed_to_image(frame_velocity(channels, dt), weight)


def temporal_embed(image: Tensor, values: Tensor) -> Tensor:
    """Add one learned value per image column, broadcast over rows/channels."""
    t = values.shape[0]
    if image.shape[-1] != t:
        raise DimensionError(f"temporal vector {t} does not match image {image.shape}")
    return add(image, reshape(values, (1,) * (image.data.ndim - 1) + (t,)))


def uniform_attention(t: int, dtype=np.float32) -> Tensor:
    return Tensor(np.full((t, t), 1.0 / t), dtype=dtype)


def encode(x, enc: EncoderParams) -> EncodedBundle:
    """Run every enabled stage before the embeddings; pure function of (x, enc)."""
    x = _as_tensor(x)
    flags = enc.flags
    if flags.joint_scale:
        _, scaled_joints = scale_joints(x, enc.tensors)
    else:
        scaled_joints = _to_channels(x)
    if flags.bone_scale:
        _, scaled_bones = scale_bones(x, enc.topology, enc.tensors)
    else:
        scaled_bones = _to_channels(x)
    attention = attention_map(x, enc.tensors) if flags.attention else None
    channels = (scaled_joints, scaled_bones)
    if flags.velocity:
        channels += (frame_velocity(scaled_joints, enc.dt), frame_velocity(scaled_bones, enc.dt))
    return EncodedBundle(channels, attention)


def stream_image(bundle: EncodedBundle, name: str, enc: EncoderParams) -> tuple[ImageSource, tuple[Tensor, ...]]:
    """Stream ``name``'s (B, 3, T, T) image source and the tensors it reads.

    The source is ``embed_image_arrays`` over the stream's channels,
    ``embed.<name>``, the attention map for the ATTENDED streams, and
    ``temporal.<name>`` when that stage is on.  The tensors are those of
    the four it reads, in that order: the order of the gradients its
    ``back`` returns, less the Nones."""
    reads = (bundle.channels[STREAMS.index(name)], enc.tensors[f"embed.{name}"],
             bundle.attention if name in ATTENDED else None,
             enc.tensors[f"temporal.{name}"] if enc.flags.temporal else None)
    source = embed_image_arrays(*(None if t is None else t.data for t in reads))
    return source, tuple(t for t in reads if t is not None)
