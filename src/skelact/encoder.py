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

All ops accept an optional leading batch axis.  Ablation flags prune the
learned stages; whatever remains stays differentiable end to end.

``enhance`` computes everything before the embeddings: the scaled
channels, their velocities and the attention map.  ``encode`` builds each
image from it as one tape node, ``autograd.embed_image``, whose values and
gradients are bit for bit those of ``embed_to_image``, ``apply_attention``
and ``temporal_embed`` composed; ``write_image`` builds one stream's image
untaped, with the same bits, in this thread's workspace, and returns it
without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .autograd import (
    Tensor, _workspace, add, embed_image, frame_velocity, leaky_relu, linear, matmul, mul,
    permute, reshape, scale, softmax_rows, transpose_last2,
)
from .errors import DimensionError
from .skeleton import Topology, bones_from_joints

LEAKY_SLOPE = 0.01

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
class ScaleHead:
    """Two fully connected layers mapping a flattened (T*3) trajectory to a
    single scale factor, applied independently per joint or per bone."""

    fc1_weight: Tensor
    fc1_bias: Tensor
    fc2_weight: Tensor
    fc2_bias: Tensor


def _tensor_name(prefix: str, field_name: str) -> str:
    """A holder field's tensor name: fc1_weight under "joint_scale" is
    "joint_scale.fc1.weight"."""
    return f"{prefix}.{field_name.replace('_', '.')}"


def named_fields(holder, prefix: str) -> dict[str, Tensor]:
    """A parameter holder's tensors under their names, in field order."""
    return {_tensor_name(prefix, f.name): getattr(holder, f.name) for f in fields(holder)}


def from_named(cls, prefix: str, tensors: dict[str, Tensor]):
    """Inverse of named_fields: build a ``cls`` holder from named tensors."""
    return cls(**{f.name: tensors[_tensor_name(prefix, f.name)] for f in fields(cls)})


@dataclass
class EmbeddingLayer:
    """T x J matrix multiplying each channel of a (3, J, T) tensor."""

    weight: Tensor


@dataclass
class AttentionHead:
    """Shared frame encoder plus separate query/key projections."""

    shared_weight: Tensor
    shared_bias: Tensor
    query_weight: Tensor
    key_weight: Tensor


@dataclass
class TemporalEmbedding:
    """Length-T vector added per image column."""

    values: Tensor


@dataclass
class EncoderParams:
    """Every learned piece of the encoder plus its structural constants."""

    topology: Topology
    flags: EnhanceFlags
    frames: int
    dt: float = 1.0
    joint_scale: ScaleHead | None = None
    bone_scale: ScaleHead | None = None
    attention: AttentionHead | None = None
    embeddings: dict[str, EmbeddingLayer] = field(default_factory=dict)
    temporals: dict[str, TemporalEmbedding] = field(default_factory=dict)

    def named_tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for prefix in ("joint_scale", "bone_scale", "attention"):
            holder = getattr(self, prefix)
            if holder is not None:
                out.update(named_fields(holder, prefix))
        for name in self.flags.active_streams():
            out[f"embed.{name}"] = self.embeddings[name].weight
        for name, te in self.temporals.items():
            out[f"temporal.{name}"] = te.values
        # dict insertion order is the deterministic parameter order
        return out


@dataclass
class EncodedBundle:
    """The four enhanced images plus the attention map.

    joint/bone velocity images are None when the velocity stage is off.
    """

    joints_image: Tensor
    bones_image: Tensor
    joint_vel_image: Tensor | None
    bone_vel_image: Tensor | None
    attention: Tensor

    def images(self) -> list[Tensor]:
        out = [self.joints_image, self.bones_image]
        if self.joint_vel_image is not None:
            out += [self.joint_vel_image, self.bone_vel_image]
        return out


def _as_tensor(x, like_dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    return Tensor(arr, dtype=arr.dtype if like_dtype is None else like_dtype)


def _to_channels(x: Tensor) -> Tensor:
    """(.., T, J, 3) -> (.., 3, J, T)"""
    nd = x.data.ndim
    return permute(x, tuple(range(nd - 3)) + (nd - 1, nd - 2, nd - 3))


def _head_scales(per_item: Tensor, head: ScaleHead) -> Tensor:
    """Apply a scale head over the trailing feature axis: (.., n, T*3) -> (.., 1, n, 1)."""
    hidden = leaky_relu(linear(per_item, head.fc1_weight, head.fc1_bias), LEAKY_SLOPE)
    raw = linear(hidden, head.fc2_weight, head.fc2_bias)
    batch = raw.shape[:-2]
    return reshape(raw, batch + (1, raw.shape[-2], 1))


def scale_joints(x, head: ScaleHead) -> tuple[Tensor, Tensor]:
    """Per-joint learned scaling.

    Returns (scales, scaled): scales has one factor per joint, shape
    (.., 1, J, 1); scaled is the (.., 3, J, T) channel view multiplied by it.
    """
    x = _as_tensor(x)
    nd = x.data.ndim
    t, j = x.shape[-3], x.shape[-2]
    per_joint = permute(x, tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1))
    feat = reshape(per_joint, per_joint.shape[:-2] + (t * 3,))
    scales = _head_scales(feat, head)
    scaled = mul(scales, _to_channels(x))
    return scales, scaled


def scale_bones(x, topology: Topology, head: ScaleHead) -> tuple[Tensor, Tensor]:
    """Per-bone learned scaling with tree reassembly.

    Bone vectors are scaled like joints are in scale_joints, then joint
    positions are recovered by accumulating each root-to-joint path (a
    constant signed matrix) and re-adding the root trajectory.  Returns
    (scales (..,1,b,1), recovered (..,3,J,T)).
    """
    x = _as_tensor(x)
    nd = x.data.ndim
    t = x.shape[-3]
    bones = Tensor(bones_from_joints(x.data, topology), dtype=x.data.dtype)
    per_bone = permute(bones, tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1))
    feat = reshape(per_bone, per_bone.shape[:-2] + (t * 3,))
    scales = _head_scales(feat, head)
    scaled_vecs = mul(scales, _to_channels(bones))
    paths = Tensor(topology.paths.astype(x.data.dtype))
    recovered = matmul(paths, scaled_vecs)
    root_traj = np.swapaxes(x.data[..., topology.root, :], -1, -2)[..., None, :]
    recovered = add(recovered, Tensor(root_traj, dtype=x.data.dtype))
    return scales, recovered


def embed_to_image(channels: Tensor, emb: EmbeddingLayer) -> Tensor:
    """Each channel: (T x J) embedding times (J x T) slice -> (T x T)."""
    t, j = emb.weight.shape
    if channels.shape[-2] != j or channels.shape[-1] != t:
        raise DimensionError(
            f"embedding {emb.weight.shape} cannot map channels {channels.shape}"
        )
    return matmul(emb.weight, channels)


def attention_map(x, head: AttentionHead) -> Tensor:
    """Row-stochastic (.., T, T) map from scaled dot products of per-frame
    query/key projections."""
    x = _as_tensor(x)
    j = x.shape[-2]
    feat = reshape(x, x.shape[:-2] + (j * 3,))
    hidden = leaky_relu(linear(feat, head.shared_weight, head.shared_bias), LEAKY_SLOPE)
    queries = linear(hidden, head.query_weight)
    keys = linear(hidden, head.key_weight)
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


def velocity_image(channels: Tensor, emb: EmbeddingLayer, dt: float = 1.0) -> Tensor:
    """Frame-difference quotient along time, zero-padded, then embedded."""
    return embed_to_image(frame_velocity(channels, dt), emb)


def temporal_embed(image: Tensor, te: TemporalEmbedding) -> Tensor:
    """Add one learned value per image column, broadcast over rows/channels."""
    t = te.values.shape[0]
    if image.shape[-1] != t:
        raise DimensionError(f"temporal vector {t} does not match image {image.shape}")
    return add(image, reshape(te.values, (1,) * (image.data.ndim - 1) + (t,)))


def uniform_attention(t: int, dtype=np.float32) -> Tensor:
    return Tensor(np.full((t, t), 1.0 / t, dtype=dtype))


def enhance(x, enc: EncoderParams) -> tuple[dict[str, Tensor], Tensor | None]:
    """The stages before the embeddings, shared by encode and the untaped
    inference path: each active stream's (.., 3, J, T) channels in STREAMS
    order (scaled joints and bones, and their frame-difference velocities),
    plus the attention map, None when that stage is off."""
    x = _as_tensor(x)
    flags = enc.flags
    if flags.joint_scale:
        _, scaled_joints = scale_joints(x, enc.joint_scale)
    else:
        scaled_joints = _to_channels(x)
    if flags.bone_scale:
        _, scaled_bones = scale_bones(x, enc.topology, enc.bone_scale)
    else:
        scaled_bones = _to_channels(x)
    attention = attention_map(x, enc.attention) if flags.attention else None
    channels = {"joints": scaled_joints, "bones": scaled_bones}
    if flags.velocity:
        channels["joint_velocity"] = frame_velocity(scaled_joints, enc.dt)
        channels["bone_velocity"] = frame_velocity(scaled_bones, enc.dt)
    return channels, attention


def encode(x, enc: EncoderParams) -> EncodedBundle:
    """Run every enabled stage; pure function of (x, enc)."""
    x = _as_tensor(x)
    channels, attention = enhance(x, enc)
    images = {
        name: embed_image(ch, enc.embeddings[name].weight, attention if name in ATTENDED else None,
                          enc.temporals[name].values if enc.flags.temporal else None)
        for name, ch in channels.items()
    }
    return EncodedBundle(
        joints_image=images["joints"],
        bones_image=images["bones"],
        joint_vel_image=images.get("joint_velocity"),
        bone_vel_image=images.get("bone_velocity"),
        attention=uniform_attention(x.shape[-3], dtype=x.data.dtype) if attention is None else attention,
    )


def write_image(name: str, channels: Tensor, attention: Tensor | None, enc: EncoderParams) -> Tensor:
    """Untaped: stream ``name``'s (.., 3, T, T) image, bit for bit the one
    encode builds from the same enhance() results.

    The image is built in this thread's workspace, each operation with its
    operands in encode's order, and returned as a Tensor of its own dtype
    over that workspace view: the next call for this thread overwrites it.
    """
    weight = enc.embeddings[name].weight.data
    t = weight.shape[0]
    shape, dtype = channels.shape[:-2] + (t, t), np.result_type(weight, channels.data)
    image = _workspace("image", shape, dtype)
    np.matmul(weight, channels.data, out=image)
    if attention is not None and name in ATTENDED:
        product = _workspace("attended", shape, dtype)
        np.multiply(image, attention.data[..., None, :, :], out=product)
        np.add(product, image, out=image)
    if enc.flags.temporal:
        image += enc.temporals[name].values.data
    return Tensor(image, dtype=dtype)
