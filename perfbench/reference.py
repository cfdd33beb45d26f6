"""An independent float64 forward pass: the oracle for the logit checks.

Recomputes ``preprocess`` on the generated frames, then
``recognizer.forward(encode(x))`` for the all-flags model, in plain numpy
from the frames and the model's weights and config alone.  Convolution sums
nine shifted products instead of building an im2col matrix, pooling takes
a reshaped max, and bone reassembly walks the tree.  It calls no skelact
code, so an op that a later change gets wrong in both precisions still
fails the check.
"""

from __future__ import annotations

import math

import numpy as np

SLOPE = 0.01


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, x * SLOPE)


def _per_item(v: np.ndarray) -> np.ndarray:
    """(B, T, n, 3) -> (B, n, T*3): each joint's or bone's whole trajectory."""
    b, t, n, _ = v.shape
    return v.transpose(0, 2, 1, 3).reshape(b, n, t * 3)


def _channels(v: np.ndarray) -> np.ndarray:
    """(B, T, n, 3) -> (B, 3, n, T)"""
    return v.transpose(0, 3, 2, 1)


def _scales(feat: np.ndarray, w: dict, prefix: str) -> np.ndarray:
    """Scale head over (B, n, T*3) -> one factor per item, shaped (B, 1, n, 1)."""
    hidden = _leaky(feat @ w[f"{prefix}.fc1.weight"].T + w[f"{prefix}.fc1.bias"])
    raw = hidden @ w[f"{prefix}.fc2.weight"].T + w[f"{prefix}.fc2.bias"]
    return raw[:, None, :, :]


def _reassemble(x: np.ndarray, scaled: np.ndarray, bones, root: int) -> np.ndarray:
    """Joint positions (B, 3, J, T) from scaled bone vectors (B, 3, b, T),
    walking outward from the root, which keeps its own trajectory."""
    joints = np.full((x.shape[0], 3, x.shape[2], x.shape[1]), np.nan)
    joints[:, :, root, :] = _channels(x)[:, :, root, :]
    placed = {root}
    while len(placed) < x.shape[2]:
        for k, (parent, child) in enumerate(bones):
            if parent in placed and child not in placed:
                joints[:, :, child, :] = joints[:, :, parent, :] + scaled[:, :, k, :]
                placed.add(child)
            elif child in placed and parent not in placed:
                joints[:, :, parent, :] = joints[:, :, child, :] - scaled[:, :, k, :]
                placed.add(parent)
    return joints


def _attention(x: np.ndarray, w: dict) -> np.ndarray:
    b, t, j, _ = x.shape
    hidden = _leaky(x.reshape(b, t, j * 3) @ w["attention.shared.weight"].T + w["attention.shared.bias"])
    q = hidden @ w["attention.query.weight"].T
    k = hidden @ w["attention.key.weight"].T
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(q.shape[-1])
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _velocity(channels: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(channels)
    out[..., :-1] = (channels[..., 1:] - channels[..., :-1]) / dt
    return out


def _conv_s2_p1(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """3x3 cross-correlation, stride 2, padding 1, as nine shifted products."""
    b, _, h, w = x.shape
    ho, wo = (h - 1) // 2 + 1, (w - 1) // 2 + 1
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))).transpose(0, 2, 3, 1)
    out = np.zeros((b, ho, wo, kernels.shape[0]))
    for i in range(3):
        for j in range(3):
            out += xp[:, i : i + 2 * ho : 2, j : j + 2 * wo : 2, :] @ kernels[:, :, i, j].T
    return (out + bias).transpose(0, 3, 1, 2)


def _maxpool2(x: np.ndarray) -> np.ndarray:
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def preprocess(frames: np.ndarray, root: int, frame_count: int) -> np.ndarray:
    """(T, J, 3) frames -> (frame_count, J, 3) float64: the first frame's root
    joint moved to the origin, then linear interpolation at frame_count
    evenly spaced times from the first frame to the last."""
    f = np.asarray(frames, dtype=np.float64)
    f = f - f[0, root]
    times = np.linspace(0.0, f.shape[0] - 1, frame_count)
    flat = f.reshape(f.shape[0], -1)
    out = np.stack([np.interp(times, np.arange(f.shape[0]), flat[:, k]) for k in range(flat.shape[1])], axis=1)
    return out.reshape(frame_count, *f.shape[1:])


def reference_logits(x: np.ndarray, params) -> np.ndarray:
    """Logits (B, classes) of ``params`` on the (B, T, J, 3) batch ``x``."""
    config = params.config
    if not all(vars(config.flags).values()):
        raise ValueError("the reference covers the all-flags model only")
    w = {name: t.data.astype(np.float64) for name, t in params.named_tensors().items()}
    x = np.asarray(x, dtype=np.float64)

    joints = _channels(x) * _scales(_per_item(x), w, "joint_scale")
    parents = [p for p, _ in config.bones]
    children = [c for _, c in config.bones]
    bone_vecs = x[:, :, children, :] - x[:, :, parents, :]
    scaled_bones = _channels(bone_vecs) * _scales(_per_item(bone_vecs), w, "bone_scale")
    bones = _reassemble(x, scaled_bones, config.bones, config.root)

    # (T, J) embeddings map each (J, T) channel to a (T, T) image
    attention = _attention(x, w)[:, None]
    images = {
        "joints": w["embed.joints"] @ joints,
        "bones": w["embed.bones"] @ bones,
    }
    for name in ("joints", "bones"):
        images[name] = images[name] * attention + images[name]
    images["joint_velocity"] = w["embed.joint_velocity"] @ _velocity(joints, config.dt)
    images["bone_velocity"] = w["embed.bone_velocity"] @ _velocity(bones, config.dt)

    features = []
    for i, name in enumerate(("joints", "bones", "joint_velocity", "bone_velocity")):
        h = images[name] + w[f"temporal.{name}"]
        for n in (1, 2, 3):
            h = _leaky(_maxpool2(_conv_s2_p1(h, w[f"stream{i}.conv{n}.kernels"], w[f"stream{i}.conv{n}.bias"])))
        features.append(h.reshape(h.shape[0], -1))
    hidden = _leaky(np.concatenate(features, axis=-1) @ w["classifier.fc1.weight"].T + w["classifier.fc1.bias"])
    return hidden @ w["classifier.fc2.weight"].T + w["classifier.fc2.bias"]
