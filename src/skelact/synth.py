"""Parametric synthetic motion generator on a 15-joint humanoid.

Eight scripted motion classes (arm raise, wave, squat, kick, lean, turn,
reach, clap) are rendered as 48-frame joint trajectories, then varied per
sequence by a yaw rotation of the whole body, a uniform body scale, and
additive Gaussian joint noise.  Everything is drawn from one seeded
generator in a fixed order, so a config fully determines the dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .skeleton import SkeletonSequence, Topology

RAW_FRAMES = 48

PELVIS, SPINE, HEAD = 0, 1, 2
L_SHOULDER, L_ELBOW, L_WRIST = 3, 4, 5
R_SHOULDER, R_ELBOW, R_WRIST = 6, 7, 8
L_HIP, L_KNEE, L_ANKLE = 9, 10, 11
R_HIP, R_KNEE, R_ANKLE = 12, 13, 14

BASE_POSE = np.array(
    [
        [0.00, 0.95, 0.0],   # pelvis
        [0.00, 1.25, 0.0],   # spine
        [0.00, 1.62, 0.0],   # head
        [-0.22, 1.45, 0.0],  # left shoulder
        [-0.30, 1.18, 0.0],  # left elbow
        [-0.33, 0.92, 0.0],  # left wrist
        [0.22, 1.45, 0.0],   # right shoulder
        [0.30, 1.18, 0.0],   # right elbow
        [0.33, 0.92, 0.0],   # right wrist
        [-0.11, 0.90, 0.0],  # left hip
        [-0.12, 0.50, 0.0],  # left knee
        [-0.13, 0.08, 0.0],  # left ankle
        [0.11, 0.90, 0.0],   # right hip
        [0.12, 0.50, 0.0],   # right knee
        [0.13, 0.08, 0.0],   # right ankle
    ],
    dtype=np.float64,
)

CLASS_NAMES = ("arm_raise", "wave", "squat", "kick", "lean", "turn", "reach", "clap")


def humanoid_topology() -> Topology:
    bones = (
        (PELVIS, SPINE), (SPINE, HEAD),
        (SPINE, L_SHOULDER), (L_SHOULDER, L_ELBOW), (L_ELBOW, L_WRIST),
        (SPINE, R_SHOULDER), (R_SHOULDER, R_ELBOW), (R_ELBOW, R_WRIST),
        (PELVIS, L_HIP), (L_HIP, L_KNEE), (L_KNEE, L_ANKLE),
        (PELVIS, R_HIP), (R_HIP, R_KNEE), (R_KNEE, R_ANKLE),
    )
    return Topology(joint_count=15, bones=bones, root=PELVIS)


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; every field participates in determinism."""

    class_count: int = 8
    sequences_per_class: int = 125
    noise_std: float = 0.01
    view_yaw_range: tuple[float, float] = (-30.0, 30.0)
    body_scale_range: tuple[float, float] = (0.9, 1.1)
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.class_count <= len(CLASS_NAMES):
            raise UsageError(f"class_count must be 1..{len(CLASS_NAMES)}, got {self.class_count}")
        if self.sequences_per_class < 1:
            raise UsageError("sequences_per_class must be positive")
        if not 0 <= self.noise_std < math.inf:
            raise UsageError(f"noise_std must be finite and non-negative, got {self.noise_std}")
        if not all(map(math.isfinite, (*self.view_yaw_range, *self.body_scale_range))):
            raise UsageError(f"yaw and body scale ranges must be finite, got {self.view_yaw_range} "
                             f"and {self.body_scale_range}")
        lo, hi = self.view_yaw_range
        if lo > hi:
            raise UsageError(f"empty yaw range {self.view_yaw_range}")
        lo, hi = self.body_scale_range
        if not 0 < lo <= hi:
            raise UsageError(f"body scale range must be positive, got {self.body_scale_range}")


def class_trajectory(class_id: int, frame_count: int = RAW_FRAMES) -> np.ndarray:
    """Noise-free (frame_count, 15, 3) trajectory of one motion class."""
    if not 0 <= class_id < len(CLASS_NAMES):
        raise UsageError(f"class_id must be 0..{len(CLASS_NAMES) - 1}, got {class_id}")
    t = np.linspace(0.0, 1.0, frame_count)
    half = np.sin(np.pi * t)        # one rise-and-fall
    sway = np.sin(2 * np.pi * t)    # one full oscillation
    frames = np.repeat(BASE_POSE[None], frame_count, axis=0)
    name = CLASS_NAMES[class_id]

    if name == "arm_raise":
        for wrist, elbow, out in ((L_WRIST, L_ELBOW, -1.0), (R_WRIST, R_ELBOW, 1.0)):
            frames[:, wrist, 1] += 0.75 * half
            frames[:, wrist, 0] += out * 0.05 * half
            frames[:, elbow, 1] += 0.45 * half
    elif name == "wave":
        frames[:, R_WRIST, 1] += 0.65 * half
        frames[:, R_WRIST, 0] += 0.25 * np.sin(4 * np.pi * t) * half
        frames[:, R_ELBOW, 1] += 0.35 * half
    elif name == "squat":
        drop = 0.32 * half
        upper = (PELVIS, SPINE, HEAD, L_SHOULDER, L_ELBOW, L_WRIST,
                 R_SHOULDER, R_ELBOW, R_WRIST, L_HIP, R_HIP)
        for j in upper:
            frames[:, j, 1] -= drop
        for knee in (L_KNEE, R_KNEE):
            frames[:, knee, 1] -= 0.5 * drop
            frames[:, knee, 2] += 0.18 * half
    elif name == "kick":
        frames[:, R_ANKLE, 2] += 0.55 * half
        frames[:, R_ANKLE, 1] += 0.25 * half
        frames[:, R_KNEE, 2] += 0.30 * half
        frames[:, R_KNEE, 1] += 0.12 * half
    elif name == "lean":
        for j, amp in ((HEAD, 0.28), (SPINE, 0.14), (L_SHOULDER, 0.20), (R_SHOULDER, 0.20),
                       (L_ELBOW, 0.24), (R_ELBOW, 0.24), (L_WRIST, 0.26), (R_WRIST, 0.26)):
            frames[:, j, 0] += amp * sway
    elif name == "turn":
        theta = 0.9 * sway
        cos, sin = np.cos(theta), np.sin(theta)
        upper = (SPINE, HEAD, L_SHOULDER, L_ELBOW, L_WRIST, R_SHOULDER, R_ELBOW, R_WRIST)
        for j in upper:
            x, z = frames[:, j, 0].copy(), frames[:, j, 2].copy()
            frames[:, j, 0] = cos * x + sin * z
            frames[:, j, 2] = -sin * x + cos * z
    elif name == "reach":
        frames[:, R_WRIST, 2] += 0.60 * half
        frames[:, R_WRIST, 1] += 0.15 * half
        frames[:, R_ELBOW, 2] += 0.32 * half
        frames[:, R_ELBOW, 1] += 0.08 * half
        frames[:, SPINE, 2] += 0.05 * half
    else:  # clap
        meet = np.sin(2 * np.pi * t) ** 2  # hands meet twice
        for wrist, elbow, toward in ((L_WRIST, L_ELBOW, 1.0), (R_WRIST, R_ELBOW, -1.0)):
            frames[:, wrist, 0] += toward * 0.28 * meet
            frames[:, wrist, 1] += 0.45 * meet
            frames[:, wrist, 2] += 0.22 * meet
            frames[:, elbow, 0] += toward * 0.10 * meet
            frames[:, elbow, 1] += 0.20 * meet
    return frames


def synth_generate(config: SynthConfig) -> list[SkeletonSequence]:
    """Render the configured classes with per-sequence yaw/scale/noise.

    Sequence i of a class gets subject_id i, camera_id (i mod 3) + 1 and
    setup_id (i mod 4) + 1, so every split protocol has something to bite on.
    """
    rng = np.random.default_rng(config.seed)
    yaw_lo, yaw_hi = config.view_yaw_range
    scale_lo, scale_hi = config.body_scale_range
    sequences: list[SkeletonSequence] = []
    for class_id in range(config.class_count):
        base = class_trajectory(class_id)
        for i in range(config.sequences_per_class):
            yaw = np.radians(rng.uniform(yaw_lo, yaw_hi))
            scale = rng.uniform(scale_lo, scale_hi)
            noise = rng.standard_normal(base.shape) * config.noise_std
            rot = np.array(
                [[np.cos(yaw), 0.0, np.sin(yaw)],
                 [0.0, 1.0, 0.0],
                 [-np.sin(yaw), 0.0, np.cos(yaw)]]
            )
            frames = (base @ rot.T) * scale + noise
            sequences.append(
                SkeletonSequence(
                    frames.astype(np.float32),
                    action_label=class_id,
                    subject_id=i,
                    camera_id=(i % 3) + 1,
                    setup_id=(i % 4) + 1,
                    source=f"synth:{CLASS_NAMES[class_id]}:{i}",
                )
            )
    return sequences
