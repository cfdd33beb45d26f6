"""Skeleton sequence data model, file formats, and kinematic-tree helpers.

A sequence is T frames of J joints in meters, with performer/camera/setup
metadata.  Files come in two shapes: the NTU-style ``.skeleton`` text layout
and a portable JSON-lines archive (one sequence per line).  The kinematic
tree is a rooted spanning tree over the joints: each bone vector is its
child joint minus its parent joint, and the root-path matrix turns bone
vectors back into joint positions.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyBodyError, ParseError, TopologyError, UsageError

PROTOCOLS = ("cross-subject", "cross-view", "cross-setup")

# Training performer ids of the standard NTU cross-subject protocol.
NTU_TRAIN_SUBJECTS = frozenset(
    {1, 2, 4, 5, 8, 9, 13, 14, 15, 16, 17, 18, 19, 25, 27, 28, 31, 34, 35, 38}
)

_NTU_NAME = re.compile(r"S(\d+)C(\d+)P(\d+)R(\d+)A(\d+)")

# Largest coordinate magnitude a parsed file may hold.  Skeletons are in
# meters; at this bound root-centring and the encoder's squares stay finite
# in float32, where coordinates near its 3.4e38 limit overflow to inf.
MAX_COORD = 1e6


class SkeletonSequence:
    """Ordered joint frames plus capture metadata.

    frames: (T, J, 3) float32, T >= 2, all coordinates finite.
    Equality compares frames and metadata but never ``source``, which only
    records where the sequence came from.
    """

    __slots__ = ("frames", "action_label", "subject_id", "camera_id", "setup_id", "source")

    def __init__(self, frames, action_label: int, subject_id: int, camera_id: int,
                 setup_id: int = 0, source: str = ""):
        frames = np.asarray(frames, dtype=np.float32)
        if frames.ndim != 3 or frames.shape[2] != 3:
            raise UsageError(f"frames must be (T, J, 3), got {frames.shape}")
        if frames.shape[0] < 2:
            raise UsageError("a sequence needs at least 2 frames")
        if not np.all(np.isfinite(frames)):
            raise UsageError("non-finite joint coordinate")
        self.frames = frames
        self.action_label = int(action_label)
        self.subject_id = int(subject_id)
        self.camera_id = int(camera_id)
        self.setup_id = int(setup_id)
        self.source = source

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def joint_count(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkeletonSequence):
            return NotImplemented
        return (
            self.action_label == other.action_label
            and self.subject_id == other.subject_id
            and self.camera_id == other.camera_id
            and self.setup_id == other.setup_id
            and self.frames.shape == other.frames.shape
            and np.array_equal(self.frames, other.frames)
        )

    def __repr__(self) -> str:
        return (f"SkeletonSequence(T={self.frame_count}, J={self.joint_count}, "
                f"label={self.action_label}, subject={self.subject_id}, "
                f"camera={self.camera_id}, setup={self.setup_id})")


# ---------------------------------------------------------------------------
# kinematic tree


@dataclass(frozen=True)
class Topology:
    """Rooted spanning tree over joints, with its root-path matrix.

    paths: (J, b) signed membership of each bone on the root-to-joint path;
    joint positions recover from bone vectors as X = root + V . paths^T.
    """

    joint_count: int
    bones: tuple[tuple[int, int], ...]
    root: int
    paths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bones = tuple((int(p), int(c)) for p, c in self.bones)
        object.__setattr__(self, "bones", bones)
        joints = self.joint_count
        if not 0 <= self.root < joints:
            raise TopologyError(f"root {self.root} out of range")
        if len(bones) != joints - 1:
            raise TopologyError(f"{len(bones)} bones cannot span {joints} joints")
        adjacency: list[list[tuple[int, int, float]]] = [[] for _ in range(joints)]
        for k, (p, q) in enumerate(bones):
            if not (0 <= p < joints and 0 <= q < joints):
                raise TopologyError(f"bone ({p}, {q}) references a missing joint")
            if p == q:
                raise TopologyError(f"bone ({p}, {q}) is a self-loop")
            adjacency[p].append((q, k, 1.0))   # traverse parent->child: add the bone
            adjacency[q].append((p, k, -1.0))  # traverse child->parent: subtract it
        # one breadth-first walk from the root: a joint's path is its
        # predecessor's plus the signed bone between them
        paths = np.zeros((joints, len(bones)), dtype=np.float32)
        seen = [False] * joints
        seen[self.root] = True
        reached = [self.root]
        for u in reached:  # the walk appends to the list it reads
            for v, k, sign in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    paths[v] = paths[u]
                    paths[v, k] = sign
                    reached.append(v)
        if len(reached) != joints:
            raise TopologyError("bones do not connect all joints")
        object.__setattr__(self, "paths", paths)


def bones_from_joints(frames: np.ndarray, topology: Topology) -> np.ndarray:
    """Bone vectors child - parent, shape (..., b, 3) from frames (..., J, 3)."""
    parents = np.array([p for p, _ in topology.bones])
    children = np.array([c for _, c in topology.bones])
    return frames[..., children, :] - frames[..., parents, :]


def ntu_topology() -> Topology:
    """25-joint Kinect-v2 body tree rooted at the mid-spine joint."""
    bones = (
        (1, 0), (0, 12), (0, 16), (1, 20), (20, 2), (2, 3),
        (20, 4), (4, 5), (5, 6), (6, 7), (7, 22), (22, 21),
        (20, 8), (8, 9), (9, 10), (10, 11), (11, 24), (24, 23),
        (12, 13), (13, 14), (14, 15), (16, 17), (17, 18), (18, 19),
    )
    return Topology(joint_count=25, bones=bones, root=1)


# ---------------------------------------------------------------------------
# NTU .skeleton text format


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def take(self) -> tuple[str, int]:
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file", line=len(self.lines))
        self.pos += 1
        return self.lines[self.pos - 1].strip(), self.pos

    def take_int(self, what: str) -> tuple[int, int]:
        text, num = self.take()
        try:
            return int(text.split()[0]), num
        except (ValueError, IndexError):
            raise ParseError(f"expected {what}, got {text!r}", line=num) from None


def parse_ntu(path) -> SkeletonSequence:
    """Parse one NTU-style ``.skeleton`` file into the primary body's sequence.

    Layout: a frame count; per frame a body count; per body an info line, a
    joint count line (must be 25), then one line per joint whose first three
    fields are x y z.  When several bodies are tracked, the one with the
    largest total frame-to-frame displacement energy wins; frames without a
    tracked body are dropped.  Metadata comes from the SsssCcccPpppRrrrAaaa
    filename pattern.  A coordinate that is not finite or lies beyond
    MAX_COORD in magnitude is a ParseError naming its line, raised before
    the float32 cast or the energy's squares could overflow on it.
    """
    path = Path(path)
    match = _NTU_NAME.search(path.name)
    if match is None:
        raise ParseError(f"filename {path.name!r} lacks the SsssCcccPpppRrrrAaaa pattern")
    setup, camera, subject, _, action = (int(g) for g in match.groups())

    try:
        cur = _Cursor(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
    frame_count, _ = cur.take_int("frame count")
    observations: dict[str, list[tuple[int, np.ndarray]]] = {}
    body_order: list[str] = []
    for frame_idx in range(frame_count):
        body_count, _ = cur.take_int("body count")
        for _ in range(body_count):
            info, _ = cur.take()
            body_id = info.split()[0] if info else "0"
            joint_count, num = cur.take_int("joint count")
            if joint_count != 25:
                raise ParseError(f"expected 25 joints, got {joint_count}", line=num)
            coords = np.empty((25, 3), dtype=np.float32)
            for j in range(25):
                text, num = cur.take()
                parts = text.split()
                if len(parts) < 3:
                    raise ParseError(f"joint line has {len(parts)} fields, need at least 3", line=num)
                try:
                    xyz = [float(parts[0]), float(parts[1]), float(parts[2])]
                except ValueError:
                    raise ParseError(f"bad joint coordinates {text!r}", line=num) from None
                if not all(abs(c) <= MAX_COORD for c in xyz):  # also rejects NaN and inf
                    raise ParseError(f"non-finite joint coordinate or one beyond {MAX_COORD:g}", line=num)
                coords[j] = xyz
            if body_id not in observations:
                observations[body_id] = []
                body_order.append(body_id)
            observations[body_id].append((frame_idx, coords))

    if not observations:
        raise EmptyBodyError(f"{path.name}: no tracked body in any frame")

    def energy(obs: list[tuple[int, np.ndarray]]) -> float:
        total = 0.0
        for (_, a), (_, b) in zip(obs, obs[1:]):
            total += float(np.sum((b - a) ** 2))
        return total

    primary = max(body_order, key=lambda bid: energy(observations[bid]))
    frames = np.stack([coords for _, coords in observations[primary]])
    if frames.shape[0] < 2:
        raise ParseError(f"{path.name}: primary body tracked in fewer than 2 frames")
    return SkeletonSequence(frames, action_label=action, subject_id=subject,
                            camera_id=camera, setup_id=setup, source=str(path))


# ---------------------------------------------------------------------------
# JSON-lines archive


def write_jsonl(sequences, path) -> None:
    """One JSON object per line: label, subject, camera, setup, frames.
    Coordinates print with 9 significant digits, which read back as the
    same float32."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            t, j, _ = seq.frames.shape
            frame = "[" + ",".join(["[%.9g,%.9g,%.9g]"] * j) + "]"
            frames = ",".join(frame % tuple(row) for row in seq.frames.reshape(t, -1).tolist())
            # %g prints -0.0 as the JSON integer -0, which reads back as +0;
            # no other token ends in "-0" (exponents have two digits).  The
            # check skips two scans of the text when there is no -0.0.
            if (np.signbit(seq.frames) & (seq.frames == 0)).any():
                frames = frames.replace("-0,", "-0.0,").replace("-0]", "-0.0]")
            fh.write(
                '{"label":%d,"subject":%d,"camera":%d,"setup":%d,"frames":[%s]}\n'
                % (seq.action_label, seq.subject_id, seq.camera_id, seq.setup_id, frames)
            )


def _numbered_lines(fh, path):
    """enumerate(fh, start=1), with bytes that are not UTF-8 a ParseError."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def parse_jsonl(path) -> list[SkeletonSequence]:
    """Inverse of write_jsonl.  An empty file is an empty dataset.  All
    sequences in one file must agree on the joint count.  label, subject,
    camera and setup must be JSON integers in int64 (not booleans); coordinates
    must be JSON numbers no larger than MAX_COORD in magnitude."""
    sequences: list[SkeletonSequence] = []
    expected_joints: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for num, line in _numbered_lines(fh, path):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=num) from None
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", line=num)
            for key in ("label", "subject", "camera", "frames"):
                if key not in obj:
                    raise ParseError(f"missing field {key!r}", line=num)
            ids = {key: obj.get(key, 0) for key in ("label", "subject", "camera", "setup")}
            for key, value in ids.items():
                # rejects bools, floats (1e400 is inf), strings, and what int64 cannot hold
                if type(value) is not int or not -(2**63) <= value < 2**63:
                    raise ParseError(f"{key} must be an int64 integer, got {value!r}", line=num)
            raw = obj["frames"]
            try:
                frames = np.array(raw)
            except ValueError:  # ragged nesting
                frames = None
            if (frames is None or frames.ndim != 3 or frames.shape[2] != 3
                    or frames.dtype.kind not in "iuf"
                    # numpy reads a boolean among numbers as 1/0; write_jsonl
                    # never emits one, so only such lines pay for the walk
                    or (("true" in line or "false" in line)
                        and any(type(c) is bool for frame in raw for joint in frame for c in joint))):
                raise ParseError("expected numeric [x, y, z] joint coordinates", line=num)
            if frames.shape[0] < 2:
                raise ParseError("expected at least 2 frames", line=num)
            if expected_joints is None:
                expected_joints = frames.shape[1]
            if frames.shape[1] != expected_joints:
                raise ParseError(f"expected {expected_joints} joints, got {frames.shape[1]}", line=num)
            with np.errstate(over="ignore"):  # a value beyond float32 casts to inf, refused below
                frames = frames.astype(np.float32)
            if not np.abs(frames).max() <= MAX_COORD:  # also rejects NaN and inf
                raise ParseError(f"non-finite joint coordinate or one beyond {MAX_COORD:g}", line=num)
            sequences.append(
                SkeletonSequence(
                    frames,
                    action_label=ids["label"],
                    subject_id=ids["subject"],
                    camera_id=ids["camera"],
                    setup_id=ids["setup"],
                    source=f"{path}:{num}",
                )
            )
    return sequences


# ---------------------------------------------------------------------------
# preprocessing


def resample_frames(frames: np.ndarray, frame_count: int) -> np.ndarray:
    """Linear interpolation to exactly ``frame_count`` frames along uniform
    time positions; first and last frames are preserved bit-exactly."""
    if frame_count < 2:
        raise UsageError(f"resampling needs frame_count >= 2, got {frame_count}")
    t_in = frames.shape[0]
    positions = np.arange(frame_count, dtype=np.float64) * (t_in - 1) / (frame_count - 1)
    base = np.minimum(positions.astype(np.int64), t_in - 2)
    frac = (positions - base).astype(np.float32)
    lo = frames[base]
    hi = frames[base + 1]
    out = lo + frac[:, None, None] * (hi - lo)
    exact = positions - np.floor(positions) < 1e-9
    out[exact] = frames[np.floor(positions[exact]).astype(np.int64)]
    return out


def preprocess(seq: SkeletonSequence, root: int, frame_count: int) -> np.ndarray:
    """Translate so the first frame's root joint sits at the origin, then
    resample; returns the (frame_count, J, 3) array."""
    return resample_frames(seq.frames - seq.frames[0, root], frame_count)


# ---------------------------------------------------------------------------
# dataset splits


@dataclass(frozen=True)
class DatasetSplit:
    """Index partition of a sequence list under a named protocol."""

    train: tuple[int, ...]
    test: tuple[int, ...]
    protocol: str

    def __post_init__(self):
        overlap = set(self.train) & set(self.test)
        if overlap:
            raise UsageError(f"split overlaps on ids {sorted(overlap)[:5]}")


def split_dataset(sequences, protocol: str, train_subjects=None) -> DatasetSplit:
    """Partition sequence indices by performer, camera, or setup.

    cross-subject: train = sequences whose subject id is in ``train_subjects``
    (default: the first 80 percent of the sorted subject ids, rounded up).
    cross-view: camera 1 is the test view, all other cameras train.
    cross-setup: even setup ids train, odd ids test.
    """
    if protocol not in PROTOCOLS:
        raise UsageError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
    sequences = list(sequences)
    if protocol == "cross-subject":
        if train_subjects is None:
            subjects = sorted({s.subject_id for s in sequences})
            keep = math.ceil(0.8 * len(subjects))
            train_subjects = set(subjects[:keep])
        else:
            train_subjects = set(train_subjects)
        in_train = [s.subject_id in train_subjects for s in sequences]
    elif protocol == "cross-view":
        in_train = [s.camera_id != 1 for s in sequences]
    else:
        in_train = [s.setup_id % 2 == 0 for s in sequences]
    train = tuple(i for i, keep in enumerate(in_train) if keep)
    test = tuple(i for i, keep in enumerate(in_train) if not keep)
    return DatasetSplit(train=train, test=test, protocol=protocol)
