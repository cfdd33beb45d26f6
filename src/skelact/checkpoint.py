"""Binary checkpoint container.

Layout, all integers little-endian u32 and all values little-endian f32:

    magic "AFEC" | version | entry count |
    per entry: name length | utf-8 name | rank | extents... | values...

Entries are the model's configuration (stored as small f32 arrays under
"config.*" names; saving refuses a config integer that f32 cannot hold
exactly) followed by every parameter tensor in sorted name order, so
identical parameters always serialize to identical bytes.  Loading checks
the stored tensor names and shapes against model.param_spec and wraps the
stored arrays as they are; no weights are drawn.
"""

from __future__ import annotations

import struct

import numpy as np

from .autograd import Tensor
from .encoder import EnhanceFlags
from .errors import CheckpointError, UsageError
from .model import ModelConfig, ModelParams, param_spec

MAGIC = b"AFEC"
VERSION = 1

_FLAG_ORDER = ("joint_scale", "bone_scale", "attention", "temporal", "velocity")


def _config_entries(config: ModelConfig) -> list[tuple[str, np.ndarray]]:
    """The config as f32 entries.  Every field but dt holds integers, which
    must come back exactly, so one that f32 would round is refused."""
    flags = [getattr(config.flags, f) for f in _FLAG_ORDER]
    fields = [
        ("config.frames", config.frames),
        ("config.joints", config.joints),
        ("config.classes", config.classes),
        ("config.fc_hidden", config.fc_hidden),
        ("config.scale_hidden", config.scale_hidden),
        ("config.root", config.root),
        ("config.dt", config.dt),
        ("config.channels", config.channels),
        ("config.flags", flags),
        ("config.labels", config.labels),
        ("config.bones", config.bones),
    ]
    entries = []
    for name, value in fields:
        with np.errstate(over="ignore"):
            arr = np.array(value, dtype=np.float32)
        exact = np.array(value, dtype=object).reshape(-1).tolist()
        rounded = [v for v, stored in zip(exact, arr.reshape(-1).tolist()) if stored != v]
        if rounded and name != "config.dt":
            raise UsageError(f"cannot checkpoint {name} value {rounded[0]}: float32 cannot hold it exactly")
        entries.append((name, arr))
    return entries


def save_checkpoint(params: ModelParams, path) -> None:
    tensors = params.named_tensors()
    entries = _config_entries(params.config)
    entries += [(name, tensors[name].data) for name in sorted(tensors)]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(entries)))
        for name, value in entries:
            arr = np.ascontiguousarray(value, dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(arr.tobytes())


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("unexpected end of checkpoint")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def read_entries(path) -> dict[str, np.ndarray]:
    """Raw name -> f32 array map, without model reconstruction."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = reader.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    count = reader.u32()
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = reader.u32()
        name = reader.take(name_len).decode("utf-8")
        if name in entries:
            raise CheckpointError(f"duplicate entry {name!r}")
        rank = reader.u32()
        if rank > 8:
            raise CheckpointError(f"implausible rank {rank} for {name!r}")
        shape = tuple(reader.u32() for _ in range(rank))
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = reader.take(4 * size)
        entries[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if reader.pos != len(reader.blob):
        raise CheckpointError("trailing bytes after final entry")
    return entries


def _config_from_entries(entries: dict[str, np.ndarray]) -> ModelConfig:
    def scalar(name: str) -> int:
        if name not in entries:
            raise CheckpointError(f"missing {name!r}")
        return int(entries[name].reshape(-1)[0])

    for name in ("config.channels", "config.flags", "config.labels", "config.bones"):
        if name not in entries:
            raise CheckpointError(f"missing {name!r}")
    flags_arr = entries["config.flags"]
    if flags_arr.shape != (len(_FLAG_ORDER),):
        raise CheckpointError(f"config.flags has shape {flags_arr.shape}")
    flags = EnhanceFlags(**{f: bool(flags_arr[i]) for i, f in enumerate(_FLAG_ORDER)})
    bones = tuple((int(p), int(c)) for p, c in entries["config.bones"])
    return ModelConfig(
        joints=scalar("config.joints"),
        classes=scalar("config.classes"),
        bones=bones,
        root=scalar("config.root"),
        labels=tuple(int(v) for v in entries["config.labels"]),
        frames=scalar("config.frames"),
        channels=tuple(int(v) for v in entries["config.channels"]),
        fc_hidden=scalar("config.fc_hidden"),
        scale_hidden=scalar("config.scale_hidden"),
        dt=float(entries["config.dt"].reshape(-1)[0]),
        flags=flags,
    )


def load_checkpoint(path) -> ModelParams:
    """Rebuild the model a checkpoint stores, without drawing any weights:
    the stored tensor names and shapes must match param_spec exactly."""
    entries = read_entries(path)
    config = _config_from_entries(entries)
    spec = param_spec(config)
    stored = {k for k in entries if not k.startswith("config.")}
    expected = {s.name for s in spec}
    if stored != expected:
        missing = sorted(expected - stored)
        extra = sorted(stored - expected)
        raise CheckpointError(
            f"tensor set mismatch: missing {missing[:3]}, unexpected {extra[:3]}"
        )
    for s in spec:
        if entries[s.name].shape != s.shape:
            raise CheckpointError(
                f"{s.name}: stored shape {entries[s.name].shape} != expected {s.shape}"
            )
    return ModelParams.from_tensors(
        config, {s.name: Tensor(entries[s.name], requires_grad=s.trainable) for s in spec}
    )
