"""Binary checkpoint container.

Layout, all integers little-endian u32 and all values little-endian f32:

    magic "AFEC" | version | entry count |
    per entry: name length | utf-8 name | rank | extents... | values...

The first entries are ModelConfig's fields in declaration order, each an
f32 array named "config.<field>": a scalar has shape (1,), a tuple one
extent per tuple level (bones is (b, 2)), and the flags are one 0/1 vector
in EnhanceFlags' field order.  ModelConfig refuses an integer f32 cannot hold,
so every config integer comes back exact.  Every parameter tensor follows
in sorted name order, so identical parameters always serialize to
identical bytes.  Entries are read by name, in any order.  Loading decodes
each config entry by its field's type (rank and extents, integral values,
0/1 flags), checks the stored tensor names and shapes against
model.param_spec and hands the stored arrays, as they are and in spec
order, to ModelParams as its named tensors; no weights are drawn.  Any
fault in the file is a CheckpointError, a NaN or an infinity in a tensor
among them; saving such a tensor is refused.  A save writes a temporary
file beside the target and renames it into place, so a save that fails
leaves no partial file, and any earlier checkpoint at the path as it was.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
from dataclasses import astuple, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .autograd import Tensor
from .errors import CheckpointError, TopologyError, UsageError
from .model import ModelConfig, ModelParams, param_spec

MAGIC = b"AFEC"
VERSION = 1


def _non_finite(tensors: dict[str, np.ndarray]) -> str | None:
    """A message naming the first array holding a NaN or an infinity, if any."""
    for name, arr in tensors.items():
        bad = np.count_nonzero(~np.isfinite(arr))
        if bad:
            return f"{name} holds {bad} non-finite value{'s' if bad > 1 else ''}"
    return None


def save_checkpoint(params: ModelParams, path) -> None:
    """Write ``params`` to ``path`` through a temporary file in the same
    directory, replaced onto ``path`` once complete and removed if the
    write fails; a tensor holding a NaN or an infinity is a UsageError,
    raised before any file is opened."""
    config, tensors = params.config, params.tensors
    fault = _non_finite({name: tensors[name].data for name in sorted(tensors)})
    if fault:
        raise UsageError(f"refusing to save a checkpoint: {fault}")
    entries = [(f"config.{f.name}", value) for f, value in zip(fields(config), astuple(config))]
    entries += [(name, tensors[name].data) for name in sorted(tensors)]
    path = os.fsdecode(path)
    directory, base = os.path.split(path)
    temp = os.path.join(directory, f".{base}.{secrets.token_hex(8)}.tmp")
    try:
        with open(temp, "xb") as fh:
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
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise


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
        raw_name = reader.take(reader.u32())
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"entry name {raw_name!r} is not UTF-8") from None
        if name in entries:
            raise CheckpointError(f"duplicate entry {name!r}")
        rank = reader.u32()
        if rank > 8:
            raise CheckpointError(f"implausible rank {rank} for {name!r}")
        shape = tuple(reader.u32() for _ in range(rank))
        raw = reader.take(4 * math.prod(shape))
        entries[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if reader.pos != len(reader.blob):
        raise CheckpointError("trailing bytes after final entry")
    return entries


def _extents(hint) -> tuple[int | None, ...]:
    """The stored shape of a config field of type ``hint``: one extent per
    tuple level, None for a variadic one; the flags are one vector."""
    if is_dataclass(hint):
        return (len(fields(hint)),)
    if get_origin(hint) is not tuple:
        return ()
    args = get_args(hint)
    return (None if args[-1] is Ellipsis else len(args), *_extents(args[0]))


def _ints(value):
    return tuple(map(_ints, value)) if isinstance(value, list) else int(value)


def _decode(entries: dict[str, np.ndarray], field, hint):
    """Field ``field`` of a ModelConfig, read from its entry by its type."""
    name = f"config.{field.name}"
    if name not in entries:
        raise CheckpointError(f"missing {name!r}")
    arr = entries[name]
    extents = _extents(hint)
    fits = extents or (1,)  # a scalar is stored as shape (1,)
    if arr.ndim != len(fits) or any(e not in (None, s) for e, s in zip(fits, arr.shape)):
        raise CheckpointError(f"{name} has shape {arr.shape}, which does not fit {field.type}")
    value = arr if extents else arr[0]
    if hint is float:
        return float(value)
    if is_dataclass(hint):
        bad = arr[(arr != 0) & (arr != 1)]
        if bad.size:
            raise CheckpointError(f"{name} value {bad[0]} is not 0 or 1")
        return hint(*arr.astype(bool).tolist())
    bad = arr[~np.isfinite(arr) | (arr != np.trunc(arr))]
    if bad.size:
        raise CheckpointError(f"{name} value {bad[0]} is not an integer")
    return _ints(value.tolist())


def load_checkpoint(path) -> ModelParams:
    """Rebuild the model a checkpoint stores, without drawing any weights:
    the stored tensor names and shapes must match param_spec exactly, and
    every stored value must be finite."""
    entries = read_entries(path)
    hints = get_type_hints(ModelConfig)
    config_fields = fields(ModelConfig)
    try:
        config = ModelConfig(**{f.name: _decode(entries, f, hints[f.name]) for f in config_fields})
        config.topology()  # checks root and bones
        spec = param_spec(config)
    except (UsageError, TopologyError) as exc:
        raise CheckpointError(f"config entries describe no model: {exc}") from None
    stored = set(entries) - {f"config.{f.name}" for f in config_fields}
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
    fault = _non_finite({s.name: entries[s.name] for s in spec})
    if fault:
        raise CheckpointError(fault)
    return ModelParams(config, {s.name: Tensor(entries[s.name], requires_grad=s.trainable) for s in spec})
