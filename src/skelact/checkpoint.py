"""Binary checkpoint container, version 3.

Layout, little-endian, with every count and extent a u32:

    magic "AFEC" | version | entry count |
    per entry: name length | utf-8 name | dtype code | rank | extents... | values... |
    zlib CRC32 of every byte before it

The dtype code indexes DTYPES: config integers and flags i8, dt f8 and
tensors f4.  The 9 config entries come first, "config.<field>" in
ModelConfig's field order (bones, root, labels, frames, channels,
fc_hidden, scale_hidden, dt, flags): a scalar has shape (1,), a tuple one
extent per level (bones is (b, 2)), the flags one 0/1 vector in
EnhanceFlags' order.  Tensors follow in sorted name order.  Versions 1 (no
dtype codes, all f4, no CRC32) and 2 (this layout) still load; both also
store config.joints and config.classes, which must agree with the bones
and labels.  A reader refuses a version newer than its own.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
import zlib
from dataclasses import InitVar, astuple, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .autograd import Tensor
from .errors import CheckpointError, TopologyError, UsageError
from .model import ModelConfig, ModelParams, param_spec

MAGIC = b"AFEC"
VERSION = 3
DTYPES = ("<f4", "<f8", "<i8")  # indexed by the dtype code
# each stored field's type sets its entry's dtype and its decoding
_HINTS = {name: hint for name, hint in get_type_hints(ModelConfig).items() if hint is not InitVar}


def _non_finite(tensors: dict[str, np.ndarray]) -> str | None:
    """A message naming the first array holding a NaN or an infinity, if any."""
    for name, arr in tensors.items():
        bad = np.count_nonzero(~np.isfinite(arr))
        if bad:
            return f"{name} holds {bad} non-finite value{'s' if bad > 1 else ''}"
    return None


def save_checkpoint(params: ModelParams, path) -> None:
    """Write ``params`` to ``path`` through a temporary file in the same
    directory, replaced onto ``path`` once complete and removed if the write
    fails.  A tensor holding a NaN or an infinity, or a config value its
    dtype cannot hold exactly, is a UsageError before any file is opened."""
    config, tensors = params.config, params.tensors
    fault = _non_finite({name: tensors[name].data for name in sorted(tensors)})
    if fault:
        raise UsageError(f"refusing to save a checkpoint: {fault}")
    entries = []
    for f, value in zip(fields(config), astuple(config)):
        dtype = "<f8" if _HINTS[f.name] is float else "<i8"
        try:
            entries.append((f"config.{f.name}", np.atleast_1d(value).astype(dtype, casting="safe")))
        except TypeError:  # a fraction, or an integer beyond int64
            raise UsageError(f"config.{f.name} value {value}: {np.dtype(dtype)} cannot hold it exactly") from None
    entries += [(name, np.ascontiguousarray(tensors[name].data, "<f4")) for name in sorted(tensors)]
    chunks = [MAGIC + struct.pack("<II", VERSION, len(entries))]
    for name, arr in entries:
        encoded = name.encode("utf-8")
        dims = struct.pack(f"<{arr.ndim + 2}I", DTYPES.index(arr.dtype.str), arr.ndim, *arr.shape)
        chunks += [struct.pack("<I", len(encoded)) + encoded + dims, memoryview(arr).cast("B")]
    path = os.fsdecode(path)
    directory, base = os.path.split(path)
    temp = os.path.join(directory, f".{base}.{secrets.token_hex(8)}.tmp")
    try:
        with open(temp, "xb") as fh:
            crc = 0
            for chunk in chunks:
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(struct.pack("<I", crc))
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
    """Raw name -> array map, each in its stored dtype, with no model built."""
    return _read(path)[1]


def _read(path) -> tuple[int, dict[str, np.ndarray]]:
    """The file's version and read_entries' map."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = reader.u32()
    if not 1 <= version <= VERSION:
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
        code = reader.u32() if version > 1 else 0
        if code >= len(DTYPES):
            raise CheckpointError(f"unknown dtype code {code} for {name!r}")
        dtype = np.dtype(DTYPES[code])
        rank = reader.u32()
        if rank > 8:
            raise CheckpointError(f"implausible rank {rank} for {name!r}")
        shape = tuple(reader.u32() for _ in range(rank))
        raw = reader.take(dtype.itemsize * math.prod(shape))
        entries[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    end = reader.pos
    if len(reader.blob) - end > (4 if version > 1 else 0):
        raise CheckpointError("trailing bytes after final entry")
    if version > 1 and reader.u32() != zlib.crc32(memoryview(reader.blob)[:end]):
        raise CheckpointError("checksum mismatch: the file is corrupt")
    return version, entries


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


def _decode(entries: dict[str, np.ndarray], key: str, hint):
    """ModelConfig argument ``key``, read from its entry by its type ``hint``."""
    name = f"config.{key}"
    if name not in entries:
        raise CheckpointError(f"missing {name!r}")
    arr = entries[name]
    extents = _extents(hint)
    fits = extents or (1,)  # a scalar is stored as shape (1,)
    if arr.ndim != len(fits) or any(e not in (None, s) for e, s in zip(fits, arr.shape)):
        shown = hint if get_origin(hint) else hint.__name__
        raise CheckpointError(f"{name} has shape {arr.shape}, which does not fit {shown}")
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
    """Rebuild the model a checkpoint stores, drawing no weights.  Entries are
    read by name in any order; each config entry is decoded by its field's
    type, and a version 1 or 2 file's config.joints and config.classes must
    agree with its bones and labels; the tensors' names, shapes and float32
    dtype must match param_spec and every value must be finite.  Any fault
    is a CheckpointError."""
    version, entries = _read(path)
    hints = _HINTS if version > 2 else {**_HINTS, "joints": int, "classes": int}  # v1 and v2 store both counts
    try:
        config = ModelConfig(**{key: _decode(entries, key, hint) for key, hint in hints.items()})
        config.topology()  # checks root and bones
        spec = param_spec(config)
    except (UsageError, TopologyError) as exc:
        raise CheckpointError(f"config entries describe no model: {exc}") from None
    config_names = {f"config.{key}" for key in hints}
    stored = {name: (arr.dtype.name, arr.shape) for name, arr in entries.items() if name not in config_names}
    expected = {s.name: ("float32", tuple(s.shape)) for s in spec}
    if stored != expected:
        name = min(n for n in stored.keys() | expected.keys() if stored.get(n) != expected.get(n))
        raise CheckpointError(f"tensor {name}: stored {stored.get(name, 'nothing')}, "
                              f"the model needs {expected.get(name, 'nothing')}")
    fault = _non_finite({s.name: entries[s.name] for s in spec})
    if fault:
        raise CheckpointError(fault)
    return ModelParams(config, {s.name: Tensor(entries[s.name], requires_grad=s.trainable) for s in spec})
