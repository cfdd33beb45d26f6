"""Cross-version checkpoint check.

    python scripts/checkpoint_compat.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a skelact package (a
checkout's ``src/``).  Each side writes a set of checkpoints: the default
15-joint model, the 25-joint NTU topology, every training.VARIANT_GRID flag
set, labels (0, 2**24, -(2**25)) and dt = 0.1.  Each side then loads every
checkpoint either side wrote, and each load must give an equal ModelConfig
(dt rounded to float32 when the writer's checkpoint.VERSION is 1) and
bit-identical tensors.  A reader refusing a file of a newer version than
its own as an unsupported version is expected; any other error is not.
Every write and every read runs in its own process; the exit status is 1
if any load fails or differs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path


def _import(src: str):
    sys.path.insert(0, src)
    import numpy as np
    import skelact.checkpoint, skelact.model, skelact.skeleton, skelact.synth, skelact.training  # noqa: E401
    if not Path(skelact.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"imported {skelact.__file__}, not the skelact under {src}")
    return np, skelact


def _cases(sk):
    def config(topology, labels=(0, 1, 2), small=True, **kw):
        sizes = dict(channels=(2, 2, 2), fc_hidden=8, scale_hidden=4) if small else {}
        return sk.model.ModelConfig(joints=topology.joint_count, classes=len(labels), bones=topology.bones,
                                    root=topology.root, labels=labels, **sizes, **kw)

    humanoid = sk.synth.humanoid_topology()
    cases = {"default": config(humanoid, labels=tuple(range(8)), small=False),
             "ntu25": config(sk.skeleton.ntu_topology(), labels=tuple(range(60)), small=False),
             "labels": config(humanoid, labels=(0, 2**24, -(2**25))),
             "dt": config(humanoid, dt=0.1)}
    cases.update({f"variant_{name}": config(humanoid, flags=flags) for name, flags in sk.training.VARIANT_GRID})
    return cases


def write(src: str, out: str) -> None:
    np, sk = _import(src)
    expected = {}
    for seed, (name, config) in enumerate(_cases(sk).items()):
        params = sk.model.ModelParams.build(config, seed=seed)
        sk.checkpoint.save_checkpoint(params, Path(out, f"{name}.ckpt"))
        np.savez(Path(out, f"{name}.npz"), **{k: t.data for k, t in params.named_tensors().items()})
        exact = sk.checkpoint.VERSION >= 2  # version 1 stores dt as float32
        expected[name] = asdict(config if exact else replace(config, dt=float(np.float32(config.dt))))
    Path(out, "configs.json").write_text(json.dumps({"version": sk.checkpoint.VERSION, "configs": expected}))


def read(src: str, out: str) -> int:
    np, sk = _import(src)
    written = json.loads(Path(out, "configs.json").read_text())
    newer = written["version"] > sk.checkpoint.VERSION
    failures = refused = 0
    for name, config in written["configs"].items():
        try:
            loaded = sk.checkpoint.load_checkpoint(Path(out, f"{name}.ckpt"))
        except ValueError as exc:  # every skelact error is one
            if newer and str(exc) == f"unsupported checkpoint version {written['version']}":
                refused += 1
                continue
            print(f"  {name}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        tensors = {k: t.data for k, t in loaded.named_tensors().items()}
        with np.load(Path(out, f"{name}.npz")) as stored:
            same_tensors = sorted(tensors) == sorted(stored.files) and all(
                tensors[k].dtype == stored[k].dtype and tensors[k].shape == stored[k].shape
                and tensors[k].tobytes() == stored[k].tobytes() for k in stored.files)
        same_config = json.loads(json.dumps(asdict(loaded.config))) == config
        if not (same_config and same_tensors):
            print(f"  {name}: config equal {same_config}, tensors bit-identical {same_tensors}")
            failures += 1
    if refused:
        print(f"  {refused} refused as version {written['version']}, newer than this reader's "
              f"{sk.checkpoint.VERSION} (expected)")
    return failures


def main(old: str, new: str) -> int:
    here = str(Path(__file__).resolve())
    failed = False
    for writer_side, writer in (("old", old), ("new", new)):
        with tempfile.TemporaryDirectory() as out:
            subprocess.run([sys.executable, here, "write", writer, out], check=True)
            count = len(json.loads(Path(out, "configs.json").read_text())["configs"])
            for reader_side, reader in (("old", old), ("new", new)):
                status = subprocess.run([sys.executable, here, "read", reader, out]).returncode
                print(f"{writer_side} writes, {reader_side} reads: {count} checkpoints, "
                      f"{'no failure' if status == 0 else 'FAILED'}")
                failed |= status != 0
    return int(failed)


if __name__ == "__main__":
    if sys.argv[1] == "write":
        write(*sys.argv[2:])
    elif sys.argv[1] == "read":
        sys.exit(min(read(*sys.argv[2:]), 1))
    else:
        sys.exit(main(*sys.argv[1:]))
