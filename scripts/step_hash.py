"""SHA-256 over the numbers a few training steps and inference calls produce.

    PYTHONPATH=src python scripts/step_hash.py [--steps 5] [--batch 64] [--seed 0]
        [--infer-batches 64,6,1] [--dump PATH]
    PYTHONPATH=src python scripts/step_hash.py --compare OLD NEW

Builds the default 15-joint, 64-frame, all-flags model in float32 and in
float64, and runs ``--steps`` steps of ``encode -> forward -> cross_entropy
-> backward -> adam_step`` (lr 1e-3) on batches of random sequences.  One
hash per dtype (``sha256``) covers the logits and every parameter gradient
of every step, then the final weights, byte for byte (zero signs included).
A second (``infer_sha256``) covers the ``recognizer.infer`` logits of the
trained model for (B, T, J, 3) batches of ``--infer-batches`` fresh
sequences, each the leading rows of one draw as long as the largest: by
default 64, 6 and 1, the first run as two halves, the others whole.  Sizes
such as 65,33,17 put a fused stage's batch blocks at uneven edges.  It uses only the public model
API, so it runs unchanged against any source tree put first on PYTHONPATH:
two trees that print the same hashes train and infer identically.

``--dump PATH`` also writes every hashed array to the ``.npz`` file PATH,
named ``<dtype>/step<n>/logits``, ``<dtype>/step<n>/grad/<param>``,
``<dtype>/final/<param>`` and ``<dtype>/infer/<rows>``.  ``--compare OLD
NEW`` reads two such dumps and prints, per array, the largest absolute
deviation and the largest magnitude in OLD, then the largest deviation of
each kind.  To report how a change moves the numbers against a parent
checkout at PARENT:

    PYTHONPATH=PARENT/src python scripts/step_hash.py --steps 2 --dump old.npz
    PYTHONPATH=src python scripts/step_hash.py --steps 2 --dump new.npz
    PYTHONPATH=src python scripts/step_hash.py --compare old.npz new.npz
"""

from __future__ import annotations

import argparse
import hashlib
import re

import numpy as np

from skelact.autograd import Tape, backward, cross_entropy
from skelact.encoder import encode
from skelact.model import ModelConfig, ModelParams
from skelact.optim import AdamState, adam_step
from skelact.recognizer import forward, infer
from skelact.synth import humanoid_topology


def step_hash(dtype, steps: int, batch: int, seed: int, infer_batches: tuple[int, ...],
              arrays: dict | None = None) -> tuple[str, str]:
    """The training hash and the inference hash of one dtype; each hashed
    array is also put into ``arrays`` when it is given."""
    kept = {} if arrays is None else arrays
    prefix = np.dtype(dtype).name
    topology = humanoid_topology()
    config = ModelConfig(joints=topology.joint_count, classes=8, bones=topology.bones,
                         root=topology.root, labels=tuple(range(8)))
    params = ModelParams.build(config, seed=seed, dtype=dtype)
    named = params.named_tensors()
    state = AdamState(named)
    rng = np.random.default_rng([seed, 2])
    digest = hashlib.sha256()
    for step in range(steps):
        x = (rng.normal(size=(batch, config.frames, config.joints, 3)) * 0.3).astype(dtype)
        y = rng.integers(0, config.classes, size=batch)
        with Tape():
            logits = forward(encode(x, params.encoder), params)
            loss = cross_entropy(logits, y)
        backward(loss)
        digest.update(logits.data.tobytes())
        kept[f"{prefix}/step{step}/logits"] = logits.data.copy()
        for name in sorted(named):
            grad = named[name].grad
            digest.update(name.encode() + (b"-" if grad is None else grad.tobytes()))
            if grad is not None:
                kept[f"{prefix}/step{step}/grad/{name}"] = grad.copy()
        adam_step(named, state, 1e-3)
    for name in sorted(named):
        digest.update(name.encode() + named[name].data.tobytes())
        kept[f"{prefix}/final/{name}"] = named[name].data.copy()
    x = (rng.normal(size=(max(infer_batches), config.frames, config.joints, 3)) * 0.3).astype(dtype)
    inferred = hashlib.sha256()
    for rows in infer_batches:
        logits = infer(x[:rows], params)
        inferred.update(logits.tobytes())
        kept[f"{prefix}/infer/{rows}"] = logits
    return digest.hexdigest(), inferred.hexdigest()


def compare(old_path: str, new_path: str) -> None:
    """Print each array's largest absolute deviation between two dumps,
    then the largest per kind: a name with its step and batch size dropped
    (``float32 logits``, ``float32 grad/<param>``, ``float32 final/<param>``,
    ``float32 infer``)."""
    with np.load(old_path) as old, np.load(new_path) as new:
        names = sorted(set(old.files) | set(new.files))
        worst: dict[str, float] = {}
        for name in names:
            if name not in old.files or name not in new.files:
                print(f"{name}  only in {old_path if name in old.files else new_path}")
                continue
            a, b = old[name].astype(np.float64), new[name].astype(np.float64)
            dev = float(np.max(np.abs(a - b), initial=0.0))
            print(f"{name}  max |new - old| {dev:.3g}  max |old| {float(np.max(np.abs(a), initial=0.0)):.3g}")
            dtype, rest = name.split("/", 1)
            kind = f"{dtype} {re.sub(r'^infer/[0-9]+$', 'infer', re.sub(r'^step[0-9]+/', '', rest))}"
            worst[kind] = max(worst.get(kind, 0.0), dev)
    print("largest deviation per kind:")
    for kind, dev in sorted(worst.items()):
        print(f"  {kind}  {dev:.3g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--infer-batches", default="64,6,1",
                        help="comma-separated batch sizes of the infer hash (default 64,6,1)")
    parser.add_argument("--dump", metavar="PATH", help="also write every hashed array to this .npz file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print the largest deviation of each array between two --dump files, and run nothing")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.steps < 1 or args.batch < 1:
        parser.error("--steps and --batch must be positive")
    try:
        infer_batches = tuple(int(rows) for rows in args.infer_batches.split(","))
    except ValueError:
        infer_batches = ()
    if not infer_batches or min(infer_batches) < 1:
        parser.error(f"--infer-batches must be positive integers separated by commas, got {args.infer_batches!r}")
    arrays: dict[str, np.ndarray] = {}
    for dtype in (np.float32, np.float64):
        trained, inferred = step_hash(dtype, args.steps, args.batch, args.seed, infer_batches, arrays)
        print(f"{np.dtype(dtype).name} steps={args.steps} batch={args.batch} seed={args.seed} "
              f"infer_batches={args.infer_batches} sha256={trained} infer_sha256={inferred}")
    if args.dump:
        np.savez(args.dump, **arrays)


if __name__ == "__main__":
    main()
