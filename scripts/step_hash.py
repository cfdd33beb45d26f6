"""SHA-256 over the numbers a few training steps and inference calls produce.

    PYTHONPATH=src python scripts/step_hash.py [--steps 5] [--batch 64] [--seed 0]
        [--infer-batches 64,6,1]

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
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from skelact.autograd import Tape, backward, cross_entropy
from skelact.encoder import encode
from skelact.model import ModelConfig, ModelParams
from skelact.optim import AdamState, adam_step
from skelact.recognizer import forward, infer
from skelact.synth import humanoid_topology


def step_hash(dtype, steps: int, batch: int, seed: int, infer_batches: tuple[int, ...]) -> tuple[str, str]:
    """The training hash and the inference hash of one dtype."""
    topology = humanoid_topology()
    config = ModelConfig(joints=topology.joint_count, classes=8, bones=topology.bones,
                         root=topology.root, labels=tuple(range(8)))
    params = ModelParams.build(config, seed=seed, dtype=dtype)
    named = params.named_tensors()
    state = AdamState(named)
    rng = np.random.default_rng([seed, 2])
    digest = hashlib.sha256()
    for _ in range(steps):
        x = (rng.normal(size=(batch, config.frames, config.joints, 3)) * 0.3).astype(dtype)
        y = rng.integers(0, config.classes, size=batch)
        with Tape():
            logits = forward(encode(x, params.encoder), params)
            loss = cross_entropy(logits, y)
        backward(loss)
        digest.update(logits.data.tobytes())
        for name in sorted(named):
            grad = named[name].grad
            digest.update(name.encode() + (b"-" if grad is None else grad.tobytes()))
        adam_step(named, state, 1e-3)
    for name in sorted(named):
        digest.update(name.encode() + named[name].data.tobytes())
    x = (rng.normal(size=(max(infer_batches), config.frames, config.joints, 3)) * 0.3).astype(dtype)
    inferred = hashlib.sha256()
    for rows in infer_batches:
        inferred.update(infer(x[:rows], params).tobytes())
    return digest.hexdigest(), inferred.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--infer-batches", default="64,6,1",
                        help="comma-separated batch sizes of the infer hash (default 64,6,1)")
    args = parser.parse_args()
    if args.steps < 1 or args.batch < 1:
        parser.error("--steps and --batch must be positive")
    try:
        infer_batches = tuple(int(rows) for rows in args.infer_batches.split(","))
    except ValueError:
        infer_batches = ()
    if not infer_batches or min(infer_batches) < 1:
        parser.error(f"--infer-batches must be positive integers separated by commas, got {args.infer_batches!r}")
    for dtype in (np.float32, np.float64):
        trained, inferred = step_hash(dtype, args.steps, args.batch, args.seed, infer_batches)
        print(f"{np.dtype(dtype).name} steps={args.steps} batch={args.batch} seed={args.seed} "
              f"infer_batches={args.infer_batches} sha256={trained} infer_sha256={inferred}")


if __name__ == "__main__":
    main()
