"""Memory one training tape holds, per op, and the peak RSS of training.

    PYTHONPATH=src python scripts/tape_memory.py [--steps 4] [--batch 64] [--seed 0]

Builds the default 15-joint, 64-frame model and runs ``--steps`` training
steps (``encode -> forward -> cross_entropy -> backward -> adam_step``) on
random batches, then prints the process's peak RSS.  It then records one
more forward on a tape and, before its backward, walks ``tape.nodes``: each
array a node's output, inputs or backward closure reaches is charged once,
by its underlying buffer, to the first node in tape order that reaches it,
as ``out`` when it is that node's output and as ``saved`` otherwise.  A
tape a node's closure reaches is walked in place, so a node that records
its own tape (the four CNN streams') has its inner nodes charged to their
ops.
Parameters and the input batch are not charged.  Ops are named after their
backward closure (``conv_pool_leaky.<locals>.back`` is ``conv_pool_leaky``).
It reads only ``Tape.nodes`` and each node's ``output``, ``inputs`` and
``backward_fn``, so it runs unchanged against any source tree put first on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import resource
from collections import defaultdict

import numpy as np

from skelact.autograd import Tape, Tensor, backward, cross_entropy
from skelact.encoder import encode
from skelact.model import ModelConfig, ModelParams
from skelact.optim import AdamState, adam_step
from skelact.recognizer import forward
from skelact.synth import humanoid_topology

MIB = 2.0**20


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s buffer."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _arrays(value, depth: int = 0):
    """The arrays and tapes a closure cell or node input reaches: itself, a
    Tensor's data, or the items of a list or tuple."""
    if isinstance(value, (np.ndarray, Tape)):
        yield value
    elif isinstance(value, Tensor):
        yield value.data
    elif isinstance(value, (list, tuple)) and depth < 2:
        for item in value:
            yield from _arrays(item, depth + 1)


def _contents(cell):
    try:
        return cell.cell_contents
    except ValueError:  # a name the closure reads only on a path this node does not take
        return None


def tape_bytes(tape: Tape, seen: set[int], table=None) -> dict[str, list[int]]:
    """op -> [nodes, output bytes, saved bytes] over one recorded tape,
    charging no buffer whose id is in ``seen`` and adding each one it
    charges.  A tape a node's closure reaches (an op that records its own,
    such as the streams node) is walked where it is found, its nodes
    charged to their own ops."""
    table = defaultdict(lambda: [0, 0, 0]) if table is None else table
    for node in tape.nodes:
        op = node.backward_fn.__qualname__.split(".")[0]
        row = table[op]
        row[0] += 1
        cells = [_contents(c) for c in node.backward_fn.__closure__ or ()]
        for column, values in ((1, [node.output]), (2, list(node.inputs) + cells)):
            for value in values:
                for arr in _arrays(value):
                    if isinstance(arr, Tape):
                        tape_bytes(arr, seen, table)
                        continue
                    owner = _owner(arr)
                    if id(owner) not in seen:
                        seen.add(id(owner))
                        row[column] += owner.nbytes
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.steps < 1 or args.batch < 1:
        parser.error("--steps and --batch must be positive")

    topology = humanoid_topology()
    config = ModelConfig(joints=topology.joint_count, classes=8, bones=topology.bones,
                         root=topology.root, labels=tuple(range(8)))
    params = ModelParams.build(config, seed=args.seed)
    named = params.named_tensors()
    state = AdamState(named)
    rng = np.random.default_rng(args.seed)

    def batch():
        x = (rng.normal(size=(args.batch, config.frames, config.joints, 3)) * 0.3).astype(np.float32)
        return x, rng.integers(0, config.classes, size=args.batch)

    for _ in range(args.steps):
        x, y = batch()
        with Tape():
            loss = cross_entropy(forward(encode(x, params.encoder), params), y)
        backward(loss)
        adam_step(named, state, 1e-3)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    x, y = batch()
    with Tape() as tape:
        loss = cross_entropy(forward(encode(x, params.encoder), params), y)
    exclude = {id(_owner(t.data)) for t in named.values()} | {id(_owner(x))}
    table = tape_bytes(tape, exclude)
    backward(loss)

    print(f"batch={args.batch} nodes={sum(row[0] for row in table.values())}")
    print(f"{'op':<18}{'nodes':>6}{'out_MiB':>10}{'saved_MiB':>11}{'total_MiB':>11}")
    for op, (nodes, out, saved) in sorted(table.items(), key=lambda kv: -(kv[1][1] + kv[1][2])):
        print(f"{op:<18}{nodes:>6}{out / MIB:>10.1f}{saved / MIB:>11.1f}{(out + saved) / MIB:>11.1f}")
    out = sum(row[1] for row in table.values())
    saved = sum(row[2] for row in table.values())
    print(f"{'tape':<18}{'':>6}{out / MIB:>10.1f}{saved / MIB:>11.1f}{(out + saved) / MIB:>11.1f}")
    print(f"peak_rss_mb={peak:.1f} after {args.steps} steps")


if __name__ == "__main__":
    main()
