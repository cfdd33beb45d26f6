"""Memory one training tape holds, per op, and the peak RSS of training.

    PYTHONPATH=src python scripts/tape_memory.py [--steps 4] [--batch 64] [--seed 0]

Builds the default 15-joint, 64-frame model and runs ``--steps`` training
steps (``encode -> forward -> cross_entropy -> backward -> adam_step``) on
random batches, then prints the process's peak RSS.  It runs one more step
under the standard library's ``tracemalloc``, which counts what Python and
numpy allocate on every thread, and prints the traced peak of each phase
(encode; forward with the loss; backward; Adam) in MiB above the heap held
when that step began.  It then records one more forward on a tape and,
before its backward, walks ``tape.nodes``: each array a node's output,
inputs or backward closure reaches is charged once, by its underlying
buffer, to the first node in tape order that reaches it, as ``out`` when it
is that node's output and as ``saved`` otherwise.  A backward rule a node's
closure reaches (the streams node keeps each stream's three stage rules)
counts as a node of its own op, and the arrays its closure reaches are
charged to that op as ``saved``; a tape a closure reaches (an op that
records its own) is walked in place, its nodes charged to their ops.
Parameters and the input batch are not charged.  Ops are named after their
backward closure (``conv_pool_leaky_arrays.<locals>.back`` is
``conv_pool_leaky_arrays``; a stem's rule reaches its image source, whose
fill and block backward count as two ``embed_image_arrays`` nodes).  Last
it prints each ``recognizer._workers`` thread's workspace buffers by role,
as the ``--steps`` steps left them (the workers run a training step's
streams), and then as one ``recognizer.infer`` of a ``--batch`` batch
leaves a fresh pair of workers (a batch of 16 or more runs as two halves on
them).  The traced step calls only the public training API, and the rest
reads only ``Tape.nodes``, each node's ``output``, ``inputs`` and
``backward_fn``, the closures of those functions, ``autograd._WORKSPACE``
and ``recognizer._workers``, and calls ``recognizer._new_workers`` and
``recognizer.infer``, so it runs unchanged against any source tree put
first on PYTHONPATH that has them.
"""

from __future__ import annotations

import argparse
import resource
import threading
import tracemalloc
from collections import defaultdict
from types import FunctionType

import numpy as np

from skelact import autograd, recognizer
from skelact.autograd import Tape, Tensor, backward, cross_entropy
from skelact.encoder import encode
from skelact.model import ModelConfig, ModelParams
from skelact.optim import AdamState, adam_step
from skelact.recognizer import forward, infer
from skelact.synth import humanoid_topology

MIB = 2.0**20


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s buffer."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _reach(value, depth: int = 0):
    """The arrays, tapes and backward rules a closure cell or node input
    reaches: itself, a Tensor's data, or the items of a list or tuple."""
    if isinstance(value, (np.ndarray, Tape)) or (isinstance(value, FunctionType) and value.__closure__):
        yield value
    elif isinstance(value, Tensor):
        yield value.data
    elif isinstance(value, (list, tuple)) and depth < 3:
        for item in value:
            yield from _reach(item, depth + 1)


def _contents(cell):
    try:
        return cell.cell_contents
    except ValueError:  # a name the closure reads only on a path this node does not take
        return None


def _op(fn) -> str:
    return fn.__qualname__.split(".")[0]


def _cells(fn) -> list:
    return [_contents(c) for c in fn.__closure__ or ()]


def _charge(table, op: str, column: int, values, seen: set[int]) -> None:
    """Charge to ``op``'s ``column`` each buffer ``values`` reach whose id
    is not in ``seen``, adding it there.  A tape or a backward rule they
    reach is walked where it is found, charged to its own ops."""
    for value in values:
        for item in _reach(value):
            if isinstance(item, Tape):
                tape_bytes(item, seen, table)
            elif isinstance(item, FunctionType):
                table[_op(item)][0] += 1
                _charge(table, _op(item), 2, _cells(item), seen)
            else:
                owner = _owner(item)
                if id(owner) not in seen:
                    seen.add(id(owner))
                    table[op][column] += owner.nbytes


def tape_bytes(tape: Tape, seen: set[int], table=None) -> dict[str, list[int]]:
    """op -> [nodes, output bytes, saved bytes] over one recorded tape,
    charging no buffer whose id is in ``seen`` and adding each one it
    charges."""
    table = defaultdict(lambda: [0, 0, 0]) if table is None else table
    for node in tape.nodes:
        op = _op(node.backward_fn)
        table[op][0] += 1
        _charge(table, op, 1, [node.output], seen)
        _charge(table, op, 2, list(node.inputs) + _cells(node.backward_fn), seen)
    return table


def worker_workspaces() -> list[dict[str, int]]:
    """Each worker thread's workspace, role -> bytes.  A barrier holds the
    first task until the second worker has taken its own."""
    barrier = threading.Barrier(2)

    def read():
        barrier.wait(10)
        return {role: buf.nbytes for role, buf in vars(autograd._WORKSPACE).items()}

    return [future.result() for future in [recognizer._workers.submit(read) for _ in range(2)]]


def traced_step(params: ModelParams, named: dict, state: AdamState, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """One training step under ``tracemalloc``: phase -> the traced peak
    of that phase, in MiB above the traced heap when the step began."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        peaks = {}

        def phase(name, fn):
            tracemalloc.reset_peak()
            value = fn()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - held) / MIB
            return value

        with Tape():
            bundle = phase("encode", lambda: encode(x, params.encoder))
            loss = phase("forward", lambda: cross_entropy(forward(bundle, params), y))
        del bundle
        phase("backward", lambda: backward(loss))
        phase("adam", lambda: adam_step(named, state, 1e-3))
        return peaks
    finally:
        tracemalloc.stop()


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
    workspaces = worker_workspaces()
    phases = traced_step(params, named, state, *batch())

    x, y = batch()
    with Tape() as tape:
        loss = cross_entropy(forward(encode(x, params.encoder), params), y)
    exclude = {id(_owner(t.data)) for t in named.values()} | {id(_owner(x))}
    table = tape_bytes(tape, exclude)
    backward(loss)
    recognizer._new_workers()  # fresh threads, so fresh workspaces, for one infer
    infer(batch()[0], params)
    infer_workspaces = worker_workspaces()

    print(f"batch={args.batch} nodes={sum(row[0] for row in table.values())}")
    print(f"{'op':<24}{'nodes':>6}{'out_MiB':>10}{'saved_MiB':>11}{'total_MiB':>11}")
    for op, (nodes, out, saved) in sorted(table.items(), key=lambda kv: -(kv[1][1] + kv[1][2])):
        print(f"{op:<24}{nodes:>6}{out / MIB:>10.1f}{saved / MIB:>11.1f}{(out + saved) / MIB:>11.1f}")
    out = sum(row[1] for row in table.values())
    saved = sum(row[2] for row in table.values())
    print(f"{'tape':<24}{'':>6}{out / MIB:>10.1f}{saved / MIB:>11.1f}{(out + saved) / MIB:>11.1f}")
    print(f"peak_rss_mb={peak:.1f} after {args.steps} steps")
    print("traced_peak_mib " + " ".join(f"{name}={mib:.1f}" for name, mib in phases.items())
          + " (one more step, above the heap held before it)")
    for when, spaces in (("train", workspaces), ("infer", infer_workspaces)):
        for n, roles in enumerate(spaces):
            sizes = " ".join(f"{role}={size / MIB:.2f}" for role, size in sorted(roles.items()))
            print(f"{when} worker{n}_workspace_mib {sizes} total={sum(roles.values()) / MIB:.2f}")


if __name__ == "__main__":
    main()
