"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions of the skelact modules with
timing wrappers, in every module namespace that holds them, so calls made
through ``from .autograd import conv2d`` style imports are caught too.
Nothing under ``src/`` changes.  Spans nest: each keeps its inclusive time
and its self time (inclusive minus the time its child spans cover), so the
self times of one call add up to the part of the call the spans cover.

Autograd ops get two spans: the forward call, and the backward closure the
op left on the tape, which the wrapper swaps for a timed one.  The tracer
also takes a work census from op shapes (multiply-accumulates for matmul,
linear and conv2d; bytes of tape outputs at ``backward``) and sums garbage
collector pauses through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import sys
from collections import defaultdict
from time import perf_counter

# autograd op -> reporting group; ops outside the five named groups are "other"
OP_GROUPS = {
    "conv2d": "conv2d", "maxpool2d": "maxpool2d", "leaky_relu": "leaky_relu",
    "linear": "linear", "matmul": "matmul",
    "add": "other", "sub": "other", "mul": "other", "scale": "other",
    "softmax_rows": "other", "reshape": "other", "transpose_last2": "other",
    "permute": "other", "concat": "other", "frame_velocity": "other",
    "sum_all": "other", "cross_entropy": "other",
}
GROUPS = ("conv2d", "maxpool2d", "leaky_relu", "linear", "matmul", "other")

# layer functions timed as spans, by module
LAYER_FUNCTIONS = {
    "autograd": ("backward",),
    "encoder": ("encode", "scale_joints", "scale_bones", "attention_map",
                "embed_to_image", "apply_attention", "velocity_image", "temporal_embed"),
    "recognizer": ("forward", "stream_forward"),
    "optim": ("adam_step",),
    "skeleton": ("preprocess",),
    "training": ("evaluate",),
}


def _macs(op: str, args, out) -> int:
    """Multiply-accumulates of one op call, from its operand shapes."""
    if op == "matmul":
        return int(out.data.size) * int(args[0].shape[-1])
    if op == "linear":
        return int(out.data.size) * int(args[1].shape[1])
    if op == "conv2d":
        _, c_in, kh, kw = args[1].shape
        return int(out.data.size) * int(c_in * kh * kw)
    return 0


class Tracer:
    """Span and census recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self._stack: list[list] = []  # [name, child_time]
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.reset()

    def reset(self) -> None:
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.macs: dict[str, int] = defaultdict(int)
        self.site_macs: dict[str, int] = defaultdict(int)
        self.op_calls = 0
        self.tape_out_bytes = 0
        self.tape_nodes = 0
        self.gc_pause = 0.0
        self.gc_runs: dict[int, int] = defaultdict(int)

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, dur: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        name = frame[0]
        self.incl[name] += dur
        self.self_time[name] += dur - frame[1]

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(frame, perf_counter() - start)

        return wrapper

    def _backward_span(self, name: str, fn):
        timed = self._span(name, fn)

        def wrapper(loss):
            tape = loss._tape
            if tape is not None:
                self.tape_nodes += len(tape.nodes)
                self.tape_out_bytes += sum(n.output.data.nbytes for n in tape.nodes)
            return timed(loss)

        return wrapper

    def _op_span(self, op: str, fn):
        group = OP_GROUPS[op]
        timed = self._span(f"autograd.{group}.fwd", fn)
        bwd_name = f"autograd.{group}.bwd"

        def wrapper(*args, **kwargs):
            site = self._stack[-1][0] if self._stack else "-"
            out = timed(*args, **kwargs)
            self.op_calls += 1
            macs = _macs(op, args, out)
            if macs:
                self.macs[group] += macs
                self.site_macs[f"{site}/{op}"] += macs
            tape = out._tape
            # an op that delegates to another (mul by a scalar -> scale) finds
            # its node already wrapped by the inner op
            if tape is not None and tape.nodes and tape.nodes[-1].output is out:
                node = tape.nodes[-1]
                if not getattr(node.backward_fn, "_traced", False):
                    node.backward_fn = self._span(bwd_name, node.backward_fn)
                    node.backward_fn._traced = True
            return out

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause += perf_counter() - self._gc_start
            self.gc_runs[info["generation"]] += 1

    # -- patching ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function wherever a skelact module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        autograd = sys.modules[package.__name__ + ".autograd"]
        replacements: dict[int, object] = {}
        for op in OP_GROUPS:
            original = getattr(autograd, op)
            replacements[id(original)] = (original, self._op_span(op, original))
        for short, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"{package.__name__}.{short}"]
            for fname in names:
                original = getattr(module, fname)
                make = self._backward_span if fname == "backward" else self._span
                replacements[id(original)] = (original, make(f"{short}.{fname}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reporting --------------------------------------------------------

    def covered_self_time(self) -> float:
        """Sum of every span's self time: the traced part of the calls."""
        return float(sum(self.self_time.values()))

    def per_call(self, calls: int) -> dict[str, float]:
        """Per-layer metric values, each divided over ``calls`` calls."""
        n = max(calls, 1)

        def ms(name: str) -> float:
            return 1000.0 * self.incl.get(name, 0.0) / n

        def self_ms(name: str) -> float:
            return 1000.0 * self.self_time.get(name, 0.0) / n

        # op spans use self time: an op that delegates (mul -> scale) nests
        out: dict[str, float] = {}
        for group in GROUPS:
            out[f"autograd.{group}.fwd_ms"] = self_ms(f"autograd.{group}.fwd")
        for group in GROUPS:
            out[f"autograd.{group}.bwd_ms"] = self_ms(f"autograd.{group}.bwd")
        out["autograd.backward_ms"] = ms("autograd.backward")
        out["autograd.ops_per_call"] = self.op_calls / n
        out["autograd.macs_per_call"] = sum(self.macs.values()) / n
        out["autograd.tape_out_mb"] = self.tape_out_bytes / n / 2**20
        out["autograd.gc_pause_ms"] = 1000.0 * self.gc_pause / n
        out["encoder.encode_ms"] = ms("encoder.encode")
        out["encoder.scale_joints_ms"] = ms("encoder.scale_joints")
        out["encoder.scale_bones_ms"] = ms("encoder.scale_bones")
        out["encoder.attention_map_ms"] = ms("encoder.attention_map")
        out["encoder.embed_ms"] = ms("encoder.embed_to_image")
        out["encoder.temporal_ms"] = ms("encoder.temporal_embed")
        out["recognizer.forward_ms"] = ms("recognizer.forward")
        out["recognizer.stream_ms"] = ms("recognizer.stream_forward")
        out["recognizer.head_ms"] = out["recognizer.forward_ms"] - out["recognizer.stream_ms"]
        out["optim.adam_step_ms"] = ms("optim.adam_step")
        out["skeleton.preprocess_call_ms"] = ms("skeleton.preprocess")
        return out

    def census(self, calls: int) -> dict:
        n = max(calls, 1)
        return {
            "ops_per_call": self.op_calls / n,
            "macs_per_call": sum(self.macs.values()) / n,
            "macs_by_op": {k: v / n for k, v in sorted(self.macs.items())},
            "macs_by_site": {k: v / n for k, v in sorted(self.site_macs.items())},
            "tape_nodes_per_call": self.tape_nodes / n,
            "tape_out_bytes_per_call": self.tape_out_bytes / n,
            "gc_runs_by_generation": {str(k): v for k, v in sorted(self.gc_runs.items())},
        }

    def self_times_ms(self, calls: int) -> dict[str, float]:
        n = max(calls, 1)
        return {k: 1000.0 * v / n for k, v in sorted(self.self_time.items())}
