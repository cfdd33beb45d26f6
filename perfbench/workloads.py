"""The two closed-loop workloads and their output checks.

Each workload is one caller that issues its next call when the previous one
returns, in one process, on the default 15-joint, 64-frame, all-flags model.

- ``train_b64``: minibatch steps, batch 64, over the cross-subject train
  side, each step ``encode -> forward -> cross_entropy -> backward ->
  adam_step`` as ``training.train`` runs it.  No ``gc.collect()`` is
  inserted, so the memory the training loop really holds shows.
- ``eval_b64``: ``training.evaluate`` over the 64 held-out sequences in
  batches of 64; what ``skelact eval`` pays.

A call fails when it raises or when its output check misses.  Output checks
that call skelact or the float64 oracle in reference.py run after the
timed loop, once its peak memory is read, through ``Outcome.verify``, which
the episode calls after any tracing has stopped.
"""

from __future__ import annotations

import resource
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from prepare import MODEL_SEED, Prepared
from reference import reference_logits

BATCH = 64
TRAIN_LR = 1e-3  # TrainConfig default; no decay before epoch 20

# A train_b64 episode is a fresh training run of a fixed three epochs (four
# steps of 64 each), not a time slice: until the tape's reference cycle is
# fixed, a step's cost and the memory held depend on the step's index, so a
# time cutoff would compare different mixes of steps, and a faster loop would
# run more steps and hold more memory.  Step 1 is the untimed warm-up.
# loss_end is the mean loss of the final epoch, the opening loss that of the
# first.
STEPS_PER_EPOCH = 4
TRAIN_EPOCHS = 3

EVAL_WARMUP = 1

# float32 logits against the float64 reference: measured deviation is ~1e-6 on
# logits of magnitude ~1, so this leaves two orders of magnitude of slack.
LOGIT_TOLERANCE = 1e-4


@dataclass
class Outcome:
    seqs_per_call: int
    times: list[float] = field(default_factory=list)  # seconds, timed calls only
    attempted: int = 0
    failed: int = 0
    loss_end: float = float("nan")
    peak_rss_mb: float = float("nan")
    checks: dict = field(default_factory=dict)
    run_ok: bool = True
    verify: Callable[[], None] | None = None  # untimed output checks, if any


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_failure(outcome: Outcome, what: str) -> None:
    if outcome.failed == 0:
        print(f"first failed call ({what}):", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    outcome.failed += 1


def _mean_cross_entropy(logits: np.ndarray, classes: np.ndarray) -> float:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return float(-log_p[np.arange(len(classes)), classes].mean())


def _top_two(want: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(top class, runner-up, decisive) per row of float64 logits.  A row is
    decisive when its top-two margin is wider than float32 error within the
    tolerance could flip."""
    order = np.argsort(want, axis=-1)
    top, second = order[:, -1], order[:, -2]
    rows = np.arange(len(want))
    decisive = want[rows, top] - want[rows, second] > 2 * LOGIT_TOLERANCE
    return top, second, decisive


def _logits_ok(got: np.ndarray, want: np.ndarray) -> bool:
    if got.shape != want.shape or not np.all(np.abs(got - want) <= LOGIT_TOLERANCE):
        return False
    top, _, decisive = _top_two(want)
    return bool(np.all((got.argmax(-1) == top)[decisive]))


def _confusion_ok(counts: np.ndarray, want: np.ndarray, classes: np.ndarray) -> bool:
    """evaluate's confusion counts (true class x predicted class) against the
    reference: each decisive row under its reference class, each other row
    under one of its top two."""
    k = want.shape[1]
    if counts.shape != (k, k):
        return False
    top, second, decisive = _top_two(want)
    expected = np.zeros((k, k), dtype=np.int64)
    np.add.at(expected, (classes[decisive], top[decisive]), 1)
    open_rows = ~decisive
    allowed = np.zeros((k, k), dtype=bool)
    allowed[classes[open_rows], top[open_rows]] = True
    allowed[classes[open_rows], second[open_rows]] = True
    extra = counts - expected
    return bool(np.all(extra >= 0) and not np.any(extra[~allowed])
                and np.array_equal(extra.sum(axis=1), np.bincount(classes[open_rows], minlength=k)))


# ---------------------------------------------------------------------------


def train_b64(sk, prep: Prepared, seconds: float, on_warm) -> Outcome:
    """One fresh training run; ``seconds`` is unused, see TRAIN_EPOCHS."""
    out = Outcome(seqs_per_call=BATCH)
    autograd, encoder, recognizer, optim = sk.autograd, sk.encoder, sk.recognizer, sk.optim
    params = sk.model.ModelParams.build(prep.params.config, seed=MODEL_SEED)
    named = params.named_tensors()
    state = optim.AdamState(named)
    shuffle = np.random.default_rng([MODEL_SEED, 1])
    losses: list[float] = []
    order = np.empty(0, dtype=np.int64)
    steps = TRAIN_EPOCHS * STEPS_PER_EPOCH
    out.checks["peak_rss_before_loop_mb"] = peak_rss_mb()
    for step in range(1, steps + 1):
        if len(order) < BATCH:
            order = prep.train_idx[shuffle.permutation(len(prep.train_idx))]
        batch, order = order[:BATCH], order[BATCH:]
        x, y = prep.data[batch], prep.classes[batch]
        out.attempted += 1
        value = float("nan")
        start = perf_counter()
        try:
            with autograd.Tape():
                bundle = encoder.encode(x, params.encoder)
                logits = recognizer.forward(bundle, params)
                loss = autograd.cross_entropy(logits, y)
            autograd.backward(loss)
            optim.adam_step(named, state, TRAIN_LR)
            value = loss.item()
        except Exception:
            _report_failure(out, f"train step {step}")
        else:
            if not np.isfinite(value):
                out.failed += 1
        elapsed = perf_counter() - start
        losses.append(value)
        if step == 1:
            on_warm()
        else:
            out.times.append(elapsed)
    out.peak_rss_mb = peak_rss_mb()
    opening = float(np.mean(losses[:STEPS_PER_EPOCH]))
    out.loss_end = float(np.mean(losses[-STEPS_PER_EPOCH:]))
    out.run_ok = bool(np.isfinite(out.loss_end) and out.loss_end < opening)
    out.checks.update({
        "all_losses_finite": bool(np.all(np.isfinite(losses))),
        "opening_loss": opening,
        "loss_end_below_opening": out.run_ok,
        "steps": steps,
        "losses": losses,
    })
    return out


def eval_b64(sk, prep: Prepared, seconds: float, on_warm) -> Outcome:
    out = Outcome(seqs_per_call=len(prep.test_idx))
    params = prep.params
    test = [prep.sequences[i] for i in prep.test_idx]
    out.checks["peak_rss_before_loop_mb"] = peak_rss_mb()
    matrices: list[np.ndarray | None] = []  # per call; None where it raised
    i = 0
    deadline = None
    while True:
        out.attempted += 1
        start = perf_counter()
        try:
            _, matrix, _ = sk.training.evaluate(params, test, BATCH)
            counts = np.array(matrix.counts)
        except Exception:
            counts = None
            _report_failure(out, f"evaluate call {i}")
        elapsed = perf_counter() - start
        matrices.append(counts)
        i += 1
        if i == EVAL_WARMUP:
            on_warm()
            deadline = perf_counter() + seconds
        elif i > EVAL_WARMUP:
            out.times.append(elapsed)
            if perf_counter() >= deadline:
                break
    out.peak_rss_mb = peak_rss_mb()
    out.verify = lambda: _verify_eval(sk, prep, out, matrices)
    return out


def _verify_eval(sk, prep: Prepared, out: Outcome, matrices: list) -> None:
    """Every call's confusion matrix against the reference's classes, then
    the logits of one extra, untimed call through the public forward path."""
    params = prep.params
    classes = prep.classes[prep.test_idx]
    want = reference_logits(prep.reference_data[prep.test_idx], params)
    misses = sum(1 for counts in matrices if counts is not None and not _confusion_ok(counts, want, classes))
    out.failed += misses
    out.attempted += 1
    try:
        x = prep.data[prep.test_idx]
        got = sk.recognizer.forward(sk.encoder.encode(x, params.encoder), params).data
    except Exception:
        got = None
        _report_failure(out, "untimed logit check")
    logits_ok = got is not None and _logits_ok(got, want)
    if got is not None and not logits_ok:
        out.failed += 1
    if got is not None and got.shape == want.shape:
        out.loss_end = _mean_cross_entropy(got, classes)
        out.checks["max_abs_logit_error"] = float(np.abs(got - want).max())
    out.checks.update({"logit_tolerance": LOGIT_TOLERANCE, "logits_match_reference": logits_ok,
                       "confusion_misses": misses})


WORKLOADS = {"train_b64": train_b64, "eval_b64": eval_b64}
