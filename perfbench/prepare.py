"""The benchmark's set-up path, timed phase by phase.

synth_generate -> write_jsonl -> parse_jsonl -> preprocess -> ModelParams.build
-> save_checkpoint -> load_checkpoint: what a user pays between "make a
dataset" and "have a model to run".  The dataset is 8 classes x 40
sequences, so the cross-subject split leaves 256 training sequences (four
full batches of 64) and 64 held-out ones (one batch).

After the timed path, untimed checks compare it with what synth_generate
made: the parsed sequences must carry the generated labels and ids and the
generated frames, and the preprocessed batch must match reference.py's own
float64 preprocessing of the generated frames.  That float64 batch is also
what the logit checks feed the reference model, so a set-up layer that goes
wrong cannot hand the program and the oracle the same wrong inputs.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import reference

SEQUENCES_PER_CLASS = 40
# The program's own default (TrainConfig.seed): model init and batch order do
# not vary with --seed, only the generated inputs do.
MODEL_SEED = 0
FRAMES = 64
# %.9g round-trips float32, so parsed frames should be bit-exact; allow one
# float32 rounding step either way.
FRAME_RTOL = 2.0 ** -22
# float32 interpolation against float64 on coordinates of magnitude ~2
PREPROCESS_ATOL = 1e-5


@dataclass
class Prepared:
    sequences: list          # parsed SkeletonSequence list
    data: np.ndarray         # (N, 64, 15, 3) preprocessed float32
    classes: np.ndarray      # class index per sequence
    train_idx: np.ndarray
    test_idx: np.ndarray
    params: object           # ModelParams from load_checkpoint
    phases: dict[str, float]  # seconds or milliseconds, as the phase name says
    reference_data: np.ndarray  # (N, 64, 15, 3) float64 from the generated frames
    checks: dict             # untimed set-up checks; see setup_checks
    ok: bool                 # every set-up check passed


def _metadata(seq) -> tuple:
    return seq.action_label, seq.subject_id, seq.camera_id, seq.setup_id


def setup_checks(generated: list, parsed: list, data: np.ndarray,
                 reference_data: np.ndarray) -> dict:
    """The parsed archive and the preprocessed batch against the generated set."""
    same_count = len(parsed) == len(generated)
    metadata = same_count and all(_metadata(a) == _metadata(b) for a, b in zip(parsed, generated))
    frames = same_count and all(
        a.frames.shape == b.frames.shape
        and np.allclose(a.frames, b.frames, rtol=FRAME_RTOL, atol=0.0)
        for a, b in zip(parsed, generated))
    if data.shape == reference_data.shape:
        worst = float(np.abs(data - reference_data).max())
    else:
        worst = float("inf")
    return {"parsed_metadata_match": metadata, "parsed_frames_match": frames,
            "preprocess_matches_reference": worst <= PREPROCESS_ATOL,
            "max_abs_preprocess_error": worst, "preprocess_atol": PREPROCESS_ATOL}


def _timed(phases: dict, name: str, fn, *args):
    start = perf_counter()
    out = fn(*args)
    elapsed = perf_counter() - start
    phases[name] = elapsed * 1000.0 if name.endswith("_ms") else elapsed
    return out


def prepare(sk, seed: int, work_root: Path) -> Prepared:
    """Run the set-up path once inside a scratch directory under work_root."""
    topology = sk.synth.humanoid_topology()
    phases: dict[str, float] = {}
    work = Path(tempfile.mkdtemp(prefix="setup-", dir=work_root))
    try:
        total_start = perf_counter()
        generated = _timed(phases, "synth.generate_s", sk.synth.synth_generate,
                           sk.synth.SynthConfig(seed=seed, sequences_per_class=SEQUENCES_PER_CLASS))
        _timed(phases, "skeleton.write_jsonl_s", sk.skeleton.write_jsonl, generated, work / "data.jsonl")
        sequences = _timed(phases, "skeleton.parse_jsonl_s", sk.skeleton.parse_jsonl, work / "data.jsonl")
        data = _timed(phases, "skeleton.preprocess_ms", lambda: np.stack(
            [sk.skeleton.preprocess(s, topology.root, FRAMES) for s in sequences]))
        labels = tuple(sorted({s.action_label for s in sequences}))
        config = sk.model.ModelConfig(joints=topology.joint_count, classes=len(labels),
                                      bones=topology.bones, root=topology.root, labels=labels)
        built = _timed(phases, "model.build_ms", sk.model.ModelParams.build, config, MODEL_SEED)
        _timed(phases, "checkpoint.save_ms", sk.checkpoint.save_checkpoint, built, work / "model.ckpt")
        params = _timed(phases, "checkpoint.load_ms", sk.checkpoint.load_checkpoint, work / "model.ckpt")
        phases["setup_s"] = perf_counter() - total_start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference_data = np.stack([reference.preprocess(s.frames, topology.root, FRAMES) for s in generated])
    checks = setup_checks(generated, sequences, data, reference_data)
    split = sk.skeleton.split_dataset(sequences, "cross-subject")
    lookup = {label: i for i, label in enumerate(labels)}
    return Prepared(
        sequences=sequences,
        data=data,
        classes=np.array([lookup[s.action_label] for s in sequences], dtype=np.int64),
        train_idx=np.array(split.train, dtype=np.int64),
        test_idx=np.array(split.test, dtype=np.int64),
        params=params,
        phases=phases,
        reference_data=reference_data,
        checks=checks,
        ok=all(v for k, v in checks.items() if isinstance(v, bool)),
    )
