"""Command-line entry point.

Subcommands: ingest, synth, train, eval, encode, bench.  Exit codes:
0 success, 1 usage error (a model too large to build or run included),
2 data or parse error, 3 configuration mismatch.
The AFE_SEED environment variable overrides the default seed of any
subcommand that takes one; an explicit --seed flag wins over both.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import STREAMS, EnhanceFlags, encode, stream_image, uniform_attention
from .errors import CheckpointError, ConfigMismatchError, ParseError, UsageError
from .model import ModelConfig, ModelParams, param_spec
from .ppm import channels_to_rgb, heat_to_yellow, write_ppm
from .recognizer import blas_threads, count_flops, infer, infer_workers
from .skeleton import (
    PROTOCOLS, Topology, ntu_topology, parse_jsonl, parse_ntu, preprocess, split_dataset, write_jsonl,
)
from .synth import SynthConfig, humanoid_topology, synth_generate
from .training import TrainConfig, evaluate, train


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError
    # instead so the documented exit-code mapping holds
    def error(self, message):
        raise UsageError(message)


def _resolve_seed(args, default: int) -> int:
    """--seed, else AFE_SEED, else ``default``: the seed field of the config
    the subcommand draws from."""
    seed, source = args.seed, "--seed"
    if seed is None:
        seed, source = os.environ.get("AFE_SEED"), "AFE_SEED"
        if seed is None:
            return default
        try:
            seed = int(seed)
        except ValueError:
            raise UsageError(f"AFE_SEED must be an integer, got {seed!r}") from None
    if seed < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _topology_for(joint_count: int) -> Topology:
    if joint_count == 25:
        return ntu_topology()
    if joint_count == 15:
        return humanoid_topology()
    raise ConfigMismatchError(f"no built-in joint tree for {joint_count} joints")


def _load_dataset(path) -> list:
    sequences = parse_jsonl(path)
    if not sequences:
        raise ParseError(f"{path}: empty dataset")
    return sequences


# The most parameters a model built here may have: 1 GiB of float32
# weights, of which training holds four copies (weights, gradients and
# Adam's two moments).  The default model has 536,446.
MAX_PARAMS = 2**28


def _model_config(args, sequences, **architecture) -> ModelConfig:
    """The model for ``sequences``: the built-in joint tree of their joint
    count, their sorted labels as the classes, and ``--frames``.  A model
    of more than ``MAX_PARAMS`` parameters is refused before anything is
    allocated."""
    topology = _topology_for(sequences[0].joint_count)
    labels = tuple(sorted({s.action_label for s in sequences}))
    model = ModelConfig(joints=topology.joint_count, classes=len(labels), bones=topology.bones,
                        root=topology.root, labels=labels, frames=args.frames, **architecture)
    count = sum(math.prod(s.shape) for s in param_spec(model))
    if count > MAX_PARAMS:
        raise UsageError(f"the model has {count:,} parameters, over the bound of {MAX_PARAMS:,}")
    return model


def _flags_from(args) -> EnhanceFlags:
    return EnhanceFlags(
        joint_scale=not args.no_joint_scale,
        bone_scale=not args.no_bone_scale,
        attention=not args.no_attention,
        temporal=not args.no_temporal,
        velocity=not args.no_velocity,
    )


def _add_flag_options(sub) -> None:
    sub.add_argument("--no-joint-scale", action="store_true", help="disable the per-joint scale head")
    sub.add_argument("--no-bone-scale", action="store_true", help="disable the per-bone scale head")
    sub.add_argument("--no-attention", action="store_true", help="disable the frame attention map")
    sub.add_argument("--no-temporal", action="store_true", help="disable the temporal embedding")
    sub.add_argument("--no-velocity", action="store_true", help="drop the two velocity streams")


def cmd_ingest(args) -> int:
    sequences = []
    if args.ntu_dir is None and args.jsonl is None:
        raise UsageError("ingest needs --ntu-dir or --jsonl")
    if args.ntu_dir is not None:
        files = sorted(Path(args.ntu_dir).glob("*.skeleton"))
        for file in files:
            try:
                sequences.append(parse_ntu(file))
            except ParseError as exc:
                print(f"skipping {file.name}: {exc}", file=sys.stderr)
    if args.jsonl is not None:
        sequences.extend(parse_jsonl(args.jsonl))
    if not sequences:
        print("no sequences ingested", file=sys.stderr)
        return 2
    write_jsonl(sequences, args.out)
    labels = {s.action_label for s in sequences}
    subjects = {s.subject_id for s in sequences}
    cameras = {s.camera_id for s in sequences}
    print(f"sequences={len(sequences)} classes={len(labels)} "
          f"subjects={len(subjects)} cameras={len(cameras)}")
    return 0


def cmd_synth(args) -> int:
    config = SynthConfig(
        class_count=args.classes,
        sequences_per_class=args.per_class,
        noise_std=args.noise,
        view_yaw_range=tuple(args.yaw_range),
        body_scale_range=tuple(args.scale_range),
        seed=_resolve_seed(args, SynthConfig.seed),
    )
    sequences = synth_generate(config)
    write_jsonl(sequences, args.out)
    print(f"sequences={len(sequences)} classes={config.class_count} out={args.out}")
    return 0


def _check_writable(path: str, flag: str) -> None:
    """Refuse, before any work, a file path whose directory is missing or
    not writable, or that names a directory: an OSError, so exit 2."""
    target = Path(path)
    if not target.parent.is_dir():
        raise OSError(f"{flag} {path}: no directory {target.parent}")
    if target.is_dir() or not os.access(target if target.exists() else target.parent, os.W_OK):
        raise OSError(f"{flag} {path}: not a writable file")


def cmd_train(args) -> int:
    _check_writable(args.out_checkpoint, "--out-checkpoint")
    if args.log is not None:
        _check_writable(args.log, "--log")
    sequences = _load_dataset(args.data)
    model = _model_config(args, sequences, channels=tuple(args.channels), fc_hidden=args.fc_hidden,
                          scale_hidden=args.scale_hidden, flags=_flags_from(args))
    split = split_dataset(sequences, args.protocol)
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch, lr=args.lr,
                         seed=_resolve_seed(args, TrainConfig.seed))
    params, log = train(sequences, model, split, config)
    save_checkpoint(params, args.out_checkpoint)
    if args.log is not None:
        Path(args.log).write_text("\n".join(log) + "\n", encoding="utf-8")
    print(log[-1])
    return 0


def _check_out_dir(path: str) -> None:
    """Refuse, before any work, an --out-dir that exists but is not a
    directory, or whose nearest existing ancestor is not a writable
    directory: an OSError, so exit 2.  The directory is made after the work."""
    target = Path(path)
    nearest = next((p for p in (target, *target.parents) if p.exists()), target)
    if not nearest.is_dir() or not os.access(nearest, os.W_OK | os.X_OK):
        raise OSError(f"--out-dir {path}: {nearest} is not a writable directory")


def cmd_eval(args) -> int:
    _check_out_dir(args.out_dir)
    params = load_checkpoint(args.checkpoint)
    sequences = _load_dataset(args.data)
    split = split_dataset(sequences, args.protocol)
    test = [sequences[i] for i in split.test]
    if not test:
        raise UsageError(f"protocol {args.protocol} leaves no test sequences")
    accuracy, matrix, per_class = evaluate(params, test)
    print(f"accuracy {accuracy:.4f} ({matrix.total} sequences)")
    for i, label in enumerate(params.config.labels):
        value = per_class[i]
        shown = "n/a" if np.isnan(value) else f"{value:.4f}"
        print(f"class {label}: {shown}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "confusion.csv").write_text(matrix.to_csv(), encoding="utf-8")
    write_ppm(out_dir / "confusion.ppm", heat_to_yellow(matrix.counts))
    return 0


def _params_for(args, sequences) -> ModelParams:
    if args.checkpoint is not None:
        return load_checkpoint(args.checkpoint)
    return ModelParams.build(_model_config(args, sequences), seed=_resolve_seed(args, TrainConfig.seed))


def cmd_encode(args) -> int:
    _check_out_dir(args.out_dir)
    if args.checkpoint is None and not args.init:
        raise UsageError("pass --checkpoint or --init")
    sequences = _load_dataset(args.data)
    params = _params_for(args, sequences)
    if not 0 <= args.sequence < len(sequences):
        raise UsageError(f"--sequence {args.sequence} out of range 0..{len(sequences) - 1}")
    seq = sequences[args.sequence]
    config = params.config
    if seq.joint_count != config.joints:
        raise ConfigMismatchError(f"sequence {args.sequence} has {seq.joint_count} joints, "
                                  f"the model expects {config.joints}")
    data = preprocess(seq, config.root, config.frames)
    bundle = encode(data[None], params.encoder)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = ("enhanced_joints.ppm", "enhanced_bones.ppm", "joint_velocity.ppm", "bone_velocity.ppm")
    written = list(files[: len(bundle.channels)])
    for stream, name in zip(STREAMS, written):
        source, _ = stream_image(bundle, stream, params.encoder)
        image = np.empty(source.shape, source.dtype)
        source.fill(0, 1, image)
        write_ppm(out_dir / name, channels_to_rgb(image[0]))
    attention = uniform_attention(config.frames).data if bundle.attention is None else bundle.attention.data[0]
    write_ppm(out_dir / "attention.ppm", heat_to_yellow(attention))
    written.append("attention.ppm")
    print(f"wrote {len(written)} images to {out_dir}")
    return 0


def cmd_bench(args) -> int:
    if args.iters < 1:
        raise UsageError("--iters must be >= 1")
    if args.warmup < 0:
        raise UsageError("--warmup must be >= 0")
    if args.checkpoint is not None:
        sequences = None  # the checkpoint holds the model
    elif args.data is not None:
        sequences = _load_dataset(args.data)
    else:  # the model for the default synthetic dataset's joints and classes
        sequences = synth_generate(SynthConfig(sequences_per_class=1))
    params = _params_for(args, sequences)
    config = params.config
    rng = np.random.default_rng(_resolve_seed(args, TrainConfig.seed))
    sequence = rng.normal(scale=0.3, size=(1, config.frames, config.joints, 3)).astype(np.float32)

    def one_pass():
        infer(sequence, params)

    for _ in range(args.warmup):
        one_pass()
    times = []
    for _ in range(args.iters):
        start = time.perf_counter()
        one_pass()
        times.append((time.perf_counter() - start) * 1000.0)
    times = np.array(times)
    report = count_flops(config)
    print(f"# {platform.platform()} / python {platform.python_version()} / numpy {np.__version__}"
          f" / blas_threads {blas_threads()} / infer_workers {infer_workers()}")
    print(f"mean_ms={times.mean():.3f}")
    print(f"median_ms={np.median(times):.3f}")
    print(f"p95_ms={np.percentile(times, 95):.3f}")
    print(f"gflops={report.total_flops / 1e9!r}")
    print(f"params={report.param_count}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="skelact", description="Skeleton action recognition toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="convert skeleton files to a JSONL dataset")
    ingest.add_argument("--ntu-dir", help="directory of .skeleton files")
    ingest.add_argument("--jsonl", help="existing JSONL dataset to merge")
    ingest.add_argument("--out", required=True)
    ingest.set_defaults(func=cmd_ingest)

    synth = commands.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--classes", type=int, default=SynthConfig.class_count)
    synth.add_argument("--per-class", type=int, default=SynthConfig.sequences_per_class)
    synth.add_argument("--noise", type=float, default=SynthConfig.noise_std)
    synth.add_argument("--yaw-range", type=float, nargs=2, default=SynthConfig.view_yaw_range, metavar=("LO", "HI"))
    synth.add_argument("--scale-range", type=float, nargs=2, default=SynthConfig.body_scale_range,
                       metavar=("LO", "HI"))
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    trainp = commands.add_parser("train", help="train a model on a JSONL dataset")
    trainp.add_argument("--data", required=True)
    trainp.add_argument("--protocol", default=PROTOCOLS[0], choices=PROTOCOLS)
    trainp.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    trainp.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    trainp.add_argument("--lr", type=float, default=TrainConfig.lr)
    trainp.add_argument("--seed", type=int, default=None)
    trainp.add_argument("--frames", type=int, default=ModelConfig.frames)
    trainp.add_argument("--channels", type=int, nargs=3, default=ModelConfig.channels)
    trainp.add_argument("--fc-hidden", type=int, default=ModelConfig.fc_hidden)
    trainp.add_argument("--scale-hidden", type=int, default=ModelConfig.scale_hidden)
    trainp.add_argument("--out-checkpoint", required=True)
    trainp.add_argument("--log", help="write the per-epoch CSV log here")
    _add_flag_options(trainp)
    trainp.set_defaults(func=cmd_train)

    evalp = commands.add_parser("eval", help="evaluate a checkpoint")
    evalp.add_argument("--checkpoint", required=True)
    evalp.add_argument("--data", required=True)
    evalp.add_argument("--protocol", default=PROTOCOLS[0], choices=PROTOCOLS)
    evalp.add_argument("--out-dir", default=".")
    evalp.set_defaults(func=cmd_eval)

    encodep = commands.add_parser("encode", help="export the enhanced images of one sequence")
    encodep.add_argument("--checkpoint")
    encodep.add_argument("--init", action="store_true", help="use freshly initialized parameters")
    encodep.add_argument("--data", required=True)
    encodep.add_argument("--sequence", type=int, default=0, help="index into the dataset")
    encodep.add_argument("--seed", type=int, default=None)
    encodep.add_argument("--frames", type=int, default=ModelConfig.frames)
    encodep.add_argument("--out-dir", required=True)
    encodep.set_defaults(func=cmd_encode)

    bench = commands.add_parser("bench", help="single-sequence latency and flops")
    bench.add_argument("--checkpoint")
    bench.add_argument("--data")
    bench.add_argument("--iters", type=int, default=50)
    bench.add_argument("--warmup", type=int, default=10)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--frames", type=int, default=ModelConfig.frames)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    except (ParseError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
