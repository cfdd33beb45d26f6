"""Skeleton-based action recognition with learned feature enhancement.

The pieces compose left to right: skeleton sequences come from NTU-format
files, JSONL archives, or the synthetic generator; the encoder turns each
sequence into four enhanced 3-channel images; the four-stream CNN scores
them; the trainer fits everything end to end with Adam on a hand-rolled
reverse-mode tape.
"""

from .autograd import Tape, Tensor, backward
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import EncodedBundle, EncoderParams, EnhanceFlags, encode
from .model import ModelConfig, ModelParams
from .optim import AdamState, adam_step
from .recognizer import FlopsReport, count_flops, forward, infer
from .skeleton import (
    DatasetSplit, SkeletonSequence, Topology, ntu_topology, parse_jsonl,
    parse_ntu, split_dataset, write_jsonl,
)
from .synth import SynthConfig, humanoid_topology, synth_generate
from .training import AblationResult, ConfusionMatrix, TrainConfig, ablate, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor", "backward",
    "AdamState", "adam_step",
    "SkeletonSequence", "Topology", "DatasetSplit",
    "parse_ntu", "parse_jsonl", "write_jsonl",
    "split_dataset", "ntu_topology",
    "SynthConfig", "synth_generate", "humanoid_topology",
    "EncodedBundle", "EncoderParams", "EnhanceFlags", "encode",
    "ModelConfig", "ModelParams",
    "FlopsReport", "count_flops", "forward", "infer",
    "TrainConfig", "ConfusionMatrix", "AblationResult",
    "train", "evaluate", "ablate",
    "save_checkpoint", "load_checkpoint",
    "__version__",
]
