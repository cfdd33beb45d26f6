"""Training loop, evaluation metrics, and the enhancement-stage ablation grid.

train() is fully deterministic given (sequences, split, config): parameter
initialization and batch shuffling use separate generators derived from the
config seed, and no OS entropy is consulted anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autograd import Tape, backward, cross_entropy
from .encoder import EnhanceFlags, encode
from .errors import ConfigMismatchError, UsageError
from .model import ModelConfig, ModelParams
from .optim import AdamState, adam_step
from .recognizer import forward, infer
from .skeleton import DatasetSplit, Topology, preprocess


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 64
    lr: float = 0.001
    lr_decay: float = 0.1
    decay_epoch: int = 20
    seed: int = 0
    frames: int = 64
    channels: tuple[int, int, int] = (32, 64, 128)
    fc_hidden: int = 256
    scale_hidden: int = 64
    flags: EnhanceFlags = field(default_factory=EnhanceFlags)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise UsageError("epochs and batch_size must be positive")
        if not (0 < self.lr < math.inf and 0 < self.lr_decay < math.inf):
            raise UsageError(f"learning rates must be finite and positive, got lr {self.lr}, lr_decay {self.lr_decay}")


class ConfusionMatrix:
    """c x c counts; rows are true classes, columns predictions."""

    def __init__(self, classes: int):
        self.counts = np.zeros((classes, classes), dtype=np.int64)

    def update(self, true_classes, predicted) -> None:
        np.add.at(self.counts, (np.asarray(true_classes), np.asarray(predicted)), 1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total

    def per_class(self) -> np.ndarray:
        """Diagonal over row sums; NaN marks classes with no test samples."""
        rows = self.counts.sum(axis=1)
        with np.errstate(invalid="ignore"):
            return np.where(rows > 0, np.diag(self.counts) / np.maximum(rows, 1), np.nan)

    def mean_per_class(self) -> float:
        return float(np.nanmean(self.per_class()))

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.counts) + "\n"


def _stack_dataset(sequences, topology: Topology, frames: int):
    joints = topology.joint_count
    for seq in sequences:
        if seq.joint_count != joints:
            raise ConfigMismatchError(
                f"sequence has {seq.joint_count} joints, topology expects {joints}"
            )
    data = np.stack([preprocess(s, topology.root, frames) for s in sequences])
    return data


def _class_indices(sequences, labels: tuple[int, ...]) -> np.ndarray:
    lookup = {label: i for i, label in enumerate(labels)}
    out = np.empty(len(sequences), dtype=np.int64)
    for i, seq in enumerate(sequences):
        if seq.action_label not in lookup:
            raise ConfigMismatchError(f"label {seq.action_label} not in model vocabulary {labels}")
        out[i] = lookup[seq.action_label]
    return out


def _predict_classes(params: ModelParams, data: np.ndarray, batch_size: int = 64) -> np.ndarray:
    preds = np.empty(len(data), dtype=np.int64)
    for start in range(0, len(data), batch_size):
        chunk = data[start : start + batch_size]
        preds[start : start + len(chunk)] = infer(chunk, params).argmax(axis=-1)
    return preds


def train(sequences, topology: Topology, split: DatasetSplit, config: TrainConfig):
    """Fit the model on the split's train side.

    Returns (params, log) where log holds one "epoch,loss,test_acc,lr" line
    per epoch; loss is the train-set mean for the epoch and test_acc is
    measured on the split's test side after the epoch's updates.  A batch
    whose loss is not finite stops training with a UsageError naming its
    epoch and batch, before that batch updates any weight.
    """
    sequences = list(sequences)
    if not split.train:
        raise UsageError("empty train split")
    labels = tuple(sorted({s.action_label for s in sequences}))
    data = _stack_dataset(sequences, topology, config.frames)
    classes = _class_indices(sequences, labels)

    model_config = ModelConfig(
        joints=topology.joint_count,
        classes=len(labels),
        bones=topology.bones,
        root=topology.root,
        labels=labels,
        frames=config.frames,
        channels=config.channels,
        fc_hidden=config.fc_hidden,
        scale_hidden=config.scale_hidden,
        flags=config.flags,
    )
    params = ModelParams.build(model_config, seed=config.seed)
    state = AdamState(params.tensors)
    shuffle = np.random.default_rng([config.seed, 1])

    train_idx = np.fromiter(split.train, dtype=np.int64)
    test_idx = np.fromiter(split.test, dtype=np.int64)
    log: list[str] = []
    for epoch in range(1, config.epochs + 1):
        lr = config.lr * (config.lr_decay if epoch > config.decay_epoch else 1.0)
        order = train_idx[shuffle.permutation(len(train_idx))]
        loss_sum = 0.0
        for step, start in enumerate(range(0, len(order), config.batch_size), start=1):
            batch = order[start : start + config.batch_size]
            with Tape():
                bundle = encode(data[batch], params.encoder)
                logits = forward(bundle, params)
                loss = cross_entropy(logits, classes[batch])
            value = loss.item()
            if not math.isfinite(value):
                raise UsageError(f"training diverged: epoch {epoch}, batch {step} has loss {value}; "
                                 f"try a lower learning rate than {lr:g}")
            backward(loss)
            adam_step(params.tensors, state, lr)
            loss_sum += value * len(batch)
        mean_loss = loss_sum / len(order)
        if len(test_idx):
            preds = _predict_classes(params, data[test_idx], config.batch_size)
            test_acc = float((preds == classes[test_idx]).mean())
        else:
            test_acc = float("nan")
        log.append(f"{epoch},{mean_loss:.6f},{test_acc:.4f},{lr:g}")
    return params, log


def evaluate(params: ModelParams, sequences, batch_size: int = 64):
    """Score a sequence list against a trained model.

    Returns (accuracy, ConfusionMatrix, per-class accuracy array).  Classes
    absent from the test set get NaN per-class entries.
    """
    sequences = list(sequences)
    if not sequences:
        raise UsageError("empty evaluation set")
    config = params.config
    topology = params.encoder.topology
    data = _stack_dataset(sequences, topology, config.frames)
    true_classes = _class_indices(sequences, config.labels)
    preds = _predict_classes(params, data, batch_size)
    matrix = ConfusionMatrix(config.classes)
    matrix.update(true_classes, preds)
    return matrix.accuracy(), matrix, matrix.per_class()


@dataclass(frozen=True)
class AblationResult:
    variant: str
    subject_acc: float
    view_acc: float | None = None


# Cumulative enhancement grid, plus the two-stream (no velocity) variant.
VARIANT_GRID: tuple[tuple[str, EnhanceFlags], ...] = (
    ("raw", EnhanceFlags(joint_scale=False, bone_scale=False, attention=False, temporal=False)),
    ("joint_scale", EnhanceFlags(joint_scale=True, bone_scale=False, attention=False, temporal=False)),
    ("bone_scale", EnhanceFlags(joint_scale=False, bone_scale=True, attention=False, temporal=False)),
    ("joint_bone", EnhanceFlags(joint_scale=True, bone_scale=True, attention=False, temporal=False)),
    ("joint_bone_attention", EnhanceFlags(joint_scale=True, bone_scale=True, attention=True, temporal=False)),
    ("full", EnhanceFlags()),
    ("no_velocity", EnhanceFlags(velocity=False)),
)


def ablate(sequences, topology: Topology, config: TrainConfig,
           subject_split: DatasetSplit, view_split: DatasetSplit | None = None,
           variants=None) -> list[AblationResult]:
    """Train and score each enhancement variant on the given split(s)."""
    sequences = list(sequences)
    if variants is None:
        variants = VARIANT_GRID
    results = []
    for name, flags in variants:
        variant_config = replace(config, flags=flags)
        subject_acc = _final_accuracy(sequences, topology, subject_split, variant_config)
        view_acc = None
        if view_split is not None:
            view_acc = _final_accuracy(sequences, topology, view_split, variant_config)
        results.append(AblationResult(variant=name, subject_acc=subject_acc, view_acc=view_acc))
    return results


def _final_accuracy(sequences, topology, split, config) -> float:
    params, _ = train(sequences, topology, split, config)
    test = [sequences[i] for i in split.test]
    accuracy, _, _ = evaluate(params, test, config.batch_size)
    return accuracy
