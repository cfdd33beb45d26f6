"""Training loop, evaluation metrics, and the enhancement-stage ablation grid.

train() is fully deterministic given (sequences, model, split, config):
parameter initialization and batch shuffling use separate generators derived
from the config seed, and no OS entropy is consulted anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autograd import Tape, backward, cross_entropy
from .encoder import EnhanceFlags, encode
from .errors import CheckpointError, ConfigMismatchError, UsageError
from .model import ModelConfig, ModelParams
from .optim import AdamState, adam_step
from .recognizer import forward, infer
from .skeleton import DatasetSplit, preprocess

# the learning rate falls by LR_DECAY after epoch DECAY_EPOCH
LR_DECAY = 0.1
DECAY_EPOCH = 20


@dataclass(frozen=True)
class TrainConfig:
    """How to train; the ModelConfig passed beside it says what."""

    epochs: int = 60
    batch_size: int = 64
    lr: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise UsageError("epochs and batch_size must be positive")
        if not 0 < self.lr < math.inf:
            raise UsageError(f"learning rates must be finite and positive, got lr {self.lr}")


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

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.counts) + "\n"


def _dataset(sequences, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The preprocessed (N, T, J, 3) batch and each sequence's class index
    in ``config.labels``; every joint count is checked before any label."""
    for seq in sequences:
        if seq.joint_count != config.joints:
            raise ConfigMismatchError(
                f"sequence has {seq.joint_count} joints, topology expects {config.joints}"
            )
    data = np.stack([preprocess(s, config.root, config.frames) for s in sequences])
    lookup = {label: i for i, label in enumerate(config.labels)}
    classes = np.empty(len(sequences), dtype=np.int64)
    for i, seq in enumerate(sequences):
        if seq.action_label not in lookup:
            raise ConfigMismatchError(f"label {seq.action_label} not in model vocabulary {config.labels}")
        classes[i] = lookup[seq.action_label]
    return data, classes


class _NonFiniteLogits(ValueError):
    """``count`` of ``total`` rows of logits hold a NaN or an infinity, the
    first at ``row``."""

    def __init__(self, count: int, total: int, row: int):
        super().__init__(f"non-finite logits in {count} of {total} rows, the first row {row}")
        self.count, self.total, self.row = count, total, row


def _source(sequences, index: int) -> str:
    return sequences[index].source or f"sequence {index}"


def _predict_classes(params: ModelParams, data: np.ndarray, batch_size: int) -> np.ndarray:
    """``infer``'s argmax class per row; a _NonFiniteLogits error when any
    row's logits hold a NaN or an infinity.  That check reports the fault,
    so numpy's overflow and invalid-value warnings are off while ``infer``
    runs (its workers inherit the setting)."""
    preds = np.empty(len(data), dtype=np.int64)
    finite = np.empty(len(data), dtype=bool)
    for start in range(0, len(data), batch_size):
        with np.errstate(over="ignore", invalid="ignore"):
            logits = infer(data[start : start + batch_size], params)
        preds[start : start + len(logits)] = logits.argmax(axis=-1)
        finite[start : start + len(logits)] = np.isfinite(logits).all(axis=-1)
    if not finite.all():
        raise _NonFiniteLogits(int((~finite).sum()), len(data), int(np.argmin(finite)))
    return preds


def train(sequences, model: ModelConfig, split: DatasetSplit, config: TrainConfig):
    """Fit a fresh ``model`` on the split's train side.

    Returns (params, log) where log holds one "epoch,loss,test_acc,lr" line
    per epoch; loss is the train-set mean for the epoch and test_acc is
    measured on the split's test side after the epoch's updates.  A batch
    whose loss is not finite stops training with a UsageError naming its
    epoch and batch, before that batch updates any weight; so do test-side
    logits that an epoch's updates left non-finite, naming that epoch.  A
    split with no test side has its train-side logits checked once, after
    the last epoch.
    """
    sequences = list(sequences)
    if not split.train:
        raise UsageError("empty train split")
    data, classes = _dataset(sequences, model)
    params = ModelParams.build(model, seed=config.seed)
    state = AdamState(params.tensors)
    shuffle = np.random.default_rng([config.seed, 1])

    train_idx = np.fromiter(split.train, dtype=np.int64)
    test_idx = np.fromiter(split.test, dtype=np.int64)
    log: list[str] = []

    def predict(side: np.ndarray, name: str) -> np.ndarray:
        try:
            return _predict_classes(params, data[side], config.batch_size)
        except _NonFiniteLogits as exc:
            raise UsageError(f"training diverged: epoch {epoch} left non-finite logits for {exc.count} of "
                             f"{exc.total} {name} sequences, the first {_source(sequences, side[exc.row])}; "
                             f"try a lower learning rate than {lr:g}") from None

    for epoch in range(1, config.epochs + 1):
        lr = config.lr * (LR_DECAY if epoch > DECAY_EPOCH else 1.0)
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
        test_acc = float("nan")
        if len(test_idx):
            test_acc = float((predict(test_idx, "test") == classes[test_idx]).mean())
        elif epoch == config.epochs:  # no test side: the trained weights' logits are checked once
            predict(train_idx, "train")
        log.append(f"{epoch},{mean_loss:.6f},{test_acc:.4f},{lr:g}")
    return params, log


def evaluate(params: ModelParams, sequences, batch_size: int = TrainConfig.batch_size):
    """Score a sequence list against a trained model.

    Returns (accuracy, ConfusionMatrix, per-class accuracy array).  Classes
    absent from the test set get NaN per-class entries.  Logits holding a
    NaN or an infinity are a CheckpointError naming the first such
    sequence's source: the model cannot be used.
    """
    sequences = list(sequences)
    if not sequences:
        raise UsageError("empty evaluation set")
    data, true_classes = _dataset(sequences, params.config)
    try:
        preds = _predict_classes(params, data, batch_size)
    except _NonFiniteLogits as exc:
        raise CheckpointError(f"the model gives non-finite logits for {exc.count} of {exc.total} sequences, "
                              f"the first {_source(sequences, exc.row)}") from None
    matrix = ConfusionMatrix(params.config.classes)
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


def ablate(sequences, model: ModelConfig, config: TrainConfig,
           subject_split: DatasetSplit, view_split: DatasetSplit | None = None,
           variants=None) -> list[AblationResult]:
    """Train and score each enhancement variant of ``model`` on the given split(s)."""
    sequences = list(sequences)
    if variants is None:
        variants = VARIANT_GRID
    results = []
    for name, flags in variants:
        variant = replace(model, flags=flags)
        subject_acc = _final_accuracy(sequences, variant, subject_split, config)
        view_acc = None
        if view_split is not None:
            view_acc = _final_accuracy(sequences, variant, view_split, config)
        results.append(AblationResult(variant=name, subject_acc=subject_acc, view_acc=view_acc))
    return results


def _final_accuracy(sequences, model, split, config) -> float:
    params, _ = train(sequences, model, split, config)
    test = [sequences[i] for i in split.test]
    accuracy, _, _ = evaluate(params, test, config.batch_size)
    return accuracy
