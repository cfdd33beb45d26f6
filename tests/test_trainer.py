"""Training loop, evaluation metrics, ablation grid, and checkpoint format."""

import struct
import zlib

import numpy as np
import pytest
from conftest import model_config

from skelact import autograd, checkpoint, training
from skelact.autograd import Tape
from skelact.checkpoint import MAGIC, load_checkpoint, read_entries, save_checkpoint
from skelact.cli import main
from skelact.encoder import EnhanceFlags, encode
from skelact.errors import CheckpointError, ConfigMismatchError, UsageError
from skelact.model import ModelConfig, ModelParams
from skelact.recognizer import forward, infer
from skelact.skeleton import DatasetSplit, SkeletonSequence, split_dataset, write_jsonl
from skelact.synth import SynthConfig, humanoid_topology, synth_generate
from skelact.training import (
    VARIANT_GRID, AblationResult, ConfusionMatrix, TrainConfig, ablate,
    evaluate, train,
)

TOPO = humanoid_topology()

# small-but-learnable shared fixture; per-module tests stay under a minute
SMALL_DATA = synth_generate(SynthConfig(sequences_per_class=6, noise_std=0.02, seed=3))
SMALL_SPLIT = split_dataset(SMALL_DATA, "cross-subject")
SMALL_MODEL = model_config(SMALL_DATA, TOPO, frames=64, channels=(4, 8, 16), fc_hidden=32, scale_hidden=16)
SMALL_TRAIN = TrainConfig(epochs=2, batch_size=8, lr=0.001, seed=0)
TINY = dict(frames=64, channels=(2, 2, 2), fc_hidden=8, scale_hidden=4)


def test_config_validation():
    with pytest.raises(UsageError):
        TrainConfig(epochs=0)
    with pytest.raises(UsageError):
        TrainConfig(lr=-1.0)
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(UsageError, match="finite and positive"):
            TrainConfig(lr=bad)


# ---------------------------------------------------------------------------
# confusion matrix


def test_confusion_matrix_perfect_predictor():
    m = ConfusionMatrix(3)
    m.update([0, 1, 2, 2], [0, 1, 2, 2])
    assert m.accuracy() == 1.0
    assert np.array_equal(m.per_class(), [1.0, 1.0, 1.0])
    assert m.counts[2, 2] == 2


def test_confusion_matrix_constant_predictor():
    m = ConfusionMatrix(3)
    m.update([0, 1, 2, 2], [1, 1, 1, 1])
    assert m.accuracy() == pytest.approx(0.25)
    per = m.per_class()
    assert per[0] == 0.0 and per[1] == 1.0 and per[2] == 0.0
    assert np.nanmean(per) == pytest.approx(1.0 / 3)


def test_confusion_matrix_empty_class_is_nan():
    m = ConfusionMatrix(3)
    m.update([0, 0, 1], [0, 1, 1])
    per = m.per_class()
    assert np.isnan(per[2])
    assert np.nanmean(per) == pytest.approx((0.5 + 1.0) / 2)
    assert m.to_csv() == "1,1,0\n0,1,0\n0,0,0\n"


# ---------------------------------------------------------------------------
# training loop


def test_training_reduces_loss_and_logs_every_epoch():
    params, log = train(SMALL_DATA, SMALL_MODEL, SMALL_SPLIT, SMALL_TRAIN)
    assert len(log) == SMALL_TRAIN.epochs
    losses = [float(line.split(",")[1]) for line in log]
    assert losses[-1] < losses[0]
    epoch, loss, acc, lr = log[0].split(",")
    assert epoch == "1" and lr == "0.001"
    assert 0.0 <= float(acc) <= 1.0


def test_training_is_seed_deterministic():
    a_params, a_log = train(SMALL_DATA, SMALL_MODEL, SMALL_SPLIT, SMALL_TRAIN)
    b_params, b_log = train(SMALL_DATA, SMALL_MODEL, SMALL_SPLIT, SMALL_TRAIN)
    assert a_log == b_log
    for name, tensor in a_params.named_tensors().items():
        assert np.array_equal(tensor.data, b_params.named_tensors()[name].data), name
    _, c_log = train(SMALL_DATA, SMALL_MODEL, SMALL_SPLIT, SMALL_TRAIN.__class__(
        **{**SMALL_TRAIN.__dict__, "seed": 9}))
    assert c_log != a_log


def test_learning_rate_decays_after_configured_epoch(monkeypatch):
    monkeypatch.setattr(training, "DECAY_EPOCH", 2)
    cfg = TrainConfig(epochs=4, batch_size=8, lr=0.001, seed=0)
    _, log = train(SMALL_DATA[:16], model_config(SMALL_DATA[:16], TOPO, **TINY),
                   DatasetSplit(tuple(range(12)), tuple(range(12, 16)), "manual"), cfg)
    rates = [line.split(",")[3] for line in log]
    assert rates == ["0.001", "0.001", "0.0001", "0.0001"]


def test_train_rejects_empty_split_and_foreign_joints():
    with pytest.raises(UsageError, match="empty train split"):
        train(SMALL_DATA, SMALL_MODEL, DatasetSplit((), (0, 1), "manual"), SMALL_TRAIN)
    alien = SkeletonSequence(np.zeros((4, 9, 3), dtype=np.float32), action_label=0,
                             subject_id=1, camera_id=1)
    with pytest.raises(ConfigMismatchError, match="9 joints"):
        train([alien] * 4, model_config([alien], TOPO), DatasetSplit((0, 1), (2, 3), "manual"), SMALL_TRAIN)


def test_train_keeps_the_vocabulary_it_is_given():
    # the data hold labels 0..7; the model's head has room for 0..9
    model = ModelConfig(bones=TOPO.bones, root=TOPO.root, labels=tuple(range(10)), **TINY)
    params, _ = train(SMALL_DATA, model, SMALL_SPLIT, TrainConfig(epochs=1, batch_size=8))
    assert params.config == model and params.tensors["classifier.fc2.bias"].shape == (10,)
    _, matrix, per_class = evaluate(params, [SMALL_DATA[i] for i in SMALL_SPLIT.test])
    assert matrix.counts.shape == (10, 10) and np.isnan(per_class[8:]).all()


@pytest.mark.parametrize("label", [1.5, 2**63, 10**40], ids=["fraction", "beyond_int64", "beyond_any_dtype"])
def test_train_refuses_labels_a_checkpoint_cannot_store_before_any_step(monkeypatch, label):
    steps = []
    monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
    sequences = [SkeletonSequence(s.frames, int(label) if i % 2 else 0, s.subject_id, s.camera_id)
                 for i, s in enumerate(SMALL_DATA[:16])]
    with pytest.raises(UsageError, match="must be integers int64 can hold"):
        model = ModelConfig(bones=TOPO.bones, root=TOPO.root, labels=(0, label), **TINY)
        train(sequences, model, DatasetSplit(tuple(range(12)), tuple(range(12, 16)), "manual"),
              TrainConfig(epochs=1, batch_size=8))
    assert not steps


def test_train_without_test_side_logs_nan_accuracy():
    cfg = TrainConfig(epochs=1, batch_size=8, lr=0.001, seed=0)
    _, log = train(SMALL_DATA[:8], model_config(SMALL_DATA[:8], TOPO, **TINY),
                   DatasetSplit(tuple(range(8)), (), "manual"), cfg)
    assert log[0].split(",")[2] == "nan"


def test_train_without_test_side_refuses_weights_whose_logits_are_non_finite():
    # one epoch of one batch: its loss is taken before the update that
    # breaks every logit, and no test side scores the epoch, so the train
    # side's logits are checked after the last epoch
    cfg = TrainConfig(epochs=1, batch_size=64, lr=1e8, seed=0)
    split = DatasetSplit(tuple(range(len(SMALL_DATA))), (), "manual")
    with np.errstate(all="ignore"), pytest.raises(UsageError) as caught:
        train(SMALL_DATA, SMALL_MODEL, split, cfg)
    assert str(caught.value).startswith(f"training diverged: epoch 1 left non-finite logits for {len(SMALL_DATA)} "
                                        f"of {len(SMALL_DATA)} train sequences, the first ")


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_matches_log_tail_and_recounts():
    params, log = train(SMALL_DATA, SMALL_MODEL, SMALL_SPLIT, SMALL_TRAIN)
    test_seqs = [SMALL_DATA[i] for i in SMALL_SPLIT.test]
    accuracy, matrix, per_class = evaluate(params, test_seqs)
    assert f"{accuracy:.4f}" == log[-1].split(",")[2]
    assert matrix.total == len(test_seqs)
    assert matrix.counts.sum(axis=1).tolist() == [
        sum(1 for s in test_seqs if s.action_label == label)
        for label in params.config.labels
    ]
    assert len(per_class) == params.config.classes
    with pytest.raises(UsageError):
        evaluate(params, [])
    outsider = SkeletonSequence(np.zeros((4, 15, 3), dtype=np.float32),
                                action_label=77, subject_id=1, camera_id=1)
    with pytest.raises(ConfigMismatchError, match="77"):
        evaluate(params, [outsider])


@pytest.mark.parametrize("batch_size", [-1, 0])
def test_evaluate_refuses_a_batch_size_below_one(batch_size):
    params = ModelParams.build(model_config(SMALL_DATA, TOPO, **TINY))
    with pytest.raises(UsageError, match=f"batch_size must be positive, got {batch_size}"):
        evaluate(params, SMALL_DATA[:4], batch_size)


def test_eval_logits_equal_the_taped_forward_and_reuse_the_workspace(monkeypatch):
    config = ModelConfig(bones=TOPO.bones, root=TOPO.root, labels=tuple(range(8)))
    params = ModelParams.build(config, seed=0)
    data = np.random.default_rng(5).normal(size=(70, 64, TOPO.joint_count, 3)).astype(np.float32)
    untaped = []

    def keep_logits(chunk, p):
        logits = infer(chunk, p)
        untaped.append(logits)
        return logits

    monkeypatch.setattr(training, "infer", keep_logits)
    preds = training._predict_classes(params, data, 64)  # a batch of 64 and a tail of 6
    assert [logits.shape[0] for logits in untaped] == [64, 6]
    for logits, rows in zip(untaped, (slice(0, 64), slice(64, 70))):
        with Tape():
            taped = forward(encode(data[rows], params.encoder), params)
        assert isinstance(logits, np.ndarray) and taped._tape is not None
        assert np.array_equal(logits.view(np.uint32), taped.data.view(np.uint32))
    assert np.array_equal(preds, np.concatenate(untaped).argmax(axis=-1))
    # no timing: a second call must find its buffers already grown.  Taken
    # after the taped forwards, which may run their streams on this thread
    # and grow its buffers beyond what the first call needed
    roles = ("pad", "cols", "conv")
    assert set(vars(autograd._WORKSPACE)) == set(roles)
    buffers = [id(getattr(autograd._WORKSPACE, role)) for role in roles]
    assert np.array_equal(training._predict_classes(params, data, 64), preds)
    assert [id(getattr(autograd._WORKSPACE, role)) for role in roles] == buffers


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    params, _ = train(SMALL_DATA, SMALL_MODEL, SMALL_SPLIT, SMALL_TRAIN)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    for name, tensor in params.named_tensors().items():
        other = loaded.named_tensors()[name]
        assert np.array_equal(tensor.data, other.data), name
        assert other.data.dtype == np.float32
    test_seqs = [SMALL_DATA[i] for i in SMALL_SPLIT.test]
    acc_a, matrix_a, _ = evaluate(params, test_seqs)
    acc_b, matrix_b, _ = evaluate(loaded, test_seqs)
    assert acc_a == acc_b
    assert np.array_equal(matrix_a.counts, matrix_b.counts)


def test_checkpoint_write_is_deterministic(tmp_path):
    params, _ = train(SMALL_DATA[:16], model_config(SMALL_DATA[:16], TOPO, **TINY),
                      DatasetSplit(tuple(range(12)), tuple(range(12, 16)), "manual"),
                      TrainConfig(epochs=1, batch_size=8, lr=0.001, seed=0))
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, a)
    save_checkpoint(params, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()[:4] == MAGIC


def test_checkpoint_corruption_errors(tmp_path):
    params, _ = train(SMALL_DATA[:16], model_config(SMALL_DATA[:16], TOPO, **TINY),
                      DatasetSplit(tuple(range(12)), tuple(range(12, 16)), "manual"),
                      TrainConfig(epochs=1, batch_size=8, lr=0.001, seed=0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    blob = path.read_bytes()

    truncated = tmp_path / "t.ckpt"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="unexpected end"):
        load_checkpoint(truncated)

    wrong_magic = tmp_path / "m.ckpt"
    wrong_magic.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(wrong_magic)

    future = tmp_path / "v.ckpt"
    future.write_bytes(blob[:4] + (99).to_bytes(4, "little") + blob[8:])
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(future)

    trailing = tmp_path / "x.ckpt"
    trailing.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(trailing)


def test_checkpoint_entries_include_config_and_tensors(tmp_path):
    params, _ = train(SMALL_DATA[:16], model_config(SMALL_DATA[:16], TOPO, **TINY),
                      DatasetSplit(tuple(range(12)), tuple(range(12, 16)), "manual"),
                      TrainConfig(epochs=1, batch_size=8, lr=0.001, seed=0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    entries = read_entries(path)
    assert [name for name in entries if name.startswith("config.")] == [
        f"config.{name}" for name in ("bones", "root", "labels", "frames", "channels", "fc_hidden",
                                      "scale_hidden", "dt", "flags")]  # no stored joint or class count
    assert entries["config.frames"] == 64.0
    assert np.array_equal(entries["config.channels"], [2.0, 2.0, 2.0])
    assert np.array_equal(entries["config.flags"], [1.0, 1.0, 1.0, 1.0, 1.0])
    assert entries["config.bones"].shape == (14, 2)
    stored = {k for k in entries if not k.startswith("config.")}
    assert stored == set(params.named_tensors())


def test_checkpoint_stores_config_integers_and_dt_exactly(tmp_path):
    def params(labels, dt=1.0):
        return ModelParams.build(ModelConfig(bones=TOPO.bones, root=TOPO.root, labels=labels, channels=(2, 2, 2),
                                             fc_hidden=8, scale_hidden=4, dt=dt))

    path = tmp_path / "model.ckpt"
    for stored in (params((0, 2**24 + 1, -(2**24) - 1, 2**62)), params((0, 1, 2), dt=0.1)):  # float32 rounds each
        save_checkpoint(stored, path)
        assert load_checkpoint(path).config == stored.config
    path.unlink()
    unstorable = ModelConfig(bones=TOPO.bones, root=TOPO.root, labels=(0, 1), fc_hidden=2**63)
    with pytest.raises(UsageError, match=r"config.fc_hidden value 9223372036854775808: int64 cannot hold it exactly"):
        save_checkpoint(ModelParams(unstorable, {}), path)
    assert not path.exists()  # refused before any byte is written


def test_load_checkpoint_draws_no_random_weights(tmp_path, monkeypatch):
    config = ModelConfig(bones=TOPO.bones, root=TOPO.root,
                         labels=(0, 1, 2), channels=(2, 2, 2), fc_hidden=8, scale_hidden=4)
    params = ModelParams.build(config, seed=4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew from a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded = load_checkpoint(path).named_tensors()
    assert list(loaded) == list(params.named_tensors())
    for name, tensor in params.named_tensors().items():
        assert np.array_equal(loaded[name].data, tensor.data), name
        assert loaded[name].requires_grad == tensor.requires_grad, name


class _FullDisk:
    """A binary file that takes ``budget`` bytes and then fails like a
    full disk, after writing what fits of the write that overflows."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(bytes(data)[: self.budget])
            raise OSError(28, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_a_save_that_fails_partway_leaves_the_earlier_checkpoint_and_no_temp_file(tmp_path, monkeypatch):
    config = ModelConfig(bones=TOPO.bones, root=TOPO.root,
                         labels=(0, 1, 2), channels=(2, 2, 2), fc_hidden=8, scale_hidden=4)
    earlier, later = ModelParams.build(config, seed=4), ModelParams.build(config, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(earlier, path)
    blob = path.read_bytes()
    opened = []

    def full_disk_open(file, mode="r", *args, **kwargs):
        opened.append(file)
        return _FullDisk(open(file, mode, *args, **kwargs), budget=len(blob) // 2)

    for target in (path, tmp_path / "fresh.ckpt"):
        opened.clear()
        with monkeypatch.context() as m:
            m.setattr(checkpoint, "open", full_disk_open, raising=False)
            with pytest.raises(OSError, match="No space left"):
                save_checkpoint(later, target)
        assert len(opened) == 1 and str(opened[0]) != str(target)  # a temporary file beside the target
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        assert path.read_bytes() == blob
    save_checkpoint(later, path)  # an unhindered save replaces the file whole
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    assert np.array_equal(load_checkpoint(path).tensors["classifier.fc2.weight"].data,
                          later.tensors["classifier.fc2.weight"].data)


def _small_checkpoint(path, **kw):
    config = ModelConfig(bones=TOPO.bones, root=TOPO.root,
                         labels=(0, 1, 2), channels=(2, 2, 2), fc_hidden=8, scale_hidden=4, **kw)
    params = ModelParams.build(config, seed=4)
    save_checkpoint(params, path)
    return params


def _write_v1(path, entries):
    """The v1 layout written from (name, array) pairs in the given order."""
    out = [MAGIC, struct.pack("<II", 1, len(entries))]
    for name, value in entries:
        arr = np.ascontiguousarray(value, dtype="<f4")
        out += [struct.pack("<I", len(name.encode())), name.encode(), struct.pack("<I", arr.ndim),
                *(struct.pack("<I", extent) for extent in arr.shape), arr.tobytes()]
    path.write_bytes(b"".join(out))


def _write_coded(path, entries, version=3, code=None):
    """The v2 or v3 layout, which differ only in the version number, written
    from (name, array) pairs, each with its own dtype's code unless ``code``
    overrides every entry's, and a valid CRC32."""
    out = [MAGIC, struct.pack("<II", version, len(entries))]
    for name, arr in entries:
        arr = np.ascontiguousarray(arr)
        out += [struct.pack("<I", len(name.encode())), name.encode(),
                struct.pack("<II", ("<f4", "<f8", "<i8").index(arr.dtype.str) if code is None else code, arr.ndim),
                *(struct.pack("<I", extent) for extent in arr.shape), arr.tobytes()]
    blob = b"".join(out)
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


def _with_counts(path) -> dict:
    """The entries of the _small_checkpoint at ``path`` as a v1 or v2 writer
    stored them: config.joints and config.classes first, as int64."""
    counts = {"config.joints": np.array([TOPO.joint_count], "<i8"), "config.classes": np.array([3], "<i8")}
    return {**counts, **read_entries(path)}


def test_v3_layout_written_independently_is_save_checkpoints_bytes(tmp_path):
    params = _small_checkpoint(tmp_path / "model.ckpt", dt=0.1)
    blob = (tmp_path / "model.ckpt").read_bytes()
    assert struct.unpack_from("<II", blob, 4) == (3, 9 + len(params.tensors))  # version, entry count
    _write_coded(tmp_path / "copy.ckpt", list(read_entries(tmp_path / "model.ckpt").items()))
    assert (tmp_path / "copy.ckpt").read_bytes() == blob


def test_v2_layout_written_independently_loads(tmp_path):
    params = _small_checkpoint(tmp_path / "model.ckpt", dt=0.1)
    _write_coded(tmp_path / "v2.ckpt", list(_with_counts(tmp_path / "model.ckpt").items()), version=2)
    assert read_entries(tmp_path / "v2.ckpt")["config.joints"] == TOPO.joint_count
    loaded = load_checkpoint(tmp_path / "v2.ckpt")
    assert loaded.config == params.config
    for name, tensor in params.named_tensors().items():
        assert loaded.tensors[name].data.tobytes() == tensor.data.tobytes(), name


@pytest.mark.parametrize("name, message", [("config.joints", "14 bones cannot span 16 joints"),
                                           ("config.classes", "4 classes but 3 labels")])
def test_v2_count_that_disagrees_is_a_checkpoint_error_and_exit_2(tmp_path, capsys, name, message):
    _small_checkpoint(tmp_path / "model.ckpt")
    entries = _with_counts(tmp_path / "model.ckpt")
    entries[name] += 1
    bad = tmp_path / "bad.ckpt"
    _write_coded(bad, list(entries.items()), version=2)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(bad)
    data = tmp_path / "data.jsonl"
    write_jsonl(SMALL_DATA[:4], data)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2
    assert capsys.readouterr().err == f"error: config entries describe no model: {message}\n"


def test_v2_entry_with_an_unknown_dtype_code_is_a_checkpoint_error(tmp_path):
    _small_checkpoint(tmp_path / "model.ckpt")
    bad = tmp_path / "bad.ckpt"
    _write_coded(bad, list(read_entries(tmp_path / "model.ckpt").items()), code=3)
    with pytest.raises(CheckpointError, match="unknown dtype code 3 for 'config.bones'"):
        load_checkpoint(bad)


_UNLIKE_THE_SPEC = {
    "int64": (lambda e: e.update({"classifier.fc2.bias": e["classifier.fc2.bias"].astype("<i8")}),
              r"tensor classifier.fc2.bias: stored \('int64', \(3,\)\), the model needs \('float32', \(3,\)\)"),
    "shape": (lambda e: e.update({"classifier.fc2.bias": e["classifier.fc2.bias"][:2]}),
              r"tensor classifier.fc2.bias: stored \('float32', \(2,\)\), the model needs \('float32', \(3,\)\)"),
    "missing": (lambda e: e.pop("classifier.fc2.bias"),
                r"tensor classifier.fc2.bias: stored nothing, the model needs \('float32', \(3,\)\)"),
    "unexpected": (lambda e: e.update({"config.extra": np.zeros(1, "<i8")}),
                   r"tensor config.extra: stored \('int64', \(1,\)\), the model needs nothing"),
    "v3_joints": (lambda e: e.update({"config.joints": np.array([15], "<i8")}),
                  r"tensor config.joints: stored \('int64', \(1,\)\), the model needs nothing"),
    "v3_classes": (lambda e: e.update({"config.classes": np.array([3], "<i8")}),
                   r"tensor config.classes: stored \('int64', \(1,\)\), the model needs nothing"),
}


@pytest.mark.parametrize("case", list(_UNLIKE_THE_SPEC))
def test_tensor_entry_unlike_the_spec_is_a_checkpoint_error_and_exit_2(tmp_path, capsys, case):
    mutate, message = _UNLIKE_THE_SPEC[case]
    _small_checkpoint(tmp_path / "model.ckpt")
    entries = read_entries(tmp_path / "model.ckpt")
    mutate(entries)
    bad = tmp_path / "bad.ckpt"
    _write_coded(bad, list(entries.items()))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(bad)
    data = tmp_path / "data.jsonl"
    write_jsonl(SMALL_DATA[:4], data)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith("error: tensor ")


def test_checkpoint_loads_config_entries_in_any_order(tmp_path):
    params = _small_checkpoint(tmp_path / "model.ckpt", dt=0.5)
    entries = _with_counts(tmp_path / "model.ckpt")
    order = ["frames", "joints", "classes", "fc_hidden", "scale_hidden", "root", "dt",
             "channels", "flags", "labels", "bones"]  # the order of the first v1 writer
    reordered = [(f"config.{name}", entries.pop(f"config.{name}")) for name in order]
    assert not [name for name in entries if name.startswith("config.")]
    _write_v1(tmp_path / "old.ckpt", reordered + list(entries.items()))
    loaded = load_checkpoint(tmp_path / "old.ckpt")
    assert loaded.config == params.config
    for name, tensor in params.named_tensors().items():
        assert loaded.named_tensors()[name].data.tobytes() == tensor.data.tobytes(), name


_MALFORMED_CONFIG = {
    "empty_joints": ("config.joints", lambda v: v[:0], r"config.joints has shape \(0,\)"),
    "nan_joints": ("config.joints", lambda v: v * np.nan, "config.joints value nan is not an integer"),
    "inf_joints": ("config.joints", lambda v: v * np.inf, "config.joints value inf is not an integer"),
    "rank2_labels": ("config.labels", lambda v: v[None], r"config.labels has shape \(1, 3\)"),
    "rank1_bones": ("config.bones", lambda v: v.reshape(-1), r"config.bones has shape \(28,\)"),
    "non_tree_bones": ("config.bones", lambda v: np.concatenate([v[:-1], v[:1]]), "do not connect all joints"),
    "root_99": ("config.root", lambda v: v * 0 + 99, "root 99 out of range"),
    "three_flags": ("config.flags", lambda v: v[:3], r"config.flags has shape \(3,\)"),
    "half_flag": ("config.flags", lambda v: v * [0.5, 1, 1, 1, 1], "config.flags value 0.5 is not 0 or 1"),
    "fractional_scale_hidden": ("config.scale_hidden", lambda v: v + 0.5,
                                "config.scale_hidden value 4.5 is not an integer"),
    "frames_17": ("config.frames", lambda v: v * 0 + 17, "frame count 17 does not pool evenly"),
    "two_channels": ("config.channels", lambda v: v[:2], r"config.channels has shape \(2,\)"),
    "classes_not_labels": ("config.classes", lambda v: v + 1, "4 classes but 3 labels"),
    "repeated_label": ("config.labels", lambda v: v * [1, 0, 1], "repeat a label"),
    "empty_dt": ("config.dt", lambda v: v[:0], r"config.dt has shape \(0,\)"),
    "nan_dt": ("config.dt", lambda v: v * np.nan, "dt must be finite and positive"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_CONFIG))
def test_malformed_config_entry_is_a_checkpoint_error_and_exit_2(tmp_path, capsys, case):
    name, mutate, message = _MALFORMED_CONFIG[case]
    _small_checkpoint(tmp_path / "model.ckpt")
    entries = _with_counts(tmp_path / "model.ckpt")  # a v1 file stores both counts
    entries[name] = mutate(entries[name]).astype(np.float32)
    bad = tmp_path / "bad.ckpt"
    _write_v1(bad, list(entries.items()))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(bad)
    data = tmp_path / "data.jsonl"
    write_jsonl(SMALL_DATA[:4], data)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_checkpoint_entry_name_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    _small_checkpoint(tmp_path / "model.ckpt")
    blob = (tmp_path / "model.ckpt").read_bytes()
    first_name = blob.index(b"config.")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:first_name] + b"\xff" + blob[first_name + 1:])
    with pytest.raises(CheckpointError, match="is not UTF-8"):
        load_checkpoint(bad)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_checkpoint_refuses_a_non_finite_tensor_before_writing(tmp_path, value):
    config = ModelConfig(bones=TOPO.bones, root=TOPO.root,
                         labels=(0, 1, 2), channels=(2, 2, 2), fc_hidden=8, scale_hidden=4)
    params = ModelParams.build(config, seed=4)
    params.tensors["classifier.fc2.bias"].data[1] = value
    path = tmp_path / "model.ckpt"
    with pytest.raises(UsageError, match="classifier.fc2.bias holds 1 non-finite value"):
        save_checkpoint(params, path)
    assert not path.exists()


def test_non_finite_tensor_in_a_checkpoint_is_a_checkpoint_error_and_exit_2(tmp_path, capsys):
    _small_checkpoint(tmp_path / "model.ckpt")
    entries = _with_counts(tmp_path / "model.ckpt")
    entries["stream1.conv2.kernels"][0, 0, 1] = [np.nan, np.inf, -np.inf]
    bad = tmp_path / "bad.ckpt"
    _write_v1(bad, list(entries.items()))
    with pytest.raises(CheckpointError, match="stream1.conv2.kernels holds 3 non-finite values"):
        load_checkpoint(bad)
    data = tmp_path / "data.jsonl"
    write_jsonl(SMALL_DATA[:4], data)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err and "accuracy" not in err


def test_byte_mutated_checkpoint_is_a_checkpoint_error(tmp_path, capsys):
    _small_checkpoint(tmp_path / "model.ckpt")
    blob = (tmp_path / "model.ckpt").read_bytes()
    rng = np.random.default_rng(8)
    mutant = tmp_path / "mutant.ckpt"
    loaded = []
    for pos, flip in zip(rng.integers(0, 600, 300), rng.integers(1, 256, 300)):
        mutant.write_bytes(blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:])
        try:
            load_checkpoint(mutant)
            loaded.append(int(pos))
        except CheckpointError:
            pass
    assert loaded == []
    data = tmp_path / "data.jsonl"
    write_jsonl(SMALL_DATA[:4], data)
    for pos in (len(blob) - 5, 1000, len(blob) // 2):  # one bit of a tensor value, far from the header
        mutant.write_bytes(blob[:pos] + bytes([blob[pos] ^ 1]) + blob[pos + 1:])
        assert main(["eval", "--checkpoint", str(mutant), "--data", str(data)]) == 2, pos
        assert "checksum mismatch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ablation harness


def test_variant_grid_covers_expected_flag_combinations():
    names = [name for name, _ in VARIANT_GRID]
    assert names == ["raw", "joint_scale", "bone_scale", "joint_bone",
                     "joint_bone_attention", "full", "no_velocity"]
    grid = dict(VARIANT_GRID)
    assert grid["raw"] == EnhanceFlags(False, False, False, False, True)
    assert grid["full"] == EnhanceFlags(True, True, True, True, True)
    assert grid["no_velocity"].velocity is False
    assert grid["joint_bone_attention"].attention and not grid["joint_bone_attention"].temporal


def test_ablate_runs_selected_variants_on_both_splits():
    subset = [v for v in VARIANT_GRID if v[0] in ("raw", "full")]
    view_split = split_dataset(SMALL_DATA, "cross-view")
    results = ablate(SMALL_DATA, SMALL_MODEL, SMALL_TRAIN, SMALL_SPLIT,
                     view_split=view_split, variants=subset)
    assert [r.variant for r in results] == ["raw", "full"]
    for r in results:
        assert isinstance(r, AblationResult)
        assert 0.0 <= r.subject_acc <= 1.0
        assert r.view_acc is not None and 0.0 <= r.view_acc <= 1.0


def test_ablate_defaults_to_single_split_full_grid():
    subset = [v for v in VARIANT_GRID if v[0] == "no_velocity"]
    results = ablate(SMALL_DATA, SMALL_MODEL, SMALL_TRAIN, SMALL_SPLIT, variants=subset)
    assert results[0].view_acc is None
