"""End-to-end command-line flows, exit-code mapping, and output artifacts."""

import json
import warnings

import numpy as np
import pytest

from skelact import training
from skelact.checkpoint import load_checkpoint, save_checkpoint
from skelact.cli import main
from skelact.errors import ParseError
from skelact.model import ModelConfig
from skelact.recognizer import blas_threads, count_flops, infer_workers
from skelact.skeleton import SkeletonSequence, parse_jsonl, write_jsonl
from skelact.synth import humanoid_topology


def _synth_args(out, per_class=6, classes=4, extra=()):
    return ["synth", "--classes", str(classes), "--per-class", str(per_class),
            "--noise", "0.02", "--out", str(out), *extra]


def _train_args(data, ckpt, log=None, extra=()):
    args = ["train", "--data", str(data), "--epochs", "2", "--batch", "8",
            "--channels", "2", "4", "8", "--fc-hidden", "16", "--scale-hidden", "8",
            "--out-checkpoint", str(ckpt), *extra]
    if log is not None:
        args += ["--log", str(log)]
    return args


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    assert main(_synth_args(path)) == 0
    return path


def _has_header(path, header):
    with open(path, "rb") as fh:
        return fh.read(len(header)) == header


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_dataset_and_reports(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    assert main(_synth_args(out, per_class=3)) == 0
    assert out.exists()
    assert "sequences=12 classes=4" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [["--yaw-range", "nan", "nan"], ["--yaw-range", "0", "inf"],
                                   ["--scale-range", "1", "inf"], ["--noise", "nan"], ["--noise", "inf"]],
                         ids=["yaw_nan", "yaw_inf", "scale_inf", "noise_nan", "noise_inf"])
def test_synth_with_a_non_finite_range_or_noise_is_exit_1(tmp_path, capsys, extra):
    out = tmp_path / "d.jsonl"
    assert main(_synth_args(out, extra=extra)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err and "Traceback" not in err
    assert not out.exists()


def test_synth_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(_synth_args(a))
    main(_synth_args(b))
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_override_and_flag_priority(tmp_path, monkeypatch):
    base, env, flag = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    main(_synth_args(base))
    monkeypatch.setenv("AFE_SEED", "7")
    main(_synth_args(env))
    assert base.read_bytes() != env.read_bytes()
    main(_synth_args(flag, extra=["--seed", "0"]))  # explicit flag beats env
    assert base.read_bytes() == flag.read_bytes()
    monkeypatch.setenv("AFE_SEED", "not-a-number")
    assert main(_synth_args(tmp_path / "d.jsonl")) == 1


# ---------------------------------------------------------------------------
# train / eval


def test_train_eval_round_trip(tmp_path, dataset, capsys):
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "train.csv"
    assert main(_train_args(dataset, ckpt, log)) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("2,")  # final epoch line
    lines = log.read_text().strip().split("\n")
    assert len(lines) == 2
    assert all(len(line.split(",")) == 4 for line in lines)

    out_dir = tmp_path / "report"
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                 "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "accuracy " in out
    assert out.count("class ") == 4
    csv = (out_dir / "confusion.csv").read_text().strip().split("\n")
    assert len(csv) == 4 and all(len(r.split(",")) == 4 for r in csv)
    assert _has_header(out_dir / "confusion.ppm", b"P6\n4 4\n255\n")


def test_train_is_byte_deterministic(tmp_path, dataset):
    c1, l1 = tmp_path / "a.ckpt", tmp_path / "a.csv"
    c2, l2 = tmp_path / "b.ckpt", tmp_path / "b.csv"
    assert main(_train_args(dataset, c1, l1)) == 0
    assert main(_train_args(dataset, c2, l2)) == 0
    assert c1.read_bytes() == c2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


def test_train_with_one_frame_is_exit_1(tmp_path, dataset, capsys):
    assert main(_train_args(dataset, tmp_path / "x.ckpt", extra=["--frames", "1"])) == 1
    assert "frame_count >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--fc-hidden", "0"], ["--scale-hidden", "0"], ["--channels", "0", "2", "2"]],
                         ids=["fc_hidden_0", "scale_hidden_0", "channels_0"])
def test_train_with_a_zero_width_is_exit_1(tmp_path, dataset, capsys, extra):
    ckpt = tmp_path / "x.ckpt"
    assert main(_train_args(dataset, ckpt, extra=extra)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: layer widths must be positive") and "Traceback" not in err
    assert not ckpt.exists()


def test_train_with_a_label_float32_cannot_hold_is_exit_1(tmp_path, dataset, capsys, monkeypatch):
    steps = []
    monkeypatch.setattr(training, "backward", lambda loss: steps.append(loss))
    sequences = parse_jsonl(dataset)
    for seq in sequences:
        if seq.action_label == 1:
            seq.action_label = 16777217  # float32 rounds it to 16777216
    relabelled = tmp_path / "relabelled.jsonl"
    write_jsonl(sequences, relabelled)
    ckpt = tmp_path / "x.ckpt"
    assert main(_train_args(relabelled, ckpt)) == 1
    assert "config.labels value 16777217" in capsys.readouterr().err
    assert not ckpt.exists()
    assert steps == []  # refused before the first training step


def test_diverging_train_is_exit_1_and_writes_no_checkpoint(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    assert main(_synth_args(data, per_class=10, classes=8)) == 0  # 80 sequences
    capsys.readouterr()
    ckpt = tmp_path / "x.ckpt"
    with np.errstate(all="ignore"):  # batches of 8: a later batch of epoch 1 sees the loss the first update broke
        code = main(["train", "--data", str(data), "--epochs", "2", "--lr", "1e8", "--batch", "8",
                     "--channels", "4", "4", "4", "--fc-hidden", "8", "--scale-hidden", "4",
                     "--out-checkpoint", str(ckpt)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: training diverged: epoch ") and ", batch " in captured.err
    assert "loss nan" in captured.err or "loss inf" in captured.err
    assert not ckpt.exists() and not captured.out


def test_train_whose_epoch_leaves_non_finite_logits_is_exit_1_and_writes_no_checkpoint(tmp_path, capsys):
    # one epoch of one batch: no later loss sees the weights its update
    # broke, but the epoch's test score does
    data = tmp_path / "d.jsonl"
    assert main(_synth_args(data, per_class=6, classes=8)) == 0  # 48 sequences
    capsys.readouterr()
    ckpt = tmp_path / "x.ckpt"
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(data), "--epochs", "1", "--lr", "1e8", "--out-checkpoint", str(ckpt)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: training diverged: epoch 1 left non-finite logits for ")
    assert f"the first {data}:" in captured.err
    assert not ckpt.exists() and not captured.out


@pytest.mark.parametrize("where", ["missing_dir", "dir_is_a_file", "is_a_dir"])
@pytest.mark.parametrize("flag", ["--out-checkpoint", "--log"])
def test_train_to_an_unwritable_path_is_exit_2_before_the_first_epoch(tmp_path, dataset, capsys, monkeypatch, flag, where):
    trained = []
    monkeypatch.setattr("skelact.cli.train", lambda *args: trained.append(args))
    (tmp_path / "file").write_text("", encoding="utf-8")
    bad = {"missing_dir": tmp_path / "missing" / "out", "dir_is_a_file": tmp_path / "file" / "out",
           "is_a_dir": tmp_path}[where]
    ckpt, log = (bad, tmp_path / "log.csv") if flag == "--out-checkpoint" else (tmp_path / "x.ckpt", bad)
    assert main(_train_args(dataset, ckpt, log)) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag} {bad}") and not captured.out
    assert trained == []
    assert not (tmp_path / "x.ckpt").exists() and not (tmp_path / "log.csv").exists()


def test_train_respects_stage_toggles(tmp_path, dataset):
    ckpt = tmp_path / "slim.ckpt"
    assert main(_train_args(dataset, ckpt, extra=["--no-velocity", "--no-attention"])) == 0
    params = load_checkpoint(ckpt)
    assert params.config.flags.velocity is False
    assert params.config.flags.attention is False
    assert {k.split(".")[0] for k in params.tensors if k.startswith("stream")} == {"stream0", "stream1"}


def test_eval_checkpoint_topology_mismatch_is_exit_3(tmp_path, dataset, capsys):
    ckpt = tmp_path / "model.ckpt"
    main(_train_args(dataset, ckpt))
    rng = np.random.default_rng(0)
    foreign = tmp_path / "kinect.jsonl"
    write_jsonl([
        SkeletonSequence(rng.normal(size=(4, 25, 3)).astype(np.float32),
                         action_label=i % 2, subject_id=i, camera_id=1)
        for i in range(6)
    ], foreign)
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(foreign)]) == 3
    capsys.readouterr()
    out_dir = tmp_path / "imgs"
    assert main(["encode", "--checkpoint", str(ckpt), "--data", str(foreign), "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.rglob("*.ppm"))


def test_eval_rejects_corrupt_checkpoint(tmp_path, dataset):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + b"\x00" * 64)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset)]) == 2


def test_eval_of_finite_weights_that_give_non_finite_logits_is_exit_2(tmp_path, dataset, capsys):
    ckpt, broken, out_dir = tmp_path / "model.ckpt", tmp_path / "broken.ckpt", tmp_path / "out"
    assert main(_train_args(dataset, ckpt)) == 0
    params = load_checkpoint(ckpt)
    signs = np.random.default_rng(0)
    for name, tensor in params.tensors.items():  # products overflow, and inf - inf is NaN
        if name.startswith(("stream", "classifier")):
            tensor.data[...] = signs.choice([-1e30, 1e30], size=tensor.shape)
    save_checkpoint(params, broken)
    capsys.readouterr()
    with warnings.catch_warnings():  # the error line reports the fault, with no numpy warning before it
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["eval", "--checkpoint", str(broken), "--data", str(dataset), "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the model gives non-finite logits for ")
    assert f"the first {dataset}:" in captured.err
    assert not captured.out and not out_dir.exists()


# ---------------------------------------------------------------------------
# encode


def test_encode_writes_five_images(tmp_path, dataset, capsys):
    out_dir = tmp_path / "imgs"
    assert main(["encode", "--init", "--data", str(dataset), "--seed", "0",
                 "--out-dir", str(out_dir)]) == 0
    assert "wrote 5 images" in capsys.readouterr().out
    for name in ("enhanced_joints.ppm", "enhanced_bones.ppm", "joint_velocity.ppm",
                 "bone_velocity.ppm", "attention.ppm"):
        assert _has_header(out_dir / name, b"P6\n64 64\n255\n"), name


def test_encode_is_byte_deterministic(tmp_path, dataset):
    d1, d2 = tmp_path / "x", tmp_path / "y"
    for d in (d1, d2):
        assert main(["encode", "--init", "--data", str(dataset), "--seed", "3",
                     "--out-dir", str(d)]) == 0
    for name in ("enhanced_joints.ppm", "attention.ppm", "bone_velocity.ppm"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_encode_from_checkpoint_respects_flags(tmp_path, dataset, capsys):
    ckpt = tmp_path / "slim.ckpt"
    main(_train_args(dataset, ckpt, extra=["--no-velocity"]))
    out_dir = tmp_path / "imgs"
    assert main(["encode", "--checkpoint", str(ckpt), "--data", str(dataset),
                 "--out-dir", str(out_dir)]) == 0
    assert "wrote 3 images" in capsys.readouterr().out
    assert not (out_dir / "joint_velocity.ppm").exists()


def test_encode_usage_errors(tmp_path, dataset):
    assert main(["encode", "--data", str(dataset), "--out-dir", str(tmp_path)]) == 1
    assert main(["encode", "--init", "--data", str(dataset), "--sequence", "999",
                 "--out-dir", str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# ingest


def _skeleton_file(dir_path, name, offsets):
    lines = [str(len(offsets))]
    for off in offsets:
        lines.append("1")
        lines.append("8 0 1 1 1 1 0 0.1 -0.2 2 0")
        lines.append("25")
        for j in range(25):
            lines.append(f"{off + j * 0.01:.4f} 0.5 1.0 0 0 0 0 0 0 0 0 2")
    path = dir_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_ingest_skips_bad_files_but_continues(tmp_path, capsys):
    src = tmp_path / "raw"
    src.mkdir()
    _skeleton_file(src, "S001C001P001R001A001.skeleton", [0.0, 0.1])
    _skeleton_file(src, "S001C002P002R001A002.skeleton", [0.0, 0.2, 0.4])
    (src / "S001C003P003R001A003.skeleton").write_text("not a number\n")
    out = tmp_path / "data.jsonl"
    assert main(["ingest", "--ntu-dir", str(src), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "skipping S001C003P003R001A003.skeleton" in captured.err
    assert "sequences=2 classes=2 subjects=2 cameras=2" in captured.out


def test_ingest_with_nothing_usable_is_exit_2(tmp_path, capsys):
    src = tmp_path / "raw"
    src.mkdir()
    (src / "S001C001P001R001A001.skeleton").write_text("garbage\n")
    assert main(["ingest", "--ntu-dir", str(src), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert "no sequences ingested" in capsys.readouterr().err
    assert main(["ingest", "--out", str(tmp_path / "o.jsonl")]) == 1


def test_ingest_merges_existing_jsonl(tmp_path, dataset, capsys):
    src = tmp_path / "raw"
    src.mkdir()
    _skeleton_file(src, "S001C001P001R001A001.skeleton", [0.0, 0.1])
    out = tmp_path / "merged.jsonl"
    assert main(["ingest", "--ntu-dir", str(src), "--jsonl", str(dataset),
                 "--out", str(out)]) == 0
    assert "sequences=25" in capsys.readouterr().out  # 1 parsed + 24 merged


@pytest.mark.parametrize("command", ["train", "ingest"])
def test_jsonl_that_is_not_utf8_is_exit_2(tmp_path, capsys, command):
    data = tmp_path / "bad.jsonl"
    data.write_bytes(b"\xff\xfe" + GOOD_LINE.encode() + b"\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_jsonl(data)
    args = {"train": _train_args(data, tmp_path / "x.ckpt"),
            "ingest": ["ingest", "--jsonl", str(data), "--out", str(tmp_path / "o.jsonl")]}[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err


def test_ingest_skips_a_skeleton_file_that_is_not_utf8(tmp_path, capsys):
    src = tmp_path / "raw"
    src.mkdir()
    _skeleton_file(src, "S001C001P001R001A001.skeleton", [0.0, 0.1])
    (src / "S001C002P002R001A002.skeleton").write_bytes(b"\xff\xfe2\n")
    assert main(["ingest", "--ntu-dir", str(src), "--out", str(tmp_path / "o.jsonl")]) == 0
    captured = capsys.readouterr()
    assert "skipping S001C002P002R001A002.skeleton" in captured.err
    assert "not UTF-8" in captured.err
    assert "sequences=1" in captured.out


# ---------------------------------------------------------------------------
# bench and exit codes


def test_bench_reports_latency_and_cost(capsys):
    assert main(["bench", "--iters", "3", "--warmup", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith("# ")
    assert out[0].endswith(f" / blas_threads {blas_threads()} / infer_workers {infer_workers()}")
    assert infer_workers() in (1, 2)
    fields = dict(line.split("=", 1) for line in out[1:])
    assert set(fields) == {"mean_ms", "median_ms", "p95_ms", "gflops", "params"}
    assert float(fields["mean_ms"]) > 0
    assert float(fields["p95_ms"]) >= float(fields["median_ms"]) * 0.5
    topo = humanoid_topology()
    config = ModelConfig(joints=15, classes=8, bones=topo.bones, root=topo.root,
                         labels=tuple(range(8)))
    report = count_flops(config)
    assert fields["gflops"] == repr(report.total_flops / 1e9)
    assert int(fields["params"]) == report.param_count


GOOD_LINE = '{"label":0,"subject":1,"camera":1,"frames":[[[0,0,0],[1,1,1]],[[0,0,0],[1,1,1]]]}'


@pytest.mark.parametrize("bad_line", [
    '{"label":0,"subject":1,"camera":1,"frames":[[[0,0,"a"],[1,1,1]],[[0,0,0],[1,1,1]]]}',
    '{"label":0,"subject":1,"camera":1,"frames":[[[0,0,[0]],[1,1,1]],[[0,0,0],[1,1,1]]]}',
    '{"label":1e400,"subject":1,"camera":1,"frames":[[[0,0,0],[1,1,1]],[[0,0,0],[1,1,1]]]}',
    '{"label":true,"subject":1,"camera":1,"frames":[[[0,0,0],[1,1,1]],[[0,0,0],[1,1,1]]]}',
    '{"label":0,"subject":1,"camera":1,"frames":[[[true,0.5,1],[1,1,1]],[[0,0,0],[1,1,1]]]}',
    '{"label":0,"subject":1,"camera":1,"frames":[[[false,0,1],[1,1,1]],[[0,0,0],[1,1,1]]]}',
    # finite in float32, but centring on the first frame's root overflows
    '{"label":0,"subject":1,"camera":1,"frames":[[[-3e38,0,0],[1,1,1]],[[3e38,0,0],[1,1,1]]]}',
    # beyond float32: the cast gives inf, with no numpy overflow warning
    '{"label":0,"subject":1,"camera":1,"frames":[[[1e39,0,0],[1,1,1]],[[0,0,0],[1,1,1]]]}',
], ids=["string_coordinate", "nested_coordinate", "overflowing_label", "boolean_label",
        "true_coordinate", "false_coordinate", "huge_coordinate", "beyond_float32_coordinate"])
def test_malformed_jsonl_is_exit_2(tmp_path, capsys, bad_line):
    data = tmp_path / "bad.jsonl"
    data.write_text(GOOD_LINE + "\n" + bad_line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="line 2: "):
            parse_jsonl(data)
        assert main(_train_args(data, tmp_path / "x.ckpt")) == 2
        assert main(["ingest", "--jsonl", str(data), "--out", str(tmp_path / "o.jsonl")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1] and err[0].startswith("error: line 2: ")


def _mutants(text: str, count: int, seed: int):
    """``count`` copies of ``text``, each with 1-3 random byte flips,
    deletions or inserted number/JSON characters."""
    rng = np.random.default_rng(seed)
    inserts = b"0123456789-+.eE[]{},:\" "
    for _ in range(count):
        data = bytearray(text.encode())
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(data)))
            kind = rng.integers(3)
            if kind == 0:
                data[at] = int(rng.integers(256))
            elif kind == 1:
                del data[at]
            else:
                data.insert(at, inserts[int(rng.integers(len(inserts)))])
        yield bytes(data)


@pytest.mark.parametrize("source", ["jsonl", "ntu"])
def test_ingest_of_mutated_input_is_exit_0_or_2_without_a_traceback_or_warning(tmp_path, capsys, source):
    inputs = tmp_path / "in"
    inputs.mkdir()
    if source == "jsonl":
        path = inputs / "data.jsonl"
        path.write_text(json.dumps({"label": 3, "subject": 2, "camera": 1, "setup": 4,
                                    "frames": [[[0.5, -1.25, 2e3], [1, 1, 1], [0, 3.5e-2, -7]]] * 3}) + "\n")
        argv = ["ingest", "--jsonl", str(path)]
    else:
        path = _skeleton_file(inputs, "S001C001P001R001A001.skeleton", [0.0, 0.1, -0.2])
        argv = ["ingest", "--ntu-dir", str(inputs)]
    argv += ["--out", str(tmp_path / "o.jsonl")]
    good = path.read_text()
    codes = set()
    for n, mutant in enumerate(_mutants(good, 300, seed=140 if source == "jsonl" else 141)):
        path.write_bytes(mutant)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)  # an exception here is the traceback the CLI would print
        err = capsys.readouterr().err
        assert code in (0, 2), (n, mutant)
        assert not caught and "Traceback" not in err and "Warning" not in err, (n, mutant, caught, err)
        codes.add(code)
    assert codes == {0, 2}  # the mutants reach both outcomes


def test_exit_codes(tmp_path, dataset, capsys, monkeypatch):
    assert main(["train", "--data", str(dataset), "--bogus-flag"]) == 1
    assert main(["no-such-command"]) == 1
    corrupt = tmp_path / "broken.jsonl"
    corrupt.write_text("{oops\n")
    assert main(_train_args(corrupt, tmp_path / "x.ckpt")) == 2
    missing = tmp_path / "missing.jsonl"
    assert main(_train_args(missing, tmp_path / "x.ckpt")) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(_train_args(empty, tmp_path / "x.ckpt")) == 2
    capsys.readouterr()
    for lr in ("nan", "inf", "0"):  # refused before the first step, not at save
        assert main(_train_args(dataset, tmp_path / "x.ckpt", extra=["--lr", lr])) == 1
        assert "learning rates must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()
    assert main(["bench", "--iters", "0"]) == 1
    assert main(["bench", "--warmup", "-1"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --iters must be >= 1", "error: --warmup must be >= 0"]
    negative_seeds = [  # (argv, AFE_SEED, the error line)
        (_synth_args(tmp_path / "s.jsonl", extra=["--seed", "-1"]), None, "--seed must be a non-negative integer, got -1"),
        (_train_args(dataset, tmp_path / "x.ckpt", extra=["--seed", "-2"]), None,
         "--seed must be a non-negative integer, got -2"),
        (["bench", "--seed", "-1"], None, "--seed must be a non-negative integer, got -1"),
        (["bench"], "-3", "AFE_SEED must be a non-negative integer, got -3"),
    ]
    for argv, env, message in negative_seeds:
        with monkeypatch.context() as m:
            if env is not None:
                m.setenv("AFE_SEED", env)
            assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {message}"] and "Traceback" not in err
    assert not (tmp_path / "s.jsonl").exists() and not (tmp_path / "x.ckpt").exists()
