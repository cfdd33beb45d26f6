"""Acceptance suite: eleven end-to-end correctness and reproduction checks.

Each test computes its verdict, records it on the shared scoreboard (printed
as one line per criterion in the terminal summary), and then asserts it.
Tolerances are pinned here on purpose; loosening one is a contract change,
not a test fix.
"""

import dataclasses
import time

import numpy as np
import pytest
from conftest import attention_tensors, grad_check, incidence_matrix, model_config, record_verdict, scale_heads

from skelact.autograd import Tensor, cross_entropy, frame_velocity
from skelact.cli import main
from skelact.encoder import (
    apply_attention, attention_map, scale_bones, scale_joints, uniform_attention, velocity_image,
)
from skelact.model import ModelConfig, ModelParams
from skelact.recognizer import count_flops, forward
from skelact.skeleton import Topology, bones_from_joints, ntu_topology, split_dataset
from skelact.synth import SynthConfig, humanoid_topology, synth_generate
from skelact.training import VARIANT_GRID, TrainConfig, ablate, evaluate, train
from skelact.checkpoint import load_checkpoint, save_checkpoint


def _verdict(number, title, ok, detail):
    record_verdict(number, title, ok, detail)
    assert ok, f"criterion {number} ({title}): {detail}"


def _zero_head(in_dim, value, hidden=4):
    z = lambda *s: Tensor(np.zeros(s, dtype=np.float32))
    return scale_heads(z(hidden, in_dim), z(hidden), z(1, hidden),
                       Tensor(np.full(1, value, dtype=np.float32)))


def _random_head(rng, in_dim, hidden=5):
    return scale_heads(
        Tensor(rng.normal(size=(hidden, in_dim)).astype(np.float32) * 0.4),
        Tensor(rng.normal(size=hidden).astype(np.float32) * 0.1),
        Tensor(rng.normal(size=(1, hidden)).astype(np.float32) * 0.4),
        Tensor(rng.normal(size=1).astype(np.float32)),
    )


def _random_tree(rng, joints):
    labels = rng.permutation(joints)
    bones = []
    for j in range(1, joints):
        parent = int(labels[rng.integers(0, j)])
        bones.append((parent, int(labels[j])))
    return Topology(joint_count=joints, bones=tuple(bones), root=int(labels[0]))


# ---------------------------------------------------------------------------


def test_criterion_01_full_pipeline_gradients():
    started = time.perf_counter()
    topo = humanoid_topology()
    config = ModelConfig(
        joints=15, classes=4, bones=topo.bones, root=topo.root, labels=(0, 1, 2, 3),
        frames=64, channels=(4, 8, 16), fc_hidden=32, scale_hidden=16,
    )
    params = ModelParams.build(config, seed=0, dtype=np.float64)
    # check at a generic point: the identity-like init leaves duplicated image
    # rows, whose pooling ties are non-differentiable kinks where central
    # differences are not meaningful
    rng = np.random.default_rng(7)
    tensors = [t for t in params.tensors.values() if t.requires_grad]
    for t in tensors:
        t.data += rng.normal(0.0, 0.05, t.data.shape)

    x = Tensor(rng.normal(size=(2, 64, 15, 3)) * 0.3, dtype=np.float64)
    labels = np.array([0, 2])

    def loss_fn():
        return cross_entropy(forward(encode_x(), params), labels)

    def encode_x():
        from skelact.encoder import encode
        return encode(x, params.encoder)

    draw = np.random.default_rng(0)
    points = []
    seen = set()
    while len(points) < 220:
        pi = int(draw.integers(len(tensors)))
        fi = int(draw.integers(tensors[pi].data.size))
        if (pi, fi) not in seen:
            seen.add((pi, fi))
            points.append((pi, fi))

    err = grad_check(loss_fn, tensors, points=points)
    elapsed = time.perf_counter() - started
    ok = err < 1e-3 and elapsed < 300
    _verdict(1, "pipeline gradients", ok,
             f"max rel err {err:.2e} over {len(points)} coords in {elapsed:.1f}s")


def test_criterion_02_operation_oracles():
    from skelact.autograd import conv2d, matmul, maxpool2d, softmax_rows

    rng = np.random.default_rng(8)
    worst = {"matmul": 0.0, "conv2d": 0.0, "maxpool2d": 0.0,
             "softmax_rows": 0.0, "cross_entropy": 0.0}

    for _ in range(50):
        m, k, n = rng.integers(2, 7, size=3)
        a = rng.normal(size=(m, k)).astype(np.float32)
        b = rng.normal(size=(k, n)).astype(np.float32)
        want = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                for p in range(k):
                    want[i, j] += float(a[i, p]) * float(b[p, j])
        worst["matmul"] = max(worst["matmul"], np.abs(matmul(Tensor(a), Tensor(b)).data - want).max())

    for _ in range(50):
        batch = int(rng.integers(1, 3))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h = int(rng.integers(4, 9))
        w = int(rng.integers(4, 9))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x = rng.normal(size=(batch, c_in, h, w)).astype(np.float32)
        kern = rng.normal(size=(c_out, c_in, 3, 3)).astype(np.float32)
        bias = rng.normal(size=c_out).astype(np.float32)
        got = conv2d(Tensor(x), Tensor(kern), Tensor(bias), stride=stride, padding=pad).data
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        h_out = (h + 2 * pad - 3) // stride + 1
        w_out = (w + 2 * pad - 3) // stride + 1
        want = np.zeros((batch, c_out, h_out, w_out))
        for nn in range(batch):
            for o in range(c_out):
                for i in range(h_out):
                    for j in range(w_out):
                        acc = float(bias[o])
                        for c in range(c_in):
                            for u in range(3):
                                for v in range(3):
                                    acc += float(xp[nn, c, i * stride + u, j * stride + v]) * float(kern[o, c, u, v])
                        want[nn, o, i, j] = acc
        worst["conv2d"] = max(worst["conv2d"], np.abs(got - want).max())

    for _ in range(50):
        batch, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h, w = 2 * int(rng.integers(1, 5)), 2 * int(rng.integers(1, 5))
        x = rng.normal(size=(batch, c, h, w)).astype(np.float32)
        got = maxpool2d(Tensor(x)).data
        want = np.zeros((batch, c, h // 2, w // 2), dtype=np.float32)
        for nn in range(batch):
            for cc in range(c):
                for i in range(h // 2):
                    for j in range(w // 2):
                        want[nn, cc, i, j] = x[nn, cc, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
        worst["maxpool2d"] = max(worst["maxpool2d"], np.abs(got - want).max())

    for _ in range(50):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        x = (rng.normal(size=(rows, cols)) * 3).astype(np.float32)
        got = softmax_rows(Tensor(x)).data
        want = np.zeros((rows, cols))
        for i in range(rows):
            e = np.exp(x[i].astype(np.float64) - float(x[i].max()))
            want[i] = e / e.sum()
        worst["softmax_rows"] = max(worst["softmax_rows"], np.abs(got - want).max())

    for _ in range(50):
        batch, classes = int(rng.integers(2, 7)), int(rng.integers(2, 8))
        logits = (rng.normal(size=(batch, classes)) * 2).astype(np.float32)
        labels = rng.integers(0, classes, size=batch)
        got = cross_entropy(Tensor(logits), labels).item()
        total = 0.0
        for i in range(batch):
            e = np.exp(logits[i].astype(np.float64) - float(logits[i].max()))
            total -= np.log(e[labels[i]] / e.sum())
        worst["cross_entropy"] = max(worst["cross_entropy"], abs(got - total / batch))

    peak = max(worst.values())
    ok = peak < 1e-5
    _verdict(2, "operation oracles", ok,
             "50 instances per op, worst abs dev " +
             ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_03_bone_round_trip():
    rng = np.random.default_rng(9)
    worst_unit = 0.0
    worst_lstsq = 0.0
    for _ in range(100):
        joints = int(rng.integers(3, 11))
        frames = int(rng.integers(3, 7))
        topo = _random_tree(rng, joints)
        x = rng.normal(size=(frames, joints, 3)).astype(np.float32)
        channels = np.moveaxis(x, (-1, -2, -3), (-3, -2, -1))

        _, recovered = scale_bones(x, topo, _zero_head(frames * 3, 1.0))
        worst_unit = max(worst_unit, np.abs(recovered.data - channels).max())

        scales, recovered = scale_bones(x, topo, _random_head(rng, frames * 3))
        bones = bones_from_joints(x, topo)
        target = bones * scales.data.reshape(-1)[None, :, None]
        c = incidence_matrix(topo).astype(np.float64)
        free = [j for j in range(joints) if j != topo.root]
        for t in range(frames):
            for d in range(3):
                rhs = target[t, :, d].astype(np.float64) - x[t, topo.root, d] * c[topo.root]
                sol, _, rank, _ = np.linalg.lstsq(c[free].T, rhs, rcond=None)
                assert rank == len(free)
                got = recovered.data[d, free, t]
                worst_lstsq = max(worst_lstsq, np.abs(got - sol).max())

    ok = worst_unit < 1e-6 and worst_lstsq < 1e-5
    _verdict(3, "bone round trip", ok,
             f"100 random trees: unit-scale dev {worst_unit:.1e} (tol 1e-6), "
             f"least-squares dev {worst_lstsq:.1e} (tol 1e-5)")


def test_criterion_04_attention_contract():
    rng = np.random.default_rng(10)
    worst_row = 0.0
    for _ in range(50):
        t = int(rng.integers(3, 10))
        j = int(rng.integers(2, 6))
        x = rng.normal(size=(t, j, 3)).astype(np.float32)
        head = attention_tensors(
            Tensor(rng.normal(size=(j, j * 3)).astype(np.float32) * 0.4),
            Tensor(rng.normal(size=j).astype(np.float32) * 0.1),
            Tensor(rng.normal(size=(j, j)).astype(np.float32) * 0.4),
            Tensor(rng.normal(size=(j, j)).astype(np.float32) * 0.4),
        )
        a = attention_map(x, head).data
        worst_row = max(worst_row, np.abs(a.sum(axis=-1) - 1.0).max())

    t, j = 16, 5
    x = rng.normal(size=(t, j, 3)).astype(np.float32)
    zero_qk = attention_tensors(
        Tensor(rng.normal(size=(j, j * 3)).astype(np.float32) * 0.4),
        Tensor(rng.normal(size=j).astype(np.float32) * 0.1),
        Tensor(np.zeros((j, j), dtype=np.float32)),
        Tensor(np.zeros((j, j), dtype=np.float32)),
    )
    uniform_dev = np.abs(attention_map(x, zero_qk).data - 1.0 / t).max()

    ok = worst_row < 1e-6 and uniform_dev < 1e-7
    _verdict(4, "attention contract", ok,
             f"row-sum dev {worst_row:.1e} (tol 1e-6), "
             f"zero-projection uniform dev {uniform_dev:.1e} (tol 1e-7)")


def test_criterion_05_uniform_attention_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        t = int(rng.integers(3, 12))
        img = rng.normal(size=(3, t, t)).astype(np.float32)
        got = apply_attention(Tensor(img), uniform_attention(t)).data
        want = (1.0 + 1.0 / t) * img.astype(np.float64)
        worst = max(worst, np.abs(got - want).max())
    ok = worst < 1e-6
    _verdict(5, "uniform attention identity", ok,
             f"max dev from (1+1/T)*input {worst:.1e} (tol 1e-6)")


def test_criterion_06_velocity_contract():
    rng = np.random.default_rng(12)
    topo = humanoid_topology()
    t = 12

    # constant sequences: zero velocity after either scaling path, exactly
    pose = rng.normal(size=(1, 15, 3)).astype(np.float32)
    still = np.repeat(pose, t, axis=0)
    _, sj = scale_joints(still, _random_head(rng, t * 3))
    _, sb = scale_bones(still, topo, _random_head(rng, t * 3))
    joint_vel = frame_velocity(sj, 0.5).data
    bone_vel = frame_velocity(sb, 0.5).data
    still_ok = not np.any(joint_vel) and not np.any(bone_vel)

    # linear ramps: every column before the zero pad holds exactly 1/dt
    ramp = np.broadcast_to(np.arange(t, dtype=np.float32), (3, 15, t)).copy()
    for dt in (0.25, 1.0, 2.0):
        vel = frame_velocity(Tensor(ramp), dt).data
        if not (np.allclose(vel[..., :-1], 1.0 / dt, atol=1e-6) and not np.any(vel[..., -1])):
            still_ok = False
    emb = Tensor(np.eye(t, 15, dtype=np.float32))
    img = velocity_image(Tensor(ramp), emb, dt=0.5).data
    ramp_ok = np.allclose(img[..., :-1], 2.0, atol=1e-6) and not np.any(img[..., -1])

    ok = still_ok and ramp_ok
    _verdict(6, "velocity contract", ok,
             "constant sequences give exact zeros; ramps give 1/dt columns")


def test_criterion_07_desk_scale_learning():
    started = time.perf_counter()
    data = synth_generate(SynthConfig())  # 8 classes x 125 sequences
    split = split_dataset(data, "cross-subject")
    sizes_ok = (len(split.train), len(split.test)) == (800, 200)
    config = TrainConfig(epochs=3)  # criterion allows up to 60
    _, log = train(data, model_config(data, humanoid_topology()), split, config)
    accs = [float(line.split(",")[2]) for line in log]
    best = max(accs)
    elapsed = time.perf_counter() - started
    ok = sizes_ok and best >= 0.90 and elapsed < 1800
    _verdict(7, "desk-scale learning", ok,
             f"train/test {len(split.train)}/{len(split.test)}, best test acc "
             f"{best:.4f} by epoch {accs.index(best) + 1} (3 trained, 60 allowed), "
             f"{elapsed:.0f}s of 30min budget")


def test_criterion_08_ablation_direction():
    data = synth_generate(SynthConfig(
        sequences_per_class=30, noise_std=0.1,
        view_yaw_range=(-60.0, 60.0), body_scale_range=(0.8, 1.2), seed=11,
    ))
    split = split_dataset(data, "cross-subject")
    names = ("raw", "joint_scale", "bone_scale", "full", "no_velocity")
    variants = [v for v in VARIANT_GRID if v[0] in names]
    model = model_config(data, humanoid_topology(), frames=64, channels=(8, 16, 32), fc_hidden=64, scale_hidden=32)
    base = TrainConfig(epochs=10, batch_size=16, lr=0.001)
    accs = {name: [] for name in names}
    for seed in (0, 1, 2):
        results = ablate(data, model, dataclasses.replace(base, seed=seed), split,
                         variants=variants)
        for result in results:
            accs[result.variant].append(result.subject_acc)
    mean = {name: float(np.mean(accs[name])) for name in names}

    ok = (
        mean["full"] >= mean["joint_scale"] >= mean["raw"]
        and mean["full"] >= mean["bone_scale"] >= mean["raw"]
        and mean["full"] - mean["raw"] >= 0.03
        and mean["no_velocity"] < mean["full"]
    )
    _verdict(8, "ablation direction", ok,
             "3-seed means: " + ", ".join(f"{k}={v:.4f}" for k, v in mean.items()) +
             f"; full-raw gap {mean['full'] - mean['raw']:.4f} (need >= 0.03)")


def test_criterion_09_complexity_report(capsys):
    topo = ntu_topology()
    config = ModelConfig(joints=25, classes=60, bones=topo.bones, root=topo.root,
                         labels=tuple(range(1, 61)))
    report = count_flops(config)
    # independent hand sum, every term written out as a literal
    hand_macs = sum((
        307_200,     # joint scale head, first layer: 25 * 64 * 192
        1_600,       # joint scale head, output layer: 25 * 64
        294_912,     # bone scale head, first layer: 24 * 64 * 192
        1_536,       # bone scale head, output layer: 24 * 64
        120_000,     # attention shared projection: 64 * 25 * 75
        40_000,      # attention queries: 64 * 25 * 25
        40_000,      # attention keys: 64 * 25 * 25
        102_400,     # attention scores: 64 * 64 * 25
        1_228_800,   # four stream embeddings: 4 * 3 * 64 * 25 * 64
        9_437_184,   # four conv stacks: 4 * (884736 + 1179648 + 294912)
        131_072,     # classifier hidden: 512 * 256
        15_360,      # classifier output: 256 * 60
    ))
    totals_ok = report.total_macs == hand_macs == 11_720_064
    flops_ok = report.total_flops == 2 * hand_macs == 23_440_128

    code = main(["bench", "--iters", "5", "--warmup", "2", "--seed", "0"])
    out = capsys.readouterr().out.strip().split("\n")
    fields = dict(line.split("=", 1) for line in out[1:])
    bench_ok = (
        code == 0
        and set(fields) == {"mean_ms", "median_ms", "p95_ms", "gflops", "params"}
        and np.isfinite(float(fields["mean_ms"])) and float(fields["mean_ms"]) > 0
        and np.isfinite(float(fields["median_ms"]))
        and np.isfinite(float(fields["p95_ms"]))
        and float(fields["gflops"]) > 0
        and int(fields["params"]) > 0
    )
    ok = totals_ok and flops_ok and bench_ok
    _verdict(9, "complexity report", ok,
             f"count_flops total {report.total_flops} == hand sum {2 * hand_macs}; "
             f"bench mean {fields.get('mean_ms', '?')}ms, complete report")


def test_criterion_10_determinism(tmp_path):
    def run_all(tag):
        base = tmp_path / tag
        base.mkdir()
        data = base / "data.jsonl"
        ckpt = base / "model.ckpt"
        log = base / "train.csv"
        imgs = base / "imgs"
        assert main(["synth", "--classes", "4", "--per-class", "6", "--noise", "0.02",
                     "--seed", "5", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--epochs", "2", "--batch", "8",
                     "--channels", "2", "4", "8", "--fc-hidden", "16",
                     "--scale-hidden", "8", "--seed", "5",
                     "--out-checkpoint", str(ckpt), "--log", str(log)]) == 0
        assert main(["encode", "--checkpoint", str(ckpt), "--data", str(data),
                     "--sequence", "1", "--out-dir", str(imgs)]) == 0
        images = sorted(p.name for p in imgs.glob("*.ppm"))
        return {
            "data": data.read_bytes(),
            "ckpt": ckpt.read_bytes(),
            "log": log.read_bytes(),
            **{name: (imgs / name).read_bytes() for name in images},
        }

    first = run_all("a")
    second = run_all("b")
    mismatched = [k for k in first if first[k] != second[k]]
    ok = first.keys() == second.keys() and not mismatched
    _verdict(10, "determinism", ok,
             f"{len(first)} artifacts byte-identical across two seeded runs"
             if ok else f"artifacts differ: {mismatched}")


def test_criterion_11_checkpoint_round_trip(tmp_path):
    data = synth_generate(SynthConfig(sequences_per_class=6, noise_std=0.02, seed=3))
    split = split_dataset(data, "cross-subject")
    model = model_config(data, humanoid_topology(), channels=(4, 8, 16), fc_hidden=32, scale_hidden=16)
    params, _ = train(data, model, split, TrainConfig(epochs=2, batch_size=8))
    test_seqs = [data[i] for i in split.test]
    acc_before, matrix_before, _ = evaluate(params, test_seqs)

    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    acc_after, matrix_after, _ = evaluate(loaded, test_seqs)

    ok = acc_before == acc_after and np.array_equal(matrix_before.counts, matrix_after.counts)
    _verdict(11, "checkpoint round trip", ok,
             f"accuracy {acc_before:.4f} reproduced bit-exactly after reload")
