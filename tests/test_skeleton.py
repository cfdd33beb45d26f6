"""Skeleton data layer: file parsing, the JSONL archive, preprocessing,
kinematic-tree algebra, split protocols, and the synthetic generator."""

import warnings

import numpy as np
import pytest
from conftest import incidence_matrix

from skelact.errors import EmptyBodyError, ParseError, TopologyError, UsageError
from skelact.skeleton import (
    NTU_TRAIN_SUBJECTS, DatasetSplit, SkeletonSequence, Topology,
    bones_from_joints, ntu_topology, parse_jsonl, parse_ntu, preprocess,
    resample_frames, split_dataset, write_jsonl,
)
from skelact.synth import (
    BASE_POSE, CLASS_NAMES, SynthConfig, class_trajectory, humanoid_topology,
    synth_generate,
)


# ---------------------------------------------------------------------------
# fixtures for the .skeleton text format


def _joint_lines(coords):
    # real files carry 12 fields per joint; only x y z matter here
    return [f"{x:.4f} {y:.4f} {z:.4f} 0 0 0 0 0 0 0 0 2" for x, y, z in coords]


def _body_block(body_id, coords):
    return [f"{body_id} 0 1 1 1 1 0 0.1 -0.2 2 0", "25"] + _joint_lines(coords)


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _pose(offset):
    rows = np.tile(np.arange(25, dtype=np.float64)[:, None], (1, 3)) * 0.01
    return rows + offset


def test_parse_ntu_single_body_and_filename_metadata(tmp_path):
    lines = ["2"]
    for t in range(2):
        lines.append("1")
        lines.extend(_body_block("7205", _pose(0.1 * t)))
    path = _write(tmp_path, "S001C002P003R004A005.skeleton", lines)
    seq = parse_ntu(path)
    assert seq.frames.shape == (2, 25, 3)
    assert (seq.setup_id, seq.camera_id, seq.subject_id, seq.action_label) == (1, 2, 3, 5)
    assert seq.frames[1, 0, 0] == pytest.approx(0.1, abs=1e-4)


def test_parse_ntu_picks_highest_motion_body(tmp_path):
    lines = ["3"]
    for t in range(3):
        lines.append("2")
        lines.extend(_body_block("still", _pose(0.0)))
        lines.extend(_body_block("mover", _pose(0.5 * t)))
    path = _write(tmp_path, "S002C001P008R002A010.skeleton", lines)
    seq = parse_ntu(path)
    assert seq.frames.shape == (3, 25, 3)
    assert seq.frames[2, 0, 0] == pytest.approx(1.0, abs=1e-4)  # mover won


def test_parse_ntu_drops_untracked_frames(tmp_path):
    lines = ["4"]
    for t in range(4):
        if t == 1:
            lines.append("0")  # sensor lost the body this frame
        else:
            lines.append("1")
            lines.extend(_body_block("b", _pose(0.1 * t)))
    path = _write(tmp_path, "S001C001P001R001A001.skeleton", lines)
    assert parse_ntu(path).frames.shape == (3, 25, 3)


def test_parse_ntu_error_cases(tmp_path):
    base = ["1", "1"] + _body_block("b", _pose(0.0))
    bad_count = list(base)
    bad_count[3] = "20"
    path = _write(tmp_path, "S001C001P001R001A001.skeleton", bad_count)
    with pytest.raises(ParseError, match="line 4: expected 25 joints, got 20"):
        parse_ntu(path)

    path = _write(tmp_path, "S001C001P001R001A002.skeleton", base[:10])
    with pytest.raises(ParseError, match="unexpected end of file"):
        parse_ntu(path)

    garbled = list(base)
    garbled[4] = "what 0.0 0.0"
    path = _write(tmp_path, "S001C001P001R001A003.skeleton", garbled)
    with pytest.raises(ParseError, match="line 5"):
        parse_ntu(path)

    path = _write(tmp_path, "untitled.skeleton", base)
    with pytest.raises(ParseError, match="pattern"):
        parse_ntu(path)

    empty = ["2", "0", "0"]
    path = _write(tmp_path, "S001C001P001R001A004.skeleton", empty)
    with pytest.raises(EmptyBodyError):
        parse_ntu(path)

    single = ["1", "1"] + _body_block("b", _pose(0.0))
    path = _write(tmp_path, "S001C001P001R001A005.skeleton", single)
    with pytest.raises(ParseError, match="fewer than 2"):
        parse_ntu(path)

    far = _pose(0.0)
    far[3, 1] = 2e6  # beyond MAX_COORD, though finite in float32
    path = _write(tmp_path, "S001C001P001R001A006.skeleton",
                  ["2"] + (["1"] + _body_block("b", far)) * 2)
    with pytest.raises(ParseError, match="non-finite joint coordinate or one beyond 1e\\+06"):
        parse_ntu(path)

    # refused on its own line, before a float32 cast (1e39) or the motion
    # energy's squares (1e20) overflow with a numpy warning
    for n, value in enumerate((1e39, 1e20)):
        huge = _pose(0.0)
        huge[3, 1] = value
        path = _write(tmp_path, f"S001C001P001R001A00{7 + n}.skeleton",
                      ["2", "1"] + _body_block("b", _pose(0.0)) + ["1"] + _body_block("b", huge))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="line 36: non-finite joint coordinate or one beyond 1e\\+06"):
                parse_ntu(path)


# ---------------------------------------------------------------------------
# JSONL archive


def _random_sequences(rng, count=5, joints=25):
    out = []
    for i in range(count):
        frames = rng.normal(size=(rng.integers(2, 9), joints, 3)).astype(np.float32)
        out.append(SkeletonSequence(frames, action_label=int(rng.integers(0, 60)),
                                    subject_id=i + 1, camera_id=(i % 3) + 1,
                                    setup_id=(i % 4) + 1))
    return out


def test_jsonl_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    seqs = _random_sequences(rng)
    for seq in seqs:  # signed zeros at the start, middle and end of a frame
        seq.frames[0, 0, 0] = seq.frames[-1, -1, -1] = -0.0
        seq.frames[0, -1, 1] = 0.0
    path = tmp_path / "data.jsonl"
    write_jsonl(seqs, path)
    back = parse_jsonl(path)
    assert len(back) == len(seqs)
    for a, b in zip(seqs, back):
        assert a == b
        assert b.frames.dtype == np.float32
        assert np.array_equal(a.frames.view(np.uint32), b.frames.view(np.uint32))


def test_jsonl_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    seqs = _random_sequences(rng, count=3)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(seqs, p1)
    write_jsonl(seqs, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_jsonl_write_pins_the_coordinate_format(tmp_path):
    # nine significant digits, %g exponents, "-0.0" for negative zero
    frames = np.array([[[0.1, -0.0, 1e-45], [3.4028235e38, 1.23456789, -2.5]],
                       [[0.0, 1.0, -1e-45], [123456.789, -0.1, 7.0]]], dtype=np.float32)
    path = tmp_path / "golden.jsonl"
    write_jsonl([SkeletonSequence(frames, action_label=3, subject_id=12, camera_id=2,
                                  setup_id=5)], path)
    assert path.read_bytes() == (
        b'{"label":3,"subject":12,"camera":2,"setup":5,"frames":'
        b'[[[0.100000001,-0.0,1.40129846e-45],[3.40282347e+38,1.23456788,-2.5]],'
        b'[[0,1,-1.40129846e-45],[123456.789,-0.100000001,7]]]}\n'
    )


def test_jsonl_parse_errors(tmp_path):
    path = tmp_path / "bad.jsonl"

    path.write_text("")
    assert parse_jsonl(path) == []

    path.write_text("[1, 2]\n")
    with pytest.raises(ParseError, match="line 1: expected a JSON object"):
        parse_jsonl(path)

    path.write_text('{"label":0,"subject":1,"camera":1}\n')
    with pytest.raises(ParseError, match="missing field 'frames'"):
        parse_jsonl(path)

    good = '{"label":0,"subject":1,"camera":1,"frames":[[[0,0,0],[1,1,1]],[[0,0,0],[1,1,1]]]}'
    ragged = '{"label":0,"subject":1,"camera":1,"frames":[[[0,0,0]],[[0,0,0]]]}'
    path.write_text(good + "\n" + good + "\n" + ragged + "\n")
    with pytest.raises(ParseError, match="line 3: expected 2 joints, got 1"):
        parse_jsonl(path)

    path.write_text('{"label":0,"subject":1,"camera":1,"frames":[[[0,0,0],[1,1,1]]]}\n')
    with pytest.raises(ParseError, match="at least 2 frames"):
        parse_jsonl(path)

    path.write_text("{not json}\n")
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_jsonl(path)

    path.write_text('{"label":0,"subject":1,"camera":1,"frames":[[[0,0,NaN],[1,1,1]],[[0,0,0],[1,1,1]]]}\n')
    with pytest.raises(ParseError, match="non-finite"):
        parse_jsonl(path)


def test_sequence_validation():
    with pytest.raises(UsageError):
        SkeletonSequence(np.zeros((1, 25, 3), dtype=np.float32), action_label=0,
                         subject_id=1, camera_id=1)
    with pytest.raises(UsageError):
        SkeletonSequence(np.zeros((4, 25), dtype=np.float32), action_label=0,
                         subject_id=1, camera_id=1)
    with pytest.raises(UsageError):
        SkeletonSequence(np.full((4, 25, 3), np.inf, dtype=np.float32),
                         action_label=0, subject_id=1, camera_id=1)


# ---------------------------------------------------------------------------
# resample / center


def _seq(frames):
    return SkeletonSequence(np.asarray(frames, dtype=np.float32), action_label=0,
                            subject_id=1, camera_id=1)


def test_resample_preserves_endpoints_bit_exactly():
    rng = np.random.default_rng(2)
    frames = rng.normal(size=(7, 4, 3)).astype(np.float32)
    out = resample_frames(frames, 64)
    assert out.shape == (64, 4, 3)
    assert np.array_equal(out[0], frames[0])
    assert np.array_equal(out[-1], frames[-1])


def test_resample_identity_when_lengths_match():
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(16, 3, 3)).astype(np.float32)
    assert np.array_equal(resample_frames(frames, 16), frames)


def test_resample_interpolates_linearly():
    frames = np.zeros((2, 1, 3), dtype=np.float32)
    frames[1] = 4.0
    out = resample_frames(frames, 5)
    assert np.allclose(out[:, 0, 0], [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-6)


def test_resample_downsamples_monotone_ramp():
    ramp = np.arange(33, dtype=np.float32)[:, None, None] * np.ones((33, 2, 3), dtype=np.float32)
    out = resample_frames(ramp, 9)[:, 0, 0]
    assert np.all(np.diff(out) > 0)
    assert out[0] == 0.0 and out[-1] == 32.0
    with pytest.raises(UsageError):
        resample_frames(ramp, 1)


def test_center_root_and_preprocess():
    frames = np.ones((3, 4, 3), dtype=np.float32)
    frames[0, 2] = [5.0, -1.0, 2.0]
    out = preprocess(_seq(frames), root=2, frame_count=3)  # T frames: centring alone
    assert np.array_equal(out[0, 2], [0.0, 0.0, 0.0])
    assert np.array_equal(out[1, 0], np.array([1.0, 1.0, 1.0]) - [5.0, -1.0, 2.0])
    pre = preprocess(_seq(frames), root=2, frame_count=8)
    assert pre.shape == (8, 4, 3)
    assert np.array_equal(pre[0, 2], [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# kinematic tree


def test_incidence_three_joint_chain():
    c = incidence_matrix(Topology(joint_count=3, bones=((0, 1), (1, 2)), root=0))
    assert np.array_equal(c, [[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])


def test_incidence_validation():
    with pytest.raises(TopologyError, match="cannot span"):
        Topology(joint_count=3, bones=((0, 1),), root=0)
    with pytest.raises(TopologyError, match="self-loop"):
        Topology(joint_count=3, bones=((0, 0), (1, 2)), root=0)
    with pytest.raises(TopologyError, match="missing joint"):
        Topology(joint_count=3, bones=((0, 5), (1, 2)), root=0)
    with pytest.raises(TopologyError, match="connect"):
        Topology(joint_count=5, bones=((0, 1), (1, 0), (2, 3), (3, 4)), root=0)
    with pytest.raises(TopologyError, match="root"):
        Topology(joint_count=3, bones=((0, 1), (1, 2)), root=7)


def test_bones_match_incidence_product():
    topo = ntu_topology()
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(6, 25, 3)).astype(np.float32)
    bones = bones_from_joints(frames, topo)
    assert bones.shape == (6, 24, 3)
    # B = X . C with X laid out (3, J)
    x = np.swapaxes(frames, -1, -2)
    want = np.swapaxes(x @ incidence_matrix(topo), -1, -2)
    assert np.allclose(bones, want, atol=1e-6)


def _random_tree(rng, joints):
    labels = rng.permutation(joints)
    bones = []
    for j in range(1, joints):
        parent = int(labels[rng.integers(0, j)])
        bones.append((parent, int(labels[j])))
    return Topology(joint_count=joints, bones=tuple(bones), root=int(labels[0]))


def reconstruct_joints(bones, topology, root_pos):
    """Tree-walk oracle: recover a (3, J) joint matrix from (3, b) bone
    vectors breadth-first from the root, which carries ``root_pos``; each
    joint is its tree neighbour plus the bone (parent to child) or minus it."""
    adjacency = [[] for _ in range(topology.joint_count)]
    for k, (p, q) in enumerate(topology.bones):
        adjacency[p].append((q, k, 1.0))
        adjacency[q].append((p, k, -1.0))
    joints = np.zeros((3, topology.joint_count), dtype=bones.dtype)
    joints[:, topology.root] = root_pos
    seen = {topology.root}
    queue = [topology.root]
    while queue:
        u = queue.pop(0)
        for v, k, sign in adjacency[u]:
            if v not in seen:
                seen.add(v)
                joints[:, v] = joints[:, u] + sign * bones[:, k]
                queue.append(v)
    return joints


def test_reconstruction_round_trips_random_trees():
    rng = np.random.default_rng(5)
    for _ in range(20):
        joints = int(rng.integers(3, 12))
        topo = _random_tree(rng, joints)
        x = rng.normal(size=(joints, 3)).astype(np.float32)
        bones = bones_from_joints(x, topo)
        back = reconstruct_joints(bones.T, topo, x[topo.root])
        assert np.allclose(back, x.T, atol=1e-6)
        # the reconstruction scale_bones runs: root + paths . bones
        product = x[topo.root] + topo.paths @ bones
        assert np.allclose(product, back.T, atol=1e-6)


def test_paths_matrix_is_left_inverse_of_incidence():
    topo = ntu_topology()
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 25)).astype(np.float32)
    x -= x[:, topo.root : topo.root + 1]  # pin the root at the origin
    bones = x @ incidence_matrix(topo)
    assert np.allclose(bones @ topo.paths.T, x, atol=1e-5)


# ---------------------------------------------------------------------------
# split protocols


def _meta_sequences():
    out = []
    rng = np.random.default_rng(7)
    sid = [1, 2, 4, 9, 15, 31, 40, 41]
    for i in range(16):
        frames = rng.normal(size=(3, 25, 3)).astype(np.float32)
        out.append(SkeletonSequence(frames, action_label=i % 4,
                                    subject_id=sid[i % 8], camera_id=(i % 3) + 1,
                                    setup_id=(i % 4) + 1))
    return out


def test_cross_subject_split_uses_roster():
    seqs = _meta_sequences()
    split = split_dataset(seqs, "cross-subject", train_subjects=NTU_TRAIN_SUBJECTS)
    assert sorted(split.train + split.test) == list(range(16))
    for i in split.train:
        assert seqs[i].subject_id in NTU_TRAIN_SUBJECTS
    for i in split.test:
        assert seqs[i].subject_id not in NTU_TRAIN_SUBJECTS


def test_cross_subject_default_takes_leading_eighty_percent():
    seqs = _meta_sequences()
    split = split_dataset(seqs, "cross-subject")
    # 8 distinct subjects -> ceil(0.8 * 8) = 7 train subjects, 41 held out
    train_subjects = {seqs[i].subject_id for i in split.train}
    test_subjects = {seqs[i].subject_id for i in split.test}
    assert train_subjects == {1, 2, 4, 9, 15, 31, 40}
    assert test_subjects == {41}


def test_cross_view_and_cross_setup():
    seqs = _meta_sequences()
    view = split_dataset(seqs, "cross-view")
    assert all(seqs[i].camera_id == 1 for i in view.test)
    assert all(seqs[i].camera_id != 1 for i in view.train)
    setup = split_dataset(seqs, "cross-setup")
    assert all(seqs[i].setup_id % 2 == 0 for i in setup.train)
    assert all(seqs[i].setup_id % 2 == 1 for i in setup.test)
    with pytest.raises(UsageError):
        split_dataset(seqs, "leave_one_out")
    with pytest.raises(UsageError):
        DatasetSplit(train=(0, 1), test=(1, 2), protocol="x")


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_shapes_and_determinism():
    cfg = SynthConfig(sequences_per_class=3, seed=9)
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    assert len(a) == 8 * 3
    for s, t in zip(a, b):
        assert s.frames.shape == (48, 15, 3)
        assert np.array_equal(s.frames, t.frames)
    assert synth_generate(SynthConfig(sequences_per_class=3, seed=10))[0] != a[0]


def test_synth_class_means_are_separated():
    cfg = SynthConfig(sequences_per_class=6, noise_std=0.0, view_yaw_range=(0.0, 0.0),
                      body_scale_range=(1.0, 1.0), seed=0)
    data = synth_generate(cfg)
    means = []
    for c in range(8):
        frames = np.stack([s.frames for s in data if s.action_label == c])
        means.append(frames.mean(axis=0))
    worst = np.inf
    for i in range(8):
        for j in range(i + 1, 8):
            worst = min(worst, float(np.abs(means[i] - means[j]).max()))
    assert worst > 0.1  # every class pair differs somewhere by >10cm


def test_synth_degenerate_config_renders_base_pose_still():
    cfg = SynthConfig(sequences_per_class=1, noise_std=0.0, view_yaw_range=(0.0, 0.0),
                      body_scale_range=(1.0, 1.0), seed=0)
    still = synth_generate(cfg)[0]  # class 0 keeps the idle stance
    assert np.allclose(still.frames[0], BASE_POSE, atol=1e-5)
    assert len(CLASS_NAMES) == 8
    with pytest.raises(UsageError):
        SynthConfig(class_count=9)
    with pytest.raises(UsageError):
        SynthConfig(noise_std=-0.1)
    nan, inf = float("nan"), float("inf")
    for bad in (dict(noise_std=nan), dict(noise_std=inf), dict(view_yaw_range=(nan, nan)),
                dict(view_yaw_range=(0.0, inf)), dict(view_yaw_range=(-inf, 0.0)), dict(body_scale_range=(1.0, inf))):
        with pytest.raises(UsageError, match="must be finite"):
            SynthConfig(**bad)


def test_humanoid_topology_is_consistent():
    topo = humanoid_topology()
    assert topo.joint_count == 15
    assert len(topo.bones) == 14
    assert topo.paths.shape == (15, 14)
    traj = class_trajectory(3, frame_count=32)
    assert traj.shape == (32, 15, 3)
