"""Feature-enhancement encoder: per-joint/per-bone scaling, image embedding,
frame attention, velocity images, temporal offsets, and the composed encode."""

import itertools

import numpy as np
import pytest
from conftest import (
    attention_tensors, composed_embed_image, composed_images, embed_image, filled, grad_check, incidence_matrix,
    scale_heads,
)

from skelact import autograd
from skelact.autograd import (
    Tape, Tensor, add, backward, embed_image_arrays, frame_velocity, mul, scale, softmax_rows, sum_all,
)
from skelact.encoder import (
    ATTENDED, STREAMS, EncoderParams, EnhanceFlags, apply_attention, attention_map, embed_to_image, encode,
    scale_bones, scale_joints, stream_image, temporal_embed, uniform_attention, velocity_image,
)
from skelact.errors import DimensionError
from skelact.skeleton import Topology, bones_from_joints

CHAIN = Topology(joint_count=4, bones=((0, 1), (1, 2), (2, 3)), root=0)


def _const_head(in_dim, value, hidden=5):
    """Head whose output is exactly ``value`` regardless of the input."""
    z = lambda *s: Tensor(np.zeros(s, dtype=np.float32))
    return scale_heads(z(hidden, in_dim), z(hidden),
                       z(1, hidden), Tensor(np.full(1, value, dtype=np.float32)))


def _rand_head(rng, in_dim, hidden=6):
    return scale_heads(
        Tensor(rng.normal(size=(hidden, in_dim)).astype(np.float32) * 0.4),
        Tensor(rng.normal(size=hidden).astype(np.float32) * 0.1),
        Tensor(rng.normal(size=(1, hidden)).astype(np.float32) * 0.4),
        Tensor(rng.normal(size=1).astype(np.float32)),
    )


def _identity_embedding(t):
    return Tensor(np.eye(t, dtype=np.float32))


def _channels(x):
    # (.., T, J, 3) -> (.., 3, J, T) reference layout
    return np.moveaxis(np.asarray(x), (-1, -2, -3), (-3, -2, -1))


# ---------------------------------------------------------------------------
# joint scaling


def test_unit_scales_leave_channels_unchanged():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4, 3)).astype(np.float32)
    scales, scaled = scale_joints(x, _const_head(18, 1.0))
    assert scales.shape == (1, 4, 1)
    assert np.allclose(scales.data, 1.0)
    assert np.allclose(scaled.data, _channels(x), atol=1e-6)


def test_constant_scale_multiplies_everything():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 4, 3)).astype(np.float32)
    _, scaled = scale_joints(x, _const_head(18, -2.5))
    assert np.allclose(scaled.data, -2.5 * _channels(x), atol=1e-6)


def test_scale_joints_matches_loop_oracle():
    rng = np.random.default_rng(2)
    t, j, hidden = 5, 3, 6
    x = rng.normal(size=(t, j, 3)).astype(np.float32)
    head = _rand_head(rng, t * 3, hidden)
    scales, scaled = scale_joints(x, head)
    for jj in range(j):
        v = x[:, jj, :].reshape(-1)  # frame-major trajectory
        z = head["joint_scale.fc1.weight"].data @ v + head["joint_scale.fc1.bias"].data
        h = np.where(z > 0, z, 0.01 * z)
        s = (head["joint_scale.fc2.weight"].data @ h + head["joint_scale.fc2.bias"].data).item()
        assert scales.data[0, jj, 0] == pytest.approx(s, abs=1e-5)
        for c in range(3):
            for tt in range(t):
                assert scaled.data[c, jj, tt] == pytest.approx(s * x[tt, jj, c], abs=1e-5)


def test_scale_joints_handles_batches():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5, 3, 3)).astype(np.float32)
    head = _rand_head(rng, 15)
    scales, scaled = scale_joints(x, head)
    assert scales.shape == (2, 1, 3, 1)
    assert scaled.shape == (2, 3, 3, 5)
    for b in range(2):
        s_single, out_single = scale_joints(x[b], head)
        assert np.array_equal(scales.data[b], s_single.data)
        assert np.array_equal(scaled.data[b], out_single.data)


# ---------------------------------------------------------------------------
# bone scaling and reassembly


def test_unit_bone_scales_reproduce_joints_exactly():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 4, 3)).astype(np.float32)
    _, recovered = scale_bones(x, CHAIN, _const_head(18, 1.0))
    assert np.allclose(recovered.data, _channels(x), atol=1e-6)


def test_doubled_bones_double_root_centered_coordinates():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 4, 3)).astype(np.float32)
    x -= x[:, CHAIN.root : CHAIN.root + 1, :]  # root pinned at origin
    _, recovered = scale_bones(x, CHAIN, _const_head(18, 2.0))
    assert np.allclose(recovered.data, 2.0 * _channels(x), atol=1e-5)


def test_scale_bones_records_only_float64_tensors_for_float64_input():
    # the constant path matrix was cast back to float32 on its way onto the tape
    rng = np.random.default_rng(8)
    leaf = lambda *shape: Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)
    x = Tensor(rng.normal(size=(2, 6, 4, 3)), dtype=np.float64)
    with Tape() as tape:
        scales, recovered = scale_bones(x, CHAIN, scale_heads(leaf(5, 18), leaf(5), leaf(1, 5), leaf(1)))
    assert scales.dtype == recovered.dtype == np.float64
    assert {t.dtype for node in tape.nodes for t in (*node.inputs, node.output)} == {np.dtype(np.float64)}


def test_scaled_bones_match_pinned_least_squares():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 4, 3)).astype(np.float32)
    head = _rand_head(rng, 15)
    scales, recovered = scale_bones(x, CHAIN, head)
    bones = bones_from_joints(x, CHAIN)                   # (T, b, 3)
    target = bones * scales.data.reshape(-1)[None, :, None]
    c = incidence_matrix(CHAIN).astype(np.float64)
    free = [j for j in range(4) if j != CHAIN.root]
    for t in range(5):
        for d in range(3):
            rhs = target[t, :, d].astype(np.float64) - x[t, CHAIN.root, d] * c[CHAIN.root]
            sol, residual, rank, _ = np.linalg.lstsq(c[free].T, rhs, rcond=None)
            assert rank == len(free)
            for idx, j in enumerate(free):
                assert recovered.data[d, j, t] == pytest.approx(sol[idx], abs=1e-5)


# ---------------------------------------------------------------------------
# image embedding


def test_identity_embedding_is_a_passthrough():
    rng = np.random.default_rng(7)
    ch = Tensor(rng.normal(size=(3, 6, 6)).astype(np.float32))
    assert np.array_equal(embed_to_image(ch, _identity_embedding(6)).data, ch.data)


def test_embedding_rows_select_joints():
    rng = np.random.default_rng(8)
    ch = rng.normal(size=(3, 4, 5)).astype(np.float32)
    w = np.zeros((5, 4), dtype=np.float32)
    w[0, 2] = 1.0  # image row 0 reads joint 2
    img = embed_to_image(Tensor(ch), Tensor(w)).data
    assert np.array_equal(img[:, 0, :], ch[:, 2, :])
    assert not np.any(img[:, 1:, :])


def test_embedding_matches_loop_oracle_and_validates():
    rng = np.random.default_rng(9)
    t, j = 5, 3
    ch = rng.normal(size=(3, j, t)).astype(np.float32)
    w = rng.normal(size=(t, j)).astype(np.float32)
    img = embed_to_image(Tensor(ch), Tensor(w)).data
    for c in range(3):
        for t1 in range(t):
            for t2 in range(t):
                want = sum(w[t1, jj] * ch[c, jj, t2] for jj in range(j))
                assert img[c, t1, t2] == pytest.approx(want, abs=1e-5)
    with pytest.raises(DimensionError):
        embed_to_image(Tensor(ch), Tensor(w.T))


# ---------------------------------------------------------------------------
# attention


def _rand_attention(rng, joints, hidden=7, dim=4):
    return attention_tensors(
        Tensor(rng.normal(size=(hidden, joints * 3)).astype(np.float32) * 0.4),
        Tensor(rng.normal(size=hidden).astype(np.float32) * 0.1),
        Tensor(rng.normal(size=(dim, hidden)).astype(np.float32) * 0.4),
        Tensor(rng.normal(size=(dim, hidden)).astype(np.float32) * 0.4),
    )


def test_attention_rows_are_stochastic():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(6, 4, 3)).astype(np.float32)
    a = attention_map(x, _rand_attention(rng, 4)).data
    assert a.shape == (6, 6)
    assert np.all(a > 0)
    assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-6)


def test_zero_projections_give_uniform_attention():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 4, 3)).astype(np.float32)
    head = _rand_attention(rng, 4)
    head["attention.query.weight"].data[:] = 0.0
    head["attention.key.weight"].data[:] = 0.0
    a = attention_map(x, head).data
    assert np.allclose(a, 1.0 / 8, atol=1e-7)


def test_repeated_frames_share_attention_rows():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, 4, 3)).astype(np.float32)
    x[5] = x[1]  # identical frames must get identical rows
    a = attention_map(x, _rand_attention(rng, 4)).data
    assert np.allclose(a[5], a[1], atol=1e-7)


def test_attention_matches_loop_oracle():
    rng = np.random.default_rng(13)
    t, j = 4, 3
    x = rng.normal(size=(t, j, 3)).astype(np.float32)
    head = _rand_attention(rng, j, hidden=5, dim=2)
    got = attention_map(x, head).data
    feats = x.reshape(t, -1)
    z = feats @ head["attention.shared.weight"].data.T + head["attention.shared.bias"].data
    h = np.where(z > 0, z, 0.01 * z)
    q = h @ head["attention.query.weight"].data.T
    k = h @ head["attention.key.weight"].data.T
    scores = (q @ k.T) / np.sqrt(2.0)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    assert np.allclose(got, want, atol=1e-5)


def test_uniform_attention_has_the_requested_dtype():
    for dtype in (np.float32, np.float64):
        attention = uniform_attention(6, dtype)
        assert attention.dtype == dtype
        assert np.array_equal(attention.data, np.full((6, 6), dtype(1 / 6)))


def test_apply_attention_uniform_identity():
    rng = np.random.default_rng(14)
    img = Tensor(rng.normal(size=(3, 6, 6)).astype(np.float32))
    out = apply_attention(img, uniform_attention(6)).data
    assert np.allclose(out, (1.0 + 1.0 / 6) * img.data, atol=1e-6)
    with pytest.raises(DimensionError):
        apply_attention(img, uniform_attention(5))


def test_apply_attention_is_elementwise_residual():
    rng = np.random.default_rng(15)
    img = rng.normal(size=(3, 4, 4)).astype(np.float32)
    a = rng.uniform(size=(4, 4)).astype(np.float32)
    out = apply_attention(Tensor(img), Tensor(a)).data
    for c in range(3):
        assert np.allclose(out[c], img[c] * a + img[c], atol=1e-6)


# ---------------------------------------------------------------------------
# velocity and temporal stages


def test_velocity_image_zero_for_still_pose():
    ch = Tensor(np.ones((3, 6, 6), dtype=np.float32) * 3.25)
    img = velocity_image(ch, _identity_embedding(6), dt=0.5)
    assert not np.any(img.data)


def test_velocity_image_ramp_gives_inverse_dt_columns():
    t = 6
    ramp = np.broadcast_to(np.arange(t, dtype=np.float32), (3, t, t)).copy()
    img = velocity_image(Tensor(ramp), _identity_embedding(t), dt=0.25).data
    assert np.allclose(img[..., :-1], 4.0, atol=1e-6)
    assert not np.any(img[..., -1])


def test_temporal_embedding_adds_per_column():
    rng = np.random.default_rng(16)
    img = rng.normal(size=(3, 5, 5)).astype(np.float32)
    values = np.arange(5, dtype=np.float32) * 0.1
    out = temporal_embed(Tensor(img), Tensor(values)).data
    for t in range(5):
        assert np.allclose(out[..., t], img[..., t] + 0.1 * t, atol=1e-6)
    with pytest.raises(DimensionError):
        temporal_embed(Tensor(img), Tensor(np.zeros(4, dtype=np.float32)))


def test_temporal_embedding_breaks_time_reversal():
    rng = np.random.default_rng(17)
    img = rng.normal(size=(3, 5, 5)).astype(np.float32)
    te = Tensor(np.arange(5, dtype=np.float32))
    fwd = temporal_embed(Tensor(img), te).data
    rev = temporal_embed(Tensor(img[..., ::-1].copy()), te).data
    assert not np.allclose(fwd[..., ::-1], rev, atol=1e-3)


# ---------------------------------------------------------------------------
# the fused image op against the nodes it fuses


def _same_bits(got, want):
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [(2,), (1,)], ids=["batched", "one_sample"])
def test_embed_image_is_bitwise_the_composed_nodes(dtype, batch):
    # three images as encode builds them: the first two share the attention
    # map, and the first and the third (its velocity) read one channel
    # tensor, so the order in which those gradients are summed shows
    rng = np.random.default_rng(30)
    t, j = 6, 4

    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)

    base, scores = leaf(*batch, 3, j, t), leaf(*batch, t, t)
    weights, temporals = [leaf(t, j) for _ in range(3)], [leaf(t) for _ in range(3)]
    upstream = [Tensor(rng.normal(size=(*batch, 3, t, t)), dtype=dtype) for _ in range(3)]
    leaves = [base, scores, *weights, *temporals]
    for attend in (True, False):
        for temporal in (True, False):
            runs = []
            for op in (embed_image, composed_embed_image):
                for p in leaves:
                    p.grad = None
                with Tape() as tape:
                    joints, bones = scale(base, 1.5), scale(base, -0.5)
                    attention = softmax_rows(scores) if attend else None
                    start = len(tape.nodes)
                    images = [op(ch, w, attention if k < 2 else None, te if temporal else None)
                              for k, (ch, w, te) in enumerate(zip((joints, bones, frame_velocity(joints)),
                                                                  weights, temporals))]
                    if op is embed_image:  # one node per image, after the velocity's
                        assert len(tape.nodes) == start + 4
                    loss = sum_all(mul(images[0], upstream[0]))
                    for image, u in zip(images[1:], upstream[1:]):
                        loss = add(loss, sum_all(mul(image, u)))
                backward(loss)
                runs.append(([im.data for im in images] + [im.grad for im in images],
                             [p.grad for p in leaves]))
            (fused, fused_grads), (composed, composed_grads) = runs
            for got, want in zip(fused, composed):
                assert _same_bits(got, want), (attend, temporal)
            for n, (got, want) in enumerate(zip(fused_grads, composed_grads)):
                assert (got is None) == (want is None), (attend, temporal, n)
                assert got is None or _same_bits(got, want), (attend, temporal, n)
            assert (scores.grad is not None) == attend and (temporals[0].grad is not None) == temporal


def test_embed_image_gradients_match_central_differences():
    rng = np.random.default_rng(31)
    leaf = lambda *shape: Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)
    ch, w, a, te = leaf(2, 3, 4, 5), leaf(5, 4), leaf(2, 5, 5), leaf(5)
    u = Tensor(rng.normal(size=(2, 3, 5, 5)), dtype=np.float64)
    assert grad_check(lambda: sum_all(mul(embed_image(ch, w, a, te), u)), [ch, w, a, te], samples=80) < 1e-6


def test_embed_image_validates_shapes():
    ch = Tensor(np.zeros((2, 3, 4, 5), dtype=np.float32))
    w = Tensor(np.zeros((5, 4), dtype=np.float32))
    assert embed_image(ch, w, Tensor(np.zeros((2, 5, 5))), Tensor(np.zeros(5))).shape == (2, 3, 5, 5)
    with pytest.raises(DimensionError, match="cannot map channels"):
        embed_image(ch, Tensor(np.zeros((4, 5))))
    with pytest.raises(DimensionError, match="attention"):
        embed_image(ch, w, Tensor(np.zeros((2, 4, 4))))
    with pytest.raises(DimensionError, match="temporal"):
        embed_image(ch, w, None, Tensor(np.zeros(4)))


def test_image_source_takes_batched_channels_and_a_batched_map_only():
    # (B, C, J, T) channels with a (B, T, T) map or none: unbatched channels
    # and a map shared by the batch are refused
    ch, w = np.zeros((2, 3, 4, 5), dtype=np.float32), np.zeros((5, 4), dtype=np.float32)
    assert embed_image_arrays(ch, w, np.zeros((2, 5, 5), dtype=np.float32), None).shape == (2, 3, 5, 5)
    with pytest.raises(DimensionError, match=r"expects \(B, C, 4, 5\)"):
        embed_image_arrays(ch[0], w, None, None)
    with pytest.raises(DimensionError, match=r"expects \(B, T, T\)"):
        embed_image_arrays(ch, w, np.zeros((5, 5), dtype=np.float32), None)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_image_fill_is_bitwise_the_composed_ops_for_every_block(dtype):
    # a stream image of the default size, filled block by block as the stem
    # fills its pad: the stage's batch blocks, each sample alone and the
    # whole batch, each written into the interior of a bordered buffer,
    # must be bitwise that block of the composed ops' image and leave the
    # border alone.  Attention per sample, one map repeated over the batch
    # and absent; temporal on and off
    rng = np.random.default_rng(32)
    t, j = 64, 15
    w, te = rng.normal(size=(t, j)).astype(dtype), rng.normal(size=t).astype(dtype)
    for batch in (17, 64):
        ch = rng.normal(size=(batch, 3, j, t)).astype(dtype)
        scores = rng.normal(size=(batch, t, t)).astype(dtype)
        blocks = autograd._batch_blocks(batch, t * t // 4)  # the stem's, with 1,024 GEMM rows a sample
        assert len(blocks) == (2 if batch == 17 else 4)
        ranges = set(blocks) | {(0, batch)} | {(n, n + 1) for n in range(batch)}
        for kind, attention in (("batched", scores), ("repeated", np.repeat(scores[:1], batch, axis=0)),
                                ("none", None)):
            for temporal in (te, None):
                case = (batch, kind, temporal is None)
                a = None if attention is None else softmax_rows(Tensor(attention, dtype=dtype))
                want = embed_to_image(Tensor(ch, dtype=dtype), Tensor(w, dtype=dtype))
                if a is not None:
                    want = apply_attention(want, a)
                if temporal is not None:
                    want = temporal_embed(want, Tensor(temporal, dtype=dtype))
                source = embed_image_arrays(ch, w, None if a is None else a.data, temporal)
                assert source.shape == (batch, 3, t, t) and source.dtype == dtype, case
                for lo, hi in sorted(ranges):
                    bordered = np.full((hi - lo, 3, t + 2, t + 2), np.nan, dtype)
                    source.fill(lo, hi, bordered[:, :, 1:-1, 1:-1])
                    assert _same_bits(bordered[:, :, 1:-1, 1:-1], want.data[lo:hi]), (case, lo, hi)
                    bordered[:, :, 1:-1, 1:-1] = 0
                    assert np.isnan(bordered).sum() == (hi - lo) * 3 * (4 * t + 4), (case, lo, hi)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_image_block_backward_is_bitwise_the_composed_nodes_for_every_block_split(dtype):
    # a stream image's gradient handed to the source block by block, each
    # block's a view of a bordered buffer as the stem hands it: the stem's
    # blocks, uneven ones, each sample alone and the whole batch must all
    # give bitwise the composed nodes' gradients, with None until the last
    # block.  Attention per sample, one map repeated over the batch and
    # absent; temporal on and off; three channels and one
    rng = np.random.default_rng(34)
    t, j = 64, 15
    for batch in (17, 64):
        splits = [autograd._batch_blocks(batch, t * t // 4), [(0, batch)], [(n, n + 1) for n in range(batch)],
                  [(0, 1), (1, batch - 5), (batch - 5, batch)]]
        for c in (3, 1):
            ch, w = rng.normal(size=(batch, c, j, t)), rng.normal(size=(t, j))
            scores, te = rng.random(size=(batch, t, t)), rng.normal(size=t)
            upstream = rng.normal(size=(batch, c, t, t)).astype(dtype)
            for kind, attention in (("batched", scores), ("repeated", np.repeat(scores[:1], batch, axis=0)),
                                    ("none", None)):
                for temporal in (te, None):
                    case = (batch, c, kind, temporal is None)
                    inputs = [None if arr is None else Tensor(arr, requires_grad=True, dtype=dtype)
                              for arr in (ch, w, attention, temporal)]
                    with Tape():
                        loss = sum_all(mul(composed_embed_image(*inputs), Tensor(upstream, dtype=dtype)))
                    backward(loss)
                    leaves = [leaf for leaf in inputs if leaf is not None]
                    source = embed_image_arrays(*(None if leaf is None else leaf.data for leaf in inputs))
                    for split in splits:
                        bordered = np.zeros((batch, c, t + 2, t + 2), dtype)
                        bordered[:, :, 1:-1, 1:-1] = upstream
                        for lo, hi in split:
                            grads = source.back(lo, hi, bordered[lo:hi, :, 1:-1, 1:-1])
                            assert (grads is None) == (hi < batch), (case, split)
                        assert [g is None for g in grads] == [False, False, attention is None, temporal is None], case
                        for n, (got, leaf) in enumerate(zip([g for g in grads if g is not None], leaves)):
                            assert _same_bits(got, leaf.grad), (case, len(split), n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_recorded_image_rule_saves_no_image_sized_array(dtype):
    # the block backward recomputes the pre-attention product, so what its
    # closure reaches (the inputs and views of them) is smaller than the image,
    # as is what the fill's reaches
    rng = np.random.default_rng(35)
    t, j = 8, 4
    ch, w = rng.normal(size=(2, 3, j, t)).astype(dtype), rng.normal(size=(t, j)).astype(dtype)
    a, te = rng.normal(size=(2, t, t)).astype(dtype), rng.normal(size=t).astype(dtype)
    source = embed_image_arrays(ch, w, a, te)
    image = filled(source)
    for fn in (source.back, source.fill):  # both reached by a stem's rule
        reached = [cell.cell_contents for cell in fn.__closure__]
        owners = [arr if arr.base is None else arr.base for arr in reached if isinstance(arr, np.ndarray)]
        assert len(owners) >= 3 and max(arr.nbytes for arr in owners) < image.nbytes
        assert not any(np.shares_memory(arr, image) for arr in owners)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_channel_image_gradients_are_bitwise_the_composed_nodes(dtype):
    # one channel under a batched attention map: the attention gradient sums
    # over nothing, yet the rule must not overwrite it with the product's
    rng = np.random.default_rng(36)
    t, j = 6, 4
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)
              for shape in ((2, 1, j, t), (t, j), (2, t, t), (t,))]
    upstream = Tensor(rng.normal(size=(2, 1, t, t)), dtype=dtype)
    runs = []
    for op in (embed_image, composed_embed_image):
        for p in leaves:
            p.grad = None
        with Tape():
            loss = sum_all(mul(op(*leaves), upstream))
        backward(loss)
        runs.append([p.grad for p in leaves])
    for n, (got, want) in enumerate(zip(*runs)):
        assert _same_bits(got, want), n


# ---------------------------------------------------------------------------
# composed encoder


def _build_encoder(rng, frames, flags=EnhanceFlags(), grad=False):
    def tensor(*shape, scale=0.3):
        return Tensor(rng.normal(size=shape).astype(np.float32) * scale,
                      requires_grad=grad)

    j = CHAIN.joint_count
    hidden = 6
    attn = attention_tensors(tensor(hidden, j * 3), tensor(hidden), tensor(j, hidden), tensor(j, hidden))
    streams = flags.active_streams()
    tensors = {f"embed.{name}": tensor(frames, j, scale=0.5) for name in streams}
    if flags.temporal:
        tensors.update({f"temporal.{name}": tensor(frames) for name in streams})
    for head, on in (("joint_scale", flags.joint_scale), ("bone_scale", flags.bone_scale)):
        if on:
            tensors.update({f"{head}.fc1.weight": tensor(hidden, frames * 3), f"{head}.fc1.bias": tensor(hidden),
                            f"{head}.fc2.weight": tensor(1, hidden), f"{head}.fc2.bias": tensor(1)})
    if flags.attention:
        tensors.update(attn)
    return EncoderParams(topology=CHAIN, flags=flags, dt=1.0, tensors=tensors)


def test_encode_matches_hand_composition():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(1, 8, 4, 3)).astype(np.float32)
    enc = _build_encoder(np.random.default_rng(100), 8)
    bundle = encode(x, enc)

    w = enc.tensors
    _, sj = scale_joints(x, w)
    _, sb = scale_bones(x, CHAIN, w)
    a = attention_map(x, w)
    ji = temporal_embed(apply_attention(embed_to_image(sj, w["embed.joints"]), a), w["temporal.joints"])
    bi = temporal_embed(apply_attention(embed_to_image(sb, w["embed.bones"]), a), w["temporal.bones"])
    jv = temporal_embed(velocity_image(sj, w["embed.joint_velocity"], enc.dt), w["temporal.joint_velocity"])
    bv = temporal_embed(velocity_image(sb, w["embed.bone_velocity"], enc.dt), w["temporal.bone_velocity"])

    channels = (sj, sb, frame_velocity(sj, enc.dt), frame_velocity(sb, enc.dt))
    assert len(bundle.channels) == 4
    for got, want in zip(bundle.channels, channels):
        assert np.array_equal(got.data, want.data)
    assert np.array_equal(bundle.attention.data, a.data)
    for name, want in zip(STREAMS, (ji, bi, jv, bv)):
        source, _ = stream_image(bundle, name, enc)
        assert source.shape == (1, 3, 8, 8) and callable(source.back), name
        assert np.array_equal(filled(source), want.data), name


def test_encode_with_everything_off_is_raw_coordinates():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(1, 4, 4, 3)).astype(np.float32)
    flags = EnhanceFlags(False, False, False, False, False)
    enc = _build_encoder(np.random.default_rng(101), 4, flags)
    enc.tensors["embed.joints"] = _identity_embedding(4)
    enc.tensors["embed.bones"] = _identity_embedding(4)
    bundle = encode(x, enc)
    assert len(bundle.channels) == 2 and bundle.attention is None
    # identity embeddings make both streams the raw coordinate view
    for name in ("joints", "bones"):
        assert np.array_equal(filled(stream_image(bundle, name, enc)[0]), _channels(x)), name


def test_active_streams_follow_velocity_flag():
    assert EnhanceFlags().active_streams() == ("joints", "bones", "joint_velocity", "bone_velocity")
    assert EnhanceFlags(velocity=False).active_streams() == ("joints", "bones")


def test_gradients_reach_every_encoder_parameter():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(1, 8, 4, 3)).astype(np.float32)
    enc = _build_encoder(np.random.default_rng(102), 8, grad=True)
    with Tape():
        images = composed_images(encode(x, enc), enc, embed_image)
        loss = sum_all(images[0])
        for img in images[1:]:
            loss = add(loss, sum_all(img))
    backward(loss)
    for name, tensor in enc.tensors.items():
        assert tensor.grad is not None, name
        assert np.any(tensor.grad != 0) or "temporal" in name, name


def test_encode_batched_equals_stacked_single():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 8, 4, 3)).astype(np.float32)
    enc = _build_encoder(np.random.default_rng(103), 8)
    batch = encode(x, enc)
    for b in range(3):
        single, one = encode(x[b], enc), encode(x[b : b + 1], enc)  # unbatched, and a batch of one
        for got, want in zip(batch.channels, single.channels):
            assert np.allclose(got.data[b], want.data, atol=1e-6)
        for name in STREAMS:  # an image source takes a batch
            want = filled(stream_image(one, name, enc)[0])[0]
            assert np.allclose(filled(stream_image(batch, name, enc)[0])[b], want, atol=1e-6), name
        assert np.allclose(batch.attention.data[b], single.attention.data, atol=1e-6)


@pytest.mark.parametrize("flags", [EnhanceFlags(*on) for on in itertools.product((False, True), repeat=5)])
def test_stream_image_reads_pair_one_to_one_with_its_source_gradients(flags):
    # the tensors stream_image names are the image's inputs in the order
    # its source's back returns their gradients, the Nones left out
    x = np.random.default_rng(22).normal(size=(2, 8, 4, 3)).astype(np.float32)
    enc = _build_encoder(np.random.default_rng(104), 8, flags)
    bundle = encode(x, enc)
    for i, name in enumerate(flags.active_streams()):
        source, reads = stream_image(bundle, name, enc)
        attended = flags.attention and name in ATTENDED
        want = [bundle.channels[i], enc.tensors[f"embed.{name}"]] + [bundle.attention] * attended
        want += [enc.tensors[f"temporal.{name}"]] if flags.temporal else []
        assert len(reads) == len(want) and all(got is t for got, t in zip(reads, want)), name
        d = np.random.default_rng(i).normal(size=source.shape).astype(source.dtype)
        grads = [g for g in source.back(0, len(d), d) if g is not None]
        assert [g.shape for g in grads] == [t.shape for t in reads], name
