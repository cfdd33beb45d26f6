"""Tensor engine tests: loop oracles for every forward op, finite-difference
checks for every backward rule, the fused CNN stage against its reference
stage and the ops it fuses, the tape's lifetime and thread confinement, and
the Adam recurrence by hand."""

import gc
import threading
import weakref

import numpy as np
import pytest
from conftest import conv_pool_leaky, reference_stage

from skelact import autograd
from skelact.autograd import (
    Tape, Tensor, add, backward, concat, conv2d, cross_entropy,
    frame_velocity, grad_check, leaky_relu, linear, matmul, maxpool2d, mul, permute, reshape, scale, softmax_rows, sub, sum_all, transpose_last2,
)
from skelact.errors import DimensionError, UsageError
from skelact.optim import AdamState, adam_step

# The workspace roles, the fused stage's, are every thread's only ones: a
# stream's image is filled straight into the stem's pad
STAGE_ROLES = {"pad", "cols", "conv"}


# ---------------------------------------------------------------------------
# independent oracles (kept deliberately naive)


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out


def conv_oracle(x, kernels, bias, stride, pad):
    batch, c_in, h, w = x.shape
    c_out, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((batch, c_out, h_out, w_out), dtype=np.float64)
    for n in range(batch):
        for o in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    acc = float(bias[o])
                    for c in range(c_in):
                        for u in range(kh):
                            for v in range(kw):
                                acc += float(xp[n, c, i * stride + u, j * stride + v]) * float(kernels[o, c, u, v])
                    out[n, o, i, j] = acc
    return out


def pool_oracle(x):
    batch, c, h, w = x.shape
    out = np.zeros((batch, c, h // 2, w // 2), dtype=x.dtype)
    for n in range(batch):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[n, ch, i, j] = x[n, ch, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
    return out


def softmax_oracle(x):
    out = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1, x.shape[-1])
    res = out.reshape(-1, x.shape[-1])
    for i in range(flat.shape[0]):
        e = np.exp(flat[i].astype(np.float64) - float(flat[i].max()))
        res[i] = e / e.sum()
    return out


def cross_entropy_oracle(logits, labels):
    total = 0.0
    for i in range(len(labels)):
        row = logits[i].astype(np.float64)
        e = np.exp(row - row.max())
        p = e / e.sum()
        total += -np.log(p[labels[i]])
    return total / len(labels)


# ---------------------------------------------------------------------------
# forward semantics


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == pytest.approx(11.0)


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(4, 5)).astype(np.float32)
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.allclose(got, matmul_oracle(a, b), atol=1e-6)


def test_matmul_broadcasts_batch_dims():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 3, 4)).astype(np.float32)
    b = rng.normal(size=(4, 5)).astype(np.float32)
    got = matmul(Tensor(a), Tensor(b)).data
    for i in range(2):
        assert np.allclose(got[i], matmul_oracle(a[i], b), atol=1e-6)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_broadcast_mul_matches_per_channel_loop():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 2, 2)).astype(np.float32)
    a = rng.normal(size=(2, 2)).astype(np.float32)
    got = mul(Tensor(x), Tensor(a)).data
    want = np.zeros_like(x)
    for c in range(3):
        want[c] = x[c] * a
    assert np.allclose(got, want, atol=1e-6)


def test_add_rejects_mismatched_shapes():
    with pytest.raises(DimensionError):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_leaky_relu_values_and_slope_domain():
    out = leaky_relu(Tensor([2.0, -1.0]), 0.01)
    assert out.data[0] == pytest.approx(2.0)
    assert out.data[1] == pytest.approx(-0.01)
    with pytest.raises(UsageError):
        leaky_relu(Tensor([1.0]), 1.5)


def test_softmax_uniform_and_overflow():
    assert np.allclose(softmax_rows(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3)
    big = softmax_rows(Tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(big))
    assert abs(big[0] - 1.0) < 1e-6 and big[1] < 1e-6


def test_softmax_matches_oracle_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 7)).astype(np.float32) * 3
    got = softmax_rows(Tensor(x)).data
    assert np.allclose(got, softmax_oracle(x), atol=1e-6)
    assert np.allclose(got.sum(axis=-1), 1.0, atol=1e-6)


def test_linear_matches_affine_loop():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3)).astype(np.float32)
    w = rng.normal(size=(2, 3)).astype(np.float32)
    b = rng.normal(size=2).astype(np.float32)
    got = linear(Tensor(x), Tensor(w), Tensor(b)).data
    want = matmul_oracle(x, w.T) + b
    assert np.allclose(got, want, atol=1e-6)
    with pytest.raises(DimensionError):
        linear(Tensor(x), Tensor(np.zeros((2, 4))))


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for stride, pad in ((2, 1), (1, 0), (1, 1)):
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        got = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, padding=pad).data
        assert np.allclose(got, conv_oracle(x, k, b, stride, pad), atol=1e-5)


def test_conv2d_batch_of_one_and_errors():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
    k = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
    b = np.zeros(2, dtype=np.float32)
    got = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
    want = conv_oracle(x, k, b, 2, 1)
    assert np.allclose(got, want, atol=1e-5)
    with pytest.raises(DimensionError):
        conv2d(Tensor(np.zeros((1, 4, 8, 8))), Tensor(k), Tensor(b))
    with pytest.raises(DimensionError):
        conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError, match=r"expects \(B,C,H,W\)"):  # no batch axis
        conv2d(Tensor(x[0]), Tensor(k), Tensor(b))


def test_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 6, 4)).astype(np.float32)
    assert np.array_equal(maxpool2d(Tensor(x)).data, pool_oracle(x))
    with pytest.raises(DimensionError):
        maxpool2d(Tensor(np.zeros((1, 1, 5, 4))))
    with pytest.raises(DimensionError, match=r"expects \(B,C,H,W\)"):  # no batch axis
        maxpool2d(Tensor(x[0]))


def test_maxpool_tie_routes_gradient_to_first_window_slot():
    x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    with Tape():
        loss = sum_all(maxpool2d(x))
    backward(loss)
    assert np.array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_cross_entropy_matches_oracle_and_validates():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(6, 5)).astype(np.float32) * 2
    labels = rng.integers(0, 5, size=6)
    got = cross_entropy(Tensor(logits), labels).item()
    assert got == pytest.approx(cross_entropy_oracle(logits, labels), abs=1e-5)
    # fused log-softmax keeps huge logits finite
    assert np.isfinite(cross_entropy(Tensor(logits * 1000), labels).item())
    with pytest.raises(UsageError):
        cross_entropy(Tensor(logits), np.array([0, 1, 2, 3, 4, 5]))
    with pytest.raises(DimensionError):
        cross_entropy(Tensor(logits), np.array([0]))


def test_frame_velocity_constant_ramp_and_oracle():
    const = frame_velocity(Tensor(np.ones((3, 4, 8), dtype=np.float32)), 1.0)
    assert not np.any(const.data)
    ramp = np.broadcast_to(np.arange(8.0, dtype=np.float32), (2, 8)).copy()
    vel = frame_velocity(Tensor(ramp), 0.5).data
    assert np.allclose(vel[:, :-1], 2.0)
    assert not np.any(vel[:, -1])
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 5, 7)).astype(np.float32)
    got = frame_velocity(Tensor(x), 2.0).data
    want = np.zeros_like(x)
    for t in range(6):
        want[..., t] = (x[..., t + 1] - x[..., t]) / 2.0
    assert np.allclose(got, want, atol=1e-6)
    with pytest.raises(UsageError):
        frame_velocity(Tensor(x), 0.0)


def test_shape_plumbing_ops():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 4)).astype(np.float32)
    assert reshape(Tensor(x), (6, 4)).data.shape == (6, 4)
    assert np.array_equal(transpose_last2(Tensor(x)).data, np.swapaxes(x, -1, -2))
    assert np.array_equal(permute(Tensor(x), (2, 0, 1)).data, np.transpose(x, (2, 0, 1)))
    with pytest.raises(DimensionError):
        permute(Tensor(x), (0, 1))
    joined = concat([Tensor(x), Tensor(x)], axis=-1)
    assert joined.data.shape == (2, 3, 8)
    with pytest.raises(UsageError):
        concat([], axis=0)


# ---------------------------------------------------------------------------
# fused conv -> pool -> leaky stage against the three ops it replaces


def _fused_and_reference(x, k, b, upstream, slope=0.01, contiguous=False):
    """Output and (x, kernels, bias) gradients of the fused op and of its
    reference, conftest.reference_stage, on the same channels-last input,
    all in channel-first layout.  The input is the permuted channel-first
    array, or a C-contiguous channels-last copy of it; both input gradients
    must come back in that input's memory layout."""
    xd = np.ascontiguousarray(x.transpose(0, 2, 3, 1)) if contiguous else x.transpose(0, 2, 3, 1)
    results = []
    for stage in (conv_pool_leaky, reference_stage):
        xt = Tensor(xd, requires_grad=True, dtype=x.dtype)
        kt, bt = Tensor(k, requires_grad=True, dtype=k.dtype), Tensor(b, requires_grad=True, dtype=b.dtype)
        with Tape():
            out = stage(xt, kt, bt, slope)
            loss = sum_all(mul(out, Tensor(upstream.transpose(0, 2, 3, 1), dtype=upstream.dtype)))
        backward(loss)
        if contiguous:
            assert xt.grad.flags.c_contiguous
        else:
            assert xt.grad.transpose(0, 3, 1, 2).flags.c_contiguous
        results.append((out.data.transpose(0, 3, 1, 2), xt.grad.transpose(0, 3, 1, 2), kt.grad, bt.grad))
    return results


def _composed(x, k, b, upstream, slope=0.01):
    """Output and (x, kernels, bias) gradients of the channel-first
    ``leaky_relu(maxpool2d(conv2d(.)))`` under sum_all(out * upstream)."""
    xt, kt, bt = (Tensor(a, requires_grad=True, dtype=a.dtype) for a in (x, k, b))
    with Tape():
        out = leaky_relu(maxpool2d(conv2d(xt, kt, bt)), slope)
        loss = sum_all(mul(out, Tensor(upstream, dtype=upstream.dtype)))
    backward(loss)
    return out.data, xt.grad, kt.grad, bt.grad


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_reference_stage_matches_the_loop_oracle_and_the_composed_ops():
    # the reference adds its dot products in corner-major row order, and in
    # (i, j, c) order for a C-contiguous input: within 1e-12 of the float64
    # loop oracle, and its output and gradients within 1e-5 relative of the
    # composed channel-first ops in float32 (random inputs, so no ties)
    for seed in range(4):
        rng = np.random.default_rng(120 + seed)
        c_in = seed + 1
        x = rng.normal(size=(2, c_in, 12, 8))
        k, b = rng.normal(size=(5, c_in, 3, 3)), rng.normal(size=5)
        upstream = rng.normal(size=(2, 5, 3, 2))
        pooled = pool_oracle(conv_oracle(x, k, b, 2, 1))
        want = np.where(pooled >= 0, pooled, pooled * 0.01)
        for contiguous in (False, True):
            xd = np.ascontiguousarray(x.transpose(0, 2, 3, 1)) if contiguous else x.transpose(0, 2, 3, 1)
            got = reference_stage(Tensor(xd, dtype=np.float64), Tensor(k, dtype=np.float64), Tensor(b, dtype=np.float64))
            assert np.allclose(got.data.transpose(0, 3, 1, 2), want, rtol=0, atol=1e-12), (seed, contiguous)
            f32 = [a.astype(np.float32) for a in (x, k, b, upstream)]
            reference = _fused_and_reference(*f32, contiguous=contiguous)[1]
            for got_a, want_a in zip(reference, _composed(*f32)):
                assert np.abs(got_a - want_a).max() <= 1e-5 * max(1.0, np.abs(want_a).max()), (seed, contiguous)


def test_conv_pool_leaky_is_bitwise_the_composed_ops():
    # the composed ops are conftest.reference_stage's: a plain im2col, GEMM,
    # corner pool and leaky ReLU with the fused op's row and tap orders (the
    # channel-first conv2d, maxpool2d and leaky_relu differ in the last bits)
    for seed in range(4):
        rng = np.random.default_rng(40 + seed)
        c_in = seed + 1
        x = rng.normal(size=(2, c_in, 12, 8)).astype(np.float32)
        k = rng.normal(size=(5, c_in, 3, 3)).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        upstream = rng.normal(size=(2, 5, 3, 2)).astype(np.float32)
        for contiguous in (False, True):
            fused, reference = _fused_and_reference(x, k, b, upstream, contiguous=contiguous)
            for got, want in zip(fused, reference):
                assert _same_bits(got, want), f"seed {seed}, contiguous {contiguous}"


def test_conv_pool_leaky_ties_route_like_maxpool2d():
    # small integers make exact ties in most pooling windows, and make every
    # conv value exact in any add order: the output is bitwise the composed
    # channel-first ops', and a tie routed to another corner than
    # maxpool2d's first maximum would move a gradient by far more than 1e-5
    for seed in range(6):
        rng = np.random.default_rng(60 + seed)
        c_in = seed % 4 + 1
        x = rng.integers(-1, 2, size=(2, c_in, 8, 8)).astype(np.float32)
        k = rng.integers(-1, 2, size=(3, c_in, 3, 3)).astype(np.float32)
        b = rng.integers(-1, 2, size=3).astype(np.float32)
        upstream = rng.integers(1, 4, size=(2, 3, 2, 2)).astype(np.float32)
        for contiguous in (False, True):
            fused, reference = _fused_and_reference(x, k, b, upstream, contiguous=contiguous)
            for got, want in zip(fused, reference):
                assert _same_bits(got, want), f"seed {seed}, contiguous {contiguous}"
            composed = _composed(x, k, b, upstream)
            assert _same_bits(fused[0], composed[0]), f"seed {seed}, contiguous {contiguous}"
            for got, want in zip(fused[1:], composed[1:]):
                assert np.abs(got - want).max() <= 1e-5 * max(1.0, np.abs(want).max()), (seed, contiguous)


def test_untaped_conv_pool_leaky_changes_no_bits_and_aliases_nothing():
    # untaped calls run in a per-thread workspace; these batch sizes grow,
    # shrink and regrow it, and float64 after float32 reinterprets its bytes
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(80)
        k = Tensor(rng.normal(size=(5, 3, 3, 3)), requires_grad=True, dtype=dtype)
        b = Tensor(rng.normal(size=5), requires_grad=True, dtype=dtype)
        earlier = []
        for batch in (2, 5, 1, 3):
            x = Tensor(rng.normal(size=(batch, 12, 8, 3)), requires_grad=True, dtype=dtype)
            untaped = conv_pool_leaky(x, k, b, 0.01)
            assert untaped._tape is None
            with Tape():
                taped = conv_pool_leaky(x, k, b, 0.01)
            assert taped._tape is not None
            reference = reference_stage(x, k, b, 0.01)
            assert untaped.dtype == dtype
            assert _same_bits(untaped.data, taped.data), (dtype, batch)
            assert _same_bits(untaped.data, reference.data), (dtype, batch)
            single = conv_pool_leaky(Tensor(x.data[-1:], dtype=dtype), k, b, 0.01)
            assert _same_bits(single.data, untaped.data[-1:]), (dtype, batch)
            earlier.append((untaped.data, untaped.data.copy()))
        for data, copy in earlier:  # later calls wrote nothing into earlier outputs
            assert _same_bits(data, copy)


def test_untaped_pool_before_bias_is_bitwise_bias_first_on_zero_and_tie_corners():
    # the untaped stage pools the corner-major conv output and then adds the
    # bias; the taped stage adds first.  Windows of signed zeros, exact ties,
    # values a large bias rounds together and a bias that cancels the
    # maximum exactly, under a -0, a +0 and nonzero biases, in both float
    # widths, each window's corners in the four corner slabs
    for dtype in (np.float32, np.float64):
        one_up = np.nextafter(dtype(1), dtype(2))
        windows = np.array([
            [-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0], [-0.0] * 4, [0.0] * 4,
            [1, 1, 1, 1], [-1, -0.0, -1, 0.0], [-0.0, -1, 0.0, -1], [1, one_up, 1, one_up],
            [one_up, 1, one_up, 1], [-3, -3, -2, -2], [2, 2, -0.0, 0.0], [-2, 2, 2, -2],
        ], dtype=dtype)
        bias = np.array([-0.0, 0.0, 1, -1, 2.0 ** 60, -2, 2], dtype=dtype)
        conv = np.empty((4, 1, len(windows), 1, len(bias)), dtype=dtype)  # (corner, b, y', x', c)
        conv[:] = windows.T.reshape(4, 1, len(windows), 1, 1)
        biased = conv + bias
        want = np.maximum(np.maximum(np.maximum(biased[0], biased[1]), biased[2]), biased[3])
        zeros = want == 0
        assert np.any(np.signbit(want[zeros])) and not np.all(np.signbit(want[zeros]))
        got = autograd._pool_then_bias(conv, bias)
        assert _same_bits(got, want), dtype


def test_unrecorded_stages_chained_are_bitwise_the_composed_ops_and_alias_nothing():
    # two unrecorded stages, as infer runs them, the second fed the first's
    # C-contiguous output (so its taps are channels-last), against two
    # reference stages.  These batch sizes grow, shrink and regrow the
    # workspace, and float64 after float32 reinterprets its bytes
    earlier = []
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(82)
        k1, b1 = rng.normal(size=(4, 3, 3, 3)).astype(dtype), rng.normal(size=4).astype(dtype)
        k2, b2 = rng.normal(size=(5, 4, 3, 3)).astype(dtype), rng.normal(size=5).astype(dtype)
        params = [Tensor(p, requires_grad=True, dtype=dtype) for p in (k1, b1, k2, b2)]
        for batch in (2, 5, 1, 3):
            x = Tensor(rng.normal(size=(batch, 3, 16, 32)).astype(dtype).transpose(0, 2, 3, 1), dtype=dtype)
            with autograd.no_tape():
                mid = reference_stage(x, *params[:2], 0.01)
                want = reference_stage(mid, *params[2:], 0.01)
                first = conv_pool_leaky(x, *params[:2], 0.01)
                last = conv_pool_leaky(first, *params[2:], 0.01)
            assert first._tape is None and last._tape is None
            assert first.dtype == dtype and first.data.flags.c_contiguous
            assert _same_bits(first.data, mid.data), (dtype, batch)
            assert last.dtype == dtype and last.shape == (batch, 1, 2, 5)
            assert _same_bits(last.data, want.data), (dtype, batch)
            buffers = [buf for buf in vars(autograd._WORKSPACE).values() if isinstance(buf, np.ndarray)]
            assert set(vars(autograd._WORKSPACE)) == STAGE_ROLES
            assert not any(np.shares_memory(out.data, buf) for out in (first, last) for buf in buffers)
            earlier += [(out.data, out.data.copy()) for out in (first, last)]
    for data, copy in earlier:  # later calls wrote nothing into earlier outputs
        assert _same_bits(data, copy)


def _chained_stages(x, params, upstream, fused):
    """Two stages, the second fed the first's output, taped and backwarded
    under sum_all(out * upstream): (output, input gradient, parameter
    gradients), all channel-first.  Both run on the permuted (so not
    C-contiguous) input, as a stream does: ``fused`` as conv_pool_leaky,
    else as conftest.reference_stage."""
    dtype = x.dtype
    stage = conv_pool_leaky if fused else reference_stage
    xt = Tensor(x.transpose(0, 2, 3, 1), requires_grad=True, dtype=dtype)
    ps = [Tensor(p, requires_grad=True, dtype=dtype) for p in params]
    with Tape():
        last = stage(stage(xt, *ps[:2], 0.01), *ps[2:], 0.01)
        loss = sum_all(mul(last, Tensor(upstream.transpose(0, 2, 3, 1), dtype=dtype)))
    backward(loss)
    return last.data.transpose(0, 3, 1, 2), xt.grad.transpose(0, 3, 1, 2), [p.grad for p in ps]


def test_recorded_stages_chained_are_bitwise_the_composed_ops_and_alias_nothing():
    # the recorded path of the unrecorded test above: two taped stages, the
    # first on a channel-first input (its backward gathers its taps), against
    # two reference stages, with the workspace grown, shrunk and regrown and
    # reinterpreted across dtypes
    earlier = []
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(83)
        params = [rng.normal(size=shape).astype(dtype) for shape in ((4, 3, 3, 3), (4,), (5, 4, 3, 3), (5,))]
        for batch in (2, 5, 1, 3):
            x = rng.normal(size=(batch, 3, 16, 32)).astype(dtype)
            upstream = rng.normal(size=(batch, 5, 1, 2)).astype(dtype)
            out, dx, grads = _chained_stages(x, params, upstream, fused=True)
            want_out, want_dx, want_grads = _chained_stages(x, params, upstream, fused=False)
            for got, want in zip([out, dx, *grads], [want_out, want_dx, *want_grads]):
                assert got.dtype == dtype and _same_bits(got, want), (dtype, batch)
            assert set(vars(autograd._WORKSPACE)) == STAGE_ROLES
            buffers = [buf for buf in vars(autograd._WORKSPACE).values() if isinstance(buf, np.ndarray)]
            assert not any(np.shares_memory(arr, buf) for arr in (out, dx, *grads) for buf in buffers)
            earlier += [(arr, arr.copy()) for arr in (out, dx, *grads)]
    for data, copy in earlier:  # later calls wrote nothing into earlier outputs or gradients
        assert _same_bits(data, copy)


def test_two_tapes_on_one_thread_backwarded_in_either_order_give_their_own_bits():
    # a recorded stage's backward rebuilds its columns in the workspace from
    # its saved input, so a second tape recorded in between (growing or
    # shrinking the buffers) changes nothing
    rng = np.random.default_rng(84)
    params = [rng.normal(size=shape).astype(np.float32) for shape in ((4, 3, 3, 3), (4,), (5, 4, 3, 3), (5,))]
    xs = [rng.normal(size=(batch, 3, 16, 32)).astype(np.float32) for batch in (3, 6)]
    ups = [rng.normal(size=(len(x), 5, 1, 2)).astype(np.float32) for x in xs]
    alone = [_chained_stages(x, params, up, fused=True) for x, up in zip(xs, ups)]
    for order in ((0, 1), (1, 0)):
        runs = []
        for x, up in zip(xs, ups):
            xt = Tensor(x.transpose(0, 2, 3, 1), requires_grad=True)
            ps = [Tensor(p, requires_grad=True) for p in params]
            with Tape():
                last = conv_pool_leaky(conv_pool_leaky(xt, *ps[:2], 0.01), *ps[2:], 0.01)
                loss = sum_all(mul(last, Tensor(up.transpose(0, 2, 3, 1))))
            runs.append((loss, xt, ps))
        for n in order:
            backward(runs[n][0])
        for (_, xt, ps), (_, want_dx, want_grads) in zip(runs, alone):
            got = [xt.grad.transpose(0, 3, 1, 2)] + [p.grad for p in ps]
            assert all(_same_bits(g, w) for g, w in zip(got, [want_dx, *want_grads])), order


def test_conv_pool_leaky_tap_rows_for_any_item_size_kernel_and_layout():
    # the columns are copied as kw-tap items: 24-byte items in float64, 16-byte
    # items for kw = 4, and strided items from a sliced channels-last input
    rng = np.random.default_rng(90)
    wide = rng.normal(size=(2, 11, 12, 5)).astype(np.float32)
    cases = [  # (channel-first input, kernel shape)
        (rng.normal(size=(2, 3, 12, 8)), (5, 3, 3, 3)),
        (rng.normal(size=(2, 2, 8, 8)).astype(np.float32), (3, 2, 4, 4)),
        (rng.normal(size=(2, 2, 8, 8)).astype(np.float32), (3, 2, 3, 4)),
        (wide[:, 1:9, 2:10, 1:4].transpose(0, 3, 1, 2), (4, 3, 3, 3)),
    ]
    for n, (x, k_shape) in enumerate(cases):
        k = rng.normal(size=k_shape).astype(x.dtype)
        b = rng.normal(size=k_shape[0]).astype(x.dtype)
        ref = leaky_relu(maxpool2d(conv2d(Tensor(x, dtype=x.dtype), Tensor(k, dtype=x.dtype), Tensor(b, dtype=x.dtype))), 0.01)
        upstream = rng.normal(size=ref.shape).astype(x.dtype)
        untaped = conv_pool_leaky(Tensor(x.transpose(0, 2, 3, 1), dtype=x.dtype), Tensor(k, dtype=x.dtype), Tensor(b, dtype=x.dtype))
        assert untaped.dtype == x.dtype and _same_bits(untaped.data.transpose(0, 3, 1, 2), ref.data), n
        for contiguous in (False, True):
            fused, reference = _fused_and_reference(x, k, b, upstream, contiguous=contiguous)
            for got, want in zip(fused, reference):
                assert got.dtype == x.dtype and _same_bits(got, want), (n, contiguous)


def test_conv_pool_leaky_rezeroes_the_border_of_a_reused_pad_buffer():
    # a large call fills the pad buffer; a smaller one, padded channel-first
    # (a permuted input) or channels-last (a C-contiguous one), must find
    # its border zero again
    rng = np.random.default_rng(91)
    k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    large = Tensor(rng.uniform(1, 2, size=(3, 3, 16, 16)).transpose(0, 2, 3, 1))
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    border = np.ones((10, 10), dtype=bool)
    border[1:-1, 1:-1] = False
    upstream = rng.normal(size=(2, 4, 2, 2)).astype(np.float32)
    for contiguous in (False, True):
        xd = np.ascontiguousarray(x.transpose(0, 2, 3, 1)) if contiguous else x.transpose(0, 2, 3, 1)
        for taped in (False, True):
            conv_pool_leaky(large, Tensor(k), Tensor(b))
            pad = autograd._workspace("pad", (2, 10, 10, 3) if contiguous else (2, 3, 10, 10), np.dtype(np.float32))
            stale = pad[:, border] if contiguous else pad[:, :, border]
            assert np.count_nonzero(stale) > stale.size // 2  # the large input's interior
            if taped:
                fused, reference = _fused_and_reference(x, k, b, upstream, contiguous=contiguous)
                assert all(_same_bits(got, want) for got, want in zip(fused, reference)), contiguous
            else:
                got = conv_pool_leaky(Tensor(xd), Tensor(k), Tensor(b))
                assert _same_bits(got.data, reference_stage(Tensor(xd), Tensor(k), Tensor(b)).data), contiguous


def test_one_sample_blocks_of_a_strided_batch_keep_the_batch_tap_order(monkeypatch):
    # each sample of every other sample of a channels-last array is
    # C-contiguous while the batch is not, so the stage takes (c, i, j) taps;
    # run as one-sample blocks, each block must take them too.  Blocks this
    # small may round differently from one GEMM, hence the tolerance
    rng = np.random.default_rng(92)
    x = rng.normal(size=(6, 8, 8, 3)).astype(np.float32)[::2]
    k, b = rng.normal(size=(4, 3, 3, 3)).astype(np.float32), rng.normal(size=4).astype(np.float32)
    upstream = Tensor(rng.normal(size=(3, 2, 2, 4)).astype(np.float32))
    monkeypatch.setattr(autograd, "BLOCK_ROWS", 16)  # 16 GEMM rows a sample: a block each
    results = []
    for stage in (conv_pool_leaky, reference_stage):
        xt, kt, bt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape():
            out = stage(xt, kt, bt, 0.01)
            loss = sum_all(mul(out, upstream))
        backward(loss)
        results.append((out.data, xt.grad, kt.grad, bt.grad))
    for got, want in zip(*results):
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


# the default model's three stages: (H, W, C_in) input and (C_out, C_in) kernels
# with 1,024, 64 and 4 GEMM rows per sample; stage 1 runs in blocks from B=17,
# and fills its columns transposed from B=8.  Last, a one-channel stage 1,
# whose columns stay row-major at any batch
MODEL_STAGES = [((64, 64, 3), (32, 3)), ((16, 16, 32), (64, 32)), ((4, 4, 64), (128, 64)), ((64, 64, 3), (1, 3))]


def _stage_in_blocks(x, k, b, upstream, monkeypatch, one_block):
    """conv_pool_leaky's unrecorded output, then its recorded output and
    (x, kernels, bias) gradients under sum_all(out * upstream), and the
    GEMM rows of each block the unrecorded call filled columns for;
    ``one_block`` runs every batch as one block, with row-major columns."""
    rows, columns = [], autograd._columns

    def counted(*args):
        cols = columns(*args)
        rows.append(len(cols))
        return cols

    dtype = x.dtype
    with monkeypatch.context() as m:
        if one_block:
            m.setattr(autograd, "BLOCK_ROWS", 2**62)
        m.setattr(autograd, "_columns", counted)
        kt, bt = Tensor(k, requires_grad=True, dtype=dtype), Tensor(b, requires_grad=True, dtype=dtype)
        untaped = conv_pool_leaky(Tensor(x, dtype=dtype), kt, bt, 0.01).data
        blocks = list(rows)
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        with Tape():
            out = conv_pool_leaky(xt, kt, bt, 0.01)
            loss = sum_all(mul(out, Tensor(upstream, dtype=dtype)))
        backward(loss)
    return [untaped, out.data, xt.grad, kt.grad, bt.grad], blocks


def _reference_run(x, k, b, upstream):
    """conftest.reference_stage's output and (x, kernels, bias) gradients
    under sum_all(out * upstream)."""
    dtype = x.dtype
    xt, kt, bt = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x, k, b))
    with Tape():
        out = reference_stage(xt, kt, bt, 0.01)
        loss = sum_all(mul(out, Tensor(upstream, dtype=dtype)))
    backward(loss)
    return [out.data, xt.grad, kt.grad, bt.grad]


def _block_partial_sums(x, k, b, upstream):
    """The kernel and bias gradients of reference_stage run on each of the
    fused stage's batch blocks alone, added in block order from the first
    block's: the sums a blocked backward takes."""
    sums = None
    for lo, hi in autograd._batch_blocks(len(x), x.shape[1] * x.shape[2] // 4):
        parts = _reference_run(x[lo:hi], k, b, upstream[lo:hi])[2:]
        sums = parts if sums is None else [s + p for s, p in zip(sums, parts)]
    return sums


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_blocked_stage_is_bytewise_one_block_in_balanced_blocks(dtype, monkeypatch):
    for batch in (1, 8, 16, 17, 33, 65):
        for (h, w, c_in), (c_out, _) in MODEL_STAGES:
            rng = np.random.default_rng(batch)
            x = rng.normal(size=(batch, c_in, h, w)).astype(dtype).transpose(0, 2, 3, 1)
            if c_in > 3:  # stage 1 reads the permuted image, later stages a C-contiguous output
                x = np.ascontiguousarray(x)
            k = (rng.normal(size=(c_out, c_in, 3, 3)) * 0.2).astype(dtype)
            b = rng.normal(size=c_out).astype(dtype)
            upstream = rng.normal(size=(batch, h // 4, w // 4, c_out)).astype(dtype)
            got, blocks = _stage_in_blocks(x, k, b, upstream, monkeypatch, one_block=False)
            want, whole = _stage_in_blocks(x, k, b, upstream, monkeypatch, one_block=True)
            case = (batch, h, w, c_in)
            assert whole == [batch * h * w // 4] == [sum(blocks)], case
            assert len(blocks) == -(-sum(blocks) // autograd.BLOCK_ROWS), case
            if len(blocks) > 1:
                assert autograd.BLOCK_ROWS // 2 <= min(blocks) and max(blocks) <= autograd.BLOCK_ROWS, case
            ref = _reference_run(x, k, b, upstream)  # and both are its bits, transposed fills and all
            for g, want_g, ref_g in zip(got[:3], want, ref[:1] + ref):  # the values and the input gradient
                assert g.dtype == dtype and g.tobytes() == want_g.tobytes() == ref_g.tobytes(), case
            # the kernel and bias gradients add each block's partial sum over its rows in block order
            for g, want_g, ref_g, part_g in zip(got[3:], want[3:], ref[2:], _block_partial_sums(x, k, b, upstream)):
                assert want_g.tobytes() == ref_g.tobytes(), case
                assert g.dtype == dtype and g.tobytes() == part_g.tobytes(), case
            buffers = [buf for buf in vars(autograd._WORKSPACE).values() if isinstance(buf, np.ndarray)]
            assert not any(np.shares_memory(g, buf) for g in got for buf in buffers), case
    assert autograd._batch_blocks(65, 1024) == [(0, 13), (13, 26), (26, 39), (39, 52), (52, 65)]
    assert autograd._batch_blocks(17, 1024) == [(0, 8), (8, 17)]
    assert autograd._batch_blocks(2, 10**6) == [(0, 1), (1, 2)]  # at most one block a sample


def test_blocked_backward_grows_no_workspace_buffer_beyond_one_block():
    # a recorded B=64 stage 1, forward and backward, on a thread of its own
    # (so a fresh workspace): the backward runs block by block, so no buffer
    # outgrows a 16-sample block's conv output, a quarter of the batch's
    (h, w, c_in), (c_out, _) = MODEL_STAGES[0]
    rng = np.random.default_rng(93)
    x = rng.normal(size=(64, c_in, h, w)).astype(np.float32).transpose(0, 2, 3, 1)
    k = (rng.normal(size=(c_out, c_in, 3, 3)) * 0.2).astype(np.float32)
    b = rng.normal(size=c_out).astype(np.float32)
    sizes = {}

    def run():
        xt, kt, bt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape():
            loss = sum_all(conv_pool_leaky(xt, kt, bt, 0.01))
        backward(loss)
        sizes.update((role, buf.nbytes) for role, buf in vars(autograd._WORKSPACE).items())

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(60)
    assert not thread.is_alive()
    assert autograd._batch_blocks(64, h * w // 4) == [(0, 16), (16, 32), (32, 48), (48, 64)]
    block_conv = 4 * 16 * (h // 4) * (w // 4) * c_out * 4
    assert sizes["conv"] == block_conv and max(sizes.values()) <= block_conv, sizes
    assert set(sizes) == STAGE_ROLES


def _centre_tap_stage(grid, slope=0.01):
    """conv_pool_leaky's output and input gradient under sum_all, for a
    centre-tap kernel and an input whose even-indexed pixels are ``grid``
    (zeros elsewhere): the conv output is then ``grid``, and each of its
    pixels gets its gradient from no other tap, so ``grad[::2, ::2]`` is the
    routed pool gradient."""
    dtype = grid.dtype
    x = np.zeros((1, 2 * grid.shape[0], 2 * grid.shape[1], 1), dtype)
    x[0, ::2, ::2, 0] = grid
    k = np.zeros((1, 1, 3, 3), dtype)
    k[0, 0, 1, 1] = 1
    xt = Tensor(x, requires_grad=True, dtype=dtype)
    with Tape():
        out = conv_pool_leaky(xt, Tensor(k, dtype=dtype), Tensor(np.zeros(1), dtype=dtype), slope)
        loss = sum_all(out)
    backward(loss)
    assert np.count_nonzero(xt.grad[0, 1::2]) == np.count_nonzero(xt.grad[0, :, 1::2]) == 0
    return out.data[0, :, :, 0], xt.grad[0, ::2, ::2, 0]


def test_conv_pool_leaky_routes_a_nan_window_to_its_first_max_before_the_first_nan():
    nan = np.nan
    windows = [  # corners in row-major order, and the corner the gradient reaches
        ([1, 2, 3, 4], 3), ([4, 4, 4, 4], 0), ([1, nan, 3, 2], 0), ([nan, 5, 1, 2], 0),
        ([1, 4, nan, 9], 1), ([2, 2, 1, nan], 0), ([nan, nan, 1, 1], 0), ([-1, -3, -2, nan], 0),
    ]
    for dtype in (np.float32, np.float64):
        grid = np.zeros((4, 8), dtype)  # 2 x 4 pooling windows
        for n, (corners, _) in enumerate(windows):
            wy, wx = divmod(n, 4)
            grid[2 * wy : 2 * wy + 2, 2 * wx : 2 * wx + 2] = np.reshape(corners, (2, 2))
        out, routed = _centre_tap_stage(grid)
        assert np.count_nonzero(routed) == len(windows)
        for n, (corners, corner) in enumerate(windows):
            wy, wx = divmod(n, 4)
            has_nan = np.isnan(corners).any()
            want = np.zeros(4, dtype)
            want[corner] = dtype(0.01) if has_nan else 1  # a NaN maximum is not >= 0
            assert np.array_equal(routed[2 * wy : 2 * wy + 2, 2 * wx : 2 * wx + 2].reshape(4), want), (dtype, corners)
            assert np.isnan(out[wy, wx]) == has_nan


def test_conv_pool_leaky_slope_follows_the_pooled_sign_where_the_output_underflows():
    # -tiny * slope rounds to -0, so the output is >= 0 while the pooled
    # maximum is not; the composed leaky_relu takes the slope from the latter
    for dtype in (np.float32, np.float64):
        tiny = np.nextafter(dtype(0), dtype(1))
        grid = np.array([[-tiny, -2 * tiny, 1, -1], [-3 * tiny, -tiny, 0, -1]], dtype)
        out, routed = _centre_tap_stage(grid)
        assert out[0, 0] == 0 and np.signbit(out[0, 0]) and out[0, 1] == 1
        want = np.array([[0.01, 0, 1, 0], [0, 0, 0, 0]], dtype)
        assert np.array_equal(routed, want), dtype
        x = Tensor(np.repeat(np.repeat(grid, 2, 0), 2, 1)[None, None], dtype=dtype)  # the reference, through conv2d
        k = np.zeros((1, 1, 3, 3), dtype)
        k[0, 0, 1, 1] = 1
        composed = leaky_relu(maxpool2d(conv2d(x, Tensor(k, dtype=dtype), Tensor(np.zeros(1), dtype=dtype))), 0.01)
        assert _same_bits(out, composed.data[0, 0])


def test_grad_conv_pool_leaky_fused():
    rng = np.random.default_rng(24)
    x = _rand64(rng, (2, 8, 8, 3))
    k = _rand64(rng, (4, 3, 3, 3))
    b = _rand64(rng, (4,))

    def f():
        out = conv_pool_leaky(x, k, b, 0.01)
        return sum_all(mul(out, out))

    assert grad_check(f, [x, k, b], samples=60, seed=4) < 1e-5


def test_conv_pool_leaky_validates_shapes_and_slope():
    x = Tensor(np.zeros((2, 8, 8, 3), dtype=np.float32))
    k = Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32))
    b = Tensor(np.zeros(4, dtype=np.float32))
    assert conv_pool_leaky(x, k, b).shape == (2, 2, 2, 4)
    assert conv_pool_leaky(Tensor(x.data[:1]), k, b).shape == (1, 2, 2, 4)
    with pytest.raises(DimensionError):  # channel mismatch
        conv_pool_leaky(Tensor(np.zeros((2, 8, 8, 2))), k, b)
    with pytest.raises(DimensionError):  # bias shape
        conv_pool_leaky(x, k, Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):  # conv output 3x3 cannot pool 2x2
        conv_pool_leaky(Tensor(np.zeros((2, 6, 6, 3))), k, b)
    with pytest.raises(DimensionError):  # rank
        conv_pool_leaky(Tensor(np.zeros((8, 8))), k, b)
    with pytest.raises(DimensionError, match=r"expects \(B,H,W,C\)"):  # no batch axis
        conv_pool_leaky(Tensor(x.data[0]), k, b)
    with pytest.raises(UsageError):
        conv_pool_leaky(x, k, b, slope=1.0)


# ---------------------------------------------------------------------------
# backward rules against central differences (64-bit)


def _rand64(rng, shape, grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=grad, dtype=np.float64)


def test_grad_matmul_linear_softmax():
    rng = np.random.default_rng(20)
    a = _rand64(rng, (3, 4))
    b = _rand64(rng, (4, 5))
    w = _rand64(rng, (2, 5))
    bias = _rand64(rng, (2,))

    def f():
        h = matmul(a, b)
        h = softmax_rows(h)
        out = linear(h, w, bias)
        return sum_all(mul(out, out))

    assert grad_check(f, [a, b, w, bias], samples=60, seed=0) < 1e-6


def test_grad_elementwise_broadcast():
    rng = np.random.default_rng(21)
    x = _rand64(rng, (3, 2, 4))
    y = _rand64(rng, (2, 4))
    z = _rand64(rng, (1, 2, 1))

    def f():
        out = add(mul(x, y), z)
        out = sub(out, scale(y, 0.3))
        return sum_all(mul(out, out))

    assert grad_check(f, [x, y, z], samples=60, seed=1) < 1e-6


def test_grad_conv_pool_leaky():
    rng = np.random.default_rng(22)
    x = _rand64(rng, (2, 3, 8, 8))
    k = _rand64(rng, (4, 3, 3, 3))
    b = _rand64(rng, (4,))

    def f():
        out = leaky_relu(maxpool2d(conv2d(x, k, b, stride=2, padding=1)), 0.01)
        return sum_all(mul(out, out))

    assert grad_check(f, [x, k, b], samples=60, seed=2) < 1e-5


def test_grad_cross_entropy_and_velocity_and_concat():
    rng = np.random.default_rng(23)
    x = _rand64(rng, (4, 3, 6))
    w = _rand64(rng, (3, 36))
    labels = np.array([0, 2, 1, 0])

    def f():
        v = frame_velocity(x, 0.5)
        both = concat([x, v], axis=-1)
        flat = reshape(both, (4, 36))
        return cross_entropy(linear(flat, w), labels)

    assert grad_check(f, [x, w], samples=60, seed=3) < 1e-6


def test_grad_leaky_slope_at_negative_input():
    x = Tensor(np.array([-3.0]), requires_grad=True, dtype=np.float64)

    def f():
        return sum_all(leaky_relu(x, 0.01))

    with Tape():
        loss = f()
    backward(loss)
    assert x.grad[0] == pytest.approx(0.01)
    h = 1e-4
    x.data[0] = -3.0 + h
    up = f().item()
    x.data[0] = -3.0 - h
    down = f().item()
    assert (up - down) / (2 * h) == pytest.approx(0.01, abs=1e-9)


def test_backward_accumulates_on_reuse_and_intermediates():
    x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
    with Tape():
        y = mul(x, x)           # y = x^2
        z = add(y, y)           # z = 2 x^2, y used twice
        loss = sum_all(z)
    backward(loss)
    assert x.grad[0] == pytest.approx(8.0)   # d/dx 2x^2 = 4x
    assert y.grad is not None and y.grad[0] == pytest.approx(2.0)


def test_backward_requires_scalar_and_handles_no_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape():
        y = mul(x, x)
    with pytest.raises(UsageError):
        backward(y)
    leaf = Tensor(np.array(5.0), requires_grad=True)
    backward(leaf)  # degenerate: loss is itself a leaf
    assert leaf.grad == pytest.approx(1.0)


def test_double_backward_accumulates_grads():
    x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
    for _ in range(2):
        with Tape():
            loss = sum_all(mul(x, x))
        backward(loss)
    assert x.grad[0] == pytest.approx(12.0)  # 6.0 accumulated twice


def test_intermediate_grads_are_read_only_views_of_the_copied_values():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True, dtype=np.float64)
    with Tape():
        h = matmul(x, w)
        a = leaky_relu(h, 0.1)
        loss = sum_all(mul(a, a))
    backward(loss)
    da = a.data + a.data  # what backward used to copy into each .grad
    dh = np.where(h.data >= 0, da, da * 0.1)
    for t, want in ((loss, np.ones(())), (a, da), (h, dh)):
        assert not t.grad.flags.writeable
        assert _same_bits(t.grad, want)
    with pytest.raises(ValueError):
        h.grad[0, 0] = 1.0
    assert _same_bits(x.grad, dh @ w.data.T) and _same_bits(w.grad, x.data.T @ dh)
    for leaf in (x, w):  # only leaves own (writeable, accumulating) gradients
        assert leaf.grad.flags.writeable
        for t in (loss, a, h):
            assert not np.shares_memory(leaf.grad, t.grad)


def test_two_backwards_through_pass_through_ops_accumulate_the_leaf():
    # reshape, permute, concat and an equal-shape add hand their upstream
    # gradient on as views, so every intermediate's .grad aliases one buffer
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True, dtype=np.float64)
    weight = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
    steps = []
    for _ in range(2):
        with Tape():
            p = permute(x, (1, 0))
            r = reshape(p, (2, 3))
            j = concat([r, r], axis=0)
            s = add(j, j)
            loss = sum_all(mul(s, weight))
        backward(loss)
        inter = (p, r, j, s)
        for t in inter:
            assert not t.grad.flags.writeable and not np.shares_memory(x.grad, t.grad)
        steps.append([(t.grad, t.grad.copy()) for t in inter])
    g = weight.data + weight.data
    once = (g[:2] + g[2:]).reshape(3, 2)
    assert _same_bits(x.grad, once.T + once.T)
    assert _same_bits(steps[0][0][1], once) and _same_bits(steps[0][3][1], weight.data)
    for grads in steps:  # the second backward wrote nothing into the first's grads
        for grad, copy in grads:
            assert _same_bits(grad, copy)


def test_an_intermediate_reused_as_a_leaf_accumulates_into_its_own_copy():
    x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
    with Tape():
        y = mul(x, x)
        loss = sum_all(y)
    backward(loss)
    first = y.grad
    with Tape():  # y was produced on the consumed tape, so here it is a leaf
        loss = sum_all(scale(y, 2.0))
    backward(loss)
    assert y.grad[0] == 3.0 and y.grad.flags.writeable
    assert first[0] == 1.0 and x.grad[0] == 6.0


def test_ops_without_tape_record_nothing():
    x = Tensor(np.ones(4), requires_grad=True)
    y = mul(x, x)
    assert y._tape is None
    tape = Tape()
    with tape:
        mul(x, x)
    assert len(tape.nodes) == 1


def test_backward_frees_the_step_without_gc():
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    gc.disable()
    try:
        with Tape() as tape:
            hidden = mul(x, x)
            loss = sum_all(add(hidden, hidden))
        alive = weakref.ref(tape)
        backward(loss)
        assert not tape.nodes
        del tape, hidden, loss
        assert alive() is None  # freed by reference counting alone
    finally:
        gc.enable()
    assert np.array_equal(x.grad, np.full((4, 4), 4.0))


def _probe(x, back, saved=None):
    """A custom op recorded through _finish: its output is a copy of x's
    data, and ``back`` is its backward rule, closing over ``saved``."""
    return autograd._finish(x.data.copy(), (x,), lambda d: back(d, saved), "probe")


def test_backward_releases_each_node_once_its_rule_has_run():
    x = Tensor(np.arange(1.0, 4.0), requires_grad=True, dtype=np.float64)
    held = np.full(3, 2.0)  # only the later node's closure keeps it
    alive = weakref.ref(held)
    seen = []

    def earlier_back(d, _):
        seen.append((alive(), middle_data()))
        return (d,)

    with Tape() as tape:
        y = _probe(x, earlier_back)
        z = _probe(y, lambda d, w: (d * w,), held)
        middle_data = weakref.ref(z.data)  # held by z's node and by the caller, until both let go
        loss = sum_all(z)
    del held, z
    assert alive() is not None and middle_data() is not None
    backward(loss)
    assert seen == [(None, None)]  # the later node, its closure and its output were gone
    assert not tape.nodes and y.grad is not None and not y.grad.flags.writeable
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_a_backward_that_raises_leaves_the_tape_consumed():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)

    def fail(d, _):
        raise RuntimeError("backward rule failed")

    with Tape() as tape:
        loss = sum_all(_probe(x, fail))
    with pytest.raises(RuntimeError, match="backward rule failed"):
        backward(loss)
    assert not tape.nodes
    with pytest.raises(UsageError, match="already consumed"):
        backward(loss)
    assert x.grad is None


def test_second_backward_over_a_consumed_tape_raises():
    x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
    with Tape():
        loss = sum_all(mul(x, x))
    backward(loss)
    with pytest.raises(UsageError):
        backward(loss)
    assert x.grad[0] == pytest.approx(6.0)


def test_tape_records_only_its_own_thread():
    x = Tensor(np.ones(4), requires_grad=True)
    opened, other_done = threading.Event(), threading.Event()
    recorded = []

    def owner():
        with Tape() as tape:
            opened.set()
            other_done.wait(10)
            recorded.append(len(tape.nodes))

    thread = threading.Thread(target=owner)
    thread.start()
    assert opened.wait(10)
    y = mul(x, x)  # no tape open in this thread
    other_done.set()
    thread.join(10)
    assert not thread.is_alive()
    assert y._tape is None
    assert recorded == [0]


def test_grad_check_rejects_float32():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        grad_check(lambda: sum_all(x), [x])


# ---------------------------------------------------------------------------
# Adam


def test_adam_matches_hand_recurrence():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    params = {"p": p}
    state = AdamState(params)
    grads = [np.array([0.5, -1.0], dtype=np.float32),
             np.array([-0.25, 0.75], dtype=np.float32),
             np.array([1.5, 0.1], dtype=np.float32)]
    expect = p.data.astype(np.float64).copy()
    m = np.zeros(2)
    v = np.zeros(2)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        adam_step(params, state, lr)
        g64 = g.astype(np.float64)
        m = b1 * m + (1 - b1) * g64
        v = b2 * v + (1 - b2) * g64 ** 2
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        expect -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.allclose(p.data, expect, atol=1e-6), f"step {t}"
    assert state.step == 3
    assert np.all(state.v["p"] >= 0)


def test_adam_skips_parameters_without_grads():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    params = {"p": p, "q": q}
    state = AdamState(params)
    p.grad = np.full(2, 0.1, dtype=np.float32)
    adam_step(params, state, 0.1)
    assert not np.array_equal(p.data, np.ones(2))
    assert np.array_equal(q.data, np.ones(2))
    assert not np.any(state.m["q"])
    assert p.grad is None  # cleared after the step


def test_adam_step_reduces_quadratic_loss():
    target = np.array([3.0, -1.0], dtype=np.float32)
    p = Tensor(np.zeros(2), requires_grad=True)
    params = {"p": p}
    state = AdamState(params)
    first = None
    for i in range(200):
        with Tape():
            diff = sub(p, Tensor(target))
            loss = sum_all(mul(diff, diff))
        if first is None:
            first = loss.item()
        backward(loss)
        adam_step(params, state, 0.1)
    assert loss.item() < first * 1e-3
    assert np.allclose(p.data, target, atol=0.05)
