"""Four-stream CNN classifier: forward semantics and the static cost model
(multiply-accumulate census and parameter count)."""

import importlib
import itertools
import multiprocessing
import sys
import threading
import types
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import (
    composed_images, conv_pool_leaky, embed_image, image_source, perfbench_spans, reference_stage, stem_stage,
)

from skelact import autograd, recognizer
from skelact.autograd import (
    Tape, Tensor, backward, concat, cross_entropy, reshape,
)
from skelact.encoder import EncodedBundle, EnhanceFlags, encode, stream_image
from skelact.errors import DimensionError, UsageError
from skelact.model import ModelConfig, ModelParams, param_spec
from skelact.optim import AdamState, adam_step
from skelact.recognizer import count_flops, forward, infer, stream_forward
from skelact.skeleton import ntu_topology
from skelact.synth import humanoid_topology
from skelact.training import VARIANT_GRID

CHAIN_BONES = ((0, 1), (1, 2), (2, 3))


def _config(**kw):
    base = dict(joints=4, classes=3, bones=CHAIN_BONES, root=0, labels=(0, 1, 2),
                frames=64, channels=(2, 3, 4), fc_hidden=8, scale_hidden=6)
    base.update(kw)
    return ModelConfig(**base)


def _ntu_config(**kw):
    topo = ntu_topology()
    base = dict(joints=25, classes=60, bones=topo.bones, root=topo.root,
                labels=tuple(range(1, 61)))
    base.update(kw)
    return ModelConfig(**base)


def _uniform_attention(batch, t, dtype=np.float32):
    """A (B, T, T) attention map of 1/T everywhere."""
    return Tensor(np.full((batch, t, t), 1.0 / t), dtype=dtype)


def _bundle(channels):
    """An encoder bundle of the given (B, 3, J, T) stream channels under a
    uniform attention map."""
    chans = tuple(Tensor(np.asarray(c, dtype=np.float32)) for c in channels)
    return EncodedBundle(chans, _uniform_attention(*chans[0].shape[::3]))


# ---------------------------------------------------------------------------
# forward path


def test_stream_collapses_image_to_feature_column():
    params = ModelParams.build(_config(), seed=0)
    rng = np.random.default_rng(0)
    img = rng.normal(size=(1, 3, 64, 64)).astype(np.float32)
    feats = stream_forward(img, params.tensors, 0)
    assert feats.shape == (1, 4)
    batch = stream_forward(np.concatenate([img, img]), params.tensors, 0)
    assert batch.shape == (2, 4)
    assert np.array_equal(batch.data[0], batch.data[1])
    assert np.allclose(batch.data[0], feats.data[0], atol=1e-6)
    with pytest.raises(DimensionError):
        stream_forward(np.zeros((1, 3, 32, 32), dtype=np.float32), params.tensors, 0)
    with pytest.raises(DimensionError, match=r"expects a \(B,3,T,T\)"):  # no batch axis
        stream_forward(img[0], params.tensors, 0)


def test_batch_of_one_stream_equals_row_zero_of_batch():
    tensors = ModelParams.build(_config(), seed=0).tensors
    rng = np.random.default_rng(25)
    images = rng.normal(size=(3, 3, 64, 64)).astype(np.float32)
    batched = stream_forward(images, tensors, 0).data
    assert np.array_equal(stream_forward(images[:1], tensors, 0).data, batched[:1])


def test_untaped_streams_in_concurrent_threads_match_their_single_thread_results():
    # each thread's untaped stages get their own workspace; a shared one would
    # let one thread's columns overwrite another's between the copy and the
    # GEMM, and, for infer, one thread's image overwrite another's before
    # its stream runs
    params = ModelParams.build(_config(channels=(8, 16, 32)), seed=0)
    rng = np.random.default_rng(26)
    inputs = [rng.normal(size=(4, 3, 64, 64)).astype(np.float32) for _ in range(3)]
    sequences = [(rng.normal(size=(4, 64, 4, 3)) * 0.3).astype(np.float32) for _ in range(3)]
    alone = [stream_forward(x, params.tensors, 0).data for x in inputs]
    alone_logits = [infer(x, params) for x in sequences]
    start = threading.Event()
    results = [[] for _ in inputs]
    logits = [[] for _ in inputs]

    def run(i):
        start.wait(10)
        for _ in range(20):
            results[i].append(stream_forward(inputs[i], params.tensors, 0).data)
            logits[i].append(infer(sequences[i], params))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        start.set()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(alone, results):
        assert len(got) == 20
        assert all(np.array_equal(g.view(np.uint32), want.view(np.uint32)) for g in got)
    for want, got in zip(alone_logits, logits):
        assert len(got) == 20
        assert all(np.array_equal(g.view(np.uint32), want.view(np.uint32)) for g in got)


def test_zero_images_give_zero_logits():
    params = ModelParams.build(_config(), seed=0)
    zeros = [np.zeros((1, 3, 4, 64), dtype=np.float32)] * 4
    logits = forward(_bundle(zeros), params)
    assert logits.shape == (1, 3)
    assert not np.any(logits.data)  # every bias starts at zero


def test_forward_is_positively_homogeneous():
    # leaky ReLU, max pooling, the attention product-and-add and bias-free
    # affine maps all commute with positive scaling, so doubling the
    # channels exactly doubles the logits
    params = ModelParams.build(_config(), seed=1)
    rng = np.random.default_rng(1)
    channels = [rng.normal(size=(1, 3, 4, 64)).astype(np.float32) for _ in range(4)]
    base = forward(_bundle(channels), params).data
    twice = forward(_bundle([2.0 * c for c in channels]), params).data
    assert np.allclose(twice, 2.0 * base, atol=1e-4)


def test_stream_order_matters():
    params = ModelParams.build(_config(), seed=2)
    rng = np.random.default_rng(2)
    channels = [rng.normal(size=(1, 3, 4, 64)).astype(np.float32) for _ in range(4)]
    base = forward(_bundle(channels), params).data
    swapped = forward(_bundle([channels[1], channels[0]] + channels[2:]), params).data
    assert not np.allclose(base, swapped, atol=1e-3)


def test_forward_rejects_stream_mismatch():
    params = ModelParams.build(_config(), seed=0)  # 4 streams
    rng = np.random.default_rng(3)
    channels = [rng.normal(size=(1, 3, 4, 64)).astype(np.float32) for _ in range(2)]
    with pytest.raises(DimensionError, match="channels for 2 streams.*4 streams"):
        forward(_bundle(channels), params)


def test_batched_forward_matches_single():
    params = ModelParams.build(_config(), seed=3)
    rng = np.random.default_rng(4)
    channels = [rng.normal(size=(2, 3, 4, 64)).astype(np.float32) for _ in range(4)]
    batched = forward(_bundle(channels), params).data
    for b in range(2):
        single = forward(_bundle([c[b : b + 1] for c in channels]), params).data
        assert np.allclose(batched[b], single[0], atol=1e-5)


def test_training_gradients_match_channel_first_stream_bitwise(monkeypatch):
    # every gradient, the encoder's included, must come out as a taped stream
    # of separate nodes produced it: three reference stages (the first on
    # the channel-first image with (c, i, j) taps, the others on the output
    # arrays before them with (i, j, c) taps) and a reshape.  The stem's
    # input gradient layout decides the summation order of the temporal
    # embeddings' gradients
    reference_calls = []

    def channel_first_stream(image, tensors, i):
        reference_calls.append(i)
        x = image
        for n in (1, 2, 3):
            x = reference_stage(x, tensors[f"stream{i}.conv{n}.kernels"], tensors[f"stream{i}.conv{n}.bias"],
                                image=n == 1)
        return reshape(x, (len(x.data), x.shape[-1]))

    # over three Adam steps, so that a gradient aliased across steps shows
    rng = np.random.default_rng(6)
    x = (rng.normal(size=(3, 64, 4, 3)) * 0.3).astype(np.float32)
    labels = np.array([0, 2, 1])
    runs = []
    fused_streams = recognizer._streams

    def channel_first_streams(bundle, params):
        images = composed_images(bundle, params.encoder, embed_image)
        return concat([channel_first_stream(image, params.tensors, i) for i, image in enumerate(images)], axis=-1)

    for streams_fn in (fused_streams, channel_first_streams):
        monkeypatch.setattr(recognizer, "_streams", streams_fn)
        params = ModelParams.build(_config(), seed=5)
        named = params.named_tensors()
        state = AdamState(named)
        steps = []
        for _ in range(3):
            with Tape():
                logits = forward(encode(x, params.encoder), params)
                loss = cross_entropy(logits, labels)
            backward(loss)
            steps.append((logits.data, {k: t.grad for k, t in params.tensors.items() if t.requires_grad}))
            adam_step(named, state, 1e-2)
        runs.append(steps)
    assert reference_calls == [0, 1, 2, 3] * 3  # the reference run took the reference stages
    for step, ((fused_logits, fused), (ref_logits, ref)) in enumerate(zip(*runs)):
        assert np.array_equal(fused_logits, ref_logits), step
        for name, grad in ref.items():
            assert grad is not None and np.array_equal(fused[name], grad), (step, name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", [name for name, _ in VARIANT_GRID])
def test_training_steps_match_the_composed_encoder_images_bitwise(monkeypatch, variant, dtype):
    # the streams node's image body, on the workers and inline, against a
    # taped reference: each image as the matmul, attention and temporal
    # nodes it fuses, then the sequential stages.  Logits and every gradient
    # over three Adam steps, with every parameter perturbed so the
    # zero-initialised temporal vectors matter from the first step
    flags = dict(VARIANT_GRID)[variant]
    rng = np.random.default_rng(29)
    x = (rng.normal(size=(3, 64, 4, 3)) * 0.3).astype(dtype)
    labels = np.array([0, 2, 1])
    runs = []
    for patch in ({}, {"_blas_thread_calls": lambda: None}, {"_streams": _composed_streams}):
        with monkeypatch.context() as m:  # on the workers, inline, then the reference
            for name, value in patch.items():
                m.setattr(recognizer, name, value)
            params = ModelParams.build(_config(flags=flags), seed=11, dtype=dtype)
            noise = np.random.default_rng(30)
            for tensor in params.named_tensors().values():
                tensor.data += (noise.normal(size=tensor.shape) * 0.1).astype(dtype)
            named = params.named_tensors()
            state = AdamState(named)
            steps = []
            for _ in range(3):
                with Tape():
                    logits = forward(encode(x, params.encoder), params)
                    loss = cross_entropy(logits, labels)
                backward(loss)
                steps.append((logits.data, {k: t.grad for k, t in params.tensors.items() if t.requires_grad}))
                adam_step(named, state, 1e-2)
        runs.append(steps)
    for fused_run in runs[:2]:
        for step, ((fused_logits, fused), (ref_logits, ref)) in enumerate(zip(fused_run, runs[2])):
            assert np.array_equal(fused_logits.view(np.uint8), ref_logits.view(np.uint8)), step
            for name, grad in ref.items():
                assert grad is not None and np.array_equal(fused[name].view(np.uint8), grad.view(np.uint8)), (step, name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", [name for name, _ in VARIANT_GRID])
def test_infer_is_bitwise_the_taped_forward(variant, dtype):
    flags = dict(VARIANT_GRID)[variant]
    params = ModelParams.build(_config(flags=flags), seed=9, dtype=dtype)
    rng = np.random.default_rng(27)
    for tensor in params.named_tensors().values():  # biases and temporal vectors start at 0
        tensor.data += (rng.normal(size=tensor.shape) * 0.1).astype(dtype)
    x = (rng.normal(size=(64, 64, 4, 3)) * 0.3).astype(dtype)
    for batch in (x, x[:6], x[:1]):
        got = infer(batch, params)
        with Tape():
            want = forward(encode(batch, params.encoder), params)
        assert want._tape is not None
        assert got.dtype == dtype and got.shape == want.shape, batch.shape
        assert np.array_equal(got, want.data) and np.array_equal(np.signbit(got), np.signbit(want.data)), batch.shape


def test_infer_logits_alias_no_workspace_and_later_calls_change_nothing():
    params = ModelParams.build(_config(), seed=10)
    rng = np.random.default_rng(28)
    earlier = []
    for batch in (5, 2, 7, 1):  # grows, shrinks and regrows the workspace
        logits = infer((rng.normal(size=(batch, 64, 4, 3)) * 0.3).astype(np.float32), params)
        buffers = [buf for buf in vars(autograd._WORKSPACE).values() if isinstance(buf, np.ndarray)]
        assert set(vars(autograd._WORKSPACE)) == {"pad", "cols", "conv"}
        assert not any(np.shares_memory(logits, buf) for buf in buffers)
        earlier.append((logits, logits.copy()))
    for got, copy in earlier:
        assert np.array_equal(got.view(np.uint32), copy.view(np.uint32))


def test_infer_rejects_sequences_of_the_wrong_shape():
    params = ModelParams.build(_config(), seed=0)
    for shape in ((32, 4, 3), (2, 64, 5, 3), (64, 4, 2), (4, 3), (1, 2, 64, 4, 3), (64, 4, 3)):
        with pytest.raises(DimensionError, match="infer expects"):
            infer(np.zeros(shape, dtype=np.float32), params)


def test_infer_and_the_taped_forward_of_an_empty_batch_give_empty_logits():
    params = ModelParams.build(_config(), seed=0)
    x = np.zeros((0, 64, 4, 3), dtype=np.float32)
    assert infer(x, params).shape == (0, 3)
    with Tape():
        assert forward(encode(x, params.encoder), params).shape == (0, 3)


def _humanoid_params(dtype=np.float32):
    topo = humanoid_topology()
    config = ModelConfig(joints=topo.joint_count, classes=8, bones=topo.bones, root=topo.root,
                         labels=tuple(range(8)))
    params = ModelParams.build(config, seed=11, dtype=dtype)
    rng = np.random.default_rng(29)
    for tensor in params.named_tensors().values():  # biases and temporal vectors start at 0
        tensor.data += (rng.normal(size=tensor.shape) * 0.1).astype(dtype)
    return params, (rng.normal(size=(128, 64, topo.joint_count, 3)) * 0.3).astype(dtype)


def _spy_rows(monkeypatch):
    """Record (thread name, rows) of every infer body run."""
    runs, body = [], recognizer._infer_rows

    def spy(x, params):
        runs.append((threading.current_thread().name, len(x)))
        return body(x, params)

    monkeypatch.setattr(recognizer, "_infer_rows", spy)
    return runs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_infer_halves_are_bitwise_the_taped_forward_on_workers_and_inline(dtype, monkeypatch):
    params, x = _humanoid_params(dtype)
    runs = _spy_rows(monkeypatch)
    for batch in (1, 15, 16, 17, 37, 64, 128):
        seqs = x[:batch]
        with Tape():
            want = forward(encode(seqs, params.encoder), params).data
        runs.clear()
        got = infer(seqs, params)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), batch
        if batch < recognizer.SPLIT_MIN:
            assert runs == [("MainThread", batch)]
        else:
            assert sorted(rows for _, rows in runs) == [batch // 2, -(-batch // 2)]
            worker = "skelact-worker" if recognizer.infer_workers() == 2 else "MainThread"
            assert all(name.startswith(worker) for name, _ in runs)
        with monkeypatch.context() as m:  # no BLAS hook: both halves inline
            m.setattr(recognizer, "_blas_thread_calls", lambda: None)
            runs.clear()
            inline = infer(seqs, params)
        assert np.array_equal(inline.view(np.uint8), want.view(np.uint8)), batch
        assert all(name == "MainThread" for name, _ in runs)


def test_batched_infer_keeps_the_callers_numpy_errstate():
    params = ModelParams.build(_config(), seed=16)
    for tensor in params.named_tensors().values():
        tensor.data += np.float32(1e30)  # the first stage's GEMM overflows
    x = (np.random.default_rng(34).normal(size=(20, 64, 4, 3)) * 0.3).astype(np.float32)
    for seqs in (x[:4], x):  # whole batch, halves
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            infer(seqs, params)


def test_infer_records_nothing_on_an_active_tape(monkeypatch):
    params = ModelParams.build(_config(), seed=12)
    x = (np.random.default_rng(30).normal(size=(20, 64, 4, 3)) * 0.3).astype(np.float32)
    for inline in (False, True):
        with monkeypatch.context() as m:
            if inline:
                m.setattr(recognizer, "_blas_thread_calls", lambda: None)
            with Tape() as tape:
                for seqs in (x[:1], x[:4], x):  # batches of one and four, halves
                    infer(seqs, params)
        assert tape.nodes == [], inline


@pytest.fixture
def two_blas_threads():
    """OpenBLAS set to 2 threads, not the 1 a call on the workers leaves it
    at, and put back after the test; None when no OpenBLAS is loaded."""
    calls = recognizer._blas_thread_calls()
    if calls is None:
        yield None
        return
    get_threads, set_threads = calls
    original = get_threads()
    set_threads(2)
    try:
        yield 2
    finally:
        set_threads(original)


def test_batched_infer_and_training_on_the_workers_leave_one_blas_thread(two_blas_threads):
    # a call that runs on the workers sets OpenBLAS to one thread and leaves
    # it there; a call that runs whole on the caller's thread sets nothing
    if two_blas_threads is None:
        pytest.skip("no OpenBLAS loaded")
    on_workers = 1 if recognizer.infer_workers() == 2 else two_blas_threads
    params = ModelParams.build(_config(), seed=13)
    x = (np.random.default_rng(31).normal(size=(32, 64, 4, 3)) * 0.3).astype(np.float32)
    infer(x[:4], params)
    assert recognizer.blas_threads() == two_blas_threads
    infer(x, params)
    assert recognizer.blas_threads() == on_workers
    recognizer._blas_thread_calls()[1](2)
    with Tape():
        forward(encode(x[:4], params.encoder), params)
    assert recognizer.blas_threads() == on_workers


def test_concurrent_batched_infers_give_their_own_bits_and_leave_one_blas_thread(two_blas_threads):
    # one call at a time holds the workers; a call that finds them busy runs
    # its halves inline, with the same bits
    params = ModelParams.build(_config(), seed=14)
    rng = np.random.default_rng(32)
    batches = [(rng.normal(size=(16 + i, 64, 4, 3)) * 0.3).astype(np.float32) for i in range(3)]
    alone = [infer(x, params) for x in batches]
    if two_blas_threads is not None:
        recognizer._blas_thread_calls()[1](two_blas_threads)
    results = [[] for _ in batches]

    def run(i):
        for _ in range(4):
            results[i].append(infer(batches[i], params))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(alone, results):
        assert len(got) == 4 and all(np.array_equal(g.view(np.uint8), want.view(np.uint8)) for g in got)
    if two_blas_threads is not None:
        assert recognizer.blas_threads() == (1 if recognizer.infer_workers() == 2 else two_blas_threads)


# ---------------------------------------------------------------------------
# the streams node: four streams trained 2+2 on the workers


def _perturbed_params(dtype, seed=17):
    params = ModelParams.build(_config(), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for tensor in params.named_tensors().values():  # biases and temporal vectors start at 0
        tensor.data += (rng.normal(size=tensor.shape) * 0.1).astype(dtype)
    return params


def _step_bytes(params, x, labels) -> list[bytes]:
    """One taped forward and backward from cleared gradients: the bytes of
    the logits and of every parameter gradient, in spec order."""
    named = params.named_tensors()
    for tensor in named.values():
        tensor.grad = None
    with Tape():
        logits = forward(encode(x, params.encoder), params)
        loss = cross_entropy(logits, labels)
    backward(loss)
    return [logits.data.tobytes()] + [name.encode() + (b"-" if t.grad is None else t.grad.tobytes())
                                      for name, t in named.items()]


def _composed_streams(bundle, params):
    """The streams node's reference: each stream's image taped as the
    composed encoder nodes, then :func:`_sequential_streams`."""
    return _sequential_streams(composed_images(bundle, params.encoder), params.tensors)


def _sequential_streams(images, tensors):
    """Each stream's stages taped as a ``stem_stage`` on its image, two
    ``conv_pool_leaky`` nodes and ``reshape`` on the caller's tape, one
    stream after the other, then ``concat``."""
    features = []
    for i, image in enumerate(images):
        x = image
        for n, stage in zip((1, 2, 3), (stem_stage, conv_pool_leaky, conv_pool_leaky)):
            x = stage(x, tensors[f"stream{i}.conv{n}.kernels"], tensors[f"stream{i}.conv{n}.bias"])
        features.append(reshape(x, (x.shape[0], x.shape[-1])))
    return concat(features, axis=-1)


def _thread_spy(monkeypatch, module, name):
    """Record the thread name of every call of ``module.name``."""
    names, original = [], getattr(module, name)

    def spy(*args, **kwargs):
        names.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return names


def _rule_spy(monkeypatch):
    """Record the thread name of every stage rule the streams node runs
    (the stem's runs its image source's block backward)."""
    names = []

    def spy(*args, _body=recognizer.conv_pool_leaky_arrays):
        out, rule = _body(*args)

        def traced(d):
            names.append(threading.current_thread().name)
            return rule(d)

        return out, None if rule is None else traced

    monkeypatch.setattr(recognizer, "conv_pool_leaky_arrays", spy)
    return names


def _traced_spy(monkeypatch):
    """Record the thread name of every call of a function perfbench's
    tracer wraps, in every skelact module that holds it, as the tracer
    patches them."""
    spans = perfbench_spans()
    wrapped = [getattr(autograd, op) for op in spans.OP_GROUPS]
    wrapped += [getattr(importlib.import_module(f"skelact.{module}"), name)
                for module, names in spans.LAYER_FUNCTIONS.items() for name in names]
    names = []
    for module in [m for key, m in sys.modules.items() if key.startswith("skelact.")]:
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in wrapped):
                def spy(*args, _original=value, **kwargs):
                    names.append(threading.current_thread().name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, attr, spy)
    return names


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_streams_node_is_bitwise_the_sequential_stages_on_workers_and_inline(dtype, monkeypatch):
    rng = np.random.default_rng(35)
    x = (rng.normal(size=(64, 64, 4, 3)) * 0.3).astype(dtype)
    labels = rng.integers(0, 3, size=64)
    for batch in (64, 6, 1):
        params = _perturbed_params(dtype)
        with monkeypatch.context() as m:
            m.setattr(recognizer, "_streams", _composed_streams)
            want = _step_bytes(params, x[:batch], labels[:batch])
        with monkeypatch.context() as m:
            forwards = _thread_spy(m, recognizer, "_stages")
            backwards = _rule_spy(m)
            traced = _traced_spy(m)
            got = _step_bytes(params, x[:batch], labels[:batch])
        assert got == want, batch
        worker = "skelact-worker" if recognizer.infer_workers() == 2 else "MainThread"
        assert len(forwards) == 4 and len(backwards) == 12, batch  # 3 stage rules a stream
        assert all(name.startswith(worker) for name in forwards + backwards), batch
        # perfbench's tracer wraps these with one span stack: no worker may call them
        assert traced and all(name == "MainThread" for name in traced), batch
        with monkeypatch.context() as m:  # no BLAS hook: every stream inline
            m.setattr(recognizer, "_blas_thread_calls", lambda: None)
            forwards = _thread_spy(m, recognizer, "_stages")
            inline = _step_bytes(params, x[:batch], labels[:batch])
        assert inline == want, batch
        assert forwards == ["MainThread"] * 4, batch


@pytest.mark.parametrize("flags", [EnhanceFlags(*on) for on in itertools.product((False, True), repeat=5)])
def test_a_recorded_streams_node_lists_the_attention_map_once_per_attended_stream(flags):
    # stream by stream, the tensors its image reads then its kernels and
    # biases; the backward returns one gradient per input, of its shape
    params = ModelParams.build(_config(flags=flags), seed=23)
    x = (np.random.default_rng(45).normal(size=(2, 64, 4, 3)) * 0.3).astype(np.float32)
    with Tape() as tape:
        bundle = encode(x, params.encoder)
        forward(bundle, params)
    [node] = [node for node in tape.nodes if node.backward_fn.__qualname__ == "_streams.<locals>.back"]
    attention = [t for t in node.inputs if t is bundle.attention]
    assert len(attention) == (2 if flags.attention else 0)
    others = [t for t in node.inputs if t is not bundle.attention]
    assert len({id(t) for t in others}) == len(others)
    assert len(node.inputs) == sum(len(stream_image(bundle, name, params.encoder)[1]) + 6
                                   for name in flags.active_streams())
    grads = node.backward_fn(np.ones_like(node.output.data))
    assert [g.shape for g in grads] == [t.shape for t in node.inputs]


def test_stream_forward_records_nothing_inside_a_tape():
    params = _perturbed_params(np.float32)
    image = Tensor(np.random.default_rng(41).normal(size=(2, 3, 64, 64)), requires_grad=True)
    want = stream_forward(image, params.tensors, 0).data
    with Tape() as tape:
        got = stream_forward(image, params.tensors, 0)
    assert tape.nodes == [] and got._tape is None and not got.requires_grad
    assert np.array_equal(got.data.view(np.uint32), want.view(np.uint32))


def test_stream_forward_of_a_float64_image_is_bitwise_its_stages():
    # the image was rounded to float32 on its way in
    params = _perturbed_params(np.float64)
    image = np.random.default_rng(42).normal(size=(2, 3, 64, 64))
    want, _ = recognizer._stages(image_source(image), recognizer._convs(params.tensors, 0), False)
    for given in (image, Tensor(image, dtype=np.float64)):
        got = stream_forward(given, params.tensors, 0).data
        assert got.dtype == np.float64 and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_untaped_forward_records_nothing_and_is_the_taped_logits():
    params = _perturbed_params(np.float32)
    x = (np.random.default_rng(36).normal(size=(6, 64, 4, 3)) * 0.3).astype(np.float32)
    untaped = forward(encode(x, params.encoder), params)
    with Tape():
        taped = forward(encode(x, params.encoder), params)
    assert untaped._tape is None and taped._tape is not None
    assert np.array_equal(untaped.data.view(np.uint8), taped.data.view(np.uint8))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_two_threads_training_at_once_get_their_own_bits(dtype):
    # one thread's streams hold the workers, the other's run inline; each
    # thread's workspace and each stage's rebuilt columns keep them apart
    rng = np.random.default_rng(37)
    runs = [((rng.normal(size=(batch, 64, 4, 3)) * 0.3).astype(dtype), rng.integers(0, 3, size=batch))
            for batch in (64, 6, 1)]
    params = [_perturbed_params(dtype, seed=18 + i) for i in range(len(runs))]
    alone = [_step_bytes(p, x, y) for p, (x, y) in zip(params, runs)]
    results = [[] for _ in runs]

    def train(i):
        for _ in range(3):
            results[i].append(_step_bytes(params[i], *runs[i]))

    threads = [threading.Thread(target=train, args=(i,)) for i in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(alone, results):
        assert len(got) == 3 and all(g == want for g in got)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_taped_forward_keeps_the_callers_numpy_errstate_in_the_streams(dtype, monkeypatch):
    # the first stage's GEMM overflows; the streams run on the workers (or
    # inline), each in a copy of the caller's context
    params = ModelParams.build(_config(), seed=19, dtype=dtype)
    big = dtype(np.finfo(dtype).max ** 0.75)
    for name, tensor in params.tensors.items():
        if name.startswith("stream"):
            tensor.data += big
    rng = np.random.default_rng(38)
    for inline in (False, True):
        for batch in (64, 6, 1):
            channels = tuple(Tensor(rng.normal(size=(batch, 3, 4, 64)) * big, requires_grad=True, dtype=dtype)
                             for _ in range(4))
            bundle = EncodedBundle(channels, _uniform_attention(batch, 64, dtype))
            with monkeypatch.context() as m:
                if inline:
                    m.setattr(recognizer, "_blas_thread_calls", lambda: None)
                with Tape(), np.errstate(all="raise"), pytest.raises(FloatingPointError) as caught:
                    forward(bundle, params)
            assert any(entry.name == "conv_pool_leaky_arrays" for entry in caught.traceback), (inline, batch)


def _thread_workspaces(on_workers: bool) -> list[dict[str, np.ndarray]]:
    """This thread's workspace buffers by role and, with ``on_workers``,
    each worker's; a barrier holds the first worker until the second has
    its task."""
    workspaces = [dict(vars(autograd._WORKSPACE))]
    if on_workers:
        barrier = threading.Barrier(2)

        def grab():
            barrier.wait(10)
            return dict(vars(autograd._WORKSPACE))

        workspaces += [f.result() for f in [recognizer._workers.submit(grab) for _ in range(2)]]
    return workspaces


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_gradient_a_backward_returns_shares_a_workspace_on_any_thread(dtype, monkeypatch):
    rng = np.random.default_rng(39)
    x = (rng.normal(size=(64, 64, 4, 3)) * 0.3).astype(dtype)
    labels = rng.integers(0, 3, size=64)
    params = _perturbed_params(dtype)
    on_workers = recognizer.infer_workers() == 2
    for inline in (False, True):
        returned, lock, finish = [], threading.Lock(), autograd._finish

        def spy(out_data, inputs, back, op):
            def traced(d):
                grads = back(d)
                with lock:
                    returned.extend(g for g in grads if g is not None)
                return grads

            return finish(out_data, inputs, traced, op)

        with monkeypatch.context() as m:
            m.setattr(autograd, "_finish", spy)
            m.setattr(recognizer, "_finish", spy)
            if inline:
                m.setattr(recognizer, "_blas_thread_calls", lambda: None)
            for batch in (64, 6, 1):
                _step_bytes(params, x[:batch], labels[:batch])
        workspaces = _thread_workspaces(on_workers)
        ran_stages = workspaces[1:] if on_workers and not inline else workspaces[:1]
        assert all(set(ws) == {"pad", "cols", "conv"} for ws in ran_stages), inline
        buffers = [buf for ws in workspaces for buf in ws.values() if isinstance(buf, np.ndarray)]
        assert len(returned) > 100
        assert not any(np.shares_memory(g, buf) for g in returned for buf in buffers), inline


def test_a_training_step_leaves_each_stage_thread_only_its_pad_columns_and_conv(monkeypatch):
    # one recorded B=64 step of the default widths, on fresh threads (so fresh
    # workspaces): the pooled maxima and the stem's gathered taps reuse the
    # spent pad, so each thread that ran stages holds three buffers, each
    # sized by its largest use (float32 items)
    bound = 4 * (64 * 8 * 8 * 288  # cols: stage 2's one block, 64 x 8 x 8 rows of 3 x 3 x 32 taps
                 + 64 * 18 * 18 * 32  # pad: stage 2's zero-bordered input
                 + 4 * 16 * 16 * 16 * 32)  # conv: a 16-sample stage-1 block's four corner slabs
    params = ModelParams.build(_config(channels=(32, 64, 128)), seed=18)
    rng = np.random.default_rng(42)
    x, labels = (rng.normal(size=(64, 64, 4, 3)) * 0.3).astype(np.float32), rng.integers(0, 3, size=64)
    on_workers = recognizer.infer_workers() == 2

    def step():
        _step_bytes(params, x, labels)
        return _thread_workspaces(on_workers)

    workspaces = _on_fresh_threads(monkeypatch, step)
    for ws in workspaces[1:] if on_workers else workspaces[:1]:
        assert set(ws) == {"pad", "cols", "conv"}
        assert sum(buf.nbytes for buf in ws.values()) <= bound, {role: buf.nbytes for role, buf in ws.items()}


def _on_fresh_threads(monkeypatch, fn):
    """``fn()``'s result, run on a fresh caller thread with two fresh
    workers, so every workspace it reads starts empty."""
    with ThreadPoolExecutor(2, thread_name_prefix="skelact-worker") as workers, ThreadPoolExecutor(1) as caller:
        monkeypatch.setattr(recognizer, "_workers", workers)
        monkeypatch.setattr(recognizer, "_workers_lock", threading.Lock())
        return caller.submit(fn).result(120)


def test_a_batched_infer_leaves_each_worker_only_one_halfs_stage_buffers(monkeypatch):
    # a B=64 infer of the default widths on fresh threads: each stream's
    # image is filled block by block into the stem's pad, so each thread that
    # ran a half holds only its pad, columns and conv output, each sized by
    # its largest use (float32 items): 5.52 MiB for a 32-sample half, where a
    # whole image and its attended copy took 3 MiB more
    params = ModelParams.build(_config(channels=(32, 64, 128)), seed=18)
    x = (np.random.default_rng(43).normal(size=(64, 64, 4, 3)) * 0.3).astype(np.float32)
    on_workers = recognizer.infer_workers() == 2
    rows = 32 if on_workers else 64  # the samples one thread runs
    bound = 4 * (rows * 8 * 8 * 288 + rows * 18 * 18 * 32 + 4 * 16 * 16 * 16 * 32)  # stage 2's cols and pad

    def run():
        infer(x, params)
        return _thread_workspaces(on_workers)

    workspaces = _on_fresh_threads(monkeypatch, run)
    for ws in workspaces[1:] if on_workers else workspaces[:1]:
        sizes = {role: buf.nbytes for role, buf in ws.items()}
        assert set(ws) == {"pad", "cols", "conv"}
        assert sum(sizes.values()) <= bound and (not on_workers or sum(sizes.values()) <= 5.6 * 2**20), sizes


def _reached(tape: Tape) -> tuple[list[np.ndarray], list]:
    """The arrays and the functions with a closure that a tape's nodes
    reach: each node's output and inputs, and its backward closure followed
    through the closures, Tensors, lists, tuples (an image source too) and
    dicts it holds."""
    arrays, functions, seen = [], [], set()
    todo = [item for node in tape.nodes for item in (node.output, *node.inputs, node.backward_fn)]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, Tensor):
            todo.append(item.data)
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif isinstance(item, Mapping):
            todo.extend(item.values())
        elif isinstance(item, types.FunctionType) and item.__closure__:
            functions.append(item)
            for cell in item.__closure__:
                try:
                    todo.append(cell.cell_contents)
                except ValueError:  # a name the closure reads only on a path it did not take
                    pass
    return arrays, functions


def test_a_recorded_forward_keeps_no_stream_image():
    # after a recorded B=64 forward, no tape node or stage rule reaches an
    # array as large as one stream's (64, 3, 64, 64) image: the stem's rule
    # refills its pad from the image source, which holds only the channels,
    # embedding, attention map and temporal vector
    params = ModelParams.build(_config(channels=(32, 64, 128)), seed=19)
    x = (np.random.default_rng(44).normal(size=(64, 64, 4, 3)) * 0.3).astype(np.float32)
    with Tape() as tape:
        loss = cross_entropy(forward(encode(x, params.encoder), params), np.arange(64) % 3)
    arrays, functions = _reached(tape)
    rules = [fn.__qualname__ for fn in functions]
    assert rules.count("conv_pool_leaky_arrays.<locals>.back") == 12
    assert rules.count("embed_image_arrays.<locals>.fill") == 4  # each stem's rule reaches its source
    assert rules.count("embed_image_arrays.<locals>.back") == 4
    owners = {id(owner): owner for owner in (a if a.base is None else a.base for a in arrays)}
    biggest = max(owners.values(), key=lambda a: a.nbytes)
    assert biggest.nbytes < 64 * 3 * 64 * 64 * 4, biggest.shape
    backward(loss)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork() of a process with threads
def test_a_forked_child_trains_a_step_with_its_own_workers():
    params = _perturbed_params(np.float32)
    rng = np.random.default_rng(40)
    x = (rng.normal(size=(64, 64, 4, 3)) * 0.3).astype(np.float32)
    labels = rng.integers(0, 3, size=64)
    want = _step_bytes(params, x, labels)  # the parent's workers exist from here on
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        send.send(_step_bytes(params, x, labels))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert receive.poll(60), "the forked child's training step did not finish"
        assert receive.recv() == want
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork() of a process with threads
def test_a_forked_child_runs_batched_infer_with_its_own_workers():
    params = ModelParams.build(_config(), seed=15)
    x = (np.random.default_rng(33).normal(size=(64, 64, 4, 3)) * 0.3).astype(np.float32)
    want = infer(x, params)  # the parent's workers exist from here on
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        send.send(infer(x, params).tobytes())

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert receive.poll(60), "the forked child's infer did not finish"
        assert receive.recv() == want.tobytes()
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()


# ---------------------------------------------------------------------------
# configuration geometry


def test_default_geometry_traces_to_single_column():
    cfg = _ntu_config()
    assert cfg.conv_trace() == [(16, 32), (4, 64), (1, 128)]
    assert cfg.feature_width() == 128
    assert cfg.stream_count() == 4
    assert _ntu_config(flags=EnhanceFlags(velocity=False)).stream_count() == 2


def test_config_validation():
    with pytest.raises(UsageError, match="pool evenly"):
        _config(frames=32).feature_width()
    with pytest.raises(UsageError, match="reduce to 1x1"):
        _config(frames=256).feature_width()
    with pytest.raises(UsageError, match="labels"):
        _config(classes=5)
    with pytest.raises(UsageError, match="span"):
        _config(bones=CHAIN_BONES[:2])
    with pytest.raises(UsageError, match="repeat a label"):
        _config(labels=(0, 1, 1))
    # NaN would pass frame_velocity's dt <= 0 check and turn every logit NaN
    for dt in (float("nan"), float("inf"), 0.0, -1.0, 1e39, 1e-50):
        with pytest.raises(UsageError, match="dt must be finite and positive"):
            _config(dt=dt)


@pytest.mark.parametrize("fields, message", [
    (dict(fc_hidden=0), "widths must be positive"),
    (dict(channels=(0, 2, 2)), "widths must be positive"),
    (dict(scale_hidden=0), "widths must be positive"),
    (dict(frames=16, channels=(2, 2)), "3 stage widths"),
    (dict(joints=1, bones=()), "at least 2 joints"),
], ids=["fc_hidden_0", "channels_0", "scale_hidden_0", "two_stages", "one_joint"])
def test_config_refuses_what_the_model_cannot_be_built_or_run_with(fields, message):
    with pytest.raises(UsageError, match=message):
        _config(**fields)


def test_build_is_seed_deterministic():
    a = ModelParams.build(_config(), seed=7)
    b = ModelParams.build(_config(), seed=7)
    c = ModelParams.build(_config(), seed=8)
    names = a.named_tensors()
    assert names.keys() == b.named_tensors().keys()
    for key, tensor in names.items():
        assert np.array_equal(tensor.data, b.named_tensors()[key].data), key
    assert any(
        not np.array_equal(t.data, c.named_tensors()[k].data)
        for k, t in names.items()
    )


def test_frozen_embeddings_under_raw_flags():
    raw = EnhanceFlags(False, False, False, False, True)
    params = ModelParams.build(_config(flags=raw), seed=0)
    named = params.named_tensors()
    for name in named:
        if name.startswith("embed."):
            assert not named[name].requires_grad
    assert all(not k.startswith(("joint_scale", "bone_scale", "attention", "temporal"))
               for k in named)
    trainable = {k for k, t in named.items() if t.requires_grad}
    assert trainable == {k for k in named if k.startswith(("stream", "classifier"))}


# ---------------------------------------------------------------------------
# static cost model


def test_count_flops_small_config_by_hand():
    report = count_flops(_config())
    t, j, hidden = 64, 4, 6
    layers = report.per_layer
    assert layers["encoder.joint_scale.fc1"] == j * hidden * (t * 3)
    assert layers["encoder.joint_scale.fc2"] == j * hidden
    assert layers["encoder.bone_scale.fc1"] == (j - 1) * hidden * (t * 3)
    assert layers["encoder.attention.shared"] == t * j * (j * 3)
    assert layers["encoder.attention.scores"] == t * t * j
    assert layers["encoder.embed.joints"] == 3 * t * j * t
    # conv stages: 64 -> 32 (pool 16) -> 8 (pool 4) -> 2 (pool 1)
    assert layers["stream0.conv1"] == 2 * 32 * 32 * 3 * 9
    assert layers["stream0.conv2"] == 3 * 8 * 8 * 2 * 9
    assert layers["stream0.conv3"] == 4 * 2 * 2 * 3 * 9
    assert layers["classifier.fc1"] == (4 * 4) * 8
    assert layers["classifier.fc2"] == 8 * 3
    assert report.total_macs == sum(layers.values())
    assert report.total_flops == 2 * report.total_macs


def test_count_flops_default_config_totals():
    report = count_flops(_ntu_config())
    assert report.total_macs == 11_720_064
    assert report.total_flops == 23_440_128
    assert report.param_count == 554_380


def test_flags_shrink_the_census():
    full = count_flops(_config())
    raw = count_flops(_config(flags=EnhanceFlags(False, False, False, False, True)))
    assert not any(k.startswith("encoder.joint_scale") for k in raw.per_layer)
    assert not any(k.startswith("encoder.attention") for k in raw.per_layer)
    assert raw.total_macs < full.total_macs
    half = count_flops(_config(flags=EnhanceFlags(velocity=False)))
    assert sum(k.startswith("stream") for k in half.per_layer) == 6
    assert half.per_layer["classifier.fc1"] == (2 * 4) * 8


FLAG_SETS = [
    EnhanceFlags(),
    EnhanceFlags(False, False, False, False, True),
    EnhanceFlags(True, True, True, True, False),
    EnhanceFlags(True, False, True, False, True),
]


ALL_FLAG_SETS = FLAG_SETS + [f for _, f in VARIANT_GRID if f not in FLAG_SETS]


@pytest.mark.parametrize("flags", ALL_FLAG_SETS)
def test_param_count_matches_built_tensors(flags):
    cfg = _config(flags=flags)
    report = count_flops(cfg)
    named = ModelParams.build(cfg).named_tensors()
    assert report.param_count == sum(t.data.size for t in named.values())
    assert [(s.name, s.shape, s.trainable) for s in param_spec(cfg)] == [
        (name, t.shape, t.requires_grad) for name, t in named.items()
    ]


class _ReadRecorder(Mapping):
    """A tensor dict that records every name read from it."""

    def __init__(self, tensors):
        self.tensors, self.read = tensors, set()

    def __getitem__(self, name):
        self.read.add(name)
        return self.tensors[name]

    def __iter__(self):
        return iter(self.tensors)

    def __len__(self):
        return len(self.tensors)


@pytest.mark.parametrize("flags", ALL_FLAG_SETS)
def test_forward_and_infer_read_exactly_the_param_spec_tensors(flags):
    # the layers read their tensors by name, so this is what catches a spec
    # entry that no layer reads: it would be built, trained and saved unused
    cfg = _config(flags=flags)
    recorder = _ReadRecorder(ModelParams.build(cfg, seed=0).tensors)
    params = ModelParams(cfg, recorder)
    want = {s.name for s in param_spec(cfg)}
    x = (np.random.default_rng(35).normal(size=(2, 64, 4, 3)) * 0.3).astype(np.float32)
    with Tape():
        forward(encode(x, params.encoder), params)
    assert recorder.read == want
    recorder.read.clear()
    infer(x, params)
    assert recorder.read == want
