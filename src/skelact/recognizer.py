"""Four-stream convolutional classifier and its static cost model.

Each enhanced image runs through its own three-stage conv encoder
(3x3 kernels, stride 2, padding 1, each stage followed by 2x2 max pooling
and a leaky ReLU), collapsing a 64x64 image to a single feature column.
A stream turns its image channels-last once and runs each stage as the fused
``conv_pool_leaky`` op; ``conv2d`` and ``maxpool2d`` remain as channel-first
reference ops, and ``leaky_relu(maxpool2d(conv2d(.)))`` is the stage's
bit-exact reference.  The streams' features concatenate into a two-layer
classifier head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, concat, conv_pool_leaky, leaky_relu, linear, permute, reshape
from .encoder import LEAKY_SLOPE, EncodedBundle
from .errors import DimensionError
from .model import ModelConfig, ModelParams, StreamCNNParams


def stream_forward(image, stream: StreamCNNParams) -> Tensor:
    """(.., 3, T, T) image to a flat (.., F) feature vector."""
    x = image if isinstance(image, Tensor) else Tensor(np.asarray(image))
    if x.data.ndim not in (3, 4):
        raise DimensionError(f"stream expects a (3,T,T) or (B,3,T,T) image, got {x.shape}")
    x = permute(x, (1, 2, 0) if x.data.ndim == 3 else (0, 2, 3, 1))
    for kernels, bias in (
        (stream.conv1_kernels, stream.conv1_bias),
        (stream.conv2_kernels, stream.conv2_bias),
        (stream.conv3_kernels, stream.conv3_bias),
    ):
        x = conv_pool_leaky(x, kernels, bias, LEAKY_SLOPE)
    if x.shape[-3] != 1 or x.shape[-2] != 1:
        raise DimensionError(f"stream did not reduce spatially, got {x.shape}")
    return reshape(x, x.shape[:-3] + (x.shape[-1],))


def forward(bundle: EncodedBundle, params: ModelParams) -> Tensor:
    """Logits over classes; softmax lives in the loss and in predict."""
    images = bundle.images()
    if len(images) != len(params.streams):
        raise DimensionError(
            f"bundle carries {len(images)} images but the model has {len(params.streams)} streams"
        )
    features = [stream_forward(img, s) for img, s in zip(images, params.streams)]
    merged = concat(features, axis=-1)
    hidden = leaky_relu(linear(merged, params.classifier.fc1_weight, params.classifier.fc1_bias), LEAKY_SLOPE)
    return linear(hidden, params.classifier.fc2_weight, params.classifier.fc2_bias)


def predict(bundle: EncodedBundle, params: ModelParams) -> tuple[int, np.ndarray]:
    """Class index (ties break to the lowest index) and the probability row."""
    logits = forward(bundle, params).data
    if logits.ndim != 1:
        raise DimensionError("predict expects an unbatched bundle")
    shifted = logits - logits.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    return int(np.argmax(probs)), probs


@dataclass
class FlopsReport:
    """Static per-layer multiply-accumulate counts for one forward pass."""

    per_layer: dict[str, int]
    total_macs: int
    total_flops: int
    param_count: int


def count_flops(config: ModelConfig) -> FlopsReport:
    """Multiply-accumulate census of one single-sequence forward pass.

    Counts every matrix product on the inference path: the scale heads and
    attention projections, the per-stream embedding products, the conv
    stages (MACs = C_out * H' * W' * C_in * k * k), and the classifier.
    Elementwise work (activations, softmax, velocity differences, the
    attention product-and-add) is excluded.  flops = 2 * MACs.
    """
    t, j = config.frames, config.joints
    bones = j - 1
    flags = config.flags
    layers: dict[str, int] = {}

    if flags.joint_scale:
        layers["encoder.joint_scale.fc1"] = j * config.scale_hidden * (t * 3)
        layers["encoder.joint_scale.fc2"] = j * config.scale_hidden
    if flags.bone_scale:
        layers["encoder.bone_scale.fc1"] = bones * config.scale_hidden * (t * 3)
        layers["encoder.bone_scale.fc2"] = bones * config.scale_hidden
    if flags.attention:
        d = j
        layers["encoder.attention.shared"] = t * d * (j * 3)
        layers["encoder.attention.query"] = t * j * d
        layers["encoder.attention.key"] = t * j * d
        layers["encoder.attention.scores"] = t * t * j
    for name in flags.active_streams():
        layers[f"encoder.embed.{name}"] = 3 * t * j * t

    for i in range(config.stream_count()):
        size = t
        c_in = 3
        for n, c_out in enumerate(config.channels, start=1):
            size = (size + 2 - 3) // 2 + 1
            layers[f"stream{i}.conv{n}"] = c_out * size * size * c_in * 9
            size //= 2
            c_in = c_out

    width = config.stream_count() * config.feature_width()
    layers["classifier.fc1"] = width * config.fc_hidden
    layers["classifier.fc2"] = config.fc_hidden * config.classes

    total_macs = sum(layers.values())
    return FlopsReport(
        per_layer=layers,
        total_macs=total_macs,
        total_flops=2 * total_macs,
        param_count=_count_params(config),
    )


def _count_params(config: ModelConfig) -> int:
    t, j = config.frames, config.joints
    flags = config.flags
    head = config.scale_hidden * (t * 3) + config.scale_hidden + config.scale_hidden + 1
    total = 0
    if flags.joint_scale:
        total += head
    if flags.bone_scale:
        total += head
    if flags.attention:
        total += j * (j * 3) + j + 2 * (j * j)
    streams = config.stream_count()
    total += streams * t * j  # embeddings
    if flags.temporal:
        total += streams * t
    c1, c2, c3 = config.channels
    total += streams * (c1 * 3 * 9 + c1 + c2 * c1 * 9 + c2 + c3 * c2 * 9 + c3)
    width = streams * config.feature_width()
    total += config.fc_hidden * width + config.fc_hidden
    total += config.classes * config.fc_hidden + config.classes
    return total
