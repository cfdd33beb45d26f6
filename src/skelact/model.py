"""Model configuration, the parameter table, and parameter construction.

ModelConfig pins every structural choice (frame count, joint tree, channel
widths, enabled stages, label vocabulary) so a checkpoint can rebuild the
exact network.  param_spec(config) writes the architecture down once: every
parameter tensor's name, shape, initializer, trainability and the
multiply-accumulates its weight costs per sequence.  ModelParams is the
config plus one dict of those tensors, keyed by their spec names in spec
order, and every layer reads its own tensors from it by name.
ModelParams.build draws the tensors from one seeded generator in that
order, which makes initialization reproducible; the parameter count, the
MAC census (recognizer.count_flops) and checkpoint loading read the same
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .encoder import EncoderParams, EnhanceFlags
from .errors import UsageError
from .skeleton import Topology


@dataclass(frozen=True)
class ModelConfig:
    joints: int
    classes: int
    bones: tuple[tuple[int, int], ...]
    root: int
    labels: tuple[int, ...]
    frames: int = 64
    channels: tuple[int, int, int] = (32, 64, 128)
    fc_hidden: int = 256
    scale_hidden: int = 64
    dt: float = 1.0
    flags: EnhanceFlags = field(default_factory=EnhanceFlags)

    def __post_init__(self):
        if self.classes != len(self.labels):
            raise UsageError(f"{self.classes} classes but {len(self.labels)} labels")
        if self.joints < 2:
            raise UsageError(f"a skeleton needs at least 2 joints (1 bone), got {self.joints}")
        if len(self.channels) != 3:
            raise UsageError(f"channels must give 3 stage widths, got {self.channels}")
        if min(self.channels) < 1 or self.fc_hidden < 1 or self.scale_hidden < 1:
            raise UsageError(f"layer widths must be positive: channels={self.channels}, "
                             f"fc_hidden={self.fc_hidden}, scale_hidden={self.scale_hidden}")
        if len(self.bones) != self.joints - 1:
            raise UsageError(f"{len(self.bones)} bones cannot span {self.joints} joints")
        if self.frames < 2:
            raise UsageError("frames must be >= 2")
        if len(set(self.labels)) != len(self.labels):
            raise UsageError(f"labels {self.labels} repeat a label")
        with np.errstate(over="ignore"):  # velocity divides by dt in float32
            if not 0 < np.float32(self.dt) < np.inf:
                raise UsageError(f"dt must be finite and positive in float32, got {self.dt}")

    def topology(self) -> Topology:
        return Topology(joint_count=self.joints, bones=self.bones, root=self.root)

    def stream_count(self) -> int:
        return len(self.flags.active_streams())

    def conv_trace(self) -> list[tuple[int, int]]:
        """(spatial extent, channels) after each conv+pool stage."""
        extents = _stage_extents(self.frames, len(self.channels))
        if len(extents) < len(self.channels):
            raise UsageError(f"frame count {self.frames} does not pool evenly{self._nearest_frames()}")
        return list(zip(extents, self.channels))

    def feature_width(self) -> int:
        trace = self.conv_trace()
        size, c3 = trace[-1]
        if size != 1:
            raise UsageError(f"frame count {self.frames} does not reduce to 1x1 (got {size}){self._nearest_frames()}")
        return c3

    def _nearest_frames(self) -> str:
        """The error messages' tail: the nearest frame counts below and
        above this one that reduce to 1x1.  Each stage quarters the extent,
        rounding up, so none above 4 ** stages does."""
        stages = len(self.channels)
        builds = [n for n in range(2, 4**stages + 1)
                  if len(extents := _stage_extents(n, stages)) == stages and extents[-1] == 1]
        near = [n for n in builds if n < self.frames][-1:] + [n for n in builds if n > self.frames][:1]
        if len(near) == 1:
            return f"; the nearest frame count that builds is {near[0]}"
        return f"; the nearest frame counts that build are {near[0]} and {near[1]}"


def _stage_extents(frames: int, stages: int) -> list[int]:
    """The spatial extent after each 3x3 stride-2 padding-1 conv and 2x2
    pool, up to the first conv whose output is odd, which cannot pool."""
    extents, size = [], frames
    for _ in range(stages):
        size = (size + 2 - 3) // 2 + 1
        if size % 2:
            break
        size //= 2
        extents.append(size)
    return extents


@dataclass(frozen=True)
class ParamSpec:
    """One parameter tensor.  ``init`` names its initializer (kaiming,
    small_uniform, zeros, ones, identity_like); ``macs`` is what the weight
    costs per sequence (uses x weight size), None for a tensor that enters
    no product."""

    name: str
    shape: tuple[int, ...]
    init: str
    trainable: bool = True
    macs: int | None = None


def _weight(name: str, shape: tuple[int, ...], uses: int, init: str = "kaiming", trainable: bool = True) -> ParamSpec:
    return ParamSpec(name, shape, init, trainable, macs=uses * math.prod(shape))


def _bias(name: str, width: int, init: str = "zeros") -> ParamSpec:
    return ParamSpec(name, (width,), init)


def param_spec(config: ModelConfig) -> list[ParamSpec]:
    """Every parameter tensor of ``config``, in the order build draws them
    in and ModelParams holds them."""
    t, j, hidden = config.frames, config.joints, config.scale_hidden
    flags = config.flags
    spec: list[ParamSpec] = []
    for head, on, items in (("joint_scale", flags.joint_scale, j),
                            ("bone_scale", flags.bone_scale, j - 1)):
        if on:  # fc2 starts as bias 1 with tiny weights so initial scales sit near 1
            spec += [_weight(f"{head}.fc1.weight", (hidden, t * 3), items),
                     _bias(f"{head}.fc1.bias", hidden),
                     _weight(f"{head}.fc2.weight", (1, hidden), items, "small_uniform"),
                     _bias(f"{head}.fc2.bias", 1, "ones")]
    if flags.attention:
        d = j
        spec += [_weight("attention.shared.weight", (d, j * 3), t),
                 _bias("attention.shared.bias", d),
                 _weight("attention.query.weight", (j, d), t),
                 _weight("attention.key.weight", (j, d), t)]
    # embeddings learn only when their source tensor is itself learned,
    # so the raw baseline keeps fixed identity-like coordinate images
    learnable = {"joints": flags.joint_scale, "joint_velocity": flags.joint_scale,
                 "bones": flags.bone_scale, "bone_velocity": flags.bone_scale}
    streams = flags.active_streams()
    spec += [_weight(f"embed.{name}", (t, j), 3 * t, "identity_like", learnable[name]) for name in streams]
    if flags.temporal:
        spec += [_bias(f"temporal.{name}", t) for name in streams]
    for i in range(config.stream_count()):
        c_in = 3
        for n, (pooled, c_out) in enumerate(config.conv_trace(), start=1):
            # the conv output, before its 2x2 pool, is 2*pooled on a side
            spec += [_weight(f"stream{i}.conv{n}.kernels", (c_out, c_in, 3, 3), (2 * pooled) ** 2),
                     _bias(f"stream{i}.conv{n}.bias", c_out)]
            c_in = c_out
    width = config.stream_count() * config.feature_width()
    spec += [_weight("classifier.fc1.weight", (config.fc_hidden, width), 1),
             _bias("classifier.fc1.bias", config.fc_hidden),
             _weight("classifier.fc2.weight", (config.classes, config.fc_hidden), 1),
             _bias("classifier.fc2.bias", config.classes)]
    return spec


def identity_like_embedding(frames: int, joints: int) -> np.ndarray:
    """Row t selects joint floor(t*J/T); the identity when J == T."""
    weight = np.zeros((frames, joints), dtype=np.float32)
    for t in range(frames):
        weight[t, t * joints // frames] = 1.0
    return weight


# initializer name -> draw(rng, shape); kaiming's fan-in is prod(shape[1:])
_INITS = {
    "kaiming": lambda rng, shape: rng.standard_normal(shape) * np.sqrt(2.0 / math.prod(shape[1:])),
    "small_uniform": lambda rng, shape: rng.uniform(-0.01, 0.01, shape),
    "zeros": lambda rng, shape: np.zeros(shape),
    "ones": lambda rng, shape: np.ones(shape),
    "identity_like": lambda rng, shape: identity_like_embedding(*shape),
}


@dataclass
class ModelParams:
    """A model: its config and every parameter tensor, under param_spec's
    names and in its order.  ``encoder`` shares the same dict."""

    config: ModelConfig
    tensors: dict[str, Tensor]
    encoder: EncoderParams = field(init=False)

    def __post_init__(self):
        config = self.config
        self.encoder = EncoderParams(config.topology(), config.flags, config.dt, self.tensors)

    @staticmethod
    def build(config: ModelConfig, seed: int = 0, dtype=np.float32) -> "ModelParams":
        rng = np.random.default_rng(seed)
        return ModelParams(config, {
            s.name: Tensor(_INITS[s.init](rng, s.shape).astype(dtype), requires_grad=s.trainable, dtype=dtype)
            for s in param_spec(config)
        })

    def named_tensors(self) -> dict[str, Tensor]:
        return dict(self.tensors)
