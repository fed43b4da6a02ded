"""Encoder / residual-bottleneck / decoder depth networks.

Two instantiations share this structure: a color-to-depth estimator
(3 input channels) and a guided depth-to-depth autoencoder (1 input
channel) whose encoder features define the latent-space losses.
"""

import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ShapeMismatchError

ENCODER_KERNELS = (9, 7, 5, 3)
BOTTLENECK_KERNEL = 3
# feature taps: the four encoder stage outputs plus the deepest latent
N_TAPS = len(ENCODER_KERNELS) + 1


@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    in_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1

    def __post_init__(self):
        if min(self.out_channels, self.in_channels,
               self.kernel_h, self.kernel_w) < 1:
            raise ValueError("ConvSpec: dimensions must be positive")
        if self.kernel_h % 2 == 0 or self.kernel_w % 2 == 0:
            raise ValueError("ConvSpec: kernel dims must be odd")
        if self.stride not in (1, 2):
            raise ValueError("ConvSpec: stride must be 1 or 2")

    @property
    def padding(self):
        return (self.kernel_h - 1) // 2, (self.kernel_w - 1) // 2

    @property
    def weight_shape(self):
        return (self.out_channels, self.in_channels,
                self.kernel_h, self.kernel_w)


@dataclass(frozen=True)
class ResBlockSpec:
    channels: int
    kernel: int

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("ResBlockSpec: channels must be positive")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ValueError("ResBlockSpec: kernel must be odd and positive")


@dataclass(frozen=True)
class NetworkConfig:
    input_channels: int
    output_channels: int = 1
    base_width: int = 64
    bottleneck_blocks: int = 6
    input_h: int = 320
    input_w: int = 240

    def __post_init__(self):
        if not all(isinstance(v, int) for v in asdict(self).values()):
            raise ValueError("NetworkConfig: fields must be integers")
        if self.input_channels < 1 or self.output_channels < 1:
            raise ValueError("NetworkConfig: channel counts must be positive")
        if self.base_width < 1 or self.bottleneck_blocks < 0:
            raise ValueError("NetworkConfig: invalid width or block count")
        if self.input_h % 16 != 0 or self.input_w % 16 != 0:
            raise ValueError("NetworkConfig: input dims must be divisible by "
                             "16, got %dx%d" % (self.input_h, self.input_w))

    @property
    def stage_widths(self):
        b = self.base_width
        return (b, 2 * b, 4 * b, 8 * b)

    @property
    def latent_shape(self):
        return (8 * self.base_width, self.input_h // 16, self.input_w // 16)


class Conv:
    def __init__(self, spec, rng=None):
        self.spec = spec
        if rng is None:
            w = np.zeros(spec.weight_shape)
        else:
            fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w
            limit = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-limit, limit, spec.weight_shape)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(spec.out_channels), requires_grad=True)

    def __call__(self, x):
        return ad.conv2d(x, self.weight, self.bias, self.spec.stride)

    def params(self):
        return [self.weight, self.bias]

    def state(self, prefix):
        return [(prefix + ".weight", self.weight.data),
                (prefix + ".bias", self.bias.data)]


class BatchNorm:
    """Per-sample normalization with a learned per-channel affine map
    (see ad.batch_norm2d)."""

    def __init__(self, channels, eps=1e-5, gamma_init=1.0):
        self.gamma = Tensor(np.full(channels, gamma_init),
                            requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.eps = eps

    def __call__(self, x):
        return ad.batch_norm2d(x, self.gamma, self.beta, self.eps)

    def params(self):
        return [self.gamma, self.beta]

    def state(self, prefix):
        return [(prefix + ".gamma", self.gamma.data),
                (prefix + ".beta", self.beta.data)]


class ResBlock:
    """Identity skip plus conv-BN-relu-conv-BN branch; no ReLU after the
    join so a zero-initialized branch is an exact identity."""

    def __init__(self, spec, rng=None, zero_branch=False):
        self.spec = spec
        c, k = spec.channels, spec.kernel
        cspec = ConvSpec(c, c, k, k, stride=1)
        branch_rng = None if zero_branch else rng
        gamma_init = 0.0 if zero_branch else 1.0
        self.conv1 = Conv(cspec, branch_rng)
        self.bn1 = BatchNorm(c, gamma_init=gamma_init)
        self.conv2 = Conv(cspec, branch_rng)
        self.bn2 = BatchNorm(c, gamma_init=gamma_init)

    def __call__(self, x):
        if x.shape[0] != self.spec.channels:
            raise ShapeMismatchError(
                "res_block: input has %d channels, block expects %d"
                % (x.shape[0], self.spec.channels))
        h = ad.relu(self.bn1(self.conv1(x)))
        h = self.bn2(self.conv2(h))
        return ad.add(x, h)

    def params(self):
        return (self.conv1.params() + self.bn1.params() +
                self.conv2.params() + self.bn2.params())

    def state(self, prefix):
        return (self.conv1.state(prefix + ".conv1") +
                self.bn1.state(prefix + ".bn1") +
                self.conv2.state(prefix + ".conv2") +
                self.bn2.state(prefix + ".bn2"))


class _ConvBnRelu:
    def __init__(self, spec, rng):
        self.conv = Conv(spec, rng)
        self.bn = BatchNorm(spec.out_channels)

    def __call__(self, x):
        return ad.relu(self.bn(self.conv(x)))

    def params(self):
        return self.conv.params() + self.bn.params()

    def state(self, prefix):
        return self.conv.state(prefix + ".conv") + self.bn.state(prefix + ".bn")


class DepthModel:
    """One encoder-bottleneck-decoder network instance.

    Feature taps (shallowest first): the four encoder stage outputs plus
    the deepest latent (raw encoder latent from encoder_forward, bottleneck
    output from forward).

    seed=None draws nothing: conv weights start at zero, for a model whose
    arrays are about to be overwritten (load_checkpoint).
    """

    def __init__(self, config, seed=0, zero_branch=False):
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
        widths = config.stage_widths
        zb = zero_branch

        self.enc_stages = []
        in_c = config.input_channels
        for i, (w, k) in enumerate(zip(widths, ENCODER_KERNELS)):
            stride = 1 if i == 0 else 2
            head = _ConvBnRelu(ConvSpec(w, in_c, k, k, stride), rng)
            block = ResBlock(ResBlockSpec(w, k), rng, zero_branch=zb)
            self.enc_stages.append((head, block))
            in_c = w
        self.enc_latent = _ConvBnRelu(
            ConvSpec(widths[3], widths[3], 3, 3, stride=2), rng)

        self.bottleneck = [
            ResBlock(ResBlockSpec(widths[3], BOTTLENECK_KERNEL), rng,
                     zero_branch=zb)
            for _ in range(config.bottleneck_blocks)]

        # strict mirror of the encoder: conv kernel at each decoder stage
        # matches the encoder conv it undoes, ResBlock kernels 3,5,7,9
        dec_plan = [
            (widths[3], widths[3], 3, 3),
            (widths[3], widths[2], 3, 5),
            (widths[2], widths[1], 5, 7),
            (widths[1], widths[0], 7, 9),
        ]
        self.dec_stages = []
        for in_w, out_w, conv_k, block_k in dec_plan:
            head = _ConvBnRelu(ConvSpec(out_w, in_w, conv_k, conv_k, 1), rng)
            block = ResBlock(ResBlockSpec(out_w, block_k), rng,
                             zero_branch=zb)
            self.dec_stages.append((head, block))
        # final layer is linear: no norm, no activation
        self.out_conv = Conv(ConvSpec(config.output_channels, widths[0],
                                      9, 9, 1), rng)

    # -- parameter plumbing ------------------------------------------------

    def _modules(self):
        mods = []
        for i, (head, block) in enumerate(self.enc_stages):
            mods.append(("enc%d" % i, head))
            mods.append(("enc%d.block" % i, block))
        mods.append(("enc_latent", self.enc_latent))
        for i, block in enumerate(self.bottleneck):
            mods.append(("bottleneck%d" % i, block))
        for i, (head, block) in enumerate(self.dec_stages):
            mods.append(("dec%d" % i, head))
            mods.append(("dec%d.block" % i, block))
        mods.append(("out", self.out_conv))
        return mods

    def parameters(self):
        out = []
        for _, mod in self._modules():
            out.extend(mod.params())
        return out

    def parameter_shapes(self):
        return [p.shape for p in self.parameters()]

    def state_items(self):
        """Ordered (name, array) pairs; arrays are live references."""
        out = []
        for name, mod in self._modules():
            out.extend(mod.state(name))
        return out

    def freeze(self):
        for p in self.parameters():
            p.requires_grad = False

    # -- forward passes ----------------------------------------------------

    def _check_input(self, x):
        expect = (self.config.input_channels,
                  self.config.input_h, self.config.input_w)
        if x.shape != expect:
            raise ShapeMismatchError("model input shape %s, expected %s"
                                     % (x.shape, expect))

    def encoder_forward(self, x):
        self._check_input(x)
        taps = []
        h = x
        for head, block in self.enc_stages:
            h = block(head(h))
            taps.append(h)
        latent = self.enc_latent(h)
        taps.append(latent)
        return latent, taps

    def bottleneck_forward(self, latent):
        h = latent
        for block in self.bottleneck:
            h = block(h)
        return h

    def decoder_forward(self, latent):
        expect = self.config.latent_shape
        if latent.shape != expect:
            raise ShapeMismatchError("decoder input shape %s, expected %s"
                                     % (latent.shape, expect))
        h = latent
        for head, block in self.dec_stages:
            h = block(head(ad.bilinear_upsample_x2(h)))
        return self.out_conv(h)

    def forward(self, x):
        latent, taps = self.encoder_forward(x)
        deep = self.bottleneck_forward(latent)
        taps[-1] = deep
        pred = self.decoder_forward(deep)
        return pred, taps


def shape_plan(config):
    """Per-stage output shapes implied by the architecture's stride and
    upsampling arithmetic: ceil(n/stride) per stride-2 conv, doubling per
    upsample. Cross-checked against actual execution in the tests."""
    widths = config.stage_widths
    h, w = config.input_h, config.input_w
    plan = {"input": (config.input_channels, h, w)}
    taps = []
    for i, wd in enumerate(widths):
        if i > 0:
            h, w = -(-h // 2), -(-w // 2)
        taps.append((wd, h, w))
        plan["enc%d" % i] = (wd, h, w)
    h, w = -(-h // 2), -(-w // 2)
    plan["latent"] = (widths[3], h, w)
    taps.append(plan["latent"])
    plan["taps"] = tuple(taps)
    for i, wd in enumerate((widths[3], widths[2], widths[1], widths[0])):
        h, w = 2 * h, 2 * w
        plan["dec%d" % i] = (wd, h, w)
    plan["output"] = (config.output_channels, h, w)
    return plan


def extract_features(guided, y, layers=None):
    """Feature taps of the guided network at y; gradients flow through
    the network into y but never into its (frozen) parameters.

    Normalization layers use the statistics of y itself, which keeps
    feature magnitudes bounded whatever the prediction looks like."""
    if layers is not None and len(layers) == 0:
        raise ValueError("extract_features: empty layer selection")
    latent, taps = guided.encoder_forward(y)
    taps[-1] = guided.bottleneck_forward(latent)
    if layers is None:
        return taps
    return [taps[j] for j in sorted(layers)]


# ---------------------------------------------------------------------------
# checkpoint i/o: magic + 8-byte header length + JSON header + raw
# little-endian float64 payload. Version 2 holds gamma and beta for each
# normalization layer; version 1 also held running statistics.

CKPT_MAGIC = b"LDEPTHCKPT1\n"
CKPT_VERSION = 2


class CheckpointError(ValueError):
    pass


def _array_table(items):
    return [{"name": n, "shape": list(a.shape)} for n, a in items]


def save_checkpoint(model, path):
    items = model.state_items()
    header = {
        "version": CKPT_VERSION,
        "config": asdict(model.config),
        "arrays": _array_table(items),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for _, arr in items:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_header(fh, size):
    hlen = int.from_bytes(fh.read(8), "little")
    if hlen > size - fh.tell():
        raise CheckpointError("checkpoint header length %d exceeds the file"
                              % hlen)
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError("corrupt checkpoint header") from exc
    if not isinstance(header, dict) or \
            not {"version", "config", "arrays"} <= header.keys():
        raise CheckpointError("checkpoint header must be a JSON object with "
                              "version, config and arrays")
    if header["version"] != CKPT_VERSION:
        raise CheckpointError("checkpoint version %r is not supported "
                              "(expected %d)"
                              % (header["version"], CKPT_VERSION))
    return header


def load_checkpoint(path):
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise CheckpointError("not a checkpoint file: %s" % path)
        header = _read_header(fh, size)
        try:
            config = NetworkConfig(**header["config"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError("bad checkpoint config: %s" % exc) from exc
        model = DepthModel(config, seed=None)
        items = model.state_items()
        if header["arrays"] != _array_table(items):
            raise CheckpointError("checkpoint arrays do not match the model "
                                  "structure of its config")
        payload = 8 * sum(arr.size for _, arr in items)
        if size - fh.tell() != payload:
            raise CheckpointError("checkpoint payload is %d bytes, expected "
                                  "%d" % (size - fh.tell(), payload))
        for _, arr in items:
            raw = fh.read(arr.size * 8)
            arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
    return model
