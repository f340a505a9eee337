"""Toy convolutional segmenter with three-scale deep supervision and an
optional scale-attention fusion of the two encoder scales, implemented with
manual forward/backward passes in numpy.

Feature maps are (channels, height, width) float64 arrays. The encoder has
two stride-2 stages (features at 1/2 and 1/4 resolution); the decoder emits
probability heads at 1/4, 1/2 and full resolution, each upsampling stage
taking the previous head's map as an extra input channel, so input sides must
be multiples of 4.

``forward`` returns the three maps and a cache holding everything
``backward`` needs, the parameters included; ``backward`` turns loss
gradients on the maps into gradients for every parameter. A caller that runs
forwards in sequence (training, pseudo-mask updates, each ``eval --model``
worker) lends ``forward`` one reusable ``ConvWorkspace`` per conv layer
(``new_workspace``), which then holds every large temporary: padded inputs,
im2col matrices, pre-activations, activations and upsampled inputs. The
cache's arrays are views of it, valid until the next ``forward`` with that
workspace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np


@dataclass(frozen=True)
class ArchConfig:
    channels: int = 16
    sa_enabled: bool = True
    pad_mode: str = "zero"  # "zero" or "wrap"

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.pad_mode not in ("zero", "wrap"):
            raise ValueError(f"unknown pad_mode {self.pad_mode!r}")


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0


# ---------------------------------------------------------------------------
# primitive layers

class ConvWorkspace:
    """Reusable buffers of one conv layer. Forward: the padded input ``xp``,
    the im2col matrix ``col``, the conv output ``out``, its relu ``act`` and
    the upsampled input ``up`` of a decoder layer. Backward: the column
    gradient ``dcol`` and the padded input gradient ``dxp``. Each kind is one
    flat array, grown when a call needs more and viewed at the call's shape,
    so inputs of varying size reuse it too."""

    def __init__(self):
        self._flat = {}

    def buffer(self, kind: str, shape) -> np.ndarray:
        n = math.prod(shape)
        flat = self._flat.get(kind)
        if flat is None or flat.size < n:
            flat = self._flat[kind] = np.empty(n)
        return flat[:n].reshape(shape)


CONV_LAYERS = ("enc0", "enc1", "enc2", "enc3", "dec0", "dec1", "dec2")


def new_workspace() -> dict:
    """One ConvWorkspace per conv layer, for ``forward(..., workspace=)``.
    Keyed by layer, not by shape: the ``col`` buffers of enc2, enc3 and dec0
    share a shape, and each must survive from forward until backward."""
    return {name: ConvWorkspace() for name in CONV_LAYERS}


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1,
           pad_mode: str = "zero", workspace: ConvWorkspace | None = None):
    """3x3 convolution, pad 1. Returns (out, cache for conv2d_backward).

    With no workspace every buffer is freshly allocated. With one, the
    padded input, im2col and the output are written into its ``xp``,
    ``col`` and ``out`` buffers, and conv2d_backward takes ``dcol`` and
    ``dxp`` from it: the output and the cache are then valid only until the
    next conv2d call with that same workspace."""
    if workspace is None:
        workspace = ConvWorkspace()
    cin, h, wd = x.shape
    cout = w.shape[0]
    # the padded input: the same values np.pad writes, zero or wrap border
    xp = workspace.buffer("xp", (cin, h + 2, wd + 2))
    xp[:, 1:h + 1, 1:wd + 1] = x
    if pad_mode == "zero":
        xp[:, 0] = xp[:, h + 1] = 0.0
        xp[:, :, 0] = xp[:, :, wd + 1] = 0.0
    else:
        xp[:, 0, 1:wd + 1] = x[:, h - 1]
        xp[:, h + 1, 1:wd + 1] = x[:, 0]
        xp[:, :, 0] = xp[:, :, wd]
        xp[:, :, wd + 1] = xp[:, :, 1]
    ho, wo = h // stride, wd // stride
    col = workspace.buffer("col", (cin, 3, 3, ho, wo))
    for di in range(3):
        for dj in range(3):
            col[:, di, dj] = xp[:, di:di + (ho - 1) * stride + 1:stride,
                                dj:dj + (wo - 1) * stride + 1:stride]
    col2 = col.reshape(cin * 9, ho * wo)
    out = workspace.buffer("out", (cout, ho, wo))
    np.matmul(w.reshape(cout, cin * 9), col2, out=out.reshape(cout, ho * wo))
    out += b[:, None, None]
    return out, (col2, x.shape, w, stride, pad_mode, workspace)


def conv2d_backward(dout: np.ndarray, cache, input_grad: bool = True):
    """Returns (dx, dw, db); dx is None when input_grad is false. dx is a view
    of the ``dxp`` buffer of the cache's workspace (one of its own when
    conv2d had none), valid until the next backward into that buffer."""
    col2, xshape, w, stride, pad_mode, workspace = cache
    cin, h, wd = xshape
    cout, ho, wo = dout.shape
    dflat = dout.reshape(cout, ho * wo)
    dw = (dflat @ col2.T).reshape(w.shape)
    db = dflat.sum(axis=1)
    if not input_grad:
        return None, dw, db
    dcol = np.matmul(w.reshape(cout, cin * 9).T, dflat,
                     out=workspace.buffer("dcol", (cin * 9, ho * wo)))
    dcol = dcol.reshape(cin, 3, 3, ho, wo)
    dxp = workspace.buffer("dxp", (cin, h + 2, wd + 2))
    dxp.fill(0.0)
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + (ho - 1) * stride + 1:stride,
                dj:dj + (wo - 1) * stride + 1:stride] += dcol[:, di, dj]
    if pad_mode == "wrap":
        dxp[:, 1, :] += dxp[:, h + 1, :]
        dxp[:, h, :] += dxp[:, 0, :]
        dxp[:, :, 1] += dxp[:, :, wd + 1]
        dxp[:, :, wd] += dxp[:, :, 0]
    return dxp[:, 1:h + 1, 1:wd + 1], dw, db


def conv1x1(x: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """1x1 projection of (C,H,W) features to a single map."""
    return np.tensordot(w, x, axes=([0], [0])) + b


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def up2(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Nearest 2x upsampling of (C,H,W) x, written into out (C,2H,2W)."""
    c, h, w = x.shape
    out.reshape(c, h, 2, w, 2)[...] = x[:, :, None, :, None]
    return out


def up2_backward(d: np.ndarray) -> np.ndarray:
    c, h, w = d.shape
    return d.reshape(c, h // 2, 2, w // 2, 2).sum(axis=(2, 4))


# ---------------------------------------------------------------------------
# parameters

def _param_shapes(cfg: ArchConfig) -> dict:
    c = cfg.channels
    shapes = {
        "enc0_w": (c, 1, 3, 3), "enc0_b": (c,),
        "enc1_w": (c, c, 3, 3), "enc1_b": (c,),
        "enc2_w": (c, c, 3, 3), "enc2_b": (c,),
        "enc3_w": (c, c, 3, 3), "enc3_b": (c,),
        "dec0_w": (c, c, 3, 3), "dec0_b": (c,),
        "dec1_w": (c, c + 1, 3, 3), "dec1_b": (c,),
        "dec2_w": (c, c + 1, 3, 3), "dec2_b": (c,),
        "head1_w": (c,), "head1_b": (),
        "head2_w": (c,), "head2_b": (),
        "head3_w": (c,), "head3_b": (),
    }
    if cfg.sa_enabled:
        for s in (1, 2):
            shapes[f"sa{s}_w1"] = (c, c)
            shapes[f"sa{s}_b1"] = (c,)
            shapes[f"sa{s}_w2"] = (c, c)
            shapes[f"sa{s}_b2"] = (c,)
    return shapes


def init_params(seed: int, cfg: ArchConfig) -> dict:
    """Fan-in scaled uniform kernels; heads and all biases start at zero, so
    the initial predictions are exactly 0.5 everywhere."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(cfg).items():
        if name.startswith("head") or name.endswith("_b"):
            params[name] = np.zeros(shape)
        else:
            arr = np.asarray(np.prod(shape[1:]), dtype=np.float64)
            bound = 1.0 / np.sqrt(float(arr))
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


# ---------------------------------------------------------------------------
# scale attention

def scale_attention_fuse(f1: np.ndarray, f2: np.ndarray, params: dict,
                         prefix: tuple[str, str] = ("sa1", "sa2")):
    """SE-style gating of two same-shape feature maps.

    Per scale: a = sigmoid(W2 @ relu(W1 @ gap(F) + b1) + b2) per channel;
    weights are normalized to sum to one and the output is the per-channel
    convex combination. Returns (fused, cache).
    """
    if f1.shape != f2.shape:
        raise ValueError(f"scale shapes differ: {f1.shape} vs {f2.shape}")
    feats = (f1, f2)
    zs, pre1s, hs, gates = [], [], [], []
    for f, pfx in zip(feats, prefix):
        z = f.mean(axis=(1, 2))
        pre1 = params[f"{pfx}_w1"] @ z + params[f"{pfx}_b1"]
        hdd = relu(pre1)
        a = sigmoid(params[f"{pfx}_w2"] @ hdd + params[f"{pfx}_b2"])
        zs.append(z)
        pre1s.append(pre1)
        hs.append(hdd)
        gates.append(a)
    total = gates[0] + gates[1]
    w1n = gates[0] / total
    w2n = gates[1] / total
    fused = w1n[:, None, None] * f1 + w2n[:, None, None] * f2
    cache = (feats, zs, pre1s, hs, gates, (w1n, w2n), prefix)
    return fused, cache


def scale_attention_backward(dout: np.ndarray, cache, params: dict):
    feats, zs, pre1s, hs, gates, (w1n, w2n), prefix = cache
    f1, f2 = feats
    npix = f1.shape[1] * f1.shape[2]
    df = [w1n[:, None, None] * dout, w2n[:, None, None] * dout]
    dwn = [np.sum(dout * f1, axis=(1, 2)), np.sum(dout * f2, axis=(1, 2))]
    total = gates[0] + gates[1]
    da = [(dwn[0] - dwn[1]) * gates[1] / total ** 2,
          (dwn[1] - dwn[0]) * gates[0] / total ** 2]
    grads = {}
    for s in (0, 1):
        pfx = prefix[s]
        dpre2 = da[s] * gates[s] * (1.0 - gates[s])
        grads[f"{pfx}_w2"] = np.outer(dpre2, hs[s])
        grads[f"{pfx}_b2"] = dpre2
        dh = params[f"{pfx}_w2"].T @ dpre2
        dpre1 = dh * (pre1s[s] > 0)
        grads[f"{pfx}_w1"] = np.outer(dpre1, zs[s])
        grads[f"{pfx}_b1"] = dpre1
        dz = params[f"{pfx}_w1"].T @ dpre1
        df[s] = df[s] + dz[:, None, None] / npix
    return df[0], df[1], grads


# ---------------------------------------------------------------------------
# forward / backward

def forward(img: np.ndarray, params: dict, cfg: ArchConfig,
            workspace: dict | None = None):
    """Run the segmenter; returns (p1, p2, p3, cache) with maps at 1/4, 1/2
    and full resolution. The cache holds what backward() needs, params
    included.

    ``workspace`` (from new_workspace) lends every conv layer its reusable
    buffers: the im2col matrices and also the pre-activations, activations
    and upsampled inputs in the cache are views of it, valid only until the
    next forward with that same workspace (p1, p2 and p3 are fresh arrays).
    Without one every buffer is fresh, as concurrent callers need."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    if h % 4 or w % 4:
        raise ValueError(f"input dims must be divisible by 4, got {h}x{w}")
    pm = cfg.pad_mode
    ws = new_workspace() if workspace is None else workspace

    def conv_relu(x, name, stride):
        pre, c = conv2d(x, params[name + "_w"], params[name + "_b"], stride,
                        pm, ws[name])
        return pre, c, relu(pre, ws[name].buffer("act", pre.shape))

    def up2_cat(d, p, name):
        # up2(concatenate([d, p[None]])) written into the layer's up buffer
        c, hd, wd = d.shape
        x = ws[name].buffer("up", (c + 1, 2 * hd, 2 * wd))
        up2(d, x[:c])
        up2(p[None], x[c:])
        return x

    pre0, c0, e0 = conv_relu(img[None], "enc0", 2)
    pre1, c1, f1 = conv_relu(e0, "enc1", 1)
    pre2, c2, e2 = conv_relu(f1, "enc2", 2)
    pre3, c3, f2 = conv_relu(e2, "enc3", 1)
    u2 = up2(f2, ws["dec0"].buffer("up", f1.shape))
    if cfg.sa_enabled:
        fused, sa_cache = scale_attention_fuse(f1, u2, params)
    else:
        fused, sa_cache = 0.5 * (f1 + u2), None
    pre4, c4, d1 = conv_relu(fused, "dec0", 2)
    p1 = sigmoid(conv1x1(d1, params["head1_w"], params["head1_b"]))
    pre5, c5, d2 = conv_relu(up2_cat(d1, p1, "dec1"), "dec1", 1)
    p2 = sigmoid(conv1x1(d2, params["head2_w"], params["head2_b"]))
    pre6, c6, d3 = conv_relu(up2_cat(d2, p2, "dec2"), "dec2", 1)
    p3 = sigmoid(conv1x1(d3, params["head3_w"], params["head3_b"]))
    cache = dict(cfg=cfg, params=params, convs=(c0, c1, c2, c3, c4, c5, c6),
                 pres=(pre0, pre1, pre2, pre3, pre4, pre5, pre6),
                 sa_cache=sa_cache, f1=f1, f2=f2,
                 d=(d1, d2, d3), p=(p1, p2, p3))
    return p1, p2, p3, cache


def _head_backward(dp, p, d, wname, params, grads):
    dpre = dp * p * (1.0 - p)
    grads[wname + "_w"] = np.sum(dpre[None] * d, axis=(1, 2))
    grads[wname + "_b"] = np.asarray(dpre.sum())
    return params[wname + "_w"][:, None, None] * dpre[None]


def backward(cache, dps) -> dict:
    """Reverse pass; dps are the loss gradients on (p1, p2, p3). Returns
    gradients for every parameter."""
    cfg = cache["cfg"]
    c0, c1, c2, c3, c4, c5, c6 = cache["convs"]
    pre0, pre1, pre2, pre3, pre4, pre5, pre6 = cache["pres"]
    d1, d2, d3 = cache["d"]
    p1, p2, p3 = cache["p"]
    dp1, dp2, dp3 = [np.asarray(d, dtype=np.float64) for d in dps]
    for dp, p in ((dp1, p1), (dp2, p2), (dp3, p3)):
        if dp.shape != p.shape:
            raise ValueError(f"grad shape {dp.shape} != map shape {p.shape}")
    params = cache["params"]
    grads = {}

    dd3 = _head_backward(dp3, p3, d3, "head3", params, grads)
    dx3, grads["dec2_w"], grads["dec2_b"] = conv2d_backward(dd3 * (pre6 > 0), c6)
    dcat2 = up2_backward(dx3)
    dd2 = dcat2[:-1]
    dp2_extra = dcat2[-1]

    dd2 = dd2 + _head_backward(dp2 + dp2_extra, p2, d2, "head2", params, grads)
    dx2, grads["dec1_w"], grads["dec1_b"] = conv2d_backward(dd2 * (pre5 > 0), c5)
    dcat1 = up2_backward(dx2)
    dd1 = dcat1[:-1]
    dp1_extra = dcat1[-1]

    dd1 = dd1 + _head_backward(dp1 + dp1_extra, p1, d1, "head1", params, grads)
    dfused, grads["dec0_w"], grads["dec0_b"] = conv2d_backward(dd1 * (pre4 > 0), c4)

    if cfg.sa_enabled:
        df1, du2, sa_grads = scale_attention_backward(dfused, cache["sa_cache"],
                                                      params)
        grads.update(sa_grads)
    else:
        df1 = 0.5 * dfused
        du2 = 0.5 * dfused
    df2 = up2_backward(du2)

    de2, grads["enc3_w"], grads["enc3_b"] = conv2d_backward(df2 * (pre3 > 0), c3)
    df1b, grads["enc2_w"], grads["enc2_b"] = conv2d_backward(de2 * (pre2 > 0), c2)
    df1 = df1 + df1b
    de0, grads["enc1_w"], grads["enc1_b"] = conv2d_backward(df1 * (pre1 > 0), c1)
    _, grads["enc0_w"], grads["enc0_b"] = conv2d_backward(de0 * (pre0 > 0), c0,
                                                          input_grad=False)
    return grads


# ---------------------------------------------------------------------------
# Adam

def adam_init(params: dict) -> AdamState:
    return AdamState(m={k: np.zeros_like(v) for k, v in params.items()},
                     v={k: np.zeros_like(v) for k, v in params.items()},
                     step=0)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One in-place Adam update; returns (params, state)."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        mhat = state.m[name] / bc1
        vhat = state.v[name] / bc2
        params[name] = p - lr * mhat / (np.sqrt(vhat) + eps)
    return params, state


# ---------------------------------------------------------------------------
# model file: one JSON header line + little-endian float64 payload

def save_model(path, params: dict, cfg: ArchConfig) -> None:
    names = sorted(params)
    manifest = []
    offset = 0
    for name in names:
        shape = list(params[name].shape)
        manifest.append({"name": name, "shape": shape, "offset": offset})
        offset += int(np.prod(shape)) if shape else 1
    header = json.dumps({"version": 1, "arch": asdict(cfg),
                         "manifest": manifest}, sort_keys=True)
    payload = np.concatenate([params[n].reshape(-1) for n in names]) \
        if names else np.empty(0)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(payload.astype("<f8").tobytes())


def load_model(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        payload = np.frombuffer(fh.read(), dtype="<f8")
    cfg = ArchConfig(**header["arch"])
    params = {}
    for entry in header["manifest"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        arr = payload[entry["offset"]:entry["offset"] + n].reshape(shape)
        params[entry["name"]] = np.array(arr)
    return params, cfg
