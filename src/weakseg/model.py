"""Toy convolutional segmenter with three-scale deep supervision and a
scale-attention fusion of the two encoder scales, implemented with manual
forward/backward passes in numpy.

Feature maps are (channels, height, width) arrays. The encoder has
two stride-2 stages (features at 1/2 and 1/4 resolution); the decoder emits
probability heads at 1/4, 1/2 and full resolution, each upsampling stage
taking the previous head's map as an extra input channel, so input sides must
be multiples of 4.

The parameters are one vector laid out as the model.bin payload;
``param_views`` gives named views into it. ``forward`` computes in the dtype
of the vector it gets: float64 for training, the pseudo-mask updates and
gradcheck, float32 for ``eval --model``, which casts the float64 vector it
loads once (mixed precision, Micikevicius et al. 2018, "Mixed Precision
Training"). It returns the three maps and a cache holding everything
``backward`` needs, the parameters included; ``backward`` takes only a
float64 forward's cache and returns one gradient vector of the same layout,
which ``adam_step`` applies in place. The package runs its forwards in
sequence (training, pseudo-mask updates, ``eval --model``) and lends one
reusable ``ConvWorkspace`` per conv layer (``new_workspace``), which then
holds every large temporary: padded inputs, the stride-2 im2col matrices,
activations and the decoders' concatenated inputs. The cache's arrays are
views of it, valid until the next ``forward`` with that workspace. The
layers' buffers that no cache refers to and that die before the next conv
call (phase sums, tap products, decoder inputs and every backward buffer)
live in one scratch holder that all seven layers share, so the workspace
holds the largest of each rather than one per layer.

The stride-1 convs (enc1, enc3) are nine shifted GEMMs on the padded input
(Anderson et al. 2017, "Low-memory GEMM-based convolution algorithms"); the
stride-2 convs (enc0, enc2, dec0) use im2col. dec1 and dec2 convolve the
nearest 2x upsampling of their low-resolution input, which is the same as
four 2x2 convs of that input, one per output phase (Shi et al. 2016,
"Real-Time Single Image and Video Super-Resolution Using an Efficient
Sub-Pixel CNN"): sixteen shifted GEMMs, 16/36 of the multiply-adds, and the
upsampled input is never built. Both strides pad their input into one
(C, H+3, W+2) shape, and the backward lays each output gradient out once,
padded the same way: the stride-1 weight gradients read views of it, and
every input gradient is the transposed convolution run as shifted GEMMs on
it, at stride 2 on the zero-upsampled output gradient (Dumoulin & Visin
2016), and for dec1 and dec2 on the four output phases' gradients, landing
on the low-resolution grid.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.special import expit


@dataclass(frozen=True)
class ArchConfig:
    channels: int = 16

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


# ---------------------------------------------------------------------------
# primitive layers

class ConvWorkspace:
    """Reusable buffers of one conv layer, each one flat array grown when a
    call needs more, made anew when a call needs another dtype, and viewed
    at the call's shape, so inputs of varying size reuse it too. Forward:
    the padded input ``xp`` ((C, H+3, W+2) at either stride), the conv
    output ``out`` (which ``forward`` relus in place), at stride 2 the
    im2col matrix ``col`` and at stride 1 one output phase's shifted-GEMM
    sum ``ph`` (the whole output without upsampling); for dec0 the upsampled
    encoder features ``up``, and for dec1 and dec2 the low-resolution input
    ``cat`` (the features and the previous head's map). Backward: the padded
    output gradient ``dp``, one grid per output phase (at stride 2
    zero-upsampled, and built only for dx), which the stride-1 dw and dx
    both read, and the input gradient ``dx``. ``tap`` holds one shifted
    product at a time.

    The _SCRATCH kinds come from ``scratch``, a holder that the layers of
    one new_workspace share. That is safe because no cache refers to them
    and each dies before the next conv call: ``ph``, ``tap`` and ``dp``
    within one, ``cat`` once conv2d has padded it into ``xp``, and ``dx``
    (which conv2d_backward returns) once the caller has read it. ``xp``,
    ``col``, ``out`` and ``up`` live from forward until backward, so each
    layer keeps its own. Without ``scratch`` the workspace keeps every buffer."""

    def __init__(self, scratch: dict | None = None):
        self._flat = {}
        self._scratch = self._flat if scratch is None else scratch

    def buffer(self, kind: str, shape, dtype) -> np.ndarray:
        store = self._scratch if kind in _SCRATCH else self._flat
        n = math.prod(shape)
        flat = store.get(kind)
        if flat is None or flat.size < n or flat.dtype != dtype:
            flat = store[kind] = np.empty(n, dtype)
        return flat[:n].reshape(shape)


_SCRATCH = frozenset({"ph", "tap", "cat", "dp", "dx"})
CONV_LAYERS = ("enc0", "enc1", "enc2", "enc3", "dec0", "dec1", "dec2")


def new_workspace() -> dict:
    """One ConvWorkspace per conv layer, for ``forward(..., workspace=)``,
    all sharing one scratch holder. Keyed by layer, not by shape: the
    padded inputs of enc2, enc3 and dec0 share a shape, and each must
    survive from forward until backward."""
    scratch = {}
    return {name: ConvWorkspace(scratch) for name in CONV_LAYERS}


def _pad(xp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Writes (C, H, W) x into xp[:, 1:H+1, 1:W+1] and zeroes the rest of
    xp: the zero border of width 1 and any rows past H+1."""
    h, wd = x.shape[1:]
    xp[:, 1:h + 1, 1:wd + 1] = x
    xp[:, 0] = 0.0
    xp[:, h + 1:] = 0.0
    xp[:, :, 0] = xp[:, :, wd + 1] = 0.0
    return xp


def _tap_offsets(wd: int):
    """Where tap (di, dj) of a 3x3 kernel starts in a flattened padded map
    of width W. The map is (C, H+3, W+2), padded by one (_pad): in each of
    its flattened rows, the (H, W+2) grid starting at row di, column dj is
    the contiguous slice of H*(W+2) elements at offset di*(W+2)+dj, the
    spare row keeping the last one in bounds."""
    return [di * (wd + 2) + dj for di in range(3) for dj in range(3)]


# Row d of a 3x3 kernel on the nearest-upsampled grid reads low-resolution
# row i-1+p+r for output row 2i+p where _MERGE_1D[p, r, d] = 1: phase 0
# reads row i-1 with d = 0 and row i with d = 1, 2; phase 1 reads row i with
# d = 0, 1 and row i+1 with d = 2. Columns alike, so _MERGE[4*(2*pi+pj) +
# 2*ri+rj, 3*di+dj] = 1 where phase (pi, pj)'s tap (ri, rj) takes kernel
# tap (di, dj).
_MERGE_1D = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
                      [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
_MERGE = np.einsum("pra,qsb->pqrsab", _MERGE_1D, _MERGE_1D).reshape(16, 9)


def _phase_taps(w):
    """The 2x2 kernels of the four output phases of a 3x3 conv w on a
    nearest-upsampled input, (16, Cout, Cin), in _MERGE's row order. One
    small GEMM: merging tap by tap with indexing costs more than a whole
    conv of a 16x16 input."""
    cout, cin = w.shape[:2]
    merge = _MERGE.astype(w.dtype, copy=False)
    return (merge @ w.reshape(cout * cin, 9).T).reshape(16, cout, cin)


def _phase_offsets(wd: int):
    """Where each _phase_taps tap starts in a flattened padded low-resolution
    map of width W (_tap_offsets): phase (pi, pj)'s tap (ri, rj) at row pi+ri,
    column pj+rj."""
    return [(pi + ri) * (wd + 2) + pj + rj for pi in (0, 1) for pj in (0, 1)
            for ri in (0, 1) for rj in (0, 1)]


def _shifted_conv(flat, taps, offsets, out, tap):
    """The sum over k of taps[k] @ flat[:, offsets[k]:offsets[k] + n], one
    GEMM per tap (Anderson et al. 2017), written into (Cout, n) out; tap
    holds one product at a time."""
    n = out.shape[1]
    np.matmul(taps[0], flat[:, offsets[0]:offsets[0] + n], out=out)
    for t, o in zip(taps[1:], offsets[1:]):
        out += np.matmul(t, flat[:, o:o + n], out=tap)


def _geometry(w, wd: int, upsample: bool):
    """(s, taps, offsets) of a stride-1 conv w of an input of width W: the
    output has s phases per axis, out[:, pi::s, pj::s] for phase s*pi+pj,
    and phase p sums the k = len(taps) // s**2 taps[p*k:(p+1)*k], (Cout, Cin)
    each, at the matching offsets of the flattened padded input."""
    if upsample:
        return 2, _phase_taps(w), _phase_offsets(wd)
    cout, cin = w.shape[:2]
    return 1, w.transpose(2, 3, 0, 1).reshape(9, cout, cin), _tap_offsets(wd)


def _tap_columns(xs, n: int, wd: int, upsample: bool):
    """Every tap's slice of the flattened padded input xs of a stride-1
    conv of width W, transposed, as one (3, 3, n, Cin) view, or with
    upsample (2, 2, 2, 2, n, Cin) by phase and tap: in _geometry's order,
    tap i is xs[:, o:o + n].T at offsets[i]."""
    e = xs.strides[1]
    row = (wd + 2) * e
    shape, strides = ((2, 2, 2, 2), (row, e) * 2) if upsample \
        else ((3, 3), (row, e))
    return np.lib.stride_tricks.as_strided(
        xs, shape + (n, xs.shape[0]), strides + (e, xs.strides[0]),
        writeable=False)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1,
           workspace: ConvWorkspace | None = None, upsample: bool = False):
    """3x3 convolution, zero pad 1, of x or, with upsample (at stride 1), of
    its nearest 2x upsampling. Returns (out, cache for conv2d_backward).

    Both strides pad x into one (C, H+3, W+2) shape. Stride 1 sums nine
    shifted GEMMs on the padded input (_shifted_conv); stride 2 multiplies
    by the im2col matrix, one copy of a window view of it. With upsample,
    output phase (pi, pj), out[:, pi::2, pj::2], is a 2x2 conv of the
    padded x whose taps are merged from the 3x3 kernel (_phase_taps): four
    shifted GEMMs per phase, so the upsampled input is never built (Shi et
    al. 2016). With no workspace every buffer is freshly allocated. With
    one, the padded input, the im2col matrix, each phase's sum and the
    output are written into its ``xp``, ``col``, ``ph`` and ``out``
    buffers, and conv2d_backward takes its buffers from it too: the output
    and the cache are then valid only until the next conv2d call with that
    same workspace."""
    if upsample and stride != 1:
        raise ValueError("upsample needs stride 1")
    if workspace is None:
        workspace = ConvWorkspace()
    cin, h, wd = x.shape
    cout, dt = w.shape[0], w.dtype
    xp = _pad(workspace.buffer("xp", (cin, h + 3, wd + 2), dt), x)
    if stride == 1:
        s, taps, offsets = _geometry(w, wd, upsample)
        k, n = len(taps) // (s * s), h * (wd + 2)
        flat = xp.reshape(cin, -1)
        ph = workspace.buffer("ph", (cout, n), dt)
        tap = workspace.buffer("tap", (cout, n), dt)
        out = workspace.buffer("out", (cout, s * h, s * wd), dt)
        for p in range(s * s):
            _shifted_conv(flat, taps[p * k:p * k + k],
                          offsets[p * k:p * k + k], ph, tap)
            # the bias goes on the contiguous (H, W+2) grid, one long loop
            # per channel; one copy then drops its 2 spare columns
            np.add(ph, b[:, None], out=ph)
            out[:, p // s::s, p % s::s] = \
                ph.reshape(cout, h, wd + 2)[:, :, :wd]
        return out, (flat, x.shape, w, stride, workspace, upsample)
    ho, wo = h // stride, wd // stride
    col = workspace.buffer("col", (cin, 3, 3, ho, wo), dt)
    # one copy of the window view: tap (di, dj) of output pixel (i, j)
    # reads xp[:, di + stride*i, dj + stride*j]
    c, r, e = xp.strides
    col[...] = np.lib.stride_tricks.as_strided(
        xp, col.shape, (c, r, e, stride * r, stride * e), writeable=False)
    col2 = col.reshape(cin * 9, ho * wo)
    out = workspace.buffer("out", (cout, ho, wo), dt)
    np.matmul(w.reshape(cout, cin * 9), col2, out=out.reshape(cout, ho * wo))
    out += b[:, None, None]
    return out, (col2, x.shape, w, stride, workspace, upsample)


def conv2d_backward(dout: np.ndarray, cache, input_grad: bool = True):
    """Returns (dx, dw, db); dx is None when input_grad is false. dx is a view
    of a buffer of the cache's workspace (one of its own when conv2d had
    none), valid until the next backward into that buffer: with a
    workspace from new_workspace, the next backward of any of its layers.

    The output gradient is laid out once, zero-padded as the forward pads
    its input, one grid per output phase. A strided conv samples the
    stride-1 conv, so there it lands on every stride-th pixel of a zeroed
    grid, which is built only for dx; dw is the output gradient times the
    im2col matrix. At stride 1, from row 1, column 1 on, each phase's
    flattened padded gradient is its output gradient on the (H, W+2) grid
    with two zero spare columns, and the gradient of a tap is that view
    times the tap's slice of the padded input; with upsample, _MERGE folds
    the phase taps' gradients back into dw. dx is the transposed
    convolution: _shifted_conv with each tap transposed on the padded
    gradient, the tap read at offset (a, b) in the forward read at
    (2-a, 2-b). With upsample it lands on the low-resolution grid."""
    xs, xshape, w, stride, workspace, upsample = cache
    cin, h, wd = xshape
    cout, dt = dout.shape[0], w.dtype
    n, size = h * (wd + 2), (h + 3) * (wd + 2)
    db = dout.reshape(cout, -1).sum(axis=1)
    s, taps, offsets = _geometry(w, wd, upsample)
    k = len(taps) // (s * s)
    if stride != 1:
        dw = (dout.reshape(cout, -1) @ xs.T).reshape(w.shape)
        if input_grad:
            dp = workspace.buffer("dp", (cout, 1, h + 3, wd + 2), dt)
            dp.fill(0.0)
            dp[:, 0, 1:stride * dout.shape[1]:stride,
               1:stride * dout.shape[2]:stride] = dout
    else:
        dp = workspace.buffer("dp", (cout, s * s, h + 3, wd + 2), dt)
        for p in range(s * s):
            _pad(dp[:, p], dout[:, p // s::s, p % s::s])
        # one batched matmul over views of dp; it runs each tap's GEMM as a
        # call of its own on a contiguous copy would, so the bytes are the
        # same
        g = dp.reshape(cout, s * s, size)[:, :, wd + 3:wd + 3 + n]
        dk = np.matmul(g.transpose(1, 0, 2).reshape(s, s, 1, 1, cout, n),
                       _tap_columns(xs, n, wd, upsample)
                       ).reshape(len(taps), cout, cin)
        dw = (dk.reshape(16, -1).T @ _MERGE if upsample
              else dk.transpose(1, 2, 0)).reshape(w.shape)
    if not input_grad:
        return None, dw, db
    # phase p's padded gradient starts at p*size, and (2-a)*(W+2) + 2-b is
    # 2*(W+3) minus the forward offset a*(W+2) + b
    dx = workspace.buffer("dx", (cin, n), dt)
    _shifted_conv(dp.reshape(cout, -1), taps.transpose(0, 2, 1),
                  [i // k * size + 2 * (wd + 3) - o
                   for i, o in enumerate(offsets)],
                  dx, workspace.buffer("tap", (cin, n), dt))
    return dx.reshape(cin, h, wd + 2)[:, :, :wd], dw, db


def conv1x1(x: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """1x1 projection of (C,H,W) features to a single map; one (C,) @ (C,W)
    product per row, so a strided view of x is read in place."""
    return np.matmul(w, x.transpose(1, 0, 2)) + b


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def up2(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Nearest 2x upsampling of (C,H,W) x, written into out (C,2H,2W): x
    into the even and odd columns of the even rows, then the even rows onto
    the odd ones, so every copy runs along whole rows."""
    c, h, w = x.shape
    rows = out.reshape(c, h, 2, 2 * w)
    rows[:, :, 0, 0::2] = x
    rows[:, :, 0, 1::2] = x
    rows[:, :, 1] = rows[:, :, 0]
    return out


def up2_backward(d: np.ndarray) -> np.ndarray:
    """Sums each 2x2 block of (C,2H,2W) d: rows, then columns."""
    rows = d[:, 0::2] + d[:, 1::2]
    return rows[:, :, 0::2] + rows[:, :, 1::2]


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
    for s in (1, 2):
        shapes[f"sa{s}_w1"] = (c, c)
        shapes[f"sa{s}_b1"] = (c,)
        shapes[f"sa{s}_w2"] = (c, c)
        shapes[f"sa{s}_b2"] = (c,)
    return shapes


@functools.cache
def _offsets(cfg: ArchConfig):
    """((name, shape, start, stop), ...) in _param_shapes order, and the
    parameter count: the vector holds the parameters by sorted name, each
    taking prod(shape) elements. Computed once per arch."""
    shapes, start, size = _param_shapes(cfg), {}, 0
    for name in sorted(shapes):
        start[name] = size
        size += math.prod(shapes[name])
    return tuple((name, shape, start[name], start[name] + math.prod(shape))
                 for name, shape in shapes.items()), size


def _layout(cfg: ArchConfig):
    """(model.bin header, parameter count); the header's manifest records
    each parameter's name, shape and offset, by sorted name. Its arch also
    holds "sa_enabled": true and "pad_mode": "zero": scale attention always
    runs and every conv pads with zeros, and the file format keeps both
    keys."""
    entries, size = _offsets(cfg)
    manifest = [{"name": name, "shape": list(shape), "offset": start}
                for name, shape, start, _ in sorted(entries)]
    arch = {**asdict(cfg), "sa_enabled": True, "pad_mode": "zero"}
    return {"version": 1, "arch": arch, "manifest": manifest}, size


def param_views(params: np.ndarray, cfg: ArchConfig) -> dict:
    """Named views into a parameter (or gradient) vector, in _param_shapes
    order; writing a view writes the vector."""
    entries, size = _offsets(cfg)
    if params.shape != (size,):
        raise ValueError(f"need {size} parameters, got shape {params.shape}")
    return {name: params[start:stop].reshape(shape)
            for name, shape, start, stop in entries}


def init_params(seed: int, cfg: ArchConfig) -> np.ndarray:
    """Fan-in scaled uniform kernels, drawn in _param_shapes order; heads and
    all biases start at zero, so the initial predictions are exactly 0.5
    everywhere."""
    rng = np.random.default_rng(seed)
    params = np.zeros(_offsets(cfg)[1])
    for name, view in param_views(params, cfg).items():
        if not (name.startswith("head") or name.endswith("_b")):
            bound = 1.0 / np.sqrt(float(math.prod(view.shape[1:])))
            view[...] = rng.uniform(-bound, bound, size=view.shape)
    return params


# ---------------------------------------------------------------------------
# scale attention

def scale_attention_fuse(f1: np.ndarray, f2: np.ndarray, params: dict):
    """SE-style gating of two same-shape feature maps.

    Per scale: a = sigmoid(W2 @ relu(W1 @ gap(F) + b1) + b2) per channel;
    weights are normalized to sum to one and the output is the per-channel
    convex combination. Returns (fused, cache).
    """
    if f1.shape != f2.shape:
        raise ValueError(f"scale shapes differ: {f1.shape} vs {f2.shape}")
    branches = []
    for pfx, f in (("sa1", f1), ("sa2", f2)):
        z = f.mean(axis=(1, 2))
        pre1 = params[f"{pfx}_w1"] @ z + params[f"{pfx}_b1"]
        hidden = relu(pre1)
        gate = expit(params[f"{pfx}_w2"] @ hidden + params[f"{pfx}_b2"])
        branches.append((pfx, f, z, pre1, hidden, gate))
    total = branches[0][5] + branches[1][5]
    wn = [b[5] / total for b in branches]
    fused = wn[0][:, None, None] * f1 + wn[1][:, None, None] * f2
    return fused, (branches, total, wn)


def scale_attention_backward(dout: np.ndarray, cache, params: dict,
                             grads: dict):
    """Returns (df1, df2); writes the gate gradients into the views grads."""
    branches, total, wn = cache
    npix = dout.shape[1] * dout.shape[2]
    dwn = [np.sum(dout * b[1], axis=(1, 2)) for b in branches]
    df = []
    for s, (pfx, _, z, pre1, hidden, gate) in enumerate(branches):
        da = (dwn[s] - dwn[1 - s]) * branches[1 - s][5] / total ** 2
        dpre2 = da * gate * (1.0 - gate)
        grads[f"{pfx}_w2"][...] = np.outer(dpre2, hidden)
        grads[f"{pfx}_b2"][...] = dpre2
        dh = params[f"{pfx}_w2"].T @ dpre2
        dpre1 = dh * (pre1 > 0)
        grads[f"{pfx}_w1"][...] = np.outer(dpre1, z)
        grads[f"{pfx}_b1"][...] = dpre1
        dz = params[f"{pfx}_w1"].T @ dpre1
        df.append(wn[s][:, None, None] * dout + dz[:, None, None] / npix)
    return df[0], df[1]


# ---------------------------------------------------------------------------
# forward / backward

def forward(img: np.ndarray, params: np.ndarray, cfg: ArchConfig,
            workspace: dict | None = None):
    """Run the segmenter with the parameter vector ``params``; returns (p1,
    p2, p3, cache) with maps at 1/4, 1/2 and full resolution. The cache holds
    what backward() needs, params included. Every step computes in the dtype
    of ``params``: the image is cast to it, and the maps, activations and
    workspace buffers have it. float64 parameters give the maps backward()
    needs; float32 ones give a forward for inference only.

    ``workspace`` (from new_workspace) lends every conv layer its reusable
    buffers: the padded inputs and im2col matrices and also the activations
    and decoder inputs in the cache are views of it, valid only until the
    next forward with that same workspace (p1, p2 and p3 are fresh arrays).
    Without one every buffer is fresh: a one-off forward keeps nothing."""
    img = np.asarray(img, dtype=params.dtype)
    h, w = img.shape
    if h % 4 or w % 4:
        raise ValueError(f"input dims must be divisible by 4, got {h}x{w}")
    ws = new_workspace() if workspace is None else workspace
    pv = param_views(params, cfg)

    def conv_relu(x, name, stride, upsample=False):
        out, c = conv2d(x, pv[name + "_w"], pv[name + "_b"], stride,
                        ws[name], upsample)
        return c, relu(out, out)

    def cat(d, p, name):
        # concatenate([d, p[None]]) written into the layer's cat buffer
        x = ws[name].buffer("cat", (d.shape[0] + 1,) + d.shape[1:], d.dtype)
        x[:-1] = d
        x[-1] = p
        return x

    c0, e0 = conv_relu(img[None], "enc0", 2)
    c1, f1 = conv_relu(e0, "enc1", 1)
    c2, e2 = conv_relu(f1, "enc2", 2)
    c3, f2 = conv_relu(e2, "enc3", 1)
    u2 = up2(f2, ws["dec0"].buffer("up", f1.shape, f1.dtype))
    fused, sa_cache = scale_attention_fuse(f1, u2, pv)
    c4, d1 = conv_relu(fused, "dec0", 2)
    p1 = expit(conv1x1(d1, pv["head1_w"], pv["head1_b"]))
    c5, d2 = conv_relu(cat(d1, p1, "dec1"), "dec1", 1, upsample=True)
    p2 = expit(conv1x1(d2, pv["head2_w"], pv["head2_b"]))
    c6, d3 = conv_relu(cat(d2, p2, "dec2"), "dec2", 1, upsample=True)
    p3 = expit(conv1x1(d3, pv["head3_w"], pv["head3_b"]))
    cache = dict(cfg=cfg, params=params, views=pv,
                 convs=(c0, c1, c2, c3, c4, c5, c6),
                 acts=(e0, f1, e2, f2, d1, d2, d3), sa_cache=sa_cache,
                 p=(p1, p2, p3))
    return p1, p2, p3, cache


def _head_backward(dp, p, d, name, params, grads):
    dpre = dp * p * (1.0 - p)
    # one (C, W) @ (W,) product per row reads a strided view of d in place
    grads[name + "_w"][...] = np.matmul(d.transpose(1, 0, 2),
                                        dpre[:, :, None]).sum(axis=0)[:, 0]
    grads[name + "_b"][...] = dpre.sum()
    return params[name + "_w"][:, None, None] * dpre[None]


def backward(cache, dps) -> np.ndarray:
    """Reverse pass of a float64 forward (any other dtype raises
    ValueError); dps are the loss gradients on (p1, p2, p3). Returns the
    float64 gradient vector, laid out as the parameter vector."""
    if cache["params"].dtype != np.float64:
        raise ValueError("backward needs a float64 forward, got "
                         f"{cache['params'].dtype} parameters")
    cfg = cache["cfg"]
    c0, c1, c2, c3, c4, c5, c6 = cache["convs"]
    # relu(x) > 0 exactly where x > 0, so the activations give the masks
    e0, f1, e2, f2, d1, d2, d3 = cache["acts"]
    p1, p2, p3 = cache["p"]
    dp1, dp2, dp3 = [np.asarray(d, dtype=np.float64) for d in dps]
    for dp, p in ((dp1, p1), (dp2, p2), (dp3, p3)):
        if dp.shape != p.shape:
            raise ValueError(f"grad shape {dp.shape} != map shape {p.shape}")
    params = cache["views"]
    gvec = np.zeros_like(cache["params"])
    grads = param_views(gvec, cfg)

    def conv_backward(name, dout, conv_cache, input_grad=True):
        dx, grads[name + "_w"][...], grads[name + "_b"][...] = \
            conv2d_backward(dout, conv_cache, input_grad)
        return dx

    # each decoder input's last channel is the previous head's map
    dd3 = _head_backward(dp3, p3, d3, "head3", params, grads)
    dcat2 = conv_backward("dec2", dd3 * (d3 > 0), c6)
    dd2 = dcat2[:-1] + _head_backward(dp2 + dcat2[-1], p2, d2, "head2",
                                      params, grads)
    dcat1 = conv_backward("dec1", dd2 * (d2 > 0), c5)
    dd1 = dcat1[:-1] + _head_backward(dp1 + dcat1[-1], p1, d1, "head1",
                                      params, grads)
    dfused = conv_backward("dec0", dd1 * (d1 > 0), c4)
    df1, du2 = scale_attention_backward(dfused, cache["sa_cache"], params,
                                        grads)
    df2 = up2_backward(du2)

    de2 = conv_backward("enc3", df2 * (f2 > 0), c3)
    df1 = df1 + conv_backward("enc2", de2 * (e2 > 0), c2)
    de0 = conv_backward("enc1", df1 * (f1 > 0), c1)
    conv_backward("enc0", de0 * (e0 > 0), c0, input_grad=False)
    return gvec


# ---------------------------------------------------------------------------
# Adam

_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def adam_init(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float):
    """One in-place Adam update of the parameter vector; returns (params,
    state). An update that would leave a parameter non-finite, as any
    non-finite gradient does, raises FloatingPointError naming the first
    such index before params or state change."""
    step = state.step + 1
    with np.errstate(over="ignore", invalid="ignore"):
        m = _BETA1 * state.m + (1.0 - _BETA1) * grads
        v = _BETA2 * state.v + (1.0 - _BETA2) * grads * grads
        mhat = m / (1.0 - _BETA1 ** step)
        vhat = v / (1.0 - _BETA2 ** step)
        new = params - lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)
    finite = np.isfinite(new)
    if not finite.all():
        raise FloatingPointError("the Adam step leaves parameter index "
                                 f"{int(np.argmin(finite))} non-finite")
    params[...] = new
    state.step, state.m, state.v = step, m, v
    return params, state


# ---------------------------------------------------------------------------
# model file: one JSON header line + little-endian float64 payload

def save_model(path, params: np.ndarray, cfg: ArchConfig) -> None:
    header = json.dumps(_layout(cfg)[0], sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(params.astype("<f8").tobytes())


def load_model(path):
    """Returns (parameter vector, ArchConfig). A header other than the one
    save_model writes for its arch (an sa_enabled other than true or a
    pad_mode other than "zero" among them), or a payload of another length
    than that arch needs, or one holding a non-finite value, raises
    ValueError naming the file."""
    with open(path, "rb") as fh:
        line, payload = fh.readline(), fh.read()
    try:
        header = json.loads(line.decode("ascii"))
    except (ValueError, RecursionError):
        header = None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: the first line is not a JSON object")
    arch, fields = header.get("arch"), _layout(ArchConfig())[0]["arch"]
    if not isinstance(arch, dict) or arch.keys() != fields.keys() \
            or any(type(arch[k]) is not type(fields[k]) for k in fields):
        raise ValueError(f"{path}: 'arch' must hold exactly channels (int), "
                         f"sa_enabled (bool) and pad_mode (str), got "
                         f"{json.dumps(arch)}")
    try:
        if arch["pad_mode"] != "zero":
            raise ValueError(f"unknown pad_mode {arch['pad_mode']!r}")
        if not arch["sa_enabled"]:
            raise ValueError("sa_enabled must be true: scale attention "
                             "always runs")
        cfg = ArchConfig(arch["channels"])
    except ValueError as exc:
        raise ValueError(f"{path}: 'arch': {exc}") from None
    want, size = _layout(cfg)
    for key in sorted(header.keys() | want.keys()):
        if header.get(key) != want.get(key):
            raise ValueError(f"{path}: header key {key!r} differs from the "
                             f"header of a model with arch {json.dumps(arch)}")
    if len(payload) != 8 * size:
        raise ValueError(f"{path}: the payload holds {len(payload)} bytes, "
                         f"the arch needs {8 * size}")
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(params).all():
        raise ValueError(f"{path}: the payload holds a non-finite value")
    return params, cfg
