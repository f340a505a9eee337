import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from weakseg import model
from weakseg.cli import model_gradcheck
from weakseg.losses import finite_diff_check
from weakseg.model import (AdamState, ArchConfig, ConvWorkspace, adam_init,
                           adam_step, backward, conv2d, conv2d_backward,
                           forward, init_params, load_model, new_workspace,
                           param_views, save_model, scale_attention_backward,
                           scale_attention_fuse)

# Case ids of the conv tests end in "-zero", the padding they check;
# zero padding is the only padding the model has.


class TestInit:
    def test_deterministic(self):
        cfg = ArchConfig(channels=4)
        a = init_params(7, cfg)
        b = init_params(7, cfg)
        assert np.array_equal(a, b)

    def test_zero_heads_give_half(self):
        cfg = ArchConfig(channels=4)
        params = init_params(0, cfg)
        rng = np.random.default_rng(1)
        p1, p2, p3, _ = forward(rng.uniform(0, 1, (16, 16)), params, cfg)
        assert np.all(p1 == 0.5) and np.all(p2 == 0.5) and np.all(p3 == 0.5)

    def test_seeds_differ(self):
        cfg = ArchConfig(channels=4)
        a = init_params(0, cfg)
        b = init_params(1, cfg)
        assert not np.array_equal(a, b)


class TestForward:
    def test_output_dims(self):
        cfg = ArchConfig(channels=4)
        params = init_params(2, cfg)
        rng = np.random.default_rng(2)
        p1, p2, p3, _ = forward(rng.uniform(0, 1, (32, 32)), params, cfg)
        assert p1.shape == (8, 8)
        assert p2.shape == (16, 16)
        assert p3.shape == (32, 32)

    def test_outputs_in_open_unit_interval(self):
        cfg = ArchConfig(channels=4)
        params = init_params(3, cfg)
        rng = np.random.default_rng(3)
        for arr in forward(rng.uniform(0, 1, (16, 16)), params, cfg)[:3]:
            assert np.all(arr > 0.0) and np.all(arr < 1.0)

    def test_dims_not_divisible_rejected(self):
        cfg = ArchConfig(channels=4)
        params = init_params(0, cfg)
        with pytest.raises(ValueError):
            forward(np.zeros((10, 10)), params, cfg)

    def test_determinism(self):
        cfg = ArchConfig(channels=4)
        params = init_params(4, cfg)
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (16, 16))
        a = forward(img, params, cfg)
        b = forward(img, params, cfg)
        for x, y in zip(a[:3], b[:3]):
            assert np.array_equal(x, y)

    def test_reused_workspace_matches_fresh(self):
        # one workspace over sides that grow and shrink gives the bytes of a
        # fresh-buffer forward; 16x24 puts the zero border of a non-square
        # input into buffers last shaped by a square one
        cfg = ArchConfig(channels=3)
        params = init_params(11, cfg)
        rng = np.random.default_rng(11)
        for view in param_views(params, cfg).values():
            view += rng.uniform(-0.5, 0.5, view.shape)
        ws = new_workspace()
        for h, w in ((32, 32), (128, 128), (16, 24), (128, 128)):
            img = rng.uniform(0, 1, (h, w))
            reused = forward(img, params, cfg, ws)
            fresh = forward(img, params, cfg)
            for a, b in zip(reused[:3], fresh[:3]):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("stride", [1, 2], ids=["1-zero", "2-zero"])
    def test_conv_matches_np_pad_reference(self, stride):
        # conv2d writes its own border; compare with np.pad and a direct sum
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 8, 12))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        want = np.zeros((3, 8 // stride, 12 // stride)) + b[:, None, None]
        for di in range(3):
            for dj in range(3):
                patch = xp[:, di:di + 8:stride, dj:dj + 12:stride]
                want += np.einsum("oc,chw->ohw", w[:, :, di, dj], patch)
        ws = ConvWorkspace()
        conv2d(rng.normal(size=(2, 16, 16)), w, b, stride, ws)
        out, _ = conv2d(x, w, b, stride, ws)
        assert np.allclose(out, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h, w", [(8, 12), (9, 7)],
                             ids=["8-12-zero", "9-7-zero"])
    @pytest.mark.parametrize("first, stride",
                             [((13, 17), 1), ((4, 5), 1), ((13, 17), 2)],
                             ids=["first0", "first1", "first0-stride2"])
    def test_stride1_matches_np_pad_reference(self, h, w, first, stride):
        # out, dx and dw of the shifted-GEMM path against np.pad and direct
        # sums, on a workspace first used at a larger or a smaller shape and
        # then filled with NaN, so a stale spare row, spare column or border
        # of a reused buffer would show; at stride 2 (whose dx is the same
        # path on the zero-upsampled gradient), so would a stale zero
        rng = np.random.default_rng(14)
        ho, wo = h // stride, w // stride
        x = rng.normal(size=(2, h, w))
        wt = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        dout = rng.normal(size=(3, ho, wo))
        # the output gradient on the input's grid, zero between the samples
        dgrid = np.zeros((3, h, w))
        dgrid[:, :ho * stride:stride, :wo * stride:stride] = dout
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        dp = np.pad(dgrid, ((0, 0), (1, 1), (1, 1)))
        want_out = np.zeros((3, ho, wo)) + b[:, None, None]
        want_dx = np.zeros((2, h, w))
        want_dw = np.zeros(wt.shape)
        for di in range(3):
            for dj in range(3):
                patch = xp[:, di:di + ho * stride:stride,
                           dj:dj + wo * stride:stride]
                want_out += np.einsum("oc,chw->ohw", wt[:, :, di, dj], patch)
                # the adjoint: dgrid padded the same way, kernel flipped
                want_dx += np.einsum("oc,ohw->chw", wt[:, :, 2 - di, 2 - dj],
                                     dp[:, di:di + h, dj:dj + w])
                want_dw[:, :, di, dj] = np.einsum("ohw,chw->oc", dout, patch)
        ws = ConvWorkspace()
        out, cache = conv2d(rng.normal(size=(2,) + first), wt, b, stride, ws)
        conv2d_backward(rng.normal(size=out.shape), cache)
        for flat in ws._flat.values():
            flat.fill(np.nan)
        out, cache = conv2d(x, wt, b, stride, ws)
        assert np.allclose(out, want_out, rtol=0, atol=1e-12)
        dx, dw, db = conv2d_backward(dout, cache)
        assert np.allclose(dx, want_dx, rtol=0, atol=1e-12)
        assert np.allclose(dw, want_dw, rtol=0, atol=1e-12)
        assert np.allclose(db, dout.sum(axis=(1, 2)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h, w", [(4, 6), (5, 3)],
                             ids=["4-6-zero", "5-3-zero"])
    @pytest.mark.parametrize("first", [(13, 17), (2, 3)],
                             ids=["larger", "smaller"])
    def test_upsampling_matches_np_repeat_reference(self, h, w, first):
        # out, dx, dw and db of the phase convs against the 3x3 conv of the
        # np.repeat-upsampled input, on a workspace first used at a larger
        # or a smaller shape and then filled with NaN; dx is the adjoint of
        # the upsampling too, so each 2x2 block of the full-resolution input
        # gradient sums into one pixel
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, h, w))
        wt = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        dout = rng.normal(size=(3, 2 * h, 2 * w))
        up = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
        upp = np.pad(up, ((0, 0), (1, 1), (1, 1)))
        dp = np.pad(dout, ((0, 0), (1, 1), (1, 1)))
        want_out = np.zeros(dout.shape) + b[:, None, None]
        want_dup = np.zeros(up.shape)
        want_dw = np.zeros(wt.shape)
        for di in range(3):
            for dj in range(3):
                patch = upp[:, di:di + 2 * h, dj:dj + 2 * w]
                want_out += np.einsum("oc,chw->ohw", wt[:, :, di, dj], patch)
                want_dup += np.einsum("oc,ohw->chw", wt[:, :, 2 - di, 2 - dj],
                                      dp[:, di:di + 2 * h, dj:dj + 2 * w])
                want_dw[:, :, di, dj] = np.einsum("ohw,chw->oc", dout, patch)
        want_dx = want_dup.reshape(2, h, 2, w, 2).sum(axis=(2, 4))
        ws = ConvWorkspace()
        out, cache = conv2d(rng.normal(size=(2,) + first), wt, b, 1, ws,
                            upsample=True)
        conv2d_backward(rng.normal(size=out.shape), cache)
        for flat in ws._flat.values():
            flat.fill(np.nan)
        out, cache = conv2d(x, wt, b, 1, ws, upsample=True)
        assert np.allclose(out, want_out, rtol=0, atol=1e-12)
        dx, dw, db = conv2d_backward(dout, cache)
        assert np.allclose(dx, want_dx, rtol=0, atol=1e-12)
        assert np.allclose(dw, want_dw, rtol=0, atol=1e-12)
        assert np.allclose(db, dout.sum(axis=(1, 2)), rtol=0, atol=1e-12)

    def test_upsampling_needs_stride_1(self):
        with pytest.raises(ValueError, match="stride 1"):
            conv2d(np.zeros((1, 4, 4)), np.zeros((1, 1, 3, 3)), np.zeros(1),
                   2, upsample=True)

    def test_lent_workspace_forward_allocates_little(self):
        # after a warm-up, a forward with a lent workspace allocates only
        # its head maps and small vectors (about 0.6 MB at 128x128,
        # channels 8, against about 7 MB with fresh buffers); one more
        # full-resolution temporary of a decoder layer would cost 1.2 MB
        cfg = ArchConfig(channels=8)
        params = init_params(16, cfg)
        img = np.random.default_rng(16).uniform(0, 1, (128, 128))
        ws = new_workspace()
        forward(img, params, cfg, ws)
        tracemalloc.start()
        try:
            forward(img, params, cfg, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_conv2d_called_once_per_layer_in_forward_only(self, monkeypatch):
        # the benchmark names conv layers by conv2d's call order in forward;
        # backward must not go through conv2d
        calls = []
        real = model.conv2d

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "conv2d", counting)
        cfg = ArchConfig(channels=4)
        params = init_params(15, cfg)
        views = param_views(params, cfg)
        p1, p2, p3, cache = forward(np.zeros((16, 16)), params, cfg)
        assert calls == [views[n + "_w"].shape for n in model.CONV_LAYERS]
        backward(cache, (np.ones_like(p1), np.ones_like(p2), np.ones_like(p3)))
        assert len(calls) == 7


class TestScaleAttention:
    def _setup(self, seed, c=4, hw=6):
        rng = np.random.default_rng(seed)
        cfg = ArchConfig(channels=c)
        params = param_views(init_params(seed, cfg), cfg)
        f1 = rng.uniform(-1, 1, (c, hw, hw))
        f2 = rng.uniform(-1, 1, (c, hw, hw))
        return params, f1, f2, rng

    def test_zero_gates_average(self):
        params, f1, f2, _ = self._setup(0)
        for k in params:
            if k.startswith("sa"):
                params[k] = np.zeros_like(params[k])
        fused, _ = scale_attention_fuse(f1, f2, params)
        assert np.allclose(fused, 0.5 * (f1 + f2))

    def test_equal_inputs_identity(self):
        params, f1, _, _ = self._setup(1)
        fused, _ = scale_attention_fuse(f1, f1, params)
        assert np.allclose(fused, f1)

    def test_convex_combination(self):
        params, f1, f2, _ = self._setup(2)
        fused, _ = scale_attention_fuse(f1, f2, params)
        lo = np.minimum(f1, f2)
        hi = np.maximum(f1, f2)
        assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)

    def test_mismatched_channels_rejected(self):
        params, f1, _, _ = self._setup(3)
        with pytest.raises(ValueError):
            scale_attention_fuse(f1, f1[:2], params)

    def test_backward_finite_differences(self):
        params, f1, f2, rng = self._setup(4)
        for k in params:
            if k.startswith("sa"):
                params[k] = rng.uniform(-0.5, 0.5, params[k].shape)
        w = rng.uniform(-1, 1, f1.shape)  # random linear readout

        def fn(x):
            a = x[: f1.size].reshape(f1.shape)
            b = x[f1.size:].reshape(f1.shape)
            fused, cache = scale_attention_fuse(a, b, params)
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            da, db = scale_attention_backward(w, cache, params, grads)
            return float((fused * w).sum()), np.concatenate(
                [da.reshape(-1), db.reshape(-1)])

        x0 = np.concatenate([f1.reshape(-1), f2.reshape(-1)])
        assert finite_diff_check(fn, x0) < 1e-6


class TestBackward:
    def test_zero_output_grads(self):
        cfg = ArchConfig(channels=4)
        params = init_params(6, cfg)
        rng = np.random.default_rng(6)
        p1, p2, p3, cache = forward(rng.uniform(0, 1, (16, 16)),
                                                params, cfg)
        grads = backward(cache, (np.zeros_like(p1), np.zeros_like(p2),
                                 np.zeros_like(p3)))
        assert np.all(grads == 0.0)

    def test_linearity(self):
        cfg = ArchConfig(channels=4)
        params = init_params(7, cfg)
        rng = np.random.default_rng(7)
        p1, p2, p3, cache = forward(rng.uniform(0, 1, (16, 16)),
                                                params, cfg)
        dps = tuple(rng.normal(size=p.shape) for p in (p1, p2, p3))
        g1 = backward(cache, dps)
        g2 = backward(cache, tuple(2.0 * d for d in dps))
        assert np.allclose(2.0 * g1, g2, atol=1e-12)

    def test_workspace_backward_repeats(self):
        # backward rewrites every workspace buffer it reads (the padded and
        # zero-columned output gradients, the stride-2 zero-upsampled one),
        # so a second call on one workspace-backed cache gives the same
        # grads
        cfg = ArchConfig(channels=4)
        params = init_params(9, cfg)
        rng = np.random.default_rng(9)
        p1, p2, p3, cache = forward(rng.uniform(0, 1, (16, 16)),
                                                params, cfg, new_workspace())
        dps = tuple(rng.normal(size=p.shape) for p in (p1, p2, p3))
        g1 = backward(cache, dps)
        g2 = backward(cache, dps)
        assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("stride, upsample",
                             [(1, False), (2, False), (1, True)],
                             ids=["1", "2", "up"])
    def test_skipped_input_grad_keeps_weight_grads(self, stride, upsample):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 16, 16))
        w = rng.normal(size=(4, 1, 3, 3))
        out, cache = conv2d(x, w, rng.normal(size=4), stride,
                            upsample=upsample)
        dout = rng.normal(size=out.shape)
        dx, dw, db = conv2d_backward(dout, cache)
        skipped, dw0, db0 = conv2d_backward(dout, cache, input_grad=False)
        assert dx.shape == x.shape and skipped is None
        assert np.array_equal(dw, dw0) and np.array_equal(db, db0)

    @pytest.mark.parametrize("stride, upsample",
                             [(1, False), (2, False), (1, True)],
                             ids=["1-zero", "2-zero", "up-zero"])
    @pytest.mark.parametrize("h, w", [(8, 12), (9, 7)])
    def test_input_grad_is_the_adjoint(self, stride, upsample, h, w):
        # conv2d(x) - b is linear in x, so its input gradient is the adjoint:
        # <conv2d(x) - b, dout> == <x, dx> for every x and dout
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, h, w))
        wt = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, cache = conv2d(x, wt, b, stride, upsample=upsample)
        dout = rng.normal(size=out.shape)
        dx, _, _ = conv2d_backward(dout, cache)
        lin = out - b[:, None, None]
        scale = np.vdot(np.abs(lin), np.abs(dout))
        assert abs(np.vdot(lin, dout) - np.vdot(x, dx)) <= 1e-12 * scale

    def test_whole_model_gradcheck(self):
        assert model_gradcheck(0) < 1e-6

    def test_grad_shape_mismatch(self):
        cfg = ArchConfig(channels=4)
        params = init_params(8, cfg)
        rng = np.random.default_rng(8)
        p1, p2, p3, cache = forward(rng.uniform(0, 1, (16, 16)),
                                                params, cfg)
        with pytest.raises(ValueError):
            backward(cache, (np.zeros((3, 3)), np.zeros_like(p2),
                             np.zeros_like(p3)))


class TestAdam:
    def test_zero_grads_keep_params(self):
        params = np.array([1.0, -2.0])
        state = adam_init(params)
        out, _ = adam_step(params.copy(), np.zeros(2), state, lr=0.1)
        assert np.array_equal(out, params)

    def test_first_step_magnitude(self):
        params = np.array([0.0, 0.0])
        state = adam_init(params)
        out, _ = adam_step(params, np.array([3.0, -0.5]), state, lr=0.001)
        assert np.allclose(out, [-0.001, 0.001], atol=1e-6)

    def test_two_step_scalar_recursion(self):
        # hand-run Adam on f(x) = x^2 from x = 1
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
        x, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            g = 2.0 * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        params = np.array([1.0])
        state = adam_init(params)
        for _ in range(2):
            params, state = adam_step(params, 2.0 * params, state, lr=0.1)
        assert abs(params[0] - x) < 1e-12
        assert state.step == 2

    def test_nonfinite_grad_rejected(self):
        params = np.zeros(2)
        state = adam_init(params)
        with pytest.raises(FloatingPointError, match="index 0"):
            adam_step(params, np.array([np.nan, 0.0]), state, lr=0.1)

    def test_nonfinite_grad_changes_nothing(self):
        # a NaN late in the vector must leave every parameter, both moments
        # and the step count as they were
        params = np.array([1.0, 2.0, 3.0])
        state = adam_init(params)
        adam_step(params, np.array([0.5, -1.0, 2.0]), state, lr=0.1)
        before = (params.copy(), state.m.copy(), state.v.copy(), state.step)
        with pytest.raises(FloatingPointError, match="index 2"):
            adam_step(params, np.array([1.0, 1.0, np.inf]), state, lr=0.1)
        assert np.array_equal(params, before[0])
        assert np.array_equal(state.m, before[1])
        assert np.array_equal(state.v, before[2])
        assert state.step == before[3]

    def test_overflowing_step_rejected_and_changes_nothing(self):
        # a finite gradient at lr 1e308 moves each parameter by about 1e308,
        # which carries the one at 1e308 past the float range
        params = np.array([0.0, 1e308, -1.0])
        state = adam_init(params)
        with pytest.raises(FloatingPointError,
                           match="leaves parameter index 1 non-finite"):
            adam_step(params, np.array([1.0, -1.0, 0.0]), state, lr=1e308)
        assert np.array_equal(params, [0.0, 1e308, -1.0])
        assert not state.m.any() and not state.v.any()
        assert state.step == 0


def test_model_file_roundtrip(tmp_path):
    cfg = ArchConfig(channels=4)
    params = init_params(9, cfg)
    path = tmp_path / "model.bin"
    save_model(path, params, cfg)
    loaded, cfg2 = load_model(path)
    assert cfg2 == cfg
    assert np.array_equal(loaded, params)
    # byte determinism
    path2 = tmp_path / "model2.bin"
    save_model(path2, params, cfg)
    assert path.read_bytes() == path2.read_bytes()


def test_fixed_model_file_resaves_byte_identical(tmp_path):
    # a model file written by an earlier version, "sa_enabled": true and
    # "pad_mode": "zero" in its header, loads and saves to the same bytes
    path = Path(__file__).resolve().parent.parent / "perfbench" / \
        "infer_model.bin"
    params, cfg = load_model(path)
    save_model(tmp_path / "m.bin", params, cfg)
    assert (tmp_path / "m.bin").read_bytes() == path.read_bytes()


def test_param_views_follow_the_file_layout(tmp_path):
    # views come in definition order, and each names the payload slice the
    # model.bin manifest gives for it
    cfg = ArchConfig(channels=3)
    params = np.arange(float(init_params(0, cfg).size))
    save_model(tmp_path / "m.bin", params, cfg)
    header = json.loads((tmp_path / "m.bin").read_bytes().split(b"\n")[0])
    views = param_views(params, cfg)
    assert list(views)[:4] == ["enc0_w", "enc0_b", "enc1_w", "enc1_b"]
    assert sorted(views) == [e["name"] for e in header["manifest"]]
    for e in header["manifest"]:
        view = views[e["name"]]
        assert list(view.shape) == e["shape"]
        assert np.shares_memory(view, params)
        assert np.array_equal(view.reshape(-1), params[
            e["offset"]:e["offset"] + view.size])
    with pytest.raises(ValueError, match="shape"):
        param_views(params[:-1], cfg)
