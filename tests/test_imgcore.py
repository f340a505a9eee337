import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weakseg import imgcore
from weakseg.imgcore import (DecodeError, affine_invert, apply_affine,
                             decode_pgm, encode_pgm)

from test_recist import similarity


class TestPgmCodec:
    def test_p2_single_pixel_maxval(self):
        img = decode_pgm(b"P2\n1 1\n255\n255")
        assert img.shape == (1, 1)
        assert img[0, 0] == 1.0
        # leading zeros do not count towards a sample's digits
        assert decode_pgm(b"P2 1 1 255 " + b"0" * 4997 + b"255") == img

    def test_p2_endpoints(self):
        img = decode_pgm(b"P2\n2 1\n255\n0 255")
        assert img.tolist() == [[0.0, 1.0]]

    def test_p2_comments_and_maxval_scaling(self):
        img = decode_pgm(b"P2\n# a comment\n2 1 100\n50 100")
        assert np.allclose(img, [[0.5, 1.0]])

    def test_p5_roundtrip_canonical(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            h, w = rng.integers(1, 20, 2)
            raw = b"P5\n%d %d\n255\n" % (w, h) \
                + rng.integers(0, 256, h * w, dtype=np.uint8).tobytes()
            assert encode_pgm(decode_pgm(raw)) == raw

    def test_decode_encode_quantization(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (16, 16))
        back = decode_pgm(encode_pgm(img))
        assert np.abs(back - img).max() <= 1.0 / 255.0 + 1e-12

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   max_side=12),
                      elements=st.floats(0.0, 1.0)))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_within_half_a_level(self, img):
        # encode rounds to the nearest of 255 levels, decode divides by 255
        back = decode_pgm(encode_pgm(img))
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_encode_extremes(self):
        assert encode_pgm(np.array([[1.0]])).endswith(b"\xff")
        assert encode_pgm(np.array([[0.0]])).endswith(b"\x00")

    def test_bad_magic(self):
        with pytest.raises(DecodeError, match="byte 0"):
            decode_pgm(b"P6\n1 1\n255\n\x00")

    def test_zero_maxval(self):
        with pytest.raises(DecodeError):
            decode_pgm(b"P2\n1 1\n0\n0")

    def test_truncated_raster(self):
        with pytest.raises(DecodeError):
            decode_pgm(b"P5\n2 2\n255\n\x00\x00")

    def test_p2_claiming_more_samples_than_its_bytes_hold(self):
        # each P2 sample takes a digit and a separator, so 10**18 claimed
        # samples fail before any allocation
        for raw in (b"P2\n1000000000 1000000000\n255\n1 2 3\n",
                    b"P2\n2 2\n255\n1 2 3\n"):
            with pytest.raises(DecodeError, match="truncated raster"):
                decode_pgm(raw)
        assert decode_pgm(b"P2\n2 2\n255\n0 0 0 0").shape == (2, 2)
        assert decode_pgm(b"P2\n2 1\n255\n# c\n0 255").tolist() == [
            [0.0, 1.0]]


class TestAffine:
    def test_identity(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (6, 6))
        identity = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = apply_affine(img, identity, (6, 6))
        assert np.allclose(out, img)

    def test_rotation_permutes_2x2(self):
        img = np.array([[0.1, 0.2], [0.3, 0.4]])
        t = similarity(np.pi / 2, shift=(1.0, 1.0), center=(1.0, 1.0))
        out = apply_affine(img, t, (2, 2))
        # index-permutation oracle: (x, y) -> (cx - (y - cy), cy + (x - cx))
        # in y-down pixel coordinates, so top-left lands at top-right
        assert np.allclose(out, [[0.3, 0.1], [0.4, 0.2]])

    def test_full_out_of_bounds_translation(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0.2, 1, (4, 5))
        out = apply_affine(img, similarity(0.0, shift=(5.0, 0.0)), (5, 4),
                           fill=0.0)
        assert np.all(out == 0.0)

    def test_inverse_roundtrip_interior(self):
        # smooth field: bilinear error stays within the codec quantum
        gx, gy = np.meshgrid(np.arange(16), np.arange(16))
        img = 0.5 + 0.2 * np.sin(2 * np.pi * gx / 20) * np.cos(2 * np.pi * gy / 20)
        # a translation by (0.7, -0.4), then a rotation about (8, 8)
        t = similarity(0.3, shift=(8.0, 8.0), center=(7.3, 8.4))
        back = apply_affine(apply_affine(img, t, (16, 16)),
                            affine_invert(t), (16, 16))
        assert np.abs(back[5:11, 5:11] - img[5:11, 5:11]).max() <= 2.0 / 255.0

    def test_matches_per_pixel_bilinear_oracle(self):
        # output pixel (r, c) samples t^-1 at its center (c + 0.5, r + 0.5);
        # each of the four neighbors off the source grid reads fill. The
        # source and output are non-square, the scale is anisotropic and
        # the output's left and top edges fall partly off the source grid.
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 1, (40, 56))
        fill = 0.7
        # scale (0.9, 0.6), rotate about (28, 20), translate by (4.3, 3.1)
        t = similarity(0.35, shift=(32.3, 23.1), center=(28.0, 20.0))
        t[:, :2] = t[:, :2] @ np.diag([0.9, 0.6])
        out = apply_affine(img, t, (50, 30), fill=fill)
        assert out.shape == (30, 50)
        inv = affine_invert(t)
        want = np.empty((30, 50))
        partial = 0
        for r in range(30):
            for c in range(50):
                sx, sy = inv @ (c + 0.5, r + 0.5, 1.0)
                u, v = sx - 0.5, sy - 0.5
                x0, y0 = int(np.floor(u)), int(np.floor(v))
                fx, fy = u - x0, v - y0
                acc, off = 0.0, 0
                for yi, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
                    for xi, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
                        inside = 0 <= yi < 40 and 0 <= xi < 56
                        acc += wy * wx * (img[yi, xi] if inside else fill)
                        off += not inside
                want[r, c] = acc
                partial += 0 < off < 4
        assert partial >= 20
        assert np.abs(out - want).max() <= 1e-12

    def test_singular_transform_rejected(self):
        with pytest.raises(ValueError):
            affine_invert(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
