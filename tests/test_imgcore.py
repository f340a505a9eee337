import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weakseg import imgcore
from weakseg.imgcore import (DecodeError, affine_compose, affine_invert,
                             affine_rotation, affine_translation,
                             apply_affine, decode_pgm, encode_pgm,
                             resample_labels)


class TestPgmCodec:
    def test_p2_single_pixel_maxval(self):
        img = decode_pgm(b"P2\n1 1\n255\n255")
        assert img.shape == (1, 1)
        assert img[0, 0] == 1.0

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


class TestResample:
    def test_identity_dims(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, (5, 7))
        assert np.array_equal(resample_labels(img, (7, 5)), img)

    def test_nearest_preserves_value_set(self):
        rng = np.random.default_rng(3)
        img = rng.choice([0.1, 0.5, 0.9], size=(6, 6))
        out = resample_labels(img, (13, 9))
        assert set(np.unique(out)) <= set(np.unique(img))

    def test_nearest_commutes_with_monotone_map(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (6, 8))
        a = resample_labels(img, (11, 5)) ** 2
        b = resample_labels(img ** 2, (11, 5))
        assert np.array_equal(a, b)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            resample_labels(np.zeros((2, 2)), (0, 2))


class TestAffine:
    def test_identity(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (6, 6))
        identity = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = apply_affine(img, identity, (6, 6))
        assert np.allclose(out, img)

    def test_rotation_permutes_2x2(self):
        img = np.array([[0.1, 0.2], [0.3, 0.4]])
        t = affine_rotation(np.pi / 2, center=(1.0, 1.0))
        out = apply_affine(img, t, (2, 2))
        # index-permutation oracle: (x, y) -> (cx - (y - cy), cy + (x - cx))
        # in y-down pixel coordinates, so top-left lands at top-right
        assert np.allclose(out, [[0.3, 0.1], [0.4, 0.2]])

    def test_full_out_of_bounds_translation(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0.2, 1, (4, 5))
        out = apply_affine(img, affine_translation(5.0, 0.0), (5, 4), fill=0.0)
        assert np.all(out == 0.0)

    def test_inverse_roundtrip_interior(self):
        # smooth field: bilinear error stays within the codec quantum
        gx, gy = np.meshgrid(np.arange(16), np.arange(16))
        img = 0.5 + 0.2 * np.sin(2 * np.pi * gx / 20) * np.cos(2 * np.pi * gy / 20)
        t = affine_compose(affine_rotation(0.3, center=(8, 8)),
                           affine_translation(0.7, -0.4))
        back = apply_affine(apply_affine(img, t, (16, 16)),
                            affine_invert(t), (16, 16))
        assert np.abs(back[5:11, 5:11] - img[5:11, 5:11]).max() <= 2.0 / 255.0

    def test_singular_transform_rejected(self):
        with pytest.raises(ValueError):
            affine_invert(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
