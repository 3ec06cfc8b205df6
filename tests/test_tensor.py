"""im2col lowering and reference convolution against independent oracles."""

import numpy as np
import pytest

from reference_search import reference_im2col
from subquant.tensor import apply_activation, conv_output_hw, conv_reference, im2col


def conv2d_sliding_window(x, w4, stride, padding):
    """Direct spatial convolution, nested loops over every output element."""
    n, ic, h, wd = x.shape
    oc, _, k, _ = w4.shape
    out_h, out_w = conv_output_hw(h, wd, k, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, oc, out_h, out_w), dtype=np.float64)
    for b in range(n):
        for c in range(oc):
            for oy in range(out_h):
                for ox in range(out_w):
                    acc = 0.0
                    for ci in range(ic):
                        for ky in range(k):
                            for kx in range(k):
                                acc += float(w4[c, ci, ky, kx]) * float(
                                    xp[b, ci, oy * stride + ky, ox * stride + kx])
                    out[b, c, oy, ox] = acc
    return out


class TestIm2col:
    def test_1x1_kernel_is_a_reshape(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 3, 4, 5)).astype(np.float32)
        cols = im2col(x, kernel=1)
        assert cols.shape == (3, 20)
        np.testing.assert_array_equal(cols, x[0].reshape(3, 20))

    def test_3x3_padded_ones(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        cols = im2col(x, kernel=3, stride=1, padding=1)
        assert cols.shape == (9, 9)
        # center pixel sees the full 3x3 window of ones
        np.testing.assert_array_equal(cols[:, 4], np.ones(9))
        # each corner pixel sees exactly 4 ones and 5 zero-padded taps
        for p in (0, 2, 6, 8):
            assert cols[:, p].sum() == 4
            assert np.count_nonzero(cols[:, p] == 0) == 5

    @pytest.mark.parametrize("n,ic,h,w,k,s,pad", [
        (1, 1, 5, 5, 3, 1, 0),
        (2, 3, 6, 6, 3, 2, 1),
        (1, 4, 7, 5, 1, 1, 0),
        (3, 2, 8, 8, 5, 2, 2),
    ])
    def test_shape_law(self, n, ic, h, w, k, s, pad):
        x = np.zeros((n, ic, h, w), dtype=np.float32)
        out_h, out_w = conv_output_hw(h, w, k, s, pad)
        cols = im2col(x, k, s, pad)
        assert cols.shape == (k * k * ic, n * out_h * out_w)

    def test_channel_permutation_moves_row_blocks(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        k = 3
        perm = np.array([2, 0, 3, 1])
        cols = im2col(x, k, 1, 1)
        cols_perm = im2col(x[:, perm], k, 1, 1)
        block_rows = np.concatenate([np.arange(c * k * k, (c + 1) * k * k) for c in perm])
        np.testing.assert_array_equal(cols_perm, cols[block_rows])

    @pytest.mark.parametrize("n,ic,h,w,k,s,pad", [
        (1, 1, 5, 5, 3, 1, 0),
        (2, 3, 6, 6, 3, 2, 1),
        (1, 4, 7, 5, 1, 1, 0),
        (2, 4, 6, 6, 1, 2, 1),
        (3, 2, 8, 8, 5, 2, 2),
    ])
    def test_matches_float32_oracle(self, n, ic, h, w, k, s, pad):
        """The float64 lowering equals the earlier float32 one cast to float64,
        signs of zeros included, for contiguous and channel-major inputs."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(n, ic, h, w)).astype(np.float32)
        x.reshape(-1)[::5] = -0.0
        x.reshape(-1)[1::7] = np.inf
        channel_major = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        want = reference_im2col(x, k, s, pad).astype(np.float64)
        for arr in (x, channel_major):
            got = im2col(arr, k, s, pad)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_rejects_bad_geometry(self):
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            im2col(x, kernel=5, stride=1, padding=0)
        with pytest.raises(ValueError):
            im2col(np.zeros((3, 3), dtype=np.float32), kernel=1)


class TestConvReference:
    def test_identity_weights(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 7)).astype(np.float32)
        out = conv_reference(np.eye(4, dtype=np.float32), x)
        np.testing.assert_array_equal(out, x)

    def test_relu_row(self):
        out = conv_reference(np.array([[1.0, 1.0]]), np.array([[2.0], [3.0]]), "relu")
        np.testing.assert_array_equal(out, [[5.0]])

    def test_matches_nested_loop(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 6)).astype(np.float32)
        x = rng.normal(size=(6, 5)).astype(np.float32)
        expected = np.zeros((4, 5))
        for c in range(4):
            for p in range(5):
                for j in range(6):
                    expected[c, p] += float(w[c, j]) * float(x[j, p])
        np.testing.assert_allclose(conv_reference(w, x), expected, rtol=1e-6)

    def test_bias_and_leaky(self):
        w = np.array([[1.0]], dtype=np.float32)
        x = np.array([[-2.0]], dtype=np.float32)
        out = conv_reference(w, x, "leaky_relu", bias=np.array([1.0]), slope=0.1)
        np.testing.assert_allclose(out, [[-0.1]], rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            conv_reference(np.zeros((2, 3)), np.zeros((4, 5)))


@pytest.mark.parametrize("shape,k,s,pad", [
    ((1, 1, 4, 4), 3, 1, 1),
    ((2, 4, 8, 8), 3, 1, 1),
    ((2, 4, 8, 8), 3, 2, 1),
    ((2, 3, 7, 7), 1, 1, 0),
    ((1, 2, 6, 6), 5, 1, 2),
])
def test_im2col_conv_equals_sliding_window(shape, k, s, pad):
    rng = np.random.default_rng(42)
    n, ic, h, w = shape
    oc = 3
    x = rng.normal(size=shape).astype(np.float32)
    w4 = rng.normal(size=(oc, ic, k, k)).astype(np.float32)
    cols = im2col(x, k, s, pad)
    out = conv_reference(w4.reshape(oc, -1), cols)
    out_h, out_w = conv_output_hw(h, w, k, s, pad)
    got = out.reshape(oc, n, out_h, out_w).transpose(1, 0, 2, 3)
    want = conv2d_sliding_window(x, w4, s, pad)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_apply_activation_variants():
    y = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(apply_activation(y, "identity"), y)
    np.testing.assert_array_equal(apply_activation(y, "relu"), [0.0, 0.0, 3.0])
    np.testing.assert_allclose(apply_activation(y, "leaky_relu", 0.5), [-1.0, 0.0, 3.0])
    with pytest.raises(ValueError):
        apply_activation(y, "swish")
