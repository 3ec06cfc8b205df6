"""Dense tensor helpers: im2col lowering and the reference float convolution.

Feature maps are [N, C, H, W] float32 arrays. Lowered weight matrices are
[OC, J] with J = K*K*IC, lowered inputs are float64 [J, P] matrices with
P = N*out_h*out_w: the float64 arithmetic downstream (the reference matmul,
the integer matmuls on quantized codes) reads them without another copy.
"""

import numpy as np

ACTIVATIONS = ("identity", "relu", "leaky_relu")


def apply_activation(y, activation="identity", slope=0.01):
    if activation == "identity":
        return y
    if activation == "relu":
        return np.maximum(y, 0.0)
    if activation == "leaky_relu":
        return np.where(y >= 0.0, y, slope * y)
    raise ValueError(f"unknown activation {activation!r}")


def conv_output_hw(height, width, kernel, stride, padding):
    """Output spatial dims of a conv; raises if the window does not fit."""
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"non-positive conv output {out_h}x{out_w} for input {height}x{width}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out_h, out_w


def im2col(x, kernel, stride=1, padding=0):
    """Lower a [N, C, H, W] tensor to the float64 [J, P] patch matrix.

    Row layout is channel-major: rows [c*K*K, (c+1)*K*K) hold the K*K kernel
    positions of input channel c, so permuting input channels moves whole
    K*K row blocks. Column p enumerates (sample, out_row, out_col) in
    row-major order. Borders are padded with +0.0.

    The input is copied once, cast to float64, into a zero-padded
    channel-major [C, N, H+2p, W+2p] buffer; each of the K*K kernel offsets
    is then one strided slice copy of it, with no transpose.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected [N, C, H, W] input, got shape {x.shape}")
    if kernel < 1 or stride < 1 or padding < 0:
        raise ValueError(f"invalid geometry kernel={kernel} stride={stride} padding={padding}")
    n, c, h, w = x.shape
    out_h, out_w = conv_output_hw(h, w, kernel, stride, padding)
    padded = np.zeros((c, n, h + 2 * padding, w + 2 * padding))
    padded[:, :, padding:padding + h, padding:padding + w] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kernel, kernel, n, out_h, out_w))
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, ki, kj] = padded[:, :, ki:ki + stride * out_h:stride,
                                     kj:kj + stride * out_w:stride]
    return cols.reshape(c * kernel * kernel, n * out_h * out_w)


def conv_reference(weights, cols, activation="identity", bias=None, slope=0.01):
    """Float conv on lowered matrices: f(W @ X + b), accumulated in float64.

    A float64 `cols` is used as is, without a copy.
    """
    weights = np.asarray(weights)
    cols = np.asarray(cols, dtype=np.float64)
    if weights.ndim != 2 or cols.ndim != 2 or weights.shape[1] != cols.shape[0]:
        raise ValueError(f"shape mismatch {weights.shape} @ {cols.shape}")
    acc = weights.astype(np.float64) @ cols
    if bias is not None:
        acc = acc + np.asarray(bias, dtype=np.float64)[:, None]
    return apply_activation(acc, activation, slope).astype(np.float32)
