"""Dense tensor helpers: im2col lowering, the sample-block loop of every
layer forward, the epilogue of every conv and linear output, and the
reference float convolution.

Feature maps are [N, C, H, W] float32 arrays. Lowered weight matrices are
[OC, J] with J = K*K*IC, lowered inputs are float64 [J, P] matrices with
P = N*out_h*out_w: the float64 arithmetic downstream (the reference matmul,
the integer matmuls on quantized codes) reads them without another copy.
"""

import numpy as np

ACTIVATIONS = ("identity", "relu", "leaky_relu")

# in_sample_blocks runs a layer in blocks of samples whose lowered float64
# matrix takes about this many bytes (2 MB), so that it stays in cache.
_FORWARD_BLOCK_BYTES = 1 << 21


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
    channel-major [C, N, H+2p, W+2p] buffer, and each of the K*K kernel
    offsets is then one strided slice copy of it into the matrix, with no
    transpose. The forward walks lower one sample block at a time
    (in_sample_blocks), which bounds N.
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
    out = np.empty((c * kernel * kernel, n * out_h * out_w))
    cols = out.reshape(c, kernel, kernel, n, out_h, out_w)
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, ki, kj] = padded[:, :, ki:ki + stride * out_h:stride,
                                     kj:kj + stride * out_w:stride]
    return out


def block_samples(sample_size):
    """Samples per block of a layer one of whose samples lowers to
    `sample_size` elements (J times its columns): a multiple of 8, at least
    8, whose lowered float64 matrix takes about _FORWARD_BLOCK_BYTES."""
    group_bytes = 8 * sample_size * 8  # 8 samples of float64 elements
    return 8 * max(1, _FORWARD_BLOCK_BYTES // group_bytes)


def in_sample_blocks(conv, x, sample_size):
    """conv(x), run on blocks of the samples of `x` into one [OC, P] float32
    output. `conv` maps a batch to its [OC, p] output; one sample lowers to
    `sample_size` elements. Each block holds block_samples(sample_size)
    samples and the last block the rest, so every block's columns start at
    a multiple of 8 samples.
    """
    step = block_samples(sample_size)
    if len(x) <= step:
        return conv(x)
    first = conv(x[:step])
    width = first.shape[1] // step
    out = np.empty((first.shape[0], len(x) * width), dtype=np.float32)
    out[:, :first.shape[1]] = first
    for i in range(step, len(x), step):
        out[:, i * width:(i + step) * width] = conv(x[i:i + step])
    return out


def finish(acc, bias=None, activation="identity", slope=0.01):
    """The epilogue of every conv and linear output: f(acc + b) as float32.

    `acc` is a float64 [..., OC, P] accumulator that the caller owns; the
    bias add and a ReLU act on it in place. Every layer output, float or
    quantized, ends here.
    """
    if bias is not None:
        acc += np.asarray(bias, dtype=np.float64)[:, None]
    if activation == "relu":
        np.maximum(acc, 0.0, out=acc)
    else:
        acc = apply_activation(acc, activation, slope)
    return acc.astype(np.float32)


def conv_reference(weights, cols, activation="identity", bias=None, slope=0.01):
    """Float conv on lowered matrices: f(W @ X + b), accumulated in float64.

    A float64 `cols` is used as is, without a copy.
    """
    weights = np.asarray(weights)
    cols = np.asarray(cols, dtype=np.float64)
    if weights.ndim != 2 or cols.ndim != 2 or weights.shape[1] != cols.shape[0]:
        raise ValueError(f"shape mismatch {weights.shape} @ {cols.shape}")
    return finish(weights.astype(np.float64) @ cols, bias, activation, slope)
