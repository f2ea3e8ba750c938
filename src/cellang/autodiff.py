"""Minimal reverse-mode automatic differentiation on float64 arrays.

Every operation takes an explicit Tape and records a backward rule on it.
Operations take optional leading batch axes, so one tape holds a whole
minibatch of game rounds; the graph is rebuilt per minibatch and nothing is
retained between minibatches.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DimensionError, ParameterError

# Uniform draws are clamped away from {0, 1} before the double log so the
# Gumbel noise stays finite.
_GUMBEL_U_LO = 1e-20
_GUMBEL_U_HI = 1.0 - 1e-16
# OpenBLAS computes a product on one thread while m * n * k stays within
# 65536 * GEMM_MULTITHREAD_THRESHOLD (4 by default). Its threaded split
# changes the summation order, so _matmul keeps every block below this and
# results do not depend on the BLAS thread count.
_ONE_THREAD_MNK = 262144


class Tensor:
    """A shaped float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def values(self):
        """Flat row-major view of the values."""
        return self.data.reshape(-1)

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (
            tuple(self.data.shape), self.requires_grad)


class Tape:
    """Ordered record of operations; node order is topological by construction."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    def record(self, inputs, output, backward_fn):
        self.nodes.append((inputs, output, backward_fn))


def backward(tape, loss):
    """Propagate d(loss)/d(tensor) to every tensor the tape's operations
    take as inputs but do not produce (parameters and data).

    The walk consumes the tape: each node is dropped once walked and its
    output's gradient is released, so a minibatch's activations are freed
    as the walk goes. Gradients accumulate additively and in place (an
    existing gradient array, which may be a view, is never replaced), both
    across multiple uses of a tensor within the tape and across backward
    calls on separate tapes.
    """
    if loss.data.size != 1:
        raise ContractError("backward expects a scalar loss, got shape %s"
                            % (tuple(loss.data.shape),))
    loss.grad = np.ones_like(loss.data)
    while tape.nodes:
        inputs, output, backward_fn = tape.nodes.pop()
        g, output.grad = output.grad, None
        if g is None:
            continue
        for tensor, gi in zip(inputs, backward_fn(g)):
            if tensor.grad is None:
                # Backward rules return fresh arrays (or views of the
                # released g), so the first one can be kept as it is.
                tensor.grad = gi.reshape(tensor.data.shape)
            else:
                tensor.grad += gi.reshape(tensor.data.shape)


def _matmul(a, b):
    """a (m, k) @ b (k, n), in column blocks of b that OpenBLAS computes on
    one thread."""
    (m, k), n = a.shape, b.shape[1]
    cols = max(1, _ONE_THREAD_MNK // (m * k))
    if cols >= n:
        return a @ b
    out = np.empty((m, n))
    for i in range(0, n, cols):
        np.matmul(a, b[:, i:i + cols], out=out[:, i:i + cols])
    return out


def linear(tape, x, weight, bias=None):
    """Affine map of the last axis: x @ weight.T + bias, with x (..., in),
    weight (out, in) and bias (out,) or None (no bias)."""
    xd, wd = x.data, weight.data
    if xd.ndim < 1 or wd.ndim != 2 or wd.shape[1] != xd.shape[-1] or (
            bias is not None and bias.data.shape != (wd.shape[0],)):
        raise DimensionError(
            "linear: weight %s / bias %s incompatible with input %s"
            % (wd.shape, None if bias is None else bias.data.shape, xd.shape))
    rows = xd.reshape(-1, wd.shape[1])
    out = _matmul(rows, wd.T).reshape(xd.shape[:-1] + (wd.shape[0],))
    out = Tensor(out if bias is None else out + bias.data)

    def backward_fn(g):
        g_rows = g.reshape(-1, wd.shape[0])
        gx, gw = _matmul(g_rows, wd), _matmul(g_rows.T, rows)
        return (gx, gw) if bias is None else (gx, gw, g_rows.sum(axis=0))

    tape.record((x, weight) if bias is None else (x, weight, bias), out,
                backward_fn)
    return out


def conv1d(tape, x, kernels, bias):
    """Valid (no padding) 1-D convolution, stride 1, of each leading index.

    x: (..., c_in, length), kernels: (c_out, c_in, k), bias: (c_out,)
    -> (..., c_out, length - k + 1), as one (n * L_out, c_in * k) x
    (c_in * k, c_out) matmul over every window of every leading index.
    """
    xd, kd, bd = x.data, kernels.data, bias.data
    if xd.ndim < 2 or kd.ndim != 3 or kd.shape[1] != xd.shape[-2] \
            or bd.shape != (kd.shape[0],):
        raise DimensionError(
            "conv1d: kernels %s / bias %s incompatible with input %s"
            % (kd.shape, bd.shape, xd.shape))
    c_out, c_in, k = kd.shape
    length = xd.shape[-1]
    if k > length:
        raise DimensionError(
            "conv1d: kernel width %d exceeds input length %d" % (k, length))
    l_out, lead = length - k + 1, xd.shape[:-2]
    # (..., c_in, L_out, k) -> one row per (leading index, position).
    windows = np.moveaxis(sliding_window_view(xd, k, axis=-1), -3, -2) \
        .reshape(-1, c_in * k)
    kmat = kd.reshape(c_out, c_in * k)
    # C order, so that flattening the (c_out, L_out) maps is a view.
    out = Tensor(np.add(np.moveaxis(
        _matmul(windows, kmat.T).reshape(lead + (l_out, c_out)), -1, -2),
        bd[:, None], order="C"))

    def backward_fn(g):
        g_rows = np.moveaxis(g, -1, -2).reshape(-1, c_out)
        g_windows = _matmul(g_rows, kmat).reshape(lead + (l_out, c_in, k))
        gx = np.zeros_like(xd)
        for j in range(k):
            gx[..., j:j + l_out] += np.moveaxis(g_windows[..., j], -1, -2)
        return (gx, _matmul(g_rows.T, windows).reshape(kd.shape),
                g_rows.sum(axis=0))

    tape.record((x, kernels, bias), out, backward_fn)
    return out


def sigmoid(tape, x):
    """Elementwise logistic function, stable for large |x|."""
    xd = x.data
    e = np.exp(-np.abs(xd))  # exp(-x) where x >= 0, exp(x) elsewhere
    d = 1.0 + e
    # 1/d where x >= 0, e/d elsewhere, in place: a batch's maps are large.
    # e <= 1, so max(e, x >= 0) picks the numerator without a branch.
    s = np.divide(np.maximum(e, xd >= 0, out=e), d, out=d)
    out = Tensor(s)

    def backward_fn(g):
        return (g * s * (1.0 - s),)

    tape.record((x,), out, backward_fn)
    return out


def log_softmax(tape, x):
    """Max-shifted log softmax over the last axis."""
    xd = x.data
    if xd.ndim < 1 or xd.shape[-1] < 1:
        raise DimensionError("log_softmax expects a nonempty last axis")
    z = xd - xd.max(axis=-1, keepdims=True)
    out = Tensor(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))
    p = np.exp(out.data)

    def backward_fn(g):
        return (g - p * g.sum(axis=-1, keepdims=True),)

    tape.record((x,), out, backward_fn)
    return out


def dot(tape, a, b):
    """Inner products over the last axis of b (..., n): with a of b's shape,
    one per leading index (Tensor[1] for 1-D), or with each row of
    a (..., k, n), giving (..., k)."""
    ad, bd = a.data, b.data
    lead = ad.shape[:-2] if ad.ndim == bd.ndim + 1 else ad.shape[:-1]
    if bd.ndim < 1 or lead != bd.shape[:-1] or ad.shape[-1] != bd.shape[-1]:
        raise DimensionError("dot: shapes %s and %s differ"
                             % (ad.shape, bd.shape))
    rows = ad.reshape(lead + (-1, bd.shape[-1]))  # (..., k, n); k = 1 for b's
    out = Tensor((rows @ bd[..., None]).reshape(ad.shape[:-1] or (1,)))

    def backward_fn(g):
        g_rows = g.reshape(rows.shape[:-1])
        return (g_rows[..., None] * bd[..., None, :],
                (g_rows[..., None, :] @ rows)[..., 0, :])

    tape.record((a, b), out, backward_fn)
    return out


def nll_loss(tape, log_probs, target):
    """Negative log likelihood of the target index: of one (K,) row and an
    int target, or summed over the rows of (B, K) with B targets, so that
    the gradient is the sum of the B rows' gradients."""
    lp, target = log_probs.data, np.asarray(target)
    if lp.ndim not in (1, 2) or lp.shape[:-1] != target.shape:
        raise DimensionError("nll_loss: log-probabilities %s need %s targets, "
                             "got %s" % (lp.shape, lp.shape[:-1], target.shape))
    k = lp.shape[-1]
    if ((target < 0) | (target >= k)).any():
        raise IndexError("nll_loss target %s out of range [0, %d)"
                         % (target, k))
    rows = lp.reshape(-1, k)
    picked = (np.arange(len(rows)), target.reshape(-1))
    out = Tensor([-rows[picked].sum()])

    def backward_fn(g):
        gi = np.zeros_like(rows)
        gi[picked] = -g[0]
        return (gi,)

    tape.record((log_probs,), out, backward_fn)
    return out


def reshape(tape, x, shape):
    out = Tensor(x.data.reshape(shape))

    def backward_fn(g):
        return (g.reshape(x.data.shape),)

    tape.record((x,), out, backward_fn)
    return out


def one_hot(index, size):
    """One-hot rows over the last axis: (size,) for an int, (..., size) for
    an index array."""
    return (np.arange(size) == np.asarray(index)[..., None]).astype(np.float64)


def sample_gumbel(rng, size):
    u = np.clip(rng.random(size), _GUMBEL_U_LO, _GUMBEL_U_HI)
    return -np.log(-np.log(u))


def gumbel_softmax(tape, logits, temperature, rng):
    """Relaxed categorical sample over the last axis of the logits: the
    tempered softmax of (logits + Gumbel noise) (Jang et al.,
    arXiv:1611.01144), the noise drawn from `rng` by one
    rng.random(logits.shape) call. A freshly seeded generator freezes the
    noise (as finite-difference checks do). The hard symbol sent at
    evaluation is `agents.sender_forward`'s noise-free argmax.
    """
    if temperature <= 0:
        raise ParameterError("gumbel_softmax temperature must be > 0, got %r"
                             % (temperature,))
    ld = logits.data
    z = (ld + sample_gumbel(rng, ld.shape)) / temperature
    y = np.exp(z - z.max(axis=-1, keepdims=True))
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward_fn(g):
        return ((y * (g - (g * y).sum(axis=-1, keepdims=True))) / temperature,)

    tape.record((logits,), out, backward_fn)
    return out
