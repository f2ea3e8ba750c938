"""Minimal reverse-mode automatic differentiation on float64 arrays.

Every operation takes an explicit Tape and records a backward rule on it.
The graph is rebuilt per game round; nothing is retained between rounds.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DimensionError, ParameterError

# Uniform draws are clamped away from {0, 1} before the double log so the
# Gumbel noise stays finite.
_GUMBEL_U_LO = 1e-20
_GUMBEL_U_HI = 1.0 - 1e-16


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
    """Propagate d(loss)/d(tensor) to every tensor recorded on the tape.

    Gradients accumulate additively and in place (an existing gradient array,
    which may be a view, is never replaced), both across multiple uses of a
    tensor within the tape and across repeated backward calls.
    """
    if loss.data.size != 1:
        raise ContractError("backward expects a scalar loss, got shape %s"
                            % (tuple(loss.data.shape),))
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad = loss.grad + np.ones_like(loss.data)
    for inputs, output, backward_fn in reversed(tape.nodes):
        g = output.grad
        if g is None:
            continue
        for tensor, gi in zip(inputs, backward_fn(g)):
            if gi is None:
                continue
            if tensor.grad is None:
                tensor.grad = np.zeros_like(tensor.data)
            tensor.grad += gi.reshape(tensor.data.shape)


def linear(tape, x, weight, bias):
    """Affine map of one row (in,) or of each row of (n, in):
    x @ weight.T + bias, with weight (out, in) and bias (out,)."""
    xd, wd, bd = x.data, weight.data, bias.data
    if xd.ndim not in (1, 2) or wd.ndim != 2 or wd.shape[1] != xd.shape[-1] \
            or bd.shape != (wd.shape[0],):
        raise DimensionError(
            "linear: weight %s / bias %s incompatible with input %s"
            % (wd.shape, bd.shape, xd.shape))
    out = Tensor(xd @ wd.T + bd)
    rows = xd.reshape(-1, wd.shape[1])

    def backward_fn(g):
        g_rows = g.reshape(-1, wd.shape[0])
        # For a single row, einsum beats both np.outer and a k=1 matmul.
        return (g @ wd, np.einsum("ki,kj->ij", g_rows, rows),
                g_rows.sum(axis=0))

    tape.record((x, weight, bias), out, backward_fn)
    return out


def conv1d(tape, x, kernels, bias):
    """Valid (no padding) 1-D convolution, stride 1.

    x: (c_in, length), kernels: (c_out, c_in, k), bias: (c_out,)
    -> (c_out, length - k + 1)
    """
    xd, kd, bd = x.data, kernels.data, bias.data
    if xd.ndim != 2 or kd.ndim != 3 or kd.shape[1] != xd.shape[0] \
            or bd.shape != (kd.shape[0],):
        raise DimensionError(
            "conv1d: kernels %s / bias %s incompatible with input %s"
            % (kd.shape, bd.shape, xd.shape))
    k, length = kd.shape[2], xd.shape[1]
    if k > length:
        raise DimensionError(
            "conv1d: kernel width %d exceeds input length %d" % (k, length))
    windows = sliding_window_view(xd, k, axis=1)  # (c_in, L_out, k)
    out = Tensor(np.einsum("ocj,ctj->ot", kd, windows) + bd[:, None])

    def backward_fn(g):
        gk = np.einsum("ot,ctj->ocj", g, windows)
        gb = g.sum(axis=1)
        gx = np.zeros_like(xd)
        l_out = g.shape[1]
        for j in range(k):
            gx[:, j:j + l_out] += np.einsum("ot,oc->ct", g, kd[:, :, j])
        return gx, gk, gb

    tape.record((x, kernels, bias), out, backward_fn)
    return out


def sigmoid(tape, x):
    """Elementwise logistic function, stable for large |x|."""
    xd = x.data
    e = np.exp(-np.abs(xd))  # exp(-x) where x >= 0, exp(x) elsewhere
    s = np.where(xd >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s)

    def backward_fn(g):
        return (g * s * (1.0 - s),)

    tape.record((x,), out, backward_fn)
    return out


def log_softmax(tape, x):
    """Max-shifted log softmax over a 1-D tensor."""
    xd = x.data
    if xd.ndim != 1 or xd.size < 1:
        raise DimensionError("log_softmax expects a nonempty 1-D tensor")
    z = xd - xd.max()
    lse = np.log(np.exp(z).sum())
    out = Tensor(z - lse)
    p = np.exp(out.data)

    def backward_fn(g):
        return (g - p * g.sum(),)

    tape.record((x,), out, backward_fn)
    return out


def dot(tape, a, b):
    """Inner product of b (n,) with a (n,), giving Tensor[1], or with each
    row of a (k, n), giving Tensor[k]."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim != 1 or ad.shape[-1] != bd.shape[0]:
        raise DimensionError("dot: shapes %s and %s differ"
                             % (ad.shape, bd.shape))
    out = Tensor(np.atleast_1d(ad @ bd))
    rows = ad.reshape(-1, bd.shape[0])

    def backward_fn(g):
        return np.outer(g, bd), g @ rows

    tape.record((a, b), out, backward_fn)
    return out


def nll_loss(tape, log_probs, target):
    """Negative log likelihood of the target index."""
    lp = log_probs.data
    if lp.ndim != 1:
        raise DimensionError("nll_loss expects 1-D log-probabilities")
    if not 0 <= target < lp.shape[0]:
        raise IndexError("nll_loss target %d out of range [0, %d)"
                         % (target, lp.shape[0]))
    out = Tensor([-lp[target]])

    def backward_fn(g):
        gi = np.zeros_like(lp)
        gi[target] = -g[0]
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
    v = np.zeros(size, dtype=np.float64)
    v[index] = 1.0
    return v


def sample_gumbel(rng, size):
    u = np.clip(rng.random(size), _GUMBEL_U_LO, _GUMBEL_U_HI)
    return -np.log(-np.log(u))


def gumbel_softmax(tape, logits, temperature, hard=False, rng=None, noise=None):
    """Relaxed categorical sample over the logits.

    Soft mode returns the tempered softmax of (logits + Gumbel noise); hard
    mode returns one_hot(argmax(soft)) in the forward value while gradients
    flow through the soft sample (straight-through). Pass `noise` to freeze
    the perturbation (used by finite-difference checks); otherwise it is
    drawn from `rng`.
    """
    if temperature <= 0:
        raise ParameterError("gumbel_softmax temperature must be > 0, got %r"
                             % (temperature,))
    ld = logits.data
    if noise is None:
        if rng is None:
            raise ContractError("gumbel_softmax needs an rng when noise is not given")
        noise = sample_gumbel(rng, ld.shape[0])
    z = (ld + noise) / temperature
    z = z - z.max()
    y = np.exp(z)
    y /= y.sum()
    out = Tensor(one_hot(int(np.argmax(y)), y.shape[0]) if hard else y)

    def backward_fn(g):
        # Straight-through: both modes backprop through the soft sample.
        return ((y * (g - g @ y)) / temperature,)

    tape.record((logits,), out, backward_fn)
    return out
