import numpy as np
import pytest

from cellang import autodiff as ad
from cellang.autodiff import Tape, Tensor, backward
from cellang.errors import ContractError, DimensionError, ParameterError

from conftest import grads_close, numerical_grad


def t(values, requires_grad=False):
    return Tensor(values, requires_grad=requires_grad)


class TestLinear:
    def test_identity_map(self):
        out = ad.linear(Tape(), t([1, 2]), t([[1, 0], [0, 1]]), t([0, 0]))
        assert np.array_equal(out.data, [1, 2])

    def test_sum_plus_one(self):
        out = ad.linear(Tape(), t([1, 2, 3]), t([[1, 1, 1]]), t([1]))
        assert np.array_equal(out.data, [7])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            ad.linear(Tape(), t([1, 2]), t(np.zeros((2, 3))), t([0, 0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        # One row (4,) and a stack of rows (3, 4).
        for shape in [(4,)] * 10 + [(3, 4)] * 10:
            w0 = rng.normal(size=(8, 4))
            b0 = rng.normal(size=8)
            x0 = rng.normal(size=shape)

            def run(x, w, b):
                tape = Tape()
                flat = ad.reshape(tape, ad.linear(tape, x, w, b), (-1,))
                return tape, ad.dot(tape, flat, flat)

            xt, wt, bt = t(x0), t(w0), t(b0)
            backward(*run(xt, wt, bt))
            assert grads_close(xt.grad, numerical_grad(
                lambda x: float(run(t(x), t(w0), t(b0))[1].data[0]), x0))
            assert grads_close(wt.grad, numerical_grad(
                lambda w: float(run(t(x0), t(w), t(b0))[1].data[0]), w0))
            assert grads_close(bt.grad, numerical_grad(
                lambda b: float(run(t(x0), t(w0), t(b))[1].data[0]), b0))


class TestConv1d:
    def test_window_center(self):
        out = ad.conv1d(Tape(), t([[1, 2, 3, 4]]), t([[[0, 1, 0]]]), t([0]))
        assert np.array_equal(out.data, [[2, 3]])

    def test_window_sum(self):
        out = ad.conv1d(Tape(), t([[1, 2, 3]]), t([[[1, 1, 1]]]), t([0]))
        assert np.array_equal(out.data, [[6]])

    def test_kernel_wider_than_input(self):
        with pytest.raises(DimensionError):
            ad.conv1d(Tape(), t([[1, 2]]), t([[[1, 1, 1]]]), t([0]))

    @staticmethod
    def conv_oracle(x, kernels, bias):
        c_out, c_in, k = kernels.shape
        l_out = x.shape[1] - k + 1
        out = np.zeros((c_out, l_out))
        for o in range(c_out):
            for pos in range(l_out):
                acc = bias[o]
                for c in range(c_in):
                    for j in range(k):
                        acc += kernels[o, c, j] * x[c, pos + j]
                out[o, pos] = acc
        return out

    def test_matches_nested_loop_oracle_exactly(self):
        # Integer-valued inputs keep every intermediate exactly
        # representable, so bit equality across the two routes is meaningful.
        rng = np.random.default_rng(11)
        for _ in range(100):
            c_in = int(rng.integers(1, 3))
            length = int(rng.integers(3, 9))
            k = int(rng.integers(1, length + 1))
            c_out = int(rng.integers(1, 4))
            x = rng.integers(-8, 9, size=(c_in, length)).astype(float)
            kern = rng.integers(-8, 9, size=(c_out, c_in, k)).astype(float)
            b = rng.integers(-8, 9, size=c_out).astype(float)
            out = ad.conv1d(Tape(), t(x), t(kern), t(b))
            assert np.array_equal(out.data, self.conv_oracle(x, kern, b))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(2, 10))
        kern0 = rng.normal(size=(3, 2, 4))
        b0 = rng.normal(size=3)
        probe = rng.normal(size=3 * 7)

        def run(x, kern, b):
            tape = Tape()
            out = ad.conv1d(tape, t(x), t(kern), t(b))
            flat = ad.reshape(tape, out, (-1,))
            return tape, flat, ad.dot(tape, flat, t(probe))

        tape = Tape()
        xt, kt, bt = t(x0), t(kern0), t(b0)
        out = ad.conv1d(tape, xt, kt, bt)
        flat = ad.reshape(tape, out, (-1,))
        loss = ad.dot(tape, flat, t(probe))
        backward(tape, loss)
        assert grads_close(xt.grad,
                           numerical_grad(lambda x: float(run(x, kern0, b0)[2].data[0]), x0))
        assert grads_close(kt.grad,
                           numerical_grad(lambda k: float(run(x0, k, b0)[2].data[0]), kern0))
        assert grads_close(bt.grad,
                           numerical_grad(lambda b: float(run(x0, kern0, b)[2].data[0]), b0))


class TestSigmoid:
    def test_zero(self):
        assert ad.sigmoid(Tape(), t([0])).data[0] == 0.5

    def test_saturation_no_overflow(self):
        out = ad.sigmoid(Tape(), t([1000.0]))
        assert abs(out.data[0] - 1.0) < 1e-12
        low = ad.sigmoid(Tape(), t([-1000.0]))
        assert 0.0 <= low.data[0] < 1e-12

    def test_matches_two_branch_formula_bit_for_bit(self):
        edges = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, np.inf, -np.inf,
                 np.nan, 745.2, -745.2, 5e-324, -5e-324]
        rng = np.random.default_rng(0)
        # The last shape is sender-sees-all's conv output at the acceptance
        # size.
        for xd in (np.concatenate([edges, rng.normal(0, 10, 187)]
                                  ).reshape(8, 25),
                   rng.normal(0, 10, (32, 20, 71))):
            # Reference: 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x)) below.
            ref = np.empty_like(xd)
            pos = xd >= 0
            ref[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
            ex = np.exp(xd[~pos])
            ref[~pos] = ex / (1.0 + ex)
            out = ad.sigmoid(Tape(), t(xd)).data
            # NaN stays NaN; its sign bit is no part of either formula.
            nan = np.isnan(xd)
            assert np.array_equal(np.isnan(out), nan)
            assert out[~nan].tobytes() == ref[~nan].tobytes()

    def test_gradient_at_zero(self):
        tape = Tape()
        x = t([0.0])
        out = ad.sigmoid(tape, x)
        loss = ad.dot(tape, out, t([1.0]))
        backward(tape, loss)
        assert abs(x.grad[0] - 0.25) < 1e-10


class TestLogSoftmax:
    def test_equal_scores(self):
        out = ad.log_softmax(Tape(), t([2.0] * 5))
        assert np.allclose(out.data, np.log(1 / 5), atol=1e-12)

    def test_max_shift_stability(self):
        out = ad.log_softmax(Tape(), t([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0]) < 1e-10
        assert abs(out.data[1] + 1000.0) < 1e-6

    def test_normalization(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            out = ad.log_softmax(Tape(), t(rng.normal(scale=3, size=7)))
            assert abs(np.exp(out.data).sum() - 1.0) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=6)
        probe = rng.normal(size=6)

        def f(x):
            tape = Tape()
            out = ad.log_softmax(tape, t(x))
            return float(ad.dot(tape, out, t(probe)).data[0])

        tape = Tape()
        xt = t(x0)
        loss = ad.dot(tape, ad.log_softmax(tape, xt), t(probe))
        backward(tape, loss)
        assert grads_close(xt.grad, numerical_grad(f, x0))


class TestDot:
    def test_basic(self):
        assert ad.dot(Tape(), t([1, 2, 3]), t([4, 5, 6])).data[0] == 32
        out = ad.dot(Tape(), t([[1, 2, 3], [0, 1, 0]]), t([4, 5, 6]))
        assert np.array_equal(out.data, [32, 5])

    def test_zero(self):
        assert ad.dot(Tape(), t([1, 2]), t([0, 0])).data[0] == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ad.dot(Tape(), t([1, 2]), t([1, 2, 3]))
        with pytest.raises(DimensionError):
            ad.dot(Tape(), t([[1, 2]]), t([1, 2, 3]))

    def test_gradient_is_other_operand(self):
        tape = Tape()
        a, b = t([1.0, 2.0]), t([3.0, -4.0])
        backward(tape, ad.dot(tape, a, b))
        assert np.array_equal(a.grad, b.data)
        assert np.array_equal(b.grad, a.data)
        # (k, n) rows against (n,): each row's gradient is b, b's is the
        # sum of the rows (the loss sums the k outputs).
        tape = Tape()
        rows, b = t([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]]), t([3.0, -4.0])
        out = ad.dot(tape, rows, b)
        backward(tape, ad.dot(tape, out, t(np.ones(3))))
        assert np.array_equal(rows.grad, np.tile(b.data, (3, 1)))
        assert np.array_equal(b.grad, rows.data.sum(axis=0))


class TestNllLoss:
    def test_uniform(self):
        lp = t(np.full(5, np.log(1 / 5)))
        for target in range(5):
            out = ad.nll_loss(Tape(), lp, target)
            assert abs(out.data[0] - 1.6094379124341003) < 1e-12

    def test_perfect_prediction(self):
        lp = t([0.0, -50.0, -50.0])
        assert ad.nll_loss(Tape(), lp, 0).data[0] == 0.0

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            ad.nll_loss(Tape(), t([0.0, -1.0]), 2)

    def test_gradient_is_indicator(self):
        tape = Tape()
        lp = t([-1.0, -2.0, -3.0])
        backward(tape, ad.nll_loss(tape, lp, 1))
        assert np.array_equal(lp.grad, [0.0, -1.0, 0.0])


class TestGumbelSoftmax:
    def test_soft_is_probability_vector(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = t(rng.normal(scale=5, size=10))
            y = ad.gumbel_softmax(Tape(), logits, 0.7, rng=rng)
            assert np.all(y.data >= 0)
            assert abs(y.data.sum() - 1.0) < 1e-10

    def test_uniform_logits_empirical_mean(self):
        rng = np.random.default_rng(2)
        logits = t(np.zeros(10))
        total = np.zeros(10)
        for _ in range(10000):
            total += ad.gumbel_softmax(Tape(), logits, 1.0, rng=rng).data
        assert np.all(np.abs(total / 10000 - 0.1) < 0.03)

    def test_dominant_logit_low_temperature(self):
        rng = np.random.default_rng(3)
        logits = t([10.0, -10.0, -10.0])
        hits = sum(
            int(np.argmax(ad.gumbel_softmax(Tape(), logits, 0.1, rng=rng).data)) == 0
            for _ in range(10000))
        assert hits >= 9990

    def test_temperature_must_be_positive(self):
        with pytest.raises(ParameterError):
            ad.gumbel_softmax(Tape(), t([0.0, 1.0]), 0.0,
                              rng=np.random.default_rng(0))

    def test_same_seed_bit_identical(self):
        logits = t([0.3, -1.2, 2.0, 0.0])
        a = ad.gumbel_softmax(Tape(), logits, 0.8,
                              rng=np.random.default_rng(42))
        b = ad.gumbel_softmax(Tape(), logits, 0.8,
                              rng=np.random.default_rng(42))
        assert np.array_equal(a.data, b.data)

    def test_gradient_matches_finite_differences_frozen_noise(self):
        # Each evaluation draws its noise from a freshly seeded generator,
        # so every one sees the same noise.
        rng = np.random.default_rng(4)
        probe = rng.normal(size=6)
        x0 = rng.normal(size=6)

        def f(x):
            tape = Tape()
            y = ad.gumbel_softmax(tape, t(x), 0.5, np.random.default_rng(5))
            return float(ad.dot(tape, y, t(probe)).data[0])

        tape = Tape()
        xt = t(x0)
        loss = ad.dot(tape, ad.gumbel_softmax(tape, xt, 0.5,
                                              np.random.default_rng(5)),
                      t(probe))
        backward(tape, loss)
        assert grads_close(xt.grad, numerical_grad(f, x0))


class TestBackward:
    def test_dot_square(self):
        tape = Tape()
        x = t([1.0, 2.0], requires_grad=True)
        backward(tape, ad.dot(tape, x, x))
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_reuse_accumulates(self):
        tape = Tape()
        x = t([1.0, 2.0], requires_grad=True)
        a = ad.dot(tape, x, x)
        b = ad.dot(tape, x, x)
        loss = ad.dot(tape, a, b)
        backward(tape, loss)
        # d/dx (x.x)^2 = 4 (x.x) x, summed over four uses of x
        assert np.array_equal(x.grad, [20.0, 40.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(Tape(), t([1.0, 2.0]))

    def test_tensor_invariants_after_forward(self):
        # product(shape) == len(values) and finiteness on a chained op
        tape = Tape()
        x = t(np.random.default_rng(0).normal(size=(2, 6)))
        out = ad.sigmoid(tape, ad.conv1d(tape, x, t(np.ones((3, 2, 2))),
                                         t(np.zeros(3))))
        assert int(np.prod(out.shape)) == out.values.size
        assert np.all(np.isfinite(out.values))


def check_gradients(build, *arrays):
    """build(tape, *tensors) -> scalar Tensor. Every input's gradient from
    one backward walk must match central finite differences."""
    tensors = [t(a) for a in arrays]
    tape = Tape()
    backward(tape, build(tape, *tensors))
    for i, (a, x) in enumerate(zip(arrays, tensors)):
        def f(v):
            args = [t(b) for b in arrays]
            args[i] = t(v)
            return float(build(Tape(), *args).data[0])
        assert grads_close(x.grad, numerical_grad(f, a)), i


def scored(tape, out, probe):
    """A scalar from a non-scalar output: its dot with a fixed probe."""
    return ad.dot(tape, ad.reshape(tape, out, (-1,)), t(probe.reshape(-1)))


class TestBatchedShapes:
    """Leading batch axes: each op's gradients at batched shapes, and its
    values against the op applied to one batch item at a time."""

    def setup_method(self, method):
        self.rng = np.random.default_rng(21)

    def normal(self, *shape):
        return self.rng.normal(size=shape)

    def test_linear(self):
        probe = self.normal(2, 3, 8)
        for with_bias in (True, False):
            def build(tape, x, w, *b):
                return scored(tape, ad.linear(tape, x, w, *b), probe)
            check_gradients(build, self.normal(2, 3, 4), self.normal(8, 4),
                            *([self.normal(8)] if with_bias else []))

    def test_linear_without_bias_is_the_matmul(self):
        x, w = self.normal(2, 3, 4), self.normal(8, 4)
        out = ad.linear(Tape(), t(x), t(w))
        assert np.array_equal(out.data, x @ w.T)

    def test_conv1d_items_match_single_calls_exactly(self):
        x = self.rng.integers(-8, 9, size=(4, 2, 9)).astype(float)
        kern = self.rng.integers(-8, 9, size=(3, 2, 4)).astype(float)
        b = self.rng.integers(-8, 9, size=3).astype(float)
        out = ad.conv1d(Tape(), t(x), t(kern), t(b))
        assert out.data.shape == (4, 3, 6)
        for i in range(4):
            single = ad.conv1d(Tape(), t(x[i]), t(kern), t(b))
            assert np.array_equal(out.data[i], single.data)

    def test_conv1d(self):
        probe = self.normal(3, 3, 7)
        check_gradients(
            lambda tape, x, k, b: scored(tape, ad.conv1d(tape, x, k, b),
                                         probe),
            self.normal(3, 2, 10), self.normal(3, 2, 4), self.normal(3))

    def test_sigmoid(self):
        probe = self.normal(3, 2, 5)
        check_gradients(
            lambda tape, x: scored(tape, ad.sigmoid(tape, x), probe),
            self.normal(3, 2, 5))

    def test_log_softmax_rows_match_single_rows(self):
        x = self.normal(4, 6)
        out = ad.log_softmax(Tape(), t(x))
        for i in range(4):
            assert np.array_equal(out.data[i],
                                  ad.log_softmax(Tape(), t(x[i])).data)
        probe = self.normal(4, 6)
        check_gradients(
            lambda tape, x: scored(tape, ad.log_softmax(tape, x), probe), x)

    def test_dot_rows_per_batch_item(self):
        a, b = self.normal(4, 3, 5), self.normal(4, 5)
        out = ad.dot(Tape(), t(a), t(b))
        assert out.data.shape == (4, 3)
        for i in range(4):
            assert np.allclose(out.data[i], a[i] @ b[i], rtol=1e-15, atol=0)
        probe = self.normal(4, 3)
        check_gradients(lambda tape, a, b: scored(tape, ad.dot(tape, a, b),
                                                  probe), a, b)
        with pytest.raises(DimensionError):
            ad.dot(Tape(), t(a), t(self.normal(3, 5)))

    def test_nll_loss_sums_rows(self):
        lp = np.log(self.rng.dirichlet(np.ones(5), size=4))
        target = np.array([0, 4, 2, 2])
        out = ad.nll_loss(Tape(), t(lp), target)
        assert out.data.shape == (1,)
        assert out.data[0] == -sum(lp[i, target[i]] for i in range(4))
        tape = Tape()
        x = t(lp)
        backward(tape, ad.nll_loss(tape, x, target))
        expected = np.zeros((4, 5))
        expected[np.arange(4), target] = -1.0
        assert np.array_equal(x.grad, expected)
        with pytest.raises(IndexError):
            ad.nll_loss(Tape(), t(lp), np.array([0, 5, 1, 1]))
        with pytest.raises(DimensionError):
            ad.nll_loss(Tape(), t(lp), 1)

    def test_gumbel_softmax_frozen_noise(self):
        # A freshly seeded generator per evaluation freezes the noise.
        probe = self.normal(3, 6)
        check_gradients(lambda tape, x: scored(
            tape, ad.gumbel_softmax(tape, x, 0.5, np.random.default_rng(7)),
            probe), self.normal(3, 6))

    def test_gumbel_batch_draw_is_the_row_draws(self):
        # One rng.random((B, V)) call gives the same noise as B (V,) calls.
        a = ad.sample_gumbel(np.random.default_rng(3), (4, 7))
        rng = np.random.default_rng(3)
        b = np.stack([ad.sample_gumbel(rng, 7) for _ in range(4)])
        assert np.array_equal(a, b)
