import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradcheck import grad_check
from loop_oracles import softmax
from recsuite import numeric


finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestSoftmax:
    """The per-instance softmax the loop oracles build their attention on."""

    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_singleton(self):
        np.testing.assert_allclose(softmax([7.3]), [1.0])

    def test_three_values_against_direct_oracle(self):
        # independent oracle: plain exp/sum, no max subtraction
        xs = [1.0, 2.0, 3.0]
        es = [math.exp(v) for v in xs]
        z = sum(es)
        expected = [e / z for e in es]
        got = softmax(xs)
        np.testing.assert_allclose(got, expected, atol=1e-5)
        np.testing.assert_allclose(got, [0.090031, 0.244728, 0.665241], atol=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax([1.0, float("nan")])
        with pytest.raises(ValueError):
            softmax([1.0, float("inf")])

    def test_large_inputs_stable(self):
        out = softmax([1000.0, 1000.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.5, 0.5])

    @given(st.lists(finite_floats, min_size=1, max_size=8))
    def test_sums_to_one(self, xs):
        out = softmax(xs)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert np.all(out >= 0)

    @given(st.lists(finite_floats, min_size=1, max_size=8), finite_floats)
    def test_shift_invariance(self, xs, c):
        a = softmax(xs)
        b = softmax([x + c for x in xs])
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestSigmoid:
    def test_center(self):
        assert numeric.sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert abs(numeric.sigmoid(50.0) - 1.0) <= 1e-9

    def test_one_against_oracle(self):
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(numeric.sigmoid(1.0) - expected) < 1e-12
        assert abs(numeric.sigmoid(1.0) - 0.731059) < 1e-5

    def test_extreme_negative_no_overflow(self):
        assert numeric.sigmoid(-745.0) >= 0.0

    @given(finite_floats, finite_floats)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert numeric.sigmoid(lo) <= numeric.sigmoid(hi)

    def test_vectorized(self):
        out = numeric.sigmoid(np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [0.5, 1.0 / (1.0 + math.exp(-1.0))])

    def test_bit_identical_to_the_two_branch_formula(self):
        # the form sigmoid had before it worked in place on one scratch array
        def two_branch(x):
            t = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))

        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 800.0, -800.0]
        x = np.concatenate([numeric.make_rng(0).normal(0.0, 20.0, 100_000), special])
        before = x.copy()
        got, want = numeric.sigmoid(x), two_branch(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # NaN bits too
        assert np.array_equal(x.view(np.int64), before.view(np.int64))  # input untouched
        for v in special:
            out = numeric.sigmoid(v)
            assert type(out) is float
            assert np.float64(out).view(np.int64) == two_branch(np.float64(v)).view(np.int64)


class TestGradCheck:
    def test_quadratic_exact(self):
        def fn(p):
            return 0.5 * float(np.sum(p * p)), p.copy()

        params = np.array([0.3, -1.2, 2.0])
        assert grad_check(fn, params) < 1e-6

    def test_sigmoid_sum(self):
        def fn(p):
            s = numeric.sigmoid(p)
            return float(np.sum(s)), s * (1.0 - s)

        params = np.array([[0.1, -0.4], [1.3, 0.0]])
        assert grad_check(fn, params) < 1e-4

    def test_detects_doubled_gradient(self):
        def fn(p):
            return 0.5 * float(np.sum(p * p)), 2.0 * p

        params = np.array([1.0, 2.0])
        err = grad_check(fn, params)
        # |2g - g| / (|2g| + |g|) = 1/3
        assert abs(err - 1.0 / 3.0) < 1e-3

    def test_non_finite_loss_rejected(self):
        def fn(p):
            return float("nan"), p

        with pytest.raises(FloatingPointError):
            grad_check(fn, np.array([1.0]))


class TestInits:
    def test_uniform_attention_bounds_k3(self):
        out = numeric.init_uniform_attention(10, 10, k=3, rng=numeric.make_rng(1))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_uniform_attention_bounds_k300(self):
        out = numeric.init_uniform_attention(20, 20, k=300, rng=numeric.make_rng(2))
        assert np.all(out >= -0.1) and np.all(out <= 0.1)

    def test_uniform_attention_deterministic(self):
        a = numeric.init_uniform_attention(4, 6, 8, numeric.make_rng(9))
        b = numeric.init_uniform_attention(4, 6, 8, numeric.make_rng(9))
        assert np.array_equal(a, b)


class TestSoftmaxBackward:
    def test_matches_finite_differences(self):
        rng = numeric.make_rng(3)
        logits = rng.normal(size=5)
        v = rng.normal(size=5)

        def fn(z):
            a = softmax(z)
            alpha = softmax(z)
            return float(alpha @ v), numeric.softmax_backward(a, v)

        assert grad_check(fn, logits) < 1e-6
