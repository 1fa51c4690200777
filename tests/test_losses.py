"""Closed forms, stability, and gradient exactness of the three objectives."""

import math

import numpy as np
import pytest

from rankforge.losses import bce, lce, ranknet, sigmoid, softplus


def fd_grad(fn, s: np.ndarray, step: float = 1e-4) -> np.ndarray:
    out = np.zeros_like(s)
    for i in range(s.size):
        hi = s.copy()
        hi[i] += step
        lo = s.copy()
        lo[i] -= step
        out[i] = (fn(hi).value - fn(lo).value) / (2 * step)
    return out


def assert_close_grads(analytic: np.ndarray, estimate: np.ndarray, rtol: float):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(estimate)), 1e-8)
    assert float(np.max(np.abs(analytic - estimate) / denom)) < rtol


class TestStableHelpers:
    def test_softplus_extremes(self):
        x = np.array([-1000.0, 0.0, 1000.0])
        out = softplus(x)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(math.log(2), rel=1e-15)
        assert out[2] == 1000.0

    def test_sigmoid_symmetry(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)


class TestLce:
    def test_uniform_closed_form(self):
        out = lce(np.zeros(100))
        assert out.value == pytest.approx(math.log(100.0), abs=1e-12)
        assert out.grad[0] == pytest.approx(1 / 100 - 1, abs=1e-15)
        np.testing.assert_allclose(out.grad[1:], 1 / 100, atol=1e-15)

    def test_strong_positive_closed_form(self):
        s = np.zeros(100)
        s[0] = 10.0
        expected = math.log1p(99.0 * math.exp(-10.0))
        assert lce(s).value == pytest.approx(expected, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=20)
        base = lce(s).value
        for c in (-1000.0, 1000.0):
            assert lce(s + c).value == pytest.approx(base, abs=1e-9)

    def test_grad_sums_to_zero_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            grad = lce(rng.normal(size=10)).grad
            # softmax minus one-hot: components cancel to float rounding
            assert abs(float(grad.sum())) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=8)
        out = lce(s)
        perm = np.array([0, 3, 1, 2, 7, 6, 5, 4])
        out_p = lce(s[perm])
        assert out_p.value == pytest.approx(out.value, rel=1e-12)
        np.testing.assert_allclose(out_p.grad, out.grad[perm], rtol=1e-12)

    def test_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            s = rng.normal(size=2 + rng.integers(0, 10))
            assert_close_grads(lce(s).grad, fd_grad(lce, s), 1e-6)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            lce(np.zeros(1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            lce(np.array([0.0, np.nan]))


class TestRanknet:
    def test_single_pair_at_margin_zero(self):
        assert ranknet(np.zeros(2)).value == pytest.approx(math.log(2), rel=1e-12)

    def test_twenty_equal_closed_form(self):
        assert ranknet(np.zeros(20)).value == pytest.approx(
            190.0 * math.log(2.0), abs=1e-9
        )

    def test_agreeing_pair_near_zero(self):
        assert ranknet(np.array([50.0, 0.0])).value == pytest.approx(0.0, abs=1e-9)

    def test_disagreeing_pair_linear(self):
        # softplus(margin) ~ margin when the student inverts the teacher hard
        assert ranknet(np.array([0.0, 50.0])).value == pytest.approx(50.0, abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=12)
        base = ranknet(s).value
        for c in (-1000.0, 1000.0):
            assert ranknet(s + c).value == pytest.approx(base, abs=1e-9)

    def test_perfect_teacher_limit_monotone(self):
        # growing correct-order margins drive the loss toward zero
        values = [
            ranknet(np.arange(6, dtype=float)[::-1] * m).value for m in (4, 8, 16, 64)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-9

    def test_grad_antisymmetry(self):
        rng = np.random.default_rng(6)
        s = rng.normal(size=9)
        grad = ranknet(s).grad
        # total gradient cancels: each pair contributes +p to one side, -p to the other
        assert abs(float(grad.sum())) < 1e-12

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            s = rng.normal(size=2 + rng.integers(0, 10))
            assert_close_grads(ranknet(s).grad, fd_grad(ranknet, s), 1e-6)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            ranknet(np.zeros(1))

    def test_bit_identical_to_full_matrix_form(self):
        """The sigmoid taken over the upper pairs alone, scattered into zeros,
        gives the masked full-matrix form's value and gradient bit for bit."""

        def full_matrix(s):
            diff = s[None, :] - s[:, None]
            upper = np.triu(np.ones((s.size, s.size), dtype=bool), k=1)
            value = float(softplus(diff[upper]).sum())
            p = np.where(upper, sigmoid(diff), 0.0)
            return value, p.sum(axis=0) - p.sum(axis=1)

        rng = np.random.default_rng(8)
        for _ in range(2000):
            scale = rng.choice([1e-3, 1.0, 30.0])
            s = scale * rng.normal(size=rng.integers(2, 25))
            value, grad = full_matrix(s)
            out = ranknet(s)
            assert np.float64(out.value).view(np.uint64) == np.float64(value).view(np.uint64)
            assert np.array_equal(out.grad.view(np.uint64), grad.view(np.uint64))


class TestBce:
    def test_zero_score_positive_label(self):
        # the negative sits far below zero, so only the positive's term counts
        out = bce(np.array([0.0, -1000.0]))
        assert out.value == pytest.approx(math.log(2), rel=1e-12)
        assert out.grad[0] == pytest.approx(-0.5, abs=1e-15)
        assert out.grad[1] == pytest.approx(0.0, abs=1e-15)

    def test_zero_score_negative_label(self):
        # the positive sits far above zero, so only the negative's term counts
        out = bce(np.array([1000.0, 0.0]))
        assert out.value == pytest.approx(math.log(2), rel=1e-12)
        assert out.grad[0] == pytest.approx(0.0, abs=1e-15)
        assert out.grad[1] == pytest.approx(0.5, abs=1e-15)

    def test_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            s = rng.normal(size=2 + rng.integers(0, 10)) * 3
            assert_close_grads(bce(s).grad, fd_grad(bce, s), 1e-6)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            bce(np.zeros(1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            bce(np.array([float("inf"), 0.0]))

    def test_extreme_scores_stable(self):
        assert bce(np.array([1000.0, -1000.0])).value == pytest.approx(0.0, abs=1e-9)
        assert bce(np.array([-1000.0, 1000.0])).value == pytest.approx(2000.0, rel=1e-12)
