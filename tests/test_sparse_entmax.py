"""Tests for the α-entmax family: exactness, sparsity, gradients, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparse import (
    alpha_entmax,
    alpha_entmax_np,
    entmax15_np,
    entmax_support_size,
    softmax,
    softmax_np,
    sparsemax,
    sparsemax_np,
)
from repro.sparse.entmax import _EPS, _entmax_jvp
from repro.tensor import Tensor, check_gradients


def _entmax15_reference(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sort-based 1.5-entmax of Peters et al. (2019), one temporary per step.

    The straightforward form of the solver :func:`entmax15_np` runs in place:
    running mean and mean of squares of the descending sort, the threshold
    ``τ_k = mean_k - sqrt(max(0, (1 - k·(meansq_k - mean_k²)) / k))`` and the
    support size ``k* = #{k : τ_k <= z_(k)}``.
    """
    z = np.asarray(z) / 2.0
    z = np.moveaxis(z, axis, -1)
    shape = z.shape
    flat = z.reshape(-1, shape[-1])
    flat = flat - flat.max(axis=-1, keepdims=True)
    sorted_z = -np.sort(-flat, axis=-1)
    k_range = np.arange(1, shape[-1] + 1, dtype=z.dtype)
    mean = np.cumsum(sorted_z, axis=-1) / k_range
    mean_sq = np.cumsum(sorted_z**2, axis=-1) / k_range
    ss = k_range * (mean_sq - mean**2)
    delta = (1.0 - ss) / k_range
    delta = np.maximum(delta, 0.0)
    tau = mean - np.sqrt(delta)
    support = tau <= sorted_z
    k = support.sum(axis=-1)
    tau_star = np.take_along_axis(tau, k[:, None] - 1, axis=-1)
    out = np.maximum(flat - tau_star, 0.0) ** 2
    out = out / np.maximum(out.sum(axis=-1, keepdims=True), _EPS)
    return np.moveaxis(out.reshape(shape), -1, axis)


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-30))


class TestForwardCorrectness:
    def test_softmax_matches_reference(self, rng):
        z = rng.normal(size=(4, 7))
        expected = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        assert np.allclose(softmax_np(z), expected)

    @pytest.mark.parametrize("alpha", [1.0, 1.2, 1.5, 1.8, 2.0, 2.5])
    def test_outputs_are_probability_vectors(self, rng, alpha):
        z = rng.normal(size=(5, 9)) * 3.0
        p = alpha_entmax_np(z, alpha=alpha)
        assert np.all(p >= -1e-12)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)

    def test_alpha_one_equals_softmax(self, rng):
        z = rng.normal(size=(3, 6))
        assert np.allclose(alpha_entmax_np(z, 1.0), softmax_np(z))

    def test_alpha_two_equals_sparsemax(self, rng):
        z = rng.normal(size=(3, 6))
        assert np.allclose(alpha_entmax_np(z, 2.0), sparsemax_np(z), atol=1e-9)

    def test_bisection_matches_exact_entmax15(self, rng):
        z = rng.normal(size=(4, 8)) * 2.0
        from repro.sparse.entmax import _entmax_bisect_np

        assert np.allclose(_entmax_bisect_np(z, 1.5), entmax15_np(z), atol=1e-5)

    def test_sparsemax_on_dominant_logit_is_one_hot(self):
        z = np.array([[10.0, 0.0, 0.0]])
        p = sparsemax_np(z)
        assert np.allclose(p, [[1.0, 0.0, 0.0]])

    def test_uniform_input_gives_uniform_output(self):
        z = np.zeros((2, 5))
        for alpha in (1.0, 1.5, 2.0):
            assert np.allclose(alpha_entmax_np(z, alpha), 0.2)

    def test_shift_invariance(self, rng):
        z = rng.normal(size=(3, 6))
        for alpha in (1.0, 1.5, 2.0):
            assert np.allclose(alpha_entmax_np(z, alpha), alpha_entmax_np(z + 7.3, alpha), atol=1e-6)

    def test_axis_argument(self, rng):
        z = rng.normal(size=(4, 5))
        p = alpha_entmax_np(z, 1.5, axis=0)
        assert np.allclose(p.sum(axis=0), 1.0, atol=1e-6)

    def test_invalid_alpha_raises(self):
        with pytest.raises(ValueError):
            alpha_entmax_np(np.zeros(3), alpha=0.5)


class TestEntmax15Solver:
    """The in-place solver against the reference form, on every axis layout."""

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_matches_reference_float64(self, rng, axis):
        z = rng.normal(size=(3, 4, 5, 6)) * 3.0
        assert _max_rel(entmax15_np(z, axis=axis), _entmax15_reference(z, axis=axis)) <= 1e-12

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_matches_reference_float32(self, rng, axis):
        z = (rng.normal(size=(3, 4, 5, 6)) * 3.0).astype(np.float32)
        p = entmax15_np(z, axis=axis)
        assert p.dtype == np.float32
        np.testing.assert_allclose(p, _entmax15_reference(z, axis=axis), rtol=0, atol=1e-6)

    def test_non_contiguous_view(self, rng):
        z = (rng.normal(size=(6, 4, 10, 5)) * 3.0).transpose(2, 0, 3, 1)[::2]
        assert not z.flags.c_contiguous
        for axis in (1, -1):
            assert _max_rel(entmax15_np(z, axis=axis), _entmax15_reference(z, axis=axis)) <= 1e-12

    def test_ties_and_shift(self, rng):
        z = np.round(rng.normal(size=(20, 7)) * 2.0) + 100.0
        assert _max_rel(entmax15_np(z), _entmax15_reference(z)) <= 1e-12


class TestEntmax15Jvp:
    def test_sqrt_form_is_exact(self, rng):
        """At α = 1.5 the JVP weights are ``p ** 0.5`` on the support — also
        for support entries below ``_EPS``, which no clamp may lift."""
        p = np.array([[0.7, 0.3 - 2e-14, 1e-14, 1e-14, 0.0],
                      [1.0, 0.0, 0.0, 0.0, 0.0]])
        p = np.concatenate([p, entmax15_np(rng.normal(size=(4, 5)) * 3.0)])
        assert ((p > 0.0) & (p < _EPS)).any()
        grad = rng.normal(size=p.shape)
        s = p**0.5
        expected = s * (grad - (s * grad).sum(-1, keepdims=True) / s.sum(-1, keepdims=True))
        np.testing.assert_allclose(_entmax_jvp(p, grad, 1.5, -1), expected, rtol=1e-12,
                                   atol=1e-15)

    @pytest.mark.parametrize("axis", [-1, 1])
    def test_gradients_match_finite_differences_float64(self, rng, axis):
        z = Tensor(rng.normal(size=(3, 6, 4)) * 2.0, requires_grad=True)
        multiplier = Tensor(rng.normal(size=(3, 6, 4)))
        assert z.dtype == np.float64
        assert check_gradients(
            lambda x: alpha_entmax(x, alpha=1.5, axis=axis) * multiplier,
            [z],
            atol=1e-7,
            rtol=1e-5,
            epsilon=1e-6,
        )


class TestSparsity:
    def test_sparsity_increases_with_alpha(self, rng):
        z = rng.normal(size=(20, 30)) * 2.0
        support_soft = entmax_support_size(alpha_entmax_np(z, 1.0)).mean()
        support_15 = entmax_support_size(alpha_entmax_np(z, 1.5)).mean()
        support_sparse = entmax_support_size(alpha_entmax_np(z, 2.0)).mean()
        assert support_soft >= support_15 >= support_sparse
        assert support_sparse < 30  # sparsemax actually zeroes entries

    def test_softmax_is_fully_dense(self, rng):
        z = rng.normal(size=(5, 8))
        assert np.all(entmax_support_size(alpha_entmax_np(z, 1.0)) == 8)

    def test_entmax_zeroes_low_scores(self):
        z = np.array([[5.0, 4.9, -5.0, -6.0]])
        p = alpha_entmax_np(z, 1.5)
        assert p[0, 2] == 0.0 and p[0, 3] == 0.0
        assert p[0, 0] > 0.0 and p[0, 1] > 0.0


class TestGradients:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_gradients_match_finite_differences(self, rng, alpha):
        z = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        multiplier = Tensor(rng.normal(size=(3, 6)))
        assert check_gradients(
            lambda x: alpha_entmax(x, alpha=alpha) * multiplier,
            [z],
            atol=5e-3,
            rtol=5e-2,
            epsilon=1e-5,
        )

    def test_gradient_is_zero_off_support(self, rng):
        z = Tensor(np.array([[5.0, 4.5, -10.0]]), requires_grad=True)
        out = sparsemax(z)
        out.sum().backward()
        # The third coordinate is outside the support: moving it slightly cannot
        # change the output, so its gradient must be exactly zero.
        assert z.grad[0, 2] == pytest.approx(0.0)

    def test_softmax_tensor_wrapper(self, rng):
        z = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        p = softmax(z)
        assert np.allclose(p.data.sum(axis=-1), 1.0)
        p.sum().backward()
        # Sum of a probability vector is constant, so gradients are ~0.
        assert np.allclose(z.grad, 0.0, atol=1e-8)


finite = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 8)), elements=finite),
       st.sampled_from([1.0, 1.25, 1.5, 1.75, 2.0]))
def test_property_valid_distribution(z, alpha):
    p = alpha_entmax_np(z, alpha=alpha)
    assert np.all(p >= -1e-9)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 6)), elements=finite))
def test_property_ordering_preserved(z):
    """Larger logits never receive smaller probability."""
    p = alpha_entmax_np(z, alpha=1.5)
    for row_z, row_p in zip(z, p):
        order = np.argsort(row_z)
        sorted_p = row_p[order]
        assert np.all(np.diff(sorted_p) >= -1e-8)
