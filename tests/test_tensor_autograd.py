"""Backward-pass correctness: analytic gradients vs central finite differences."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, concat, maximum, minimum, stack, where


def _tensor(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestArithmeticGradients:
    def test_add_sub(self, rng):
        a, b = _tensor(rng, 3, 4), _tensor(rng, 3, 4)
        assert check_gradients(lambda x, y: x + y - 0.5 * y, [a, b])

    def test_mul_div(self, rng):
        a, b = _tensor(rng, 2, 3), Tensor(rng.normal(size=(2, 3)) + 3.0, requires_grad=True)
        assert check_gradients(lambda x, y: (x * y) / (y + 1.0), [a, b])

    def test_broadcast_add(self, rng):
        a, b = _tensor(rng, 4, 5), _tensor(rng, 5)
        assert check_gradients(lambda x, y: x + y, [a, b])

    def test_broadcast_mul_row_and_column(self, rng):
        a = _tensor(rng, 3, 4)
        row = _tensor(rng, 1, 4)
        column = _tensor(rng, 3, 1)
        assert check_gradients(lambda x, r, c: x * r * c, [a, row, column])

    def test_power(self, rng):
        a = Tensor(np.abs(rng.normal(size=(3, 3))) + 0.5, requires_grad=True)
        assert check_gradients(lambda x: x**3, [a])

    def test_neg(self, rng):
        a = _tensor(rng, 2, 2)
        assert check_gradients(lambda x: -x, [a])

    def test_scalar_mix(self, rng):
        a = _tensor(rng, 3)
        assert check_gradients(lambda x: 2.0 * x + 1.0 - x / 4.0, [a])


class TestMatmulGradients:
    def test_matmul_2d(self, rng):
        a, b = _tensor(rng, 3, 4), _tensor(rng, 4, 2)
        assert check_gradients(lambda x, y: x.matmul(y), [a, b])

    def test_matmul_batched_left(self, rng):
        a, b = _tensor(rng, 5, 3, 4), _tensor(rng, 4, 2)
        assert check_gradients(lambda x, y: x.matmul(y), [a, b])

    def test_matmul_batched_both(self, rng):
        a, b = _tensor(rng, 2, 3, 4), _tensor(rng, 2, 4, 5)
        assert check_gradients(lambda x, y: x.matmul(y), [a, b])

    def test_matmul_broadcast_batch(self, rng):
        a, b = _tensor(rng, 3, 4), _tensor(rng, 6, 4, 2)
        assert check_gradients(lambda x, y: x.matmul(y), [a, b])

    def test_matmul_vector_cases(self, rng):
        a, b = _tensor(rng, 4), _tensor(rng, 4)
        assert check_gradients(lambda x, y: x.matmul(y), [a, b])
        m, v = _tensor(rng, 3, 4), _tensor(rng, 4)
        assert check_gradients(lambda x, y: x.matmul(y), [m, v])


class TestElementwiseGradients:
    def test_exp_log(self, rng):
        a = Tensor(np.abs(rng.normal(size=(3, 3))) + 0.5, requires_grad=True)
        assert check_gradients(lambda x: (x.exp() + x.log()), [a])

    def test_tanh_sigmoid(self, rng):
        a = _tensor(rng, 4, 4)
        assert check_gradients(lambda x: x.tanh() + x.sigmoid(), [a])

    def test_sqrt(self, rng):
        a = Tensor(np.abs(rng.normal(size=(5,))) + 0.5, requires_grad=True)
        assert check_gradients(lambda x: x.sqrt(), [a])

    def test_relu_away_from_kink(self, rng):
        data = rng.normal(size=(4, 4))
        data[np.abs(data) < 0.1] = 0.5
        a = Tensor(data, requires_grad=True)
        assert check_gradients(lambda x: x.relu(), [a])

    def test_abs_away_from_zero(self, rng):
        data = rng.normal(size=(4,))
        data[np.abs(data) < 0.1] = 1.0
        a = Tensor(data, requires_grad=True)
        assert check_gradients(lambda x: x.abs(), [a])

    def test_clip_interior(self, rng):
        a = Tensor(rng.uniform(-0.5, 0.5, size=(3, 3)), requires_grad=True)
        assert check_gradients(lambda x: x.clip(-1.0, 1.0), [a])


class TestReductionShapeGradients:
    def test_sum_all_and_axis(self, rng):
        a = _tensor(rng, 3, 4, 2)
        assert check_gradients(lambda x: x.sum(), [a])
        assert check_gradients(lambda x: x.sum(axis=1), [a])
        assert check_gradients(lambda x: x.sum(axis=(0, 2), keepdims=True), [a])

    def test_mean_and_var(self, rng):
        a = _tensor(rng, 4, 3)
        assert check_gradients(lambda x: x.mean(axis=0), [a])
        assert check_gradients(lambda x: x.var(axis=1), [a], atol=1e-4)

    def test_max(self, rng):
        a = Tensor(rng.permutation(12).reshape(3, 4).astype(float), requires_grad=True)
        assert check_gradients(lambda x: x.max(axis=1), [a])

    def test_reshape_transpose(self, rng):
        a = _tensor(rng, 2, 3, 4)
        assert check_gradients(lambda x: x.reshape(6, 4).tanh(), [a])
        assert check_gradients(lambda x: x.transpose(2, 0, 1), [a])

    def test_squeeze_unsqueeze_broadcast(self, rng):
        a = _tensor(rng, 2, 1, 3)
        assert check_gradients(lambda x: x.squeeze(1).unsqueeze(0), [a])
        b = _tensor(rng, 1, 4)
        assert check_gradients(lambda x: x.broadcast_to((3, 4)) * 2.0, [b])

    def test_repeat_and_pad(self, rng):
        a = _tensor(rng, 2, 3)
        assert check_gradients(lambda x: x.repeat(2, axis=1), [a])
        assert check_gradients(lambda x: x.pad(((1, 1), (0, 2))), [a])

    def test_getitem_gradients(self, rng):
        a = _tensor(rng, 5, 3)
        assert check_gradients(lambda x: x[1:4], [a])
        indices = np.array([0, 2, 2, 4])
        assert check_gradients(lambda x: x[indices] * 3.0, [a])
        b = _tensor(rng, 2, 5, 3)
        assert check_gradients(lambda x: x[..., np.array([0, 2, 2]), :], [b])


class TestFreeFunctionGradients:
    def test_concat(self, rng):
        a, b = _tensor(rng, 2, 3), _tensor(rng, 2, 2)
        assert check_gradients(lambda x, y: concat([x, y], axis=1).tanh(), [a, b])

    def test_stack(self, rng):
        a, b = _tensor(rng, 3), _tensor(rng, 3)
        assert check_gradients(lambda x, y: stack([x, y], axis=1), [a, b])

    def test_where(self, rng):
        condition = rng.random((3, 3)) > 0.5
        a, b = _tensor(rng, 3, 3), _tensor(rng, 3, 3)
        assert check_gradients(lambda x, y: where(condition, x, y), [a, b])

    def test_maximum_minimum(self, rng):
        a = Tensor(rng.normal(size=(4,)) + 2.0, requires_grad=True)
        b = Tensor(rng.normal(size=(4,)) - 2.0, requires_grad=True)
        assert check_gradients(lambda x, y: maximum(x, y) + minimum(x, y), [a, b])


class TestGraphMechanics:
    def test_gradient_accumulates_over_reuse(self, rng):
        a = Tensor([2.0], requires_grad=True)
        out = a * a + a
        out.backward()
        assert a.grad[0] == pytest.approx(2 * 2.0 + 1.0)

    def test_diamond_graph(self, rng):
        a = Tensor([3.0], requires_grad=True)
        left = a * 2.0
        right = a * 4.0
        (left + right).backward()
        assert a.grad[0] == pytest.approx(6.0)

    def test_backward_twice_accumulates(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).backward()
        (a * 2.0).backward()
        assert a.grad[0] == pytest.approx(4.0)

    def test_only_leaves_keep_grad(self):
        a = Tensor([2.0], requires_grad=True)
        hidden = a * 3.0
        out = hidden * hidden
        out.backward()
        assert a.grad[0] == pytest.approx(2 * 3.0 * 6.0)
        assert hidden.grad is None and out.grad is None

    def test_zero_grad_resets(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 3.0).backward()
        a.zero_grad()
        assert a.grad is None

    def test_non_scalar_backward_with_explicit_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = a * 3.0
        out.backward(np.ones((2, 2)))
        assert np.allclose(a.grad, 3.0)

    def test_no_grad_flow_through_detached(self):
        a = Tensor([2.0], requires_grad=True)
        detached = a.detach()
        out = detached * 5.0
        assert not out.requires_grad
