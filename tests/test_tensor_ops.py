"""Forward-pass behaviour of the Tensor class: shapes, values, broadcasting, errors."""

import numpy as np
import pytest

from repro.tensor import Tensor, concat, maximum, minimum, stack, where


class TestConstruction:
    def test_from_list(self):
        tensor = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert tensor.shape == (2, 2)
        assert tensor.dtype == np.float64

    def test_from_scalar(self):
        tensor = Tensor(3.5)
        assert tensor.shape == ()
        assert tensor.item() == pytest.approx(3.5)

    def test_from_tensor_copies_reference_data(self):
        source = Tensor([1.0, 2.0])
        clone = Tensor(source)
        assert np.allclose(clone.data, source.data)

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad

    def test_repr_contains_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_detach_drops_grad_flag(self):
        tensor = Tensor([1.0], requires_grad=True)
        assert not tensor.detach().requires_grad

    def test_copy_is_independent(self):
        tensor = Tensor([1.0, 2.0])
        duplicate = tensor.copy()
        duplicate.data[0] = 99.0
        assert tensor.data[0] == 1.0

    def test_len_and_size(self):
        tensor = Tensor(np.zeros((4, 3)))
        assert len(tensor) == 4
        assert tensor.size == 12
        assert tensor.ndim == 2


class TestArithmetic:
    def test_add_broadcasts(self):
        result = Tensor(np.ones((2, 3))) + Tensor(np.arange(3.0))
        assert np.allclose(result.data, [[1, 2, 3], [1, 2, 3]])

    def test_radd_with_scalar(self):
        result = 2.0 + Tensor([1.0, 2.0])
        assert np.allclose(result.data, [3.0, 4.0])

    def test_subtract_and_rsub(self):
        assert np.allclose((Tensor([5.0]) - 2.0).data, [3.0])
        assert np.allclose((2.0 - Tensor([5.0])).data, [-3.0])

    def test_multiply_and_divide(self):
        a = Tensor([2.0, 4.0])
        assert np.allclose((a * 3.0).data, [6.0, 12.0])
        assert np.allclose((a / 2.0).data, [1.0, 2.0])
        assert np.allclose((8.0 / a).data, [4.0, 2.0])

    def test_negation_and_power(self):
        a = Tensor([2.0, -3.0])
        assert np.allclose((-a).data, [-2.0, 3.0])
        assert np.allclose((a**2).data, [4.0, 9.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.allclose((a @ b).data, a.data @ b.data)

    def test_matmul_batched(self):
        a = Tensor(np.random.default_rng(0).normal(size=(5, 2, 3)))
        b = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        assert (a @ b).shape == (5, 2, 4)

    def test_comparisons_return_arrays(self):
        a = Tensor([1.0, 5.0])
        assert (a > 2.0).tolist() == [False, True]
        assert (a <= 1.0).tolist() == [True, False]


class TestElementwise:
    def test_exp_log_roundtrip(self):
        a = Tensor([0.5, 1.0, 2.0])
        assert np.allclose(a.exp().log().data, a.data)

    def test_sigmoid_range(self):
        values = Tensor(np.linspace(-100, 100, 11)).sigmoid().data
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_relu_zeroes_negatives(self):
        assert np.allclose(Tensor([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0])

    def test_abs_and_sqrt(self):
        assert np.allclose(Tensor([-3.0, 4.0]).abs().data, [3.0, 4.0])
        assert np.allclose(Tensor([4.0, 9.0]).sqrt().data, [2.0, 3.0])

    def test_clip_bounds(self):
        clipped = Tensor([-5.0, 0.5, 5.0]).clip(-1.0, 1.0)
        assert np.allclose(clipped.data, [-1.0, 0.5, 1.0])

    def test_tanh_matches_numpy(self):
        values = np.linspace(-2, 2, 7)
        assert np.allclose(Tensor(values).tanh().data, np.tanh(values))


class TestReductionsAndShapes:
    def test_sum_axis_and_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.sum().item() == pytest.approx(15.0)
        assert a.sum(axis=0).shape == (3,)
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_and_var(self):
        a = Tensor(np.arange(8.0).reshape(2, 4))
        assert a.mean().item() == pytest.approx(3.5)
        assert np.allclose(a.var(axis=1).data, a.data.var(axis=1))

    def test_max_and_min(self):
        a = Tensor([[1.0, 9.0], [4.0, -2.0]])
        assert a.max().item() == 9.0
        assert np.allclose(a.min(axis=1).data, [1.0, -2.0])

    def test_reshape_and_flatten(self):
        a = Tensor(np.arange(6.0))
        assert a.reshape(2, 3).shape == (2, 3)

    def test_transpose_and_swapaxes(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.transpose().shape == (4, 3, 2)
        assert a.transpose(0, 2, 1).shape == (2, 4, 3)
        assert a.swapaxes(0, 1).shape == (3, 2, 4)
        assert Tensor(np.zeros((2, 3))).T.shape == (3, 2)

    def test_squeeze_unsqueeze(self):
        a = Tensor(np.zeros((2, 1, 3)))
        assert a.squeeze(1).shape == (2, 3)
        assert a.unsqueeze(0).shape == (1, 2, 1, 3)

    def test_broadcast_to_and_repeat(self):
        a = Tensor(np.ones((1, 3)))
        assert a.broadcast_to((4, 3)).shape == (4, 3)
        assert Tensor(np.ones((2, 2))).repeat(3, axis=0).shape == (6, 2)

    def test_getitem_slices_and_fancy(self):
        a = Tensor(np.arange(12.0).reshape(3, 4))
        assert a[1].shape == (4,)
        assert a[:, 1:3].shape == (3, 2)
        assert a[np.array([0, 2])].shape == (2, 4)

    def test_pad(self):
        padded = Tensor(np.ones((2, 2))).pad(((1, 0), (0, 2)))
        assert padded.shape == (3, 4)
        assert padded.data[0].sum() == 0.0


class TestFreeFunctions:
    def test_concat_shapes_and_values(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        joined = concat([a, b], axis=1)
        assert joined.shape == (2, 5)
        assert joined.data[:, :2].sum() == 4.0

    def test_stack_new_axis(self):
        stacked = stack([Tensor(np.ones(3)), Tensor(np.zeros(3))], axis=0)
        assert stacked.shape == (2, 3)

    def test_where_selects(self):
        result = where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        assert np.allclose(result.data, [1.0, 2.0])

    def test_maximum_minimum(self):
        a, b = Tensor([1.0, 5.0]), Tensor([3.0, 2.0])
        assert np.allclose(maximum(a, b).data, [3.0, 5.0])
        assert np.allclose(minimum(a, b).data, [1.0, 2.0])


class TestErrors:
    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_on_vector_without_grad_raises(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            tensor.backward()
