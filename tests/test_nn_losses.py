"""Tests for the loss functions, especially the masked variants used for training."""

import numpy as np
import pytest

from repro.nn import (
    L1Loss,
    MSELoss,
    l1_loss,
    masked_mae,
    masked_mape,
    masked_pinball,
    masked_mse,
    masked_rmse,
    mse_loss,
)
from repro.tensor import Tensor, check_gradients


class TestPlainLosses:
    def test_l1_matches_numpy(self, rng):
        p, t = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        assert l1_loss(Tensor(p), Tensor(t)).item() == pytest.approx(np.abs(p - t).mean())

    def test_mse_matches_numpy(self, rng):
        p, t = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        assert mse_loss(Tensor(p), Tensor(t)).item() == pytest.approx(((p - t) ** 2).mean())

    def test_zero_loss_for_perfect_prediction(self, rng):
        t = rng.normal(size=(4, 4))
        assert l1_loss(Tensor(t.copy()), Tensor(t)).item() == pytest.approx(0.0)
        assert mse_loss(Tensor(t.copy()), Tensor(t)).item() == pytest.approx(0.0)

    def test_loss_modules_match_functions(self, rng):
        p, t = Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 3)))
        assert L1Loss()(p, t).item() == pytest.approx(l1_loss(p, t).item())
        assert MSELoss()(p, t).item() == pytest.approx(mse_loss(p, t).item())


class TestMaskedLosses:
    def test_masked_mae_ignores_null_targets(self):
        target = Tensor(np.array([[10.0, 0.0], [20.0, 0.0]]))
        prediction = Tensor(np.array([[12.0, 99.0], [18.0, 99.0]]))
        # Errors at the zero targets must not contribute.
        assert masked_mae(prediction, target, null_value=0.0).item() == pytest.approx(2.0)

    def test_masked_mae_with_no_mask_equals_plain_mae(self, rng):
        p, t = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)) + 5.0
        assert masked_mae(Tensor(p), Tensor(t), null_value=None).item() == pytest.approx(
            np.abs(p - t).mean()
        )

    def test_masked_nan_null_value(self):
        target = np.array([[1.0, np.nan], [2.0, np.nan]])
        prediction = np.array([[2.0, 50.0], [4.0, 50.0]])
        value = masked_mae(Tensor(prediction), Tensor(np.nan_to_num(target, nan=np.nan)),
                           null_value=float("nan")).item()
        assert value == pytest.approx(1.5)

    def test_masked_mse_and_rmse_consistency(self, rng):
        p = rng.normal(size=(4, 4)) + 3.0
        t = rng.normal(size=(4, 4)) + 3.0
        mse = masked_mse(Tensor(p), Tensor(t), null_value=0.0).item()
        rmse = masked_rmse(Tensor(p), Tensor(t), null_value=0.0).item()
        assert rmse == pytest.approx(np.sqrt(mse))

    def test_masked_mape_excludes_zeros(self):
        target = Tensor(np.array([[100.0, 0.0]]))
        prediction = Tensor(np.array([[110.0, 5.0]]))
        assert masked_mape(prediction, target, null_value=0.0).item() == pytest.approx(0.1)

    def test_all_null_targets_give_zero_loss(self):
        target = Tensor(np.zeros((2, 2)))
        prediction = Tensor(np.ones((2, 2)))
        assert masked_mae(prediction, target, null_value=0.0).item() == pytest.approx(0.0)

    def test_masked_mae_gradients(self, rng):
        target = Tensor(np.abs(rng.normal(size=(3, 3))) + 1.0)
        prediction = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        assert check_gradients(lambda p: masked_mae(p, target), [prediction], atol=1e-4)

    def test_masked_loss_drives_training_signal_only_on_observed(self):
        target = Tensor(np.array([[5.0, 0.0]]))
        prediction = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        masked_mae(prediction, target, null_value=0.0).backward()
        assert prediction.grad[0, 0] != 0.0
        assert prediction.grad[0, 1] == pytest.approx(0.0)


class TestLossDtype:
    """Masked losses run in the prediction's dtype, whatever the dtype policy."""

    @pytest.mark.parametrize("loss", [
        masked_mae, masked_mse, masked_rmse, masked_mape,
        lambda p, t: masked_pinball(p, t, (0.5,)),
    ], ids=["mae", "mse", "rmse", "mape", "pinball"])
    def test_float32_in_gives_float32_out(self, rng, loss):
        target = rng.normal(size=(3, 4, 1))
        target[0, 0, 0] = 0.0  # one masked entry
        prediction = rng.normal(size=(3, 4, 1))
        reference = loss(Tensor(prediction), Tensor(target))  # float64 policy
        prediction32 = Tensor(prediction.astype(np.float32), requires_grad=True,
                              dtype=np.float32)
        value = loss(prediction32, target.astype(np.float32))
        assert reference.dtype == np.float64
        assert value.dtype == np.float32
        assert value.item() == pytest.approx(reference.item(), rel=1e-5)
        value.backward()
        assert prediction32.grad.dtype == np.float32
