"""Neural-network building blocks on top of the ``repro.tensor`` autodiff engine.

The module hierarchy mirrors the familiar ``torch.nn`` layout so that the
SAGDFN model and the baselines read like their published reference
implementations:

* :class:`Module` / :class:`Parameter` — parameter registration, traversal,
  ``state_dict`` round-tripping and train/eval mode switching.
* Layers: :class:`Linear`, :class:`Sequential`, :class:`Embedding`,
  :class:`Dropout`, :class:`LayerNorm`, :class:`BatchNorm1d`,
  :class:`GRUCell`, :class:`LSTMCell`, :class:`MultiHeadAttention`,
  :class:`Conv1d`, :class:`FeedForward`.
* Losses: MAE / MSE / pinball, with masked variants following the
  missing-data convention of the traffic-forecasting literature.
"""

from repro.nn.module import Module, Parameter, ModuleList, Sequential
from repro.nn.linear import Linear, FeedForward
from repro.nn.embedding import Embedding
from repro.nn.activations import ReLU, Sigmoid, Tanh
from repro.nn.dropout import Dropout
from repro.nn.normalization import BatchNorm1d, LayerNorm
from repro.nn.rnn import GRUCell, LSTMCell, GRU, LSTM
from repro.nn.attention import MultiHeadAttention, scaled_dot_product_attention
from repro.nn.conv import Conv1d, CausalConv1d, GatedTemporalConv
from repro.nn import init
from repro.nn.loss import (
    l1_loss,
    mse_loss,
    pinball_loss,
    masked_pinball,
    masked_mae,
    masked_mse,
    masked_rmse,
    masked_mape,
    L1Loss,
    MSELoss,
)

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Sequential",
    "Linear",
    "FeedForward",
    "Embedding",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Dropout",
    "LayerNorm",
    "BatchNorm1d",
    "GRUCell",
    "LSTMCell",
    "GRU",
    "LSTM",
    "MultiHeadAttention",
    "scaled_dot_product_attention",
    "Conv1d",
    "CausalConv1d",
    "GatedTemporalConv",
    "init",
    "l1_loss",
    "mse_loss",
    "pinball_loss",
    "masked_pinball",
    "masked_mae",
    "masked_mse",
    "masked_rmse",
    "masked_mape",
    "L1Loss",
    "MSELoss",
]
