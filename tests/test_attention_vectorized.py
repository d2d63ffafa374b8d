"""Equivalence and state-dict tests for the vectorized attention.

The vectorized hot path (stacked head weights, tiled fused scoring kernel,
single α-entmax call) must reproduce the per-head reference loop
:func:`_looped_attention` up to float64 round-off, including gradients.
"""

import numpy as np
import pytest

from repro.core import SparseSpatialMultiHeadAttention
from repro.core.attention import _batched_pair_scores
from repro.nn import Linear
from repro.nn.module import Module, Parameter
from repro.sparse import alpha_entmax
from repro.tensor import Tensor, check_gradients, concat

EQUIV_ATOL = 1e-10


def _looped_attention(attention, embeddings, index_set):
    """Per-head reference for ``attention(embeddings, index_set)``.

    Materialises the ``(N, M, 2d)`` pair tensor and runs each head's FFN
    (slices of the stacked ``head_w1/b1/w2/b2``) and α-entmax in a Python
    loop, then mixes the concatenated heads with ``attention.mixer``.
    """
    index_set = np.asarray(index_set, dtype=np.int64)
    num_nodes, dim = embeddings.shape
    num_significant = index_set.shape[0]
    neighbours = embeddings[index_set]
    pairs = concat(
        [
            embeddings.unsqueeze(1).broadcast_to((num_nodes, num_significant, dim)),
            neighbours.unsqueeze(0).broadcast_to((num_nodes, num_significant, dim)),
        ],
        axis=-1,
    )  # (N, M, 2d)
    heads = []
    for p in range(attention.num_heads):
        hidden = (pairs.matmul(attention.head_w1[p]) + attention.head_b1[p]).relu()
        raw = hidden.matmul(attention.head_w2[p]) + attention.head_b2[p]  # (N, M, 2)
        heads.append(alpha_entmax(raw, alpha=attention.alpha, axis=1))
    return attention.mixer(concat(heads, axis=-1)).squeeze(-1)  # (N, M)


@pytest.fixture
def embeddings(rng):
    return Parameter(rng.normal(size=(14, 6)), name="embeddings")


@pytest.fixture
def index_set():
    return np.array([0, 3, 7, 11])


class TestVectorizedEquivalence:
    def test_forward_matches_per_head_loop(self, embeddings, index_set):
        attention = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=3, ffn_hidden=8)
        vectorized = attention(embeddings, index_set)
        looped = _looped_attention(attention, embeddings, index_set)
        np.testing.assert_allclose(vectorized.data, looped.data, atol=EQUIV_ATOL, rtol=0)

    def test_gradients_match_per_head_loop(self, embeddings, index_set):
        attention = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=3, ffn_hidden=8)

        def grads(forward):
            attention.zero_grad()
            embeddings.zero_grad()
            out = forward(embeddings, index_set)
            (out * out).sum().backward()
            result = {name: p.grad.copy() for name, p in attention.named_parameters()}
            result["embeddings"] = embeddings.grad.copy()
            return result

        vectorized = grads(attention.forward)
        looped = grads(lambda e, i: _looped_attention(attention, e, i))
        assert set(vectorized) == set(looped)
        for name in vectorized:
            np.testing.assert_allclose(
                vectorized[name], looped[name], atol=EQUIV_ATOL, rtol=0, err_msg=name
            )

    def test_equivalence_with_softmax_normalizer(self, embeddings, index_set):
        attention = SparseSpatialMultiHeadAttention(
            embedding_dim=6, num_heads=2, ffn_hidden=8, normalizer="softmax"
        )
        np.testing.assert_allclose(
            attention(embeddings, index_set).data,
            _looped_attention(attention, embeddings, index_set).data,
            atol=EQUIV_ATOL,
            rtol=0,
        )

    def test_equivalence_single_head(self, embeddings, index_set):
        attention = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=1, ffn_hidden=4)
        np.testing.assert_allclose(
            attention(embeddings, index_set).data,
            _looped_attention(attention, embeddings, index_set).data,
            atol=EQUIV_ATOL,
            rtol=0,
        )

    def test_fused_scoring_kernel_numerical_gradients(self, rng):
        e = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        e_i = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(2, 8, 5)), requires_grad=True)
        b1 = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(2, 5, 2)), requires_grad=True)
        b2 = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        assert check_gradients(
            lambda *tensors: _batched_pair_scores(*tensors),
            [e, e_i, w1, b1, w2, b2],
            atol=1e-4,
        )

    def test_fused_kernel_tiles_cover_every_node(self, rng, index_set):
        """Force a tile size smaller than N so the tiling loop runs > once."""
        from repro.core import attention as attention_module

        original = attention_module._TILE_BYTES
        attention_module._TILE_BYTES = 1  # 1-node tiles
        try:
            attention = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=2, ffn_hidden=8)
            embeddings = Parameter(rng.normal(size=(14, 6)))
            tiled = attention(embeddings, index_set)
            (tiled * tiled).sum().backward()
            tiled_grad = embeddings.grad.copy()
        finally:
            attention_module._TILE_BYTES = original
        embeddings.zero_grad()
        attention.zero_grad()
        whole = _looped_attention(attention, embeddings, index_set)
        (whole * whole).sum().backward()
        np.testing.assert_allclose(tiled.data, whole.data, atol=EQUIV_ATOL, rtol=0)
        np.testing.assert_allclose(tiled_grad, embeddings.grad, atol=EQUIV_ATOL, rtol=0)


class TestStateDictMigration:
    def test_current_state_dict_round_trips(self, embeddings, index_set):
        attention = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=2, ffn_hidden=8, seed=3)
        fresh = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=2, ffn_hidden=8, seed=4)
        fresh.load_state_dict(attention.state_dict())
        np.testing.assert_allclose(
            fresh(embeddings, index_set).data,
            attention(embeddings, index_set).data,
            atol=EQUIV_ATOL,
            rtol=0,
        )

    def test_list_held_submodules_round_trip(self):
        """Modules held in plain lists serialise and reload by index."""

        class ListHolder(Module):
            def __init__(self, seed: int):
                super().__init__()
                self.blocks = [Linear(3, 3, seed=seed + i) for i in range(3)]

            def forward(self, x):
                for block in self.blocks:
                    x = block(x)
                return x

        source, target = ListHolder(seed=0), ListHolder(seed=50)
        keys = set(source.state_dict())
        assert "blocks.0.weight" in keys and "blocks.2.bias" in keys
        target.load_state_dict(source.state_dict())
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_array_equal(target(x).data, source(x).data)

    def test_named_modules_prefixes(self):
        attention = SparseSpatialMultiHeadAttention(embedding_dim=4, num_heads=1, ffn_hidden=4)
        prefixes = dict(attention.named_modules())
        assert "" in prefixes and prefixes[""] is attention
        assert "mixer." in prefixes and prefixes["mixer."] is attention.mixer
