"""Tests for the memory-bounded large-N pathway (chunked SNS + tiled attention).

The pathway's core guarantee is *bitwise* equality: for any ``chunk_size`` /
``memory_budget_mb`` setting, the sampled index set and the slim adjacency
must be byte-identical to the unchunked result.  The attention tests shrink
the canonical scoring-tile constant so that multi-tile and multi-block code
paths are exercised on test-sized graphs.
"""

import numpy as np
import pytest

from repro.core import (
    SAGDFN,
    SAGDFNConfig,
    SignificantNeighborsSampling,
    SparseSpatialMultiHeadAttention,
)
from repro.nn.module import Parameter
from repro.serve import ForecastService
from repro.tensor import Tensor, default_dtype, no_grad


def _small_tile(attention: SparseSpatialMultiHeadAttention, m: int, rows: int = 7,
                itemsize: int = 8) -> None:
    """Shrink the canonical tile grid to ``rows`` node rows."""
    attention._tile_bytes = attention.num_heads * m * attention.ffn_hidden * itemsize * rows


class TestChunkedSampling:
    @pytest.mark.parametrize("chunk", [1, 3, 17, 50, 10_000])
    def test_chunked_ranking_bit_identical(self, chunk, rng):
        embeddings = rng.normal(size=(50, 6))
        plain = SignificantNeighborsSampling(50, 12, 9, seed=4)
        chunked = SignificantNeighborsSampling(50, 12, 9, seed=4, chunk_size=chunk)
        assert np.array_equal(plain.sample(embeddings, explore=False),
                              chunked.sample(embeddings, explore=False))

    def test_explore_draws_unaffected_by_chunking(self, rng):
        embeddings = rng.normal(size=(40, 5))
        plain = SignificantNeighborsSampling(40, 10, 6, seed=7)
        chunked = SignificantNeighborsSampling(40, 10, 6, seed=7, chunk_size=9)
        assert np.array_equal(plain.sample(embeddings, explore=True),
                              chunked.sample(embeddings, explore=True))

    def test_memory_budget_derives_block(self, rng):
        sampler = SignificantNeighborsSampling(60, 8, 6, seed=0, memory_budget_mb=0.001)
        assert 1 <= sampler._ranking_block(embedding_dim=4) < 60
        unbounded = SignificantNeighborsSampling(60, 8, 6, seed=0)
        assert unbounded._ranking_block(embedding_dim=4) == 60
        embeddings = rng.normal(size=(60, 4))
        assert np.array_equal(unbounded.sample(embeddings, explore=False),
                              sampler.sample(embeddings, explore=False))

    def test_invalid_chunking_arguments(self):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            SignificantNeighborsSampling(10, 4, 2, chunk_size=0)
        with pytest.raises(ValueError, match="memory_budget_mb must be positive"):
            SignificantNeighborsSampling(10, 4, 2, memory_budget_mb=0.0)


class TestTiledAttention:
    def _setup(self, dtype="float64", n=61, d=6, m=9, heads=3, hidden=5, seed=2):
        with default_dtype(dtype):
            rng = np.random.default_rng(0)
            embeddings = Parameter(rng.normal(size=(n, d)), name="embeddings")
            index_set = rng.choice(n, size=m, replace=False)

            def build(**kwargs):
                with default_dtype(dtype):
                    attention = SparseSpatialMultiHeadAttention(
                        d, num_heads=heads, ffn_hidden=hidden, seed=seed, **kwargs
                    )
                _small_tile(attention, m, rows=7, itemsize=embeddings.data.dtype.itemsize)
                return attention

            return embeddings, index_set, build

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("chunk", [1, 5, 7, 13, 28, 61, 1000])
    def test_tiled_forward_bit_identical(self, dtype, chunk):
        embeddings, index_set, build = self._setup(dtype)
        reference = build()(embeddings, index_set).data
        tiled = build(chunk_size=chunk)(embeddings, index_set).data
        assert tiled.dtype == reference.dtype
        assert np.array_equal(reference, tiled)

    def test_memory_budget_bit_identical(self):
        embeddings, index_set, build = self._setup()
        reference = build()(embeddings, index_set).data
        budgeted = build(memory_budget_mb=0.0005)(embeddings, index_set).data
        assert np.array_equal(reference, budgeted)

    def test_block_rounds_up_to_tile_grid(self):
        _, index_set, build = self._setup()
        attention = build(chunk_size=5)
        block = attention._node_block(61, len(index_set), 8)
        assert block is not None and block % 7 == 0  # grid = 7 rows (see _small_tile)
        # a block covering the whole graph collapses to the single-pass mode
        assert build(chunk_size=61)._node_block(61, len(index_set), 8) is None

    def test_tiled_gradients_match(self):
        embeddings, index_set, build = self._setup()
        other = Parameter(embeddings.data.copy(), name="embeddings")
        plain, tiled = build(), build(chunk_size=13)
        plain(embeddings, index_set).sum().backward()
        tiled(other, index_set).sum().backward()
        np.testing.assert_allclose(embeddings.grad, other.grad, atol=1e-12)
        for name in ("head_w1", "head_b1", "head_w2", "head_b2"):
            np.testing.assert_allclose(
                getattr(plain, name).grad, getattr(tiled, name).grad, atol=1e-12
            )
        np.testing.assert_allclose(plain.mixer.weight.grad, tiled.mixer.weight.grad,
                                   atol=1e-12)

    def test_invalid_chunking_arguments(self):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            SparseSpatialMultiHeadAttention(4, chunk_size=0)
        with pytest.raises(ValueError, match="memory_budget_mb must be positive"):
            SparseSpatialMultiHeadAttention(4, memory_budget_mb=-1.0)


class TestEndToEndChunked:
    def _models(self, **chunk_kwargs):
        base = dict(num_nodes=26, history=3, horizon=3, num_significant=7, top_k=5,
                    hidden_size=8, num_heads=2, ffn_hidden=6, seed=0)
        plain = SAGDFN(SAGDFNConfig(**base))
        chunked = SAGDFN(SAGDFNConfig(**base, **chunk_kwargs))
        for model in (plain, chunked):
            _small_tile(model.attention, 7, rows=5)
        return plain, chunked

    def test_config_threads_knobs(self):
        _, chunked = self._models(chunk_size=9)
        assert chunked.sampler.chunk_size == 9
        assert chunked.attention.chunk_size == 9
        _, budgeted = self._models(memory_budget_mb=2.0)
        assert budgeted.sampler.memory_budget_mb == 2.0
        assert budgeted.attention.memory_budget_mb == 2.0

    def test_frozen_graph_bit_identical_predictions_close(self, rng):
        plain, chunked = self._models(chunk_size=9)
        plain.refresh_graph(10**6)
        chunked.refresh_graph(10**6)
        assert np.array_equal(plain.index_set, chunked.index_set)
        with no_grad():
            assert np.array_equal(plain.slim_adjacency().data,
                                  chunked.slim_adjacency().data)
        x = rng.normal(size=(2, 3, 26, 2))
        with no_grad():
            np.testing.assert_allclose(plain(Tensor(x)).data, chunked(Tensor(x)).data,
                                       atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SAGDFNConfig(num_nodes=10, chunk_size=0)
        with pytest.raises(ValueError):
            SAGDFNConfig(num_nodes=10, memory_budget_mb=0)


class TestServiceMemoryKnobs:
    def test_service_override_applies_before_freeze(self, rng):
        # Two independently built but identical models: the service override
        # mutates its model in place, so the unchunked reference needs its own.
        config = dict(num_nodes=20, history=3, horizon=3, num_significant=6,
                      top_k=4, hidden_size=8, num_heads=2, ffn_hidden=6, seed=0)
        plain, model = SAGDFN(SAGDFNConfig(**config)), SAGDFN(SAGDFNConfig(**config))
        plain.refresh_graph(10**6)
        model.refresh_graph(10**6)
        reference = ForecastService(plain)
        overridden = ForecastService(model, chunk_size=5, memory_budget_mb=16.0)
        assert model.sampler.chunk_size == 5
        assert model.attention.chunk_size == 5
        assert model.attention.memory_budget_mb == 16.0
        # the frozen graph is unchanged by the knob (bit-identity) …
        assert np.array_equal(reference.frozen.adjacency, overridden.frozen.adjacency)
        # … and so is the served forecast
        window = rng.normal(size=(2, 3, 20, 2))
        np.testing.assert_allclose(reference.predict(window),
                                   overridden.predict(window), atol=1e-12)

    def test_budget_only_override_clears_trained_chunk_size(self):
        """chunk_size wins inside the modules, so a budget-only override must
        clear the checkpoint's chunk_size or the budget would be ignored."""
        config = SAGDFNConfig(num_nodes=20, history=3, horizon=3, num_significant=6,
                              top_k=4, hidden_size=8, num_heads=2, ffn_hidden=6,
                              seed=0, chunk_size=4096)
        model = SAGDFN(config)
        model.refresh_graph(10**6)
        ForecastService(model, memory_budget_mb=16.0)
        assert model.sampler.chunk_size is None
        assert model.sampler.memory_budget_mb == 16.0
        assert model.attention.chunk_size is None
        assert model.attention.memory_budget_mb == 16.0
