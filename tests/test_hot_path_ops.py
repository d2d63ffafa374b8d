"""The hand-written hot-path ops against the math they stand in for.

Two groups of raw-ndarray ops carry the serving and attention hot paths:

* the in-place cell-step ops of :mod:`repro.core.gconv`
  (``_diffusion_aggregate_``, ``_fused_gru_gates_``, ``_fused_gru_update_``,
  ``_stack_with_bias``), shared by training and the serving kernel, replay on
  feature-major arrays what Eq. 9's hop and the GRU gates and blend compute
  on batch-major ones;
* the tiled pair scoring of :mod:`repro.core.attention`
  (``_tile_rows``, ``_batched_pair_scores``) replays the dense per-pair
  scoring FFN without materialising the ``(P, N, M, h)`` activation.

Each op is checked on its own against the reference expression — float64 to
≤ 1e-10 relative, float32 to the suite's 5e-5 envelope — and the
construction-time knob validation and the served-forecast parity are pinned
across the shapes the kernels see in practice.
"""

import numpy as np
import pytest

from repro.core import SAGDFN, SAGDFNConfig
from repro.core.attention import (
    _TILE_BYTES,
    SparseSpatialMultiHeadAttention,
    _batched_pair_scores,
    _tile_rows,
)
from repro.core.gconv import (
    _diffusion_aggregate_,
    _fused_gru_gates_,
    _fused_gru_update_,
    _stack_with_bias,
)
from repro.core.sampling import SignificantNeighborsSampling
from repro.serve import ForecastService
from repro.tensor import Tensor, no_grad
from repro.utils import save_bundle

F64_REL = 1e-10
F32_REL = 5e-5
REL = {"float64": F64_REL, "float32": F32_REL}

# (N, M, B, C): nodes, significant neighbours, batch, channels.
AGGREGATE_SHAPES = [(9, 4, 2, 3), (1, 1, 1, 1), (30, 7, 5, 8)]


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-30))


@pytest.fixture
def rng():
    return np.random.default_rng(29)


def _graph(rng, num_nodes, num_significant, slim, dtype="float64"):
    """Adjacency, index set (``None`` for a dense support) and (N, 1) scale."""
    if slim:
        index_set = rng.choice(num_nodes, size=num_significant, replace=False)
        adjacency = rng.random((num_nodes, num_significant))
    else:
        index_set = None
        adjacency = rng.random((num_nodes, num_nodes))
    scale = 1.0 / (adjacency.sum(axis=-1, keepdims=True) + 1.0)
    return adjacency.astype(dtype), index_set, scale.astype(dtype)


def _autograd_hop(adjacency, previous_fm, index_set, scale):
    """One Eq. 9 diffusion hop on batch-major Tensors, fed and returned feature-major."""
    previous = Tensor(np.ascontiguousarray(previous_fm.transpose(1, 2, 0)))
    gathered = previous if index_set is None else previous[:, index_set, :]
    with no_grad():
        state = (Tensor(adjacency).matmul(gathered) + previous) * Tensor(scale)
    return state.data.transpose(2, 0, 1)


def _kernel_hop(adjacency, previous_fm, index_set, scale):
    """The serving kernel's hop: gather node columns, then the ``Aᵀ`` gemm."""
    gathered = previous_fm if index_set is None else np.take(previous_fm, index_set, axis=-1)
    out = np.empty_like(previous_fm)
    _diffusion_aggregate_(np.ascontiguousarray(adjacency.T), gathered, previous_fm,
                          scale.reshape(-1), out)
    return out


class TestDiffusionAggregate:
    @pytest.mark.parametrize("slim", [True, False], ids=["slim", "dense"])
    @pytest.mark.parametrize("shape", AGGREGATE_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_step_matches_autograd_hop(self, rng, shape, slim):
        num_nodes, num_significant, batch, channels = shape
        adjacency, index_set, scale = _graph(rng, num_nodes, num_significant, slim)
        previous = rng.normal(size=(channels, batch, num_nodes))
        out = _kernel_hop(adjacency, previous, index_set, scale)
        expected = _autograd_hop(adjacency, previous, index_set, scale)
        assert _max_rel(out, expected) <= F64_REL

    @pytest.mark.parametrize("shape", AGGREGATE_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_writes_next_block_of_a_stack(self, rng, shape):
        """Hop blocks of a layer stack are contiguous row ranges: the gemm
        writes block j+1 in place, with the same result as a fresh target
        and without touching block j or the trailing ones row."""
        num_nodes, num_significant, batch, channels = shape
        adjacency, index_set, scale = _graph(rng, num_nodes, num_significant, True)
        stack = rng.normal(size=(2 * channels + 1, batch, num_nodes))
        stack[-1] = 1.0
        before = stack.copy()
        previous = stack[:channels]
        _diffusion_aggregate_(np.ascontiguousarray(adjacency.T),
                              np.take(previous, index_set, axis=-1), previous,
                              scale.reshape(-1), stack[channels : 2 * channels])
        fresh = _kernel_hop(adjacency, before[:channels], index_set, scale)
        assert np.array_equal(stack[channels : 2 * channels], fresh)
        assert np.array_equal(stack[:channels], before[:channels])
        assert np.array_equal(stack[-1], before[-1])

    @pytest.mark.parametrize("slim", [True, False], ids=["slim", "dense"])
    def test_input_and_hidden_share_one_hop(self, rng, slim):
        """The input rows are diffused with the hidden rows by one gemm; each
        part of the joint hop is the autograd hop of that part alone."""
        num_nodes, num_significant, batch, input_dim, hidden = 13, 5, 3, 2, 4
        adjacency, index_set, scale = _graph(rng, num_nodes, num_significant, slim)
        block = rng.normal(size=(input_dim + hidden, batch, num_nodes))
        joint = _kernel_hop(adjacency, block, index_set, scale)
        for rows in (slice(0, input_dim), slice(input_dim, None)):
            expected = _autograd_hop(adjacency, block[rows], index_set, scale)
            assert _max_rel(joint[rows], expected) <= F64_REL

    def test_float32_states_stay_float32(self, rng):
        adjacency, index_set, scale = _graph(rng, 12, 5, True, dtype="float32")
        previous = rng.normal(size=(4, 3, 12)).astype(np.float32)
        out = _kernel_hop(adjacency, previous, index_set, scale)
        assert out.dtype == np.float32
        expected = _autograd_hop(adjacency.astype(np.float64), previous.astype(np.float64),
                                 index_set, scale.astype(np.float64))
        assert _max_rel(out, expected) <= F32_REL


class TestFusedGruGates:
    @pytest.mark.parametrize("spread", [0.5, 8.0, 200.0])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_tensor_sigmoid(self, rng, dtype, spread):
        """Saturated inputs included: the kernel drops the reference's upper
        clamp at +60, which is invisible at either precision."""
        pre = (rng.normal(size=(7, 3, 10)) * spread).astype(dtype)
        expected = Tensor(pre.copy(), dtype=dtype).sigmoid().data
        gates = pre.copy()
        _fused_gru_gates_(gates)
        assert gates.dtype == np.dtype(dtype)
        np.testing.assert_allclose(gates, expected, rtol=REL[dtype], atol=0.0)

    def test_large_negative_inputs_do_not_overflow(self):
        gates = np.array([-1e4, -61.0, -60.0, 0.0, 1e4])
        with np.errstate(over="raise"):
            _fused_gru_gates_(gates)
        assert np.all(np.isfinite(gates))
        assert gates[0] == gates[1] == gates[2] > 0.0
        assert gates[3] == 0.5
        assert gates[4] == 1.0

    def test_writes_in_place(self, rng):
        gates = rng.normal(size=(4, 2, 6))
        view = gates[..., :3]
        expected = Tensor(view.copy()).sigmoid().data
        assert _fused_gru_gates_(view) is None
        np.testing.assert_allclose(gates[..., :3], expected, rtol=F64_REL, atol=0.0)


class TestFusedGruUpdate:
    @pytest.mark.parametrize("shape", [(4, 2, 3), (11, 5, 8)],
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_autograd_blend(self, rng, dtype, shape):
        hidden = rng.normal(size=shape).astype(dtype)
        update = rng.random(shape).astype(dtype)
        candidate = (rng.normal(size=shape) * 3.0).astype(dtype)
        h, u, c = (Tensor(a.copy(), dtype=dtype) for a in (hidden, update, candidate))
        expected = (u * h + (1.0 - u) * c.tanh()).data
        _fused_gru_update_(hidden, update, candidate, np.empty_like(hidden), hidden)
        assert hidden.dtype == np.dtype(dtype)
        np.testing.assert_allclose(hidden, expected, rtol=REL[dtype], atol=1e-300)

    @pytest.mark.parametrize("gate", [0.0, 1.0])
    def test_saturated_update_gate(self, rng, gate):
        """u = 1 keeps the hidden state; u = 0 replaces it by tanh(candidate)."""
        hidden = rng.normal(size=(5, 2, 4))
        candidate = rng.normal(size=(5, 2, 4))
        kept, activated = hidden.copy(), np.tanh(candidate)
        _fused_gru_update_(hidden, np.full_like(hidden, gate), candidate,
                           np.empty_like(hidden), hidden)
        assert np.array_equal(hidden, kept if gate == 1.0 else activated)


class TestStackWithBias:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_one_gemm_equals_hop_sum_plus_bias(self, rng, hops):
        rows, width, out = 12, 3, 5
        blocks = [rng.normal(size=(width, out)) for _ in range(hops)]
        bias = rng.normal(size=out)
        states = [rng.normal(size=(rows, width)) for _ in range(hops)]
        stacked = _stack_with_bias(blocks, bias)
        assert stacked.shape == (hops * width + 1, out)
        assert stacked.flags["C_CONTIGUOUS"]
        applied = np.concatenate(states + [np.ones((rows, 1))], axis=1) @ stacked
        expected = sum(s @ w for s, w in zip(states, blocks)) + bias
        assert _max_rel(applied, expected) <= F64_REL


class TestTilePlanning:
    @pytest.mark.parametrize(
        "heads,num_significant,hidden,itemsize",
        [(1, 1, 1, 8), (4, 64, 32, 8), (8, 2000, 64, 4), (2, 10**6, 128, 8)],
    )
    def test_tile_rows_fill_but_never_exceed_the_budget(self, heads, num_significant,
                                                        hidden, itemsize):
        row_bytes = heads * num_significant * hidden * itemsize
        rows = _tile_rows(heads, num_significant, hidden, itemsize)
        assert rows >= 1
        if row_bytes <= _TILE_BYTES:
            assert rows * row_bytes <= _TILE_BYTES < (rows + 1) * row_bytes
        else:
            assert rows == 1  # one row always fits, whatever the budget

    def test_perf_config_tile_fits_a_quarter_of_l2(self):
        # P=8 heads, M=40, h=32, float32: 40 KiB rows, 12 to a 512 KiB tile.
        assert _TILE_BYTES == 512 * 1024
        assert _tile_rows(8, 40, 32, 4) == 12


def _scoring_inputs(rng, num_nodes=14, num_significant=5):
    attention = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=3, ffn_hidden=5,
                                                seed=2)
    embeddings = rng.normal(size=(num_nodes, 6))
    neighbours = embeddings[rng.choice(num_nodes, size=num_significant, replace=False)]
    weights = [attention.head_w1, attention.head_b1, attention.head_w2, attention.head_b2]
    return embeddings, neighbours, weights


def _dense_pair_scores(embeddings, neighbours, weights):
    """``relu(E W1_node + E_I W1_neigh + b1) W2 + b2`` over the full pair grid."""
    w1, b1, w2, b2 = (w.data for w in weights)
    dim = embeddings.shape[1]
    node = np.einsum("nd,pdh->pnh", embeddings, w1[:, :dim])
    neigh = np.einsum("md,pdh->pmh", neighbours, w1[:, dim:])
    hidden = np.maximum(node[:, :, None, :] + neigh[:, None, :, :] + b1[:, None, None, :], 0.0)
    return np.einsum("pnmh,pho->pnmo", hidden, w2) + b2[:, None, None, :]


# One scratch row of the fixture grid is 3 heads × 5 neighbours × 5 hidden × 8 bytes.
_ROW_BYTES = 3 * 5 * 5 * 8


class TestTiledPairScores:
    @pytest.mark.parametrize("tile_bytes", [1, _ROW_BYTES, 4 * _ROW_BYTES, _TILE_BYTES],
                             ids=["one-row-floor", "one-row", "four-rows", "default"])
    def test_tile_size_does_not_change_scores(self, rng, tile_bytes):
        embeddings, neighbours, weights = _scoring_inputs(rng)
        with no_grad():
            raw = _batched_pair_scores(Tensor(embeddings), Tensor(neighbours), *weights,
                                       tile_bytes=tile_bytes).data
        assert raw.shape == (3, 2, 14, 5)
        expected = _dense_pair_scores(embeddings, neighbours, weights).transpose(0, 3, 1, 2)
        assert _max_rel(raw, expected) <= F64_REL

    @pytest.mark.parametrize("tile_bytes", [1, 3 * _ROW_BYTES, _TILE_BYTES],
                             ids=["one-row", "three-rows", "default"])
    def test_gradients_match_autograd_reference(self, rng, tile_bytes):
        """The backward recomputes each tile's activations and relu mask; it
        must give the gradients autograd derives for the dense expression."""
        embeddings, neighbours, weights = _scoring_inputs(rng)
        upstream = Tensor(rng.normal(size=(3, 14, 5, 2)).transpose(0, 3, 1, 2))

        def grads(score):
            e = Tensor(embeddings, requires_grad=True)
            e_i = Tensor(neighbours, requires_grad=True)
            for w in weights:
                w.grad = None
            (score(e, e_i) * upstream).sum().backward()
            return [e.grad.copy(), e_i.grad.copy()] + [w.grad.copy() for w in weights]

        def dense(e, e_i):
            w1, b1, w2, b2 = weights
            heads, _, hidden = w1.shape
            dim = e.shape[1]
            node = e.matmul(w1[:, :dim, :]).reshape(heads, 14, 1, hidden)
            neigh = e_i.matmul(w1[:, dim:, :]).reshape(heads, 1, 5, hidden)
            act = (node + neigh + b1.reshape(heads, 1, 1, hidden)).relu()
            raw = act.reshape(heads, 14 * 5, hidden).matmul(w2) + b2.reshape(heads, 1, 2)
            return raw.reshape(heads, 14, 5, 2).transpose(0, 3, 1, 2)

        tiled = grads(lambda e, e_i: _batched_pair_scores(e, e_i, *weights,
                                                          tile_bytes=tile_bytes))
        for got, want in zip(tiled, grads(dense)):
            assert _max_rel(got, want) <= F64_REL


def _tiny_model(**overrides):
    config = dict(num_nodes=10, history=3, horizon=2, num_significant=4, top_k=3,
                  hidden_size=6, num_heads=2, ffn_hidden=4, seed=0)
    config.update(overrides)
    model = SAGDFN(SAGDFNConfig(**config))
    model.refresh_graph(10**6)
    return model


class TestKnobValidation:
    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: SAGDFNConfig(num_nodes=10, chunk_size=0), "chunk_size must be >= 1"),
            (lambda: SAGDFNConfig(num_nodes=10, memory_budget_mb=-1.0),
             "memory_budget_mb must be positive"),
            (lambda: SignificantNeighborsSampling(10, 4, 3, memory_budget_mb=-0.5),
             "memory_budget_mb must be positive"),
            (lambda: SparseSpatialMultiHeadAttention(embedding_dim=4, chunk_size=-2),
             "chunk_size must be >= 1"),
        ],
        ids=["config-chunk", "config-budget", "sampler-budget", "attention-chunk"],
    )
    def test_invalid_knob_fails_at_construction(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"chunk_size": 0}, "chunk_size must be >= 1"),
            ({"chunk_size": -3}, "chunk_size must be >= 1"),
            ({"memory_budget_mb": 0.0}, "memory_budget_mb must be positive"),
            ({"memory_budget_mb": -1.0}, "memory_budget_mb must be positive"),
            ({"chunk_size": -1, "memory_budget_mb": 4.0}, "chunk_size must be >= 1"),
        ],
        ids=["chunk-zero", "chunk-negative", "budget-zero", "budget-negative",
             "chunk-negative-with-budget"],
    )
    def test_service_rejects_invalid_override(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ForecastService(_tiny_model(), **overrides)

    def test_invalid_override_leaves_model_untouched(self):
        model = _tiny_model(chunk_size=4, memory_budget_mb=2.0)
        with pytest.raises(ValueError):
            ForecastService(model, chunk_size=3, memory_budget_mb=-1.0)
        for module in (model.sampler, model.attention):
            assert module.chunk_size == 4
            assert module.memory_budget_mb == 2.0


class TestFromCheckpointKnobs:
    @pytest.mark.parametrize("knob,value", [("chunk_size", 3), ("memory_budget_mb", 8.0)])
    def test_override_reaches_sampler_and_attention(self, tmp_path, knob, value):
        path = save_bundle(_tiny_model(), tmp_path / "bundle")
        service = ForecastService.from_checkpoint(path, **{knob: value})
        assert getattr(service.model.sampler, knob) == value
        assert getattr(service.model.attention, knob) == value


class TestServedForecastParity:
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("diffusion_steps", [1, 2, 3])
    def test_kernel_matches_module_forward(self, rng, diffusion_steps, batch,
                                           autograd_forecast):
        model = _tiny_model(diffusion_steps=diffusion_steps)
        service = ForecastService(model)
        x = rng.normal(size=(batch, 3, 10, 2))
        assert _max_rel(service.predict(x), autograd_forecast(service, x)) <= F64_REL

    def test_checkpoint_service_matches_module_forward(self, tmp_path, rng,
                                                        autograd_forecast):
        path = save_bundle(_tiny_model(seed=3), tmp_path / "bundle")
        service = ForecastService.from_checkpoint(path)
        x = rng.normal(size=(2, 3, 10, 2))
        assert _max_rel(service.predict(x), autograd_forecast(service, x)) <= F64_REL
