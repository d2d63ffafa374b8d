"""The SAGDFN recurrence (Eq. 9–10) against an independent NumPy oracle.

One cell-step function, :func:`repro.core.gconv._cell_step_`, runs the
encoder–decoder recurrence for both of its callers:

* ``SAGDFNEncoderDecoder.forward`` — each
  :class:`~repro.core.gconv.OneStepFastGConvCell` step is one autograd node
  with a hand-written backward (training, evaluation, and the reference the
  kernel is checked against);
* :class:`~repro.core.serving_kernel.FrozenRecurrenceKernel` — the same step
  without a tape, on the preallocated workspaces behind ``ForecastService``.

Both are checked against ``_oracle_cell_step`` / ``_oracle_forecast`` below,
a plain-NumPy transcription of Eq. 9–10 that reads only the cells' hop
weights, and the op's gradients against finite differences.  The paths only
reorder BLAS reductions, so in float64 they agree to ≤ 1e-10 relative;
float32 gets a correspondingly looser envelope.
"""

import numpy as np
import pytest

from repro.core import SAGDFN, SAGDFNConfig, OneStepFastGConvCell
from repro.core.encoder_decoder import SAGDFNEncoderDecoder
from repro.core.serving_kernel import FrozenRecurrenceKernel
from repro.data.scalers import StandardScaler
from repro.serve import ForecastService
from repro.tensor import Tensor, check_gradients, concat, default_dtype, no_grad

F64_REL = 1e-10
F32_REL = 5e-5


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-30))


def _model(num_layers=1, chunk_size=None, seed=0, teacher_forcing=0.0,
           diffusion_steps=2, dense=False):
    config = SAGDFNConfig(
        num_nodes=22, history=4, horizon=3, num_significant=6, top_k=4,
        hidden_size=8, num_heads=2, ffn_hidden=6, seed=seed,
        num_layers=num_layers, chunk_size=chunk_size,
        teacher_forcing=teacher_forcing, diffusion_steps=diffusion_steps,
        use_predefined_graph=dense,
    )
    predefined = np.random.default_rng(seed).random((22, 22)) if dense else None
    model = SAGDFN(config, predefined_adjacency=predefined)
    model.refresh_graph(10**6)  # past convergence: frozen index set
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------------- #
# NumPy oracle of Eq. 9–10
# ---------------------------------------------------------------------- #
def _oracle_graph_conv(x, adjacency, index_set, weights, bias):
    """Eq. 9: ``Σ_j S^j(x) W_j + b`` with ``S(x) = (D + I)^{-1}(A x_I + x)``.

    ``index_set=None`` means ``adjacency`` is a dense ``(N, N)`` support.
    """
    scale = 1.0 / (adjacency.sum(axis=-1, keepdims=True) + 1.0)
    state = x
    output = state @ weights[0]
    for weight in weights[1:]:
        neighbours = state if index_set is None else state[..., index_set, :]
        state = (adjacency @ neighbours + state) * scale
        output = output + state @ weight
    return output + bias


def _oracle_cell_step(cell, x, hidden, adjacency, index_set):
    """Eq. 10, one GRU step whose matmuls are the graph convolution of Eq. 9.

    r = σ(Θ_r ⋆ [X, H] + b_r),  u = σ(Θ_u ⋆ [X, H] + b_u),
    C = tanh(Θ_C ⋆ [X, r ⊙ H] + b_C),  H' = u ⊙ H + (1 − u) ⊙ C,
    and the one-step prediction X̂ = H' W_x.  The reset and update gates
    are the first and second ``hidden``-wide column blocks of ``cell.gates``.
    """
    width = hidden.shape[-1]
    gate_weights = [w.data.astype(np.float64) for w in cell.gates.hop_weights]
    gate_bias = cell.gates.bias.data.astype(np.float64)
    cand_weights = [w.data.astype(np.float64) for w in cell.candidate.hop_weights]
    cand_bias = cell.candidate.bias.data.astype(np.float64)

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    joint = np.concatenate([x, hidden], axis=-1)
    reset = sigmoid(_oracle_graph_conv(
        joint, adjacency, index_set, [w[:, :width] for w in gate_weights], gate_bias[:width]
    ))
    update = sigmoid(_oracle_graph_conv(
        joint, adjacency, index_set, [w[:, width:] for w in gate_weights], gate_bias[width:]
    ))
    candidate = np.tanh(_oracle_graph_conv(
        np.concatenate([x, reset * hidden], axis=-1), adjacency, index_set,
        cand_weights, cand_bias,
    ))
    new_hidden = update * hidden + (1.0 - update) * candidate
    return new_hidden, new_hidden @ cell.projection.data.astype(np.float64)


def _oracle_forecast(forecaster, history, adjacency, index_set, targets=None):
    """Algorithm 2, lines 8–12: encode ``history``, then decode ``horizon`` steps.

    The decoder starts from the last observation's target channels and feeds
    back its own prediction, or ``targets[:, step]`` when given (teacher
    forcing on every step).
    """
    batch, steps, num_nodes, _ = history.shape
    hiddens = [np.zeros((batch, num_nodes, forecaster.hidden_dim))
               for _ in forecaster.encoder_cells]

    def step_through(cells, x):
        for layer, cell in enumerate(cells):
            hiddens[layer], prediction = _oracle_cell_step(
                cell, x, hiddens[layer], adjacency, index_set
            )
            x = hiddens[layer]
        return prediction

    for t in range(steps):
        step_through(forecaster.encoder_cells, history[:, t])
    decoder_input = history[:, -1, :, : forecaster.output_dim]
    predictions = []
    for step in range(forecaster.horizon):
        prediction = step_through(forecaster.decoder_cells, decoder_input)
        predictions.append(prediction)
        decoder_input = prediction if targets is None else targets[:, step]
    return np.stack(predictions, axis=1)


def _model_graph(model):
    """The model's current ``(adjacency, index_set)`` as plain arrays."""
    index_set = None if model.config.use_predefined_graph else model.index_set
    return model.slim_adjacency().data.astype(np.float64), index_set


def _cell_graph(rng, num_nodes, dense):
    if dense:
        return rng.random((num_nodes, num_nodes)), None
    return rng.random((num_nodes, 3)), np.array([0, 4, 7])


class TestRecurrenceOracle:
    @pytest.mark.parametrize("diffusion_steps", [1, 2, 3])
    @pytest.mark.parametrize("dense", [False, True], ids=["slim", "dense"])
    def test_cell_matches_oracle(self, rng, dense, diffusion_steps):
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=5,
                                    diffusion_steps=diffusion_steps, seed=1)
        x = rng.normal(size=(2, 9, 2))
        hidden = rng.normal(size=(2, 9, 5))
        adjacency, index_set = _cell_graph(rng, 9, dense)
        new_hidden, prediction = cell(Tensor(x), Tensor(hidden), Tensor(adjacency), index_set)
        want_hidden, want_prediction = _oracle_cell_step(cell, x, hidden, adjacency, index_set)
        assert _max_rel(new_hidden.data, want_hidden) <= F64_REL
        assert _max_rel(prediction.data, want_prediction) <= F64_REL

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("diffusion_steps", [1, 2, 3])
    @pytest.mark.parametrize("dense", [False, True], ids=["slim", "dense"])
    def test_model_matches_oracle(self, rng, dense, diffusion_steps, num_layers):
        model = _model(num_layers=num_layers, diffusion_steps=diffusion_steps, dense=dense)
        model.eval()
        x = rng.normal(size=(3, 4, 22, 2))
        with no_grad():
            forecast = model(Tensor(x)).data
        adjacency, index_set = _model_graph(model)
        expected = _oracle_forecast(model.forecaster, x, adjacency, index_set)
        assert _max_rel(forecast, expected) <= F64_REL

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_float32_model_matches_oracle(self, rng, num_layers):
        with default_dtype("float32"):
            model = _model(num_layers=num_layers)
            model.eval()
            x = rng.normal(size=(3, 4, 22, 2))
            with no_grad():
                forecast = model(Tensor(x)).data
            adjacency, index_set = _model_graph(model)
        assert forecast.dtype == np.float32
        expected = _oracle_forecast(model.forecaster, x, adjacency, index_set)
        assert _max_rel(forecast, expected) <= F32_REL

    def test_teacher_forcing_feeds_targets(self, rng):
        """With teacher_forcing=1 every decoder step consumes the ground truth."""
        model = _model(teacher_forcing=1.0)
        model.train()
        x = rng.normal(size=(2, 4, 22, 2))
        targets = rng.normal(size=(2, 3, 22, 1))
        forced = model(Tensor(x), targets=Tensor(targets)).data
        adjacency, index_set = _model_graph(model)
        expected = _oracle_forecast(model.forecaster, x, adjacency, index_set, targets)
        assert _max_rel(forced, expected) <= F64_REL
        free = _oracle_forecast(model.forecaster, x, adjacency, index_set)
        assert _max_rel(forced, free) > F64_REL

    @pytest.mark.parametrize("chunk_size", [None, 5])
    def test_node_chunked_matches_unchunked(self, rng, chunk_size):
        x = Tensor(rng.normal(size=(2, 4, 22, 2)))
        chunked = _model(chunk_size=chunk_size)
        plain = _model()
        for model in (chunked, plain):
            model.eval()
        with no_grad():
            assert _max_rel(chunked(x).data, plain(x).data) <= F64_REL

    @pytest.mark.parametrize("dense", [False, True], ids=["slim", "dense"])
    def test_cell_gradients_match_finite_differences(self, rng, dense):
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=3, diffusion_steps=3, seed=2)
        adjacency, index_set = _cell_graph(rng, 8, dense)
        x = Tensor(rng.normal(size=(2, 8, 2)), requires_grad=True)
        hidden = Tensor(rng.normal(size=(2, 8, 3)), requires_grad=True)
        adjacency = Tensor(adjacency, requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 8, 4)))

        def step(x, hidden, adjacency):
            new_hidden, prediction = cell(x, hidden, adjacency, index_set)
            return concat([new_hidden, prediction], axis=-1) * weights

        assert check_gradients(step, [x, hidden, adjacency])

    @pytest.mark.parametrize("diffusion_steps", [1, 2, 3])
    @pytest.mark.parametrize("dense", [False, True], ids=["slim", "dense"])
    def test_cell_op_gradients_cover_every_weight(self, rng, dense, diffusion_steps):
        """The hand-written backward against central differences for x,
        hidden, the adjacency (through (D + I)^{-1} too) and every weight:
        gate and candidate hops and biases, and the projection."""
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=3,
                                    diffusion_steps=diffusion_steps, seed=5)
        for bias in (cell.gates.bias, cell.candidate.bias):
            bias.data[:] = rng.normal(size=bias.shape)  # zero-initialised
        adjacency, index_set = _cell_graph(rng, 8, dense)
        x = Tensor(rng.normal(size=(2, 8, 2)), requires_grad=True)
        hidden = Tensor(rng.normal(size=(2, 8, 3)), requires_grad=True)
        adjacency = Tensor(adjacency, requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 8, 4)))
        parameters = list(cell.parameters())
        assert len(parameters) == 2 * diffusion_steps + 3

        def step(x, hidden, adjacency, *_):
            new_hidden, prediction = cell(x, hidden, adjacency, index_set)
            return concat([new_hidden, prediction], axis=-1) * weights

        assert check_gradients(step, [x, hidden, adjacency, *parameters])

    @pytest.mark.parametrize("dense", [False, True], ids=["slim", "dense"])
    def test_passed_degree_scale_gets_its_own_gradient(self, rng, dense):
        """With degree_scale passed, the adjacency's gradient skips the scale,
        and the scale receives its own."""
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=3, diffusion_steps=3, seed=6)
        adjacency, index_set = _cell_graph(rng, 8, dense)
        x = Tensor(rng.normal(size=(2, 8, 2)), requires_grad=True)
        hidden = Tensor(rng.normal(size=(2, 8, 3)), requires_grad=True)
        scale = Tensor(1.0 / (adjacency.sum(axis=-1, keepdims=True) + 1.0),
                       requires_grad=True)
        adjacency = Tensor(adjacency, requires_grad=True)

        def step(x, hidden, adjacency, scale):
            return cell(x, hidden, adjacency, index_set, degree_scale=scale)[0]

        assert check_gradients(step, [x, hidden, adjacency, scale])
        with_scale = adjacency.grad.copy()
        adjacency.zero_grad()
        cell(x, hidden, adjacency, index_set)[0].sum().backward()
        assert _max_rel(with_scale, adjacency.grad) > 1e-3

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_forward_builds_one_node_per_cell_step(self, rng, num_layers):
        """The graph of a forecaster forward: one node per cell step, one
        projection per decoder step, the history slices and the stack."""
        model = _model(num_layers=num_layers)
        forecaster = model.forecaster
        history = Tensor(rng.normal(size=(2, 4, 22, 2)), requires_grad=True)
        adjacency = Tensor(model.slim_adjacency().data, requires_grad=True)
        output = forecaster(history, adjacency, model.index_set)
        nodes, stack = set(), [output]
        while stack:
            node = stack.pop()
            if id(node) in nodes or node._backward is None:
                continue
            nodes.add(id(node))
            stack.extend(node._parents)
        steps = (4 + forecaster.horizon) * num_layers
        slices = 4 + 1  # history[:, t] and the decoder's first input
        assert len(nodes) == steps + forecaster.horizon + slices + 1

    @pytest.mark.parametrize("diffusion_steps", [1, 2, 3])
    @pytest.mark.parametrize("dense", [False, True], ids=["slim", "dense"])
    def test_cell_op_keeps_only_the_gates(self, rng, dense, diffusion_steps):
        """Beyond its parents' data, the backward closure holds one
        ``(·, B, N)`` array: the ``(3H, B, N)`` gates."""
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=3,
                                    diffusion_steps=diffusion_steps, seed=5)
        adjacency, index_set = _cell_graph(rng, 9, dense)
        x = Tensor(rng.normal(size=(2, 9, 2)), requires_grad=True)
        hidden = Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True)
        node, _ = cell(x, hidden, Tensor(adjacency, requires_grad=True), index_set)
        parents = node._parents
        arrays, seen, pending = [], set(), [node._backward]
        while pending:
            item = pending.pop()
            if id(item) in seen:
                continue
            seen.add(id(item))
            if isinstance(item, Tensor):
                assert any(item is parent for parent in parents)
            elif isinstance(item, np.ndarray):
                if not any(np.shares_memory(item, parent.data) for parent in parents):
                    arrays.append(item)
            elif callable(item) and hasattr(item, "__closure__"):
                pending.extend(c.cell_contents for c in item.__closure__ or ())
            elif isinstance(item, (list, tuple)):
                pending.extend(item)
            elif hasattr(item, "__slots__"):
                pending.extend(getattr(item, name) for name in item.__slots__)
        step_shaped = [a.shape for a in arrays if a.ndim == 3 and a.shape[1:] == (2, 9)]
        assert step_shaped == [(9, 2, 9)]

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_forward_builds_one_graph(self, rng, monkeypatch, num_layers):
        """One ``Aᵀ`` copy and degree scale per encoder–decoder forward."""
        from repro.core import gconv

        built = []
        init = gconv._Graph.__init__
        monkeypatch.setattr(gconv._Graph, "__init__",
                            lambda self, *args: built.append(1) or init(self, *args))
        model = _model(num_layers=num_layers)
        model.forecaster(Tensor(rng.normal(size=(2, 4, 22, 2))),
                         Tensor(model.slim_adjacency().data), model.index_set)
        assert len(built) == 1

    @pytest.mark.parametrize("diffusion_steps", [1, 2, 3])
    @pytest.mark.parametrize("dense", [False, True], ids=["slim", "dense"])
    def test_forecaster_gradients_match_finite_differences(self, rng, dense,
                                                           diffusion_steps):
        """Two layers under teacher forcing: history, targets, the adjacency
        and an upper-layer weight against central differences, and a second
        backward through the same graph gives the same gradients again."""
        forecaster = SAGDFNEncoderDecoder(input_dim=2, hidden_dim=3, horizon=2,
                                          diffusion_steps=diffusion_steps, num_layers=2,
                                          teacher_forcing=1.0, seed=3)
        forecaster.train()
        adjacency, index_set = _cell_graph(rng, 8, dense)
        history = Tensor(rng.normal(size=(2, 3, 8, 2)), requires_grad=True)
        targets = Tensor(rng.normal(size=(2, 2, 8, 1)), requires_grad=True)
        adjacency = Tensor(adjacency, requires_grad=True)
        weight = forecaster.encoder_cells[1].candidate.hop_weights[-1]
        mix = Tensor(rng.normal(size=(2, 2, 8, 1)))

        def forecast(history, targets, adjacency, _):
            return forecaster(history, adjacency, index_set, targets=targets) * mix

        inputs = [history, targets, adjacency, weight]
        assert check_gradients(forecast, inputs)

        for tensor in inputs:
            tensor.zero_grad()
        loss = forecast(*inputs).sum()
        loss.backward()
        first = [tensor.grad.copy() for tensor in inputs]
        for tensor in inputs:
            tensor.zero_grad()
        loss.backward()
        for tensor, grad in zip(inputs, first):
            assert np.array_equal(tensor.grad, grad)

    def test_wrong_input_width_raises(self, rng):
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=5, seed=1)
        adjacency, index_set = _cell_graph(rng, 9, dense=False)
        with pytest.raises(ValueError):
            cell(Tensor(rng.normal(size=(2, 9, 3))), Tensor(rng.normal(size=(2, 9, 5))),
                 Tensor(adjacency), index_set)

    def test_gradients_reach_every_live_parameter(self, rng):
        model = _model()
        model.train()
        x = Tensor(rng.normal(size=(2, 4, 22, 2)))
        model(x).sum().backward()
        # Encoder/lower-layer projections never feed the loss (their
        # predictions are discarded).
        dead = {"projection"}
        for name, parameter in model.forecaster.named_parameters():
            if name.split(".")[-1] in dead and "decoder_cells" not in name:
                continue
            assert parameter.grad is not None, name


class TestServingKernel:
    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_kernel_matches_module_forward(self, rng, num_layers, autograd_forecast):
        model = _model(num_layers=num_layers)
        service = ForecastService(model)
        x = rng.normal(size=(3, 4, 22, 2))
        kernel_out = service.predict(x)
        assert _max_rel(kernel_out, autograd_forecast(service, x)) <= F64_REL

    def test_kernel_matches_module_forward_float32(self, rng, autograd_forecast):
        with default_dtype("float32"):
            service = ForecastService(_model())
            x = rng.normal(size=(2, 4, 22, 2)).astype(np.float32)
            assert service.predict(x).dtype == np.float32
            assert _max_rel(service.predict(x), autograd_forecast(service, x)) <= F32_REL

    def test_dense_support_model_is_served_through_the_kernel(self, rng,
                                                            autograd_forecast):
        service = ForecastService(_model(dense=True))
        assert service.frozen.index_set is None
        assert service.frozen.adjacency.shape == (22, 22)
        x = rng.normal(size=(2, 4, 22, 2))
        assert _max_rel(service.predict(x), autograd_forecast(service, x)) <= F64_REL

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_unscaling_keeps_the_model_dtype(self, rng, dtype):
        """Predictions are un-scaled in the kernel's dtype, bit for bit what
        Tensor arithmetic on the kernel output gives."""
        scaler = StandardScaler().fit(np.abs(rng.normal(5.0, 2.0, size=(64, 22))))
        with default_dtype(dtype):
            service = ForecastService(_model(), scaler=scaler)
            x = rng.normal(size=(3, 4, 22, 2)).astype(dtype)
            raw = service._state.kernel(x)
            expected = (Tensor(raw) * scaler.std_ + scaler.mean_).data
            served = service.predict(x)
        assert served.dtype == expected.dtype == np.dtype(dtype)
        assert np.array_equal(served, expected)

    @pytest.mark.parametrize("batch", [2, 8])
    def test_kernel_workspace_reuse_is_deterministic(self, rng, batch):
        service = ForecastService(_model())
        x = rng.normal(size=(batch, 4, 22, 2))
        first = service.predict(x)
        second = service.predict(x)
        assert np.array_equal(first, second)
        # Batch 1 has its own workspace; every row of the batch forecast
        # must still be that row's batch-1 forecast.
        for row in range(batch):
            one = service.predict(x[row : row + 1])
            assert _max_rel(first[row : row + 1], one) <= F64_REL

    def test_kernel_output_is_not_aliased_to_workspace(self, rng):
        service = ForecastService(_model())
        x = rng.normal(size=(1, 4, 22, 2))
        first = service.predict(x)
        snapshot = first.copy()
        service.predict(rng.normal(size=(1, 4, 22, 2)))
        assert np.array_equal(first, snapshot)

    def test_kernel_dense_support_path(self, rng):
        forecaster = SAGDFNEncoderDecoder(input_dim=2, hidden_dim=6, horizon=3, seed=3)
        dense = np.abs(rng.random((10, 10)))
        scale = 1.0 / (dense.sum(axis=-1, keepdims=True) + 1.0)
        kernel = FrozenRecurrenceKernel(forecaster, dense, None, scale)
        x = rng.normal(size=(2, 4, 10, 2))
        forecaster.eval()
        with no_grad():
            module = forecaster(
                Tensor(x), Tensor(dense), None, degree_scale=Tensor(scale)
            ).data
        assert _max_rel(kernel(x), module) <= F64_REL

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_kernel_matches_module_forward_with_equal_widths(self, rng, num_layers):
        """input_dim == output_dim: encoder and decoder stacks have the same
        shape, and the decoder still starts from the encoder's hidden rows."""
        forecaster = SAGDFNEncoderDecoder(input_dim=1, hidden_dim=6, horizon=3,
                                          num_layers=num_layers, seed=4)
        adjacency = rng.random((10, 3))
        index_set = np.array([1, 4, 8])
        scale = 1.0 / (adjacency.sum(axis=-1, keepdims=True) + 1.0)
        kernel = FrozenRecurrenceKernel(forecaster, adjacency, index_set, scale)
        x = rng.normal(size=(2, 4, 10, 1))
        forecaster.eval()
        with no_grad():
            module = forecaster(
                Tensor(x), Tensor(adjacency), index_set, degree_scale=Tensor(scale)
            ).data
        assert _max_rel(kernel(x), module) <= F64_REL

    def test_kernel_empty_batch_matches_module_forward(self, rng, autograd_forecast):
        """An empty batch is the module path's empty forecast, shape and dtype;
        a history without time steps is refused with its shape named."""
        service = ForecastService(_model())
        kernel = service._state.kernel
        x = rng.normal(size=(0, 4, 22, 2))
        expected = autograd_forecast(service, x)
        empty = kernel(x)
        assert empty.shape == expected.shape == (0, 3, 22, 1)
        assert empty.dtype == expected.dtype
        with pytest.raises(ValueError, match=r"\(1, 0, 22, 2\)"):
            kernel(rng.normal(size=(1, 0, 22, 2)))

    def test_kernel_validates_shapes(self, rng):
        kernel = ForecastService(_model())._state.kernel
        with pytest.raises(ValueError):
            kernel(rng.normal(size=(4, 22, 2)))
        with pytest.raises(ValueError):
            kernel(rng.normal(size=(1, 4, 21, 2)))
        with pytest.raises(ValueError):
            kernel(rng.normal(size=(1, 4, 22, 3)))


class TestGateInitialisation:
    def test_gate_weights_use_per_gate_seeded_draws(self):
        """Reset columns come from seed ``seed``, update columns from ``seed + 1``."""
        from repro.nn import init
        from repro.utils.seed import spawn_rng

        cell = OneStepFastGConvCell(input_dim=3, hidden_dim=5, diffusion_steps=2, seed=9)
        combined = 8
        rng_reset, rng_update = spawn_rng(9), spawn_rng(10)
        for hop in cell.gates.hop_weights:
            expected = np.concatenate(
                [init.xavier_uniform((combined, 5), rng_reset),
                 init.xavier_uniform((combined, 5), rng_update)], axis=1
            )
            assert np.array_equal(hop.data, expected)


class TestMicroAllocationFixes:
    def test_initial_state_allocates_directly_in_cell_dtype(self):
        with default_dtype("float32"):
            cell = OneStepFastGConvCell(input_dim=2, hidden_dim=4)
            state = cell.initial_state(3, 7)
        assert state.dtype == np.float32
        assert state.shape == (3, 7, 4)
        assert not state.data.flags.writeable or state.data.sum() == 0.0

    def test_index_conversion_is_hoisted(self, rng):
        """A list index set is converted once per step, not per hop."""
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=3, diffusion_steps=4, seed=0)
        x = Tensor(rng.normal(size=(1, 8, 2)))
        hidden = Tensor(rng.normal(size=(1, 8, 3)))
        slim = Tensor(rng.random((8, 3)))
        as_list = [0, 3, 5]
        as_array = np.array(as_list, dtype=np.int64)
        for got, want in zip(cell(x, hidden, slim, as_list), cell(x, hidden, slim, as_array)):
            assert np.array_equal(got.data, want.data)


class TestKernelConcurrency:
    def test_concurrent_predicts_are_correct(self, rng):
        """The shared workspace is lock-protected: parallel callers must get
        the same answers as sequential ones."""
        import concurrent.futures

        service = ForecastService(_model())
        windows = [rng.normal(size=(2, 4, 22, 2)) for _ in range(8)]
        expected = [service.predict(w) for w in windows]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(service.predict, windows))
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    def test_workspace_cache_is_bounded(self, rng):
        from repro.core.serving_kernel import _MAX_WORKSPACES

        service = ForecastService(_model())
        for batch in range(1, _MAX_WORKSPACES + 4):
            service.predict(rng.normal(size=(batch, 4, 22, 2)))
        workspaces = service._state.kernel._workspaces
        assert len(workspaces) == _MAX_WORKSPACES
        # the most recent batch sizes survive and still serve correctly
        batch = _MAX_WORKSPACES + 3
        assert batch in workspaces
        out = service.predict(rng.normal(size=(1, 4, 22, 2)))  # evicted size: rebuilt
        assert out.shape == (1, 3, 22, 1)
