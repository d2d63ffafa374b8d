"""The OneStepFastGConv cell (Eq. 9–10) as one autograd op per step.

:class:`FastGraphConv` holds the per-hop weights ``W_j`` and bias of one
diffusion convolution

.. math::

    W \\star_{A_s} X = \\sum_{j=0}^{J-1} W_j
        \\left[(D + I)^{-1}(A_s X_I + X)\\right]^{j}

over either the slim ``(N, M)`` adjacency (SAGDFN) or a dense ``(N, N)``
support (the "w/o SNS & SSMA" ablation and predefined-graph baselines).
:class:`OneStepFastGConvCell` replaces every matrix multiplication of a GRU
cell with this operator, yielding the recurrent unit of Eq. 10.

One cell step, :func:`_cell_step_`, works on **feature-major** ``(C, B, N)``
arrays (channels first, nodes fastest), so every elementwise op is one
contiguous pass.  The cell's stack ``(J·(C+H) + 1, B, N)`` has the row
blocks ``[x_0, h_0, x_1, h_1, …, 1]``, the row order of ``gates.hop_weights``.
A diffusion hop gathers the ``M`` neighbour columns of block ``j`` and one
``(C, M) @ Aᵀ`` gemm writes block ``j+1`` (then ``+= block_j``,
``*= (D + I)^{-1}``), diffusing ``x`` and ``h`` together.  A ``(3H, K)``
gemm over the stack yields reset, update and the candidate's input side (the
ones row folds in every bias; the candidate's weights are zero under the
``h`` rows), and an ``(H, J·H)`` gemm over the diffused ``r ⊙ h`` stack
adds the candidate's hidden side.  Each gemm runs one BLAS call per window,
so a batch costs ``B`` batch-1 gemms whatever the BLAS threading: one
``(·, B·N)`` gemm let OpenBLAS split small gemms across cores, which slowed
the elementwise passes that read their rows.

Training records a step as one graph node (:func:`_cell_step_op`) that keeps
only the gates.  Its hand-written backward rebuilds both diffused stacks from
its parents ``x`` and ``hidden`` with the forward's own calls (so gradients do
not change by a bit), then returns the gradients of ``x``, ``hidden``, the
adjacency (through ``(D + I)^{-1}`` too, unless a precomputed scale is
passed) and every weight.  An encoder–decoder forward builds one
:class:`_Graph` (``Aᵀ`` and the scale) for all of its steps.  The serving
kernel (:mod:`repro.core.serving_kernel`) runs the same step without a tape.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.utils.seed import spawn_rng


def as_index_array(index_set: np.ndarray | None) -> np.ndarray | None:
    """Coerce an index set to ``int64`` once (no-op for int64 arrays).

    Hot loops call this at their entry point and pass the result down, so
    the conversion is not redone per hop / per gate / per time step.
    """
    if index_set is None:
        return None
    return np.asarray(index_set, dtype=np.int64)


def _stack_with_bias(hop_blocks: list[np.ndarray], bias: np.ndarray) -> np.ndarray:
    """Stack per-hop weight blocks over a bias row: one gemm over ``[s_0 | … | 1]``."""
    return np.ascontiguousarray(np.concatenate(hop_blocks + [bias[None, :]], axis=0))


def _diffusion_aggregate_(adjacency_t, gathered, previous, scale, out) -> None:
    """One raw in-place diffusion hop over feature-major ndarray states.

    ``out = (gathered @ adjacency_t + previous) * scale`` where ``gathered``
    is the ``(C, B, M)`` neighbour gather of ``previous`` (``previous``
    itself for a dense support), ``adjacency_t`` the transposed ``(M, N)``
    adjacency, ``previous`` / ``out`` contiguous ``(C, B, N)`` arrays and
    ``scale`` the ``(N,)`` degree normalisation.  The gemm runs per window.
    """
    np.matmul(gathered.transpose(1, 0, 2), adjacency_t, out=out.transpose(1, 0, 2))
    out += previous
    out *= scale


def _fused_gru_gates_(gates: np.ndarray) -> None:
    """In-place ``1 / (1 + exp(-max(x, -60)))``; the bound prevents ``exp`` overflow."""
    np.maximum(gates, -60.0, out=gates)
    np.negative(gates, out=gates)
    np.exp(gates, out=gates)
    gates += 1.0
    np.reciprocal(gates, out=gates)


def _fused_gru_update_(hidden: np.ndarray, update: np.ndarray, candidate: np.ndarray,
                       scratch: np.ndarray, out: np.ndarray) -> None:
    """Blend ``out = u·hidden + (1-u)·tanh(candidate)``; ``out`` may be ``hidden``.

    ``candidate`` holds the pre-activation on entry and ``tanh`` of it on
    exit; ``scratch`` is a same-shaped scratch buffer.
    """
    np.tanh(candidate, out=candidate)
    np.subtract(1.0, update, out=scratch)
    scratch *= candidate
    np.multiply(hidden, update, out=out)
    out += scratch


class _Graph:
    """``(N, M)`` adjacency (dense ``(N, N)`` without an index set) and ``(N,)`` scale."""

    __slots__ = ("adjacency", "adjacency_t", "index_set", "scale")

    def __init__(self, adjacency: np.ndarray, index_set: np.ndarray | None,
                 scale: np.ndarray) -> None:
        self.adjacency = adjacency
        self.adjacency_t = np.ascontiguousarray(adjacency.T)
        self.index_set = index_set
        self.scale = scale

    def _gather(self, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.index_set is None:
            return state
        return np.take(state, self.index_set, axis=-1, out=out)

    def diffuse_(self, stack: np.ndarray, width: int, hops: int,
                 gather: np.ndarray | None = None) -> None:
        """Fill hop blocks ``1 … J-1`` of ``stack`` (``width`` rows each) from block 0:
        ``s_j = (A · gather(s_{j-1}) + s_{j-1}) * scale`` (``gather``: optional buffer)."""
        for j in range(1, hops):
            previous = stack[(j - 1) * width : j * width]
            gathered = self._gather(previous, None if gather is None else gather[:width])
            _diffusion_aggregate_(self.adjacency_t, gathered, previous, self.scale,
                                  stack[j * width : (j + 1) * width])

    def diffuse_backward_(self, stack: np.ndarray, grad: np.ndarray, width: int,
                          hops: int, grad_adjacency: np.ndarray | None) -> np.ndarray:
        """Back-propagate :meth:`diffuse_` in place: ``grad`` ends as block 0's gradient.

        ``grad_adjacency`` (``None`` skips it) accumulates the adjacency's
        gradient at a fixed scale.  Returns ``∂L/∂scale · scale`` per node.
        """
        num_nodes = stack.shape[-1]
        scale_grad = np.zeros(num_nodes, dtype=grad.dtype)
        for j in range(hops - 1, 0, -1):
            grad_j = grad[j * width : (j + 1) * width].reshape(-1, num_nodes)
            state = stack[j * width : (j + 1) * width].reshape(-1, num_nodes)
            scale_grad += np.einsum("rn,rn->n", grad_j, state)
            grad_pre = grad_j * self.scale  # gradient of A·gather(s) + s
            previous = stack[(j - 1) * width : j * width]
            grad_previous = grad[(j - 1) * width : j * width]
            grad_previous += grad_pre.reshape(grad_previous.shape)
            grad_gathered = grad_pre @ self.adjacency
            if self.index_set is None:
                grad_previous += grad_gathered.reshape(grad_previous.shape)
            else:
                # 2-3x faster than np.bincount over row·N + column keys
                # (N = 2000, M = 40, 64-72 rows).
                np.add.at(grad_previous.reshape(-1, num_nodes),
                          (slice(None), self.index_set), grad_gathered)
            if grad_adjacency is not None:
                gathered = self._gather(previous).reshape(grad_pre.shape[0], -1)
                grad_adjacency += grad_pre.T @ gathered
        return scale_grad


def _step_graph(adjacency: Tensor, index_set: np.ndarray | None,
                degree_scale: Tensor | None) -> _Graph:
    """The :class:`_Graph` of a forward: ``degree_scale`` or ``1 / (rowsum + 1)``."""
    data = adjacency.data
    if degree_scale is None:
        scale = 1.0 / (data.sum(axis=-1) + 1.0)
    else:
        scale = degree_scale.data.reshape(-1)
    return _Graph(data, as_index_array(index_set), scale)


class _CellWeights:
    """One cell's weights for the two gemms of :func:`_cell_step_`.

    ``gates`` is ``(3H, J·K + 1)``: reset and update rows, then the
    candidate's input side (zero under the ``h`` rows), bias last.
    ``cand_h`` is ``(H, J·H)`` over the ``r ⊙ h`` stack and ``projection``
    the ``(P, H)`` prediction head.
    """

    __slots__ = ("input_dim", "hidden_dim", "hops", "gates", "cand_h", "projection")

    def __init__(self, cell: "OneStepFastGConvCell") -> None:
        in_dim = cell.input_dim
        self.input_dim = in_dim
        self.hidden_dim = cell.hidden_dim
        self.hops = cell.gates.diffusion_steps
        gates = _stack_with_bias([w.data for w in cell.gates.hop_weights],
                                 cell.gates.bias.data)
        cand_x = _stack_with_bias(
            [np.concatenate([w.data[:in_dim], np.zeros_like(w.data[in_dim:])])
             for w in cell.candidate.hop_weights],
            cell.candidate.bias.data,
        )
        self.gates = np.ascontiguousarray(np.concatenate([gates, cand_x], axis=1).T)
        self.cand_h = np.ascontiguousarray(
            np.concatenate([w.data[in_dim:] for w in cell.candidate.hop_weights]).T
        )
        self.projection = np.ascontiguousarray(cell.projection.data.T)


def _cell_step_(weights: _CellWeights, graph: _Graph, stack: np.ndarray,
                r_stack: np.ndarray, gates: np.ndarray, out: np.ndarray,
                scratch: np.ndarray, gather: np.ndarray | None = None) -> None:
    """One Eq. 10 step; ``stack[:C+H]`` holds ``[x; h]`` and ``stack[-1]`` ones.

    Fills the stack's hops, ``gates`` (reset, update, ``tanh`` candidate),
    ``r_stack`` (diffused ``r ⊙ h``) and ``out`` (the new hidden state; it
    may be the stack's ``h`` rows).  ``scratch`` is ``(H, B, N)``.
    """
    h = weights.hidden_dim
    width = weights.input_dim + h
    hidden = stack[weights.input_dim : width]
    graph.diffuse_(stack, width, weights.hops, gather)
    # transpose(1, 0, 2): one gemm per window (module docstring).
    np.matmul(weights.gates, stack.transpose(1, 0, 2), out=gates.transpose(1, 0, 2))
    _fused_gru_gates_(gates[: 2 * h])
    np.multiply(gates[:h], hidden, out=r_stack[:h])
    graph.diffuse_(r_stack, h, weights.hops, gather)
    np.matmul(weights.cand_h, r_stack.transpose(1, 0, 2), out=scratch.transpose(1, 0, 2))
    candidate = gates[2 * h :]
    candidate += scratch
    _fused_gru_update_(hidden, gates[h : 2 * h], candidate, scratch, out)


def _cell_step_op(cell: "OneStepFastGConvCell", x: Tensor, hidden: Tensor,
                  adjacency: Tensor, graph: _Graph, degree_scale: Tensor | None) -> Tensor:
    """The new hidden state ``(B, N, H)`` of one Eq. 10 step, as one graph node.

    ``graph`` is :func:`_step_graph` of ``adjacency``, ``index_set`` and
    ``degree_scale``.  Parents: ``x``, ``hidden``, ``adjacency``,
    ``degree_scale`` (if given) and the cell's gate and candidate hops and
    biases.  The node keeps the gates; its backward rebuilds the stacks.
    """
    weights = _CellWeights(cell)
    in_dim, h, hops = weights.input_dim, weights.hidden_dim, weights.hops
    width = in_dim + h
    batch, num_nodes = x.shape[0], x.shape[1]
    dtype = np.result_type(x.data, hidden.data, adjacency.data, weights.gates)

    def input_stack():
        """``[x; h; …; 1]`` with the hop blocks unfilled."""
        stack = np.empty((hops * width + 1, batch, num_nodes), dtype)
        stack[:in_dim] = x.data.transpose(2, 0, 1)
        stack[in_dim:width] = hidden.data.transpose(2, 0, 1)
        stack[-1] = 1.0
        return stack

    gates = np.empty((3 * h, batch, num_nodes), dtype)
    out = np.empty((h, batch, num_nodes), dtype)
    _cell_step_(weights, graph, input_stack(), np.empty((hops * h, batch, num_nodes), dtype),
                gates, out, np.empty_like(out))

    gate_params = [*cell.gates.hop_weights, cell.gates.bias]
    cand_params = [*cell.candidate.hop_weights, cell.candidate.bias]
    parents = [x, hidden, adjacency] + ([] if degree_scale is None else [degree_scale])

    def backward(grad):
        reset, update, candidate = gates[:h], gates[h : 2 * h], gates[2 * h :]
        # The forward's stacks, rebuilt by the same calls (bitwise equal).
        stack = input_stack()
        graph.diffuse_(stack, width, hops)
        old_hidden = stack[in_dim:width]
        r_stack = np.empty((hops * h, batch, num_nodes), dtype)
        np.multiply(reset, old_hidden, out=r_stack[:h])
        graph.diffuse_(r_stack, h, hops)

        # Feature-major; a copy only when the gradient arrives batch-major.
        grad_out = np.ascontiguousarray(grad.transpose(2, 0, 1))
        grad_gates = np.empty_like(gates)
        grad_hidden = grad_out * update
        # Pre-activations: candidate g (1 - u)(1 - c²), update g (h - c) u (1 - u).
        grad_cand = grad_gates[2 * h :]
        np.subtract(grad_out, grad_hidden, out=grad_cand)
        grad_cand *= 1.0 - candidate * candidate
        grad_update = grad_gates[h : 2 * h]
        np.subtract(old_hidden, candidate, out=grad_update)
        grad_update *= grad_hidden
        grad_update *= 1.0 - update

        grad_adjacency = np.zeros_like(graph.adjacency) if adjacency.requires_grad else None
        # Unlike the forward, one (·, B·N) gemm each: per-window backward gemms
        # were no faster at N = 2000 on one BLAS thread and slower on two.
        flat = batch * num_nodes
        grad_cand_flat = grad_cand.reshape(h, flat)
        grad_r_stack = (weights.cand_h.T @ grad_cand_flat).reshape(r_stack.shape)
        scale_grad = graph.diffuse_backward_(r_stack, grad_r_stack, h, hops,
                                             grad_adjacency)
        grad_product = grad_r_stack[:h]  # gradient of r ⊙ h
        grad_hidden += grad_product * reset
        grad_reset = grad_gates[:h]  # g_rh · h · r (1 - r)
        np.multiply(grad_product, old_hidden, out=grad_reset)
        grad_reset *= reset * (1.0 - reset)

        grad_gates_flat = grad_gates.reshape(3 * h, flat)
        grad_stack = (weights.gates[:, :-1].T @ grad_gates_flat).reshape(
            hops * width, batch, num_nodes)
        scale_grad += graph.diffuse_backward_(stack, grad_stack, width, hops,
                                              grad_adjacency)
        grad_hidden += grad_stack[in_dim:width]

        grad_scale = None
        if degree_scale is None:
            if grad_adjacency is not None:  # through scale = 1 / (rowsum + 1)
                grad_adjacency -= (scale_grad * graph.scale)[:, None]
        else:
            grad_scale = (scale_grad / graph.scale).reshape(degree_scale.shape)

        grad_weights = grad_gates_flat @ stack.reshape(len(stack), flat).T
        grad_cand_h = grad_cand_flat @ r_stack.reshape(hops * h, flat).T
        gate_grads = [grad_weights[: 2 * h, j * width : (j + 1) * width].T
                      for j in range(hops)] + [grad_weights[: 2 * h, -1]]
        cand_grads = [
            np.concatenate([grad_weights[2 * h :, j * width : j * width + in_dim].T,
                            grad_cand_h[:, j * h : (j + 1) * h].T])
            for j in range(hops)
        ] + [grad_weights[2 * h :, -1]]
        inputs = [grad_stack[:in_dim].transpose(1, 2, 0), grad_hidden.transpose(1, 2, 0),
                  grad_adjacency] + ([] if grad_scale is None else [grad_scale])
        return inputs + gate_grads + cand_grads

    return Tensor._make(out.transpose(1, 2, 0), parents + gate_params + cand_params,
                        backward)


class FastGraphConv(Module):
    """The weights of one Eq. 9 convolution: ``hop_weights[j]`` and ``bias``.

    ``diffusion_steps`` is ``J``, the number of terms of the diffusion sum
    (hop 0 is the identity).  :class:`OneStepFastGConvCell` applies them.
    """

    def __init__(self, input_dim: int, output_dim: int, diffusion_steps: int = 2,
                 seed: int | None = 0):
        super().__init__()
        if diffusion_steps < 1:
            raise ValueError("diffusion_steps must be >= 1")
        rng = spawn_rng(seed)
        self.diffusion_steps = diffusion_steps
        self.hop_weights = [
            Parameter(init.xavier_uniform((input_dim, output_dim), rng), name=f"hop_{j}")
            for j in range(diffusion_steps)
        ]
        self.bias = Parameter(np.zeros(output_dim), name="bias")


class OneStepFastGConvCell(Module):
    """GRU cell whose gate transformations are fast graph convolutions (Eq. 10).

    The cell operates on node-feature tensors of shape
    ``(batch, N, channels)`` and a hidden state of shape
    ``(batch, N, hidden)``; it also produces the one-step-ahead prediction
    ``X̂_t = H_t W_x`` used by the decoder.

    Parameterisation
    ----------------
    ``self.gates`` holds the reset *and* update gates as one
    :class:`FastGraphConv` over the concatenated ``[x, hidden]`` input with
    ``2·hidden`` output columns (reset in ``[:hidden]``, update in
    ``[hidden:]``) — the two gates consume the same input, so they share a
    single diffusion-state computation.  ``self.candidate`` diffuses
    ``[x, reset · hidden]``.  Each gate hop weight draws its reset columns
    from seed ``seed`` and its update columns from ``seed + 1``; the golden
    pins rest on these draws.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        output_dim: int = 1,
        diffusion_steps: int = 2,
        seed: int | None = 0,
    ):
        super().__init__()
        base = 0 if seed is None else seed
        combined = input_dim + hidden_dim
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim
        self.gates = FastGraphConv(combined, 2 * hidden_dim, diffusion_steps, seed=base)
        # Re-draw the gate weights per gate: reset columns from seed ``base``,
        # update columns from ``base + 1`` (see the class docstring).
        rng_reset = spawn_rng(base)
        rng_update = spawn_rng(base + 1)
        for hop in self.gates.hop_weights:
            fused = np.concatenate(
                [
                    init.xavier_uniform((combined, hidden_dim), rng_reset),
                    init.xavier_uniform((combined, hidden_dim), rng_update),
                ],
                axis=1,
            )
            hop.data = fused.astype(hop.data.dtype, copy=False)
        self.candidate = FastGraphConv(combined, hidden_dim, diffusion_steps, seed=base + 2)
        rng = spawn_rng(base + 3)
        self.projection = Parameter(
            init.xavier_uniform((hidden_dim, output_dim), rng), name="projection"
        )

    def initial_state(self, batch_size: int, num_nodes: int) -> Tensor:
        """Zero hidden state of shape ``(batch, N, hidden)``, in the cell's dtype."""
        dtype = self.projection.dtype
        return Tensor(
            np.zeros((batch_size, num_nodes, self.hidden_dim), dtype=dtype), dtype=dtype
        )

    def forward(
        self,
        x: Tensor,
        hidden: Tensor,
        adjacency: Tensor,
        index_set: np.ndarray | None = None,
        degree_scale: Tensor | None = None,
    ) -> tuple[Tensor, Tensor]:
        """One step (Eq. 10) of ``x`` ``(B, N, C)``; returns ``(new_hidden, prediction)``.

        ``adjacency`` is the slim ``(N, M)`` matrix over ``index_set``, or a
        dense ``(N, N)`` support without one.  ``degree_scale`` optionally
        supplies ``(D + I)^{-1}`` ``(N, 1)``; otherwise it is derived from
        ``adjacency``, whose gradient then flows through it too.
        """
        return self._step(x, hidden, adjacency, _step_graph(adjacency, index_set, degree_scale),
                          degree_scale)

    def _step(self, x: Tensor, hidden: Tensor, adjacency: Tensor, graph: _Graph,
              degree_scale: Tensor | None) -> tuple[Tensor, Tensor]:
        """:meth:`forward` over a prebuilt :func:`_step_graph` (one per encoder–decoder forward)."""
        if x.ndim != 3 or x.shape[-1] != self.input_dim:
            raise ValueError(f"expected x of shape (batch, nodes, {self.input_dim}), "
                             f"got {x.shape}")
        new_hidden = _cell_step_op(self, x, hidden, adjacency, graph, degree_scale)
        return new_hidden, new_hidden.matmul(self.projection)
