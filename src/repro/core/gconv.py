"""Fast graph convolution and the OneStepFastGConv GRU cell (Eq. 9–10).

:class:`FastGraphConv` implements the diffusion convolution

.. math::

    W \\star_{A_s} X = \\sum_{j=0}^{J-1} W_j
        \\left[(D + I)^{-1}(A_s X_I + X)\\right]^{j}

over either the slim ``(N, M)`` adjacency (SAGDFN) or a dense ``(N, N)``
support (the "w/o SNS & SSMA" ablation and predefined-graph baselines).
:class:`OneStepFastGConvCell` replaces every matrix multiplication of a GRU
cell with this operator, yielding the recurrent unit of Eq. 10.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, concat
from repro.utils.seed import spawn_rng


def as_index_array(index_set: np.ndarray | None) -> np.ndarray | None:
    """Coerce an index set to ``int64`` once (no-op for int64 arrays).

    Hot loops call this at their entry point and pass the result down, so
    the conversion is not redone per hop / per gate / per time step.
    """
    if index_set is None:
        return None
    return np.asarray(index_set, dtype=np.int64)


class FastGraphConv(Module):
    """Diffusion graph convolution with learnable per-hop projections.

    Parameters
    ----------
    input_dim / output_dim:
        Feature widths before and after the convolution.
    diffusion_steps:
        ``J`` — number of terms in the diffusion sum (hop 0 is the identity).
    """

    def __init__(self, input_dim: int, output_dim: int, diffusion_steps: int = 2,
                 seed: int | None = 0, node_chunk_size: int | None = None):
        super().__init__()
        if diffusion_steps < 1:
            raise ValueError("diffusion_steps must be >= 1")
        if node_chunk_size is not None and node_chunk_size < 1:
            raise ValueError("node_chunk_size must be >= 1 (or None)")
        self.node_chunk_size = node_chunk_size
        rng = spawn_rng(seed)
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.diffusion_steps = diffusion_steps
        self.hop_weights = [
            Parameter(init.xavier_uniform((input_dim, output_dim), rng), name=f"hop_{j}")
            for j in range(diffusion_steps)
        ]
        self.bias = Parameter(np.zeros(output_dim), name="bias")

    # ------------------------------------------------------------------ #
    # Diffusion states (weight-independent part of the convolution)
    # ------------------------------------------------------------------ #
    def diffusion_states(
        self,
        x: Tensor,
        adjacency: Tensor,
        index_set: np.ndarray | None = None,
        degree_scale: Tensor | None = None,
    ) -> list[Tensor]:
        """The ``J`` diffusion states ``[(D+I)^{-1}(A_s X_I + X)]^j X``.

        The states depend only on the graph (adjacency / index set / degree
        scale) and the signal ``x`` — not on this layer's weights — so one
        state computation can feed several weight applications (the reset
        and update gates of :class:`OneStepFastGConvCell`).

        Honors ``node_chunk_size`` exactly like :meth:`forward`.
        """
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"expected last dimension {self.input_dim}, got {x.shape}")
        if degree_scale is not None:
            scale = degree_scale
        else:
            # (D + I)^{-1}, differentiable so the slim adjacency also receives
            # gradients through the degree normalisation (Eq. 9).
            scale = 1.0 / (adjacency.sum(axis=-1, keepdims=True) + 1.0)

        index_set = as_index_array(index_set)
        num_nodes = x.shape[-2]
        chunk = self.node_chunk_size
        states = [x]
        current = x
        for _ in range(1, self.diffusion_steps):
            if index_set is not None:
                gathered = current[..., index_set, :]
            else:
                gathered = current
            if chunk is not None and chunk < num_nodes:
                current = concat(
                    [
                        (adjacency[start : start + chunk].matmul(gathered)
                         + current[..., start : start + chunk, :])
                        * scale[start : start + chunk]
                        for start in range(0, num_nodes, chunk)
                    ],
                    axis=-2,
                )
            else:
                current = (adjacency.matmul(gathered) + current) * scale
            states.append(current)
        return states

    def apply_states(self, states: list[Tensor], columns: slice | None = None) -> Tensor:
        """Project precomputed diffusion states: ``Σ_j states[j] W_j + b``.

        ``columns`` restricts the projection to a block of output columns
        (``W_j[:, columns]``, ``b[columns]``).
        """
        weights = self.hop_weights
        bias = self.bias
        if columns is not None:
            weights = [weight[:, columns] for weight in weights]
            bias = bias[columns]
        output = states[0].matmul(weights[0])
        for state, weight in zip(states[1:], weights[1:]):
            output = output + state.matmul(weight)
        return output + bias

    def forward(
        self,
        x: Tensor,
        adjacency: Tensor,
        index_set: np.ndarray | None = None,
        degree_scale: Tensor | None = None,
    ) -> Tensor:
        """Apply the convolution to ``x`` of shape ``(..., N, input_dim)``.

        When ``index_set`` is given, ``adjacency`` must be the slim ``(N, M)``
        matrix and the aggregation gathers only the significant neighbours
        (cost ``O(N·M)``); otherwise ``adjacency`` is a dense ``(N, N)``
        support and the aggregation is the classical ``A X`` (cost ``O(N²)``).

        ``degree_scale`` optionally supplies a precomputed ``(D + I)^{-1}``
        column of shape ``(N, 1)``; frozen-graph inference passes it so the
        degree normalisation is not rederived from the adjacency on every
        request.

        With ``node_chunk_size`` set, the per-hop aggregation is evaluated
        over node-row blocks — each output row depends only on its own
        adjacency row and the (small) gathered neighbour block, so the
        blocked aggregation matches the full matmul to BLAS summation-order
        precision (≈1 ulp; bitwise identity is only guaranteed for the SNS
        and attention paths) while its transient buffers stay ``O(chunk)``
        along the node axis.
        """
        return self.apply_states(
            self.diffusion_states(x, adjacency, index_set, degree_scale)
        )


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
        node_chunk_size: int | None = None,
    ):
        super().__init__()
        base = 0 if seed is None else seed
        combined = input_dim + hidden_dim
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim
        self.gates = FastGraphConv(combined, 2 * hidden_dim, diffusion_steps, seed=base,
                                   node_chunk_size=node_chunk_size)
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
        self.candidate = FastGraphConv(combined, hidden_dim, diffusion_steps, seed=base + 2,
                                       node_chunk_size=node_chunk_size)
        rng = spawn_rng(base + 3)
        self.projection = Parameter(
            init.xavier_uniform((hidden_dim, output_dim), rng), name="projection"
        )

    # ------------------------------------------------------------------ #
    # Recurrence
    # ------------------------------------------------------------------ #
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
        """One recurrence step (Eq. 10); returns ``(new_hidden, prediction)``.

        Both gates read one diffusion of ``concat([x, hidden])``; the
        candidate diffuses ``concat([x, reset · hidden])``.
        """
        index_set = as_index_array(index_set)
        hidden_dim = self.hidden_dim
        states = self.gates.diffusion_states(
            concat([x, hidden], axis=-1), adjacency, index_set, degree_scale
        )
        # Slice the small weights, not the (B, N, 2H) gates: a sliced tensor's
        # backward scatters into a full-size zero array.
        reset = self.gates.apply_states(states, slice(0, hidden_dim)).sigmoid()
        update = self.gates.apply_states(states, slice(hidden_dim, None)).sigmoid()
        candidate = self.candidate(
            concat([x, reset * hidden], axis=-1), adjacency, index_set, degree_scale
        ).tanh()
        new_hidden = update * hidden + (1.0 - update) * candidate
        return new_hidden, new_hidden.matmul(self.projection)
