"""Sparse Spatial Multi-Head Attention (Section IV-B, Eq. 1–6).

Given the node embedding matrix ``E ∈ R^{N×d}`` and the significant-neighbour
index set ``I`` (|I| = M), the module scores every (node, significant
neighbour) pair with ``P`` independent feed-forward networks, normalises each
head's scores with α-entmax along the neighbour axis to enforce sparsity, and
mixes the heads with a linear map ``W_a`` into the slim dense adjacency
``A_s ∈ R^{N×M}`` consumed by the fast graph convolution.

Implementation notes (the large-graph hot path)
-----------------------------------------------
Each head's FFN scores the pair ``[e_i ‖ e_j] ∈ R^{2d}``.  The module holds
the ``P`` scoring FFNs as *stacked* weight tensors (``head_w1 ∈ R^{P×2d×h}``,
``head_b1``, ``head_w2``, ``head_b2``) and exploits the linearity of the
first layer over the concatenation:

.. math::

    W_1^T [e_i ‖ e_j] = W_{1,\\text{node}}^T e_i + W_{1,\\text{neigh}}^T e_j

so the first-layer cost drops from ``O(N·M·2d·h)`` to ``O((N+M)·d·h)`` per
head and no ``(N, M, 2d)`` tensor is ever materialised.  All heads are scored
by two batched matmuls and normalised by a single α-entmax call.

The remaining cost is the ``(P, N, M, h)`` hidden activation; at N = 10000 it
would be gigabytes.  :func:`_batched_pair_scores` therefore tiles the node
axis (flash-attention style): each tile's hidden activations live in a
cache-sized scratch buffer and only the ``(P, 2, N, M)`` raw scores are ever
materialised.  The backward pass recomputes each tile's activations instead
of storing them, trading a second cheap pass for an ``O(N·M·h)`` → ``O(N·M)``
reduction in autograd memory.  The scores are neighbour-last, so α-entmax runs
over contiguous rows, and plane ``2p + c`` of their ``(2P, N, M)`` view — row
``2p + c`` of the mixer weight ``W_a`` — is channel ``c`` of head ``p``: the
head mixer is a weighted sum of planes, with no interleaving copy.

On top of the scratch tiling, the ``chunk_size`` / ``memory_budget_mb``
knobs (threaded from :class:`~repro.core.config.SAGDFNConfig`) enable the
**node-tiled scoring mode**: the whole scoring pipeline — raw scores,
α-entmax normalisation and head mixing — runs one node block at a time and
the per-block slim-adjacency rows are concatenated.  Every stage is
row-independent along the node axis, so the tiled output is bit-identical to
the single-pass one at any block size; under ``no_grad`` (frozen-graph
serving, the scaling benchmark) peak memory is ``O(chunk·M)`` scratch plus
the ``(N, M)`` result itself.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Linear, init
from repro.nn.module import Module, Parameter
from repro.sparse import alpha_entmax
from repro.tensor import Tensor, concat
from repro.utils.seed import spawn_rng

# Scratch-buffer budget of the tiled scoring kernel: tiles are sized so one
# (P, tile, M, h) hidden-activation block stays around this many bytes, a
# quarter of a 2 MiB per-core L2 (12 rows at P=8, M=40, h=32, float32), so
# the add/bias/relu/matmul chain and its operands stay in L2 instead of
# streaming a (P, N, M, h) tensor through main memory several times.  The
# constant also defines the *canonical tile grid*: BLAS reductions are not
# bit-stable across call shapes, so the chunked and unchunked paths stay
# byte-identical only because both make the exact same per-tile kernel
# calls — node blocks are always rounded up to multiples of this grid, and
# the grid itself never depends on the chunking knobs.
_TILE_BYTES = 512 * 1024


def _tile_rows(heads: int, num_significant: int, hidden: int, itemsize: int,
               tile_bytes: int = _TILE_BYTES) -> int:
    """Rows per canonical scoring tile (one (P, tile, M, h) scratch block)."""
    return max(1, int(tile_bytes // max(1, heads * num_significant * hidden * itemsize)))


def _batched_pair_scores(
    embeddings: Tensor,
    neighbour_embeddings: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    tile_bytes: int = _TILE_BYTES,
) -> Tensor:
    """Raw pair scores ``(P, out, N, M)`` of all ``P`` scoring FFNs at once.

    Computes ``relu(E W1_node + E_I W1_neigh + b1) W2 + b2`` for every
    (node, neighbour) pair without materialising either the ``(N, M, 2d)``
    pair tensor or the full ``(P, N, M, h)`` hidden activation: the node axis
    is processed in cache-sized tiles, and the backward pass recomputes each
    tile's activations rather than keeping them alive in the graph.  The
    first-layer node projection is evaluated per tile as well, so every BLAS
    call has the same shape no matter how many rows the caller passes — the
    property the node-tiled scoring mode's bit-identity rests on.  Each tile
    writes its ``(P, out, tile·M)`` slab of the neighbour-last output.
    """
    num_nodes, dim = embeddings.shape
    num_significant = neighbour_embeddings.shape[0]
    heads, _, hidden = w1.shape
    out = w2.shape[-1]

    e = embeddings.data
    e_i = neighbour_embeddings.data
    w1_node, w1_neigh = w1.data[:, :dim, :], w1.data[:, dim:, :]
    dtype = np.result_type(e.dtype, w1.data.dtype)

    # (P, 1, M·h): added to every node row of a tile in one flat pass.
    neigh_part = (np.matmul(e_i, w1_neigh) + b1.data[:, None, :]).reshape(heads, 1, -1)

    tile = min(num_nodes, _tile_rows(heads, num_significant, hidden, dtype.itemsize,
                                     tile_bytes))

    def _tiles():
        """Recompute relu(node + neigh) tile by tile as ``(P, tile·M, h)`` rows."""
        buffer = np.empty((heads, tile, num_significant, hidden), dtype=dtype)
        for start in range(0, num_nodes, tile):
            stop = min(start + tile, num_nodes)
            pre = buffer[:, : stop - start]
            pre[...] = np.matmul(e[start:stop], w1_node)[:, :, None, :]
            flat = pre.reshape(heads, stop - start, -1)
            flat += neigh_part
            np.maximum(flat, 0.0, out=flat)
            yield start, stop, pre.reshape(heads, -1, hidden)

    raw = np.empty((heads, out, num_nodes, num_significant), dtype=dtype)
    for start, stop, pre in _tiles():
        # pre @ W2 plus a transposing copy: the direct W2ᵀ @ preᵀ gemm
        # (m = out = 2) runs ~3x slower in OpenBLAS.
        raw[:, :, start:stop].reshape(heads, out, -1)[...] = np.swapaxes(
            np.matmul(pre, w2.data), -1, -2
        )
    raw += b2.data[:, :, None, None]

    def backward(grad):
        grad = np.ascontiguousarray(grad, dtype=dtype)
        grad_w2 = np.zeros_like(w2.data)
        grad_node = np.empty((heads, num_nodes, hidden), dtype=dtype)
        grad_neigh_pre = np.zeros((heads, num_significant, hidden), dtype=dtype)
        w2_t = np.ascontiguousarray(np.swapaxes(w2.data, -1, -2))
        ones = np.ones(num_significant, dtype=dtype)
        for start, stop, pre in _tiles():
            grad_tile = np.swapaxes(grad[:, :, start:stop].reshape(heads, out, -1), -1, -2)
            grad_w2 += np.matmul(np.swapaxes(pre, -1, -2), grad_tile)
            grad_pre = np.matmul(grad_tile, w2_t)
            grad_pre *= pre > 0.0  # relu mask from the recomputed activations
            grad_pre = grad_pre.reshape(heads, stop - start, num_significant, hidden)
            np.matmul(ones, grad_pre, out=grad_node[:, start:stop])  # sum over M
            grad_neigh_pre += grad_pre.sum(axis=1)

        grad_e = np.matmul(grad_node, np.swapaxes(w1_node, -1, -2)).sum(axis=0)
        grad_e_i = np.matmul(grad_neigh_pre, np.swapaxes(w1_neigh, -1, -2)).sum(axis=0)
        grad_w1 = np.concatenate(
            [np.matmul(e.T, grad_node), np.matmul(e_i.T, grad_neigh_pre)], axis=1
        )
        grad_b1 = grad_neigh_pre.sum(axis=1)
        grad_b2 = grad.sum(axis=(2, 3))
        return grad_e, grad_e_i, grad_w1, grad_b1, grad_w2, grad_b2

    return Tensor._make(
        raw, (embeddings, neighbour_embeddings, w1, b1, w2, b2), backward
    )


def _mix_heads(normalised: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Eq. 5–6: ``Σ_c W_a[c] · A_c + b`` over the planes ``A_c`` of ``(P·out, n, M)``.

    One elementwise pass per plane, in a fixed order: unlike a BLAS call, no
    entry's rounding depends on the block size.
    """
    planes = normalised.data.reshape(weight.shape[0], -1)  # (2P, n·M) view
    w = weight.data[:, 0]
    mixed = sum(w[c] * planes[c] for c in range(len(w))) + bias.data

    def backward(grad):
        grad = grad.reshape(-1)
        grad_planes = np.multiply.outer(w, grad).reshape(normalised.shape)
        return grad_planes, (planes @ grad)[:, None], grad.sum(keepdims=True)

    return Tensor._make(mixed.reshape(normalised.shape[2:]), (normalised, weight, bias), backward)


class SparseSpatialMultiHeadAttention(Module):
    """Learn the slim dense adjacency matrix ``A_s`` from node embeddings.

    Parameters
    ----------
    embedding_dim:
        ``d`` — width of each node embedding.
    num_heads:
        ``P`` — number of pair-wise scoring feed-forward networks.
    ffn_hidden:
        Hidden width of each scoring FFN.
    alpha:
        α of the α-entmax normaliser; ``normalizer="softmax"`` forces α = 1
        regardless (the "w/o Entmax" ablation).
    use_pairwise_attention:
        When ``False`` the slim adjacency is the normalised inner product
        ``E E_Iᵀ`` (the "w/o Attention" ablation).
    chunk_size:
        Node-block size of the tiled scoring mode (``None`` = single pass
        with cache-heuristic scratch tiles).
    memory_budget_mb:
        Scratch budget (MiB) the node block is derived from when
        ``chunk_size`` is not given.
    """

    _HEAD_OUT = 2  # each scoring FFN emits 2 channels per (node, neighbour) pair

    def __init__(
        self,
        embedding_dim: int,
        num_heads: int = 8,
        ffn_hidden: int = 32,
        alpha: float = 1.5,
        normalizer: str = "entmax",
        use_pairwise_attention: bool = True,
        seed: int | None = 0,
        chunk_size: int | None = None,
        memory_budget_mb: float | None = None,
    ):
        super().__init__()
        if num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        if normalizer not in {"entmax", "softmax"}:
            raise ValueError("normalizer must be 'entmax' or 'softmax'")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None)")
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ValueError("memory_budget_mb must be positive (or None)")
        self.chunk_size = chunk_size
        self.memory_budget_mb = memory_budget_mb
        base = 0 if seed is None else seed
        self.embedding_dim = embedding_dim
        self.num_heads = num_heads
        self.ffn_hidden = ffn_hidden
        self.alpha = 1.0 if normalizer == "softmax" else alpha
        self.use_pairwise_attention = use_pairwise_attention
        # Canonical scoring-tile budget; a constant (never knob-derived) so
        # the tile grid — and therefore every BLAS call shape — is the same
        # in the chunked and unchunked modes.  Tests may shrink it to
        # exercise multi-tile paths on small graphs.
        self._tile_bytes = _TILE_BYTES
        # Stacked scoring FFNs.  Head p draws its first layer from seed
        # ``base + 10p`` and its second from ``base + 10p + 1``; the golden
        # pins rest on these draws.
        out = self._HEAD_OUT
        w1 = np.stack(
            [
                init.xavier_uniform((2 * embedding_dim, ffn_hidden), spawn_rng(base + 10 * p))
                for p in range(num_heads)
            ]
        )
        w2 = np.stack(
            [
                init.xavier_uniform((ffn_hidden, out), spawn_rng(base + 10 * p + 1))
                for p in range(num_heads)
            ]
        )
        self.head_w1 = Parameter(w1, name="head_w1")  # (P, 2d, h)
        self.head_b1 = Parameter(init.zeros((num_heads, ffn_hidden)), name="head_b1")
        self.head_w2 = Parameter(w2, name="head_w2")  # (P, h, 2)
        self.head_b2 = Parameter(init.zeros((num_heads, out)), name="head_b2")
        self.mixer = Linear(out * num_heads, 1, seed=base + 997)

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #
    # Rough per-node-row scratch cost of one scoring block, in units of
    # ``heads * num_significant * itemsize`` bytes: the raw and normalised
    # 2-channel scores, the α-entmax solver's sort/cumsum buffers and the
    # mixer's gradient planes, budgeted as sixteen 2-channel copies.
    _ROW_COST_CHANNELS = 32

    def _node_block(self, num_nodes: int, num_significant: int, itemsize: int) -> int | None:
        """Node-block size of the tiled scoring mode (``None`` = single pass).

        The requested block (explicit ``chunk_size``, or derived from
        ``memory_budget_mb``) is rounded **up** to a multiple of the canonical
        scoring-tile grid: BLAS kernels are only bit-stable across identical
        call shapes, so blocks must tile the node axis exactly the way the
        single-pass kernel does for the outputs to stay byte-identical.
        """
        if self.chunk_size is not None:
            requested = int(self.chunk_size)
        elif self.memory_budget_mb is not None:
            row_bytes = (
                self.num_heads * num_significant * self._ROW_COST_CHANNELS * itemsize
            )
            requested = int(self.memory_budget_mb * 2**20 // max(1, row_bytes))
        else:
            return None
        grid = _tile_rows(self.num_heads, num_significant, self.ffn_hidden, itemsize,
                          self._tile_bytes)
        block = max(1, (max(1, requested) + grid - 1) // grid) * grid
        return None if block >= num_nodes else block

    def _score_block(self, node_embeddings: Tensor, neighbour_embeddings: Tensor) -> Tensor:
        """Slim-adjacency rows ``(n_block, M)`` for one block of node embeddings.

        The block must start on a canonical-grid boundary: the fused scoring
        kernel then issues the same per-tile BLAS calls as the single-pass
        forward, and the α-entmax and head mixer that follow are row-local,
        which is what makes the tiled mode bit-identical.
        """
        # Eq. 1–2: all P scoring FFNs in one tiled, batched kernel.
        raw = _batched_pair_scores(
            node_embeddings,
            neighbour_embeddings,
            self.head_w1,
            self.head_b1,
            self.head_w2,
            self.head_b2,
            tile_bytes=self._tile_bytes,
        )  # (P, 2, n_block, M)
        # Eq. 3–4: sparsify along the contiguous neighbour axis, all heads in
        # one call.
        normalised = alpha_entmax(raw, alpha=self.alpha, axis=-1)
        # Eq. 5–6: mix the heads into one correlation strength per pair.
        return _mix_heads(normalised, self.mixer.weight, self.mixer.bias)

    def forward(self, embeddings: Tensor, index_set: np.ndarray) -> Tensor:
        """Return the slim adjacency ``A_s`` of shape ``(N, M)``.

        ``embeddings`` is the differentiable node embedding matrix ``E``;
        gradients flow back into it through the attention scores, which is
        how the index set and adjacency keep improving during training
        (Algorithm 2, lines 5–7).

        With ``chunk_size`` / ``memory_budget_mb`` set, the scoring pipeline
        runs in the node-tiled mode: every stage is row-independent along the
        node axis, so the concatenated block outputs are bit-identical to the
        single-pass result at any block size.
        """
        index_set = np.asarray(index_set, dtype=np.int64)
        num_nodes = embeddings.shape[0]
        num_significant = index_set.shape[0]
        neighbour_embeddings = embeddings[index_set]  # (M, d)

        if not self.use_pairwise_attention:
            scores = embeddings.matmul(neighbour_embeddings.transpose())  # (N, M)
            return alpha_entmax(scores, alpha=self.alpha, axis=-1)

        itemsize = np.result_type(embeddings.data.dtype, self.head_w1.data.dtype).itemsize
        block = self._node_block(num_nodes, num_significant, itemsize)
        if block is None:
            return self._score_block(embeddings, neighbour_embeddings)
        return concat(
            [
                self._score_block(embeddings[start : min(start + block, num_nodes)],
                                  neighbour_embeddings)
                for start in range(0, num_nodes, block)
            ],
            axis=0,
        )
