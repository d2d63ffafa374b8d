"""Significant Neighbors Sampling (Algorithm 1 of the paper).

The module maintains a fixed *candidate neighbours* matrix
``C ∈ {1..N}^{N×M}`` (each row lists ``M`` distinct candidate neighbours of a
node) and, given the current node embeddings ``E``, selects the ``M`` node
indices that are globally most significant:

1. rank every node's candidates by Euclidean distance in embedding space,
2. count how often each node id appears within the top-``K`` positions across
   all rows,
3. keep the ``K`` ids with the highest counts, and
4. fill the remaining ``M − K`` slots with nodes sampled uniformly from the
   rest to keep exploring until training converges (iteration ``r``).

Memory
------
The distance ranking (steps 1–2) is evaluated over **node blocks**: each
block gathers only ``(chunk, M, d)`` candidate embeddings, so peak memory is
``O(chunk·M·d)`` instead of the ``O(N·M·d)`` a full gather would cost at
``N ≈ 10⁴``.  The per-id vote counts are integers accumulated across blocks,
so the chunked ranking is bit-identical to the unchunked one for every block
size.  ``chunk_size`` pins the block size directly; ``memory_budget_mb``
derives it from a scratch budget; with neither, the full-``N`` single block
of the original implementation is used.
"""

from __future__ import annotations

import numpy as np

from repro.utils.seed import spawn_rng

# Bytes per candidate slot of the blocked distance ranking: the float64
# gathered embeddings, the difference buffer, the squared distances and a
# margin for the norm/argsort temporaries.
_RANKING_BYTES_PER_SLOT = 4 * 8


class SignificantNeighborsSampling:
    """Stateful implementation of Algorithm 1.

    Parameters
    ----------
    num_nodes:
        ``N``.
    num_significant:
        ``M`` — size of the returned index set (also the number of candidate
        neighbours per node).
    top_k:
        ``K`` — number of slots filled by the globally most frequent nodes;
        the remaining ``M − K`` slots are sampled randomly for exploration.
    seed:
        Seed of the candidate construction and of the exploration sampling.
    chunk_size:
        Node-block size of the distance ranking (``None`` = one full block).
    memory_budget_mb:
        Scratch budget (MiB) the ranking block size is derived from when
        ``chunk_size`` is not given.
    """

    def __init__(
        self,
        num_nodes: int,
        num_significant: int,
        top_k: int,
        seed: int | None = 0,
        chunk_size: int | None = None,
        memory_budget_mb: float | None = None,
    ):
        if num_significant > num_nodes:
            raise ValueError("num_significant cannot exceed num_nodes")
        if not 0 < top_k <= num_significant:
            raise ValueError("top_k must satisfy 0 < top_k <= num_significant")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None)")
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ValueError("memory_budget_mb must be positive (or None)")
        self.chunk_size = chunk_size
        self.memory_budget_mb = memory_budget_mb
        self.num_nodes = num_nodes
        self.num_significant = num_significant
        self.top_k = top_k
        self._seed = 0 if seed is None else seed
        self._rng = spawn_rng(seed)
        self.candidates = self._build_candidates()
        self._last_index_set: np.ndarray | None = None

    def _build_candidates(self) -> np.ndarray:
        """Randomly construct the candidate matrix ``C``.

        Each row holds ``M`` distinct node ids (excluding the row's own node
        whenever possible), so that across rows every node is considered
        roughly ``M`` times, as required by the paper.
        """
        n, m = self.num_nodes, self.num_significant
        candidates = np.empty((n, m), dtype=np.int64)
        for node in range(n):
            pool = np.delete(np.arange(n), node) if n > m else np.arange(n)
            candidates[node] = self._rng.choice(pool, size=m, replace=False)
        return candidates

    def _ranking_block(self, embedding_dim: int) -> int:
        """Node-block size of the distance ranking (full ``N`` when unbounded)."""
        if self.chunk_size is not None:
            return max(1, min(self.num_nodes, int(self.chunk_size)))
        if self.memory_budget_mb is not None:
            row_bytes = self.num_significant * embedding_dim * _RANKING_BYTES_PER_SLOT
            block = int(self.memory_budget_mb * 2**20 // max(1, row_bytes))
            return max(1, min(self.num_nodes, block))
        return self.num_nodes

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def _top_k_vote_counts(self, embeddings: np.ndarray) -> np.ndarray:
        """Per-id frequency in the global top-``K`` positions (lines 1–6).

        Blocked over node rows: vote counts are integer sums of independent
        per-row contributions, so the result is identical for every block
        size — only the peak memory changes.
        """
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        block = self._ranking_block(embeddings.shape[1])
        for start in range(0, self.num_nodes, block):
            stop = min(start + block, self.num_nodes)
            rows = self.candidates[start:stop]
            # Distance of each node in the block to its M candidates.
            candidate_embeddings = embeddings[rows]  # (block, M, d)
            distances = np.linalg.norm(
                candidate_embeddings - embeddings[start:stop, None, :], axis=-1
            )
            # Keep each row's K nearest candidates (full argsort matches the
            # original implementation's tie ordering exactly).
            order = np.argsort(distances, axis=1)[:, : self.top_k]
            top_candidates = np.take_along_axis(rows, order, axis=1)
            counts += np.bincount(top_candidates.reshape(-1), minlength=self.num_nodes)
        return counts

    def sample(self, embeddings: np.ndarray, explore: bool = True) -> np.ndarray:
        """Return the index set ``I`` of the ``M`` most significant neighbours.

        Parameters
        ----------
        embeddings:
            Current node embedding matrix ``E`` of shape ``(N, d)`` (a plain
            array — the sampling step itself is not differentiated through,
            exactly as in the paper where ``I`` is a discrete index set).
        explore:
            When ``True`` (before convergence iteration ``r``), the last
            ``M − K`` slots are filled with uniformly sampled nodes; when
            ``False`` they are filled with the next most frequent nodes so the
            index set becomes deterministic.
        """
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.shape[0] != self.num_nodes:
            raise ValueError(
                f"embeddings have {embeddings.shape[0]} rows, expected {self.num_nodes}"
            )
        counts = self._top_k_vote_counts(embeddings)
        ranked = np.argsort(-counts, kind="stable")
        # Only ids that actually received votes are "significant"; when the
        # candidate rows overlap heavily there may be fewer than M of them,
        # and the deficit must NOT be padded with zero-count ids in node-id
        # order (the stable argsort tiebreak) — that silently biased the
        # index set towards low node ids.
        voted = ranked[: int(np.count_nonzero(counts))]
        significant = voted[: self.top_k]
        remaining_slots = self.num_significant - len(significant)
        if remaining_slots > 0:
            if explore:
                pool = np.setdiff1d(np.arange(self.num_nodes), significant, assume_unique=False)
                extra = self._rng.choice(pool, size=remaining_slots, replace=False)
            else:
                extra = voted[self.top_k : self.top_k + remaining_slots]
                deficit = remaining_slots - len(extra)
                if deficit > 0:
                    # No voted ids left: draw the rest uniformly, but from a
                    # fixed-seed generator so explore=False stays
                    # deterministic call-to-call.
                    taken = np.concatenate([significant, extra])
                    pool = np.setdiff1d(np.arange(self.num_nodes), taken, assume_unique=False)
                    filler = spawn_rng(self._seed + 0x5EED).choice(
                        pool, size=deficit, replace=False
                    )
                    extra = np.concatenate([extra, filler])
            index_set = np.concatenate([significant, extra])
        else:
            index_set = significant
        self._last_index_set = index_set
        return index_set

    @property
    def last_index_set(self) -> np.ndarray | None:
        """The most recently sampled index set (``None`` before the first call)."""
        return self._last_index_set

    def random_index_set(self) -> np.ndarray:
        """Uniformly random index set — used by the "w/o SNS" ablation."""
        index_set = self._rng.choice(self.num_nodes, size=self.num_significant, replace=False)
        self._last_index_set = index_set
        return index_set


def index_set_overlap(frozen: np.ndarray, fresh: np.ndarray) -> float:
    """Fraction of the frozen index set also present in the fresh one.

    The drift metric of the online serving layer: ``1.0`` means the
    re-sampled significant-neighbour set matches the frozen graph exactly,
    ``0.0`` means complete turnover.  Membership, not order — the slim
    adjacency is invariant to a permutation of ``I``, so only set identity
    matters.  Two empty sets count as fully overlapping.
    """
    frozen = np.unique(np.asarray(frozen, dtype=np.int64))
    fresh = np.unique(np.asarray(fresh, dtype=np.int64))
    if frozen.size == 0:
        return 1.0
    return float(np.intersect1d(frozen, fresh, assume_unique=True).size / frozen.size)
